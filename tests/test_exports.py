import flipbraid


def test_every_exported_name_resolves():
    assert len(set(flipbraid.__all__)) == len(flipbraid.__all__)
    for name in flipbraid.__all__:
        assert getattr(flipbraid, name) is not None, name


def test_retired_flip_records_are_gone():
    from flipbraid import delaunay, flips

    for name in ("FlipRoles", "FlipMatrix", "reverse_roles",
                 "pentagon_cycle", "Triangulation", "ordered_basis"):
        assert name not in flipbraid.__all__
        assert not hasattr(flipbraid, name)
        assert not hasattr(flips, name)
        assert not hasattr(delaunay, name)
