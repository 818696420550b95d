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


def test_retired_readers_and_duplicate_helpers_are_gone():
    from flipbraid import braids, flips, geometry, kinetics, linalg

    retired = {
        geometry: ("_strictly_inside_triangle",),
        geometry.Configuration: ("to_json_dict", "from_json_dict", "_moved"),
        kinetics: ("_trajectory_from_json", "_far_commuting"),
        kinetics.TrajectorySet: ("to_json_dict", "from_json_dict",
                                 "stationary_triangles"),
        flips: ("_event_from_json",),
        linalg: ("json_entries",),
        braids: ("_on_segment",),
    }
    for owner, names in retired.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
            assert name not in flipbraid.__all__
