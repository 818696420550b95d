import ast
import importlib
from pathlib import Path

import flipbraid

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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


def test_every_traced_layer_function_resolves():
    """The traced benchmark run wraps the (module, function) pairs of
    ``TARGETS`` in bench/tracer.py and silently skips a missing one, which
    would drop a per-layer metric; so each must be a package callable."""
    tree = ast.parse(TRACER.read_text())
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["TARGETS"]]
    assert targets
    for module_name, fn_name in targets:
        module = importlib.import_module(f"flipbraid.{module_name}")
        assert callable(getattr(module, fn_name, None)), (module_name, fn_name)
