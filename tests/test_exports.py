import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import flipbraid

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def test_every_exported_name_resolves():
    assert len(set(flipbraid.__all__)) == len(flipbraid.__all__)
    for name in flipbraid.__all__:
        assert getattr(flipbraid, name) is not None, name


INTERNAL = {
    "braids": ("generator_trajectories",),
    "delaunay": ("apply_flip", "diff_flips", "render_svg", "triangle",
                 "verify_delaunay"),
    "flips": ("gamma_generator_name", "pentagon_cycle_product"),
    "geometry": ("incircle", "orient2d"),
    "kinetics": ("configuration_at",),
    "linalg": ("SingularMatrixError", "mat_inverse", "mat_mul"),
}


def test_internal_names_stay_in_their_modules():
    """The package exports the documented API only; these names are no
    ``flipbraid`` attribute, and each still imports from its module."""
    for module_name, names in INTERNAL.items():
        module = importlib.import_module(f"flipbraid.{module_name}")
        for name in names:
            assert not hasattr(flipbraid, name), name
            assert name not in flipbraid.__all__
            assert getattr(module, name, None) is not None, (module_name,
                                                              name)


def test_retired_flip_records_are_gone():
    from flipbraid import delaunay, flips

    for name in ("FlipRoles", "FlipMatrix", "FlipShape", "reverse_roles",
                 "pentagon_cycle", "Triangulation", "ordered_basis"):
        assert name not in flipbraid.__all__
        assert not hasattr(flipbraid, name)
        assert not hasattr(flips, name)
        assert not hasattr(delaunay, name)


def test_retired_readers_and_duplicate_helpers_are_gone():
    from flipbraid import braids, fixtures, flips, geometry, kinetics, linalg

    retired = {
        geometry: ("_strictly_inside_triangle", "_orient", "_incircle",
                   "validate_general_position"),
        geometry.Configuration: ("to_json_dict", "from_json_dict", "_moved"),
        kinetics: ("_trajectory_from_json", "_far_commuting",
                   "_certificate", "_past_end", "_rational_time"),
        kinetics.TrajectorySet: ("to_json_dict", "from_json_dict",
                                 "stationary_triangles"),
        flips: ("_event_from_json", "_integer_labels", "_mix_rows"),
        fixtures: ("verify_checksums", "_manifest_files", "_checked_bytes",
                   "_loop_product"),
        linalg: ("json_entries",),
        braids: ("_on_segment", "_commuting_pair_instances",
                 "LoopClearanceError"),
        braids.BraidLetter: ("inverse",),
        braids.BraidWord: ("__mul__",),
        kinetics._MoverKDS: ("_check_clearance", "_failure", "_certify",
                             "_quad", "_flip", "_check_simultaneous"),
    }
    for owner, names in retired.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
            assert name not in flipbraid.__all__


PARSER_MODULES = ("argparse", "gettext", "locale")


def loaded_modules(code: str, modules) -> str:
    """The sorted list of ``modules`` that a fresh ``python -S -B``
    running ``code`` has loaded, as it prints it."""
    probe = (f"import sys\n{code}\nprint(sorted(m for m in {modules!r}"
             " if m in sys.modules), file=sys.stderr)")
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", probe], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.strip().splitlines()[-1]


def test_import_loads_no_code_generators():
    """The records are built without ``dataclasses``, and the data files
    are found without ``importlib.resources``: a fresh interpreter that
    imports the package and its CLI loads neither, nor ``inspect``, nor
    the modules an argparse parser needs.  Only the fixtures gate checks a
    SHA-256 digest, so neither ``hashlib`` nor OpenSSL's ``_hashlib`` is
    loaded either, though ``flipbraid.fixtures`` is."""
    modules = ("dataclasses", "inspect", "importlib.resources", "hashlib",
               "_hashlib", "flipbraid.fixtures", *PARSER_MODULES)
    assert loaded_modules("import flipbraid, flipbraid.cli",
                          modules) == "['flipbraid.fixtures']"


def test_a_command_builds_no_parser():
    """``flipbraid.cli`` reads the command line from its flag table, so a
    command run loads none of the modules of an argparse parser."""
    code = ("import flipbraid.cli\nassert flipbraid.cli.main(['verify', '--n',"
            " '3', '--family', 'inverse']) == 0")
    assert loaded_modules(code, PARSER_MODULES) == "[]"


def test_package_imports_only_the_standard_library():
    """The package has no runtime dependency: every module it imports is
    in the standard library or is the package itself."""
    for path in sorted((ROOT / "src" / "flipbraid").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "flipbraid", (
                    path.name, name)


EXACT_MATH = {"gcd", "isqrt", "lcm"}


def float_uses(source: str, exempt=()) -> list:
    """(line, what) for each float literal, use of the name ``float`` and
    ``math`` name other than those of ``EXACT_MATH`` in ``source``, outside
    the functions named in ``exempt``."""
    tree = ast.parse(source)
    skipped = {id(inner) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in exempt
               for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "math"
              and node.attr not in EXACT_MATH):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, f"math.{alias.name}")
                         for alias in node.names
                         if alias.name not in EXACT_MATH)
    return found


def test_no_float_decides_anything():
    """Exactness: the package computes with integers and Fractions only.
    No module has a float literal, uses the name ``float`` or takes from
    ``math`` more than its integer functions; only ``render_svg``, which
    draws, converts coordinates to floats."""
    for path in sorted((ROOT / "src" / "flipbraid").glob("*.py")):
        exempt = ("render_svg",) if path.name == "delaunay.py" else ()
        assert float_uses(path.read_text(), exempt) == [], path.name


def test_float_guard_sees_each_kind_of_float():
    """The guard above finds what it looks for, and skips an exempt
    function."""
    source = ("import math\nfrom math import sqrt, gcd\n"
              "def f(x):\n    return float(x) + 0.5 + math.floor(x)"
              " + math.isqrt(x)\n"
              "def render_svg(x):\n    return float(x)\n")
    assert sorted(float_uses(source, ("render_svg",))) == [
        (2, "math.sqrt"), (4, "0.5"), (4, "float"), (4, "math.floor")]


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


def test_traced_worker_reports_every_layer_metric():
    """One traced batch of ``bench/worker.py`` over all four kinds of op
    reports every per-layer metric of BENCHMARK.json (``trace.overhead`` is
    computed by ``bench/run.py`` from two batches), every op succeeds, and
    the predicate counters see the predicates that the program runs."""
    spec = {"root": str(ROOT), "n": 3, "trace": True, "ops": [
        {"argv": ["simulate", "--n", "3", "--word", "b(1,2)"]},
        {"argv": ["invariant", "--n", "3", "--word", "b(1,2) b(1,3)^-1",
                  "--charpoly"]},
        {"argv": ["fixtures"]},
        {"pentagon": ["1", "2", "3", "4", "5"]},
    ]}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in per_layer
               if m["name"] != "trace.overhead"
               and m["name"] not in report["layers"]]
    assert missing == []
    for output in report["outputs"]:
        assert output.get("rc", 0) == 0 and not output.get("error"), output
    assert report["layers"]["geometry.orient2d.calls"] > 0
    assert report["layers"]["geometry.incircle.calls"] > 0
