import hashlib
import json
import re
import shutil
from fractions import Fraction

import pytest

from flipbraid import fixtures
from flipbraid.cli import main
from flipbraid.fixtures import (FixtureError, evaluate_entry,
                                load_fixture, run_all_suites,
                                run_loop_suite, run_pentagon_suite,
                                run_two_flip_suite)
from flipbraid.linalg import Matrix

F = Fraction


def test_evaluate_entry():
    labels = {"i": F(1), "m": F(5), "z3": F(3), "z5": F(5)}
    assert evaluate_entry("0", {}) == 0
    assert evaluate_entry("-3/2", {}) == F(-3, 2)
    assert evaluate_entry("(i-m)/(i-m)", labels) == 1
    assert evaluate_entry("(z3-z5)/(i-m)", labels) == F(1, 2)
    assert evaluate_entry("-(z3-z5)/(i-m)", labels) == F(-1, 2)


@pytest.fixture
def entry_calls(monkeypatch):
    """The texts that ``evaluate_entry`` is called on, in call order."""
    calls = []
    evaluate = fixtures.evaluate_entry

    def counting(text, labels):
        calls.append(text)
        return evaluate(text, labels)

    monkeypatch.setattr(fixtures, "evaluate_entry", counting)
    return calls


def test_evaluate_matrix_evaluates_each_distinct_entry_once(entry_calls):
    m = fixtures.evaluate_matrix(
        {"entries": [["1", "0", "(a-b)/(a-c)"], ["0", "1", "(a-b)/(a-c)"],
                     ["0", "0", "1"]]}, {"a": F(1), "b": F(2), "c": F(3)})
    assert entry_calls == ["1", "0", "(a-b)/(a-c)"]
    assert m == Matrix([[1, 0, F(1, 2)], [0, 1, F(1, 2)], [0, 0, 1]])


def bundled_matrices():
    """(file, labels, matrix data) of every matrix in the bundled files, at
    the labels their suites evaluate them with."""
    pentagon = load_fixture("pentagon_cycle.json")
    two_flip = load_fixture("two_flip_commutation.json")
    labels = {
        "pentagon_cycle.json": {name: F(pos + 1) for pos, name
                                in enumerate(pentagon["labels"])},
        "two_flip_commutation.json": {name: F(name[1:])
                                      for name in two_flip["labels"]},
    }

    def walk(value):
        if isinstance(value, dict):
            if "entries" in value:
                yield value
            for inner in value.values():
                yield from walk(inner)
        elif isinstance(value, list):
            for inner in value:
                yield from walk(inner)

    for name in sorted(json.loads(
            fixtures._read_bytes(fixtures.MANIFEST_NAME))["files"]):
        for data in walk(load_fixture(name)):
            yield name, labels.get(name), data


def test_evaluate_matrix_matches_entrywise_evaluation(entry_calls):
    """On every bundled matrix, one evaluation per distinct entry gives the
    matrix that evaluating each entry gives."""
    files = set()
    for name, labels, data in bundled_matrices():
        files.add(name)
        entry_calls.clear()
        got = fixtures.evaluate_matrix(data, labels)
        rows = data["entries"]
        assert sorted(entry_calls) == sorted({e for row in rows for e in row})
        assert got == Matrix([[evaluate_entry(e, labels or {}) for e in row]
                              for row in rows]), name
    assert len(files) == 5


def test_checksums():
    manifest = json.loads(fixtures._read_bytes(fixtures.MANIFEST_NAME))
    names = sorted(manifest["files"])
    assert names == ["braid_loop_4_8.json", "braid_loop_5_7.json",
                     "loop_commutation.json", "pentagon_cycle.json",
                     "two_flip_commutation.json"]
    for name in names:
        load_fixture(name)


def test_each_fixture_file_is_read_once_per_run(monkeypatch):
    """``load_fixture`` is the one gate: a run reads each data file once."""
    reads = []
    read_bytes = fixtures._read_bytes

    def counting(name):
        reads.append(name)
        return read_bytes(name)

    monkeypatch.setattr(fixtures, "_read_bytes", counting)
    assert all(r.ok for r in run_all_suites())
    manifest = json.loads(read_bytes(fixtures.MANIFEST_NAME))
    assert sorted(r for r in reads if r != fixtures.MANIFEST_NAME) == sorted(
        manifest["files"])


def test_pentagon_suite():
    res = run_pentagon_suite()
    assert res.ok, res.detail


def test_two_flip_suite():
    res = run_two_flip_suite()
    assert res.ok, res.detail


def test_loop_suite():
    results = run_loop_suite()
    assert [r.name for r in results] == ["loop 4-8", "loop 5-7",
                                         "loop commutation"]
    assert all(r.ok for r in results), [r.detail for r in results]


def test_loop_factor_counts():
    assert len(load_fixture("braid_loop_4_8.json")["factors"]) == 20
    assert len(load_fixture("braid_loop_5_7.json")["factors"]) == 14


def copy_fixtures(tmp_path, monkeypatch):
    """Copy the bundled data files to ``tmp_path`` and read them from
    there."""
    for f in fixtures.DATA_DIR.iterdir():
        shutil.copy(f, tmp_path / f.name)
    monkeypatch.setattr(fixtures, "DATA_DIR", tmp_path)


def test_run_all_suites():
    results = run_all_suites()
    assert len(results) == 5
    assert all(r.ok for r in results)


def test_env_override_and_tamper_detection(tmp_path, monkeypatch):
    """A copy of the data files, read from another ``DATA_DIR``, passes its
    suite, and an entry edited in the copy fails the checksum."""
    copy_fixtures(tmp_path, monkeypatch)
    assert run_pentagon_suite().ok

    # tamper with one entry; the checksum must catch it
    target = tmp_path / "pentagon_cycle.json"
    obj = json.loads(target.read_text())
    obj["steps"][0]["matrix"]["entries"][0][0] = "2"
    target.write_text(json.dumps(obj, indent=1) + "\n")
    with pytest.raises(FixtureError, match="checksum"):
        load_fixture("pentagon_cycle.json")


def test_missing_fixture_in_override(tmp_path, monkeypatch):
    """The loader has no environment override: with FLIPBRAID_FIXTURES set
    to an empty directory, the bundled file is still read."""
    monkeypatch.setenv("FLIPBRAID_FIXTURES", str(tmp_path))
    bundled = fixtures.DATA_DIR / "pentagon_cycle.json"
    assert load_fixture("pentagon_cycle.json") == json.loads(
        bundled.read_bytes())


def test_missing_bundled_fixture(tmp_path, monkeypatch):
    """The files are read from the package's own ``data`` directory,
    ``fixtures.DATA_DIR``, and from nowhere else."""
    assert (fixtures.DATA_DIR / fixtures.MANIFEST_NAME).is_file()
    monkeypatch.setattr(fixtures, "DATA_DIR", tmp_path)
    with pytest.raises(FixtureError,
                       match="bundled fixture pentagon_cycle.json missing"):
        load_fixture("pentagon_cycle.json")


def test_suites_report_the_first_difference(tmp_path, monkeypatch, capsys):
    """An entry changed under a rewritten manifest passes the checksum, so
    the suites themselves must find it and name where it is."""
    copy_fixtures(tmp_path, monkeypatch)

    def edit(name, change):
        obj = json.loads((tmp_path / name).read_text())
        change(obj)
        raw = (json.dumps(obj, indent=1) + "\n").encode()
        (tmp_path / name).write_bytes(raw)
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        manifest["files"][name] = hashlib.sha256(raw).hexdigest()
        (tmp_path / "MANIFEST.json").write_text(json.dumps(manifest))

    def pentagon(obj):  # was (i-k)/(i-l), 2/3 at labels 1..5
        obj["steps"][0]["matrix"]["entries"][1][2] = "0"

    def loop(obj):  # was 4/35
        obj["product"]["entries"][0][1] = "1/35"

    edit("pentagon_cycle.json", pentagon)
    edit("braid_loop_4_8.json", loop)

    res = run_pentagon_suite()
    assert not res.ok
    assert res.detail == "step 1: first difference at row 2, col 3: 2/3 != 0"
    loop_4_8 = run_loop_suite()[0]
    assert loop_4_8.name == "loop 4-8" and not loop_4_8.ok
    assert loop_4_8.detail == "first difference at row 1, col 2: 4/35 != 1/35"

    assert main(["fixtures"]) == 1
    out = capsys.readouterr().out
    assert ("FAIL pentagon (step 1: first difference at row 2, col 3:"
            " 2/3 != 0)\n") in out
    assert ("FAIL loop 4-8 (first difference at row 1, col 2:"
            " 4/35 != 1/35)\n") in out
    assert "PASS two-flip\n" in out




@pytest.mark.parametrize("manifest, message", [
    ("{not json", "MANIFEST.json is not valid JSON: "),
    ("{}", "MANIFEST.json has no 'files' object"),
    ('{"files": ["pentagon_cycle.json"]}',
     "MANIFEST.json has no 'files' object"),
])
def test_malformed_manifest_fails_the_command(tmp_path, monkeypatch, capsys,
                                              manifest, message):
    copy_fixtures(tmp_path, monkeypatch)
    (tmp_path / "MANIFEST.json").write_text(manifest)
    with pytest.raises(FixtureError, match=re.escape(message)):
        load_fixture("pentagon_cycle.json")
    assert main(["fixtures"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"FAIL fixtures: {message}")


def replace_fixture(tmp_path, name, raw: bytes):
    """Write ``raw`` as fixture ``name`` and its digest into the manifest."""
    (tmp_path / name).write_bytes(raw)
    manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
    manifest["files"][name] = hashlib.sha256(raw).hexdigest()
    (tmp_path / "MANIFEST.json").write_text(json.dumps(manifest))


def test_fixture_that_is_not_json_fails_the_command(tmp_path, monkeypatch,
                                                    capsys):
    """A fixture whose bytes match the manifest but do not parse."""
    copy_fixtures(tmp_path, monkeypatch)
    replace_fixture(tmp_path, "two_flip_commutation.json", b"{not json")
    message = "two_flip_commutation.json is not valid JSON: "
    with pytest.raises(FixtureError, match=re.escape(message)):
        load_fixture("two_flip_commutation.json")
    assert main(["fixtures"]) == 1
    assert capsys.readouterr().err.startswith(f"FAIL fixtures: {message}")


def without_first_factor_matrix(data):
    del data["factors"][0]["matrix"]
    return data


def with_int_entry(data):
    data["product"]["entries"][2][1] = 0
    return data


@pytest.mark.parametrize("name, reshape, message", [
    ("two_flip_commutation.json", lambda data: {},
     "two_flip_commutation.json has no 'labels'"),
    ("loop_commutation.json", lambda data: [data],
     "loop_commutation.json is not an object"),
    ("pentagon_cycle.json", lambda data: {**data, "steps": {}},
     "pentagon_cycle.json['steps'] is not a list"),
    ("braid_loop_4_8.json", without_first_factor_matrix,
     "braid_loop_4_8.json['factors'][0] has no 'matrix'"),
    ("braid_loop_5_7.json", with_int_entry,
     "braid_loop_5_7.json['product']['entries'][2][1] is not a str"),
])
def test_fixture_of_the_wrong_shape_fails_the_command(tmp_path, monkeypatch,
                                                      capsys, name, reshape,
                                                      message):
    """Valid JSON under a matching digest, but not the keys and types its
    suite reads."""
    copy_fixtures(tmp_path, monkeypatch)
    data = reshape(json.loads((tmp_path / name).read_text()))
    replace_fixture(tmp_path, name, json.dumps(data).encode())
    with pytest.raises(FixtureError) as info:
        load_fixture(name)
    assert str(info.value) == message
    assert main(["fixtures"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"FAIL fixtures: {message}\n"


def with_entry(path, value):
    """A reshape that sets the entry at ``path`` to ``value``."""
    def change(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return data
    return change


def with_sixth_pentagon_step(data):
    data["steps"].append(data["steps"][0])
    return data


def with_ragged_factor(data):
    data["factors"][0]["matrix"]["entries"][3].pop()
    return data


def with_smaller_product(data):
    data["product"]["entries"] = [row[:-1]
                                  for row in data["product"]["entries"][:-1]]
    return data


@pytest.mark.parametrize("name, reshape, message", [
    ("braid_loop_5_7.json", with_entry(("product", "entries", 0, 0), "x"),
     "braid_loop_5_7.json: ValueError: Invalid literal for Fraction: 'x'"),
    ("two_flip_commutation.json",
     with_entry(("product", "entries", 2, 2), "(z1-z9)/(z1-z5)"),
     "two_flip_commutation.json: KeyError: 'z9'"),
    ("pentagon_cycle.json",
     with_entry(("steps", 0, "removed"), ["i", "l", "m"]),
     "pentagon_cycle.json: ValueError: flip needs four distinct indices:"
     " (1, 4, 5), (3, 5)"),
    ("braid_loop_4_8.json", with_ragged_factor,
     "braid_loop_4_8.json: DimensionError: ragged rows"),
    ("pentagon_cycle.json", with_sixth_pentagon_step,
     "pentagon_cycle.json: IndexError: tuple index out of range"),
    ("braid_loop_4_8.json", with_smaller_product,
     "braid_loop_4_8.json, braid_loop_5_7.json: DimensionError:"
     " cannot multiply 10x10 by 11x11"),
], ids=["bad-rational", "unknown-label", "three-name-removed",
        "ragged-matrix", "sixth-pentagon-step", "products-of-two-sizes"])
def test_fixture_with_a_bad_value_fails_the_command(tmp_path, monkeypatch,
                                                    capsys, name, reshape,
                                                    message):
    """The right shape under a matching digest, but a value that its suite
    cannot evaluate: the command names the file and prints no result."""
    copy_fixtures(tmp_path, monkeypatch)
    data = reshape(json.loads((tmp_path / name).read_text()))
    replace_fixture(tmp_path, name, json.dumps(data).encode())
    load_fixture(name)
    with pytest.raises(FixtureError) as info:
        run_all_suites()
    assert str(info.value) == message
    assert main(["fixtures"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"FAIL fixtures: {message}\n"


def test_two_flip_factor_whose_columns_do_not_sum_to_one(tmp_path,
                                                         monkeypatch, capsys):
    """Both orders of the two-flip pair pass the column-sum check of the
    loop factors."""
    copy_fixtures(tmp_path, monkeypatch)
    name = "two_flip_commutation.json"
    data = with_entry(("orders", 0, "factors", 0, "matrix", "entries", 0, 0),
                      "2")(json.loads((tmp_path / name).read_text()))
    replace_fixture(tmp_path, name, json.dumps(data).encode())
    message = f"{name} factor 1: column sums are not all 1"
    with pytest.raises(FixtureError) as info:
        run_two_flip_suite()
    assert str(info.value) == message
    assert main(["fixtures"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"FAIL fixtures: {message}\n"


@pytest.mark.parametrize("name, path", [
    ("braid_loop_4_8.json", ("factors",)),
    ("two_flip_commutation.json", ("orders", 1, "factors")),
], ids=["loop", "two-flip-order"])
def test_empty_factor_list_fails_the_command(tmp_path, monkeypatch, capsys,
                                              name, path):
    """A factor list that is empty under a matching digest has the right
    shape but no product: the command names the file, not a traceback."""
    copy_fixtures(tmp_path, monkeypatch)
    data = with_entry(path, [])(json.loads((tmp_path / name).read_text()))
    replace_fixture(tmp_path, name, json.dumps(data).encode())
    load_fixture(name)
    message = f"{name} has no factors"
    with pytest.raises(FixtureError) as info:
        run_all_suites()
    assert str(info.value) == message
    assert main(["fixtures"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"FAIL fixtures: {message}\n"
