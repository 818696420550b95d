import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipbraid.cli import _dumps, main
from flipbraid.delaunay import FlipEvent
from flipbraid.flips import (flip_entry_json, flip_sequence_to_json,
                             gamma_generator_name)
from flipbraid.linalg import Matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_empty_word(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--n", "2", "--word", "")
    assert code == 0
    data = json.loads(out)
    assert Matrix(data["matrix"]["entries"]) == Matrix.identity(5)
    assert data["flips"] == []


def test_invariant_deterministic_output(capsys):
    args = ("invariant", "--n", "2", "--word", "b(1,2)", "--trace")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_invariant_charpoly(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--n", "3", "--word",
                           "b(1,3)", "--charpoly")
    assert code == 0
    data = json.loads(out)
    assert data["matrix"]["rows"] == 7
    assert len(data["charpoly"]) == 8 and data["charpoly"][0] == "1"
    assert "trace" not in data

    # cross-check against the library
    from flipbraid import invariant, parse_word
    from flipbraid.linalg import char_poly
    expected = char_poly(invariant(parse_word("b(1,3)", 3)).matrix)
    assert [str(c) for c in expected] == data["charpoly"]


def test_invariant_size_n5(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--n", "5", "--word",
                           "b(1,5)")
    assert code == 0
    assert json.loads(out)["matrix"]["rows"] == 11


def test_invariant_word_error_is_usage(capsys):
    code, _, err = run_cli(capsys, "invariant", "--n", "3", "--word",
                           "b(3,1)")
    assert code == 2
    assert "i < j" in err


def test_invariant_floor_above_step_is_usage(capsys):
    code, _, err = run_cli(capsys, "invariant", "--n", "2", "--word", "",
                           "--step", "1/64", "--floor", "1/2")
    assert code == 2
    assert "floor" in err


@pytest.mark.parametrize("step", ["2", "3/2"])
def test_step_above_one_is_usage(capsys, step):
    for command in ("simulate", "invariant"):
        code, out, err = run_cli(capsys, command, "--n", "2", "--word",
                                 "b(1,2)", "--step", step)
        assert code == 2 and out == ""
        assert err == "error: --step must be at most 1\n"


def test_floor_equal_to_step_is_accepted(capsys):
    from flipbraid import parse_word
    from flipbraid.braids import canonical_setup, generator_trajectories
    from flipbraid.kinetics import extract_flip_sequence

    code, out, err = run_cli(capsys, "simulate", "--n", "2", "--word",
                             "b(1,2)", "--floor", "1/64", "--step", "1/64")
    assert code == 0 and err == ""
    letter = parse_word("b(1,2)", 2).letters[0]
    ts = generator_trajectories(canonical_setup(2), letter)
    events = extract_flip_sequence(ts, step=Fraction(1, 64),
                                   floor=Fraction(1, 64))
    assert json.loads(out) == [flip_sequence_to_json(events)]


@pytest.mark.parametrize("argv, message", [
    (("invariant", "--n", "0", "--word", ""),
     "error: strand count must be positive, got 0\n"),
    (("simulate", "--n", "0", "--word", ""),
     "error: strand count must be positive, got 0\n"),
    (("invariant", "--n", "2", "--word", "b(0,1)"),
     "error: token 1: strands start at 1\n"),
    (("simulate", "--n", "2", "--word", "b(1,2)", "--floor", "0"),
     "error: --step and --floor must be positive\n"),
])
def test_refusals_are_usage(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == message


def test_step_that_is_not_a_rational_is_usage(capsys):
    """argparse refuses it, with exit code 2 and its usage line."""
    with pytest.raises(SystemExit) as info:
        main(["invariant", "--n", "2", "--word", "", "--step", "abc"])
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: flipbraid invariant")
    assert captured.err.endswith(
        "error: argument --step: not a rational: 'abc'\n")


@pytest.mark.parametrize("step", ["1", "1/2"])
def test_coarse_step_gives_the_engine_matrix(capsys, step):
    """A sampling cell over several corners of a letter's loop can hold a
    closed cycle of flips, whose ends triangulate alike; it is split at
    the corners, so even one cell per loop finds the letter's flips."""
    argv = ("invariant", "--n", "3", "--word", "b(1,3) b(2,3)^-1")
    _, exact, _ = run_cli(capsys, *argv)
    code, sampled, err = run_cli(capsys, *argv, "--step", step)
    assert code == 0 and err == ""
    exact, sampled = json.loads(exact), json.loads(sampled)
    assert sampled["matrix"] == exact["matrix"]
    assert Matrix(exact["matrix"]["entries"]) != Matrix.identity(7)
    assert all(letter for letter in sampled["flips"])


def test_verify_at_step_one_compares_the_engine_matrices(monkeypatch,
                                                         capsys):
    """``verify --step 1`` passes on the matrices that the engine gives,
    none of which is the identity."""
    from flipbraid import braids

    compared = []
    check = braids._check

    def recording(report, name, lhs, rhs):
        compared.append((name, lhs, rhs))
        check(report, name, lhs, rhs)

    monkeypatch.setattr(braids, "_check", recording)
    argv = ("verify", "--n", "3", "--family", "pb_all")
    code, out, _ = run_cli(capsys, *argv, "--step", "1")
    assert code == 0 and out.endswith("pb_all at n=3: 2/2 instances pass\n")
    sampled = compared[:]
    compared.clear()
    assert run_cli(capsys, *argv)[0] == 0
    assert sampled == compared and len(sampled) == 2
    assert not any(lhs.is_identity() for _, lhs, _ in sampled)


def test_invariant_out_file(tmp_path, capsys):
    path = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "invariant", "--n", "2", "--word",
                           "b(1,2)", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["n"] == 2


def test_verify_inverse(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--family",
                           "inverse")
    assert code == 0
    assert "PASS inverse b(1,2)" in out
    assert "1/1 instances pass" in out


def test_verify_pentagon_trials(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--family",
                           "pentagon", "--trials", "25")
    assert code == 0
    assert "25/25 instances pass" in out


@pytest.mark.parametrize("argv, message", [
    (("--n", "0", "--family", "pb_all"), "error: --n must be positive\n"),
    (("--n", "-2", "--family", "inverse"), "error: --n must be positive\n"),
    (("--n", "3", "--family", "pentagon", "--trials", "-1"),
     "error: --trials must be positive\n"),
    (("--n", "3", "--family", "pentagon", "--trials", "0"),
     "error: --trials must be positive\n"),
    (("--n", "2", "--family", "pb_all"),
     "error: family pb_all has no instance at n=2\n"),
    (("--n", "3", "--family", "far_comm"),
     "error: family far_comm has no instance at n=3\n"),
    (("--n", "1", "--family", "inverse"),
     "error: family inverse has no instance at n=1\n"),
])
def test_verify_without_instances_is_usage(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == message


def test_verify_unresolved_event_is_math_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "3", "--family",
                             "inverse", "--step", "1/8", "--floor", "1/8")
    assert code == 1 and out == ""
    assert err.startswith("error: unresolved codimension-2 event")
    assert err.count("\n") == 1
    assert "(letter b(1,2))" in err


def _perturb_word(monkeypatch, pairs):
    """Make ``braids._word_matrix`` return a wrong matrix for one word;
    return (wrong, right) for that word."""
    from flipbraid import braids

    word_matrix = braids._word_matrix
    right = word_matrix(4, pairs)
    rows = [list(row) for row in right.entries()]
    rows[0][0] += 1
    wrong = Matrix(rows)

    def perturbed(n, word, **kw):
        return wrong if list(word) == pairs else word_matrix(n, word, **kw)

    monkeypatch.setattr(braids, "_word_matrix", perturbed)
    return wrong, right


def test_verify_failure_prints_both_sides(monkeypatch, capsys):
    wrong, right = _perturb_word(monkeypatch, [(1, 4), (2, 3)])
    code, out, err = run_cli(capsys, "verify", "--n", "4", "--family",
                             "far_comm")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == "PASS commute[disjoint] b(3,4) b(1,2)"
    assert lines[1] == "FAIL commute[nested] b(1,4) b(2,3)"
    assert lines[2] == "  lhs: " + json.dumps(wrong.to_json_dict())
    assert lines[3] == "  rhs: " + json.dumps(right.to_json_dict())
    assert lines[4:] == ["far_comm at n=4: 1/2 instances pass"]


def test_verify_inverse_failure_prints_lhs_only(monkeypatch, capsys):
    wrong, _ = _perturb_word(monkeypatch, [(2, 3, 1), (2, 3, -1)])
    code, out, err = run_cli(capsys, "verify", "--n", "4", "--family",
                             "inverse")
    assert code == 1 and err == ""
    lines = out.splitlines()
    fail = lines.index("FAIL inverse b(2,3)")
    assert lines[fail + 1] == "  lhs: " + json.dumps(wrong.to_json_dict())
    assert not any(line.startswith("  rhs:") for line in lines)
    assert lines[-1] == "inverse at n=4: 5/6 instances pass"


def test_verify_rejects_bad_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3", "--family", "bogus"])
    assert exc.value.code == 2


def test_fixtures_command(capsys):
    code, out, _ = run_cli(capsys, "fixtures")
    assert code == 0
    for name in ("pentagon", "two-flip", "loop 4-8", "loop 5-7",
                 "loop commutation"):
        assert f"PASS {name}" in out


def test_fixtures_command_prints_one_pass_per_suite(capsys):
    code, out, err = run_cli(capsys, "fixtures")
    assert code == 0
    assert err == ""
    assert out.splitlines() == ["PASS pentagon", "PASS two-flip",
                                "PASS loop 4-8 (20 factors)",
                                "PASS loop 5-7 (14 factors)",
                                "PASS loop commutation"]


def test_simulate_empty_word(tmp_path, capsys):
    svg_dir = tmp_path / "snaps"
    code, out, _ = run_cli(capsys, "simulate", "--n", "2", "--word", "",
                           "--svg-dir", str(svg_dir))
    assert code == 0
    assert json.loads(out) == []
    files = sorted(p.name for p in svg_dir.iterdir())
    assert files == ["snapshot_000.svg"]


def test_simulate_generator(tmp_path, capsys):
    svg_dir = tmp_path / "snaps"
    code, out, _ = run_cli(capsys, "simulate", "--n", "2", "--word",
                           "b(1,2)", "--svg-dir", str(svg_dir))
    assert code == 0
    letters = json.loads(out)
    assert len(letters) == 1
    events = letters[0]
    assert events, "generator loop must flip"
    for evt in events:
        assert evt["gamma"].startswith("d(")
        assert set(evt) == {"removed", "inserted", "quad", "gamma",
                            "t_lo", "t_hi"}
    assert len(list(svg_dir.iterdir())) == len(events) + 1


def test_simulate_deterministic(capsys):
    args = ("simulate", "--n", "2", "--word", "b(1,2)")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_invariant_unwritable_out_is_usage(tmp_path, capsys):
    path = tmp_path / "no" / "such" / "x.json"
    code, out, err = run_cli(capsys, "invariant", "--n", "2", "--word",
                             "b(1,2)", "--out", str(path))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_simulate_unwritable_svg_dir_is_usage(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    svg_dir = blocker / "x"
    code, out, err = run_cli(capsys, "simulate", "--n", "2", "--word",
                             "b(1,2)", "--svg-dir", str(svg_dir))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {svg_dir}: Not a directory\n"


# SHA-256 digests of valid-input output, pinned so that a refactor keeps
# stdout and every SVG byte-identical.
GOLDEN_STDOUT = {
    ("invariant", "--n", "3", "--word", "b(1,3) b(2,3)^-1 b(1,2)",
     "--trace", "--charpoly"):
        "a2fccd2df3fde986a6fd39f6fe993c1d11dc48833083d51fcbe0e4eaef847592",
    # the word-n8 benchmark op: a 17 x 17 matrix, its trace and charpoly
    ("invariant", "--n", "8", "--word", "b(1,8) b(3,5)^-1 b(2,7)",
     "--trace", "--charpoly"):
        "d4863488730bc976b4df9b65d8b73410bc7cfa3ba8c8fb460e5e78095057711c",
    ("verify", "--n", "3", "--family", "pb_all"):
        "d5fa3860a553ee6d302f811b447d3bf96cc0bcd599d7ca0733d0a2f7495ad573",
    # pins the order of the commuting pairs and mixed quadruples, which
    # start at n = 4
    ("verify", "--n", "5", "--family", "pb_all"):
        "5b2e057b80332803b2cc376b8f6e350e832dbf29201a0f3d563dc60fdc5f03ce",
}
# simulate argv -> (stdout digest, snapshot count, digest of the snapshots
# concatenated in name order); the second case runs the sampler
GOLDEN_SIMULATE = {
    ("--n", "3", "--word", "b(1,3) b(2,3)^-1"): (
        "98f0a8c56dc9b1803aac1970b6997311f76445fe05685c301fa194c5e0cff56b",
        33,
        "e941b04721a577c7900b33a466b128df83728741a2d13b6eebcce3f3f39b4c8f"),
    ("--n", "4", "--word", "b(1,3) b(2,4)^-1", "--step", "1/64"): (
        "997088d36e71d3f54aae3cbc30bec33da22f7efd35b89c02d3ce888db1814b9b",
        45,
        "92699089518bbd34912781a98d4c2c41dd857d5f9f4b3ab6d49387e6df7aa0a4"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_benchmark_outputs(capsys):
    """The outputs of the extract-n7 and word-n8 benchmark ops: simulate
    of every signed generator at n = 7, b(i,j) then b(i,j)^-1 for i < j,
    and invariant --charpoly --trace of two 3-letter words at n = 8, each
    digest over the concatenated stdout."""
    outs = []
    for i in range(1, 8):
        for j in range(i + 1, 8):
            for word in (f"b({i},{j})", f"b({i},{j})^-1"):
                outs.append(run_cli(capsys, "simulate", "--n", "7",
                                    "--word", word))
    assert len(outs) == 42 and all(o[0] == 0 and o[2] == "" for o in outs)
    assert _sha256("".join(o[1] for o in outs).encode()) == (
        "847028f8c0e3fbcfa435c4f7c3e893d543c7091866900ddda4b789ca3fd0b543")
    outs = [run_cli(capsys, "invariant", "--n", "8", "--word", word,
                    "--charpoly", "--trace")
            for word in ("b(1,2) b(3,8)^-1 b(2,7)",
                         "b(4,5)^-1 b(1,8) b(6,7)")]
    assert all(o[0] == 0 and o[2] == "" for o in outs)
    assert _sha256("".join(o[1] for o in outs).encode()) == (
        "0edff9a6bc9f328b0df72dfe3e2ac00766b9bb731964a2e6a5f41488162001e2")


@pytest.mark.parametrize("word", ["", "b(1,3) b(2,3)^-1"])
def test_command_output_is_the_payload_dumped(capsys, word):
    """``invariant`` prints json.dumps of ``to_json_dict``, and
    ``simulate`` that of ``flip_sequence_to_json`` per letter, the empty
    word included."""
    from flipbraid import invariant, parse_word
    from flipbraid.braids import canonical_setup, letter_flips

    parsed = parse_word(word, 3)
    code, out, err = run_cli(capsys, "invariant", "--n", "3", "--word",
                             word, "--trace", "--charpoly")
    assert code == 0 and err == ""
    payload = invariant(parsed).to_json_dict(with_charpoly=True)
    assert out == json.dumps(payload, indent=2) + "\n"
    code, out, err = run_cli(capsys, "simulate", "--n", "3", "--word", word)
    assert code == 0 and err == ""
    payload = [flip_sequence_to_json(letter_flips(canonical_setup(3),
                                                  letter)[1])
               for letter in parsed.letters]
    assert out == json.dumps(payload, indent=2) + "\n"
    assert (out == "[]\n") == (word == "")


@pytest.mark.parametrize("command", ["invariant", "simulate"])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, command):
    argv = (command, "--n", "3", "--word", "b(1,3) b(2,3)^-1")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "out.json"
    code, quiet, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and quiet == ""
    assert path.read_bytes() == out.encode()


TIME = st.fractions(min_value=0, max_value=1, max_denominator=2 ** 40)


@st.composite
def unsorted_flip_events(draw):
    """A flip on four distinct indices, each pair in either order, with a
    bracket, with none, or with one end only."""
    i, j, k, l = draw(st.lists(st.integers(0, 10 ** 4), min_size=4,
                               max_size=4, unique=True))
    ends = draw(st.sampled_from(("both", "none", "t_lo", "t_hi")))
    lo, hi = sorted(draw(st.tuples(TIME, TIME)))
    return FlipEvent((i, k), (j, l), lo if ends in ("both", "t_lo") else None,
                     hi if ends in ("both", "t_hi") else None)


def entry_dict(event):
    """A flip-log entry built field by field, as the log is specified."""
    out = {"removed": list(event.removed), "inserted": list(event.inserted),
           "quad": sorted(event.removed + event.inserted),
           "gamma": gamma_generator_name(event)}
    if event.t_lo is not None and event.t_hi is not None:
        out.update(t_lo=str(event.t_lo), t_hi=str(event.t_hi))
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(unsorted_flip_events(), max_size=5), st.integers(0, 4))
def test_entry_writer_is_json_dumps_of_the_entry(events, depth):
    """``flip_entry_json`` at any depth, ``_dumps`` of FlipEvents and
    ``flip_sequence_to_json`` all give the entry built field by field."""
    indent = "\n" + "  " * depth
    for e in events:
        text = flip_entry_json(e, indent)
        assert text == json.dumps(entry_dict(e), indent=2).replace(
            "\n", indent)
        assert json.loads(text) == flip_sequence_to_json([e])[0]
    entries = [entry_dict(e) for e in events]
    assert flip_sequence_to_json(events) == entries
    assert _dumps([events]) == json.dumps([entries], indent=2)


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT))
def test_golden_stdout(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert _sha256(out.encode()) == GOLDEN_STDOUT[argv]


def test_golden_simulate(tmp_path, capsys):
    for case, (argv, (stdout, count, snapshots)) in enumerate(
            GOLDEN_SIMULATE.items()):
        svg_dir = tmp_path / str(case)
        code, out, err = run_cli(capsys, "simulate", *argv, "--svg-dir",
                                 str(svg_dir))
        assert code == 0 and err == ""
        assert _sha256(out.encode()) == stdout
        svgs = sorted(svg_dir.iterdir())
        assert len(svgs) == count
        assert _sha256(b"".join(p.read_bytes() for p in svgs)) == snapshots


def test_simulate_unresolved_event_names_the_letter(capsys):
    code, out, err = run_cli(capsys, "simulate", "--n", "3", "--word",
                             "b(1,2)", "--step", "1/8", "--floor", "1/8")
    assert code == 1 and out == ""
    assert err.startswith("error: unresolved codimension-2 event")
    assert err.endswith(" (letter b(1,2))\n")


def test_default_path_never_samples(monkeypatch, capsys, tmp_path):
    """Without --step or --floor every command runs the exact engine; either
    flag selects the sampler, whose bisection ``_refine`` is."""
    from flipbraid import kinetics
    from flipbraid.braids import _letter_result

    def refine(*args):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(kinetics, "_refine", refine)
    _letter_result.cache_clear()
    for argv in (("invariant", "--n", "3", "--word", "b(1,3) b(2,3)^-1"),
                 ("verify", "--n", "4", "--family", "pb_all"),
                 ("simulate", "--n", "3", "--word", "b(1,2)", "--svg-dir",
                  str(tmp_path))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
    for flags in (("--step", "1/64"), ("--floor", "1/1099511627776")):
        with pytest.raises(AssertionError, match="the sampler ran"):
            main(["invariant", "--n", "3", "--word", "b(1,3)", *flags])


def test_snapshots_replay_the_flips(monkeypatch, capsys, tmp_path):
    """``--svg-dir`` draws each snapshot from the flip log replayed from
    home, and the engine samples nothing, so a default ``simulate`` takes
    no samples at all."""
    from flipbraid import kinetics

    calls = []
    sample_at = kinetics._sample_at

    def counted(ts, t):
        calls.append(t)
        return sample_at(ts, t)

    monkeypatch.setattr(kinetics, "_sample_at", counted)
    code, out, err = run_cli(capsys, "simulate", "--n", "3", "--word",
                             "b(1,3) b(2,3)^-1", "--svg-dir", str(tmp_path))
    assert code == 0 and err == ""
    assert len(list(tmp_path.iterdir())) == 33
    assert calls == []


def test_sampling_flags_help_says_what_they_select(capsys):
    for command in ("invariant", "verify", "simulate"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "(default: no sampling, the exact event engine;" in text
        assert "with only --floor given, 1/64)" in text
        assert "with only --step given, 1/2^40)" in text


def test_parser_is_built_once_per_process(capsys):
    from flipbraid.cli import build_parser

    build_parser.cache_clear()
    for word in ("", "b(1,2)"):
        code, _, _ = run_cli(capsys, "invariant", "--n", "2", "--word", word)
        assert code == 0
    assert build_parser.cache_info().misses == 1


# text with quotes, backslashes, control characters and non-ASCII
TEXT = st.text(st.characters() | st.sampled_from(
    '"\\/\b\f\n\r\t\x00\x1f\x7f az\xe9\u20ac\U0001f600'))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-2 ** 200, 2 ** 200) | TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(TEXT, inner, max_size=4)
    # handed to json: floats, tuples and dicts with int keys
    | st.floats() | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=20)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(JSON_VALUES)
def test_writer_is_json_dumps_with_indent_2(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_command_output_is_json_dumps_with_indent_2(capsys):
    """``invariant --charpoly --trace`` and ``simulate`` of every signed
    generator at n = 4 print json.dumps(payload, indent=2), whose types
    survive a round trip through json.loads."""
    for i in range(1, 5):
        for j in range(i + 1, 5):
            for word in (f"b({i},{j})", f"b({i},{j})^-1"):
                for argv in (("invariant", "--charpoly", "--trace"),
                             ("simulate",)):
                    code, out, err = run_cli(capsys, *argv, "--n", "4",
                                             "--word", word)
                    assert code == 0 and err == ""
                    assert out == json.dumps(json.loads(out), indent=2) + "\n"
