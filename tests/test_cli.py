import hashlib
import json
from fractions import Fraction

import pytest

from flipbraid.cli import main
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
    from flipbraid.flips import flip_sequence_to_json
    from flipbraid.kinetics import extract_flip_sequence

    code, out, err = run_cli(capsys, "simulate", "--n", "2", "--word",
                             "b(1,2)", "--floor", "1/64", "--step", "1/64")
    assert code == 0 and err == ""
    letter = parse_word("b(1,2)", 2).letters[0]
    ts = generator_trajectories(canonical_setup(2), letter)
    events = extract_flip_sequence(ts, step=Fraction(1, 64),
                                   floor=Fraction(1, 64))
    assert json.loads(out) == [flip_sequence_to_json(events)]


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
    ("verify", "--n", "3", "--family", "pb_all"):
        "d5fa3860a553ee6d302f811b447d3bf96cc0bcd599d7ca0733d0a2f7495ad573",
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
