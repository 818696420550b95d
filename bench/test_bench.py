"""Tests of the benchmark's own code: python3 -m pytest bench"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402
from speed import REFERENCE_KERNEL_S, SpeedMeter  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert run.percentile(values, 50) == 3
    assert run.percentile(values, 20) == 1
    assert run.percentile(values, 21) == 2
    assert run.percentile(values, 100) == 5
    assert run.percentile(list(range(1, 1001)), 99.9) == 999


def test_tail_keeps_ten_values_beyond_it():
    assert run.tail(list(range(19))) is None
    assert run.tail(list(range(1, 21))) == (50, 10)
    assert run.tail(list(range(1, 43))) == (75, 32)
    assert run.tail(list(range(1, 101))) == (90, 90)
    assert run.tail(list(range(1, 1001))) == (99, 990)
    assert run.tail(list(range(1, 10001))) == (99.9, 9990)


def test_reference_seconds_scale_by_the_kernel_samples():
    meter = SpeedMeter()
    meter.starts = [1.0, 2.0, 3.0]
    meter.seconds = [REFERENCE_KERNEL_S, 2 * REFERENCE_KERNEL_S,
                     REFERENCE_KERNEL_S]
    # two samples inside: half the time at full speed, half at half speed
    inside = meter.reference_seconds(0.5, 2.5)
    assert abs(inside - 0.75 * (2 - 3 * REFERENCE_KERNEL_S)) < 1e-12
    # none inside: the samples on either side
    assert abs(meter.reference_seconds(1.1, 1.5) - 0.75 * 0.4) < 1e-12
    assert abs(meter.reference_seconds(3.5, 4.0) - 0.5) < 1e-12


def test_speed_meter_samples_during_a_busy_op():
    import time
    with SpeedMeter() as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    assert len(meter.seconds) >= 5
    assert meter.reference_seconds(t0, t1) > 0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def at(t, action, name=None):
        clock.now = t
        tracer.enter(name) if action == "enter" else tracer.leave()

    at(0, "enter", "cli.main")
    at(2, "enter", "braids.invariant")
    at(3, "enter", "geometry.incircle")           # a leaf, not stored
    at(3.5, "enter", "geometry.orient2d")         # nested leaf
    at(3.75, "leave")
    at(4, "leave")
    at(5, "leave")
    at(6, "enter", "braids.invariant")
    at(8, "leave")
    at(10, "leave")
    assert tracer.self_s["cli.main"] == 10 - 3 - 2
    assert tracer.self_s["braids.invariant"] == (3 - 1) + 2
    assert tracer.self_s["geometry.incircle"] == 0.75
    assert tracer.self_s["geometry.orient2d"] == 0.25
    assert tracer.calls["braids.invariant"] == 2
    assert [s[0] for s in tracer.spans] == [
        "cli.main", "braids.invariant", "braids.invariant"]
    assert tracer.spans[1] == ["braids.invariant", 2, 5, 0, -1]
    assert tracer.spans[2][3] == 0


def test_missing_public_function_is_an_absent_metric(monkeypatch):
    import types
    fake = types.ModuleType("flipbraid.delaunay")
    fake.build_delaunay = lambda config: config
    monkeypatch.setitem(sys.modules, "flipbraid.delaunay", fake)
    for name in [m for m in sys.modules if m.startswith("flipbraid.")
                 and m != "flipbraid.delaunay"]:
        monkeypatch.delitem(sys.modules, name)
    tracer = Tracer()
    tracer.install()
    assert fake.build_delaunay("x") == "x"
    metrics = tracer.layer_metrics()
    assert metrics["delaunay.build_delaunay.calls"] == 1
    assert "delaunay.diff_flips.calls" not in metrics
    assert "kinetics.flips" not in metrics


def word_output(matrix, refs, letters):
    """What ``flipbraid invariant --charpoly --trace`` prints for a matrix
    whose characteristic polynomial passes the check's trace/det tests."""
    size = len(matrix)
    trace = sum((matrix[k][k] for k in range(size)), Fraction(0))
    charpoly = [1, -trace] + [0] * (size - 2) + [(-1) ** size
                                                 * check.det(matrix)]
    payload = {"matrix": {"entries": check.format_matrix(matrix)},
               "basis": [list(t) for t in refs["basis"]],
               "trace": str(trace), "charpoly": [str(c) for c in charpoly]}
    return {"rc": 0, "stdout": json.dumps(payload)}


def test_word_check_flags_one_corrupted_entry():
    refs = check.load_refs(8)
    letters = ["b(1,8)", "b(2,5)^-1", "b(3,4)"]
    good = check.word_product(refs, letters)
    assert check.check_word_output(refs, letters,
                                   word_output(good, refs, letters)) is None
    bad = copy.deepcopy(good)
    bad[4][7] += Fraction(1, 3)
    reason = check.check_word_output(refs, letters,
                                     word_output(bad, refs, letters))
    assert reason is not None and "(4, 7)" in reason


def simulate_output(letter: str) -> dict:
    sys.path.insert(0, str(run.ROOT / "src"))
    import contextlib
    import io

    import flipbraid.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = flipbraid.cli.main(["simulate", "--n", "7", "--word", letter])
    return {"rc": rc, "stdout": out.getvalue()}


def test_simulate_check_replays_flips_and_flags_a_dropped_one():
    refs = check.load_refs(7)
    output = simulate_output("b(2,6)^-1")
    assert check.check_simulate_output(refs, "b(2,6)^-1", output) is None
    assert check.check_simulate_output(refs, "b(2,6)", output) is not None
    (flips,) = json.loads(output["stdout"])
    dropped = {"rc": 0, "stdout": json.dumps([flips[:-1]])}
    assert check.check_simulate_output(refs, "b(2,6)^-1", dropped) is not None


def test_verdict_check():
    ok = {"rc": 0, "stdout": "PASS a\nPASS b\nsummary\n"}
    assert check.check_verdicts(ok) is None
    assert check.check_verdicts(ok, expected=3) is not None
    assert check.check_verdicts({"rc": 1, "stdout": "FAIL a\n"}) is not None
    assert check.check_verdicts({"rc": 0, "stdout": "PASS a\nFAIL b\n"})
    assert check.pb_all_instances(5) == 35


def test_references_pass_their_independent_checks():
    for n in (7, 8):
        refs = check.load_refs(n)
        assert len(refs["letters"]) == n * (n - 1)
        for name, m in refs["letters"].items():
            assert refs["checks"][name] == {"column_sums_one": True,
                                            "times_inverse_is_identity": True}
            assert check.column_sums_one(m)
            inverse = refs["letters"][check.inverse_name(name)]
            assert check.mat_mul(m, inverse) == check.identity(len(m))
