"""flipbraid benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload word-n8 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from a checkout: the program is imported from ``src/`` beside this
directory, so without it the benchmark exits with code 2 and prints no
result.  Workloads, metric names and units are listed in BENCHMARK.json at
the checkout root, and the reasons for them in ``bench/README.md``.

A run first times ``SETUP_PROBES`` set-ups, each in a fresh worker.  With
``--trace 0`` it then runs seeded batches of ops, each batch in a fresh
worker so the letter cache starts cold, one at a time until the next batch
would end after ``--seconds``; every op is checked against the references
after its batch.  With ``--trace 1`` it runs one batch untraced and the same
batch traced, and reports the layers' spans and counters from the traced
one together with the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import ceil
from pathlib import Path

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIME_LIMIT_S = 170        # a run must end within 180 s, builds aside
SETUP_PROBES = 7
WORDS_PER_BATCH = 2       # word-n8: 6 distinct signed letters per worker
PENTAGON_TRIALS = 200     # algebra: trials after the fixtures op
MIN_TAIL_OPS = 20
TAIL_BEYOND = 10
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


load_refs = functools.cache(check.load_refs)


class HarnessError(RuntimeError):
    """The benchmark itself could not run: a worker crashed or timed out."""


# --- workloads: each makes one batch of (op, check) pairs from the rng -------

def word_n8_batch(rng):
    refs = load_refs(8)
    letters = check.letter_names(8)
    rng.shuffle(letters)
    words = [letters[3 * k:3 * k + 3] for k in range(WORDS_PER_BATCH)]
    return [({"argv": ["invariant", "--n", "8", "--word", " ".join(w),
                       "--charpoly", "--trace"]},
             functools.partial(check.check_word_output, refs, w))
            for w in words]


def relations_n5_batch(rng):
    return [({"argv": ["verify", "--n", "5", "--family", "pb_all"]},
             functools.partial(check.check_verdicts,
                               expected=check.pb_all_instances(5)))]


def extract_n7_batch(rng):
    refs = load_refs(7)
    letters = check.letter_names(7)
    rng.shuffle(letters)
    return [({"argv": ["simulate", "--n", "7", "--word", letter]},
             functools.partial(check.check_simulate_output, refs, letter))
            for letter in letters]


def pentagon_labels(rng) -> list:
    while True:
        labels = [Fraction(rng.randint(-600, 600), rng.randint(1, 40))
                  for _ in range(5)]
        if len(set(labels)) == 5:
            return [str(v) for v in labels]


def algebra_batch(rng):
    ops = [({"argv": ["fixtures"]}, check.check_verdicts)]
    ops += [({"pentagon": pentagon_labels(rng)}, check.check_identity)
            for _ in range(PENTAGON_TRIALS)]
    return ops


# name -> (strands built in the set-up, or None for import only; batch maker)
WORKLOADS = {
    "word-n8": (8, word_n8_batch),
    "relations-n5": (5, relations_n5_batch),
    "extract-n7": (7, extract_n7_batch),
    "algebra": (None, algebra_batch),
}


# --- statistics --------------------------------------------------------------

def percentile(values, p) -> float:
    """Nearest-rank percentile: the smallest value with p% of values at or
    below it."""
    ordered = sorted(values)
    rank = max(1, ceil(Fraction(str(p)) * len(ordered) / 100))
    return ordered[rank - 1]


def tail(values):
    """(p, value) for the highest ladder percentile with at least
    TAIL_BEYOND values beyond it, or None below MIN_TAIL_OPS values."""
    count = len(values)
    if count < MIN_TAIL_OPS:
        return None
    best = None
    for p in TAIL_LADDER:
        if count - ceil(Fraction(str(p)) * count / 100) >= TAIL_BEYOND:
            best = (p, percentile(values, p))
    return best


# --- workers -----------------------------------------------------------------

class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline

    def worker(self, n, ops, trace=False, spans_path=None) -> dict:
        spec = {"root": str(ROOT), "n": n, "ops": ops, "trace": trace,
                "spans_path": spans_path and str(spans_path)}
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise HarnessError("time limit reached before a worker started")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py")],
                input=json.dumps(spec), capture_output=True, text=True,
                timeout=remaining, cwd=ROOT,
                env={**os.environ, "PYTHONHASHSEED": "0"})
        except subprocess.TimeoutExpired:
            raise HarnessError(f"worker passed the {TIME_LIMIT_S} s limit")
        if proc.returncode != 0:
            raise HarnessError(f"worker exited {proc.returncode}:"
                               f" {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


def run_batch(runner, n, batch, failures, trace=False, spans_path=None):
    """One batch in a fresh worker; ops are checked after the worker ends."""
    report = runner.worker(n, [op for op, _ in batch], trace, spans_path)
    for (op, verify), output in zip(batch, report["outputs"]):
        reason = verify(output)
        if reason is not None:
            failures.append((op, reason))
    return report


def measure(name: str, seed: int, seconds: float, trace: bool,
            runner: Runner) -> dict:
    """Run one workload; returns metric values and op counts."""
    n, make_batch = WORKLOADS[name]
    rng = random.Random(seed)
    setups = [runner.worker(n, [])["setup_s"] for _ in range(SETUP_PROBES)]
    failures, attempted = [], 0
    if trace:
        batch = make_batch(rng)
        spans = BENCH / "out" / f"spans-{name}-seed{seed}.json"
        spans.parent.mkdir(exist_ok=True)
        plain = run_batch(runner, n, batch, failures)
        traced = run_batch(runner, n, batch, failures, True, spans)
        values = dict(traced["layers"])
        values["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
        return {"values": values, "attempted": 2 * len(batch),
                "failures": failures, "batches": 2, "spans": spans}

    reports = []
    start = time.perf_counter()
    while True:
        batch = make_batch(rng)
        reports.append(run_batch(runner, n, batch, failures))
        attempted += len(batch)
        elapsed = time.perf_counter() - start
        if elapsed * (len(reports) + 1) / len(reports) > seconds:
            break
    op_s = [s for r in reports for s in r["op_s"]]
    values = {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reports]),
        "wall_s": statistics.median(r["wall_s"] for r in reports),
        "op_ms_p50": 1000 * statistics.median(op_s),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "ok_frac": 1 - len(failures) / attempted,
    }
    return {"values": values, "attempted": attempted, "failures": failures,
            "batches": len(reports), "tail": tail(op_s), "ops": len(op_s)}


# --- report ------------------------------------------------------------------

def select(values: dict, specs: list) -> dict:
    """The metrics BENCHMARK.json names, in its order; absent ones skipped."""
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs if s["name"] in values}


def describe(name: str, seed: int, result: dict, metrics: dict) -> list:
    lines = [f"{name} seed {seed}: {result['attempted']} ops in"
             f" {result['batches']} batches, {len(result['failures'])} failed"
             f" (failed_frac {len(result['failures']) / result['attempted']})"]
    for op, reason in result["failures"][:10]:
        lines.append(f"  FAIL {json.dumps(op)[:120]}: {reason}")
    width = max(len(k) for k in metrics) if metrics else 0
    for key, m in metrics.items():
        lines.append(f"  {key:<{width}}  {m['value']:.6g} {m['unit']}")
    if "tail" in result:
        if result["tail"] is None:
            lines.append(f"  op_ms_tail  omitted: {result['ops']} ops, needs"
                         f" {MIN_TAIL_OPS}")
        else:
            p, value = result["tail"]
            lines.append(f"  op_ms_tail  {1000 * value:.6g} ms (p{p} of"
                         f" {result['ops']} ops)")
    if "spans" in result:
        lines.append(f"  spans written to {result['spans'].relative_to(ROOT)}")
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload; default from"
                             " BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "flipbraid" / "__init__.py").is_file():
        print(f"error: no flipbraid sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    specs = config["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runner = Runner(start + TIME_LIMIT_S * len(names))
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            result = measure(name, args.seed, seconds, bool(args.trace),
                             runner)
            prefix = f"{name}." if len(names) > 1 else ""
            chosen = select(result["values"], specs)
            print("\n".join(describe(name, args.seed, result, chosen)),
                  flush=True)
            metrics.update({prefix + k: v for k, v in chosen.items()})
            attempted += result["attempted"]
            failed += len(result["failures"])
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
