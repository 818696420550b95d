"""One benchmark worker: a fresh process, so the letter cache starts cold.

Reads a JSON spec on stdin, imports flipbraid from the checkout's ``src``,
times the set-up (import, canonical setup, home triangulation), runs one
batch of ops with each op timed on its own, and writes one JSON result on
stdout.  Outputs are returned unchecked; ``run.py`` checks them outside the
timed region.

Every time is reported at a reference machine speed (see ``speed.py``).

Spec keys: ``root`` (checkout root), ``n`` (strands for the set-up, or
null for import only), ``ops`` (list of ``{"argv": [...]}`` for a
``flipbraid.cli.main`` call or ``{"pentagon": [labels]}`` for one
``pentagon_cycle_product``), ``trace`` (wrap the layers in spans) and
``spans_path`` (where a traced run writes its spans).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from speed import SpeedMeter


def import_flipbraid(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import flipbraid
    import flipbraid.cli
    if src not in Path(flipbraid.__file__).resolve().parents:
        raise SystemExit(f"flipbraid imported from {flipbraid.__file__},"
                         f" not from {src}")
    return flipbraid


def prepare(flipbraid, op: dict):
    """A zero-argument callable for the op, with its inputs already parsed."""
    if "argv" in op:
        argv = list(op["argv"])

        def call_cli():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = flipbraid.cli.main(argv)
                except SystemExit as exit_:
                    rc = exit_.code
            return {"rc": rc, "stdout": out.getvalue(), "error": err.getvalue()}
        return call_cli
    labels = [Fraction(v) for v in op["pentagon"]]
    return lambda: flipbraid.flips.pentagon_cycle_product(labels)


def to_output(result) -> dict:
    if isinstance(result, dict):
        return result
    return {"matrix": [[str(e) for e in row] for row in result.entries()]}


def main() -> int:
    spec = json.load(sys.stdin)
    with SpeedMeter() as meter:
        start = time.perf_counter()
        flipbraid = import_flipbraid(Path(spec["root"]))
        if spec["n"] is not None:
            setup = flipbraid.canonical_setup(spec["n"])
            flipbraid.build_delaunay(setup.config)
        setup_end = time.perf_counter()

        calls = [prepare(flipbraid, op) for op in spec["ops"]]
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        results, spans = [], []
        batch_start = time.perf_counter()
        for op_id, call in enumerate(calls):
            if tracer is not None:
                tracer.op = op_id
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as err:  # an op that raises is a failed op
                result = {"error": f"{type(err).__name__}: {err}"}
            spans.append((t0, time.perf_counter()))
            results.append(result)
        batch_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {
        "setup_s": meter.reference_seconds(start, setup_end),
        "wall_s": meter.reference_seconds(batch_start, batch_end),
        "op_s": [meter.reference_seconds(t0, t1) for t0, t1 in spans],
        "peak_rss_mb": peak_rss_mb,
        "outputs": [to_output(r) for r in results],
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
