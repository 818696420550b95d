"""Layer spans for the traced benchmark run, recorded from outside the program.

``Tracer.install`` wraps each layer's public functions at every
``flipbraid.*`` module attribute bound to the same function object, so
calls through ``from .geometry import incircle`` are seen as well.  A
public function that the package no longer has is skipped; its metrics are
then absent.

A span is (name, start, end, parent span, op id), kept in memory and
written out by ``write_spans``.  Self time is a span's duration minus the
time its child spans cover; calls nest on one thread, so that is the sum of
the children's durations, tallied as each call returns.  The two exact
predicates run about 1.5 million times in an ``extract-n7`` batch, so they
are leaf spans that are counted and timed per name instead of being stored
one by one.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs of the package's layers that a traced run wraps
TARGETS = (
    ("geometry", "orient2d"), ("geometry", "incircle"),
    ("delaunay", "build_delaunay"), ("delaunay", "verify_delaunay"),
    ("delaunay", "diff_flips"),
    ("kinetics", "extract_flip_sequence"), ("kinetics", "configuration_at"),
    ("flips", "sequence_product"), ("flips", "build_flip_matrix"),
    ("linalg", "mat_mul"), ("linalg", "char_poly"), ("linalg", "mat_inverse"),
    ("braids", "invariant"),
    ("fixtures", "run_all_suites"), ("fixtures", "load_fixture"),
    ("cli", "main"),
)
PREDICATES = ("geometry.orient2d", "geometry.incircle")
LEAVES = frozenset(PREDICATES)  # counted and timed, not stored as spans


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op = -1
        self.installed = set()
        self.spans = []   # (name, start, end, parent index or -1, op id)
        self.stack = []   # open calls: [name, start, child seconds, span index]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.min_bracket_log2 = None

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        frame = [name, self.clock(), 0.0, -1]
        if name not in LEAVES:
            parent = self.stack[-1][3] if self.stack else -1
            frame[3] = len(self.spans)
            self.spans.append([name, frame[1], None, parent, self.op])
        self.stack.append(frame)

    def leave(self) -> None:
        name, start, child_s, index = self.stack.pop()
        end = self.clock()
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if index >= 0:
            self.spans[index][2] = end

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def span(self, name: str, fn, before=None, after=None, failed=None):
        """``fn`` wrapped in a span; the hooks update the layer counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if failed is not None:
                    failed(err)
                raise
            finally:
                self.leave()
            if after is not None:
                after(result)
            return result
        return traced

    # -- counters at the layer boundaries ------------------------------------

    def _mat_mul_size(self, args, kwargs):
        a, b = args[:2]
        self.counts["linalg.mat_mul.mul_adds"] += a.rows * a.cols * b.cols

    def _word_letters(self, args, kwargs):
        word = args[0] if args else kwargs["word"]
        self.counts["braids.letters"] += len(word.letters)

    def _flips_extracted(self, events):
        self.counts["kinetics.flips"] += len(events)
        if self.inside("braids.invariant"):
            self.counts["braids.letter_misses"] += 1
        for e in events:
            lo, hi = getattr(e, "t_lo", None), getattr(e, "t_hi", None)
            if lo is None or hi is None:
                continue
            width = hi - lo
            log2 = math.log2(width.numerator) - math.log2(width.denominator)
            if self.min_bracket_log2 is None or log2 < self.min_bracket_log2:
                self.min_bracket_log2 = log2

    def _build_failed(self, err):
        if (type(err).__name__ == "DegenerateConfigurationError"
                and self.inside("kinetics.extract_flip_sequence")):
            self.counts["kinetics.sample_retries"] += 1

    def install(self) -> None:
        """Wrap every target at each ``flipbraid.*`` attribute bound to it."""
        hooks = {
            "linalg.mat_mul": {"before": self._mat_mul_size},
            "braids.invariant": {"before": self._word_letters},
            "kinetics.extract_flip_sequence": {"after": self._flips_extracted},
            "delaunay.build_delaunay": {"failed": self._build_failed},
        }
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "flipbraid"
                                         or name.startswith("flipbraid."))]
        for module_name, fn_name in TARGETS:
            home = sys.modules.get(f"flipbraid.{module_name}")
            fn = getattr(home, fn_name, None)
            if fn is None:
                continue
            name = f"{module_name}.{fn_name}"
            traced = self.span(name, fn, **hooks.get(name, {}))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, traced)
            self.installed.add(name)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values of the functions that were found and wrapped."""
        out = {}
        for name in sorted(self.installed):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        if any(p in self.installed for p in PREDICATES):
            out["geometry.predicates.self_s"] = sum(
                self.self_s[p] for p in PREDICATES)
        if "kinetics.extract_flip_sequence" in self.installed:
            flips = self.counts["kinetics.flips"]
            out["kinetics.flips"] = flips
            out["kinetics.sample_retries"] = self.counts["kinetics.sample_retries"]
            # 0 when nothing was bisected: the widest bracket is [0, 1]
            out["kinetics.min_bracket_log2"] = self.min_bracket_log2 or 0.0
            if "kinetics.configuration_at" in self.installed:
                out["kinetics.samples_per_flip"] = (
                    self.calls["kinetics.configuration_at"] / flips
                    if flips else 0.0)
        if "linalg.mat_mul" in self.installed:
            out["linalg.mat_mul.mul_adds"] = self.counts["linalg.mat_mul.mul_adds"]
        if "braids.invariant" in self.installed:
            letters = self.counts["braids.letters"]
            out["braids.letters"] = letters
            if "kinetics.extract_flip_sequence" in self.installed:
                out["braids.letter_cache.hit_ratio"] = (
                    1 - self.counts["braids.letter_misses"] / letters
                    if letters else 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": self.spans,
                "leaves": {name: {"calls": self.calls[name],
                                  "self_s": self.self_s[name]}
                           for name in sorted(LEAVES & self.installed)},
            }, fh, separators=(",", ":"))
