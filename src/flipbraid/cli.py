"""Command-line front end.

Subcommands: ``invariant`` (matrix of a word), ``verify`` (relation
families), ``fixtures`` (recompute the bundled reference products), and
``simulate`` (flip sequence of a word, optionally with SVG snapshots drawn
by replaying it).
Exit codes: 0 computed/verified, 1 mathematical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .braids import (FAMILIES, WordSyntaxError, canonical_setup,
                     invariant, letter_flips, parse_word, verify_relations)
from .delaunay import FlipEvent, apply_flip, render_svg
from .fixtures import FixtureError, run_all_suites
from .flips import flip_entry_json
from .kinetics import (DEFAULT_FLOOR, DEFAULT_STEP, UnresolvedEventError,
                       configuration_at)

USAGE_ERROR = 2
MATH_ERROR = 1


class _UsageError(ValueError):
    """A bad command line; ``main`` prints it and exits with USAGE_ERROR."""


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _add_sampling_flags(parser):
    parser.add_argument(
        "--step", type=_rational,
        help="sample the motion with this initial step, a rational p/q"
             " (default: no sampling, the exact event engine; with only"
             " --floor given, 1/64)")
    parser.add_argument(
        "--floor", type=_rational,
        help="sample the motion, bisecting down to this width, a rational"
             " p/q (default: no sampling, the exact event engine; with only"
             " --step given, 1/2^40)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipbraid",
        description="Exact matrix invariants of pure braids via Delaunay"
                    " flip tracking")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariant", help="matrix of a braid word")
    p_inv.add_argument("--n", type=int, required=True)
    p_inv.add_argument("--word", required=True)
    p_inv.add_argument("--out", help="write JSON here instead of stdout")
    p_inv.add_argument("--trace", action="store_true",
                       help="include the trace")
    p_inv.add_argument("--charpoly", action="store_true",
                       help="include the characteristic polynomial")
    _add_sampling_flags(p_inv)

    p_ver = sub.add_parser("verify", help="verify a relation family")
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--family", choices=FAMILIES, required=True)
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    _add_sampling_flags(p_ver)

    sub.add_parser("fixtures", help="recompute the bundled reference"
                                    " products")

    p_sim = sub.add_parser("simulate", help="flip sequence of a braid word")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--word", required=True)
    p_sim.add_argument("--out", help="write JSON here instead of stdout")
    p_sim.add_argument("--svg-dir", help="write one SVG per inter-event"
                                         " triangulation")
    _add_sampling_flags(p_sim)
    return parser


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, written directly
    for the types of the command payloads: lists, dicts with str keys, str
    and int, with a ``FlipEvent`` standing for its flip-log entry, which
    ``flip_entry_json`` writes.  (``json`` runs its pure-Python encoder
    whenever an indent is set.)  Any other value is handed to ``json`` with
    its newlines indented to its depth; ``indent`` is the newline and
    indent of that depth."""
    kind = type(value)
    if kind is FlipEvent:
        return flip_entry_json(value, indent)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    inner = indent + "  "
    if kind is list:
        if not value:
            return "[]"
        items = [_dumps(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(key) + ": " + _dumps(item, inner)
                 for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return json.dumps(value, indent=2).replace("\n", indent)


def _emit(text: str, out_path) -> int:
    """Write ``text`` to ``out_path``, or to stdout when it is unset."""
    if not out_path:
        sys.stdout.write(text)
        return 0
    try:
        Path(out_path).write_text(text)
    except OSError as err:
        raise _unwritable(out_path, err) from err
    return 0


def _unwritable(path, err: OSError) -> _UsageError:
    return _UsageError(f"cannot write {path}: {err.strerror or err}")


def _validate_sampling(args) -> None:
    """With either flag given, fill in the other's default and enforce
    0 < floor <= step <= 1, as ``extract_flip_sequence`` does."""
    if args.step is None and args.floor is None:
        return
    if args.step is None:
        args.step = DEFAULT_STEP
    if args.floor is None:
        args.floor = DEFAULT_FLOOR
    if min(args.step, args.floor) <= 0:
        raise _UsageError("--step and --floor must be positive")
    if args.step > 1:
        raise _UsageError("--step must be at most 1")
    if args.floor > args.step:
        raise _UsageError("--floor must not exceed --step")


def cmd_invariant(args) -> int:
    _validate_sampling(args)
    word = parse_word(args.word, args.n)
    result = invariant(word, step=args.step, floor=args.floor)
    payload = result._payload(args.trace, args.charpoly)
    return _emit(_dumps(payload) + "\n", args.out)


def cmd_verify(args) -> int:
    _validate_sampling(args)
    if args.n < 1:
        raise _UsageError("--n must be positive")
    if args.trials < 1:
        raise _UsageError("--trials must be positive")
    report = verify_relations(args.n, args.family, seed=args.seed,
                              trials=args.trials, step=args.step,
                              floor=args.floor)
    if not report.instances:
        raise _UsageError(
            f"family {args.family} has no instance at n={args.n}")
    for inst in report.instances:
        print(f"{'PASS' if inst.ok else 'FAIL'} {inst.name}")
        if not inst.ok and inst.lhs is not None:
            print("  lhs:", json.dumps(inst.lhs.to_json_dict()))
            if inst.rhs is not None:
                print("  rhs:", json.dumps(inst.rhs.to_json_dict()))
    print(f"{report.family} at n={report.n}: "
          f"{sum(inst.ok for inst in report.instances)}/"
          f"{len(report.instances)} instances pass")
    return 0 if report.ok else MATH_ERROR


def cmd_fixtures(_args) -> int:
    try:
        results = run_all_suites()
    except FixtureError as err:
        print(f"FAIL fixtures: {err}", file=sys.stderr)
        return MATH_ERROR
    ok = True
    for res in results:
        line = f"{'PASS' if res.ok else 'FAIL'} {res.name}"
        if res.detail:
            line += f" ({res.detail})"
        print(line)
        ok = ok and res.ok
    return 0 if ok else MATH_ERROR


def cmd_simulate(args) -> int:
    _validate_sampling(args)
    word = parse_word(args.word, args.n)
    setup = canonical_setup(args.n)
    per_letter = [letter_flips(setup, letter, step=args.step,
                               floor=args.floor)
                  for letter in word.letters]
    if args.svg_dir:
        # snapshots first, so an unwritable directory leaves no JSON behind
        try:
            _write_snapshots(setup, per_letter, Path(args.svg_dir))
        except OSError as err:
            raise _unwritable(args.svg_dir, err) from err
    payload = [list(events) for _, events in per_letter]
    return _emit(_dumps(payload) + "\n", args.out)


def _write_snapshots(setup, per_letter, directory: Path):
    """One SVG of the home triangulation, then one per gap between a
    letter's events: the flip log replayed from home, where every letter's
    loop starts, drawn at the positions of the gap's midpoint."""
    frames = [(setup.home, setup.config)]
    for ts, events in per_letter:
        triangles = setup.home
        for this_evt, next_evt in zip(events, events[1:] + [None]):
            triangles = apply_flip(triangles, this_evt)
            hi = next_evt.t_lo if next_evt is not None else Fraction(1)
            frames.append((triangles,
                           configuration_at(ts, (this_evt.t_hi + hi) / 2)))
    directory.mkdir(parents=True, exist_ok=True)
    for frame, (triangles, config) in enumerate(frames):
        path = directory / f"snapshot_{frame:03d}.svg"
        path.write_text(render_svg(triangles, config))


def main(argv=None) -> int:
    """Run one command; map its usage and unresolved-event errors to a
    message on stderr and the exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "invariant": cmd_invariant,
        "verify": cmd_verify,
        "fixtures": cmd_fixtures,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except (_UsageError, WordSyntaxError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except UnresolvedEventError as err:
        print(f"error: {err}", file=sys.stderr)
        return MATH_ERROR


if __name__ == "__main__":
    sys.exit(main())
