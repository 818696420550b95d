"""Command-line front end.

Subcommands: ``invariant`` (matrix of a word), ``verify`` (relation
families), ``fixtures`` (recompute the bundled reference products), and
``simulate`` (flip sequence of a word, optionally with SVG snapshots drawn
by replaying it).
Exit codes: 0 computed/verified, 1 mathematical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .braids import (FAMILIES, WordSyntaxError, canonical_setup,
                     invariant, letter_flips, parse_word, verify_relations)
from .delaunay import apply_flip, render_svg
from .fixtures import FixtureError, run_all_suites
from .flips import flip_sequence_to_json
from .kinetics import (DEFAULT_FLOOR, DEFAULT_STEP, UnresolvedEventError,
                       configuration_at)

USAGE_ERROR = 2
MATH_ERROR = 1


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


def _emit(text: str, out_path) -> int:
    """Write ``text`` to ``out_path``, or to stdout when it is unset."""
    if not out_path:
        sys.stdout.write(text)
        return 0
    try:
        Path(out_path).write_text(text)
    except OSError as err:
        return _unwritable(out_path, err)
    return 0


def _unwritable(path, err: OSError) -> int:
    print(f"error: cannot write {path}: {err.strerror or err}",
          file=sys.stderr)
    return USAGE_ERROR


def _validate_sampling(args):
    """With either flag given, fill in the other's default and enforce
    0 < floor <= step <= 1, as ``extract_flip_sequence`` does."""
    if args.step is None and args.floor is None:
        return True
    if args.step is None:
        args.step = DEFAULT_STEP
    if args.floor is None:
        args.floor = DEFAULT_FLOOR
    if min(args.step, args.floor) <= 0:
        print("error: --step and --floor must be positive", file=sys.stderr)
        return False
    if args.step > 1:
        print("error: --step must be at most 1", file=sys.stderr)
        return False
    if args.floor > args.step:
        print("error: --floor must not exceed --step", file=sys.stderr)
        return False
    return True


def cmd_invariant(args) -> int:
    if not _validate_sampling(args):
        return USAGE_ERROR
    try:
        word = parse_word(args.word, args.n)
    except WordSyntaxError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    try:
        result = invariant(word, step=args.step, floor=args.floor)
    except UnresolvedEventError as err:
        print(f"error: {err}", file=sys.stderr)
        return MATH_ERROR
    payload = result.to_json_dict(with_trace=args.trace,
                                  with_charpoly=args.charpoly)
    return _emit(json.dumps(payload, indent=2) + "\n", args.out)


def cmd_verify(args) -> int:
    if not _validate_sampling(args):
        return USAGE_ERROR
    if args.n < 1:
        print("error: --n must be positive", file=sys.stderr)
        return USAGE_ERROR
    if args.trials < 1:
        print("error: --trials must be positive", file=sys.stderr)
        return USAGE_ERROR
    try:
        report = verify_relations(args.n, args.family, seed=args.seed,
                                  trials=args.trials, step=args.step,
                                  floor=args.floor)
    except UnresolvedEventError as err:
        print(f"error: {err}", file=sys.stderr)
        return MATH_ERROR
    if not report.instances:
        print(f"error: family {args.family} has no instance at n={args.n}",
              file=sys.stderr)
        return USAGE_ERROR
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
    if not _validate_sampling(args):
        return USAGE_ERROR
    try:
        word = parse_word(args.word, args.n)
    except WordSyntaxError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    setup = canonical_setup(args.n)
    try:
        per_letter = [letter_flips(setup, letter, step=args.step,
                                   floor=args.floor)
                      for letter in word.letters]
    except UnresolvedEventError as err:
        print(f"error: {err}", file=sys.stderr)
        return MATH_ERROR
    if args.svg_dir:
        # snapshots first, so an unwritable directory leaves no JSON behind
        try:
            _write_snapshots(setup, per_letter, Path(args.svg_dir))
        except OSError as err:
            return _unwritable(args.svg_dir, err)
    payload = [flip_sequence_to_json(events) for _, events in per_letter]
    return _emit(json.dumps(payload, indent=2) + "\n", args.out)


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
    args = build_parser().parse_args(argv)
    handlers = {
        "invariant": cmd_invariant,
        "verify": cmd_verify,
        "fixtures": cmd_fixtures,
        "simulate": cmd_simulate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
