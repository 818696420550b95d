"""Command-line front end.

Subcommands: ``invariant`` (matrix of a word), ``verify`` (relation
families), ``fixtures`` (recompute the bundled reference products), and
``simulate`` (flip sequence of a word, optionally with SVG snapshots drawn
by replaying it).
Exit codes: 0 computed/verified, 1 mathematical failure, 2 usage error.

One table, ``COMMANDS``, gives each command its handler and flags, and
``_parse`` reads the command line against it with the rules and wording
of the standard library's parser, without building one: a bad command
line prints the usage and ``flipbraid <command>: error: <reason>`` on
stderr and raises ``SystemExit(2)``, and ``-h`` prints the help on stdout.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

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


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, written directly
    for the types of the command payloads: lists, dicts with str keys, str
    and int, with a ``FlipEvent`` standing for its flip-log entry, which
    ``flip_entry_json`` writes.  (``json`` runs its pure-Python encoder
    whenever an indent is set.)  No payload holds any other value, which
    raises ``TypeError``; ``indent`` is the newline and indent of the
    value's depth."""
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
    raise TypeError(f"not a command payload value: {value!r}")


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


_SAMPLING = {
    "--step": (Fraction, False, None, "sample the motion with this initial"
               " step, a rational p/q (default: no sampling, the exact event"
               " engine; with only --floor given, 1/64)"),
    "--floor": (Fraction, False, None, "sample the motion, bisecting down to"
                " this width, a rational p/q (default: no sampling, the exact"
                " event engine; with only --step given, 1/2^40)")}
_WORD = {"--n": (int, True, None, ""), "--word": (str, True, None, ""),
         "--out": (str, False, None, "write JSON here instead of stdout")}

# command -> (handler, help, {flag: (converter, required, default, help)});
# a converter is a type, a tuple of choices, or None for a switch
COMMANDS = {
    "invariant": (cmd_invariant, "matrix of a braid word", {
        **_WORD, "--trace": (None, False, False, "include the trace"),
        "--charpoly": (None, False, False,
                       "include the characteristic polynomial"), **_SAMPLING}),
    "verify": (cmd_verify, "verify a relation family", {
        "--n": (int, True, None, ""), "--family": (FAMILIES, True, None, ""),
        "--trials": (int, False, 100, ""), "--seed": (int, False, 0, ""),
        **_SAMPLING}),
    "fixtures": (cmd_fixtures, "recompute the bundled reference products", {}),
    "simulate": (cmd_simulate, "flip sequence of a braid word", {
        **_WORD, "--svg-dir": (str, False, None,
                               "write one SVG per inter-event triangulation"),
        **_SAMPLING}),
}


def _spelled(flag: str, convert) -> str:
    """The flag as its usage and help show it: with its value's name."""
    if convert is None:
        return flag
    if type(convert) is tuple:
        return f"{flag} {{{','.join(convert)}}}"
    return f"{flag} {flag[2:].upper().replace('-', '_')}"


def _usage(command) -> str:
    """The usage line of ``command``, or of the top level for None."""
    if command is None:
        return f"usage: flipbraid [-h] {{{','.join(COMMANDS)}}} ..."
    return " ".join([f"usage: flipbraid {command} [-h]"] + [
        _spelled(flag, convert) if required
        else f"[{_spelled(flag, convert)}]"
        for flag, (convert, required, _, _) in COMMANDS[command][2].items()])


def _help(command):
    """Print the help of ``command``, or of the top level for None."""
    import textwrap

    rows, head = [("-h, --help", "show this help message and exit")], []
    if command is None:
        head = ["Exact matrix invariants of pure braids via Delaunay flip"
                " tracking", "", "commands:", *(
                    f"  {name:<20}  {text}"
                    for name, (_, text, _) in COMMANDS.items()), ""]
    else:
        rows += [(_spelled(flag, spec[0]), spec[3])
                 for flag, spec in COMMANDS[command][2].items()]
    print("\n".join([_usage(command), "", *head, "options:"] + [
        textwrap.fill(text, 78, initial_indent=f"  {label:<20}  ",
                      subsequent_indent=" " * 24) or f"  {label}"
        for label, text in rows]))
    raise SystemExit(0)


def _refuse(command, reason: str):
    """Print the usage and ``reason`` on stderr; exit with USAGE_ERROR."""
    prog = "flipbraid" if command is None else f"flipbraid {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {reason}\n")
    raise SystemExit(USAGE_ERROR)


def _invalid_choice(text: str, choices) -> str:
    return (f"invalid choice: {text!r} (choose from"
            f" {', '.join(map(repr, choices))})")


def _flag(command, token: str):
    """The flag of ``command`` that ``token`` names before any ``=``, in
    full or by a unique prefix, or None; a prefix of several is refused."""
    if token == "-h":
        return "--help"
    if token[:2] != "--":
        return None
    name, names = token.partition("=")[0], ("--help", *COMMANDS[command][2])
    found = [name] if name in names else [
        flag for flag in names if flag.startswith(name)]
    if len(found) > 1:
        _refuse(command, f"ambiguous option: {token} could match"
                         f" {', '.join(found)}")
    return found[0] if found else None


def _parse(argv: list) -> SimpleNamespace:
    """The namespace of ``argv`` read against ``COMMANDS`` as the standard
    library's parser reads it: ``--flag value`` or ``--flag=value`` in any
    order, a unique prefix for a flag, the last of a repeated flag winning,
    and nothing after ``--`` read as a flag.  A value may not look like a
    flag unless it is ``-``, a negative number or holds a space."""
    command = argv[0] if argv else None
    if command not in COMMANDS:
        if command in ("-h", "--h", "--he", "--hel", "--help"):
            _help(None)
        _refuse(None, "the following arguments are required: command"
                if command is None
                else "argument command: " + _invalid_choice(command, COMMANDS))
    flags = COMMANDS[command][2]
    values = {flag: spec[2] for flag, spec in flags.items()}
    rest = argv[1:]
    cut = rest.index("--") if "--" in rest else len(rest)
    rest, tail, unknown = rest[:cut], rest[cut:], []
    # an ambiguous prefix anywhere is refused before any flag is read
    named = [_flag(command, token) for token in rest]
    at = 0
    while at < len(rest):
        token, flag = rest[at], named[at]
        at += 1
        if flag is None:
            unknown.append(token)
            continue
        convert = flags.get(flag, (None,))[0]
        _, eq, text = token.partition("=")
        if convert is None and eq:
            _refuse(command, f"argument {'-h/' * (flag == '--help')}{flag}:"
                             f" ignored explicit argument {text!r}")
        if flag == "--help":
            _help(command)
        if convert is None:
            values[flag] = True
            continue
        if not eq:
            if at == len(rest) or named[at] or re.fullmatch(
                    r"-(?!\d+$|\d*\.\d+$)[^ ]+", rest[at]):
                _refuse(command, f"argument {flag}: expected one argument")
            text = rest[at]
            at += 1
        if type(convert) is tuple and text not in convert:
            _refuse(command,
                    f"argument {flag}: " + _invalid_choice(text, convert))
        try:
            values[flag] = text if type(convert) is tuple else convert(text)
        except (ValueError, ZeroDivisionError):
            _refuse(command, f"argument {flag}: " + ("not a rational"
                    if convert is Fraction else "invalid int value")
                    + f": {text!r}")
    missing = ", ".join(flag for flag, spec in flags.items()
                        if spec[1] and values[flag] is None)
    unknown += tail
    if missing or unknown:
        _refuse(command, f"the following arguments are required: {missing}"
                if missing else "unrecognized arguments: " + " ".join(unknown))
    return SimpleNamespace(command=command, **{
        flag[2:].replace("-", "_"): value for flag, value in values.items()})


def main(argv=None) -> int:
    """Run one command; map its usage and unresolved-event errors to a
    message on stderr and the exit code."""
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return COMMANDS[args.command][0](args)
    except (_UsageError, WordSyntaxError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except UnresolvedEventError as err:
        print(f"error: {err}", file=sys.stderr)
        return MATH_ERROR


if __name__ == "__main__":
    sys.exit(main())
