"""Reference checks in the benchmark's own exact arithmetic.

Nothing here imports flipbraid: products, determinants and flip matrices
are recomputed with plain ``Fraction`` loops, so a defect in
``flipbraid.linalg`` or ``flipbraid.flips`` cannot vouch for itself.  Every
check returns ``None`` when the output is right and a short reason when it
is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"


def letter_names(n: int) -> list:
    """Every signed generator b(i,j) and b(i,j)^-1 at n strands."""
    return [f"b({i},{j}){suffix}"
            for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for suffix in ("", "^-1")]


def inverse_name(letter: str) -> str:
    return letter[:-3] if letter.endswith("^-1") else letter + "^-1"


def parse_matrix(entries) -> list:
    return [[Fraction(e) for e in row] for row in entries]


def format_matrix(m) -> list:
    return [[str(e) for e in row] for row in m]


def identity(size: int) -> list:
    return [[Fraction(int(r == c)) for c in range(size)] for r in range(size)]


def mat_mul(a, b) -> list:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in cols] for row in a]


def column_sums_one(m) -> bool:
    return all(sum(col, Fraction(0)) == 1 for col in zip(*m))


def det(m) -> Fraction:
    """Determinant by fraction Gaussian elimination."""
    work = [list(row) for row in m]
    size = len(work)
    result = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if work[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            result = -result
        result *= work[c][c]
        for r in range(c + 1, size):
            f = work[r][c] / work[c][c]
            if f:
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return result


def load_refs(n: int) -> dict:
    """Reference letter matrices at n strands, with the home basis and labels."""
    data = json.loads((REFS_DIR / f"n{n}.json").read_text())
    return {
        "n": data["n"],
        "basis": [tuple(t) for t in data["basis"]],
        "labels": {int(k): Fraction(v) for k, v in data["labels"].items()},
        "letters": {name: parse_matrix(rec["matrix"])
                    for name, rec in data["letters"].items()},
        "checks": {name: rec["checks"]
                   for name, rec in data["letters"].items()},
    }


def word_product(refs: dict, letters) -> list:
    """Matrix of a word from the reference letters, later letters on the left."""
    acc = identity(len(refs["basis"]))
    for letter in letters:
        acc = mat_mul(refs["letters"][letter], acc)
    return acc


def check_word_output(refs: dict, letters, output: dict):
    """``flipbraid invariant --charpoly --trace`` output against the references."""
    if output.get("rc") != 0:
        return f"exit code {output.get('rc')}: {output.get('error', '')}"
    try:
        payload = json.loads(output["stdout"])
        got = parse_matrix(payload["matrix"]["entries"])
        trace = Fraction(payload["trace"])
        charpoly = [Fraction(c) for c in payload["charpoly"]]
        basis = [tuple(t) for t in payload["basis"]]
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as err:
        return f"unreadable output: {err!r}"
    want = word_product(refs, letters)
    if [len(row) for row in got] != [len(row) for row in want]:
        return "matrix shape differs from the reference"
    if got != want:
        cells = [(r, c) for r, row in enumerate(want)
                 for c, v in enumerate(row) if got[r][c] != v]
        return f"matrix differs from the reference product at {cells[:3]}"
    if basis != refs["basis"]:
        return "basis differs from the reference home triangulation"
    size = len(want)
    if trace != sum((want[k][k] for k in range(size)), Fraction(0)):
        return "trace differs"
    if (len(charpoly) != size + 1 or charpoly[0] != 1
            or charpoly[1] != -trace
            or charpoly[-1] != (-1) ** size * det(want)):
        return "characteristic polynomial fails the trace/determinant check"
    return None


def replay_product(refs: dict, flips) -> list:
    """Replay flips from the home triangulation and multiply their matrices.

    Row r of the running product belongs to one current triangle; a flip
    replaces the rows of its two old triangles by the label-ratio
    combinations of them.  Raises ValueError when a flip does not apply or
    the replay does not return home.
    """
    z = refs["labels"]
    size = len(refs["basis"])
    rows = {t: [Fraction(int(c == r)) for c in range(size)]
            for r, t in enumerate(refs["basis"])}
    for flip in flips:
        i, k = sorted(flip["removed"])
        j, l = sorted(flip["inserted"])
        t_ijk, t_ikl = tuple(sorted((i, j, k))), tuple(sorted((i, k, l)))
        t_ijl, t_jkl = tuple(sorted((i, j, l))), tuple(sorted((j, k, l)))
        if t_ijk not in rows or t_ikl not in rows:
            raise ValueError(f"flip {flip['removed']}->{flip['inserted']}"
                             " does not apply")
        if t_ijl in rows or t_jkl in rows:
            raise ValueError("flip would duplicate a triangle")
        den = z[i] - z[k]
        a, b = rows.pop(t_ijk), rows.pop(t_ikl)
        rows[t_ijl] = [((z[i] - z[l]) * x + (z[i] - z[j]) * y) / den
                       for x, y in zip(a, b)]
        rows[t_jkl] = [((z[l] - z[k]) * x + (z[j] - z[k]) * y) / den
                       for x, y in zip(a, b)]
    if sorted(rows) != refs["basis"]:
        raise ValueError("replay does not return to the home triangulation")
    return [rows[t] for t in refs["basis"]]


def check_simulate_output(refs: dict, letter: str, output: dict):
    """``flipbraid simulate`` of one letter: its flips, replayed, give the
    reference matrix.  Brackets and the order of commuting flips are free."""
    if output.get("rc") != 0:
        return f"exit code {output.get('rc')}: {output.get('error', '')}"
    try:
        (flips,) = json.loads(output["stdout"])
        got = replay_product(refs, flips)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as err:
        return f"flip replay failed: {err}"
    if got != refs["letters"][letter]:
        return "replayed flip product differs from the reference"
    return None


def pb_all_instances(n: int) -> int:
    """Instances of ``verify --family pb_all``: commuting pairs (disjoint
    and nested), two per triple, one mixed relation per quadruple."""
    return 3 * comb(n, 4) + 2 * comb(n, 3)


def check_verdicts(output: dict, expected=None):
    """Every PASS/FAIL line is PASS, exit code 0, and the count matches."""
    if output.get("rc") != 0:
        return f"exit code {output.get('rc')}: {output.get('error', '')}"
    lines = output["stdout"].splitlines()
    verdicts = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
    failed = [ln for ln in verdicts if ln.startswith("FAIL")]
    if failed:
        return f"{len(failed)} verdicts FAIL, first: {failed[0]}"
    if not verdicts or (expected is not None and len(verdicts) != expected):
        return f"{len(verdicts)} PASS verdicts, expected {expected or 'some'}"
    return None


def check_identity(output: dict):
    """A pentagon cycle product must be the 3x3 identity."""
    if "error" in output:
        return output["error"]
    if parse_matrix(output["matrix"]) != identity(3):
        return "pentagon cycle product is not the identity"
    return None
