"""Bundled reference matrices and the suites that recompute their products.

The data files under ``flipbraid/data`` hold hand-entered matrices: the
five-step pentagon cycle in symbolic label form, the two-flip commutation
example on six points, and the two 11x11 braid-loop factorizations together
with their printed products.  A manifest pins each file's SHA-256.  The
FLIPBRAID_FIXTURES environment variable points the loader at an alternate
directory with the same layout.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

from .delaunay import FlipEvent
from .flips import PENTAGON_FLIPS, build_flip_matrix, pentagon_cycle_product
from .linalg import Matrix, clear_denominators, grid_width

MANIFEST_NAME = "MANIFEST.json"
ENV_DIR = "FLIPBRAID_FIXTURES"
DATA_DIR = Path(__file__).parent / "data"


class FixtureError(RuntimeError):
    """A fixture file is missing, corrupt, or fails its checksum."""


def _read_bytes(name: str) -> bytes:
    override = os.environ.get(ENV_DIR)
    if override:
        path = Path(override) / name
        if not path.is_file():
            raise FixtureError(f"fixture {name} not found in {override}")
        return path.read_bytes()
    path = DATA_DIR / name
    if not path.is_file():
        raise FixtureError(f"bundled fixture {name} missing")
    return path.read_bytes()


def _parse(name: str, raw: bytes):
    try:
        return json.loads(raw)
    except ValueError as err:
        raise FixtureError(f"{name} is not valid JSON: {err}") from err


_MATRIX = {"entries": [[str]]}
_FACTORS = [{"matrix": _MATRIX}]
# The keys and types that the suites read from each fixture: a dict maps
# each key that must be present to its shape, a one-item list stands for a
# list of items of that shape, and a type for a value of that type.
_SHAPES = {
    "pentagon_cycle.json": {
        "labels": [str], "initial_basis": [[str]],
        "steps": [{"removed": [str], "inserted": [str],
                   "basis_after": [[str]], "matrix": _MATRIX}]},
    "two_flip_commutation.json": {
        "labels": [str], "product": _MATRIX,
        "orders": [{"factors": _FACTORS}]},
    "braid_loop_4_8.json": {"product": _MATRIX, "factors": _FACTORS},
    "braid_loop_5_7.json": {"product": _MATRIX, "factors": _FACTORS},
    "loop_commutation.json": {"product": _MATRIX},
}


def _check_shape(value, shape, where: str) -> None:
    """Raise ``FixtureError`` at the first part of ``value``, named by its
    path from ``where``, that does not have ``shape``."""
    if isinstance(shape, type):
        if not isinstance(value, shape):
            raise FixtureError(f"{where} is not a {shape.__name__}")
    elif isinstance(shape, dict):
        if not isinstance(value, dict):
            raise FixtureError(f"{where} is not an object")
        for key, inner in shape.items():
            if key not in value:
                raise FixtureError(f"{where} has no {key!r}")
            _check_shape(value[key], inner, f"{where}[{key!r}]")
    else:
        if not isinstance(value, list):
            raise FixtureError(f"{where} is not a list")
        (inner,) = shape
        if isinstance(inner, type) and all(isinstance(item, inner)
                                           for item in value):
            return
        for pos, item in enumerate(value):
            _check_shape(item, inner, f"{where}[{pos}]")


@contextmanager
def _evaluating(name: str):
    """Turn a data error that a suite raises while it evaluates fixture
    ``name`` (a value of the right shape that the suite cannot use) into a
    ``FixtureError`` that names the file."""
    try:
        yield
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as err:
        raise FixtureError(f"{name}: {type(err).__name__}: {err}") from err


def load_fixture(name: str) -> dict:
    """The parsed fixture, the one gate every fixture file passes: its
    bytes are read, found in the manifest and checked against their
    SHA-256 digest there, then parsed and checked against the shape its
    suite reads."""
    raw = _read_bytes(name)
    manifest = _parse(MANIFEST_NAME, _read_bytes(MANIFEST_NAME))
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(files, dict):
        raise FixtureError(f"{MANIFEST_NAME} has no 'files' object")
    want = files.get(name)
    if want is None:
        raise FixtureError(f"{name} is not listed in the manifest")
    # Imported here, not at module level: hashlib loads OpenSSL, and only
    # the fixtures gate uses it.
    import hashlib

    got = hashlib.sha256(raw).hexdigest()
    if got != want:
        raise FixtureError(f"checksum mismatch for {name}: {got} != {want}")
    data = _parse(name, raw)
    if name in _SHAPES:
        _check_shape(data, _SHAPES[name], name)
    return data


_RATIO = re.compile(
    r"^(-)?\(([A-Za-z0-9]+)-([A-Za-z0-9]+)\)/\(([A-Za-z0-9]+)-([A-Za-z0-9]+)\)$")


def evaluate_entry(text: str, labels: dict) -> Fraction:
    """Evaluate '(a-b)/(c-d)' (optionally negated) or a plain rational."""
    m = _RATIO.match(text)
    if m:
        sign = -1 if m.group(1) else 1
        a, b, c, d = (labels[m.group(g)] for g in range(2, 6))
        return sign * (a - b) / (c - d)
    return Fraction(text)


def evaluate_matrix(data: dict, labels: Optional[dict] = None) -> Matrix:
    """The matrix of ``data["entries"]`` at ``labels``. Each distinct entry
    text is evaluated once, in row-major order of first occurrence (a
    matrix repeats a few texts, mostly "0" and "1"), and the distinct
    values are put over one denominator before the matrix is built."""
    labels = labels or {}
    rows = data["entries"]
    grid_width(rows)
    texts = list(dict.fromkeys(e for row in rows for e in row))
    ints, den = clear_denominators(evaluate_entry(text, labels)
                                   for text in texts)
    value = dict(zip(texts, ints))
    return Matrix._from_ints([[value[e] for e in row] for row in rows], den)


def _first_difference(a: Matrix, b: Matrix) -> str:
    if (a.rows, a.cols) != (b.rows, b.cols):
        return f"shape {a.rows}x{a.cols} != {b.rows}x{b.cols}"
    for i in range(a.rows):
        for j in range(a.cols):
            if a[i, j] != b[i, j]:
                return (f"first difference at row {i + 1}, col {j + 1}: "
                        f"{a[i, j]} != {b[i, j]}")
    return ""


class SuiteResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def run_pentagon_suite() -> SuiteResult:
    """Rebuild the five cycle matrices and compare entrywise, check each
    step's flip against the canonical cycle, and check that the product is
    the identity and equals ``pentagon_cycle_product``, at labels
    (1, 2, 3, 4, 5)."""
    with _evaluating("pentagon_cycle.json"):
        data = load_fixture("pentagon_cycle.json")
        letters = data["labels"]
        point_of = {name: idx + 1 for idx, name in enumerate(letters)}
        labels = {name: Fraction(point_of[name]) for name in letters}
        zeta = {point_of[name]: labels[name] for name in letters}

        def tri(names):
            return tuple(sorted(point_of[x] for x in names))

        basis = [tri(t) for t in data["initial_basis"]]
        acc = Matrix.identity(3)
        for step_no, step in enumerate(data["steps"]):
            removed = tuple(sorted(point_of[x] for x in step["removed"]))
            inserted = tuple(sorted(point_of[x] for x in step["inserted"]))
            after = [tri(t) for t in step["basis_after"]]
            expected = evaluate_matrix(step["matrix"], labels)
            m = build_flip_matrix(FlipEvent(removed, inserted), basis, after,
                                  zeta)
            if m != expected:
                return SuiteResult(
                    "pentagon", False,
                    f"step {step_no + 1}: " + _first_difference(m, expected))
            if (removed, inserted) != PENTAGON_FLIPS[step_no]:
                return SuiteResult(
                    "pentagon", False,
                    f"step {step_no + 1} differs from the canonical cycle")
            acc = m * acc
            basis = after
        if not acc.is_identity():
            return SuiteResult("pentagon", False, "cycle product is not I")
        if pentagon_cycle_product([zeta[i] for i in range(1, 6)]) != acc:
            return SuiteResult("pentagon", False,
                               "product differs from the canonical cycle")
        return SuiteResult("pentagon", True)


def run_two_flip_suite() -> SuiteResult:
    """Both orders of the two-flip pair must give the recorded product."""
    with _evaluating("two_flip_commutation.json"):
        data = load_fixture("two_flip_commutation.json")
        labels = {name: Fraction(name[1:]) for name in data["labels"]}
        expected = evaluate_matrix(data["product"], labels)
        for order_no, order in enumerate(data["orders"]):
            acc = _fold("two_flip_commutation.json", order["factors"], labels)
            if acc != expected:
                return SuiteResult("two-flip", False, f"order {order_no + 1}: "
                                   + _first_difference(acc, expected))
        return SuiteResult("two-flip", True)


def _fold(name: str, factors, labels) -> Matrix:
    """The product of the factor matrices of fixture ``name``, left to
    right; there must be at least one, and each one's columns must sum to
    1."""
    if not factors:
        raise FixtureError(f"{name} has no factors")
    acc = None
    for pos, factor in enumerate(factors):
        m = evaluate_matrix(factor["matrix"], labels)
        if not m.columns_sum_to_one():
            raise FixtureError(
                f"{name} factor {pos + 1}: column sums are not all 1")
        acc = m if acc is None else acc * m
    return acc


def run_loop_suite() -> list:
    """Recompute both braid-loop products and their commutation."""
    results = []
    products = {}
    for name, label in (("braid_loop_4_8.json", "loop 4-8"),
                        ("braid_loop_5_7.json", "loop 5-7")):
        with _evaluating(name):
            data = load_fixture(name)
            expected = evaluate_matrix(data["product"])
            acc = _fold(name, data["factors"], None)
        ok = acc == expected
        detail = (f"{len(data['factors'])} factors" if ok
                  else _first_difference(acc, expected))
        results.append(SuiteResult(label, ok, detail))
        products[label] = expected
    with _evaluating("loop_commutation.json"):
        commute = evaluate_matrix(
            load_fixture("loop_commutation.json")["product"])
    with _evaluating("braid_loop_4_8.json, braid_loop_5_7.json"):
        ab = products["loop 4-8"] * products["loop 5-7"]
        ba = products["loop 5-7"] * products["loop 4-8"]
    ok = ab == commute and ba == commute
    detail = "" if ok else (_first_difference(ab, commute)
                            or _first_difference(ba, commute))
    results.append(SuiteResult("loop commutation", ok, detail))
    return results


def run_all_suites() -> list:
    results = [run_pentagon_suite(), run_two_flip_suite()]
    results.extend(run_loop_suite())
    return results
