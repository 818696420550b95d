"""Write the reference letter matrices the benchmark checks against.

    python3 bench/make_refs.py

Computes every signed generator matrix at n = 7 and n = 8 with the
program under test, checks each one independently with the benchmark's
own Fraction loops (column sums of 1, letter times inverse letter is the
identity) and writes ``bench/refs/n7.json`` and ``bench/refs/n8.json``
with a record of the checks passed.  Refuses to write a reference that
fails a check.  Regenerate only when the invariant is meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import check

ROOT = Path(__file__).resolve().parent.parent
SIZES = (7, 8)


def generate(flipbraid, n: int) -> dict:
    setup = flipbraid.canonical_setup(n)
    letters, basis = {}, None
    for name in check.letter_names(n):
        result = flipbraid.invariant(flipbraid.parse_word(name, n))
        basis = [list(t) for t in result.basis]
        letters[name] = check.parse_matrix(
            result.matrix.to_json_dict()["entries"])
    records = {}
    for name, m in letters.items():
        inverse = letters[check.inverse_name(name)]
        checks = {
            "column_sums_one": check.column_sums_one(m),
            "times_inverse_is_identity":
                check.mat_mul(m, inverse) == check.identity(len(m)),
        }
        if not all(checks.values()):
            raise SystemExit(f"n={n} {name}: reference fails {checks}")
        records[name] = {"matrix": check.format_matrix(m), "checks": checks}
    labels = {str(k): str(v) for k, v in sorted(setup.config.zeta_map().items())}
    return {"n": n, "basis": basis, "labels": labels, "letters": records}


def dump(data: dict) -> str:
    """Compact JSON with one letter per line."""
    head = {k: data[k] for k in ("n", "basis", "labels")}
    lines = [json.dumps(head, separators=(",", ":"))[:-1] + ',"letters":{']
    items = list(data["letters"].items())
    for pos, (name, rec) in enumerate(items):
        sep = "," if pos < len(items) - 1 else ""
        lines.append(json.dumps(name) + ":"
                     + json.dumps(rec, separators=(",", ":")) + sep)
    lines.append("}}")
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import flipbraid

    check.REFS_DIR.mkdir(exist_ok=True)
    for n in SIZES:
        text = dump(generate(flipbraid, n))
        json.loads(text)
        (check.REFS_DIR / f"n{n}.json").write_text(text)
        print(f"wrote n{n}.json ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
