"""Check that two checkouts of flipbraid print the same thing.

    python3 tools/same_output.py OLD_TREE NEW_TREE

Runs the same command lines from each tree, with ``python -B`` and the
tree's ``src`` on ``PYTHONPATH``:

- ``simulate`` of every signed generator at n = 2..9;
- ``invariant --charpoly --trace`` of three words at n = 8, of one at
  n = 9 whose letter b(1,9) is the one whose flip rows pass 2^64, where
  ``sequence_product`` reduces them, and of a 36-letter word at n = 3
  whose product's denominator passes 2^64, where ``mat_mul`` puts it in
  lowest terms;
- ``verify --n 5 --family pb_all``, ``verify --n 4`` of ``inverse`` and
  ``far_comm``, and ``verify --n 3 --family pentagon --trials 20``;
- ``fixtures``;
- the sampler path, which builds ``FlipEvent``s and writes their entries
  too: ``simulate`` at ``--step 1/64`` and at ``--floor 1/4096``, and
  ``invariant --step 1/32 --charpoly``;
- the other forms that the command line accepts: ``--flag=value``, flags
  in another order, a unique prefix of a flag (``--fam``) and a repeated
  flag, whose last value wins.

It prints the first command whose standard output, standard error or exit
code differs between the trees and exits 1, or prints the number of
commands compared and exits 0.  Stdlib only; one process runs at a time.
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

WORDS = ((8, "b(1,2) b(3,5)^-1 b(2,8)"), (8, "b(4,7) b(1,8)^-1 b(5,6)"),
         (8, "b(2,3)^-1 b(6,8) b(1,4)"), (9, "b(1,9) b(2,5) b(1,9)^-1"),
         (3, " ".join(["b(1,2) b(1,3)^-1 b(2,3)"] * 12)))


def commands() -> list:
    """The argument lists to compare, in the order they are run."""
    out = []
    for n in range(2, 10):
        for i, j in combinations(range(1, n + 1), 2):
            for suffix in ("", "^-1"):
                out.append(["simulate", "--n", str(n),
                            "--word", f"b({i},{j}){suffix}"])
    for n, word in WORDS:
        out.append(["invariant", "--n", str(n), "--word", word, "--charpoly",
                    "--trace"])
    out.append(["verify", "--n", "5", "--family", "pb_all"])
    out += [["verify", "--n", "4", "--family", family]
            for family in ("inverse", "far_comm")]
    out.append(["verify", "--n", "3", "--family", "pentagon", "--trials",
                "20"])
    out.append(["fixtures"])
    out += [["simulate", "--n", "4", "--word", "b(1,3) b(2,4)^-1",
             "--step", "1/64"],
            ["simulate", "--n", "3", "--word", "b(1,2)", "--floor", "1/4096"],
            ["invariant", "--n", "4", "--word", "b(1,4) b(2,3)", "--step",
             "1/32", "--charpoly"]]
    out += [["invariant", "--trace", f"--word={WORDS[0][1]}", "--n=8",
             "--charpoly"],
            ["simulate", "--word", "b(2,7)^-1", "--n=8"],
            ["verify", "--n", "2", "--fam", "pb_all", "--n", "4"]]
    return out


def run(tree: Path, args: list) -> tuple:
    """(exit code, stdout, stderr) of ``flipbraid args`` run from ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "flipbraid.cli", *args], cwd=tree,
        env=env, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (Path(tree).resolve() for tree in argv)
    for tree in (old, new):
        if not (tree / "src" / "flipbraid").is_dir():
            print(f"error: {tree} has no src/flipbraid", file=sys.stderr)
            return 2
    todo = commands()
    for args in todo:
        before, after = run(old, args), run(new, args)
        if before != after:
            parts = [name for name, a, b in
                     zip(("exit code", "stdout", "stderr"), before, after)
                     if a != b]
            print(f"differs ({', '.join(parts)}): flipbraid {' '.join(args)}")
            return 1
    print(f"{len(todo)} commands, no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
