"""README's examples run, and its "Library API" section is the package's
``__all__``."""

import ast
import re
import shlex
from pathlib import Path

import flipbraid
from flipbraid.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(lang, after):
    """The first ``lang`` fenced block of README after the line ``after``."""
    start = README.index(after + "\n")
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(
        README, start)
    return match.group(1)


def section(heading):
    """The text of README's section ``heading``, up to the next one."""
    body = README.split(f"\n## {heading}\n", 1)[1]
    return body.split("\n## ", 1)[0]


def test_library_example_prints_a_5x5_matrix(capsys):
    exec(fenced_block("python", "## Library example"), {})
    first = capsys.readouterr().out.splitlines()[0]
    matrix = ast.literal_eval(first)
    assert (matrix["rows"], matrix["cols"]) == (5, 5)
    assert len(matrix["entries"]) == 5
    assert all(len(row) == 5 for row in matrix["entries"])


def test_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    """Each command of the CLI block, run from ``tmp_path`` so that
    ``--svg-dir out/`` is written there."""
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line)
                for line in fenced_block("sh", "## CLI").splitlines()
                if line.startswith("flipbraid ")]
    assert len(commands) == 5
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()
    assert any((tmp_path / "out").iterdir())


def test_library_api_section_is_all():
    names = re.findall(r"^- `(\w+)` — ", section("Library API"), re.M)
    assert len(names) == len(set(names))
    assert set(names) == set(flipbraid.__all__)
