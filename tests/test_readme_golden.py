"""Golden reports for every CLI example in README.md.

Each ``demorgan ...`` line of the README's command-line block is run with
``--format json --no-timing`` and its output compared byte for byte with
the report stored under ``tests/golden/``.  The examples run from that
directory, so the table example reads ``tests/golden/data.txt`` under the
path the README gives it.
"""

import re
import shlex
from pathlib import Path

import pytest

from demorgan.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def readme_examples() -> list[str]:
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line.strip() for line in block.splitlines()
            if line.strip().startswith("demorgan ")]


def golden_path(command: str) -> Path:
    slug = re.sub(r"[^A-Za-z0-9.]+", "-", command.removeprefix("demorgan ")).strip("-")
    return GOLDEN_DIR / f"{slug}.json"


def run_example(command: str, capsys, monkeypatch) -> str:
    monkeypatch.chdir(GOLDEN_DIR)
    main([*shlex.split(command)[1:], "--format", "json", "--no-timing"])
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def test_every_example_has_a_golden_report():
    examples = readme_examples()
    assert len(examples) >= 10
    assert all(golden_path(cmd).is_file() for cmd in examples)


@pytest.mark.parametrize("command", readme_examples())
def test_readme_example_matches_golden(command, capsys, monkeypatch):
    assert run_example(command, capsys, monkeypatch) == golden_path(command).read_text()
