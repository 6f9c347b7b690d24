"""Golden reports for every CLI example in README.md.

Each ``demorgan ...`` line of the README's command-line block is run with
``--format json --no-timing`` and its output compared byte for byte with
the report stored under ``tests/golden/``.  Every example but the
simulation, which alone takes about 0.6 s, is also run with ``--format
text --no-timing`` and compared with its stored ``.txt`` rendering.  The
examples run from that directory, so the table example reads
``tests/golden/data.txt`` under the path the README gives it.
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


def text_examples() -> list[str]:
    return [cmd for cmd in readme_examples() if not cmd.startswith("demorgan simulate-walk")]


def golden_path(command: str, fmt: str = "json") -> Path:
    slug = re.sub(r"[^A-Za-z0-9.]+", "-", command.removeprefix("demorgan ")).strip("-")
    return GOLDEN_DIR / f"{slug}.{'txt' if fmt == 'text' else fmt}"


def run_example(command: str, capsys, monkeypatch, fmt: str = "json") -> str:
    monkeypatch.chdir(GOLDEN_DIR)
    main([*shlex.split(command)[1:], "--format", fmt, "--no-timing"])
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def test_every_example_has_a_golden_report():
    examples = readme_examples()
    assert len(examples) >= 10
    assert all(golden_path(cmd).is_file() for cmd in examples)
    assert len(text_examples()) == len(examples) - 1
    assert all(golden_path(cmd, "text").is_file() for cmd in text_examples())


@pytest.mark.parametrize("command", readme_examples())
def test_readme_example_matches_golden(command, capsys, monkeypatch):
    assert run_example(command, capsys, monkeypatch) == golden_path(command).read_text()


@pytest.mark.parametrize("command", text_examples())
def test_readme_example_matches_text_golden(command, capsys, monkeypatch):
    expected = golden_path(command, "text").read_text()
    assert run_example(command, capsys, monkeypatch, "text") == expected
