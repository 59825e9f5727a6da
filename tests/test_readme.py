"""The README's examples run: every command of its CLI block and the example
structure file of its grammar block."""
import io
import re
import shlex
from pathlib import Path

import pytest

from gradedalg import parse_structure_text
from gradedalg.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]


def _block(heading: str) -> str:
    """The first fenced block after the ``## heading`` line of the README."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)


_COMMANDS = [line for line in _block("CLI").splitlines() if line.startswith("gradedalg ")]


def test_the_cli_block_has_commands():
    assert len(_COMMANDS) >= 5


@pytest.mark.parametrize("line", _COMMANDS)
def test_a_readme_command_runs(monkeypatch, line):
    # 0 and 1 are verdicts; 2 would be a usage or parse error
    monkeypatch.chdir(ROOT)
    code = run_cli(shlex.split(line)[1:], out=io.StringIO())
    assert code in (0, 1)


def test_the_readme_grammar_block_parses():
    entry = parse_structure_text(_block("Structure files"))
    assert entry.gmodule.module.size == 180
    assert set(entry.named) == {"N", "I"} and set(entry.mulsets) == {"S"}
