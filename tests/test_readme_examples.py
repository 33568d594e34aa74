"""Every `zetalab ...` line of README's CLI block runs through cli.run and
exits 0, with and without --dry-run, so the README's commands cannot drift
from the CLI and no dry-run refusal turns a valid command away."""

import shlex
from pathlib import Path

import pytest

from zetalab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_lines() -> list[str]:
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("zetalab ")]
    assert lines, "README's CLI block lists no zetalab command"
    return lines


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_command_exits_0(line, tmp_path, capsys):
    argv = shlex.split(line)[1:]
    assert cli.run(argv + ["--output", str(tmp_path / "report")]) == 0


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_command_dry_run_exits_0(line, capsys):
    assert cli.run(shlex.split(line)[1:] + ["--dry-run"]) == 0
