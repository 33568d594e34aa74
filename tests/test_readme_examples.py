"""Every `zetalab ...` line of README's CLI block runs through cli.run and
exits 0, with and without --dry-run, so the README's commands cannot drift
from the CLI and no dry-run refusal turns a valid command away; each gives
the same output in a fresh interpreter, which has imported only what the
command imports, and with its options read from a --config file; and each
command reads every option its subcommand accepts."""

import argparse
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from zetalab import cli

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(cli.__file__).resolve().parents[1]


def _cli_lines() -> list[str]:
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("zetalab ")]
    assert lines, "README's CLI block lists no zetalab command"
    return lines


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_command_exits_0(line, tmp_path, capsys):
    """In process, and then in a fresh interpreter with the same stdout
    and report: a command that finds a module loaded only because other
    tests imported it fails there."""
    report = tmp_path / "report"
    argv = shlex.split(line)[1:] + ["--output", str(report)]
    assert cli.run(argv) == 0
    outputs = [(capsys.readouterr().out, _without_timestamp(report.read_text()))]
    report.unlink()
    code = "import sys\nfrom zetalab import cli\nsys.exit(cli.run(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    outputs.append((proc.stdout, _without_timestamp(report.read_text())))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_command_dry_run_exits_0(line, capsys):
    assert cli.run(shlex.split(line)[1:] + ["--dry-run"]) == 0


def _actions(command: str) -> list[argparse.Action]:
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]._actions


def _required_options(command: str) -> set[str]:
    return {o for a in _actions(command) if a.required for o in a.option_strings}


def _without_timestamp(report: str) -> str:
    return "".join(line for line in report.splitlines(True)
                   if not line.startswith('  "timestamp": '))


@pytest.mark.parametrize("line", _cli_lines())
def test_config_file_gives_the_flags_run(line, tmp_path, capsys):
    """Every option that need not be a flag, moved into a --config file,
    gives the same stdout and report, with and without --dry-run."""
    report = tmp_path / "report"
    argv = shlex.split(line)[1:] + ["--threads", "2", "--output", str(report)]
    if any("--seed" in a.option_strings for a in _actions(argv[0])):
        argv += ["--seed", "3"]
    required = _required_options(argv[0])
    flags, keys = argv[:1], [f"command = {argv[0]}\n"]
    for option, value in zip(argv[1::2], argv[2::2]):
        if option in required:
            flags += [option, value]
        else:
            keys.append(f"{option[2:].replace('-', '_')} = {value}\n")
    config = tmp_path / "exp.cfg"
    config.write_text("".join(keys))
    for dry in ([], ["--dry-run"]):
        outputs = []
        for args in (argv, flags + ["--config", str(config)]):
            report.unlink(missing_ok=True)
            assert cli.run(args + dry) == 0
            written = _without_timestamp(report.read_text()) if report.exists() else None
            outputs.append((capsys.readouterr(), written))
        assert outputs[0] == outputs[1]
        assert (outputs[0][1] is None) == bool(dry)


# read by run and _write_report, or (threads) accepted and ignored
_READ_OUTSIDE_COMMANDS = {"threads", "output", "format", "dry_run", "config", "command"}


class _ReadRecorder:
    """Stands in for the parsed Namespace and records each attribute read."""

    def __init__(self, args: argparse.Namespace):
        self._args, self.read = args, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._args, name)


@pytest.mark.parametrize("line", _cli_lines())
def test_every_accepted_option_is_read(line, capsys):
    """No subcommand accepts an option that its command leaves unread, so
    no flag is taken and then has no effect."""
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    args.dry_run = True
    recorder = _ReadRecorder(args)
    cli._COMMANDS[args.command](recorder)
    assert set(vars(args)) - _READ_OUTSIDE_COMMANDS - recorder.read == set()
