"""Plain-text experiment configuration: one `key = value` per line,
`#` comments.  `command` names the subcommand; every other key names one
of its options, with `_` for `-`, and its value stays text, so that the
CLI passes it as `--option=value` through the option's own parser."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError


@dataclass
class ExperimentConfig:
    command: str
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"command": self.command, **self.params}


def parse_config_text(text: str) -> ExperimentConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}", lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key", lineno)
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}", lineno)
        values[key] = val.strip()
    if "command" not in values:
        raise ParseError("missing required key 'command'")
    return ExperimentConfig(command=values.pop("command"), params=values)


def config_roundtrip(path) -> ExperimentConfig:
    """Parse the UTF-8 config file at `path`; a file that cannot be opened
    or decoded is refused with a ParseError naming the path and the reason."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config file {str(path)!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode config file {str(path)!r} as UTF-8: {exc}") from exc
    return parse_config_text(text)


def warn_unknown_keys(cfg: ExperimentConfig, known: set[str]) -> None:
    import logging  # here, not at the top: a run without --config never loads it
    for key in cfg.params:
        if key not in known:
            logging.getLogger("zetalab").warning("unknown config key %r ignored", key)
