"""Plain-text experiment configuration: one `key = value` per line,
`#` comments.  Values parse as int, then float, then true/false, else
stay text."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import ParseError

log = logging.getLogger("zetalab")


@dataclass
class ExperimentConfig:
    command: str
    params: dict = field(default_factory=dict)
    seed: int | None = None
    output: str | None = None
    format: str = "json"

    def as_dict(self) -> dict:
        out = {"command": self.command, "format": self.format}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.output is not None:
            out["output"] = self.output
        out.update({k: self.params[k] for k in sorted(self.params)})
        return out


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text in ("true", "false"):
        return text == "true"
    return text


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
        val = val.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key", lineno)
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}", lineno)
        values[key] = _parse_value(val)
    if "command" not in values:
        raise ParseError("missing required key 'command'")
    command = str(values.pop("command"))
    seed = values.pop("seed", None)
    output = values.pop("output", None)
    fmt = str(values.pop("format", "json"))
    return ExperimentConfig(
        command=command,
        params=values,
        seed=int(seed) if seed is not None else None,
        output=str(output) if output is not None else None,
        format=fmt,
    )


def config_roundtrip(path) -> ExperimentConfig:
    """Parse the config file at `path`."""
    with open(path) as fh:
        return parse_config_text(fh.read())


def warn_unknown_keys(cfg: ExperimentConfig, known: set[str]) -> None:
    for key in cfg.params:
        if key not in known:
            log.warning("unknown config key %r ignored", key)
