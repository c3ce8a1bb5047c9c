"""Per-subcommand configuration and run manifests.

A config is a YAML mapping of sections to fields.  Seven fields exist in all
(`FIELDS`), and each subcommand accepts only those its run reads: a config
naming any other section or field is a ConfigError.  Each value comes from
the subcommand's flag if one was given, else from the file, else from its
default in `FIELDS`, and is checked there too.  `resolve` returns exactly the values the run uses, nested as in
the file; the manifest records them as `resolved_config`, and that mapping,
fed back as a config, reproduces the run.
"""

from __future__ import annotations

import datetime
import json
import math
import operator
import re
from pathlib import Path

import yaml

from . import __version__
from .core import DEFAULT_N_POINTS, TimeGrid
from .errors import ConfigError


def _real(value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _positive(value) -> float:
    value = _real(value)
    if not value > 0:
        raise ValueError("must be > 0")
    return value


def _nonnegative(value) -> float:
    value = _real(value)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


# section -> field -> (default, conversion and check)
FIELDS = {
    "schedule": {"nu": (2.0, _positive), "delta": (40.0, _positive)},
    "grid": {"t_start": (0.0, _real), "t_end": (None, _real),
             "n_points": (DEFAULT_N_POINTS, operator.index)},
    "dissipation": {"gamma_m": (5e-4, _nonnegative), "n_th": (100.0, _nonnegative)},
}


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads every YAML 1.2 float as a number.  YAML 1.1 reads
    `1e-09` (no dot, as JSON writes it) and `1.0e9` (unsigned exponent) as
    strings; with this, only a quoted number is a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"))


def read_config(path) -> dict:
    """The top-level mapping of a YAML config file (an empty file reads as
    {}); a file that cannot be read or parsed raises ConfigError."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"cannot parse config {path}{where}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def _paths(section, given) -> list[str]:
    """`section.field` for each field of a config section, else its name."""
    if isinstance(given, dict) and given:
        return [f"{section}.{key}" for key in given]
    return [str(section)]


def resolve(data: dict, fields: dict, command: str) -> dict:
    """The settings a run of `command` uses.

    `fields` maps each section the run reads to {field: flag value}, with None
    where the flag is unset or the field has no flag.  A field takes its flag
    value, else its value in `data`, else its default; `grid.t_end` defaults
    to 10/nu, the end of the Vitanov window.  A section or field of `data`
    outside `fields`, or a value of the wrong type or range, raises ConfigError.
    """
    unread = sorted(path for section, given in data.items() if section not in fields
                    for path in _paths(section, given))
    if unread:
        raise ConfigError(f"{command} reads no {unread}; "
                          f"it reads the section(s) {sorted(fields)}")
    out = {}
    for section, flags in fields.items():
        given = {} if data.get(section) is None else data[section]
        if not isinstance(given, dict):
            raise ConfigError(
                f"{section}: expected a mapping, got {type(given).__name__}")
        unread = sorted(map(str, set(given) - set(flags)))
        if unread:
            raise ConfigError(f"{section}: {command} reads no field(s) {unread}; "
                              f"it reads {sorted(flags)}")
        out[section] = {}
        for key, flag in flags.items():
            default, convert = FIELDS[section][key]
            value = flag if flag is not None else given.get(key)
            if value is None:
                value = default
            if value is not None:
                try:
                    if isinstance(value, bool):  # float() and index() read it as 1 or 0
                        raise TypeError("a boolean is not a number")
                    if isinstance(value, str):  # float() parses a quoted number
                        raise TypeError("a string is not a number")
                    value = convert(value)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(
                        f"{section}.{key}: bad value {value!r} ({exc})") from None
            out[section][key] = value
    if "grid" in out and out["grid"]["t_end"] is None:
        out["grid"]["t_end"] = TimeGrid.vitanov_default(out["schedule"]["nu"]).t_end
    return out


def make_manifest(command: str, config_path, resolved: dict,
                  extra: dict | None = None) -> dict:
    manifest = {
        "command": command,
        "config_path": str(config_path) if config_path else None,
        "resolved_config": resolved,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(outdir, manifest: dict) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    return path
