"""Configuration ingestion, defaulting, and run manifests.

Configs are YAML files with (all optional) sections ``system``, ``schedule``,
``dissipation``, ``grid``, ``scan`` and ``solver``; see README for the full
schema.  Every field left unspecified is filled from documented defaults and
recorded in the resolved configuration, so a serialized config re-ingested
through the parser reproduces the identical resolution (round-trip identity).
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .core import (
    DEFAULT_N_POINTS,
    CouplingSchedule,
    Dissipation,
    SystemConfig,
    TimeGrid,
    schedule_from_csv,
)
from .dynamics import ATOL_LINDBLAD, ATOL_UNITARY, RTOL_LINDBLAD, RTOL_UNITARY
from .errors import ConfigError, StaControlError
from .experiments import ScanSpec

SOLVER_DEFAULTS = {
    "rtol_unitary": RTOL_UNITARY,
    "atol_unitary": ATOL_UNITARY,
    "rtol_lindblad": RTOL_LINDBLAD,
    "atol_lindblad": ATOL_LINDBLAD,
}

SCHEDULE_DEFAULTS = {"g0": 1.0, "nu": 2.0, "delta": 40.0, "delays": [0.0, 0.0]}
DISSIPATION_DEFAULTS = {"kappa1": 0.0, "kappa2": 0.0, "gamma_m": 0.0, "n_th": 0.0}
SYSTEM_DEFAULTS = {"fock_dims": [2, 2, 2], "labels": ["a1", "b_m", "a2"]}


@dataclass(frozen=True, eq=False)
class ResolvedConfig:
    """Fully validated configuration with every default recorded."""

    system: SystemConfig
    grid: TimeGrid | None
    scan: ScanSpec | None
    solver: dict
    defaulted: tuple[str, ...]


def _section(data: dict, name: str) -> dict:
    section = data.pop(name, None) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected a mapping, got {type(section).__name__}")
    return dict(section)


def _take(section: dict, path: str, key: str, defaults: dict,
          defaulted: list[str]):
    if key in section:
        return section.pop(key)
    defaulted.append(f"{path}.{key}")
    return defaults[key]


def _reject_unknown(section: dict, path: str) -> None:
    if section:
        raise ConfigError(f"{path}: unknown field(s) {sorted(section)}")


def read_config(path) -> dict:
    """The top-level mapping of a YAML config file (an empty file reads as
    {}); a file that cannot be read or parsed raises ConfigError."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"cannot parse config {path}{where}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def parse_config(path) -> ResolvedConfig:
    """Load, validate and default-fill a YAML config file."""
    return resolve_config_data(read_config(path), base_dir=Path(path).parent)


def resolve_config_data(data: dict, base_dir: Path | None = None) -> ResolvedConfig:
    """Validate a config dictionary (the file-level schema) into a
    ResolvedConfig; see `parse_config` for the file front end."""
    data = dict(data)
    defaulted: list[str] = []

    sched = _section(data, "schedule")
    delta_given = "delta" in sched
    kind = sched.pop("kind", None)
    if kind is None:
        kind = "tqd" if delta_given else "vitanov"
        defaulted.append("schedule.kind")
    g0 = _take(sched, "schedule", "g0", SCHEDULE_DEFAULTS, defaulted)
    nu = _take(sched, "schedule", "nu", SCHEDULE_DEFAULTS, defaulted)
    delta = _take(sched, "schedule", "delta", SCHEDULE_DEFAULTS, defaulted)
    delays = _take(sched, "schedule", "delays", SCHEDULE_DEFAULTS, defaulted)
    values = sched.pop("values", None)
    samples = sched.pop("samples", None)
    samples_csv = sched.pop("samples_csv", None)
    _reject_unknown(sched, "schedule")
    if samples_csv is not None:
        csv_path = Path(samples_csv)
        if base_dir is not None and not csv_path.is_absolute():
            csv_path = base_dir / csv_path
        samples = schedule_from_csv(csv_path).samples
    try:
        schedule = CouplingSchedule(
            kind=kind, g0=float(g0), nu=float(nu), delta=float(delta),
            delays=tuple(float(d) for d in delays),
            values=tuple(float(v) for v in values) if values is not None else None,
            samples=np.asarray(samples, dtype=float) if samples is not None else None,
        )
    except (StaControlError, TypeError, ValueError) as exc:
        raise ConfigError(f"schedule: {exc}") from exc

    diss = _section(data, "dissipation")
    diss_kwargs = {}
    for key in ("kappa1", "kappa2", "gamma_m", "n_th"):
        diss_kwargs[key] = float(
            _take(diss, "dissipation", key, DISSIPATION_DEFAULTS, defaulted))
    _reject_unknown(diss, "dissipation")
    try:
        dissipation = Dissipation(**diss_kwargs)
    except StaControlError as exc:
        raise ConfigError(str(exc)) from exc

    system_sec = _section(data, "system")
    fock_dims = _take(system_sec, "system", "fock_dims", SYSTEM_DEFAULTS, defaulted)
    labels = _take(system_sec, "system", "labels", SYSTEM_DEFAULTS, defaulted)
    _reject_unknown(system_sec, "system")
    try:
        system = SystemConfig(
            schedule=schedule, dissipation=dissipation,
            fock_dims=tuple(int(d) for d in fock_dims),
            labels=tuple(str(x) for x in labels),
        )
    except StaControlError as exc:
        raise ConfigError(f"system: {exc}") from exc

    grid_sec = _section(data, "grid")
    grid = None
    if grid_sec:
        n_points = int(grid_sec.pop("n_points", DEFAULT_N_POINTS))
        try:
            grid = TimeGrid(float(grid_sec.pop("t_start")),
                            float(grid_sec.pop("t_end")), n_points)
        except KeyError as exc:
            raise ConfigError(f"grid: missing field {exc}") from exc
        except StaControlError as exc:
            raise ConfigError(f"grid: {exc}") from exc
        _reject_unknown(grid_sec, "grid")
    else:
        defaulted.append("grid")

    scan_sec = _section(data, "scan")
    scan = None
    if scan_sec:
        try:
            scan = ScanSpec(
                parameter=scan_sec.pop("parameter"),
                values=tuple(scan_sec.pop("values")),
                metric=scan_sec.pop("metric"),
                base=dict(scan_sec.pop("base", {})),
            )
        except KeyError as exc:
            raise ConfigError(f"scan: missing field {exc}") from exc
        except StaControlError as exc:
            raise ConfigError(f"scan: {exc}") from exc
        _reject_unknown(scan_sec, "scan")
    else:
        defaulted.append("scan")

    solver_sec = _section(data, "solver")
    solver = {}
    for key, default in SOLVER_DEFAULTS.items():
        solver[key] = float(
            _take(solver_sec, "solver", key, SOLVER_DEFAULTS, defaulted))
    _reject_unknown(solver_sec, "solver")

    _reject_unknown(data, "config")
    return ResolvedConfig(system, grid, scan, solver, tuple(defaulted))


def resolved_to_dict(rc: ResolvedConfig) -> dict:
    """Plain-data form of a resolved configuration (YAML/JSON serializable);
    feeding it back through `resolve_config_data` reproduces `rc` exactly."""
    schedule = rc.system.schedule
    sched_dict: dict = {
        "kind": schedule.kind,
        "g0": schedule.g0,
        "nu": schedule.nu,
        "delta": schedule.delta,
        "delays": list(schedule.delays),
    }
    if schedule.values is not None:
        sched_dict["values"] = list(schedule.values)
    if schedule.samples is not None:
        sched_dict["samples"] = [list(row) for row in schedule.samples]
    out: dict = {
        "system": {
            "fock_dims": list(rc.system.fock_dims),
            "labels": list(rc.system.labels),
        },
        "schedule": sched_dict,
        "dissipation": {
            "kappa1": rc.system.dissipation.kappa1,
            "kappa2": rc.system.dissipation.kappa2,
            "gamma_m": rc.system.dissipation.gamma_m,
            "n_th": rc.system.dissipation.n_th,
        },
        "solver": dict(rc.solver),
    }
    if rc.grid is not None:
        out["grid"] = {"t_start": rc.grid.t_start, "t_end": rc.grid.t_end,
                       "n_points": rc.grid.n_points}
    if rc.scan is not None:
        out["scan"] = {"parameter": rc.scan.parameter,
                       "values": list(rc.scan.values),
                       "metric": rc.scan.metric,
                       "base": dict(rc.scan.base)}
    return out


def serialize_config(rc: ResolvedConfig, path) -> None:
    Path(path).write_text(yaml.safe_dump(resolved_to_dict(rc), sort_keys=False))


def resolved_equal(a: ResolvedConfig, b: ResolvedConfig) -> bool:
    """Structural identity of two resolutions (ignoring which fields were
    defaulted, which by design differ after a round trip)."""
    return resolved_to_dict(a) == resolved_to_dict(b)


def make_manifest(command: str, config_path, rc: ResolvedConfig,
                  extra: dict | None = None) -> dict:
    manifest = {
        "command": command,
        "config_path": str(config_path) if config_path else None,
        "resolved_config": resolved_to_dict(rc),
        "defaulted_fields": list(rc.defaulted),
        "tool_version": __version__,
        "tolerances": dict(rc.solver),
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
