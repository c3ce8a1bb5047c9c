"""Command-line front end: reproducible runs with CSV + manifest output.

Subcommands: derive-pulse, transfer, fig2-suite, scan-detuning, scan-delay,
scan-decay.  Each writes its data as CSV (full-precision scientific notation,
17 significant digits) plus a single manifest.json into the output directory.
Flags override config-file values; the manifest records the merged result.

Exit codes: 0 success; 1 a --check threshold failed, or an error such as an
unreadable or invalid --config; 2 usage error, including a malformed --range.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    make_manifest,
    read_config,
    resolve_config_data,
    write_manifest,
)
from .core import TimeGrid, vitanov_theta_dot
from .engine import synthesize_tqd_pulses, tqd_detuning_ratio, tqd_max_coupling
from .errors import StaControlError
from .experiments import (
    DEFAULT_KAPPA_GRID,
    converged_run,
    run_decay_scan,
    run_delay_scan,
    run_detuning_scan,
    run_fig2_suite,
)
# not called here; bench/tracer.py wraps these names to count trajectory reruns
from .experiments import decay_run, run_fig4_transfer  # noqa: F401

OUTDIR_ENV = "STACONTROL_OUT"


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_trajectory(path: Path, traj) -> None:
    _write_csv(path, ["t", "p1", "p_m", "p2"],
               np.column_stack([traj.times, traj.populations]))


def _write_trajectories(outdir: Path, result, prefix: str = "trajectory") -> None:
    """A scan's own trajectories, one `<prefix>_NNN.csv` per row."""
    for i, traj in enumerate(result.trajectories):
        _write_trajectory(outdir / f"{prefix}_{i:03d}.csv", traj)


def _parse_range(text: str) -> list[float]:
    """`a:b:step` inclusive on both ends; `step` must divide `b - a`.

    Each value `a + i*step` is rounded 12 decimal places below the step's
    leading digit, so grid points such as 0.0 and `b` come out exact.
    """
    try:
        a, b, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a:b:step, got {text!r}") from None
    if not (step > 0 and b >= a and math.isfinite(b - a)):
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    n = round((b - a) / step)
    if abs((b - a) / step - n) > 1e-9:
        raise argparse.ArgumentTypeError(
            f"step {step:g} does not divide {b:g} - {a:g} in range {text!r}")
    digits = 12 - math.floor(math.log10(step))
    return [round(a + i * step, digits) for i in range(n + 1)]


def _outdir(args) -> Path:
    out = args.out or os.environ.get(OUTDIR_ENV) or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _merge_config(args, overrides: dict) -> "ResolvedConfig":
    """Config file (if any) overlaid with CLI flag values, then resolved."""
    data, base_dir = {}, None
    if args.config:
        data, base_dir = read_config(args.config), Path(args.config).parent
    for section, fields in overrides.items():
        sec = dict(data.get(section) or {})
        for key, value in fields.items():
            if value is not None:
                sec[key] = value
        if sec:
            data[section] = sec
    return resolve_config_data(data, base_dir=base_dir)


def _finish(outdir: Path, command: str, args, rc, extra: dict,
            check_failures: list[str]) -> int:
    write_manifest(outdir, make_manifest(
        command, getattr(args, "config", None), rc, extra))
    if getattr(args, "check", False) and check_failures:
        for failure in check_failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


# -- subcommands ------------------------------------------------------------

def cmd_derive_pulse(args) -> int:
    rc = _merge_config(args, {"schedule": {"nu": args.nu, "delta": args.delta}})
    nu = rc.system.schedule.nu
    delta = rc.system.schedule.delta
    schedule = synthesize_tqd_pulses(nu, delta)
    grid = rc.grid or TimeGrid.vitanov_default(nu, args.points)
    times = grid.times
    g1, g2 = schedule.couplings(times)
    theta_dot = vitanov_theta_dot(times, nu)
    ratio = tqd_detuning_ratio(nu, delta)
    outdir = _outdir(args)
    _write_csv(outdir / "pulse.csv", ["t", "G1", "G2", "theta_dot", "ratio"],
               np.column_stack([times, g1, g2, theta_dot,
                                np.full_like(times, ratio)]))
    max_g = tqd_max_coupling(nu, delta)
    print(f"derive-pulse: max G = {max_g:.6g} MHz, delta/maxG = {ratio:.6g}")
    return _finish(outdir, "derive-pulse", args, rc,
                   {"max_G": max_g, "detuning_ratio": ratio}, [])


def cmd_transfer(args) -> int:
    rc = _merge_config(args, {"schedule": {"nu": args.nu, "delta": args.delta},
                              "system": {"fock_dims": args.dims}})
    nu = rc.system.schedule.nu
    delta = rc.system.schedule.delta
    dims = rc.system.fock_dims
    res, _, _, conv = converged_run("final-p2", rc.solver["rtol_unitary"],
                                    delta=delta, nu=nu, dims=dims, grid=rc.grid)
    outdir = _outdir(args)
    _write_trajectory(outdir / "trajectory.csv", res.trajectory)
    print(f"transfer: final p2 = {res.final_p2:.6f}, "
          f"max phonon = {res.max_phonon:.6g}, delta/maxG = {res.detuning_ratio:.4g}")
    failures = []
    if res.final_p2 < 0.99:
        failures.append(f"final p2 = {res.final_p2:.6f} < 0.99")
    extra = {"final_p2": res.final_p2, "max_phonon": res.max_phonon,
             "detuning_ratio": res.detuning_ratio, "convergence_delta": conv,
             "norm_drift": res.trajectory.meta["norm_drift"]}
    return _finish(outdir, "transfer", args, rc, extra, failures)


def cmd_fig2_suite(args) -> int:
    rc = _merge_config(args, {})
    nus = args.nu or [0.5, 1.0, 2.0]
    rtol = rc.solver["rtol_unitary"]
    suite = run_fig2_suite(nus, rtol=rtol)
    outdir = _outdir(args)
    failures = []
    finals = {}
    for nu, scenario in suite.items():
        label = f"{nu:g}"
        times = scenario.grid.times
        _write_csv(outdir / f"couplings_nu{label}.csv", ["t", "g1", "g2"],
                   np.column_stack([times, scenario.coupling_traces]))
        _write_trajectory(outdir / f"adiabatic_nu{label}.csv", scenario.adiabatic)
        _write_trajectory(outdir / f"tqd_nu{label}.csv", scenario.tqd)
        ad_p2 = scenario.adiabatic.final_populations[2]
        tqd_p2 = scenario.tqd.final_populations[2]
        mid_max = float(scenario.tqd.populations[:, 1].max())
        finals[nu] = {"adiabatic_final_p2": float(ad_p2),
                      "tqd_final_p2": float(tqd_p2),
                      "tqd_middle_max": mid_max,
                      "tqd_completion_time": scenario.tqd_completion_time}
        print(f"fig2 nu={label}: adiabatic p2 = {ad_p2:.6f}, "
              f"tqd p2 = {tqd_p2:.8f}, tqd middle max = {mid_max:.2e}")
        if tqd_p2 < 0.9999:
            failures.append(f"nu={label}: tqd final p2 = {tqd_p2:.6f} < 0.9999")
        if mid_max > 1e-12:
            failures.append(f"nu={label}: tqd middle population {mid_max:.2e} > 1e-12")
    if 0.5 in finals and 2.0 in finals:
        if not finals[2.0]["adiabatic_final_p2"] < finals[0.5]["adiabatic_final_p2"]:
            failures.append("adiabatic final p2 at nu=2 is not below nu=0.5")
    return _finish(outdir, "fig2-suite", args, rc, {"results": finals}, failures)


def cmd_scan_detuning(args) -> int:
    rc = _merge_config(args, {"schedule": {"nu": args.nu}})
    deltas = args.values or args.range or [20.0, 28.0, 40.0, 57.0, 80.0, 113.0,
                                           160.0, 200.0]
    result = run_detuning_scan(deltas, rc.system.schedule.nu,
                               rtol=rc.solver["rtol_unitary"], workers=args.workers)
    outdir = _outdir(args)
    _write_csv(outdir / "scan_detuning.csv",
               ["delta", "max_phonon", "convergence_delta", "detuning_ratio"],
               [row + (ratio,) for row, ratio
                in zip(result.rows, result.meta["detuning_ratios"])])
    if args.save_trajectories:
        _write_trajectories(outdir, result)
    failures = []
    phonon = result.metric_values
    if len(phonon) > 1 and not np.all(np.diff(phonon) < 0):
        failures.append("max phonon is not monotone decreasing in delta")
    extra = {"rows": len(result.rows),
             "slope_vs_ratio": result.meta.get("slope_vs_ratio"),
             "slope_vs_delta": result.meta.get("slope_vs_delta")}
    return _finish(outdir, "scan-detuning", args, rc, extra, failures)


def cmd_scan_delay(args) -> int:
    rc = _merge_config(args, {"schedule": {"nu": args.nu, "delta": args.delta}})
    result = run_delay_scan(args.values or args.range, args.pulse,
                            rc.system.schedule.delta, rc.system.schedule.nu,
                            rtol=rc.solver["rtol_unitary"], workers=args.workers)
    outdir = _outdir(args)
    _write_csv(outdir / "scan_delay.csv",
               ["delta_t", "final_p2", "convergence_delta"], result.rows)
    if args.save_trajectories:
        _write_trajectories(outdir, result)
    failures = []
    baseline_rows = [r for r in result.rows if r[0] == 0.0]
    if baseline_rows:
        baseline = baseline_rows[0][1]
        worst = float(result.metric_values.min())
        if worst < baseline - 0.05:
            failures.append(
                f"metric dropped to {worst:.4f}, > 0.05 below baseline {baseline:.4f}")
    elif args.check:
        print("note: no delta_t = 0 row to serve as baseline; "
              "the 0.05-drop check was skipped", file=sys.stderr)
    return _finish(outdir, "scan-delay", args, rc, {"rows": len(result.rows)},
                   failures)


def cmd_scan_decay(args) -> int:
    rc = _merge_config(args, {
        "dissipation": {"gamma_m": args.gamma_m, "n_th": args.n_th}})
    kappas = args.values or list(DEFAULT_KAPPA_GRID)
    diss = rc.system.dissipation
    # scenario defaults when neither flag nor config pinned them
    gamma_m = 5e-4 if "dissipation.gamma_m" in rc.defaulted else diss.gamma_m
    n_th = 100.0 if "dissipation.n_th" in rc.defaulted else diss.n_th
    protocols = ["adiabatic", "tqd"] if args.protocol == "both" else [args.protocol]
    rtol = rc.solver["rtol_lindblad"]
    results = {}
    for protocol in protocols:
        results[protocol] = run_decay_scan(
            kappas, protocol, gamma_m=gamma_m, n_th=n_th,
            rtol=rtol, workers=args.workers)
    outdir = _outdir(args)
    header = ["kappa"] + [f"F_{p}" for p in protocols] \
        + [f"convergence_delta_{p}" for p in protocols]
    rows = []
    for i, kappa in enumerate(kappas):
        row = [kappa] + [results[p].rows[i][1] for p in protocols] \
            + [results[p].rows[i][2] for p in protocols]
        rows.append(row)
    _write_csv(outdir / "scan_decay.csv", header, rows)
    if args.save_trajectories:
        for protocol in protocols:
            _write_trajectories(outdir, results[protocol], f"trajectory_{protocol}")
    failures = []
    for protocol in protocols:
        fvals = results[protocol].metric_values
        if len(fvals) > 1 and np.any(np.diff(fvals) > 0):
            failures.append(f"F({protocol}) is not non-increasing in kappa")
    if set(protocols) == {"adiabatic", "tqd"}:
        for i, kappa in enumerate(kappas):
            if kappa > 0 and not results["tqd"].rows[i][1] > results["adiabatic"].rows[i][1]:
                failures.append(f"F(tqd) <= F(adiabatic) at kappa={kappa}")
    extra = {"rows": len(kappas), "protocols": protocols}
    return _finish(outdir, "scan-decay", args, rc, extra, failures)


# -- parser -----------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="YAML config file (flags override it)")
    sub.add_argument("--out", help=f"output directory (or ${OUTDIR_ENV}; default ./out)")
    sub.add_argument("--check", action="store_true",
                     help="enforce embedded acceptance thresholds (exit 1 on failure)")
    sub.add_argument("--workers", type=int, default=1,
                     help="process-pool size for scan points")
    sub.add_argument("--save-trajectories", action="store_true",
                     help="also write the trajectory behind each row as CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacontrol",
        description="Fast transitionless control of three-mode bosonic systems")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("derive-pulse", help="synthesize a matched pulse pair")
    p.add_argument("--nu", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--points", type=int, default=2001)
    _add_common(p)
    p.set_defaults(func=cmd_derive_pulse)

    p = subs.add_parser("transfer", help="optomechanical Fock-space transfer")
    p.add_argument("--nu", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--dims", type=lambda s: [int(x) for x in s.split(",")],
                   help="fock dims d1,dm,d2")
    _add_common(p)
    p.set_defaults(func=cmd_transfer)

    p = subs.add_parser("fig2-suite", help="adiabatic vs transitionless comparison")
    p.add_argument("--nu", type=float, action="append",
                   help="shape rate (repeatable; default 0.5 1 2)")
    _add_common(p)
    p.set_defaults(func=cmd_fig2_suite)

    p = subs.add_parser("scan-detuning", help="max phonon number vs detuning")
    p.add_argument("--nu", type=float)
    p.add_argument("--values", type=float, nargs="+")
    p.add_argument("--range", type=_parse_range, help="a:b:step")
    _add_common(p)
    p.set_defaults(func=cmd_scan_detuning)

    p = subs.add_parser("scan-delay", help="robustness vs pulse timing deviation")
    p.add_argument("--nu", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--pulse", choices=["G1", "G2", "both"], default="G1")
    p.add_argument("--values", type=float, nargs="+")
    p.add_argument("--range", type=_parse_range, default="-0.6:0.6:0.05",
                   help="a:b:step (default -0.6:0.6:0.05)")
    _add_common(p)
    p.set_defaults(func=cmd_scan_delay)

    p = subs.add_parser("scan-decay", help="open-system fidelity vs cavity decay")
    p.add_argument("--values", type=float, nargs="+", help="kappa grid")
    p.add_argument("--protocol", choices=["adiabatic", "tqd", "both"],
                   default="both")
    p.add_argument("--gamma-m", type=float)
    p.add_argument("--n-th", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_scan_decay)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # join `--range -0.6:...` so argparse does not read the value as a flag
    joined = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token == "--range" and i + 1 < len(argv):
            joined.append(f"--range={argv[i + 1]}")
            skip = True
        else:
            joined.append(token)
    args = build_parser().parse_args(joined)
    try:
        return args.func(args)
    except StaControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
