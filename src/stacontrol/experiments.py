"""Scenario runners and parameter scans reproducing the target figures as data.

* fig2 suite   -- adiabatic vs transitionless three-mode transfer at several
                  shape rates nu (coupling traces + population histories).
* fig4 transfer -- optomechanical transfer with synthesized pulses on the 3x3
                  amplitude engine, with the maximum phonon population.
* detuning scan -- max phonon number vs detuning delta at fixed nu.
* delay scan   -- robustness of the transfer against shifting one pulse in time.
* decay scan   -- open-system fidelity vs cavity decay kappa for the adiabatic
                  and transitionless protocols, on the exact Gaussian channel.

Every run, closed or open, takes fixed fourth-order Magnus steps on the
3x3 generator (`dynamics._magnus`): runs are deterministic, with fixed step
rules and no randomness.  Each scan is one settings record: the run keywords
its rows share, the swept axis and the metric.  Every row runs from that
record plus its axis value through `converged_run`, which runs the point at
the step rule's sub-steps and at twice as many and carries the metric change
as the row's convergence delta, plus the first run's trajectory.  Scan points
may be distributed over a process pool; result assembly is order-preserving.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import CouplingSchedule, Dissipation, TimeGrid
from .dynamics import (
    Trajectory,
    channel_fidelity,
    propagate_amplitudes,
    propagate_channel,
    propagate_tqd_amplitudes,
)
# not called here; bench/tracer.py wraps these names
from .dynamics import build_h3, evolve_lindblad, evolve_schrodinger  # noqa: F401
from .engine import build_adiabatic_matrix, synthesize_tqd_pulses, tqd_detuning_ratio
from .errors import InvalidParameterError

DEFAULT_KAPPA_GRID = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1)
DEFAULT_DELAY_PAD = 12.0  # us; wide enough that a shifted pulse is never clipped
FIG2_PAD_WIDTHS = 5.0     # extra sigmoid widths (units of 1/nu) on each side
# which_pulse -> pulse delays for a shift dt
DELAY_PULSES = {
    "G1": lambda dt: (dt, 0.0),
    "G2": lambda dt: (0.0, dt),
    "both": lambda dt: (dt, dt),
}


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Rows of (axis value, metric value, convergence delta), the settings
    record every row was run from (see `_scan`), scan-specific extras and
    the trajectory each row's metric was taken from, in row order."""

    rows: tuple
    settings: dict
    meta: dict = field(default_factory=dict)
    trajectories: tuple = ()

    @property
    def parameter_values(self) -> np.ndarray:
        return np.array([r[0] for r in self.rows])

    @property
    def metric_values(self) -> np.ndarray:
        return np.array([r[1] for r in self.rows])

    @property
    def convergence_deltas(self) -> np.ndarray:
        return np.array([r[2] for r in self.rows])


def _map_ordered(fn, items, workers: int):
    """`fn` over `items` in order, on a pool of at most one process per item."""
    workers = min(workers, len(items))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def completion_time(traj: Trajectory, threshold: float = 0.99) -> float | None:
    """First time (measured from the grid start) at which the target-mode
    population reaches `threshold`; None if it never does."""
    hits = np.nonzero(traj.populations[:, 2] >= threshold)[0]
    if hits.size == 0:
        return None
    return float(traj.times[hits[0]] - traj.times[0])


# -- fig2: adiabatic vs transitionless three-mode transfer ------------------

@dataclass(frozen=True, eq=False)
class Fig2Scenario:
    """Per-nu bundle: coupling traces, adiabatic run, transitionless run."""

    nu: float
    grid: TimeGrid
    coupling_traces: np.ndarray  # columns (g1, g2) on the grid
    adiabatic: Trajectory
    tqd: Trajectory

    @property
    def tqd_completion_time(self) -> float | None:
        return completion_time(self.tqd)


def fig2_grid(nu: float, n_points: int | None = None) -> TimeGrid:
    """Scenario grid [-5/nu, 15/nu]: the default window [0, 10/nu] padded by
    five sigmoid widths per side so the pulse tails are negligible and the
    transitionless transfer saturates."""
    base = TimeGrid.vitanov_default(nu) if n_points is None \
        else TimeGrid(0.0, 10.0 / nu, n_points)
    return base.widen(FIG2_PAD_WIDTHS / nu)


def run_fig2_scenario(nu: float, g0: float = 1.0,
                      n_points: int | None = None) -> Fig2Scenario:
    grid = fig2_grid(nu, n_points)
    schedule = CouplingSchedule.vitanov(g0=g0, nu=nu)
    g1, g2 = schedule.couplings(grid.times)
    v0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    adiabatic = propagate_amplitudes(
        lambda t: build_adiabatic_matrix(schedule, t), v0, grid,
        bound=2.0 * schedule.max_coupling)
    tqd = propagate_tqd_amplitudes(schedule, v0, grid)
    return Fig2Scenario(nu, grid, np.column_stack([g1, g2]), adiabatic, tqd)


def run_fig2_suite(nus=(0.5, 1.0, 2.0), g0: float = 1.0,
                   n_points: int | None = None) -> dict[float, Fig2Scenario]:
    """Coupling traces plus adiabatic and transitionless population histories
    for each shape rate, from the 3x3 amplitude engine with v0 = [1, 0, 0]."""
    nus = tuple(float(nu) for nu in nus)
    if len(set(nus)) < len(nus):
        raise InvalidParameterError(f"shape rates must be distinct, got {nus}")
    return {nu: run_fig2_scenario(nu, g0, n_points) for nu in nus}


# -- fig4: optomechanical photon-phonon transfer ----------------------------

@dataclass(frozen=True, eq=False)
class TransferResult:
    """Closed transfer outcome: the trajectory, its peak mechanical (phonon)
    and final target-cavity populations, and the ratio delta/maxG."""

    trajectory: Trajectory
    max_phonon: float
    final_p2: float
    detuning_ratio: float


def run_fig4_transfer(delta: float = 40.0, nu: float = 2.0,
                      grid: TimeGrid | None = None,
                      delays: tuple[float, float] = (0.0, 0.0),
                      ratio_warn: float = 5.0,
                      substeps: int | None = None) -> TransferResult:
    """The optomechanical transfer from |100> with synthesized pulses.  H3
    conserves the excitation number, so this is exactly, for any Fock
    truncation, i dv/dt = (M(t) + diag(delta, 0, delta)) v from v0 = [1, 0, 0],
    with |v_i|^2 the mode occupations <n_i>.  `substeps` are the Magnus steps
    per output interval, by default those of the step rule with the bound
    |delta| + 2 max G."""
    schedule = synthesize_tqd_pulses(nu, delta).with_delays(*delays)
    ratio = tqd_detuning_ratio(nu, delta)
    if ratio < ratio_warn:
        import warnings
        warnings.warn(
            f"detuning ratio delta/maxG = {ratio:.2f} < {ratio_warn}; "
            "adiabatic elimination may be poor", stacklevel=2)
    if grid is None:
        grid = TimeGrid.vitanov_default(nu)
    detunings = np.diag([delta, 0.0, delta]).astype(complex)[:, :, None]
    traj = propagate_amplitudes(
        lambda t: build_adiabatic_matrix(schedule, t) + detunings,
        np.array([1.0, 0.0, 0.0], dtype=complex), grid,
        bound=abs(delta) + 2.0 * schedule.max_coupling, substeps=substeps)
    return TransferResult(
        trajectory=traj,
        max_phonon=float(traj.populations[:, 1].max()),
        final_p2=float(traj.populations[-1, 2]),
        detuning_ratio=ratio,
    )


# -- scan rows --------------------------------------------------------------

def _metric_run(metric: str, **run_args):
    """(own result, trajectory, metric) of one run: `decay_run` for
    "fidelity-F", `run_fig4_transfer` for "final-p2" and "max-phonon"."""
    if metric == "fidelity-F":
        traj, value = res = decay_run(**run_args)
        return res, traj, value
    res = run_fig4_transfer(**run_args)
    return res, res.trajectory, getattr(
        res, "max_phonon" if metric == "max-phonon" else "final_p2")


def converged_run(metric: str, **run_args):
    """One point run twice: the convergence policy of every scan row.

    The metric's run (`decay_run` for "fidelity-F", `run_fig4_transfer` for
    "final-p2" and "max-phonon") goes with `run_args` at the step rule's
    Magnus sub-steps and at twice as many.  Returns the first run's own
    result (decay_run's (trajectory, F) pair, or a TransferResult), its
    trajectory, its metric and the metric's change (the convergence delta)."""
    res, traj, value = _metric_run(metric, **run_args)
    *_, finer = _metric_run(metric, **run_args, substeps=2 * traj.meta["substeps"])
    return res, traj, value, abs(value - finer)


def _scan_row(item):
    settings, value = item
    run_args = {k: v for k, v in settings.items() if k not in ("metric", "axis", "pulse")}
    if "grid" in run_args:
        run_args["grid"] = TimeGrid(**run_args["grid"])
    if settings["axis"] == "delta_t":
        run_args["delays"] = DELAY_PULSES[settings["pulse"]](value)
    else:
        run_args[settings["axis"]] = value
    _, traj, got, delta = converged_run(settings["metric"], **run_args)
    return (value, got, delta), traj


def _scan(values, settings: dict, workers: int) -> ScanResult:
    """One row per value, each run from `settings` with its axis at that value.

    `settings` names the `metric` and the swept `axis` ("delta_t" shifts the
    named `pulse`; any other axis is a run keyword), and holds every other
    keyword of the run, with a grid as its field mapping.
    """
    values = tuple(float(v) for v in values)
    if not values:
        raise InvalidParameterError("scan values must be non-empty")
    if not all(np.isfinite(values)):
        raise InvalidParameterError(f"scan values must be finite, got {values}")
    if len(set(values)) < len(values):
        raise InvalidParameterError(f"scan values must be distinct, got {values}")
    out = _map_ordered(_scan_row, [(settings, v) for v in values], workers)
    return ScanResult(tuple(row for row, _ in out), settings,
                      trajectories=tuple(traj for _, traj in out))


# -- detuning scan ----------------------------------------------------------

def run_detuning_scan(deltas, nu: float = 2.0, dims=None,
                      n_points: int = 2001, workers: int = 1) -> ScanResult:
    """Per delta: synthesize pulses, run the transfer, record the max
    phonon population and the ratio delta/maxG.

    When the scan has more than one point, `meta` carries a log-log fit of
    max-phonon against the detuning ratio (and against delta), plus the
    relative spread of max-phonon * ratio.
    """
    # `dims` is ignored: the run needs no truncation; bench/workloads.py passes it
    settings = {"metric": "max-phonon", "axis": "delta", "nu": nu,
                "grid": asdict(TimeGrid(0.0, 10.0 / nu, n_points))}
    result = _scan(deltas, settings, workers)
    ratios = np.array([tqd_detuning_ratio(nu, row[0]) for row in result.rows])
    result.meta["detuning_ratios"] = ratios
    if len(result.rows) > 1:
        phonon = result.metric_values
        result.meta["slope_vs_ratio"] = float(
            np.polyfit(np.log(ratios), np.log(phonon), 1)[0])
        result.meta["slope_vs_delta"] = float(
            np.polyfit(np.log(result.parameter_values), np.log(phonon), 1)[0])
        product = phonon * ratios
        result.meta["product_relative_spread"] = float(
            (product.max() - product.min()) / product.mean())
    return result


# -- delay scan -------------------------------------------------------------

def delay_scan_grid(nu: float, pad: float = DEFAULT_DELAY_PAD,
                    n_points: int = 2001) -> TimeGrid:
    return TimeGrid(-pad, 10.0 / nu + pad, n_points)


def run_delay_scan(delta_ts, which_pulse: str, delta: float = 40.0,
                   nu: float = 2.0, dims=None,
                   pad: float = DEFAULT_DELAY_PAD, n_points: int = 2001,
                   workers: int = 1) -> ScanResult:
    """Shift the named pulse ("G1", "G2" or "both") by each dt and rerun
    the transfer.

    The grid is widened by `pad` on both sides so a shifted pulse is never
    clipped; shifting both pulses together is then a pure time translation.
    """
    if which_pulse not in DELAY_PULSES:
        raise InvalidParameterError(
            f"which_pulse must be G1, G2 or both, got {which_pulse!r}")
    for dt in delta_ts:
        if abs(dt) > 5.0 / nu:
            raise InvalidParameterError(
                f"|delay| = {abs(dt)} exceeds the sane window 5/nu = {5.0 / nu}")
    # `dims` is ignored: the run needs no truncation; bench/workloads.py passes it
    settings = {"metric": "final-p2", "axis": "delta_t", "pulse": which_pulse,
                "delta": delta, "nu": nu,
                "grid": asdict(delay_scan_grid(nu, pad, n_points))}
    return _scan(delta_ts, settings, workers)


# -- decay scan -------------------------------------------------------------

def _check_protocol(protocol) -> None:
    if protocol not in ("adiabatic", "tqd"):
        raise InvalidParameterError(
            f"protocol must be 'adiabatic' or 'tqd', got {protocol!r}")


def decay_run(kappa, protocol, nu, delta=40.0, gamma_m=5e-4, n_th=100.0,
              n_points=801, substeps=None):
    """One open-system protocol run from one photon in cavity 1, on the
    Gaussian channel (`propagate_channel`, which picks `substeps` when it is
    None); returns (trajectory, fidelity F)."""
    _check_protocol(protocol)
    if protocol == "tqd":
        schedule, detuning = synthesize_tqd_pulses(nu, delta), delta
    else:
        schedule, detuning = CouplingSchedule.vitanov(g0=1.0, nu=nu), 0.0
    traj = propagate_channel(
        schedule, detuning,
        Dissipation(kappa1=kappa, kappa2=kappa, gamma_m=gamma_m, n_th=n_th),
        TimeGrid(0.0, 10.0 / nu, n_points), substeps)
    return traj, channel_fidelity(traj.final_state, traj.meta["noise"])


def run_decay_scan(kappas=DEFAULT_KAPPA_GRID, protocol: str = "tqd",
                   nu: float | None = None, delta: float = 40.0,
                   dims=None, gamma_m: float = 5e-4, n_th: float = 100.0,
                   n_points: int = 801, workers: int = 1) -> ScanResult:
    """Fidelity F at the end of the protocol for each cavity decay kappa
    (kappa1 = kappa2 = kappa), with thermal mechanical damping.

    The adiabatic arm uses Vitanov couplings at nu = 0.5 by default; the
    transitionless arm uses synthesized pulses at nu = 2, delta = 40.
    """
    _check_protocol(protocol)
    if nu is None:
        nu = 0.5 if protocol == "adiabatic" else 2.0
    # `dims` is ignored: the run needs no truncation; bench/workloads.py passes it
    return _scan(kappas, {"metric": "fidelity-F", "axis": "kappa", "protocol": protocol,
                          "nu": nu, "delta": delta, "n_points": n_points,
                          "gamma_m": gamma_m, "n_th": n_th}, workers)
