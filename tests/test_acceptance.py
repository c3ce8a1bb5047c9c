"""Acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or read the
captured output) before asserting.  Criteria 4 and 8 encode targets the
implemented physics does not reach; they are kept faithful to their stated
tolerances and are expected to fail.  See the package README for the
quantitative analysis.
"""

import time

import numpy as np
import pytest

from stacontrol.core import CouplingSchedule, TimeGrid, vitanov_theta_dot
from stacontrol.dynamics import (
    TruncationWarning,
    build_h3,
    build_mode_hamiltonian,
    density_from_pure,
    evolve_lindblad,
    evolve_schrodinger,
    fock_state,
    propagate_amplitudes,
)
from stacontrol.engine import (
    build_adiabatic_matrix,
    closed_form_eigensystem,
    counterdiabatic_matrix,
    effective_matrix_at,
    synthesize_tqd_pulses,
)
from stacontrol.core import Dissipation, SystemConfig
from stacontrol.experiments import (
    DEFAULT_KAPPA_GRID,
    completion_time,
    decay_run,
    fig2_grid,
    run_decay_scan,
    run_delay_scan,
    run_detuning_scan,
    run_fig2_suite,
    run_fig4_transfer,
)

V0 = np.array([1.0, 0.0, 0.0], dtype=complex)


def report(criterion: int, label: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} [{status}] {label}: {detail}")
    return ok


# -- expensive shared runs ---------------------------------------------------

@pytest.fixture(scope="module")
def fig2_suite():
    return run_fig2_suite((0.5, 1.0, 2.0))


@pytest.fixture(scope="module")
def fig4_result():
    return run_fig4_transfer(delta=40.0, nu=2.0)


@pytest.fixture(scope="module")
def detuning_scan():
    # one decade of delta at fixed nu = 2
    return run_detuning_scan([20.0, 28.0, 40.0, 57.0, 80.0, 113.0, 160.0, 200.0],
                             nu=2.0, n_points=1201)


@pytest.fixture(scope="module")
def delay_scans():
    dts = np.round(np.arange(-0.6, 0.6 + 1e-9, 0.05), 10)
    g1 = run_delay_scan(dts, "G1", n_points=1601, workers=4)
    g2 = run_delay_scan(dts, "G2", n_points=1601, workers=4)
    both = run_delay_scan([0.0, 0.3], "both", n_points=1601)
    return g1, g2, both


@pytest.fixture(scope="module")
def decay_scans():
    adiab = run_decay_scan(DEFAULT_KAPPA_GRID, "adiabatic")
    tqd = run_decay_scan(DEFAULT_KAPPA_GRID, "tqd")
    return adiab, tqd


# -- criteria ----------------------------------------------------------------

def test_criterion_01_eigen_structure():
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    worst_value = 0.0
    worst_dark = 0.0
    for g1, g2 in rng.uniform(1e-12, 10.0, size=(1000, 2)):
        es = closed_form_eigensystem(g1, g2)
        g0 = np.hypot(g1, g2)
        worst_value = max(worst_value,
                          float(np.max(np.abs(es.values - [0.0, g0, -g0]))))
        m = build_adiabatic_matrix(CouplingSchedule.constant(g1, g2), 0.0)
        worst_dark = max(worst_dark, float(np.linalg.norm(m @ es.modes[:, 0])))
    elapsed = time.perf_counter() - start
    ok = worst_value < 1e-10 and worst_dark < 1e-10 and elapsed < 1.0
    assert report(1, "eigen structure",
                  ok, f"max eigenvalue err {worst_value:.2e}, "
                      f"max dark residual {worst_dark:.2e}, {elapsed:.2f} s")


def test_criterion_02_tqd_identity():
    worst = 0.0
    for nu in (0.5, 1.0, 2.0):
        sched = CouplingSchedule.vitanov(g0=1.0, nu=nu)
        for t in TimeGrid.vitanov_default(nu).times:
            g_val = counterdiabatic_matrix(sched, t)[0, 2].imag
            worst = max(worst, abs(abs(g_val) - vitanov_theta_dot(t, nu)))
    assert report(2, "TQD identity |G| = theta_dot",
                  worst < 1e-10, f"max deviation {worst:.2e}")


def test_criterion_03_fig2_reproduction(fig2_suite):
    ad = {nu: s.adiabatic.final_populations[2] for nu, s in fig2_suite.items()}
    tqd_final = min(s.tqd.final_populations[2] for s in fig2_suite.values())
    mid_max = max(float(s.tqd.populations[:, 1].max())
                  for s in fig2_suite.values())
    ok = ad[2.0] < ad[0.5] and tqd_final >= 0.9999 and mid_max <= 1e-12
    assert report(3, "fig2 adiabatic vs TQD",
                  ok, f"adiabatic p2 {ad[0.5]:.4f}@nu=0.5 vs {ad[2.0]:.4f}@nu=2, "
                      f"min TQD p2 {tqd_final:.8f}, TQD middle max {mid_max:.1e}")


def test_criterion_04_speedup_ratio(fig2_suite):
    t_slow = completion_time(fig2_suite[0.5].tqd)
    t_fast = completion_time(fig2_suite[2.0].tqd)
    ratio = t_slow / t_fast
    ok = 2.5 <= ratio <= 3.5
    assert report(4, "completion-time ratio nu=0.5 vs nu=2 in [2.5, 3.5]",
                  ok, f"ratio {ratio:.4f} "
                      f"(the protocol duration scales exactly as 1/nu, so the "
                      f"ratio is 4)")


def test_criterion_05_picture_equivalence():
    nu = 2.0
    sched = CouplingSchedule.vitanov(g0=1.0, nu=nu)
    grid = fig2_grid(nu, 1001)
    dims = (2, 2, 2)
    psi0 = fock_state(dims, (1, 0, 0))
    worst = 0.0
    for matrix_fn in (lambda t: build_adiabatic_matrix(sched, t),
                      lambda t: counterdiabatic_matrix(sched, t)):
        amp = propagate_amplitudes(matrix_fn, V0, grid)
        fock = evolve_schrodinger(build_mode_hamiltonian(matrix_fn, dims),
                                  psi0, dims, grid)
        worst = max(worst, float(np.max(np.abs(fock.populations - amp.populations))))
    assert report(5, "amplitude vs Fock picture",
                  worst < 1e-6, f"max population deviation {worst:.2e}")


def test_criterion_06_gauge_equivalence():
    nu, delta = 2.0, 40.0
    vit = CouplingSchedule.vitanov(g0=1.0, nu=nu)
    tqd = synthesize_tqd_pulses(nu, delta)
    grid = fig2_grid(nu, 1001)
    t1 = propagate_amplitudes(lambda t: counterdiabatic_matrix(vit, t), V0, grid)
    t2 = propagate_amplitudes(lambda t: effective_matrix_at(tqd, t), V0, grid)
    worst = float(np.max(np.abs(t1.populations[:, [0, 2]]
                                - t2.populations[:, [0, 2]])))
    assert report(6, "M1 vs matched M2 populations",
                  worst < 1e-8, f"max outer-mode deviation {worst:.2e}")


def test_criterion_07_fig4b(fig4_result):
    ok = fig4_result.final_p2 >= 0.99 and 0.01 <= fig4_result.max_phonon <= 0.04
    assert report(7, "Fock transfer delta=40, nu=2",
                  ok, f"final p2 {fig4_result.final_p2:.5f}, "
                      f"max phonon {fig4_result.max_phonon:.4f}")


def test_criterion_08_detuning_slope(detuning_scan):
    slope = detuning_scan.meta["slope_vs_ratio"]
    ok = abs(slope - (-1.0)) <= 0.2
    assert report(8, "log-log slope of max phonon vs delta/maxG in -1 +- 0.2",
                  ok, f"slope {slope:.3f} (max phonon scales as (maxG/delta)^2, "
                      f"i.e. slope -2 against the ratio; against delta itself "
                      f"the slope is {detuning_scan.meta['slope_vs_delta']:.3f})")


def test_criterion_09_delay_robustness(delay_scans):
    g1, g2, both = delay_scans
    failures = []
    for scan, name in ((g1, "G1"), (g2, "G2")):
        baseline = scan.metric_values[list(scan.parameter_values).index(0.0)]
        drop = float(baseline - scan.metric_values.min())
        if drop > 0.05:
            failures.append(f"{name} drop {drop:.4f}")
    sim_diff = abs(both.metric_values[1] - both.metric_values[0])
    if sim_diff > 1e-8:
        failures.append(f"simultaneous-shift diff {sim_diff:.2e}")
    ok = not failures
    base = g1.metric_values[list(g1.parameter_values).index(0.0)]
    worst = min(g1.metric_values.min(), g2.metric_values.min())
    assert report(9, "delay robustness",
                  ok, f"baseline {base:.5f}, worst shifted {worst:.5f}, "
                      f"simultaneous-shift diff {sim_diff:.1e}"
                      + (f"; failures: {failures}" if failures else ""))


def test_criterion_10_decay_ordering(decay_scans):
    adiab, tqd = decay_scans
    kappas = np.asarray(DEFAULT_KAPPA_GRID)
    better = np.all(tqd.metric_values[kappas > 0] > adiab.metric_values[kappas > 0])
    monotone = (np.all(np.diff(tqd.metric_values) <= 0)
                and np.all(np.diff(adiab.metric_values) <= 0))
    ok = bool(better and monotone)
    assert report(10, "open-system fidelity ordering",
                  ok, f"F(tqd) {tqd.metric_values[0]:.4f}..{tqd.metric_values[-1]:.4f}, "
                      f"F(adiabatic) {adiab.metric_values[0]:.4f}.."
                      f"{adiab.metric_values[-1]:.4f}")


def test_criterion_11_numerical_hygiene(fig2_suite, fig4_result, detuning_scan,
                                        delay_scans, decay_scans):
    norm_drifts = [s.tqd.meta["norm_drift"] for s in fig2_suite.values()]
    norm_drifts += [s.adiabatic.meta["norm_drift"] for s in fig2_suite.values()]
    norm_drifts.append(fig4_result.trajectory.meta["norm_drift"])
    max_norm = max(norm_drifts)

    # one representative Lindblad run for trace/Hermiticity drift: the
    # adiabatic decay-scan point at kappa = 0.01 on the (2,6,2) truncation,
    # whose mechanical edge state trips the truncation probe
    dims = (2, 6, 2)
    schedule = CouplingSchedule.vitanov(g0=1.0, nu=0.5)
    config = SystemConfig(schedule, Dissipation(0.01, 0.01, 5e-4, 100.0), dims)
    with pytest.warns(TruncationWarning):
        traj = evolve_lindblad(build_h3(schedule, 0.0, 0.0, dims), config,
                               density_from_pure(fock_state(dims, (1, 0, 0))),
                               TimeGrid(0.0, 20.0, 801))
    trace_drift = traj.meta["trace_drift"]
    herm_drift = traj.meta["hermiticity_drift"]

    # the Gaussian channel behind the decay scans, at the same point: its noise
    # N stays Hermitian and positive semidefinite, and |v| never grows
    channel = decay_run(0.01, "adiabatic", 0.5)[0].meta
    channel_ok = (channel["hermiticity_drift"] <= 1e-12
                  and channel["min_noise_eigenvalue"] >= -1e-12
                  and channel["norm_growth"] <= 0.0)

    conv = [detuning_scan.convergence_deltas.max()]
    conv += [scan.convergence_deltas.max() for scan in delay_scans]
    conv += [scan.convergence_deltas.max() for scan in decay_scans]
    max_conv = float(max(conv))

    ok = (max_norm < 1e-8 and trace_drift < 1e-6 and herm_drift < 1e-9
          and max_conv < 1e-4 and channel_ok)
    assert report(11, "numerical hygiene",
                  ok, f"norm drift {max_norm:.1e}, trace drift {trace_drift:.1e}, "
                      f"hermiticity drift {herm_drift:.1e}, "
                      f"max convergence delta {max_conv:.1e}, channel N hermiticity "
                      f"{channel['hermiticity_drift']:.1e}, min eigenvalue "
                      f"{channel['min_noise_eigenvalue']:.1e}, |v| growth "
                      f"{channel['norm_growth']:.1e}")


def test_criterion_12_analytic_oracles():
    # Rabi oscillation with a single constant coupling
    g0 = 1.0
    sched = CouplingSchedule.constant(g0, 0.0)
    grid = TimeGrid(0.0, 6.0, 241)
    rabi = propagate_amplitudes(lambda t: build_adiabatic_matrix(sched, t),
                                V0, grid)
    rabi_err = float(np.max(np.abs(rabi.populations[:, 0]
                                   - np.cos(g0 * grid.times) ** 2)))

    # pure cavity decay of a single excitation
    dims = (2, 2, 2)
    kappa = 0.3
    config = SystemConfig(schedule=CouplingSchedule.constant(0.0, 0.0),
                          dissipation=Dissipation(kappa1=kappa), fock_dims=dims)
    decay_grid = TimeGrid(0.0, 8.0, 161)
    decay = evolve_lindblad(lambda t: np.zeros((8, 8)), config,
                            density_from_pure(fock_state(dims, (1, 0, 0))),
                            decay_grid)
    decay_err = float(np.max(np.abs(decay.populations[:, 0]
                                    - np.exp(-kappa * decay_grid.times))))

    # thermal dissipator: vacuum heats monotonically toward n_th
    n_th = 0.5
    tdims = (2, 12, 2)
    tconfig = SystemConfig(schedule=CouplingSchedule.constant(0.0, 0.0),
                           dissipation=Dissipation(gamma_m=1.0, n_th=n_th),
                           fock_dims=tdims)
    tdim = int(np.prod(tdims))
    thermal = evolve_lindblad(lambda t: np.zeros((tdim, tdim)), tconfig,
                              density_from_pure(fock_state(tdims, (0, 0, 0))),
                              TimeGrid(0.0, 20.0, 201))
    n_m = thermal.populations[:, 1]
    thermal_ok = bool(np.all(np.diff(n_m) > -1e-7)
                      and abs(n_m[-1] - n_th) < 1e-3)

    ok = rabi_err < 1e-8 and decay_err < 1e-6 and thermal_ok
    assert report(12, "analytic oracles",
                  ok, f"Rabi err {rabi_err:.1e}, decay err {decay_err:.1e}, "
                      f"thermal fixed point {n_m[-1]:.4f} (target {n_th})")
