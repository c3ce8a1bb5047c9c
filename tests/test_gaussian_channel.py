"""The open system as a Gaussian channel (`propagate_channel`, `decay_run`)
against the truncated Lindblad oracle, the closed amplitude engine and
closed-form decay."""

import numpy as np
import pytest

from stacontrol import dynamics
from stacontrol.core import CouplingSchedule, Dissipation, SystemConfig, TimeGrid
from stacontrol.dynamics import (
    build_h3,
    channel_fidelity,
    density_from_pure,
    evolve_lindblad,
    fidelity,
    fock_state,
    propagate_channel,
)
from stacontrol.engine import synthesize_tqd_pulses
from stacontrol.errors import InvalidParameterError
from stacontrol.experiments import decay_run, run_decay_scan, run_fig4_transfer

NU = {"tqd": 2.0, "adiabatic": 0.5}
DELTA = 40.0
GAMMA_M = 5e-4


def lindblad_run(protocol, kappa, n_th, dims):
    """decay_run's problem on the truncated Fock space: (trajectory, F)."""
    nu = NU[protocol]
    if protocol == "tqd":
        schedule, detuning = synthesize_tqd_pulses(nu, DELTA), DELTA
    else:
        schedule, detuning = CouplingSchedule.vitanov(g0=1.0, nu=nu), 0.0
    config = SystemConfig(schedule, Dissipation(kappa, kappa, GAMMA_M, n_th), dims)
    traj = evolve_lindblad(build_h3(schedule, detuning, detuning, dims), config,
                           density_from_pure(fock_state(dims, (1, 0, 0))),
                           TimeGrid(0.0, 10.0 / nu, 801))
    return traj, fidelity(traj.final_state, dims)


# at d_m = 2 the one excitation fills the mechanical edge state, which is
# what the truncation probe reports
@pytest.mark.filterwarnings("ignore::stacontrol.dynamics.TruncationWarning")
@pytest.mark.parametrize("kappa", [0.0, 0.02])
@pytest.mark.parametrize("protocol", ["tqd", "adiabatic"])
def test_matches_lindblad_in_the_one_excitation_sector(protocol, kappa):
    # without a bath no excitation enters, so the (2,2,2) truncation is exact
    fock, fock_f = lindblad_run(protocol, kappa, 0.0, (2, 2, 2))
    traj, f = decay_run(kappa, protocol, NU[protocol], n_th=0.0)
    assert abs(f - fock_f) <= 1e-6
    assert np.max(np.abs(traj.populations - fock.populations)) <= 1e-6


@pytest.mark.filterwarnings("ignore::stacontrol.dynamics.TruncationWarning")
def test_matches_lindblad_with_the_thermal_bath():
    _, fock_f = lindblad_run("tqd", 0.01, 100.0, (3, 8, 3))
    _, f = decay_run(0.01, "tqd", NU["tqd"])
    assert abs(f - fock_f) <= 1e-4


def test_closed_limit_matches_the_amplitude_engine():
    traj, _ = decay_run(0.0, "tqd", NU["tqd"], gamma_m=0.0, n_th=0.0)
    closed = run_fig4_transfer(DELTA, NU["tqd"], grid=TimeGrid(0.0, 5.0, 801))
    assert np.max(np.abs(traj.populations - closed.trajectory.populations)) <= 1e-8


def test_pure_cavity_decay_is_exponential():
    kappa = 0.3
    grid = TimeGrid(0.0, 8.0, 161)
    traj = propagate_channel(CouplingSchedule.constant(0.0, 0.0), 0.0,
                             Dissipation(kappa1=kappa), grid)
    np.testing.assert_allclose(traj.populations[:, 0], np.exp(-kappa * grid.times),
                               rtol=0, atol=1e-12)
    assert channel_fidelity(traj.final_state, traj.meta["noise"]) == 0.0


def test_step_rule_and_counters():
    for protocol, substeps in (("tqd", 4), ("adiabatic", 1)):
        traj, _ = decay_run(0.01, protocol, NU[protocol])
        assert traj.meta["substeps"] == substeps
        assert traj.meta["steps"] == 800 * substeps
        assert traj.meta["solve_s"] > 0
    # the closed transfer: h (delta + 2 max G) = 0.0025 * 51.2 needs 2 sub-steps
    meta = run_fig4_transfer().trajectory.meta
    assert meta["substeps"] == 2 and meta["steps"] == 2000 * 2
    assert meta["solve_s"] > 0 and meta["norm_drift"] < 1e-12
    with pytest.raises(InvalidParameterError, match="power of two"):
        decay_run(0.01, "tqd", NU["tqd"], substeps=3)


def test_chunked_runs_match_one_chunk(monkeypatch):
    """Steps built a few at a time, with the map carried between chunks,
    give the one-chunk results: a closed delay row (8 sub-steps, 16 intervals
    per chunk, built in blocks of 100 steps) and a decay run whose intervals
    (16 sub-steps) each span four chunks (built in blocks of 3 steps)."""
    grid = TimeGrid(-12.0, 17.0, 401)
    closed = run_fig4_transfer(grid=grid, delays=(0.3, 0.0), substeps=8)
    decay, f = decay_run(0.01, "tqd", NU["tqd"], n_points=201)
    assert decay.meta["substeps"] == 16
    monkeypatch.setattr(dynamics, "CHUNK_STEPS", 128)
    monkeypatch.setattr(dynamics, "STEP_BLOCK", 100)
    chunked = run_fig4_transfer(grid=grid, delays=(0.3, 0.0), substeps=8)
    np.testing.assert_allclose(chunked.trajectory.populations,
                               closed.trajectory.populations, rtol=0, atol=1e-13)
    monkeypatch.setattr(dynamics, "CHUNK_STEPS", 4)
    monkeypatch.setattr(dynamics, "STEP_BLOCK", 3)
    chunked, chunked_f = decay_run(0.01, "tqd", NU["tqd"], n_points=201)
    np.testing.assert_allclose(chunked.populations, decay.populations, rtol=0, atol=1e-13)
    np.testing.assert_allclose(chunked.meta["noise"], decay.meta["noise"], rtol=0,
                               atol=1e-13)
    assert abs(chunked_f - f) <= 1e-13


def test_decay_scan_is_worker_invariant():
    serial = run_decay_scan([0.0, 0.02], "adiabatic", workers=1)
    pooled = run_decay_scan([0.0, 0.02], "adiabatic", workers=2)
    assert serial.rows == pooled.rows
    for a, b in zip(serial.trajectories, pooled.trajectories):
        np.testing.assert_array_equal(a.populations, b.populations)
