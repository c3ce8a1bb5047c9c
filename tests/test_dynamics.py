import numpy as np
import pytest

from stacontrol.core import CouplingSchedule, TimeGrid
from stacontrol.dynamics import (
    build_h3,
    build_mode_hamiltonian,
    destroy,
    evolve_schrodinger,
    fock_state,
    mode_annihilators,
    propagate_amplitudes,
    propagate_tqd_amplitudes,
)
from stacontrol.engine import (
    build_adiabatic_matrix,
    counterdiabatic_matrix,
    effective_matrix_at,
    synthesize_tqd_pulses,
)
from stacontrol.errors import InvalidParameterError

V0 = np.array([1.0, 0.0, 0.0], dtype=complex)


def vitanov_matrix_fn(nu, g0=1.0):
    sched = CouplingSchedule.vitanov(g0=g0, nu=nu)
    return sched, (lambda t: build_adiabatic_matrix(sched, t))


def padded_grid(nu, n_points=2001):
    return TimeGrid.vitanov_default(nu, n_points).widen(5.0 / nu)


class TestPropagateAmplitudes:
    def test_zero_matrix_is_identity(self):
        grid = TimeGrid(0.0, 5.0, 101)
        traj = propagate_amplitudes(lambda t: np.zeros((3, 3, np.size(t))), V0, grid)
        np.testing.assert_allclose(traj.populations[:, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(traj.populations[:, 1:], 0.0, atol=1e-12)

    def test_two_mode_rabi(self):
        # constant g1 = g0, g2 = 0: exact populations cos^2, sin^2
        g0 = 1.3
        sched = CouplingSchedule.constant(g0, 0.0)
        grid = TimeGrid(0.0, 6.0, 301)
        traj = propagate_amplitudes(lambda t: build_adiabatic_matrix(sched, t),
                                    V0, grid)
        np.testing.assert_allclose(traj.populations[:, 0],
                                   np.cos(g0 * grid.times) ** 2, atol=1e-8)
        np.testing.assert_allclose(traj.populations[:, 1],
                                   np.sin(g0 * grid.times) ** 2, atol=1e-8)
        np.testing.assert_allclose(traj.populations[:, 2], 0.0, atol=1e-12)

    def test_norm_conserved(self):
        _, matrix_fn = vitanov_matrix_fn(1.0)
        traj = propagate_amplitudes(matrix_fn, V0, padded_grid(1.0, 501))
        assert traj.meta["norm_drift"] < 1e-8

    def test_adiabatic_quality_depends_on_rate(self):
        finals = {}
        for nu in (0.5, 2.0):
            _, matrix_fn = vitanov_matrix_fn(nu)
            traj = propagate_amplitudes(matrix_fn, V0, padded_grid(nu, 1001))
            finals[nu] = traj.final_populations[2]
        assert finals[0.5] > 0.99          # slow drive transfers nearly fully
        assert finals[2.0] < finals[0.5]   # fast drive breaks adiabaticity
        assert finals[2.0] < 0.9

    def test_bad_initial_vector(self):
        with pytest.raises(InvalidParameterError):
            propagate_amplitudes(lambda t: np.zeros((3, 3, np.size(t))),
                                 [1.0, 0.0], TimeGrid(0, 1, 11))


class TestPropagateTqd:
    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
    def test_near_perfect_transfer(self, nu):
        sched = CouplingSchedule.vitanov(g0=1.0, nu=nu)
        traj = propagate_tqd_amplitudes(sched, V0, padded_grid(nu, 1001))
        assert traj.final_populations[2] >= 1 - 1e-4

    def test_middle_mode_never_populated(self):
        sched = CouplingSchedule.vitanov(g0=1.0, nu=2.0)
        traj = propagate_tqd_amplitudes(sched, V0, padded_grid(2.0, 501))
        assert np.all(traj.populations[:, 1] == 0.0)


class TestGaugeEquivalence:
    def test_m1_vs_m2_populations(self):
        # imaginary-antisymmetric M1 and real-symmetric matched M2 produce
        # the same outer-mode populations
        nu, delta = 2.0, 40.0
        vit = CouplingSchedule.vitanov(g0=1.0, nu=nu)
        tqd = synthesize_tqd_pulses(nu, delta)
        grid = padded_grid(nu, 801)
        t1 = propagate_amplitudes(lambda t: counterdiabatic_matrix(vit, t), V0, grid)
        t2 = propagate_amplitudes(lambda t: effective_matrix_at(tqd, t), V0, grid)
        np.testing.assert_allclose(t1.populations[:, 0], t2.populations[:, 0],
                                   atol=1e-8)
        np.testing.assert_allclose(t1.populations[:, 2], t2.populations[:, 2],
                                   atol=1e-8)


class TestFockOperators:
    def test_destroy(self):
        a = destroy(3)
        np.testing.assert_allclose(a, [[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]])

    def test_fock_state_index(self):
        psi = fock_state((2, 2, 2), (1, 0, 0))
        assert psi[4] == 1.0 and np.count_nonzero(psi) == 1

    def test_fock_state_out_of_dims(self):
        with pytest.raises(InvalidParameterError):
            fock_state((2, 2, 2), (2, 0, 0))


class TestBuildH3:
    def test_zero_everything(self):
        sched = CouplingSchedule.constant(0.0, 0.0)
        h_fn = build_h3(sched, 0.0, 0.0, (2, 2, 2))
        np.testing.assert_array_equal(h_fn(0.0), np.zeros((8, 8)))

    def test_hermitian(self):
        sched = synthesize_tqd_pulses(2.0, 40.0)
        h_fn = build_h3(sched, 40.0, 40.0, (2, 3, 2))
        for t in (0.5, 2.5, 4.5):
            h = h_fn(t)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_single_excitation_block_is_mode_matrix(self):
        # restricting H3 to {|100>, |010>, |001>} reproduces the 3x3 amplitude
        # matrix with the detunings on the diagonal
        dims = (2, 2, 2)
        basis = [fock_state(dims, occ)
                 for occ in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        for sched, delta in (
                (CouplingSchedule.vitanov(g0=1.0, nu=2.0), 0.0),
                (synthesize_tqd_pulses(2.0, 40.0).with_delays(0.3, 0.0), 40.0)):
            h_fn = build_h3(sched, delta, delta, dims)
            for t in (1.0, 2.5, 4.0):
                h = h_fn(t)
                block = np.array([[b1.conj() @ h @ b2 for b2 in basis] for b1 in basis])
                np.testing.assert_allclose(
                    block, build_adiabatic_matrix(sched, t) + np.diag([delta, 0.0, delta]),
                    atol=1e-12)

    def test_invalid_dims(self):
        with pytest.raises(InvalidParameterError):
            build_h3(CouplingSchedule.vitanov(), 0.0, 0.0, (2, 1, 2))


class TestEvolveSchrodinger:
    def test_constant_hamiltonian_zero(self):
        dims = (2, 2, 2)
        psi0 = fock_state(dims, (1, 0, 0))
        traj = evolve_schrodinger(lambda t: np.zeros((8, 8)), psi0, dims,
                                  TimeGrid(0, 2, 21))
        np.testing.assert_allclose(traj.populations,
                                   np.tile([1.0, 0.0, 0.0], (21, 1)), atol=1e-12)

    @pytest.mark.parametrize("picture", ["adiabatic", "tqd"])
    def test_picture_equivalence(self, picture):
        # Heisenberg amplitudes vs single-excitation Fock evolution
        nu = 2.0
        sched = CouplingSchedule.vitanov(g0=1.0, nu=nu)
        if picture == "adiabatic":
            matrix_fn = lambda t: build_adiabatic_matrix(sched, t)  # noqa: E731
        else:
            matrix_fn = lambda t: counterdiabatic_matrix(sched, t)  # noqa: E731
        grid = padded_grid(nu, 801)
        amp = propagate_amplitudes(matrix_fn, V0, grid)
        dims = (2, 2, 2)
        h_fn = build_mode_hamiltonian(matrix_fn, dims)
        fock = evolve_schrodinger(h_fn, fock_state(dims, (1, 0, 0)), dims, grid)
        np.testing.assert_allclose(fock.populations, amp.populations, atol=1e-6)

    def test_norm_drift(self):
        sched = synthesize_tqd_pulses(2.0, 40.0)
        dims = (2, 2, 2)
        h_fn = build_h3(sched, 40.0, 40.0, dims)
        traj = evolve_schrodinger(h_fn, fock_state(dims, (1, 0, 0)), dims,
                                  TimeGrid.vitanov_default(2.0, 501))
        assert traj.meta["norm_drift"] < 1e-8

    def test_mode_annihilator_count(self):
        ops = mode_annihilators((2, 3, 2))
        assert len(ops) == 3 and all(op.shape == (12, 12) for op in ops)
