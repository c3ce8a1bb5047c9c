import numpy as np
import pytest

from stacontrol.core import CouplingSchedule, TimeGrid, vitanov_theta_dot
from stacontrol.engine import (
    build_adiabatic_matrix,
    closed_form_eigensystem,
    counterdiabatic_matrix,
    coupling_g_scalar,
    effective_matrix,
    effective_matrix_at,
    generic_counterdiabatic,
    synthesize_tqd_pulses,
    tqd_detuning_ratio,
    tqd_max_coupling,
)
from stacontrol.errors import (
    DegenerateSystemError,
    InvalidBasisError,
    InvalidParameterError,
)

RNG = np.random.default_rng(99)


def adiabatic_entries(g1, g2):
    return np.array([[0, g1, 0], [g1, 0, g2], [0, g2, 0]], dtype=complex)


class TestAdiabaticMatrix:
    def test_boundary_shape(self):
        sched = CouplingSchedule.constant(0.0, 1.0)
        m = build_adiabatic_matrix(sched, 0.0)
        np.testing.assert_array_equal(m, adiabatic_entries(0.0, 1.0))

    def test_equal_couplings(self):
        sched = CouplingSchedule.constant(1.0, 1.0)
        m = build_adiabatic_matrix(sched, 0.0)
        np.testing.assert_array_equal(m, adiabatic_entries(1.0, 1.0))

    def test_structure_random(self):
        for g1, g2 in RNG.uniform(0, 10, size=(20, 2)):
            m = build_adiabatic_matrix(CouplingSchedule.constant(g1, g2), 0.0)
            assert np.all(np.diag(m) == 0)
            np.testing.assert_array_equal(m, m.T)
            assert m[0, 2] == 0 and m[2, 0] == 0


class TestEigenDecompose:
    def test_dark_mode_boundary(self):
        es = closed_form_eigensystem(0.0, 1.0)
        dark = es.modes[:, 0]
        assert abs(abs(dark[0]) - 1.0) < 1e-14
        assert dark[1] == 0 and dark[2] == 0

    def test_dark_mode_equal_couplings(self):
        es = closed_form_eigensystem(1.0, 1.0)
        np.testing.assert_allclose(es.modes[:, 0],
                                   [-1 / np.sqrt(2), 0, 1 / np.sqrt(2)], atol=1e-14)

    def test_eigenvalue_order_and_values(self):
        g1, g2 = 3.0, 4.0
        es = closed_form_eigensystem(g1, g2)
        np.testing.assert_allclose(es.values, [0.0, 5.0, -5.0], atol=1e-14)

    def test_residuals_random(self):
        for g1, g2 in RNG.uniform(1e-3, 10, size=(50, 2)):
            m = adiabatic_entries(g1, g2)
            es = closed_form_eigensystem(g1, g2)
            g0 = np.hypot(g1, g2)
            assert np.linalg.norm(m @ es.modes[:, 0]) < 1e-10
            assert np.linalg.norm(m @ es.modes[:, 1] - g0 * es.modes[:, 1]) < 1e-10
            assert np.linalg.norm(m @ es.modes[:, 2] + g0 * es.modes[:, 2]) < 1e-10

    def test_orthonormality(self):
        for g1, g2 in RNG.uniform(1e-3, 10, size=(20, 2)):
            modes = closed_form_eigensystem(g1, g2).modes
            gram = modes.T @ modes
            assert np.max(np.abs(gram - np.eye(3))) < 1e-10

    def test_against_dense_solver(self):
        # independent oracle: numpy's Hermitian eigensolver
        for g1, g2 in RNG.uniform(1e-3, 10, size=(20, 2)):
            evals = np.linalg.eigvalsh(adiabatic_entries(g1, g2))
            expected = np.sort([0.0, np.hypot(g1, g2), -np.hypot(g1, g2)])
            np.testing.assert_allclose(np.sort(evals.real), expected, atol=1e-10)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSystemError):
            closed_form_eigensystem(0.0, 0.0)
        sched = CouplingSchedule.constant(0.0, 0.0)
        with pytest.raises(DegenerateSystemError):
            closed_form_eigensystem(*sched.couplings(0.0))

    def test_decompose_from_matrix(self):
        # the eigensystem of a schedule's couplings diagonalizes its matrix
        sched = CouplingSchedule.vitanov(g0=1.0, nu=2.0)
        es = closed_form_eigensystem(*sched.couplings(2.5))
        np.testing.assert_allclose(np.abs(es.values), [0, 1, 1], atol=1e-12)
        m = build_adiabatic_matrix(sched, 2.5)
        np.testing.assert_allclose(m @ es.modes, es.modes * es.values, atol=1e-12)


class TestCounterdiabaticMatrix:
    def test_constant_couplings_give_zero(self):
        m = counterdiabatic_matrix(CouplingSchedule.constant(1.0, 0.7), 0.0)
        np.testing.assert_array_equal(m, np.zeros((3, 3)))

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
    def test_vitanov_midpoint(self, nu):
        sched = CouplingSchedule.vitanov(g0=1.0, nu=nu)
        g_val = counterdiabatic_matrix(sched, 5.0 / nu)[0, 2].imag
        assert abs(g_val) == pytest.approx(np.pi * nu / 8, rel=1e-12)

    def test_vitanov_magnitude_identity(self):
        # |G(t)| - theta_dot(t) vanishes pointwise for the Vitanov family
        nu = 2.0
        sched = CouplingSchedule.vitanov(g0=3.0, nu=nu)
        for t in TimeGrid.vitanov_default(nu, 101).times:
            g_val = counterdiabatic_matrix(sched, t)[0, 2].imag
            assert abs(abs(g_val) - vitanov_theta_dot(t, nu)) < 1e-10

    def test_structure(self):
        sched = CouplingSchedule.vitanov(g0=1.0, nu=2.0)
        m = counterdiabatic_matrix(sched, 2.0)
        assert np.all(m.real == 0)
        assert m[0, 2] == -m[2, 0]
        mask = np.ones((3, 3), bool)
        mask[0, 2] = mask[2, 0] = False
        assert np.all(m[mask] == 0)

    def test_delayed_tqd_general_formula(self):
        # with unequal delays the tqd pulses differ, so G is the general
        # (g1dot g2 - g1 g2dot)/g0^2; rates from central differences of the
        # couplings are an independent oracle for the analytic ones
        sched = synthesize_tqd_pulses(2.0, 40.0).with_delays(0.2, -0.1)
        h = 1e-6
        for t in (1.5, 2.5, 3.5):
            g1, g2 = sched.couplings(t)
            g1p, g2p = sched.couplings(t + h)
            g1m, g2m = sched.couplings(t - h)
            d1, d2 = (g1p - g1m) / (2 * h), (g2p - g2m) / (2 * h)
            expected = float((d1 * g2 - g1 * d2) / (g1**2 + g2**2))
            assert abs(expected) > 1e-2
            g_val = counterdiabatic_matrix(sched, t)[0, 2].imag
            assert g_val == pytest.approx(expected, rel=1e-6)

    def test_degenerate_instant_flagged(self):
        sched = CouplingSchedule.constant(0.0, 0.0)
        assert coupling_g_scalar(sched, 0.0) == 0.0
        np.testing.assert_array_equal(counterdiabatic_matrix(sched, 0.0),
                                      np.zeros((3, 3)))


class TestGenericCounterdiabatic:
    @staticmethod
    def vitanov_basis(nu):
        sched = CouplingSchedule.vitanov(g0=1.0, nu=nu)

        def basis_fn(t):
            return closed_form_eigensystem(*sched.couplings(t)).modes

        return sched, basis_fn

    def test_time_independent_basis(self):
        m = generic_counterdiabatic(lambda t: np.eye(3), 1.0)
        np.testing.assert_allclose(m, np.zeros((3, 3)), atol=1e-15)

    def test_matches_closed_form(self):
        nu = 2.0
        sched, basis_fn = self.vitanov_basis(nu)
        for t in np.linspace(1.0, 4.0, 13):
            generic = generic_counterdiabatic(basis_fn, t)
            closed = counterdiabatic_matrix(sched, t)
            assert np.max(np.abs(generic - closed)) < 1e-6

    def test_output_hermitian(self):
        _, basis_fn = self.vitanov_basis(1.0)
        m = generic_counterdiabatic(basis_fn, 5.0)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_non_orthonormal_rejected(self):
        bad = np.eye(3)
        bad[0, 0] = 1.1
        with pytest.raises(InvalidBasisError):
            generic_counterdiabatic(lambda t: bad, 0.0)


class TestTqdSynthesis:
    def test_max_coupling(self):
        assert tqd_max_coupling(2.0, 40.0) == pytest.approx(np.sqrt(10 * np.pi), rel=1e-14)

    def test_detuning_ratio(self):
        ratio = tqd_detuning_ratio(2.0, 40.0)
        assert ratio == pytest.approx(40.0 / np.sqrt(10 * np.pi), rel=1e-14)
        assert ratio > 5  # qualitatively in the large-detuning regime

    def test_pulses_vanish_in_tails(self):
        sched = synthesize_tqd_pulses(2.0, 40.0)
        g1, g2 = sched.couplings(1e3)
        assert g1 < 1e-100 and g2 < 1e-100
        g1, g2 = sched.couplings(-1e3)
        assert g1 < 1e-100 and g2 < 1e-100

    def test_equal_pulses(self):
        sched = synthesize_tqd_pulses(2.0, 40.0)
        ts = np.linspace(0, 5, 57)
        g1, g2 = sched.couplings(ts)
        np.testing.assert_array_equal(g1, g2)
        assert g1.max() == pytest.approx(tqd_max_coupling(2.0, 40.0), rel=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            synthesize_tqd_pulses(2.0, 0.0)
        with pytest.raises(InvalidParameterError):
            synthesize_tqd_pulses(-1.0, 40.0)


class TestEffectiveMatrix:
    def test_zero_couplings(self):
        np.testing.assert_array_equal(effective_matrix(0.0, 0.0, 40.0), np.zeros((3, 3)))

    def test_midpoint_value(self):
        nu, delta = 2.0, 40.0
        g = np.sqrt(delta * vitanov_theta_dot(5.0 / nu, nu))
        m = effective_matrix(g, g, delta)
        assert m[0, 2].real == pytest.approx(np.pi / 4, rel=1e-12)

    def test_matching_identity(self):
        # |off-diagonal of M2| equals |G of M1| pointwise for synthesized pulses
        nu, delta = 2.0, 40.0
        sched = synthesize_tqd_pulses(nu, delta)
        for t in TimeGrid.vitanov_default(nu, 101).times:
            omega = effective_matrix_at(sched, t)[0, 2].real
            assert abs(abs(omega) - vitanov_theta_dot(t, nu)) < 1e-10

    def test_zero_delta_rejected(self):
        with pytest.raises(InvalidParameterError):
            effective_matrix(1.0, 1.0, 0.0)
