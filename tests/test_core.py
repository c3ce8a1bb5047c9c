import math

import numpy as np
import pytest

from stacontrol.core import (
    CouplingSchedule,
    Dissipation,
    SystemConfig,
    TimeGrid,
    vitanov_theta,
    vitanov_theta_dot,
)
from stacontrol.errors import InvalidParameterError

RNG = np.random.default_rng(1234)


class TestVitanovTheta:
    def test_midpoint_is_quarter_pi(self):
        assert vitanov_theta(2.5, 2.0) == pytest.approx(np.pi / 4, rel=1e-14)

    def test_sigmoid_limits(self):
        assert vitanov_theta(1e6, 2.0) == pytest.approx(np.pi / 2, rel=1e-12)
        assert vitanov_theta(-1e6, 2.0) == pytest.approx(0.0, abs=1e-300)

    def test_value_at_zero(self):
        # direct evaluation of the sigmoid: (pi/2) / (1 + exp(5)) for nu = 2
        expected = (math.pi / 2) / (1.0 + math.exp(5.0))
        assert vitanov_theta(0.0, 2.0) == pytest.approx(expected, rel=1e-13)

    def test_monotone_increasing(self):
        ts = np.sort(RNG.uniform(-10, 20, size=200))
        th = vitanov_theta(ts, 1.3)
        assert np.all(np.diff(th) > 0)

    @pytest.mark.parametrize("nu", [0.0, -1.0])
    def test_invalid_nu(self, nu):
        with pytest.raises(InvalidParameterError):
            vitanov_theta(0.0, nu)
        with pytest.raises(InvalidParameterError):
            vitanov_theta_dot(0.0, nu)


class TestVitanovThetaDot:
    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
    def test_peak_value(self, nu):
        assert vitanov_theta_dot(5.0 / nu, nu) == pytest.approx(np.pi * nu / 8, rel=1e-14)

    def test_saturation(self):
        assert vitanov_theta_dot(1e6, 2.0) == pytest.approx(0.0, abs=1e-200)
        assert vitanov_theta_dot(-1e6, 2.0) == pytest.approx(0.0, abs=1e-200)

    @pytest.mark.parametrize("nu", [0.5, 2.0])
    def test_finite_difference_oracle(self, nu):
        h = 1e-4 / nu
        for t in RNG.uniform(0, 10 / nu, size=25):
            fd = (vitanov_theta(t + h, nu) - vitanov_theta(t - h, nu)) / (2 * h)
            assert vitanov_theta_dot(t, nu) == pytest.approx(fd, rel=1e-6)

    def test_strictly_positive(self):
        ts = RNG.uniform(-5, 15, size=100)
        assert np.all(vitanov_theta_dot(ts, 1.0) > 0)


class TestCouplingSchedule:
    def test_vitanov_normalization(self):
        sched = CouplingSchedule.vitanov(g0=2.5, nu=1.0)
        grid = TimeGrid.vitanov_default(1.0)
        g1, g2 = sched.couplings(grid.times)
        err = np.abs(g1**2 + g2**2 - sched.g0**2) / sched.g0**2
        assert err.max() < 1e-12

    def test_vitanov_boundaries(self):
        sched = CouplingSchedule.vitanov(g0=1.0, nu=2.0)
        g1, g2 = sched.couplings(-1e6)
        assert g1 == pytest.approx(0.0, abs=1e-200)
        assert g2 == pytest.approx(1.0, rel=1e-12)
        g1, g2 = sched.couplings(2.5)
        assert g1 == pytest.approx(1 / np.sqrt(2), rel=1e-12)
        assert g2 == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_delay_covariance(self):
        base = CouplingSchedule.vitanov(g0=1.0, nu=2.0)
        delayed = base.with_delays(0.3, -0.2)
        ts = RNG.uniform(0, 5, size=50)
        g1d, g2d = delayed.couplings(ts)
        g1_ref, _ = base.couplings(ts - 0.3)
        _, g2_ref = base.couplings(ts + 0.2)
        np.testing.assert_allclose(g1d, g1_ref, rtol=1e-14)
        np.testing.assert_allclose(g2d, g2_ref, rtol=1e-14)

    def test_delayed_trace_is_shifted_trace(self):
        base = CouplingSchedule.vitanov(g0=1.0, nu=2.0)
        delayed = base.with_delays(0.3, 0.0)
        ts = np.linspace(0, 5, 101)
        g1_delayed, _ = delayed.couplings(ts)
        g1_base, _ = base.couplings(ts - 0.3)
        np.testing.assert_allclose(g1_delayed, g1_base, rtol=1e-14)

    def test_constant(self):
        sched = CouplingSchedule.constant(1.5, 0.0)
        g1, g2 = sched.couplings(np.array([0.0, 7.3]))
        np.testing.assert_array_equal(g1, [1.5, 1.5])
        np.testing.assert_array_equal(g2, [0.0, 0.0])
        d1, d2 = sched.coupling_rates(3.0)
        assert d1 == 0 and d2 == 0

    def test_bad_kind(self):
        with pytest.raises(InvalidParameterError):
            CouplingSchedule(kind="mystery")

    def test_tqd_requires_positive_delta(self):
        with pytest.raises(InvalidParameterError):
            CouplingSchedule(kind="tqd", nu=2.0, delta=0.0)

    def test_vitanov_rates_match_finite_differences(self):
        sched = CouplingSchedule.vitanov(g0=1.0, nu=2.0)
        h = 1e-6
        for t in (1.0, 2.5, 4.0):
            d1, d2 = sched.coupling_rates(t)
            g1p, g2p = sched.couplings(t + h)
            g1m, g2m = sched.couplings(t - h)
            assert d1 == pytest.approx((g1p - g1m) / (2 * h), rel=1e-7)
            assert d2 == pytest.approx((g2p - g2m) / (2 * h), rel=1e-7)


class TestTimeGrid:
    def test_default_vitanov_span(self):
        grid = TimeGrid.vitanov_default(2.0)
        assert grid.t_start == 0.0
        assert grid.t_end == pytest.approx(5.0)
        assert grid.n_points == 2001
        times = grid.times
        assert np.all(np.diff(times) > 0)
        assert np.allclose(np.diff(times), grid.dt)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            TimeGrid(0.0, 1.0, 1)
        with pytest.raises(InvalidParameterError):
            TimeGrid(1.0, 1.0, 10)

    def test_widen_preserves_step(self):
        grid = TimeGrid(0.0, 10.0, 1001)
        wide = grid.widen(5.0)
        assert wide.t_start == -5.0 and wide.t_end == 15.0
        assert wide.dt == pytest.approx(grid.dt, rel=1e-12)


class TestSystemConfig:
    def test_negative_rates_rejected(self):
        with pytest.raises(InvalidParameterError, match="kappa1"):
            Dissipation(kappa1=-0.1)
        with pytest.raises(InvalidParameterError, match="n_th"):
            Dissipation(n_th=-1.0)

    def test_dims_validated(self):
        sched = CouplingSchedule.vitanov()
        with pytest.raises(InvalidParameterError):
            SystemConfig(schedule=sched, fock_dims=(1, 2, 2))

    def test_mechanical_dim_may_exceed_optical(self):
        config = SystemConfig(schedule=CouplingSchedule.vitanov(), fock_dims=(2, 6, 2))
        assert config.fock_dims == (2, 6, 2)
