import numpy as np
import pytest

from stacontrol import experiments
from stacontrol.cli import main
from stacontrol.dynamics import Trajectory, build_h3, evolve_schrodinger, fock_state
from stacontrol.engine import synthesize_tqd_pulses
from stacontrol.errors import InvalidParameterError
from stacontrol.experiments import (
    DEFAULT_KAPPA_GRID,
    completion_time,
    decay_run,
    delay_scan_grid,
    fig2_grid,
    run_decay_scan,
    run_delay_scan,
    run_detuning_scan,
    run_fig2_scenario,
    run_fig4_transfer,
)


class TestCompletionTime:
    def make_traj(self, p2):
        times = np.linspace(0.0, 1.0, len(p2))
        pops = np.column_stack([1 - np.asarray(p2), np.zeros(len(p2)), p2])
        return Trajectory(times, pops, pops[-1])

    def test_threshold_crossed(self):
        traj = self.make_traj([0.0, 0.5, 0.991, 0.999])
        assert completion_time(traj) == pytest.approx(2.0 / 3.0)

    def test_never_crossed(self):
        assert completion_time(self.make_traj([0.0, 0.3, 0.6])) is None

    def test_measured_from_grid_start(self):
        traj = self.make_traj([0.0, 0.995])
        shifted = Trajectory(traj.times - 10.0, traj.populations,
                             traj.final_state)
        assert completion_time(shifted) == completion_time(traj)


class TestFig2:
    def test_grid_is_padded_default(self):
        grid = fig2_grid(2.0)
        assert grid.t_start == pytest.approx(-2.5)
        assert grid.t_end == pytest.approx(7.5)

    def test_scenario_nu2(self):
        sc = run_fig2_scenario(2.0)
        # transitionless transfer is essentially perfect even at the fast rate
        assert sc.tqd.final_populations[2] > 0.9999
        # the plain adiabatic run is visibly imperfect at nu = 2
        assert sc.adiabatic.final_populations[2] < 0.9
        # coupling traces are normalized
        g = sc.coupling_traces
        np.testing.assert_allclose((g**2).sum(axis=1), 1.0, rtol=1e-12)
        assert sc.tqd_completion_time is not None

    def test_completion_time_scales_inversely_with_nu(self):
        t_slow = run_fig2_scenario(0.5).tqd_completion_time
        t_fast = run_fig2_scenario(2.0).tqd_completion_time
        assert t_slow / t_fast == pytest.approx(4.0, rel=1e-2)


class TestFig4:
    def test_default_transfer(self):
        res = run_fig4_transfer()
        assert res.final_p2 > 0.99
        assert res.max_phonon < 0.05
        assert res.detuning_ratio > 5

    def test_low_ratio_warns(self):
        with pytest.warns(UserWarning, match="detuning ratio"):
            run_fig4_transfer(delta=2.0)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3)])
    def test_matches_fock_oracle(self, dims):
        # the one-excitation run is the Fock-space run at any truncation
        grid = delay_scan_grid(2.0)
        res = run_fig4_transfer(delta=40.0, nu=2.0, grid=grid, delays=(0.3, 0.0))
        sched = synthesize_tqd_pulses(2.0, 40.0).with_delays(0.3, 0.0)
        fock = evolve_schrodinger(build_h3(sched, 40.0, 40.0, dims),
                                  fock_state(dims, (1, 0, 0)), dims, grid)
        np.testing.assert_allclose(res.trajectory.populations, fock.populations,
                                   rtol=0, atol=1e-6)


class TestDetuningScan:
    def test_monotone_decreasing(self):
        result = run_detuning_scan([20.0, 40.0, 80.0], n_points=801)
        phonon = result.metric_values
        assert np.all(np.diff(phonon) < 0)
        assert np.all(result.convergence_deltas < 1e-6)
        assert result.meta["slope_vs_delta"] == pytest.approx(-1.0, abs=0.15)

    def test_single_point_has_no_fit(self):
        result = run_detuning_scan([40.0], n_points=401)
        assert "slope_vs_delta" not in result.meta
        assert len(result.rows) == 1


class TestDelayScan:
    def test_baseline_matches_unshifted(self):
        result = run_delay_scan([0.0], "G1", n_points=1201)
        grid = delay_scan_grid(2.0, n_points=1201)
        direct = run_fig4_transfer(grid=grid)
        assert result.metric_values[0] == pytest.approx(direct.final_p2, abs=1e-10)

    def test_simultaneous_shift_is_translation(self):
        result = run_delay_scan([0.0, 0.4], "both", n_points=1201)
        f0, f1 = result.metric_values
        assert abs(f1 - f0) < 1e-8

    def test_single_pulse_shift_degrades(self):
        result = run_delay_scan([0.0, 0.5], "G1", n_points=1201)
        f0, f1 = result.metric_values
        assert f1 < f0

    def test_deterministic_and_worker_invariant(self):
        a = run_delay_scan([0.0, 0.2], "G2", n_points=801)
        b = run_delay_scan([0.0, 0.2], "G2", n_points=801, workers=2)
        np.testing.assert_array_equal(a.metric_values, b.metric_values)
        assert a.settings == b.settings

    def test_default_row_matches_a_tight_fock_solve(self):
        # nu = 2, delta = 40, G1 shifted by 0.3 on the default padded grid,
        # against DOP853 on the Fock space at tight tolerances
        result = run_delay_scan([0.3], "G1")
        sched = synthesize_tqd_pulses(2.0, 40.0).with_delays(0.3, 0.0)
        dims = (2, 2, 2)
        fock = evolve_schrodinger(build_h3(sched, 40.0, 40.0, dims),
                                  fock_state(dims, (1, 0, 0)), dims, delay_scan_grid(2.0),
                                  rtol=1e-12, atol=1e-14)
        (_, final_p2, delta), = result.rows
        assert abs(final_p2 - fock.populations[-1, 2]) <= 1e-9
        assert delta <= 1e-9

    def test_both_is_labelled(self):
        result = run_delay_scan([0.1], "both", n_points=101)
        assert result.settings["pulse"] == "both"
        assert len(result.trajectories) == 1
        assert result.trajectories[0].populations[-1, 2] == result.metric_values[0]

    def test_pulse_checked_before_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool started")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        with pytest.raises(InvalidParameterError, match="which_pulse"):
            run_delay_scan([0.0, 0.1], "G3", workers=2)

    def test_window_validated(self):
        with pytest.raises(InvalidParameterError):
            run_delay_scan([3.0], "G1", nu=2.0)


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records the pool size it was asked
    for and maps in-process, so no process is started."""

    def __init__(self, sizes):
        self.sizes = sizes

    def __call__(self, max_workers):
        self.sizes.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestPoolSize:
    @pytest.fixture
    def sizes(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingExecutor(sizes))
        return sizes

    def test_at_most_one_process_per_item(self, sizes):
        assert experiments._map_ordered(abs, [-1, -2, -3], 8) == [1, 2, 3]
        assert sizes == [3]

    def test_single_row_scan_runs_in_process(self, sizes):
        result = run_delay_scan([0.1], "G1", n_points=101, workers=8)
        assert len(result.rows) == 1
        assert sizes == []

    def test_protocol_checked_before_pool(self, sizes):
        with pytest.raises(InvalidParameterError, match="protocol"):
            run_decay_scan([0.01, 0.02], "mystery", workers=2)
        assert sizes == []


class TestDecayScan:
    def test_default_kappa_grid(self):
        assert DEFAULT_KAPPA_GRID[0] == 0.0
        assert np.all(np.diff(DEFAULT_KAPPA_GRID) > 0)

    def test_bad_protocol(self):
        with pytest.raises(InvalidParameterError):
            decay_run(0.0, "mystery", 2.0)

    def test_tqd_beats_adiabatic(self):
        kappas = [0.0, 0.05]
        tqd = run_decay_scan(kappas, "tqd", n_points=201)
        adiab = run_decay_scan(kappas, "adiabatic", n_points=201)
        assert np.all(tqd.metric_values > adiab.metric_values)
        assert np.all(np.diff(tqd.metric_values) < 0)
        assert np.all(np.diff(adiab.metric_values) < 0)


class TestScanSpec:
    """The values a scan sweeps are checked once, before any row runs."""

    SCANS = (lambda values: run_decay_scan(values, "tqd"),
             lambda values: run_delay_scan(values, "G1"),
             run_detuning_scan)

    @pytest.fixture(autouse=True)
    def no_runs(self, monkeypatch):
        def no_row(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr(experiments, "converged_run", no_row)

    def test_empty_values(self):
        for scan in self.SCANS:
            with pytest.raises(InvalidParameterError, match="non-empty"):
                scan([])

    def test_non_finite_values(self, tmp_path, capsys):
        # a repeated value is rejected the same way, with its own message
        cases = (
            ("finite", ([0.0, np.inf], [0.1, np.nan], [40.0, -np.inf]),
             (["0.1", "nan"],) * 3),
            ("distinct", ([0.01, 0.01], [0.1, 0.1], [40.0, 40.0]),
             (["0.01", "0.01", "--check"], ["0.1", "0.1", "--check"],
              ["40", "40", "--check"])),
        )
        for message, scan_values, flag_values in cases:
            for scan, values in zip(self.SCANS, scan_values):
                with pytest.raises(InvalidParameterError, match=message):
                    scan(values)
            for command, flags in zip(("scan-decay", "scan-delay", "scan-detuning"),
                                      flag_values):
                out = tmp_path / message / command
                assert main([command, "--values", *flags, "--out", str(out)]) == 1
                assert f"error: scan values must be {message}" in capsys.readouterr().err
                assert not out.exists()
