import numpy as np
import pytest
from scipy.integrate import solve_ivp

from stacontrol.core import CouplingSchedule, Dissipation, SystemConfig, TimeGrid
from stacontrol.dynamics import (
    ATOL_LINDBLAD,
    RTOL_LINDBLAD,
    TruncationWarning,
    build_h3,
    density_from_pure,
    embed_operator,
    evolve_lindblad,
    evolve_schrodinger,
    fidelity,
    fock_state,
    mode_annihilators,
    number_operators,
    partial_trace_middle,
)
from stacontrol.errors import InvalidParameterError

DIMS = (2, 2, 2)


def lindblad_config(dims=DIMS, **diss_kwargs):
    return SystemConfig(
        schedule=CouplingSchedule.vitanov(g0=1.0, nu=2.0),
        dissipation=Dissipation(**diss_kwargs),
        fock_dims=dims,
    )


# the single-excitation runs at d_m = 2 transiently populate the mechanical
# edge state, which is exactly what the truncation probe reports
pytestmark = pytest.mark.filterwarnings("ignore::stacontrol.dynamics.TruncationWarning")


class TestClosedSystemLimit:
    def test_matches_schrodinger(self):
        # zero dissipation: density-matrix and state-vector evolution agree
        sched = CouplingSchedule.vitanov(g0=1.0, nu=2.0)
        h_fn = build_h3(sched, 0.0, 0.0, DIMS)
        grid = TimeGrid(0.0, 5.0, 201)
        psi0 = fock_state(DIMS, (1, 0, 0))
        pure = evolve_schrodinger(h_fn, psi0, DIMS, grid)
        mixed = evolve_lindblad(h_fn, lindblad_config(), density_from_pure(psi0),
                                grid)
        np.testing.assert_allclose(mixed.populations, pure.populations, atol=1e-6)

    def test_trace_and_hermiticity_drift(self):
        sched = CouplingSchedule.vitanov(g0=1.0, nu=2.0)
        h_fn = build_h3(sched, 0.0, 0.0, DIMS)
        traj = evolve_lindblad(h_fn, lindblad_config(kappa1=0.05, kappa2=0.05),
                               density_from_pure(fock_state(DIMS, (1, 0, 0))),
                               TimeGrid(0.0, 5.0, 201))
        assert traj.meta["trace_drift"] < 1e-7
        assert traj.meta["hermiticity_drift"] < 1e-7
        assert traj.meta["min_final_eigenvalue"] > -1e-6


def dense_reference(h_fn, config, rho0, grid):
    """Lindblad evolution with a per-channel dense dissipator, integrated with
    the same solver settings, and its probes taken from full matrix products."""
    dims = config.fock_dims
    dim = int(np.prod(dims))
    a1, bm, a2 = mode_annihilators(dims)
    diss = config.dissipation
    channels = [(diss.kappa1, a1), (diss.kappa2, a2),
                (diss.gamma_m * (diss.n_th + 1.0), bm),
                (diss.gamma_m * diss.n_th, bm.conj().T)]

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        h = h_fn(t)
        drho = -1j * (h @ rho - rho @ h)
        for rate, op in channels:
            op_dag = op.conj().T
            drho += rate * (op @ rho @ op_dag
                            - 0.5 * (op_dag @ op @ rho + rho @ op_dag @ op))
        return drho.ravel()

    sol = solve_ivp(rhs, (grid.t_start, grid.t_end), rho0.ravel(),
                    t_eval=grid.times, method="DOP853",
                    rtol=RTOL_LINDBLAD, atol=ATOL_LINDBLAD)
    rhos = sol.y.T.reshape(-1, dim, dim)
    traces = np.einsum("tii->t", rhos).real
    edge = embed_operator(np.diag(np.eye(dims[1])[-1]), 1, dims)
    return {
        "rhos": rhos,
        "populations": np.column_stack(
            [np.einsum("tii->t", rhos @ n).real for n in number_operators(dims)]),
        "trace_drift": np.max(np.abs(traces - traces[0])),
        "hermiticity_drift": np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1))),
        "mech_edge_population": np.max(np.einsum("tii->t", rhos @ edge).real),
    }


class TestAgainstDenseDissipator:
    """The sparse superoperator RHS and the diagonal probes against the
    per-channel dense formula, with every channel switched on."""

    DIMS = (2, 3, 2)
    GRID = TimeGrid(0.0, 5.0, 101)

    def problem(self, **diss_kwargs):
        config = lindblad_config(self.DIMS, **diss_kwargs)
        h_fn = build_h3(config.schedule, 0.3, -0.2, self.DIMS)
        rho0 = density_from_pure(fock_state(self.DIMS, (1, 0, 0)))
        return h_fn, config, rho0

    def test_matches_dense_reference(self):
        h_fn, config, rho0 = self.problem(kappa1=0.08, kappa2=0.03,
                                          gamma_m=0.05, n_th=0.7)
        traj = evolve_lindblad(h_fn, config, rho0, self.GRID)
        ref = dense_reference(h_fn, config, rho0, self.GRID)
        assert np.max(np.abs(traj.populations - ref["populations"])) <= 1e-10
        assert np.max(np.abs(traj.final_state - ref["rhos"][-1])) <= 1e-10
        for key in ("trace_drift", "hermiticity_drift", "mech_edge_population"):
            assert abs(traj.meta[key] - ref[key]) <= 1e-10, key
        # the run is genuinely open: populations leak and the edge is reached
        assert traj.populations[-1].sum() < 0.9
        assert traj.meta["mech_edge_population"] > 1e-4

    def test_final_state_owns_its_data(self):
        # a view of the solver output would keep the whole history alive
        h_fn, config, rho0 = self.problem(kappa1=0.08, gamma_m=0.05, n_th=0.7)
        traj = evolve_lindblad(h_fn, config, rho0, self.GRID)
        assert traj.final_state.base is None

    def test_zero_dissipation_matches_schrodinger(self):
        h_fn, config, rho0 = self.problem()
        psi0 = fock_state(self.DIMS, (1, 0, 0))
        pure = evolve_schrodinger(h_fn, psi0, self.DIMS, self.GRID)
        mixed = evolve_lindblad(h_fn, config, rho0, self.GRID)
        np.testing.assert_allclose(mixed.populations, pure.populations, atol=1e-6)


class TestDecayChannels:
    def test_pure_cavity_decay_is_exponential(self):
        # single excitation in cavity 1, no couplings: <n1>(t) = exp(-kappa t)
        kappa = 0.3
        config = SystemConfig(
            schedule=CouplingSchedule.constant(0.0, 0.0),
            dissipation=Dissipation(kappa1=kappa),
            fock_dims=DIMS,
        )
        grid = TimeGrid(0.0, 8.0, 161)
        traj = evolve_lindblad(lambda t: np.zeros((8, 8)), config,
                               density_from_pure(fock_state(DIMS, (1, 0, 0))),
                               grid)
        np.testing.assert_allclose(traj.populations[:, 0],
                                   np.exp(-kappa * grid.times), atol=1e-6)

    def test_thermal_equilibration(self):
        # mechanical mode alone relaxes toward <n_m> = n_th
        n_th = 0.5
        dims = (2, 12, 2)
        config = SystemConfig(
            schedule=CouplingSchedule.constant(0.0, 0.0),
            dissipation=Dissipation(gamma_m=1.0, n_th=n_th),
            fock_dims=dims,
        )
        dim = int(np.prod(dims))
        grid = TimeGrid(0.0, 20.0, 201)
        traj = evolve_lindblad(lambda t: np.zeros((dim, dim)), config,
                               density_from_pure(fock_state(dims, (0, 0, 0))),
                               grid)
        assert traj.populations[-1, 1] == pytest.approx(n_th, rel=1e-4)

    def test_heating_without_cooling_grows(self):
        with pytest.warns(TruncationWarning):
            dims = (2, 3, 2)
            config = SystemConfig(
                schedule=CouplingSchedule.constant(0.0, 0.0),
                dissipation=Dissipation(gamma_m=0.5, n_th=5.0),
                fock_dims=dims,
            )
            dim = int(np.prod(dims))
            traj = evolve_lindblad(lambda t: np.zeros((dim, dim)), config,
                                   density_from_pure(fock_state(dims, (0, 0, 0))),
                                   TimeGrid(0.0, 10.0, 101))
        assert traj.meta["mech_edge_population"] > 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            evolve_lindblad(lambda t: np.zeros((8, 8)), lindblad_config(),
                            np.eye(4), TimeGrid(0, 1, 11))


class TestFidelity:
    def test_target_state_gives_one(self):
        rho = density_from_pure(fock_state(DIMS, (0, 0, 1)))
        assert fidelity(rho, DIMS) == pytest.approx(1.0, abs=1e-14)

    def test_initial_state_gives_zero(self):
        rho = density_from_pure(fock_state(DIMS, (1, 0, 0)))
        assert fidelity(rho, DIMS) == pytest.approx(0.0, abs=1e-14)

    def test_mechanical_excitation_ignored(self):
        # tracing out the middle mode keeps F insensitive to n_m
        rho = density_from_pure(fock_state(DIMS, (0, 1, 1)))
        assert fidelity(rho, DIMS) == pytest.approx(1.0, abs=1e-14)

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(7)
        dim = int(np.prod(DIMS))
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        reduced = partial_trace_middle(rho, DIMS)
        assert np.trace(reduced).real == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(reduced - reduced.conj().T)) < 1e-12

    def test_small_cavity2_rejected(self):
        with pytest.raises(InvalidParameterError):
            fidelity(np.eye(4) / 4, (2, 2, 1))
