"""Propagation in three pictures and observable extraction.

1. Linear Heisenberg-amplitude evolution i dv/dt = M(t) v for a 3-vector of
   mode amplitudes, driven by any Hermitian ModeMatrix schedule.
2. Truncated-Fock-space Schrodinger evolution under the beam-splitter
   Hamiltonian H(t) = sum_i delta_i n_i + G_i(t)(a_i^dag b_m + h.c.).
3. Lindblad master-equation evolution with cavity decay (rates kappa_i) and
   thermal mechanical damping (rate gamma_m, occupation n_th).  The density
   matrix is integrated as row-major vec(rho) = rho.ravel(); the static
   dissipator is one sparse superoperator on that vector, built before
   integration.  Every probe (mode populations, trace, mechanical edge
   population) is diagonal in the Fock basis and is read from diag(rho).

All propagators use adaptive high-order explicit Runge-Kutta integration
(DOP853) with tight default tolerances so independent runs are deterministic
and reproducible bit-for-bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .core import CouplingSchedule, SystemConfig, TimeGrid
from .engine import ModeMatrix, counterdiabatic_matrix
from .errors import InvalidParameterError, SolverError

# defaults documented for cross-implementation reproducibility
RTOL_UNITARY = 1e-9
ATOL_UNITARY = 1e-12
RTOL_LINDBLAD = 1e-7
ATOL_LINDBLAD = 1e-10

MECH_EDGE_WARN_THRESHOLD = 1e-4


class TruncationWarning(UserWarning):
    """Mechanical edge-state population grew large enough to distrust d_m."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time series of per-mode populations plus numerical diagnostics.

    `populations[k, i]` is mode i's population (|v_i|^2 or <n_i>) at
    `times[k]`.  `final_state` is the amplitude 3-vector, Fock state vector
    or density matrix at t_end; `states` optionally holds the whole history.
    `meta` carries conservation drifts and solver information.
    """

    times: np.ndarray
    populations: np.ndarray
    final_state: np.ndarray
    states: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def final_populations(self) -> np.ndarray:
        return self.populations[-1]


def _integrate(rhs, y0, grid: TimeGrid, rtol, atol):
    sol = solve_ivp(rhs, (grid.t_start, grid.t_end), y0, t_eval=grid.times,
                    method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise SolverError(f"integrator failed: {sol.message}")
    return sol


def _matrix_entries(m) -> np.ndarray:
    return m.entries if isinstance(m, ModeMatrix) else np.asarray(m, dtype=complex)


# -- (1) Heisenberg-amplitude picture ---------------------------------------

def propagate_amplitudes(matrix_fn, v0, grid: TimeGrid,
                         rtol: float = RTOL_UNITARY, atol: float = ATOL_UNITARY,
                         store_states: bool = False) -> Trajectory:
    """Integrate i dv/dt = M(t) v and report populations |v_i(t)|^2.

    `matrix_fn(t)` may return a ModeMatrix or a plain 3x3 array.
    """
    v0 = np.asarray(v0, dtype=complex)
    if v0.shape != (3,):
        raise InvalidParameterError(f"v0 must be a 3-vector, got shape {v0.shape}")

    def rhs(t, v):
        return -1j * (_matrix_entries(matrix_fn(t)) @ v)

    sol = _integrate(rhs, v0, grid, rtol, atol)
    states = sol.y.T
    populations = np.abs(states) ** 2
    norms = np.sqrt(populations.sum(axis=1))
    meta = {
        "norm_drift": float(np.max(np.abs(norms - norms[0]))),
        "rtol": rtol, "atol": atol, "picture": "amplitude",
    }
    return Trajectory(sol.t, populations, states[-1],
                      states if store_states else None, meta)


def propagate_tqd_amplitudes(schedule: CouplingSchedule, v0, grid: TimeGrid,
                             rtol: float = RTOL_UNITARY, atol: float = ATOL_UNITARY,
                             store_states: bool = False) -> Trajectory:
    """Propagate under the transitionless matrix M1(t) alone."""
    return propagate_amplitudes(lambda t: counterdiabatic_matrix(schedule, t),
                                v0, grid, rtol=rtol, atol=atol,
                                store_states=store_states)


# -- Fock-space operator helpers --------------------------------------------

def destroy(d: int) -> np.ndarray:
    """Annihilation operator on a d-dimensional truncated Fock space."""
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1)


def embed_operator(op: np.ndarray, mode: int, dims) -> np.ndarray:
    """Single-mode operator lifted to the three-mode product space."""
    factors = [np.eye(d) for d in dims]
    factors[mode] = op
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def mode_annihilators(dims) -> list[np.ndarray]:
    """[a1, b_m, a2] on the product space, in amplitude-vector order."""
    return [embed_operator(destroy(d), i, dims) for i, d in enumerate(dims)]


def number_operators(dims) -> list[np.ndarray]:
    return [a.conj().T @ a for a in mode_annihilators(dims)]


def fock_state(dims, occupations) -> np.ndarray:
    """Product basis state |n1, n_m, n2> as a flat unit vector."""
    if len(occupations) != 3:
        raise InvalidParameterError("occupations must have three entries")
    for n, d in zip(occupations, dims):
        if not 0 <= n < d:
            raise InvalidParameterError(
                f"occupation {occupations} does not fit in truncation {tuple(dims)}"
            )
    psi = np.zeros(int(np.prod(dims)), dtype=complex)
    psi[np.ravel_multi_index(tuple(occupations), tuple(dims))] = 1.0
    return psi


def density_from_pure(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def partial_trace_middle(rho: np.ndarray, dims) -> np.ndarray:
    """Trace out the middle (mechanical) mode of a three-mode density matrix."""
    d1, dm, d2 = dims
    rho = np.asarray(rho, dtype=complex).reshape(d1, dm, d2, d1, dm, d2)
    return np.einsum("imjkml->ijkl", rho).reshape(d1 * d2, d1 * d2)


def fidelity(rho: np.ndarray, dims) -> float:
    """F = <0 1| tr_m[rho] |0 1>: no photon in cavity 1, one in cavity 2."""
    d1, _, d2 = dims
    if d2 < 2:
        raise InvalidParameterError("cavity-2 truncation must admit one photon")
    reduced = partial_trace_middle(rho, dims)
    idx = 0 * d2 + 1
    return float(reduced[idx, idx].real)


# -- Hamiltonian builders ---------------------------------------------------

def build_mode_hamiltonian(matrix_fn, dims):
    """Quadratic Hamiltonian H(t) = sum_jk M_jk(t) a_j^dag a_k on the
    truncated product space, for any Hermitian 3x3 matrix schedule."""
    ann = mode_annihilators(dims)
    hops = np.array([[ann[j].conj().T @ ann[k] for k in range(3)] for j in range(3)])

    def h_fn(t):
        m = _matrix_entries(matrix_fn(t))
        return np.einsum("jk,jkab->ab", m, hops)

    return h_fn


def build_h3(schedule: CouplingSchedule, delta1: float, delta2: float, dims):
    """Rotating-frame optomechanical Hamiltonian
    H3(t) = delta1 n1 + delta2 n2 + G1(t)(a1^dag b + h.c.) + G2(t)(a2^dag b + h.c.)."""
    if any(d < 2 for d in dims):
        raise InvalidParameterError(f"fock dims must each be >= 2, got {tuple(dims)}")
    a1, bm, a2 = mode_annihilators(dims)
    n1 = a1.conj().T @ a1
    n2 = a2.conj().T @ a2
    c1 = a1.conj().T @ bm + bm.conj().T @ a1
    c2 = a2.conj().T @ bm + bm.conj().T @ a2
    h_static = delta1 * n1 + delta2 * n2

    def h_fn(t):
        g1, g2 = schedule.couplings(t)
        return h_static + g1 * c1 + g2 * c2

    return h_fn


# -- (2) Schrodinger picture ------------------------------------------------

def evolve_schrodinger(h_fn, psi0, dims, grid: TimeGrid,
                       rtol: float = RTOL_UNITARY, atol: float = ATOL_UNITARY,
                       store_states: bool = False) -> Trajectory:
    """Unitary evolution i dpsi/dt = H(t) psi; populations are <n_i>(t)."""
    psi0 = np.asarray(psi0, dtype=complex)
    num_ops = number_operators(dims)

    def rhs(t, psi):
        return -1j * (h_fn(t) @ psi)

    sol = _integrate(rhs, psi0, grid, rtol, atol)
    states = sol.y.T
    populations = np.column_stack(
        [np.einsum("ti,ij,tj->t", states.conj(), n, states).real for n in num_ops]
    )
    norms = np.linalg.norm(states, axis=1)
    meta = {
        "norm_drift": float(np.max(np.abs(norms - norms[0]))),
        "rtol": rtol, "atol": atol, "picture": "schrodinger", "dims": tuple(dims),
    }
    return Trajectory(sol.t, populations, states[-1].copy(),
                      states if store_states else None, meta)


# -- (3) Lindblad master equation -------------------------------------------

def _dissipator(config: SystemConfig) -> sparse.csr_matrix:
    """The static dissipator as one sparse superoperator on row-major vec(rho).

    With y = rho.ravel() (C order), vec(L rho R) = (L kron R^T) y, so each
    channel of rate r and jump operator c contributes
    r * (c kron conj(c) - (c^dag c kron I + I kron (c^dag c)^T) / 2).
    """
    dims = config.fock_dims
    dim = int(np.prod(dims))
    a1, bm, a2 = (sparse.csr_matrix(a) for a in mode_annihilators(dims))
    diss = config.dissipation
    channels = [
        (diss.kappa1, a1),
        (diss.kappa2, a2),
        (diss.gamma_m * (diss.n_th + 1.0), bm),
        (diss.gamma_m * diss.n_th, bm.conj().T),
    ]
    eye = sparse.identity(dim, dtype=complex, format="csr")
    out = sparse.csr_matrix((dim * dim, dim * dim), dtype=complex)
    for rate, op in channels:
        if rate > 0:
            op2 = op.conj().T @ op
            out = out + rate * (sparse.kron(op, op.conj())
                                - 0.5 * (sparse.kron(op2, eye) + sparse.kron(eye, op2.T)))
    return out.tocsr()


def evolve_lindblad(h_fn, config: SystemConfig, rho0, grid: TimeGrid,
                    rtol: float = RTOL_LINDBLAD, atol: float = ATOL_LINDBLAD,
                    store_states: bool = False) -> Trajectory:
    """Integrate drho/dt = i[rho, H(t)] + kappa1 L[a1] + kappa2 L[a2]
    + gamma_m D[b_m], with L the decay dissipator and D its thermal version
    carrying (n_th + 1) cooling and n_th heating terms.

    The state is integrated as row-major vec(rho) = rho.ravel().  The
    dissipator is assembled once (`_dissipator`), so each RHS call
    is the commutator with `h_fn(t)` (two dense products) plus one sparse
    matrix-vector product.  Every probe (number operators, trace, mechanical
    edge projector) is diagonal in the Fock basis and is read from diag(rho);
    the Hermiticity drift is checked one time step at a time, and the
    (T, dim, dim) history is returned only when `store_states` is set.
    """
    dims = config.fock_dims
    dim = int(np.prod(dims))
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise InvalidParameterError(
            f"rho0 shape {rho0.shape} does not match truncation {dims}"
        )
    dissipator = _dissipator(config)

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        h = h_fn(t)
        return (-1j * (h @ rho - rho @ h)).ravel() + dissipator @ y

    sol = _integrate(rhs, rho0.ravel(), grid, rtol, atol)
    rhos = sol.y.T.reshape(-1, dim, dim)  # a view of the solver output
    diag = sol.y[::dim + 1].T.real        # (T, dim) view: rho_ii(t)
    occupations = np.indices(dims).reshape(3, dim).T.astype(float)  # (n1, n_m, n2)
    populations = diag @ occupations
    traces = diag.sum(axis=1)
    herm = max(float(np.abs(rho - rho.conj().T).max()) for rho in rhos)

    # population of the mechanical edge state n_m = d_m - 1, as a truncation probe
    edge = occupations[:, 1] == dims[1] - 1
    edge_pop = float(diag[:, edge].sum(axis=1).max())
    if edge_pop > MECH_EDGE_WARN_THRESHOLD:
        warnings.warn(
            f"mechanical edge-state population reached {edge_pop:.2e}; "
            f"the truncation d_m={dims[1]} is likely too small",
            TruncationWarning, stacklevel=2,
        )

    rho_final = rhos[-1].copy()  # a view would keep the whole history alive
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho_final + rho_final.conj().T)).min())
    meta = {
        "trace_drift": float(np.max(np.abs(traces - traces[0]))),
        "hermiticity_drift": herm,
        "min_final_eigenvalue": min_eig,
        "mech_edge_population": edge_pop,
        "rtol": rtol, "atol": atol, "picture": "lindblad", "dims": tuple(dims),
    }
    return Trajectory(sol.t, populations, rho_final,
                      rhos if store_states else None, meta)
