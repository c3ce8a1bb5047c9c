"""Propagation in four pictures and observable extraction.

1. Linear Heisenberg-amplitude evolution i dv/dt = M(t) v for a 3-vector of
   mode amplitudes, driven by any schedule of Hermitian 3x3 arrays M(t).
   Every closed run of the package uses it, the one-excitation Fock transfer
   included (there M carries the detunings on its diagonal).
2. The open system as a Gaussian channel.  Every dissipator is linear, so one
   photon entering cavity 1 leaves in a state fixed by the amplitude column
   v' = A v, A = -iM - K/2 with K = diag(kappa1, gamma_m, kappa2), and the
   normally ordered noise N_ij = <a_i^dag a_j> of the vacuum,
   N' = conj(A) N + N A^T + D with D = diag(0, gamma_m n_th, 0) (Wang & Clerk,
   PRL 108, 153603, 2012).
3. Truncated-Fock-space Schrodinger evolution under the beam-splitter
   Hamiltonian H(t) = sum_i delta_i n_i + G_i(t)(a_i^dag b_m + h.c.), kept
   as an independent oracle for picture 1.
4. Lindblad master-equation evolution with cavity decay (rates kappa_i) and
   thermal mechanical damping (rate gamma_m, occupation n_th), kept as the
   truncated oracle for picture 2.  The density matrix is integrated as
   row-major vec(rho) = rho.ravel(); the static dissipator is one sparse
   superoperator on that vector, built before integration.  Every probe
   (mode populations, trace, mechanical edge population) is diagonal in the
   Fock basis and is read from diag(rho).

Pictures 1 and 2 share one stepper, `_magnus`: a fixed number of
fourth-order Magnus steps per output interval (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 151, 2009), built at most `CHUNK_STEPS` steps at a time, so
memory stays bounded at any step count.  Only the two oracles, pictures 3
and 4, use adaptive explicit Runge-Kutta integration (DOP853) with tight
default tolerances.  Every run is deterministic and reproducible bit-for-bit.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .core import CouplingSchedule, Dissipation, SystemConfig, TimeGrid
from .engine import counterdiabatic_matrix
from .errors import InvalidParameterError, SolverError

# tolerances of the DOP853 oracles (pictures 3 and 4)
RTOL_UNITARY = 1e-9
ATOL_UNITARY = 1e-12
RTOL_LINDBLAD = 1e-7
ATOL_LINDBLAD = 1e-10

MECH_EDGE_WARN_THRESHOLD = 1e-4

# Magnus steps: sub-steps h with h * bound <= 0.1, for a bound on ||A(t)||,
# keep ||Omega|| <= ~0.1, where a Taylor series of order 12 is exact to rounding
MAGNUS_MAX_PHASE = 0.1
TAYLOR_ORDER = 12
# memory bounds: the one-step maps of at most CHUNK_STEPS steps are held at
# once, and built STEP_BLOCK at a time; a run takes at most MAX_STEPS steps
CHUNK_STEPS = 8192
STEP_BLOCK = 1024
MAX_STEPS = 2 ** 26


class TruncationWarning(UserWarning):
    """Mechanical edge-state population grew large enough to distrust d_m."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time series of per-mode populations plus numerical diagnostics.

    `populations[k, i]` is mode i's population (|v_i|^2 or <n_i>) at
    `times[k]`.  `final_state` is the amplitude 3-vector, Fock state vector
    or density matrix at t_end.  `meta` carries conservation drifts and
    solver information.
    """

    times: np.ndarray
    populations: np.ndarray
    final_state: np.ndarray
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


# -- the Magnus stepper (pictures 1 and 2) -----------------------------------

def _mul(a, b):
    """Products of stacked 3x3 matrices held as (3, 3, ...) arrays.  The stack
    axes come last, so each entry is one contiguous vector operation."""
    out = a[:, 0, None] * b[None, 0]
    out += a[:, 1, None] * b[None, 1]
    out += a[:, 2, None] * b[None, 2]
    return out


def _noise_map(omega, x):
    """conj(Omega) X + X Omega^T for Hermitian X: that is P + P^dag with
    P = conj(Omega) X, and it is Hermitian again."""
    p = _mul(omega.conj(), x)
    return p + np.swapaxes(p, 0, 1).conj()


def _part(maps, key):
    """The stacked maps `maps` = (E, Q) at index `key`; Q may be None."""
    e, q = maps
    return e[key], None if q is None else q[key]


def _compose(later, earlier):
    """The channel map `earlier` followed by `later`, each a stacked (E, Q)
    pair acting as v -> E v, N -> conj(E) N E^T + Q (Q None: no noise)."""
    (e2, q2), (e1, q1) = later, earlier
    if q1 is None:
        return _mul(e2, e1), None
    return _mul(e2, e1), _mul(_mul(e2.conj(), q1), np.swapaxes(e2, 0, 1)) + q2


def _step_maps(generator, drive, t_start, h, first, count):
    """The (E, Q) maps of steps first .. first + count - 1, each of length h.

    A step's exponent is Omega = h/2 (Aa + Ab) + (sqrt(3) h^2 / 12)[Ab, Aa]
    from A at the two Gauss points, and E = exp(Omega).  With a drive D,
    Q is the phi_1 series of X -> conj(Omega) X + X Omega^T applied to the
    step's forcing h D + (sqrt(3) h^2 / 12)(conj(Ab - Aa) D + D (Ab - Aa)^T);
    without one, Q is None.  Every operation is elementwise over the steps,
    so they are built `STEP_BLOCK` at a time, which bounds the temporaries.
    """
    e = np.empty((3, 3, count), dtype=complex)
    q = None if drive is None else np.empty((3, 3, count), dtype=complex)
    c = np.sqrt(3.0) / 6.0
    weight = np.sqrt(3.0) * h * h / 12.0
    eye = np.eye(3)[:, :, None]
    for b0 in range(0, count, STEP_BLOCK):
        size = min(STEP_BLOCK, count - b0)
        starts = t_start + h * np.arange(first + b0, first + b0 + size)
        a = generator(np.concatenate([starts + h * (0.5 - c), starts + h * (0.5 + c)]))
        a_a, a_b = a[..., :size], a[..., size:]
        omega = 0.5 * h * (a_a + a_b) + weight * (_mul(a_b, a_a) - _mul(a_a, a_b))

        # E = exp(Omega) and Q = sum_k L^k(forcing) / (k + 1)!, both by Horner
        block = eye
        for k in range(TAYLOR_ORDER, 0, -1):
            block = eye + _mul(omega, block) / k
        e[..., b0:b0 + size] = block
        if drive is not None:
            forcing = h * drive + weight * _noise_map(a_b - a_a, drive)
            block = forcing
            for k in range(TAYLOR_ORDER, 0, -1):
                block = forcing + _noise_map(omega, block) / (k + 1)
            q[..., b0:b0 + size] = block
    return e, q


def _magnus(generator, bound: float, grid: TimeGrid, drive=None,
            substeps: int | None = None):
    """The maps from t_start to each later grid time of v' = A(t) v and, with
    a drive D (a 3x3 array), N' = conj(A) N + N A^T + D.

    `generator(times)` returns A at an array of T times as a (3, 3, T)
    array; it is called once per block of steps, on both Gauss points of
    the block's steps.  Each output interval takes `substeps` Magnus steps, a power of
    two; by default the smallest one with h * bound <= MAGNUS_MAX_PHASE,
    where `bound` >= ||A(t)||.  A run of more than MAX_STEPS steps raises
    InvalidParameterError.

    The steps are built `CHUNK_STEPS` at a time.  Within a chunk, they are
    composed pairwise into one map per output interval, and the interval
    maps by recursive doubling into maps from the chunk's start; the map
    carried from t_start to the chunk's start then completes them.

    Returns the stacked maps (E, Q), each (3, 3, n) for the n output
    intervals (Q None without a drive), and the sub-steps per interval.
    """
    n = grid.n_points - 1
    if substeps is None:
        ratio = grid.dt * bound / MAGNUS_MAX_PHASE
        if not ratio <= MAX_STEPS:  # NaN as well
            raise InvalidParameterError(
                f"the step rule asks for {ratio:.3g} Magnus steps per output "
                f"interval; a run takes at most {MAX_STEPS}")
        substeps = 2 ** max(0, int(np.ceil(np.log2(ratio)))) if ratio > 1 else 1
    elif substeps < 1 or substeps & (substeps - 1):
        raise InvalidParameterError(f"substeps must be a power of two, got {substeps}")
    steps = n * substeps
    if steps > MAX_STEPS:
        raise InvalidParameterError(
            f"{steps} Magnus steps ({n} intervals x {substeps} sub-steps) "
            f"exceed the cap of {MAX_STEPS} per run")
    h = grid.span / steps
    per_chunk = max(1, CHUNK_STEPS // substeps)  # whole intervals per chunk
    pieces = max(1, substeps // CHUNK_STEPS)     # chunks per interval
    e_out = np.empty((3, 3, n), dtype=complex)
    q_out = None if drive is None else np.empty((3, 3, n), dtype=complex)
    carry = None
    for k0 in range(0, n, per_chunk):
        k1 = min(n, k0 + per_chunk)
        count = (k1 - k0) * substeps // pieces
        maps = None
        for piece in range(pieces):
            e, q = _step_maps(generator, drive, grid.t_start, h,
                              k0 * substeps + piece * count, count)
            step = (e.reshape(3, 3, k1 - k0, -1),
                    None if q is None else q.reshape(3, 3, k1 - k0, -1))
            while step[0].shape[-1] > 1:  # step 2j, then step 2j + 1
                step = _compose(_part(step, np.s_[..., 1::2]),
                                _part(step, np.s_[..., 0::2]))
            step = _part(step, np.s_[..., 0])
            maps = step if maps is None else _compose(step, maps)
        # maps from the chunk's start by recursive doubling: after the pass
        # with offset d, entry k maps the start of interval max(0, k - 2d + 1)
        # to the end of k
        e, q = maps
        offset = 1
        while offset < k1 - k0:
            e_new, q_new = _compose(_part(maps, np.s_[..., offset:]),
                                    _part(maps, np.s_[..., :-offset]))
            e[..., offset:] = e_new
            if q is not None:
                q[..., offset:] = q_new
            offset *= 2
        if carry is not None:
            e, q = maps = _compose(maps, carry)
        e_out[..., k0:k1] = e
        if q is not None:
            q_out[..., k0:k1] = q
        carry = _part(maps, np.s_[..., -1:])
    return e_out, q_out, substeps


def _solve_meta(start, n, substeps, picture):
    return {"steps": n * substeps, "substeps": substeps,
            "solve_s": time.perf_counter() - start, "picture": picture}


# -- (1) Heisenberg-amplitude picture ---------------------------------------

def propagate_amplitudes(matrix_fn, v0, grid: TimeGrid, bound: float | None = None,
                         substeps: int | None = None) -> Trajectory:
    """Integrate i dv/dt = M(t) v and report populations |v_i(t)|^2.

    `matrix_fn(times)` returns M at an array of T times as a (3, 3, T)
    array.  `bound` is an upper bound on ||M(t)|| for the step rule (see
    `_magnus`); by default the largest absolute row sum of M on the output
    grid.  `meta` holds `norm_drift`, `steps`, `substeps` and `solve_s`.
    """
    start = time.perf_counter()
    v0 = np.asarray(v0, dtype=complex)
    if v0.shape != (3,):
        raise InvalidParameterError(f"v0 must be a 3-vector, got shape {v0.shape}")
    if bound is None:
        bound = float(np.abs(matrix_fn(grid.times)).sum(axis=1).max())
    e, _, substeps = _magnus(lambda t: -1j * matrix_fn(t), bound, grid,
                             substeps=substeps)
    states = np.empty((grid.n_points, 3), dtype=complex)
    states[0] = v0
    states[1:] = np.einsum("ijk,j->ki", e, v0)
    populations = np.abs(states) ** 2
    norms = np.sqrt(populations.sum(axis=1))
    meta = {"norm_drift": float(np.max(np.abs(norms - norms[0])))}
    meta.update(_solve_meta(start, grid.n_points - 1, substeps, "amplitude"))
    return Trajectory(grid.times, populations, states[-1].copy(), meta)


def propagate_tqd_amplitudes(schedule: CouplingSchedule, v0,
                             grid: TimeGrid) -> Trajectory:
    """Propagate under the transitionless matrix M1(t) alone."""
    return propagate_amplitudes(lambda t: counterdiabatic_matrix(schedule, t),
                                v0, grid)


# -- (2) Gaussian channel ----------------------------------------------------

def propagate_channel(schedule: CouplingSchedule, detuning: float,
                      dissipation: Dissipation, grid: TimeGrid,
                      substeps: int | None = None) -> Trajectory:
    """One photon entering cavity 1 (vacuum elsewhere) through the open
    system with M(t) = [[delta, g1, 0], [g1, 0, g2], [0, g2, delta]]: the
    amplitude column v(t) and the noise N(t) of picture 2.

    The maps of `_magnus` from t_start, with the bound
    |delta| + 2 max G + max K / 2 and the drive D (none when D = 0), are
    applied to v = e1 and N = 0.

    `populations` are <n_i> = |v_i|^2 + N_ii and `final_state` is v at
    t_end.  `meta` holds the final `noise` N, the hygiene of the whole run
    (`hermiticity_drift` and `min_noise_eigenvalue` of N, `norm_growth`, the
    largest increase of |v| over one interval), `steps`, `substeps` and
    `solve_s`.
    """
    start = time.perf_counter()
    rates = np.array([dissipation.kappa1, dissipation.gamma_m, dissipation.kappa2])
    diagonal = -1j * np.array([detuning, 0.0, detuning]) - 0.5 * rates

    def generator(times):
        g1, g2 = schedule.couplings(times)
        a = np.zeros((3, 3, times.size), dtype=complex)
        a[[0, 1, 2], [0, 1, 2]] = diagonal[:, None]
        a[0, 1] = a[1, 0] = -1j * g1
        a[1, 2] = a[2, 1] = -1j * g2
        return a

    heating = dissipation.gamma_m * dissipation.n_th
    drive = np.diag([0.0, heating, 0.0])[:, :, None] if heating else None
    bound = abs(detuning) + 2.0 * schedule.max_coupling + 0.5 * rates.max()
    e, q, substeps = _magnus(generator, bound, grid, drive, substeps)

    n = grid.n_points - 1
    v = np.zeros((n + 1, 3), dtype=complex)
    v[0, 0] = 1.0
    v[1:] = e[:, 0].T
    noise = np.zeros((n + 1, 3, 3), dtype=complex)
    if q is not None:
        noise[1:] = np.moveaxis(q, -1, 0)

    populations = np.abs(v) ** 2 + np.einsum("kii->ki", noise).real
    norms = np.linalg.norm(v, axis=1)
    noise_dagger = noise.conj().transpose(0, 2, 1)
    meta = {
        "noise": noise[-1].copy(),  # a view would keep the history alive
        "hermiticity_drift": float(np.abs(noise - noise_dagger).max()),
        "min_noise_eigenvalue": float(np.linalg.eigvalsh(
            0.5 * (noise + noise_dagger)).min()),
        "norm_growth": float(np.diff(norms).max()),
    }
    meta.update(_solve_meta(start, n, substeps, "gaussian"))
    return Trajectory(grid.times, populations, v[-1].copy(), meta)


def channel_fidelity(v, noise) -> float:
    """F = P(n1 = 0, n2 = 1) of the channel output for one input photon.

    With Lambda = diag(1 - z1, 1 - z2) and C = conj(N) on the two cavities
    (C_ij = <a_j^dag a_i>), the output's generating function is
    E[z1^n1 z2^n2] = (1 - u^dag R u) / det(I + C Lambda),
    R = (Lambda^-1 + C)^-1, where u = (v_1, v_2) are the cavity amplitudes:
    the vacuum's Gaussian noise times the single-photon factor.  F is its
    z2-derivative at z = 0, where R = (I + C)^-1, R C = I - R and
    d/dz2 R = -R E22 R, so
    F = [|(R u)_2|^2 + (1 - u^dag R u)(1 - R_22)] / det(I + C).
    """
    u = np.asarray(v)[[0, 2]]
    cav = np.eye(2) + np.asarray(noise)[np.ix_([0, 2], [0, 2])].conj()
    r = np.linalg.inv(cav)
    ru = r @ u
    vacuum_part = 1.0 - (u.conj() @ ru).real
    return float((abs(ru[1]) ** 2 + vacuum_part * (1.0 - r[1, 1].real))
                 / np.linalg.det(cav).real)


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
    truncated product space; `matrix_fn(t)` returns the Hermitian M(t) as a
    3x3 array."""
    ann = mode_annihilators(dims)
    hops = np.array([[ann[j].conj().T @ ann[k] for k in range(3)] for j in range(3)])

    def h_fn(t):
        return np.einsum("jk,jkab->ab", matrix_fn(t), hops)

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


# -- (3) Schrodinger picture ------------------------------------------------

def evolve_schrodinger(h_fn, psi0, dims, grid: TimeGrid, rtol: float = RTOL_UNITARY,
                       atol: float = ATOL_UNITARY) -> Trajectory:
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
    return Trajectory(sol.t, populations, states[-1].copy(), meta)


# -- (4) Lindblad master equation -------------------------------------------

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
                    rtol: float = RTOL_LINDBLAD,
                    atol: float = ATOL_LINDBLAD) -> Trajectory:
    """Integrate drho/dt = i[rho, H(t)] + kappa1 L[a1] + kappa2 L[a2]
    + gamma_m D[b_m], with L the decay dissipator and D its thermal version
    carrying (n_th + 1) cooling and n_th heating terms.

    The state is integrated as row-major vec(rho) = rho.ravel().  The
    dissipator is assembled once (`_dissipator`), so each RHS call
    is the commutator with `h_fn(t)` (two dense products) plus one sparse
    matrix-vector product.  Every probe (number operators, trace, mechanical
    edge projector) is diagonal in the Fock basis and is read from diag(rho),
    and the Hermiticity drift is checked one time step at a time.
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
    return Trajectory(sol.t, populations, rho_final, meta)
