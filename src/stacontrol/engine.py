"""Eigenmode structure and counter-diabatic (transitionless) pulse synthesis.

The adiabatic three-mode coupling matrix

    M(t) = [[0, g1, 0], [g1, 0, g2], [0, g2, 0]]

has eigenvalues {0, +g0, -g0} (g0 = sqrt(g1^2 + g2^2)) with dark mode
psi1 = [-g2/g0, 0, g1/g0]^T.  The transitionless correction built from the
instantaneous eigenmodes is

    M1(t) = i sum_n psidot_n psi_n^dag = [[0, 0, iG], [0, 0, 0], [-iG, 0, 0]],
    G = (g1dot g2 - g1 g2dot) / g0^2,

which for the Vitanov family reduces to G = theta_dot(t).  A physically
realizable stand-in is the large-detuning effective beam-splitter matrix
M2 with off-diagonal G1 G2 / delta; choosing G1 = G2 = sqrt(delta theta_dot)
matches |M2| to |M1| pointwise.

Every generator (M, M1, M2 and the generic correction) is returned as a plain
complex (3, 3) array; M, M1 and M2 also take an array of T times (or
couplings) and return a (3, 3, T) stack, the form the Magnus stepper
evaluates.  The eigenmodes of M at time t are
`closed_form_eigensystem(*schedule.couplings(t))`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CouplingSchedule
from .errors import DegenerateSystemError, InvalidBasisError, InvalidParameterError

ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Instantaneous eigenvalues and eigenmodes in canonical order (0, +g0, -g0).

    `modes` holds the eigenvectors as columns; the dark mode (column 0) is
    normalized so its last component g1/g0 is >= 0.
    """

    values: np.ndarray
    modes: np.ndarray


def build_adiabatic_matrix(schedule: CouplingSchedule, t) -> np.ndarray:
    """The real symmetric coupling matrix M(t) with zero diagonal, as a
    complex (3, 3) array, or (3, 3, T) for an array of T times."""
    g1, g2 = schedule.couplings(t)
    m = np.zeros((3, 3) + np.shape(g1), dtype=complex)
    m[0, 1] = m[1, 0] = g1
    m[1, 2] = m[2, 1] = g2
    return m


def _corner(value, sign: float) -> np.ndarray:
    """(3, 3) array, or (3, 3, T) for T values, that is zero except for
    `value` at [0, 2] and `sign * value` at [2, 0]."""
    m = np.zeros((3, 3) + np.shape(value), dtype=complex)
    m[0, 2] = value
    m[2, 0] = sign * value
    return m


def closed_form_eigensystem(g1: float, g2: float) -> EigenSystem:
    """Closed-form eigenmodes of M for couplings (g1, g2), g0 > 0 required."""
    g0 = float(np.hypot(g1, g2))
    if g0 == 0.0:
        raise DegenerateSystemError(
            "g1 = g2 = 0: all eigenvalues coincide and the closed forms are undefined"
        )
    dark = np.array([-g2 / g0, 0.0, g1 / g0])
    if dark[2] < 0:
        dark = -dark
    plus = np.array([g1 / g0, 1.0, g2 / g0]) / np.sqrt(2)
    minus = np.array([g1 / g0, -1.0, g2 / g0]) / np.sqrt(2)
    values = np.array([0.0, g0, -g0])
    modes = np.column_stack([dark, plus, minus])
    return EigenSystem(values, modes)


def coupling_g_scalar(schedule: CouplingSchedule, t):
    """The counter-diabatic scalar G = (g1dot g2 - g1 g2dot)/g0^2 at time t
    (a float), or at an array of times; 0 at an instant where both couplings
    vanish (no drive, no correction)."""
    g1, g2 = schedule.couplings(t)
    d1, d2 = schedule.coupling_rates(t)
    g0sq = g1 ** 2 + g2 ** 2
    g = np.where(g0sq > 0, (d1 * g2 - g1 * d2) / np.where(g0sq > 0, g0sq, 1.0), 0.0)
    return float(g) if g.ndim == 0 else g


def counterdiabatic_matrix(schedule: CouplingSchedule, t) -> np.ndarray:
    """The transitionless matrix M1(t) as a (3, 3) array, or (3, 3, T) for an
    array of T times: purely imaginary, antisymmetric, with only the
    outer-mode corner entries nonzero."""
    return _corner(1j * coupling_g_scalar(schedule, t), -1.0)


def generic_counterdiabatic(basis_fn, t: float, dt: float = 1e-4) -> np.ndarray:
    """Counter-diabatic generator i sum_n |d psi_n/dt><psi_n| from a supplied
    orthonormal eigenmode schedule.

    `basis_fn(t)` must return a 3x3 array whose columns are the instantaneous
    eigenmodes.  Derivatives are taken by central differences with step `dt`.
    """
    basis = np.asarray(basis_fn(t), dtype=complex)
    if basis.shape != (3, 3):
        raise InvalidParameterError(f"basis must be 3x3, got {basis.shape}")
    gram = basis.conj().T @ basis
    if np.max(np.abs(gram - np.eye(3))) > ORTHONORMALITY_TOL:
        raise InvalidBasisError(
            "supplied basis is not orthonormal "
            f"(Gram deviation {np.max(np.abs(gram - np.eye(3))):.2e})"
        )
    dbasis = (np.asarray(basis_fn(t + dt), dtype=complex)
              - np.asarray(basis_fn(t - dt), dtype=complex)) / (2.0 * dt)
    entries = 1j * dbasis @ basis.conj().T
    # exact orthonormality makes this Hermitian; symmetrize away the O(dt^2)
    # finite-difference remainder
    return 0.5 * (entries + entries.conj().T)


def synthesize_tqd_pulses(nu: float, delta: float) -> CouplingSchedule:
    """Physically realizable pulse pair G1(t) = G2(t) = sqrt(delta theta_dot(t)).

    The product G1 G2 / delta equals theta_dot(t) pointwise, so the effective
    beam-splitter matrix reproduces the transitionless coupling magnitude.
    Check `tqd_detuning_ratio` to confirm the large-detuning regime.
    """
    if not delta > 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    return CouplingSchedule(kind="tqd", nu=nu, delta=delta)


def tqd_max_coupling(nu: float, delta: float) -> float:
    """Peak of the synthesized pulses: sqrt(delta * pi * nu / 8)."""
    if not (nu > 0 and delta > 0):
        raise InvalidParameterError("nu and delta must be positive")
    return synthesize_tqd_pulses(nu, delta).max_coupling


def tqd_detuning_ratio(nu: float, delta: float) -> float:
    """delta / max G1; large values indicate a well-satisfied adiabatic
    elimination (delta >> G)."""
    return float(delta / tqd_max_coupling(nu, delta))


def effective_matrix(g_1, g_2, delta: float) -> np.ndarray:
    """The adiabatically eliminated beam-splitter matrix M2 as a (3, 3) array
    (or (3, 3, T) for arrays of couplings), with off-diagonal G1 G2 / delta
    on the outer-mode corner."""
    if delta == 0:
        raise InvalidParameterError("delta must be nonzero")
    return _corner(g_1 * g_2 / delta, 1.0)


def effective_matrix_at(schedule: CouplingSchedule, t) -> np.ndarray:
    """M2(t) evaluated from a synthesized schedule's own couplings, at a time
    or at an array of times."""
    if schedule.kind != "tqd":
        raise InvalidParameterError("effective_matrix_at requires a tqd schedule")
    g1, g2 = schedule.couplings(t)
    return effective_matrix(g1, g2, schedule.delta)
