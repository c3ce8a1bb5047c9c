"""Engine-independent reference solutions for the benchmark's output checks.

Nothing here calls into ``stacontrol``: the pulse shapes, the single-excitation
propagator and the Gaussian moment equations are written out again from the
physics, so a defect in the package's schedules or propagators cannot hide in
the reference it is checked against.

* ``tqd_amplitude_populations`` -- the counter-diabatic matrix M1 alone is a
  rotation of the outer-mode plane by theta(t) - theta(t0), so the populations
  are cos^2 / 0 / sin^2 of that angle exactly.
* ``single_excitation_populations`` -- with input |100> the closed Fock-space
  transfer never leaves the one-excitation sector, which is the 3x3 equation
  i v' = M v, M = [[delta, G1, 0], [G1, 0, G2], [0, G2, delta]].  It is solved
  with fourth-order Magnus steps (exact exponentials of the 3x3 generator).
* ``gaussian_transfer`` -- the open system is a Gaussian channel: U' = A U,
  N' = conj(A) N + N A^T + D with A = -iM - K/2 (Wang & Clerk, PRL 108, 153603,
  2012).  It gives the exact <n_i> and the fidelity F = P(n1 = 0, n2 = 1).
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import expit

MAGNUS_MAX_PHASE = 0.1   # bound on step * |M|; halving it changes results by < 1e-12
MOMENT_RTOL = 1e-11
MOMENT_ATOL = 1e-13


def theta(t, nu):
    """Vitanov mixing angle (pi/2) / (1 + exp(-nu (t - 5/nu)))."""
    return (np.pi / 2) * expit(nu * (np.asarray(t, dtype=float) - 5.0 / nu))


def theta_dot(t, nu):
    s = expit(nu * (np.asarray(t, dtype=float) - 5.0 / nu))
    return (np.pi / 2) * nu * s * (1.0 - s)


def pulse_pair(protocol, t, nu, delta=0.0, g0=1.0, delays=(0.0, 0.0)):
    """(g1, g2) of the adiabatic Vitanov pair or the synthesized tqd pair."""
    t1 = np.asarray(t, dtype=float) - delays[0]
    t2 = np.asarray(t, dtype=float) - delays[1]
    if protocol == "tqd":
        return np.sqrt(delta * theta_dot(t1, nu)), np.sqrt(delta * theta_dot(t2, nu))
    if protocol == "adiabatic":
        return g0 * np.sin(theta(t1, nu)), g0 * np.cos(theta(t2, nu))
    raise ValueError(f"unknown protocol {protocol!r}")


def coupling_matrices(g1, g2, detuning):
    """Stack of M(t) = [[detuning, g1, 0], [g1, 0, g2], [0, g2, detuning]]."""
    m = np.zeros((len(g1), 3, 3))
    m[:, 0, 0] = m[:, 2, 2] = detuning
    m[:, 0, 1] = m[:, 1, 0] = g1
    m[:, 1, 2] = m[:, 2, 1] = g2
    return m


# -- amplitude picture ------------------------------------------------------

def tqd_amplitude_populations(times, nu):
    """|v_i(t)|^2 under M1 alone from v0 = [1, 0, 0]: a rotation by the angle
    theta(t) - theta(t0) in the outer-mode plane."""
    angle = theta(times, nu) - theta(times[0], nu)
    return np.column_stack([np.cos(angle) ** 2, np.zeros_like(angle),
                            np.sin(angle) ** 2])


# -- closed single-excitation transfer ---------------------------------------

def single_excitation_populations(times, delta, nu, delays=(0.0, 0.0)):
    """|v_i(t)|^2 on the uniform grid `times` for the tqd pulses at detuning
    `delta` on both cavities, v0 = [1, 0, 0]."""
    times = np.asarray(times, dtype=float)
    n = len(times) - 1
    # |M| <= |delta| + 2 max G, max G = sqrt(delta pi nu / 8); a power of two
    # of Magnus steps per output interval keeps step * |M| <= MAGNUS_MAX_PHASE
    norm = abs(delta) + 2.0 * np.sqrt(abs(delta) * np.pi * nu / 8.0)
    substeps = 2 ** max(0, int(np.ceil(np.log2(
        (times[-1] - times[0]) / n * norm / MAGNUS_MAX_PHASE))))
    edges = np.linspace(times[0], times[-1], n * substeps + 1)
    h = edges[1] - edges[0]
    c = np.sqrt(3.0) / 6.0
    ma = coupling_matrices(*pulse_pair("tqd", edges[:-1] + h * (0.5 - c), nu, delta,
                                       delays=delays), delta)
    mb = coupling_matrices(*pulse_pair("tqd", edges[:-1] + h * (0.5 + c), nu, delta,
                                       delays=delays), delta)
    # Magnus-4: Omega = -i H with H = h/2 (Ma + Mb) - i sqrt(3) h^2/12 [Mb, Ma]
    h_eff = 0.5 * h * (ma + mb) - 1j * (np.sqrt(3.0) * h * h / 12.0) * (mb @ ma - ma @ mb)
    lam, vec = np.linalg.eigh(h_eff)
    steps = (vec * np.exp(-1j * lam)[:, None, :]) @ vec.conj().transpose(0, 2, 1)
    steps = steps.reshape(n, substeps, 3, 3)
    while steps.shape[1] > 1:  # pairwise products down to one map per interval
        steps = steps[:, 1::2] @ steps[:, 0::2]
    steps = steps[:, 0]
    v = np.zeros((n + 1, 3), dtype=complex)
    v[0, 0] = 1.0
    for k in range(n):
        v[k + 1] = steps[k] @ v[k]
    return np.abs(v) ** 2


# -- open system: Gaussian moments -------------------------------------------

def gaussian_transfer(protocol, kappa, nu, delta, gamma_m, n_th, t_end,
                      t_start=0.0):
    """Exact final (<n_1>, <n_m>, <n_2>) and F = P(n1 = 0, n2 = 1) for one
    photon entering cavity 1, with cavity decay kappa on both cavities and a
    thermal mechanical bath (gamma_m, n_th)."""
    detuning = delta if protocol == "tqd" else 0.0
    half_k = 0.5 * np.diag([kappa, gamma_m, kappa])
    drive = np.diag([0.0, gamma_m * n_th, 0.0])

    def rhs(t, y):
        u = y[:9].reshape(3, 3)
        noise = y[9:].reshape(3, 3)
        g1, g2 = pulse_pair(protocol, t, nu, delta)
        a = -1j * np.array([[detuning, g1, 0.0], [g1, 0.0, g2],
                            [0.0, g2, detuning]]) - half_k
        return np.concatenate([(a @ u).ravel(),
                               (a.conj() @ noise + noise @ a.T + drive).ravel()])

    y0 = np.concatenate([np.eye(3, dtype=complex).ravel(), np.zeros(9, complex)])
    sol = solve_ivp(rhs, (t_start, t_end), y0, method="DOP853",
                    rtol=MOMENT_RTOL, atol=MOMENT_ATOL)
    if not sol.success:
        raise RuntimeError(f"moment equations failed: {sol.message}")
    u = sol.y[:9, -1].reshape(3, 3)
    noise = sol.y[9:, -1].reshape(3, 3)
    occupations = np.abs(u[:, 0]) ** 2 + noise.diagonal().real
    return occupations, _p01(u[[0, 2], 0], noise[np.ix_([0, 2], [0, 2])].T)


def _p01(u, sigma):
    """P(n1 = 0, n2 = 1) = -dG/ds2 at s = (1, 1), where the normally ordered
    generating function of the two cavities is
    G(s) = (1 - u^dag (S^-1 + Sigma)^-1 u) / det(I + S Sigma), S = diag(s).
    The derivative is taken analytically (u is complex, so no complex step)."""
    eye = np.eye(2)
    r = np.linalg.inv(eye + sigma)          # (S^-1 + Sigma)^-1 at S = I
    b_mat = eye + sigma                      # I + S Sigma at S = I
    b = np.linalg.det(b_mat).real
    a = 1.0 - (u.conj() @ r @ u).real
    ru, ur = r @ u, u.conj() @ r
    da = -(ur[1] * ru[1]).real               # d/ds2 of -u^dag R u, R' = R E22 R
    db_over_b = (np.linalg.inv(b_mat)[:, 1] @ sigma[1, :]).real  # tr(B^-1 E22 Sigma)
    return float(-(da / b - a * db_over_b / b))
