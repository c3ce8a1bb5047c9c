"""System description: units, time grids and coupling schedules.

Unit conventions used throughout the package:

* frequencies, couplings, detunings and decay rates are stored in MHz and
  interpreted as angular frequencies in rad/us, so ``frequency * time`` is a
  phase in radians (a 500 Hz mechanical damping rate is stored as 5e-4 MHz);
* times are in us.

The "Vitanov" coupling family is the sigmoid-parameterised pulse pair

    g1(t) = g0 sin(theta(t)),   g2(t) = g0 cos(theta(t)),
    theta(t) = (pi/2) / (1 + exp(-nu (t - 5/nu))),

whose mixing angle sweeps 0 -> pi/2 with midpoint at t = 5/nu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import InvalidParameterError

DEFAULT_N_POINTS = 2001

SCHEDULE_KINDS = ("vitanov", "tqd", "constant")


def _check_nu(nu: float) -> None:
    if not nu > 0:
        raise InvalidParameterError(f"shape rate nu must be positive, got {nu}")


def vitanov_theta(t, nu):
    """Sigmoid mixing angle theta(t) in (0, pi/2), midpoint at t = 5/nu."""
    _check_nu(nu)
    return (np.pi / 2) * expit(nu * (np.asarray(t, dtype=float) - 5.0 / nu))


def vitanov_theta_dot(t, nu):
    """d theta/dt = (pi/2) nu s(1-s) with s the logistic sigmoid; peak pi*nu/8."""
    _check_nu(nu)
    s = expit(nu * (np.asarray(t, dtype=float) - 5.0 / nu))
    return (np.pi / 2) * nu * s * (1.0 - s)


def vitanov_theta_ddot(t, nu):
    """Second derivative of the mixing angle (used for synthesized-pulse rates)."""
    _check_nu(nu)
    s = expit(nu * (np.asarray(t, dtype=float) - 5.0 / nu))
    return (np.pi / 2) * nu**2 * s * (1.0 - s) * (1.0 - 2.0 * s)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid [t_start, t_end] with n_points samples (us)."""

    t_start: float
    t_end: float
    n_points: int = DEFAULT_N_POINTS

    def __post_init__(self):
        if self.n_points < 2:
            raise InvalidParameterError(f"n_points must be >= 2, got {self.n_points}")
        if not self.t_end > self.t_start:
            raise InvalidParameterError(
                f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]"
            )

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n_points - 1)

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    @classmethod
    def vitanov_default(cls, nu: float, n_points: int = DEFAULT_N_POINTS) -> "TimeGrid":
        """Default grid [0, 10/nu]: the sigmoid midpoint 5/nu sits at the center."""
        _check_nu(nu)
        return cls(0.0, 10.0 / nu, n_points)

    def widen(self, pad: float) -> "TimeGrid":
        """Grid extended by `pad` on both sides, keeping the step roughly fixed."""
        if pad < 0:
            raise InvalidParameterError(f"pad must be >= 0, got {pad}")
        if pad == 0:
            return self
        n = int(round((self.span + 2 * pad) / self.span * (self.n_points - 1))) + 1
        return TimeGrid(self.t_start - pad, self.t_end + pad, n)


@dataclass(frozen=True, eq=False)
class CouplingSchedule:
    """Time-dependent coupling pair (g1(t), g2(t)) with analytic rates.

    kind is one of:

    * ``vitanov``  -- g1 = g0 sin(theta(t - dt1)), g2 = g0 cos(theta(t - dt2))
    * ``tqd``      -- synthesized pair G1 = G2 = sqrt(delta * theta_dot(t)),
                      with per-pulse delays applied the same way
    * ``constant`` -- fixed (g1, g2) from `values`

    `delays` shifts the internal clock of each named pulse: pulse i is
    evaluated at t - delays[i] without altering its shape.
    """

    kind: str
    g0: float = 1.0
    nu: float = 1.0
    delta: float = 0.0
    delays: tuple[float, float] = (0.0, 0.0)
    values: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise InvalidParameterError(
                f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}"
            )
        if len(self.delays) != 2:
            raise InvalidParameterError("delays must hold exactly two per-pulse offsets")
        if self.kind in ("vitanov", "tqd"):
            _check_nu(self.nu)
        if self.kind == "vitanov" and not self.g0 > 0:
            raise InvalidParameterError(f"g0 must be positive, got {self.g0}")
        if self.kind == "tqd" and not self.delta > 0:
            raise InvalidParameterError(
                f"tqd synthesis requires a positive detuning, got {self.delta}"
            )
        if self.kind == "constant" and self.values is None:
            raise InvalidParameterError("constant schedule requires values=(g1, g2)")

    # -- constructors -------------------------------------------------------

    @classmethod
    def vitanov(cls, g0: float = 1.0, nu: float = 1.0,
                delays: tuple[float, float] = (0.0, 0.0)) -> "CouplingSchedule":
        return cls(kind="vitanov", g0=g0, nu=nu, delays=tuple(delays))

    @classmethod
    def constant(cls, g1: float, g2: float) -> "CouplingSchedule":
        return cls(kind="constant", values=(float(g1), float(g2)))

    # -- evaluation ---------------------------------------------------------

    def couplings(self, t):
        """(g1(t), g2(t)) in MHz; scalar or array t."""
        t = np.asarray(t, dtype=float)
        t1, t2 = t - self.delays[0], t - self.delays[1]
        if self.kind == "vitanov":
            return (self.g0 * np.sin(vitanov_theta(t1, self.nu)),
                    self.g0 * np.cos(vitanov_theta(t2, self.nu)))
        if self.kind == "tqd":
            return (np.sqrt(self.delta * vitanov_theta_dot(t1, self.nu)),
                    np.sqrt(self.delta * vitanov_theta_dot(t2, self.nu)))
        g1, g2 = self.values
        return np.full_like(t, g1), np.full_like(t, g2)

    def coupling_rates(self, t):
        """(dg1/dt, dg2/dt), analytic for every kind."""
        t = np.asarray(t, dtype=float)
        t1, t2 = t - self.delays[0], t - self.delays[1]
        if self.kind == "vitanov":
            return (self.g0 * np.cos(vitanov_theta(t1, self.nu)) * vitanov_theta_dot(t1, self.nu),
                    -self.g0 * np.sin(vitanov_theta(t2, self.nu)) * vitanov_theta_dot(t2, self.nu))
        if self.kind == "tqd":
            return (self._tqd_rate(t1), self._tqd_rate(t2))
        return np.zeros_like(t), np.zeros_like(t)

    def _tqd_rate(self, t):
        # d/dt sqrt(delta * theta_dot) = delta * theta_ddot / (2 G); the
        # 0/0 limit deep in the tails is 0 in the relevant +/- direction
        td = vitanov_theta_dot(t, self.nu)
        tdd = vitanov_theta_ddot(t, self.nu)
        g = np.sqrt(self.delta * td)
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.where(g > 0, self.delta * tdd / (2.0 * np.where(g > 0, g, 1.0)), 0.0)
        return rate

    @property
    def max_coupling(self) -> float:
        """An upper bound on |g1(t)| and |g2(t)| over all t: g0, the tqd peak
        sqrt(delta * pi * nu / 8) (theta_dot peaks at pi nu / 8), or the
        larger constant value."""
        if self.kind == "vitanov":
            return float(self.g0)
        if self.kind == "tqd":
            return float(np.sqrt(self.delta * np.pi * self.nu / 8.0))
        return float(max(abs(v) for v in self.values))

    def with_delays(self, dt1: float, dt2: float) -> "CouplingSchedule":
        """Copy of this schedule with the per-pulse delays replaced."""
        return CouplingSchedule(kind=self.kind, g0=self.g0, nu=self.nu,
                                delta=self.delta, delays=(float(dt1), float(dt2)),
                                values=self.values)


@dataclass(frozen=True)
class Dissipation:
    """Open-system rates: cavity decays, mechanical damping, bath occupation."""

    kappa1: float = 0.0
    kappa2: float = 0.0
    gamma_m: float = 0.0
    n_th: float = 0.0

    def __post_init__(self):
        for name in ("kappa1", "kappa2", "gamma_m", "n_th"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(
                    f"dissipation.{name} must be >= 0, got {getattr(self, name)}"
                )


@dataclass(frozen=True)
class SystemConfig:
    """Three-mode system: coupling schedule, dissipation, truncation."""

    schedule: CouplingSchedule
    dissipation: Dissipation = Dissipation()
    fock_dims: tuple[int, int, int] = (2, 2, 2)

    def __post_init__(self):
        if len(self.fock_dims) != 3 or any(d < 2 for d in self.fock_dims):
            raise InvalidParameterError(
                f"fock_dims must be three integers >= 2, got {self.fock_dims}"
            )
