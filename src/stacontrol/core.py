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

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import InvalidParameterError, OutOfRangeError

DEFAULT_N_POINTS = 2001

SCHEDULE_KINDS = ("vitanov", "tqd", "constant", "tabulated")


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
    """Time-dependent coupling pair (g1(t), g2(t)) plus shape metadata.

    kind is one of:

    * ``vitanov``   -- g1 = g0 sin(theta(t - dt1)), g2 = g0 cos(theta(t - dt2))
    * ``tqd``       -- synthesized pair G1 = G2 = sqrt(delta * theta_dot(t)),
                       with per-pulse delays applied the same way
    * ``constant``  -- fixed (g1, g2) from `values`
    * ``tabulated`` -- linear interpolation of a (t, g1, g2) sample table

    `delays` shifts the internal clock of each named pulse: pulse i is
    evaluated at t - delays[i] without altering its shape.
    """

    kind: str
    g0: float = 1.0
    nu: float = 1.0
    delta: float = 0.0
    delays: tuple[float, float] = (0.0, 0.0)
    values: tuple[float, float] | None = None
    samples: np.ndarray | None = None
    _rates_table: np.ndarray | None = field(default=None, repr=False)

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
        if self.kind == "constant":
            if self.values is None:
                raise InvalidParameterError("constant schedule requires values=(g1, g2)")
        if self.kind == "tabulated":
            if self.samples is None:
                raise InvalidParameterError("tabulated schedule requires a sample table")
            samples = np.asarray(self.samples, dtype=float)
            if samples.ndim != 2 or samples.shape[1] != 3 or samples.shape[0] < 2:
                raise InvalidParameterError("sample table must have shape (n>=2, 3)")
            if np.any(np.diff(samples[:, 0]) <= 0):
                raise InvalidParameterError("sample times must be strictly increasing")
            object.__setattr__(self, "samples", samples)
            # precomputed finite-difference rates: central in the interior,
            # one-sided second-order at the endpoints (np.gradient does both)
            rates = np.gradient(samples[:, 1:], samples[:, 0], axis=0)
            object.__setattr__(self, "_rates_table", rates)

    # -- constructors -------------------------------------------------------

    @classmethod
    def vitanov(cls, g0: float = 1.0, nu: float = 1.0,
                delays: tuple[float, float] = (0.0, 0.0)) -> "CouplingSchedule":
        return cls(kind="vitanov", g0=g0, nu=nu, delays=tuple(delays))

    @classmethod
    def constant(cls, g1: float, g2: float) -> "CouplingSchedule":
        return cls(kind="constant", values=(float(g1), float(g2)))

    @classmethod
    def tabulated(cls, samples) -> "CouplingSchedule":
        return cls(kind="tabulated", samples=np.asarray(samples, dtype=float))

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
        if self.kind == "constant":
            g1, g2 = self.values
            return np.full_like(t, g1), np.full_like(t, g2)
        return (self._interp_column(t1, 1), self._interp_column(t2, 2))

    def coupling_rates(self, t):
        """(dg1/dt, dg2/dt): analytic for vitanov/tqd/constant, finite
        differences on the sample grid for tabulated schedules."""
        t = np.asarray(t, dtype=float)
        t1, t2 = t - self.delays[0], t - self.delays[1]
        if self.kind == "vitanov":
            return (self.g0 * np.cos(vitanov_theta(t1, self.nu)) * vitanov_theta_dot(t1, self.nu),
                    -self.g0 * np.sin(vitanov_theta(t2, self.nu)) * vitanov_theta_dot(t2, self.nu))
        if self.kind == "tqd":
            return (self._tqd_rate(t1), self._tqd_rate(t2))
        if self.kind == "constant":
            return np.zeros_like(t), np.zeros_like(t)
        tab = self.samples[:, 0]
        out = []
        for col, tt in ((0, t1), (1, t2)):
            self._check_range(tt)
            out.append(np.interp(tt, tab, self._rates_table[:, col]))
        return tuple(out)

    def _tqd_rate(self, t):
        # d/dt sqrt(delta * theta_dot) = delta * theta_ddot / (2 G); the
        # 0/0 limit deep in the tails is 0 in the relevant +/- direction
        td = vitanov_theta_dot(t, self.nu)
        tdd = vitanov_theta_ddot(t, self.nu)
        g = np.sqrt(self.delta * td)
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.where(g > 0, self.delta * tdd / (2.0 * np.where(g > 0, g, 1.0)), 0.0)
        return rate

    def _check_range(self, t):
        tab = self.samples[:, 0]
        if np.any(t < tab[0]) or np.any(t > tab[-1]):
            raise OutOfRangeError(
                f"time outside tabulated range [{tab[0]}, {tab[-1]}]"
            )

    def _interp_column(self, t, col):
        self._check_range(t)
        return np.interp(t, self.samples[:, 0], self.samples[:, col])

    @property
    def uses_one_sided_rates(self) -> bool:
        """True when endpoint derivatives come from one-sided stencils."""
        return self.kind == "tabulated"

    def with_delays(self, dt1: float, dt2: float) -> "CouplingSchedule":
        """Copy of this schedule with the per-pulse delays replaced."""
        return CouplingSchedule(kind=self.kind, g0=self.g0, nu=self.nu,
                                delta=self.delta, delays=(float(dt1), float(dt2)),
                                values=self.values, samples=self.samples)


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


# -- schedule CSV interchange (header: t,g1,g2) -----------------------------

def schedule_to_csv(schedule: CouplingSchedule, grid: TimeGrid, path) -> None:
    """Sample a schedule on a grid and write it as `t,g1,g2` CSV."""
    times = grid.times
    g1, g2 = schedule.couplings(times)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "g1", "g2"])
        for row in zip(times, g1, g2):
            writer.writerow([f"{x:.17g}" for x in row])


def schedule_from_csv(path) -> CouplingSchedule:
    """Read a `t,g1,g2` CSV back as a tabulated schedule."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t", "g1", "g2"]:
            raise InvalidParameterError(f"{path}: expected header 't,g1,g2'")
        samples = [[float(x) for x in row] for row in reader if row]
    return CouplingSchedule.tabulated(np.asarray(samples))
