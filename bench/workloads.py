"""The four benchmark workloads: seeded inputs, the timed call, the oracle check.

Each workload draws its tasks from ``random.Random(seed)`` in fixed blocks: a
block holds one task per stratum, in a fixed order, and only the values inside
each stratum are drawn.  Every seed therefore runs the same mix of cheap and
expensive points in the same order, which keeps throughput comparable across
seeds while the values themselves change.  The package receives only the
drawn values, and every drawn value is inside the range the package validates
(``|dt| <= 5/nu``, positive rates, ``delta/maxG >= 5``).

A task's ``run`` is the timed call.  Its ``check`` runs after the timed
section and returns one ``Row`` per scan row: the deviations of the package's
numbers from an oracle in ``oracles`` (reported as ``max_abs_err``) and the
names of the checks that failed.  A failure named in ``KNOWN_DEFECTS`` is a
documented defect of the package: it is counted as failed but does not make
the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

# `scan-delay --pulse both --save-trajectories` writes trajectories run with
# delays (0, dt) instead of (dt, dt); the check confirms that exact signature
KNOWN_DEFECTS = frozenset({"cli.delay-both-trajectory"})

# the package's documented scenario defaults, passed explicitly so that the
# oracle and the program integrate the same problem
N_POINTS = 2001
DELAY_PAD = 12.0
DECAY_N_POINTS = 801
DECAY_DELTA = 40.0
DECAY_NU = {"tqd": 2.0, "adiabatic": 0.5}
GAMMA_M = 5e-4
N_TH = 100.0

# error budgets per check; a deviation above its budget fails the row
SOLVER_TOL = 1e-6          # rtol 1e-9 DOP853 against an exact propagator
CONVERGENCE_TOL = 1e-5     # the rows' own rtol/2 deltas
# truncated Fock space against the exact Gaussian channel: at (2,6,2) the
# adiabatic arm is off by ~0.015 in F and ~0.3 in cavity-2 <n>
TRUNCATION_TOL_F = 0.05
TRUNCATION_TOL_N = 0.4
CSV_TOL = 1e-15            # CSVs carry 17 significant digits


@dataclass
class Task:
    id: int
    stratum: str
    params: dict


@dataclass
class Row:
    errors: dict = field(default_factory=dict)    # check -> largest |value - oracle|
    failures: list = field(default_factory=list)  # names of failed checks

    def expect(self, name, value, reference, tol):
        err = abs(float(value) - float(reference))
        self.errors[name] = max(err, self.errors.get(name, 0.0))
        if not err <= tol:  # NaN fails too
            self.failures.append(name)


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def signed(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


class Workload:
    name = ""
    block: tuple = ()   # stratum labels, one task each per block, in order
    trace_blocks = 1    # blocks run (untraced, then traced) by --trace 1
    scaled = True       # times scaled by calibration.py; False: the program's own times

    def tasks(self, rng):
        """Endless task stream, one block after another."""
        task_id = 0
        while True:
            for stratum in self.block:
                yield Task(task_id, stratum, self.draw(rng, stratum))
                task_id += 1

    def draw(self, rng, stratum) -> dict:
        raise NotImplementedError

    def rows(self, task) -> int:
        return 1

    def warm_up(self, pkg, workdir) -> None:
        raise NotImplementedError

    def run(self, pkg, task, workdir):
        raise NotImplementedError

    def check(self, task, result, workdir) -> list:
        raise NotImplementedError


def scan_row(result, requested) -> tuple[Row, float]:
    """The single row of a one-value scan, with its parameter and rtol/2
    convergence delta checked; returns (row, metric value)."""
    (param, value, delta), = result.rows
    row = Row()
    if param != requested:
        row.failures.append("scan.parameter")
    if not delta <= CONVERGENCE_TOL:
        row.failures.append("scan.convergence_delta")
    return row, value


# -- amplitude picture --------------------------------------------------------

class Amplitude(Workload):
    """run_fig2_scenario: adiabatic plus M1 (transitionless) arms per (nu, g0)."""

    name = "amplitude"
    NU_BINS = {"a": (0.5, 0.8), "b": (0.8, 1.3), "c": (1.3, 2.0)}
    G0_BINS = {"lo": (0.5, 1.5), "hi": (1.5, 4.0)}
    block = ("a-lo", "c-hi", "b-lo", "a-hi", "c-lo", "b-hi")
    trace_blocks = 8    # a block takes well under a second

    def draw(self, rng, stratum):
        nu_bin, g0_bin = stratum.split("-")
        return {"nu": log_uniform(rng, *self.NU_BINS[nu_bin]),
                "g0": log_uniform(rng, *self.G0_BINS[g0_bin])}

    def warm_up(self, pkg, workdir):
        pkg.experiments.run_fig2_scenario(2.0, 1.0, n_points=11)

    def run(self, pkg, task, workdir):
        return pkg.experiments.run_fig2_scenario(task.params["nu"], task.params["g0"])

    def check(self, task, result, workdir):
        row = Row()
        tqd = result.tqd
        exact = oracles.tqd_amplitude_populations(tqd.times, task.params["nu"])
        row.expect("amplitude.tqd_populations",
                   np.max(np.abs(tqd.populations - exact)), 0.0, SOLVER_TOL)
        norm = result.adiabatic.populations.sum(axis=1)
        row.expect("amplitude.adiabatic_norm", np.max(np.abs(norm - 1.0)), 0.0,
                   SOLVER_TOL)
        return [row]


# -- closed Fock-space transfer -------------------------------------------------

class ClosedFock(Workload):
    """Delay scans (G1, G2, both) on the padded grid and detuning scans at
    dims (2,2,2), one value per scan call, all at nu = 2."""

    name = "closed-fock"
    NU = 2.0
    # the step count grows with delta: three cheap detuning bins (~0.3 s), the
    # three delay scans (1.0-1.7 s) and two draws from the costly top of the
    # range (1.4-1.9 s), so the latency median falls among the delay scans
    DETUNING_BINS = {"det-a": (22.0, 30.0), "det-b": (30.0, 42.0), "det-c": (42.0, 60.0),
                     "det-top": (160.0, 200.0)}
    block = ("det-a", "delay-G1", "det-top", "det-b", "delay-G2", "det-c", "delay-both",
             "det-top")

    def draw(self, rng, stratum):
        if stratum in self.DETUNING_BINS:
            return {"delta": log_uniform(rng, *self.DETUNING_BINS[stratum]), "nu": self.NU}
        return {"which": stratum.split("-")[1], "delta": rng.uniform(24.0, 28.0),
                "nu": self.NU, "dt": signed(rng, 0.05, 0.6)}

    def warm_up(self, pkg, workdir):
        pkg.experiments.run_fig4_transfer(
            40.0, 2.0, grid=pkg.core.TimeGrid(0.0, 0.01, 3))

    def run(self, pkg, task, workdir):
        p = task.params
        if "dt" in p:
            return pkg.experiments.run_delay_scan(
                [p["dt"]], p["which"], delta=p["delta"], nu=p["nu"], dims=(2, 2, 2),
                pad=DELAY_PAD, n_points=N_POINTS, workers=1)
        return pkg.experiments.run_detuning_scan(
            [p["delta"]], nu=p["nu"], dims=(2, 2, 2), n_points=N_POINTS, workers=1)

    def check(self, task, result, workdir):
        p = task.params
        if "dt" in p:
            row, value = scan_row(result, p["dt"])
            row.expect("closed.final_p2", value, delay_final_p2(p), SOLVER_TOL)
        else:
            row, value = scan_row(result, p["delta"])
            row.expect("closed.max_phonon", value,
                       detuning_max_phonon(p["delta"], p["nu"]), SOLVER_TOL)
        return [row]


def delay_pair(which, dt):
    return {"G1": (dt, 0.0), "G2": (0.0, dt), "both": (dt, dt)}[which]


def delay_final_p2(p, delays=None):
    times = np.linspace(-DELAY_PAD, 10.0 / p["nu"] + DELAY_PAD, N_POINTS)
    pops = oracles.single_excitation_populations(
        times, p["delta"], p["nu"], delays or delay_pair(p["which"], p["dt"]))
    return pops[-1, 2]


def detuning_max_phonon(delta, nu):
    times = np.linspace(0.0, 10.0 / nu, N_POINTS)
    return oracles.single_excitation_populations(times, delta, nu)[:, 1].max()


# -- open system (Lindblad) --------------------------------------------------------

class OpenLindblad(Workload):
    """run_decay_scan, one kappa per call, both protocols at the default (2,6,2);
    one task per block uses the larger (3,8,3) truncation (72-dim matrices)."""

    name = "open-lindblad"
    # not scaled: threaded BLAS dominates, and its own times are what a BLAS
    # threading change must move; neither the BLAS-free kernel nor a threaded
    # matmul timed in a helper process narrowed the spread of its latencies
    scaled = False
    KAPPA_BINS = {"lo": (0.002, 0.006), "mid": (0.006, 0.015), "hi": (0.015, 0.04)}
    # costs: adiabatic ~0.4 s, tqd ~1.1 s, (3,8,3) ~3.5 s; three tqd points put
    # the latency median inside the tqd cluster
    block = ("tqd-lo", "adiabatic-lo", "tqd-mid", "adiabatic-hi", "tqd-hi",
             "adiabatic-mid-383")

    def draw(self, rng, stratum):
        protocol, kappa_bin, *large = stratum.split("-")
        return {"protocol": protocol, "kappa": log_uniform(rng, *self.KAPPA_BINS[kappa_bin]),
                "dims": (3, 8, 3) if large else (2, 6, 2)}

    def warm_up(self, pkg, workdir):
        dims = (2, 6, 2)
        schedule = pkg.engine.synthesize_tqd_pulses(2.0, DECAY_DELTA)
        config = pkg.core.SystemConfig(
            schedule, pkg.core.Dissipation(0.01, 0.01, GAMMA_M, N_TH), dims)
        rho0 = pkg.dynamics.density_from_pure(pkg.dynamics.fock_state(dims, (1, 0, 0)))
        pkg.dynamics.evolve_lindblad(
            pkg.dynamics.build_h3(schedule, DECAY_DELTA, DECAY_DELTA, dims),
            config, rho0, pkg.core.TimeGrid(0.0, 0.01, 3))

    def run(self, pkg, task, workdir):
        p = task.params
        return pkg.experiments.run_decay_scan(
            [p["kappa"]], p["protocol"], nu=DECAY_NU[p["protocol"]], delta=DECAY_DELTA,
            dims=p["dims"], gamma_m=GAMMA_M, n_th=N_TH, n_points=DECAY_N_POINTS,
            workers=1)

    def check(self, task, result, workdir):
        p = task.params
        row, value = scan_row(result, p["kappa"])
        _, fidelity = decay_oracle(p["protocol"], p["kappa"], GAMMA_M, N_TH)
        row.expect("open.fidelity", value, fidelity, TRUNCATION_TOL_F)
        return [row]


def decay_oracle(protocol, kappa, gamma_m, n_th):
    nu = DECAY_NU[protocol]
    return oracles.gaussian_transfer(protocol, kappa, nu, DECAY_DELTA, gamma_m,
                                     n_th, t_end=10.0 / nu)


# -- command line with a process pool --------------------------------------------

class CliPool(Workload):
    """stacontrol.cli.main in-process with a generated --config, --workers 2
    and --save-trajectories, cycling through scan-delay (G1, then both),
    scan-detuning and scan-decay."""

    name = "cli-pool"
    # pool workers and this process share both CPUs; the calibration kernel
    # did not track these task times (log-log slope 0.4), so they stay unscaled
    scaled = False
    WORKERS = 2
    block = ("delay-G1", "detuning", "delay-both", "decay")

    def draw(self, rng, stratum):
        nu = rng.uniform(1.95, 2.05)
        if stratum.startswith("delay"):
            return {"cmd": "scan-delay", "pulse": stratum.split("-")[1], "nu": nu,
                    "delta": rng.uniform(24.0, 28.0),
                    "values": [signed(rng, 0.05, 0.6) for _ in range(2)]}
        if stratum == "detuning":
            return {"cmd": "scan-detuning", "nu": nu,
                    "values": [log_uniform(rng, 30.0, 45.0), log_uniform(rng, 100.0, 150.0)]}
        # the bath (gamma_m * n_th) sets the truncation error almost alone, so
        # it stays at the scenario default and only kappa is drawn
        return {"cmd": "scan-decay", "gamma_m": GAMMA_M, "n_th": N_TH,
                "values": [log_uniform(rng, 0.002, 0.02)]}

    def rows(self, task):
        per_value = 2 if task.params["cmd"] == "scan-decay" else 1  # both protocols
        return per_value * len(task.params["values"])

    def warm_up(self, pkg, workdir):
        config = write_config(workdir / "warm_up.yaml", {"schedule": {"nu": 2.0,
                                                                      "delta": 40.0}})
        with contextlib.redirect_stdout(io.StringIO()):
            rc = pkg.cli.main(["derive-pulse", "--config", str(config), "--points", "11",
                               "--out", str(workdir / "warm_up")])
        if rc != 0:
            raise RuntimeError(f"derive-pulse warm-up exited with {rc}")

    def argv(self, task, workdir):
        p = task.params
        out = workdir / f"task_{task.id:04d}"
        if p["cmd"] == "scan-decay":
            config = {"dissipation": {"gamma_m": p["gamma_m"], "n_th": p["n_th"]}}
        elif p["cmd"] == "scan-delay":
            config = {"schedule": {"nu": p["nu"], "delta": p["delta"]}}
        else:
            config = {"schedule": {"nu": p["nu"]}}
        path = write_config(workdir / f"task_{task.id:04d}.yaml", config)
        argv = [p["cmd"], "--config", str(path), "--out", str(out),
                "--workers", str(self.WORKERS), "--save-trajectories",
                "--values", *[repr(v) for v in p["values"]]]
        if p["cmd"] == "scan-delay":
            argv += ["--pulse", p["pulse"]]
        return argv, out

    def run(self, pkg, task, workdir):
        argv, _ = self.argv(task, workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = pkg.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"{argv[0]} exited with {rc}")
        return rc

    def check(self, task, result, workdir):
        p = task.params
        _, out = self.argv(task, workdir)
        checker = {"scan-delay": self._check_delay, "scan-detuning": self._check_detuning,
                   "scan-decay": self._check_decay}[p["cmd"]]
        return checker(p, out)

    @staticmethod
    def _check_params(row, got, wanted):
        if abs(got - wanted) > CSV_TOL * abs(wanted):
            row.failures.append("cli.csv_parameter")

    def _check_delay(self, p, out):
        header, table = read_csv(out / "scan_delay.csv")
        assert_header(header, ["delta_t", "final_p2", "convergence_delta"])
        rows = []
        for i, (dt, final_p2, delta) in enumerate(table):
            row = Row()
            self._check_params(row, dt, p["values"][i])
            if not delta <= CONVERGENCE_TOL:
                row.failures.append("scan.convergence_delta")
            point = {"which": p["pulse"], "delta": p["delta"], "nu": p["nu"], "dt": dt}
            row.expect("closed.final_p2", final_p2, delay_final_p2(point), SOLVER_TOL)
            traj = read_csv(out / f"trajectory_{i:03d}.csv")[1]
            if abs(traj[-1, 3] - final_p2) > CSV_TOL:
                saved_as_g2 = delay_final_p2(point, delays=(0.0, dt))
                known = p["pulse"] == "both" and abs(traj[-1, 3] - saved_as_g2) <= SOLVER_TOL
                row.failures.append("cli.delay-both-trajectory" if known
                                    else "cli.trajectory_mismatch")
            rows.append(row)
        return rows

    def _check_detuning(self, p, out):
        header, table = read_csv(out / "scan_detuning.csv")
        assert_header(header, ["delta", "max_phonon", "convergence_delta",
                               "detuning_ratio"])
        rows = []
        for i, (delta, max_phonon, conv, _) in enumerate(table):
            row = Row()
            self._check_params(row, delta, p["values"][i])
            if not conv <= CONVERGENCE_TOL:
                row.failures.append("scan.convergence_delta")
            row.expect("closed.max_phonon", max_phonon,
                       detuning_max_phonon(delta, p["nu"]), SOLVER_TOL)
            traj = read_csv(out / f"trajectory_{i:03d}.csv")[1]
            if abs(traj[:, 2].max() - max_phonon) > CSV_TOL:
                row.failures.append("cli.trajectory_mismatch")
            rows.append(row)
        return rows

    def _check_decay(self, p, out):
        header, table = read_csv(out / "scan_decay.csv")
        protocols = ["adiabatic", "tqd"]
        assert_header(header, ["kappa", "F_adiabatic", "F_tqd",
                               "convergence_delta_adiabatic", "convergence_delta_tqd"])
        rows = []
        for i, (kappa, *values) in enumerate(table):
            for j, protocol in enumerate(protocols):
                row = Row()
                self._check_params(row, kappa, p["values"][i])
                if not values[2 + j] <= CONVERGENCE_TOL:
                    row.failures.append("scan.convergence_delta")
                occupations, fidelity = decay_oracle(protocol, kappa, p["gamma_m"],
                                                     p["n_th"])
                row.expect("open.fidelity", values[j], fidelity, TRUNCATION_TOL_F)
                traj = read_csv(out / f"trajectory_{protocol}_{i:03d}.csv")[1]
                for got, exact in zip(traj[-1, 1:], occupations):
                    row.expect("open.occupation", got, exact, TRUNCATION_TOL_N)
                rows.append(row)
        return rows


def write_config(path: Path, data: dict) -> Path:
    lines = []
    for section, fields in data.items():
        lines.append(f"{section}:")
        lines += [f"  {key}: {value!r}" for key, value in fields.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        table = np.array([[float(x) for x in line] for line in reader], dtype=float)
    return header, table


def assert_header(header, expected):
    if header != expected:
        raise ValueError(f"unexpected CSV header {header}, expected {expected}")


WORKLOADS = {w.name: w for w in (Amplitude(), ClosedFock(), OpenLindblad(), CliPool())}
