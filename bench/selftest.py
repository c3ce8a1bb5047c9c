"""Tests of the benchmark harness itself (not collected by the package's suite).

    python3 -m pytest bench/selftest.py

They check that the oracles agree with independent references, that a
perturbed program result trips the oracle check, that no BLAS thread does
calibration work, that every metric named in BENCHMARK.json is emitted, that
traced self times add up to the traced point time, and that the benchmark
refuses to run without the package source.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from run import THREAD_ENV  # noqa: E402
from stacontrol import cli, core, dynamics, engine, experiments  # noqa: E402

PKG = SimpleNamespace(cli=cli, core=core, dynamics=dynamics, engine=engine,
                      experiments=experiments)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seconds=0, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def first_task(workload, stratum):
    assert stratum in workload.block
    return next(t for t in workload.tasks(random.Random(0)) if t.stratum == stratum)


# -- oracles against independent references ----------------------------------

def test_single_excitation_oracle_matches_tight_runge_kutta():
    delta, nu, delays = 40.0, 2.0, (0.3, 0.0)
    times = np.linspace(-2.0, 7.0, 201)

    def rhs(t, v):
        g1, g2 = oracles.pulse_pair("tqd", t, nu, delta, delays=delays)
        return -1j * np.array([delta * v[0] + g1 * v[1], g1 * v[0] + g2 * v[2],
                               g2 * v[1] + delta * v[2]])

    sol = solve_ivp(rhs, (times[0], times[-1]), np.array([1, 0, 0], complex),
                    t_eval=times, method="DOP853", rtol=1e-12, atol=1e-14)
    reference = np.abs(sol.y.T) ** 2
    got = oracles.single_excitation_populations(times, delta, nu, delays)
    assert np.max(np.abs(got - reference)) < 1e-9


def test_gaussian_fidelity_matches_converged_lindblad_values():
    # converged Lindblad runs at growing truncation approach these values
    _, f_tqd = oracles.gaussian_transfer("tqd", 0.01, 2.0, 40.0, 5e-4, 100.0, 5.0)
    _, f_ad = oracles.gaussian_transfer("adiabatic", 0.01, 0.5, 40.0, 5e-4, 100.0, 20.0)
    assert abs(f_tqd - 0.9404958) < 1e-6
    assert abs(f_ad - 0.54522) < 1e-4


def test_gaussian_transfer_without_loss_is_the_closed_transfer():
    occ, fid = oracles.gaussian_transfer("tqd", 0.0, 2.0, 40.0, 0.0, 0.0, 5.0)
    closed = oracles.single_excitation_populations(np.linspace(0, 5.0, 2001), 40.0, 2.0)
    assert np.max(np.abs(occ - closed[-1])) < 1e-8
    assert abs(fid - closed[-1, 2]) < 1e-8  # one photon, no noise: F = <n2>


# -- a perturbed result trips the oracle check ---------------------------------

def perturbed_scan(result, amount):
    (param, value, delta), = result.rows
    return replace(result, rows=((param, value + amount, delta),))


def test_amplitude_check_trips_on_perturbed_populations():
    wl = workloads.WORKLOADS["amplitude"]
    task = first_task(wl, "c-lo")
    result = wl.run(PKG, task, None)
    assert wl.check(task, result, None)[0].failures == []
    pops = result.tqd.populations.copy()
    pops[-1, 2] += 1e-4
    bad = replace(result, tqd=replace(result.tqd, populations=pops))
    assert "amplitude.tqd_populations" in wl.check(task, bad, None)[0].failures


@pytest.mark.parametrize("name, stratum, amount, check", [
    ("closed-fock", "det-a", 1e-4, "closed.max_phonon"),
    ("open-lindblad", "adiabatic-hi", 0.1, "open.fidelity"),
])
def test_scan_check_trips_on_perturbed_row(name, stratum, amount, check):
    wl = workloads.WORKLOADS[name]
    task = first_task(wl, stratum)
    result = wl.run(PKG, task, None)
    assert wl.check(task, result, None)[0].failures == []
    assert check in wl.check(task, perturbed_scan(result, amount), None)[0].failures


def test_cli_check_flags_known_defect_and_perturbed_outputs(tmp_path):
    wl = workloads.WORKLOADS["cli-pool"]
    g1, both = first_task(wl, "delay-G1"), first_task(wl, "delay-both")
    for task in (g1, both):
        wl.run(PKG, task, tmp_path)
    assert all(r.failures == [] for r in wl.check(g1, 0, tmp_path))
    # the documented defect: `--pulse both` trajectories are run with (0, dt)
    assert all(r.failures == ["cli.delay-both-trajectory"]
               for r in wl.check(both, 0, tmp_path))

    out = tmp_path / f"task_{g1.id:04d}"
    traj = out / "trajectory_000.csv"
    lines = traj.read_text().splitlines()
    *head, last = lines[-1].split(",")
    lines[-1] = ",".join(head + [repr(float(last) + 1e-3)])
    traj.write_text("\n".join(lines) + "\n")
    table = out / "scan_delay.csv"
    lines = table.read_text().splitlines()
    dt, p2, conv = lines[2].split(",")
    lines[2] = ",".join([dt, repr(float(p2) + 1e-4), conv])
    table.write_text("\n".join(lines) + "\n")
    first, second = wl.check(g1, 0, tmp_path)
    assert first.failures == ["cli.trajectory_mismatch"]
    assert "closed.final_p2" in second.failures
    assert not set(first.failures + second.failures) & workloads.KNOWN_DEFECTS


# -- the calibration stays out of the package's reach ---------------------------

KERNEL_THREADS_PROBE = """
import os, sys
sys.path.insert(0, {bench!r})
import calibration

def other_threads_ticks():
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if tid != str(os.getpid()):
            with open(f"/proc/self/task/{{tid}}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime + stime
    return total

before = other_threads_ticks()
for _ in range(100):
    calibration.kernel()
print(len(os.listdir("/proc/self/task")), other_threads_ticks() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_calibration_kernel_uses_no_blas_thread():
    # The kernel shares the benchmarked process.  If BLAS threads did any of its
    # work, a package change to BLAS threading would move the kernel with the
    # task and the scale would divide the change out.  With several BLAS threads
    # available, no thread but the caller's may get CPU time during the kernel
    # (a 160x160 complex matmul kernel got about 6 ticks on a 2-vCPU VM).
    threads = max(2, os.cpu_count() or 1)
    env = dict(os.environ, **{k: str(threads) for k in THREAD_ENV})
    proc = subprocess.run(
        [sys.executable, "-c", KERNEL_THREADS_PROBE.format(bench=str(BENCH_DIR))],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    n_threads, other_ticks = map(int, proc.stdout.split())
    assert n_threads > 1  # the BLAS threads exist
    assert other_ticks == 0


# -- the runner's contract -------------------------------------------------------

def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_is_emitted(workload):
    record, result = result_of(run_bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert {"nproc", "blas", "thread_env", "numpy", "scipy", "git_commit",
            "loadavg_at_start"} <= set(record["machine"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_layer_metric_is_emitted(workload):
    record, result = result_of(run_bench(workload, trace=1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] is True
    # self times partition the traced point time
    assert abs(record["details"]["self_s_sum_over_point_s"] - 1.0) < 1e-6
    assert abs(sum(record["details"]["self_s_by_layer"].values())
               - result["metrics"]["experiments.point_s"]["value"]
               * (result["attempted"] / 2)) < 1e-6


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("amplitude", trace=0, cwd=tmp_path,
                     script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
