"""stacontrol benchmark: four workloads across the three pictures.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.  The
workloads (``amplitude``, ``closed-fock``, ``open-lindblad``, ``cli-pool``)
are described in ``workloads.py``; ``README.md`` says which layer metric
should move which end-to-end metric on which workload.

``--trace 0`` measures the end-to-end metrics.  Tasks drawn from the seed run
back to back, in whole blocks (one task per stratum), until S seconds of task
time have been measured.  Right after each task its output is checked against
the oracles in ``oracles.py``, outside the timed section, and the result is
dropped.  On ``amplitude`` and ``closed-fock``, task wall and CPU times are
scaled by the machine-speed calibration of ``calibration.py`` taken around the
task (see ``assign_scales``), and the unscaled figures are in the details line;
``open-lindblad`` and ``cli-pool`` report the program's own times.

* ``setup_s``: import plus the workload's first call, median of one in-process
  and two fresh-interpreter set-ups (each scaled by a calibration taken after
  it).
* ``points_per_s``: scan rows per second of task time; every row includes its
  rtol/2 rerun, and on ``cli-pool`` its trajectory rerun and CSV output.
* ``point_s_p50`` / ``point_s_p90``: per-row latency (a task's time divided by
  its rows), median and 90th percentile.
* ``cpu_s``: user+sys CPU seconds of the process and its children, per row.
* ``peak_rss_mb``: the larger of the peak resident set size of this process and
  of its largest child (the pool workers on ``cli-pool``).
* ``max_abs_err``: largest deviation from an oracle within a block, median
  over the run's blocks (the run's overall largest is in the details).
* ``ok_frac``: rows that neither raised nor failed a check, over rows attempted
  (``1 - failed_frac``).

``--trace 1`` runs the first blocks untraced, then the same tasks again with
the layer boundaries wrapped by ``tracer.py``, and reports the per-layer
metrics per scan row, plus the traced time against the untraced time.

Standard output ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the machine record and the
run's details.  Both are also written under ``.bench_out/``, with the span
trace of a traced run.  Without the package source the exit code is 2.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("amplitude", "closed-fock", "open-lindblad", "cli-pool")
SETUP_PROBES = 2          # extra set-ups in fresh interpreters; setup_s is the median
CALIBRATION_WINDOW_S = 1.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


@dataclass
class Done:
    task: object
    wall: float       # task wall seconds, unscaled
    cpu: float        # CPU seconds of the process and its children, unscaled
    scale: float      # calibration reference / kernel time around the task, or 1
    rows: list        # oracle-checked rows of the task
    mid: float        # perf_counter() at the middle of the task

    @property
    def scaled_wall(self):
        return self.wall * self.scale


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(workload_name, workdir):
    """Import the package and make the workload's first call; returns
    (seconds, package modules, workloads module)."""
    start = perf_counter()
    from stacontrol import cli, core, dynamics, engine, experiments

    import workloads
    pkg = SimpleNamespace(cli=cli, core=core, dynamics=dynamics, engine=engine,
                          experiments=experiments)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workloads.WORKLOADS[workload_name].warm_up(pkg, workdir)
    return perf_counter() - start, pkg, workloads


def scaled_setup(workload_name, workdir):
    seconds, pkg, workloads = setup(workload_name, workdir)
    import calibration
    scale = calibration.scale()
    return seconds * scale, seconds, pkg, workloads


def probe_setup(workload_name) -> tuple[float, float]:
    """(scaled, unscaled) set-up seconds in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", "0", "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    scaled, raw = proc.stdout.split()[-2:]
    return float(scaled), float(raw)


def cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def check_task(workloads, workload, task, result, error, workdir):
    """Oracle check of one task; one Row per scan row."""
    n = workload.rows(task)
    if error is not None:
        return [workloads.Row(failures=[f"run raised {error}"]) for _ in range(n)]
    try:
        rows = workload.check(task, result, workdir)
    except Exception as exc:  # unreadable output fails its rows
        return [workloads.Row(failures=[f"check raised {type(exc).__name__}: {exc}"])
                for _ in range(n)]
    if len(rows) != n:
        return [workloads.Row(failures=[f"expected {n} rows, got {len(rows)}"])
                for _ in range(n)]
    return rows


def execute(workloads, workload, pkg, tasks, workdir, seconds=None, call=None):
    """Run tasks back to back with a calibration after each, and check each task
    right after it.  With `seconds`, stop at the first block boundary after
    that much task time, so every run measures whole blocks (the same mix of
    strata).  Returns the finished tasks, the calibration samples and the
    warnings raised, by category."""
    import calibration

    call = call or workload.run
    reference = calibration.REFERENCE_S if workload.scaled else 1.0

    def sample():
        return perf_counter(), calibration.kernel_s() if workload.scaled else 1.0

    done = []
    measured = 0.0
    samples = [sample()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for task in tasks:
            cpu0 = cpu_s()
            t0 = perf_counter()
            try:
                result, error = call(pkg, task, workdir), None
            except Exception as exc:  # a failed point is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            cpu = cpu_s() - cpu0
            samples.append(sample())
            rows = check_task(workloads, workload, task, result, error, workdir)
            done.append(Done(task, t1 - t0, cpu, 1.0, rows, (t0 + t1) / 2))
            measured += t1 - t0
            if (seconds is not None and len(done) % len(workload.block) == 0
                    and measured >= seconds):
                break
    assign_scales(done, samples, reference)
    return done, samples, collections.Counter(w.category.__name__ for w in caught)


def assign_scales(done, samples, reference_s):
    """Scale each task by the reference over the mean kernel time of the
    calibrations right before and after it and of any other taken within
    CALIBRATION_WINDOW_S of its midpoint.  A shared machine's speed can switch
    within a second, so several samples estimate a long task's average speed better
    than its two endpoints."""
    for i, d in enumerate(done):
        near = [k for j, (t, k) in enumerate(samples)
                if j in (i, i + 1) or abs(t - d.mid) <= CALIBRATION_WINDOW_S]
        d.scale = reference_s / statistics.fmean(near)


def summarize_rows(workloads, rows):
    failures = collections.Counter(f for r in rows for f in set(r.failures))
    worst: dict[str, float] = {}
    for r in rows:
        for name, err in r.errors.items():
            worst[name] = max(err, worst.get(name, 0.0))
    return {
        "rows": len(rows),
        "failed": sum(1 for r in rows if r.failures),
        "failures": dict(failures),
        "unexpected_failures": sorted(set(failures) - workloads.KNOWN_DEFECTS),
        "max_err_by_check": worst,
    }


def percentile_90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] \
        if len(values) > 1 else values[0]


def measure(args, pkg, workloads, workload, workdir, setups):
    tasks = workload.tasks(random.Random(args.seed))
    done, samples, caught = execute(workloads, workload, pkg, tasks, workdir,
                                    seconds=args.seconds)
    peak_rss_mb = max(resource.getrusage(who).ru_maxrss for who in
                      (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    rows = [r for d in done for r in d.rows]
    summary = summarize_rows(workloads, rows)
    n = summary["rows"]
    latency = [d.scaled_wall / len(d.rows) for d in done for _ in d.rows]
    raw_latency = [d.wall / len(d.rows) for d in done for _ in d.rows]
    blocks = collections.defaultdict(list)
    for d in done:
        blocks[d.task.id // len(workload.block)] += [e for r in d.rows
                                                     for e in r.errors.values()]
    block_max = [max(errs) for errs in blocks.values() if errs]
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "points_per_s": (n / sum(d.scaled_wall for d in done), "1/s"),
        "point_s_p50": (statistics.median(latency), "s"),
        "point_s_p90": (percentile_90(latency), "s"),
        "cpu_s": (sum(d.cpu * d.scale for d in done) / n, "s/row"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "max_abs_err": (statistics.median(block_max) if block_max else 0.0, "1"),
        "ok_frac": (1.0 - summary["failed"] / n, "1"),
    }
    details = dict(
        summary, tasks=len(done), blocks=len(blocks),
        unscaled={"setup_s": statistics.median(r for _, r in setups),
                  "points_per_s": n / sum(d.wall for d in done),
                  "point_s_p50": statistics.median(raw_latency),
                  "point_s_p90": percentile_90(raw_latency),
                  "cpu_s": sum(d.cpu for d in done) / n},
        speed_scale={"min": min(d.scale for d in done),
                     "median": statistics.median(d.scale for d in done),
                     "max": max(d.scale for d in done)},
        setup_samples_s=setups, warnings=dict(caught))
    raw = {"calibration": samples,
           "tasks": [{"stratum": d.task.stratum, "mid": d.mid, "wall": d.wall, "cpu": d.cpu,
                      "rows": len(d.rows), "scale": d.scale} for d in done]}
    correct = not summary["unexpected_failures"] and bool(block_max)
    return correct, n, summary["failed"], metrics, details, raw


def layer_metrics(tracer, rows, untraced_s, traced_s):
    def per_row(x):
        return x / rows

    m = {}
    for name in ("core.couplings", "core.coupling_rates",
                 "engine.counterdiabatic_matrix", "engine.build_adiabatic_matrix"):
        m[f"{name}.calls"] = (per_row(tracer.calls(name)), "count/row")
        m[f"{name}.self_s"] = (per_row(tracer.self_s(name)), "s/row")
    m["dynamics.nfev"] = (tracer.nfev, "count")
    m["dynamics.nfev_per_point"] = (per_row(tracer.nfev), "count/row")
    m["dynamics.us_per_rhs"] = (1e6 * tracer.solve_s / tracer.nfev if tracer.nfev else 0.0,
                                "us")
    for name in ("dynamics.h_fn", "dynamics.propagate_amplitudes",
                 "dynamics.evolve_schrodinger", "dynamics.evolve_lindblad"):
        m[f"{name}.self_s"] = (per_row(tracer.self_s(name)), "s/row")
    m["experiments.point_s"] = (per_row(tracer.total_s("bench.task")), "s/row")
    m["experiments.convergence_rerun_frac"] = (
        tracer.nfev_rerun / tracer.nfev if tracer.nfev else 0.0, "1")
    m["experiments.pool.wall_s"] = (per_row(tracer.pool_wall_s), "s/row")
    m["experiments.pool.children_cpu_s"] = (per_row(tracer.pool_children_cpu_s), "s/row")
    m["experiments.pool.cpu_per_wall"] = (
        tracer.pool_children_cpu_s / tracer.pool_wall_s if tracer.pool_wall_s else 0.0, "1")
    m["config.resolve_s"] = (per_row(tracer.total_s("config.resolve")), "s/row")
    m["config.manifest_s"] = (per_row(tracer.total_s("config.make_manifest")
                                      + tracer.total_s("config.write_manifest")), "s/row")
    m["cli.write_s"] = (per_row(tracer.total_s("cli.write_csv")), "s/row")
    m["cli.csv_bytes"] = (per_row(tracer.csv_bytes), "B/row")
    m["cli.trajectory_rerun_points"] = (per_row(tracer.calls("cli.trajectory_rerun")),
                                        "count/row")
    m["trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "1")
    return m


def measure_traced(args, pkg, workloads, workload, workdir):
    import tracer as tracing

    tasks = workload.tasks(random.Random(args.seed))
    block = [next(tasks) for _ in range(len(workload.block) * workload.trace_blocks)]
    done_plain, _, _ = execute(workloads, workload, pkg, block, workdir)

    tracer = tracing.Tracer()
    root = tracer.wrap(workload.run, "bench.task")

    def traced_call(pkg_, task, workdir_):
        tracer.point = task.id
        return root(pkg_, task, workdir_)

    tracing.install(tracer, pkg)
    try:
        done, _, caught = execute(workloads, workload, pkg, block, workdir,
                                  call=traced_call)
    finally:
        tracer.restore()
    traced_rows = [r for d in done for r in d.rows]
    summary = summarize_rows(workloads, [r for d in done_plain for r in d.rows]
                             + traced_rows)

    untraced_s = sum(d.scaled_wall for d in done_plain)
    traced_s = sum(d.scaled_wall for d in done)
    root_s = tracer.total_s("bench.task")
    self_sum = sum(st[2] for st in tracer.stats.values())
    metrics = layer_metrics(tracer, len(traced_rows), untraced_s, traced_s)
    details = dict(summary, tasks=len(block), untraced_s=untraced_s, traced_s=traced_s,
                   self_s_sum_over_point_s=self_sum / root_s, warnings=dict(caught),
                   self_s_by_layer={k: v[2] for k, v in sorted(tracer.stats.items())})
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed})
    details["trace_file"] = str(trace_path.relative_to(ROOT))
    correct = not summary["unexpected_failures"] and abs(self_sum / root_s - 1) < 1e-6
    return correct, summary["rows"], summary["failed"], metrics, details, {}


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(load_at_start):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    digest = hashlib.sha256()
    for path in sorted((SRC / "stacontrol").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "platform": platform.platform(),
    }


def run(args, workdir):
    load = os.getloadavg()
    scaled, raw, pkg, workloads = scaled_setup(args.workload, workdir)
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        correct, attempted, failed, metrics, details, raw = measure_traced(
            args, pkg, workloads, workload, workdir)
    else:
        setups = [(scaled, raw)] + [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
        correct, attempted, failed, metrics, details, raw = measure(
            args, pkg, workloads, workload, workdir, setups)
    result = {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(load), "details": details}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(record, result=result, raw=raw)) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stacontrol" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'stacontrol'}; run the benchmark "
              "from the root of a stacontrol checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            scaled, raw = scaled_setup(args.workload, workdir)[:2]
            print(repr(scaled), repr(raw))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
