"""In-memory span tracer that wraps the package's public functions from outside.

Spans are recorded at the module attributes the package's own callers look up
(``experiments.evolve_schrodinger``, ``dynamics.counterdiabatic_matrix``,
``CouplingSchedule.couplings``, the ``h_fn`` closures returned by ``build_h3``,
``cli.decay_run``, ...), so no package file changes.  Every wrapper keeps a
stack of open frames; on exit it adds its duration to its parent's child time,
which makes self times (duration minus time covered by child spans) add up
exactly to the root spans' durations.

Functions called once per right-hand-side evaluation are aggregated (calls,
total and self time) without a span record each; every other call also keeps
a ``(name, start, end, parent, point)`` span.  Spans are kept in memory and
written out by the caller when the run ends.  Spans inside process-pool
workers are not kept: a forked worker puts the original functions back
before it runs anything, and the workers' CPU time is read from
``getrusage(RUSAGE_CHILDREN)`` around each pooled ``_map_ordered`` call.
"""

from __future__ import annotations

import json
import os
import resource
from time import perf_counter

# calls made once per RHS evaluation: aggregated, no per-call span record
HOT = frozenset({"core.couplings", "core.coupling_rates",
                 "engine.counterdiabatic_matrix", "engine.build_adiabatic_matrix",
                 "dynamics.h_fn"})


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # open frames: [name, start, child_s]
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []
        self.point = None                    # id of the task being run
        self.nfev = 0
        self.nfev_rerun = 0
        self.solve_s = 0.0
        self.pool_wall_s = 0.0
        self.pool_children_cpu_s = 0.0
        self.csv_bytes = 0
        # propagator span -> the package default rtol; a solve below it is
        # an rtol/2 convergence rerun
        self.propagator_rtol: dict[str, float] = {}
        self._undo: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, after=None):
        """`fn` timed as span `name`; `after(result, args, kwargs, seconds)`
        runs once the span is closed, with the caller's frame still open."""
        stack, stats, spans = self.stack, self.stats, self.spans
        record = name not in HOT

        def traced(*args, **kwargs):
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                parent = None
                if stack:
                    stack[-1][2] += dur
                    parent = stack[-1][0]
                if record:
                    spans.append((name, frame[1], end, parent, self.point))
            if after is not None:
                after(result, args, kwargs, dur)
            return result

        return traced

    def patch(self, owner, attr, name, fn=None, after=None):
        """Replace `owner.attr` by a traced wrapper of `fn` (default: the
        current attribute); `restore` puts the original back."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(fn or original, name, after))

    def restore(self):
        """Put every patched attribute back (also run in forked children)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def open_propagator(self):
        """Name of the innermost open propagator span, if any."""
        for frame in reversed(self.stack):
            if frame[0] in self.propagator_rtol:
                return frame[0]
        return None

    # -- results -----------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def dump(self, path, extra: dict) -> None:
        data = dict(extra)
        data["stats"] = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                         for k, v in sorted(self.stats.items())}
        data["spans"] = [{"name": n, "start": s, "end": e, "parent": p, "point": pt}
                         for n, s, e, p, pt in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(data, fh)


def install(tracer: Tracer, modules) -> None:
    """Wrap the package's layer boundaries.  `modules` is a namespace with the
    imported ``core``, ``engine``, ``dynamics``, ``experiments`` and ``cli``."""
    core, dynamics, experiments, cli = (modules.core, modules.dynamics,
                                        modules.experiments, modules.cli)
    os.register_at_fork(after_in_child=tracer.restore)
    tracer.propagator_rtol.update({
        "dynamics.propagate_amplitudes": dynamics.RTOL_UNITARY,
        "dynamics.evolve_schrodinger": dynamics.RTOL_UNITARY,
        "dynamics.evolve_lindblad": dynamics.RTOL_LINDBLAD,
    })

    # core: schedule evaluation
    tracer.patch(core.CouplingSchedule, "couplings", "core.couplings")
    tracer.patch(core.CouplingSchedule, "coupling_rates", "core.coupling_rates")

    # engine: generator build and pulse synthesis
    tracer.patch(dynamics, "counterdiabatic_matrix", "engine.counterdiabatic_matrix")
    tracer.patch(experiments, "build_adiabatic_matrix", "engine.build_adiabatic_matrix")
    tracer.patch(experiments, "synthesize_tqd_pulses", "engine.synthesize_tqd_pulses")

    # dynamics: propagators, the integrator and the Hamiltonian closures
    for module in (dynamics, experiments):
        tracer.patch(module, "propagate_amplitudes", "dynamics.propagate_amplitudes")
    tracer.patch(experiments, "propagate_tqd_amplitudes",
                 "dynamics.propagate_tqd_amplitudes")
    tracer.patch(experiments, "evolve_schrodinger", "dynamics.evolve_schrodinger")
    tracer.patch(experiments, "evolve_lindblad", "dynamics.evolve_lindblad")
    build_h3 = experiments.build_h3
    tracer.patch(experiments, "build_h3", "dynamics.build_h3",
                 fn=lambda *a, **k: tracer.wrap(build_h3(*a, **k), "dynamics.h_fn"))

    def count_nfev(sol, args, kwargs, seconds):
        tracer.nfev += sol.nfev
        tracer.solve_s += seconds
        base = tracer.propagator_rtol.get(tracer.open_propagator())
        if base is not None and kwargs.get("rtol", base) < base * (1 - 1e-9):
            tracer.nfev_rerun += sol.nfev

    tracer.patch(dynamics, "solve_ivp", "dynamics.solve_ivp", after=count_nfev)

    # experiments: scenario runners, scans and the (optional) process pool
    for attr in ("run_fig2_scenario", "run_fig4_transfer", "run_delay_scan",
                 "run_detuning_scan", "run_decay_scan"):
        tracer.patch(experiments, attr, f"experiments.{attr}")
    tracer.patch(experiments, "decay_run", "experiments.decay_run")
    map_ordered = experiments._map_ordered

    def pooled_map(fn, items, workers):
        if not (workers and workers > 1):
            return map_ordered(fn, items, workers)
        cpu0, t0 = children_cpu_s(), perf_counter()
        try:
            return map_ordered(fn, items, workers)
        finally:
            tracer.pool_wall_s += perf_counter() - t0
            tracer.pool_children_cpu_s += children_cpu_s() - cpu0

    tracer.patch(experiments, "_map_ordered", "experiments._map_ordered", fn=pooled_map)

    # config and cli: resolution, manifests, CSV output, trajectory reruns
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "_merge_config", "config.resolve")
    tracer.patch(cli, "make_manifest", "config.make_manifest")
    tracer.patch(cli, "write_manifest", "config.write_manifest")

    def count_bytes(result, args, kwargs, seconds):
        tracer.csv_bytes += os.path.getsize(args[0])

    tracer.patch(cli, "_write_csv", "cli.write_csv", after=count_bytes)
    for attr in ("run_fig4_transfer", "decay_run"):
        tracer.patch(cli, attr, "cli.trajectory_rerun")
    for attr in ("run_delay_scan", "run_detuning_scan", "run_decay_scan"):
        tracer.patch(cli, attr, f"experiments.{attr}")
