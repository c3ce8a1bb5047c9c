"""The benchmark's span tracer still installs on the package and survives a
pooled scan.  It wraps module attributes by name (``cli.decay_run``,
``experiments._map_ordered``, ...) with closures that cannot be pickled, so a
renamed attribute or a function object among the pool's items shows here."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from stacontrol import cli, core, dynamics, engine, experiments

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pooled_delay_scan_under_tracer():
    tracing = load_tracer()
    tracer = tracing.Tracer()
    modules = SimpleNamespace(cli=cli, core=core, dynamics=dynamics, engine=engine,
                              experiments=experiments)
    try:
        tracing.install(tracer, modules)
        result = experiments.run_delay_scan([0.0, 0.2], "G1", n_points=101, workers=2)
    finally:
        tracer.restore()
    assert len(result.rows) == 2 and len(result.trajectories) == 2
    assert tracer.calls("experiments._map_ordered") == 1
    assert tracer.pool_wall_s > 0
    assert experiments.run_delay_scan.__module__ == "stacontrol.experiments"
