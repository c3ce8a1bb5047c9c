"""Machine-speed calibration for the timed metrics of the Python-bound workloads.

The benchmark runs on shared machines whose speed changes by up to a factor
of two within a second (a busy neighbour on the same physical core slows every
instruction, so CPU time inflates as much as wall time).  To keep runs
comparable, a fixed kernel that uses no package code is timed between tasks,
and each task's wall and CPU times are scaled by ``REFERENCE_S / kernel time``.
A slower package still reads slower, because the kernel does not change with
the package; a slower machine cancels out.

The kernel is an adaptive DOP853 solve of a small linear system, bound by
Python call overhead like the amplitude and Schrodinger RHS closures.  It
shares the benchmarked process, so it is kept out of reach of the process
state a package change could set: its right-hand side uses only elementwise
numpy (no BLAS call, so BLAS threading cannot move it), and it runs with the
garbage collector off (so collector settings cannot move it).

Workloads whose time goes to threaded BLAS or to pool workers on both CPUs
(``open-lindblad``, ``cli-pool``) are not scaled: the package's threading is
what those workloads judge, and their unscaled spreads fit their bounds.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp

# the kernel's time on an uncontended 2-vCPU x86-64 VM; scaled times therefore
# read as seconds on that machine at its fast speed
REFERENCE_S = 0.0034
REPEATS = 3

_M = np.array([[0.3, 1.0, 0.0], [1.0, 0.0, 0.7], [0.0, 0.7, 0.3]])


def _rhs(t, v):
    # (M v)_i as an elementwise product and row sum: no BLAS call
    return -1j * ((_M * (1.0 + 0.5 * np.sin(t))) * v).sum(axis=1)


def kernel() -> None:
    solve_ivp(_rhs, (0.0, 6.0), np.array([1.0, 0.0, 0.0], dtype=complex),
              method="DOP853", rtol=1e-8, atol=1e-11)


def kernel_s() -> float:
    """Mean time of a few runs of the kernel, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(REPEATS):
            kernel()
        return (perf_counter() - start) / REPEATS
    finally:
        if enabled:
            gc.enable()


def scale() -> float:
    """REFERENCE_S over the kernel time now: > 1 when the machine is slow."""
    return REFERENCE_S / kernel_s()
