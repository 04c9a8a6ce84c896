"""A fixed reference workload that scales the benchmark's times to one processor speed.

On a small shared host the processor's speed drifts: a fixed loop can take a
third longer for several seconds, then go back to its usual time. A stage's
wall time then says as much about the host as about the program. So every
timed step runs between two runs of this reference, and the step's reported
time is

    wall seconds x NOMINAL_S / (mean of the two reference times)

that is, the time the step would take on a processor that runs the
reference in NOMINAL_S. Raw wall seconds are kept in the run's record.

The reference mixes the kinds of work the program does: an interpreted
Python loop, small numpy operations called from a Python loop, and
elementwise updates of a 4096 x 32 array, as an optimizer step does. It never
calls ``shiftadapt``, so no change to the program can move it.
"""
from __future__ import annotations

import time

import numpy as np

# The reference's time on the host the benchmark was written on (2-vCPU
# Intel Xeon VM, CPython 3.11, numpy 2.4 with OpenBLAS, one BLAS thread) in
# its usual state, so scaled times are close to wall times there.
NOMINAL_S = 0.030

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((32, 32)) / 8.0
_X = _rng.standard_normal(32)
_G = _rng.standard_normal((4096, 32))


def _python_loop() -> int:
    total = 0
    for i in range(60_000):
        total = (total * 31 + i) & 0xFFFFFFFF
    return total


def _small_arrays() -> float:
    x = _X
    for _ in range(700):
        h = np.tanh(_W @ x)
        x = 0.5 * h + 0.01 * np.outer(h, x)[0]
    return float(x[0])


def _elementwise() -> float:
    m = np.zeros_like(_G)
    v = np.zeros_like(_G)
    for _ in range(4):
        m *= 0.9
        m += 0.1 * _G
        v *= 0.999
        v += 0.001 * _G * _G
        m -= 1e-3 * m / (np.sqrt(v) + 1e-8)
    return float(m[0, 0])


def reference_seconds() -> float:
    """Wall seconds of one run of the reference workload."""
    t0 = time.perf_counter()
    _python_loop()
    _small_arrays()
    _elementwise()
    return time.perf_counter() - t0


class Clock:
    """Times steps in reference-scaled seconds; see the module docstring."""

    # A reference run younger than this still describes the processor, so
    # the next step reuses it as its "before" reference.
    FRESH_S = 0.25

    def __init__(self):
        self._ref = 0.0
        self._ref_at = float("-inf")

    def _reference(self) -> float:
        if time.perf_counter() - self._ref_at > self.FRESH_S:
            self._ref = reference_seconds()
            self._ref_at = time.perf_counter()
        return self._ref

    def time(self, step) -> tuple[float, float]:
        """Run step(); returns (scaled seconds, wall seconds)."""
        before = self._reference()
        t0 = time.perf_counter()
        step()
        wall = time.perf_counter() - t0
        self._ref = after = reference_seconds()
        self._ref_at = time.perf_counter()
        return wall * NOMINAL_S / ((before + after) / 2.0), wall
