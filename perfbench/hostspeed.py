"""Host speed sampling, so that reported times do not follow the host's load.

The benchmark runs on a few cores of a shared host. How fast those cores run
drifts by up to about 2x over seconds to minutes, with the load that other
tenants put on the same physical cores, and the program's wall time drifts
with it. A run therefore also measures the host: while a timed section runs,
``SIGALRM`` fires every ``INTERVAL_S`` and its handler times one of two fixed
reference kernels, in turn. Both kernels belong to the benchmark, so no change
to otrank changes them. One is a small-matrix Sinkhorn loop whose cost is
interpreter overhead, like otrank's alignment and training steps; the other is
a BERT-width matrix product, like the forward pass at d=768. The handler runs
in the main thread between bytecodes, so it never overlaps the program.

A section's host speed is the weighted mean, over its probes, of the reference
time over the probe time: 1.0 on the reference host, 2.0 on one twice as fast.
Its reference-host time is its wall time less the time spent in the handler,
times that speed: the time it would take on the reference host. The reference
times are the probes' usual times on the machine the benchmark was tuned on
(x86_64, 2 cores shared with other tenants, numpy on one BLAS thread).
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1
# Usual probe times on the reference host, and each kernel's weight in the speed.
REF_PY_S = 4.0e-3
REF_MM_S = 3.0e-3
WEIGHT_PY = 0.6

_rng = np.random.default_rng(20230602)
_COST = _rng.random((9, 14))
_LEFT = _rng.random((64, 768))
_RIGHT = _rng.random((768, 400))


def probe_py(reps: int = 50) -> float:
    """Sinkhorn scaling on a 9x14 plan: many tiny numpy calls."""
    kernel = np.exp(-_COST / 0.1)
    a, b = np.full(9, 1 / 9), np.full(14, 1 / 14)
    total = 0.0
    for _ in range(reps):
        u, v = np.ones(9), np.ones(14)
        for _ in range(10):
            u = a / (kernel @ v)
            v = b / (kernel.T @ u)
        total += float((u[:, None] * kernel * v[None, :]).sum())
    return total


def probe_mm(reps: int = 2) -> float:
    """A 64x768 by 768x400 product: the shape of a batch at BERT width."""
    return sum(float((_LEFT @ _RIGHT).sum()) for _ in range(reps))


class HostSpeed:
    """Samples the host's speed while a timed section runs."""

    def __init__(self):
        probe_py(), probe_mm()  # first calls pay numpy's lazy set-up
        self.py: list[float] = []
        self.mm: list[float] = []
        self.handler_s = 0.0  # time spent in the handler since the last start()
        self.pauses: list[tuple[float, float]] = []  # (entered, left) of each call
        self._ticks = 0

    def _handler(self, signum, frame) -> None:
        entered = time.perf_counter()
        probe, samples = (probe_py, self.py) if self._ticks % 2 == 0 else (probe_mm, self.mm)
        self._ticks += 1
        probe()
        left = time.perf_counter()
        samples.append(left - entered)
        self.handler_s += left - entered
        self.pauses.append((entered, left))

    def start(self) -> None:
        self.py, self.mm, self.handler_s, self.pauses, self._ticks = [], [], 0.0, [], 0
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """Host speed over the probes since start(), relative to the reference host."""
        for probe, samples in ((probe_py, self.py), (probe_mm, self.mm)):
            if not samples:  # a section shorter than the interval: probe after it
                started = time.perf_counter()
                probe()
                samples.append(time.perf_counter() - started)
        py = sum(REF_PY_S / t for t in self.py) / len(self.py)
        mm = sum(REF_MM_S / t for t in self.mm) / len(self.mm)
        return WEIGHT_PY * py + (1.0 - WEIGHT_PY) * mm
