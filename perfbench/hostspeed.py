"""Host-speed sampling, so timings from a drifting shared host compare.

On a small shared host the same code can take twice as long in one minute
as in the next.  ``HostSampler`` runs a fixed calibration kernel
(small numpy operations and small Python objects, the same mix of
per-call overhead, allocation and tiny arithmetic that densecil spends its
time on) from a wall-clock timer signal, in the benchmark's own thread,
while the workload runs.  An operation's time is then reported in
reference milliseconds: its wall time minus the samples taken inside it,
divided by the mean kernel time around it (the mean, like the operation's
own time, integrates short bursts of contention), times the kernel's time
on the reference host.  A program that gets faster still reads faster; a
host that slows down reads the same.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

REFERENCE_KERNEL_MS = 2.5   # kernel mean on a quiet 2-core 2.0 GHz Xeon VM
INTERVAL_S = 0.1            # one sample every 100 ms of wall time
WINDOW_S = 0.25             # samples this close to an interval describe it


class _Node:
    __slots__ = ("value", "parent", "backward")

    def __init__(self, value, parent, backward):
        self.value = value
        self.parent = parent
        self.backward = backward


class _Kernel:
    """Fixed work in two parts, each about half of a sample.

    Array part: matmul, exp, row norms, softmax and concat on tiny arrays.
    Object part: a chain of small slotted objects holding closures and a
    dict over them, like the graph records an autodiff builds.
    """

    def __init__(self, iterations: int = 20, nodes: int = 1500):
        rng = np.random.default_rng(0)
        self.x0 = rng.standard_normal((16, 64))
        self.w = rng.standard_normal((64, 64)) / 8.0
        self.q = rng.standard_normal((4, 16, 16))
        self.iterations = iterations
        self.nodes = nodes

    def __call__(self) -> float:
        x = self.x0
        for _ in range(self.iterations):
            h = np.exp(-np.abs(x @ self.w))
            x = (h - h.mean(axis=-1, keepdims=True)) / (h.std(axis=-1, keepdims=True) + 1e-5)
            s = self.q @ self.q.swapaxes(1, 2)
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            e /= e.sum(axis=-1, keepdims=True)
            x = np.concatenate([x[:, j:j + 16] for j in range(0, 64, 16)], axis=1)
        chain: list[_Node] = []
        for i in range(self.nodes):
            chain.append(_Node(i, chain[-1] if chain else None, lambda g, i=i: (g + i,)))
        index = {id(n): n for n in chain}
        return float(x[0, 0] + e[0, 0, 0]) + len(index)


class HostSampler:
    """Times the calibration kernel every ``INTERVAL_S`` while started.

    Uses ``SIGALRM``, so it must run in the main thread, and nothing else
    in the process may use that signal while it runs.
    """

    def __init__(self, kernel=None):
        self.kernel = kernel or _Kernel()
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # The kernel frees its objects by reference counting; with the cycle
        # collector off, its time does not depend on the program's heap.
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.kernel()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "HostSampler":
        self.kernel()                                   # warm the kernel's code paths
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_ms(self, start: float, end: float) -> float:
        """Milliseconds the interval would take on the reference host."""
        inside = [d for t, d in self.samples if start <= t < end]
        net = (end - start) - sum(inside)
        near = [d for t, d in self.samples if start - WINDOW_S <= t < end + WINDOW_S]
        if not near and self.samples:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        if not near:
            return 1000.0 * net
        return 1000.0 * net * REFERENCE_KERNEL_MS / (1000.0 * statistics.fmean(near))
