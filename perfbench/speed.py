"""A probe of the CPU speed the process gets, to correct times for host contention.

On a shared host the speed of a vCPU changes by up to half within seconds, as
the host runs other work on the sibling hardware thread, and the guest sees
none of it as steal time: a fixed pure-Python loop took 22 ms or 34 ms in
phases of a few seconds on a 2-vCPU Intel Xeon VM, with equal wall and CPU
time. The two vCPUs change phase independently.

The probe runs a small fixed kernel on a wall-clock timer (SIGALRM) while a
stage runs and records how long it took. The stage's speed is the
time-weighted mean of ``REFERENCE_KERNEL_S / kernel seconds`` over the samples,
and its time at the reference speed is its wall time, less the probe's own
time, times that speed: the time the stage would take on a CPU on which the
kernel takes REFERENCE_KERNEL_S.

Only the main thread runs Python signal handlers, between bytecodes; during a
long C call (a large matmul) the timer's ticks coalesce, and the next sample
is weighted by the whole interval since the previous one.
"""

from __future__ import annotations

import json
import signal
import time

PERIOD_S = 0.02
KERNEL_LOOPS = 750
NUMPY_OPS = 6
REFERENCE_KERNEL_S = 1e-4
# Sixty session-like events: the kernel parses them and counts into a dict.
KERNEL_DOC = json.dumps(
    [{"track": i % 13, "action": ("skip", "play", "replay")[i % 3], "t": i * 0.25}
     for i in range(60)]
)
_numpy = []  # tanh and the numpy operands, made on first use


def kernel(numpy_ops: bool = False) -> float:
    """Interpreter arithmetic, then a JSON parse with dict counting, about half the time each;
    with ``numpy_ops``, then a chain of matmul and tanh on small arrays as well.

    Contention slows different code by different amounts. Against an
    arithmetic loop, seqbundle's autodiff code slows more and its JSONL code
    less; small numpy ops slow more than either. The plain mix tracks the
    JSONL and set-up code, and the numpy chain brings it up to the autodiff
    code of small models.
    """
    s = 0.0
    for i in range(KERNEL_LOOPS):
        s += i * i % 7
    counts = {}
    for event in json.loads(KERNEL_DOC):
        key = (event["track"], event["action"])
        counts[key] = counts.get(key, 0) + event["t"]
    if numpy_ops:
        if not _numpy:
            import numpy as np  # not at import time: the caller pins BLAS threads first

            _numpy.extend([np.tanh, np.full((8, 16), 0.5), np.full((16, 16), 0.01)])
        tanh, x, w = _numpy
        for _ in range(NUMPY_OPS):
            x = tanh(x @ w + 0.1)
        s += float(x[0, 0])
    return s + len(counts)


def kernel_seconds(n: int, warmup: int = 5, numpy_ops: bool = False) -> list[float]:
    """``n`` back-to-back timings of the kernel, after ``warmup`` untimed runs."""
    for _ in range(warmup):
        kernel(numpy_ops)
    out = []
    for _ in range(n):
        start = time.perf_counter()
        kernel(numpy_ops)
        out.append(time.perf_counter() - start)
    return out


class SpeedProbe:
    """Samples the kernel every PERIOD_S of wall time between start() and stop()."""

    def __init__(self, numpy_ops: bool = False) -> None:
        self.numpy_ops = numpy_ops
        self.weights: list[float] = []  # wall seconds each sample stands for
        self.kernels: list[float] = []  # the sample's kernel seconds
        self._last = 0.0
        self._previous = None  # the SIGALRM handler to restore; None while stopped

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel(self.numpy_ops)
        end = time.perf_counter()
        self.weights.append(end - self._last)
        self.kernels.append(end - start)
        self._last = end

    def start(self) -> None:
        self._last = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None

    def speed(self) -> float | None:
        """Time-weighted mean speed relative to the reference, or None without samples."""
        total = sum(self.weights)
        if not total:
            return None
        return sum(w * REFERENCE_KERNEL_S / k for w, k in zip(self.weights, self.kernels)) / total

    def reference_seconds(self, wall_s: float) -> float:
        """``wall_s`` less the probe's own time, at the reference speed."""
        speed = self.speed()
        if speed is None:  # a stage shorter than one period: take the next best estimate
            speed = REFERENCE_KERNEL_S / sorted(kernel_seconds(3, warmup=1, numpy_ops=self.numpy_ops))[1]
        return (wall_s - sum(self.kernels)) * speed
