"""Host-speed calibration for timing on a shared machine.

On a small shared host, contention from neighbours changes the speed of the
benchmark's work by tens of percent over tens of seconds, and changes
interpreter loops, big-integer arithmetic, small-matrix numpy calls and text
parsing by different amounts. Two runs of the same code then differ more
than a regression bound allows. So while the benchmark times anything, a
SIGALRM every PERIOD_S runs a short, frozen calibration kernel in the main
thread (between bytecodes, so no thread is started and the program's state
is untouched). Each workload names the kernel whose instruction mix matches
its own: a dense training step, a fixed-point frame, or CSV rows. Every
reported time is scaled to the host speed at which that kernel takes its
reference time:

    time * reference_s / (median kernel time within WINDOW_S of the interval)

Handler time inside an interval is subtracted from it. The kernels are part
of the benchmark, not of fcdsae, so a faster fcdsae shows in full. Scaled
times are what the metrics report; times as measured are in the diagnostics.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.025
WINDOW_S = 0.25

_rng = np.random.default_rng(0)
_X = _rng.uniform(-1.0, 1.0, (64, 10))
_T = np.eye(3)[_rng.integers(0, 3, 64)]
_LAYERS = [(_rng.uniform(-0.5, 0.5, (o, i)), _rng.uniform(0.0, 0.1, o))
           for i, o in ((10, 32), (32, 16), (16, 3))]


def training_step() -> None:
    """Forward, KL summary, backward and an Adam-shaped update of a fixed
    10-32-16-3 network on two 64-row batches; nothing is updated in place."""
    for _ in range(2):
        _training_batch()


def _training_batch() -> None:
    acts = [_X]
    for w, b in _LAYERS:
        acts.append(np.maximum(acts[-1] @ w.T + b, 0.0))
    for h in acts[1:-1]:
        for rho in np.clip(h.mean(axis=0), 1e-6, 1 - 1e-6):
            0.05 * math.log(0.05 / rho) + 0.95 * math.log(0.95 / (1 - rho))
    delta = 2.0 * (acts[-1] - _T) / _T.size
    for i in range(len(_LAYERS) - 1, -1, -1):
        w, _ = _LAYERS[i]
        delta = delta * (acts[i + 1] > 0.0)
        for g in (delta.T @ acts[i], delta.sum(axis=0)):
            m, v = 0.1 * g, 0.001 * (g * g)
            m / (np.sqrt(v) + 1e-8)
        if i:
            delta = delta @ w


_QX = [(i * 40503) % 60000 - 30000 for i in range(10)]
_QLAYERS = [[[((i + 7) * (j + 3) * 2654435761) % 1024 - 512 for i in range(n_in)]
             for j in range(n_out)] for n_in, n_out in ((10, 32), (32, 16), (16, 3))]


def fixed_point_frame() -> None:
    """Integer dot products of a 10-32-16-3 network with rounding shifts and
    saturation, two frames' worth."""
    for _ in range(2):
        acts = _QX
        for layer in _QLAYERS:
            nxt = []
            for row in layer:
                acc = 1 << 16
                for w, a in zip(row, acts):
                    acc += w * a
                y = (abs(acc) + 128) >> 8
                y = min(max(y if acc >= 0 else -y, -32768), 32767)
                nxt.append(y if y > 0 else 0)
            acts = nxt


_ROWS = [[float(v) for v in _rng.uniform(20.0, 400.0, 11)] for _ in range(25)]


def csv_rows() -> None:
    """Format, write, parse and hold 25 eleven-column sensor rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in _ROWS:
        writer.writerow([format(v, ".12g") for v in row])
    buf.seek(0)
    held = []
    for row in csv.reader(buf):
        vals = [float(c) for c in row]
        held.append((np.array(vals[:10]), math.tanh(vals[0] - vals[1])))


# kernel -> its median time on the 2-CPU Xeon host the benchmark was defined
# on; it only sets the scale of the reported times
REFERENCE_S = {training_step: 0.0004, fixed_point_frame: 0.00025,
               csv_rows: 0.00045}


class HostSpeed:
    """Context manager that times `kernel` every PERIOD_S while open."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.handler_s = 0.0   # total time spent in the handler

    def _time_kernel(self) -> float:
        t0 = perf_counter()
        self.kernel()
        return perf_counter() - t0

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(self._time_kernel())
        self.stamps.append(t0)
        self.handler_s += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def interval(self, fn, *args):
        """Call fn; return (result, start, end, seconds net of handler time)."""
        h0 = self.handler_s
        t0 = perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        return result, t0, t1, t1 - t0 - (self.handler_s - h0)

    def scale(self, intervals) -> list[float]:
        """Each (start, end, seconds) scaled to the reference host speed by
        the median kernel time sampled within WINDOW_S of the interval."""
        if not self.samples:
            self.stamps.append(perf_counter())
            self.samples.append(self._time_kernel())
        reference = REFERENCE_S[self.kernel]
        out = []
        for t0, t1, seconds in intervals:
            lo = bisect.bisect_left(self.stamps, t0 - WINDOW_S)
            hi = bisect.bisect_right(self.stamps, t1 + WINDOW_S)
            window = self.samples[lo:hi] or self.samples
            out.append(seconds * reference / statistics.median(window))
        return out
