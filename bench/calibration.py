"""Machine-speed calibration, so that rates measure onticsim, not the host.

On a shared machine the same code runs up to 1.6x slower for stretches of
10-30 s (see README). A fixed kernel of the benchmark's own work runs
between operations for a fixed share of the time the operations take.
Each operation's time is rescaled to the seconds it would have taken at
the kernel's reference speed. A workload uses the one kernel whose work
resembles its own (README, *Calibrated seconds*, has the comparison):

- ``interpreter``: bytecode and numpy calls on 8x8 arrays, like the
  sampler, jsonio, compile_slice and the recall strategies;
- ``memory``: passes over 48 MiB of arrays, like the dense 4096-dimensional
  products that dominate ``cold-12q``. Its buffers are allocated once, on
  first use, and kept, so they add a fixed 48 MiB to that workload's peak
  RSS instead of hiding onticsim's transient allocations under theirs.

No kernel touches onticsim code, so no change to the program moves them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Median kernel times on the reference machine (2 vCPUs, Python 3.11,
#: numpy 2.4, one BLAS thread); a scale of 1 means "as fast as that".
REFERENCE_S = {"interpreter": 0.0154, "memory": 0.0220}

SHARE = 0.15  # calibration time after an operation, as a share of its interval

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))
_V = _rng.normal(size=8) + 0j
_BUFFERS: list[np.ndarray] = []


def _interpreter() -> None:
    table = {}
    for i in range(3000):
        x = _A @ _V
        table[i % 17] = float(np.vdot(x, x).real)
    for i in range(24000):
        table[i % 13] = str(i * i)


def _memory() -> None:
    if not _BUFFERS:
        _BUFFERS.extend([np.empty((500, 4000), complex), np.empty((500, 4000)), np.empty((500, 4000), bool)])
    z, f, below = _BUFFERS
    z.fill(0.5 + 0.5j)
    np.abs(z, out=f)
    np.square(f, out=f)
    np.cumsum(f, axis=1, out=f)
    np.less(f, 1.0, out=below)
    below.sum(axis=1)


KERNELS = {"interpreter": _interpreter, "memory": _memory}


def calibrate(kernel: str) -> float:
    """Seconds ``kernel`` takes now."""
    start = perf_counter()
    KERNELS[kernel]()
    return perf_counter() - start


def scale(kernel: str, samples: list[float]) -> float:
    """The factor turning seconds measured while ``samples`` were taken
    into reference seconds: the reference time over the mean sample.
    Slowdowns come in bursts of milliseconds, so a mean over many samples
    tracks them where a median or minimum would not."""
    return REFERENCE_S[kernel] * len(samples) / sum(samples)


class Calibrator:
    """Calibration between operations. ``pause`` runs the kernel for SHARE
    of the time since the previous pause (at least once) and returns the
    scale for that interval, from the samples of the pauses on both sides
    of it."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.previous = [calibrate(kernel)]
        self.mark = perf_counter()

    def pause(self) -> float:
        stop = perf_counter() + SHARE * (perf_counter() - self.mark)
        samples = [calibrate(self.kernel)]
        while perf_counter() < stop:
            samples.append(calibrate(self.kernel))
        interval = scale(self.kernel, self.previous + samples)
        self.previous = samples
        self.mark = perf_counter()
        return interval
