"""Host-speed calibration for the benchmark's timings.

The shared 2-core host this benchmark was tuned on runs the same code up to
1.8x slower for stretches of seconds to minutes, as its neighbours' load
comes and goes.  CPU time slows alike and no time shows as stolen, so
neither longer runs nor CPU clocks remove it: per-run medians of one job
moved by 15-40% between processes.

``Clock`` runs a fixed kernel of the pipeline's kind of work (small-array
numpy calls in a Python loop, 20x20 solves and Cholesky factors, float
formatting) between jobs.  A job's time is scaled by REFERENCE_S over the
mean of the kernel times on either side of it, so every timing the
benchmark reports is in seconds at the reference host speed: the speed at
which the kernel takes REFERENCE_S.  The kernel uses no code of the program
under test, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the tuning host when quiet (2-core Xeon at 2.1 GHz,
# Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_S = 0.0075

_N = 10
_rng = np.random.default_rng(7)
_Y = _rng.standard_normal((_N, _N)) + 1j * _rng.standard_normal((_N, _N))
_E = 1.0 + _rng.random(_N)
_H = 3.0 + _rng.random(_N)
_A = _rng.standard_normal((2 * _N, 2 * _N))
_S = _A @ _A.T + 2 * _N * np.eye(2 * _N)
_B = _rng.standard_normal((2 * _N, 4 * _N))
_ROWS = _rng.standard_normal((50, 20)).tolist()


def kernel() -> int:
    """Fixed work of about 7.5 ms on the reference host."""
    x = np.zeros(2 * _N)
    for _ in range(300):
        emf = _E * np.exp(1j * x[:_N])
        p = (emf * np.conj(_Y.dot(emf))).real
        x = x + 1e-4 * np.concatenate([x[_N:], (1.0 - p - 0.1 * x[_N:]) / _H])
        x = x + 1e-6 * np.cos(_A.dot(x))
    for _ in range(60):
        gain = np.linalg.solve(_S, _B)
        p = _S - 1e-3 * gain.dot(_B.T)
        np.linalg.cholesky(0.5 * (p + p.T))
    return sum(len(",".join(map(repr, row))) for _ in range(4) for row in _ROWS)


class Clock:
    """Kernel times taken between jobs, and the scale they give each job."""

    def __init__(self):
        kernel()   # first calls into numpy are slower; keep them out
        self.samples: list[float] = []

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def scale(self, job: int) -> float:
        """Factor for job ``job``, timed between samples job and job + 1."""
        return 2.0 * REFERENCE_S / (self.samples[job] + self.samples[job + 1])
