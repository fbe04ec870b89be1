"""Reference kernels that track the machine's speed during a run.

On a shared machine the speed of one core drifts by tens of percent over
seconds, as other tenants load the caches and memory bus; raw wall times
of the same pass differed by 10 to 30 % from run to run. Every timing the
benchmark gates on is therefore divided by a speed factor measured next to
it: the median time of a fixed kernel over its nominal time. The result
reads as seconds at nominal speed, and raw wall times are reported beside
it.

Contention slows BLAS-bound and interpreter-bound code by different
amounts, so each workload samples the kernel closest to its own work:

- ``mixed``: Python loops over numpy reductions (as in the rmt solver),
  many small symmetric eigensolves (as in detect) and one mid-size
  eigensolve;
- ``blas``: the matrix products of field synthesis, a 32-row filter applied
  to a 543x543 innovation matrix and a 512x256 polyphase product.

Measured interleaved with the workload's own operations in five fresh
processes each, the ratio of medians varied by about 1 % (eigen_pdf against
``mixed``) and 1.3 % (paired block synthesis and detection against
``blas``), where the raw medians varied by 10 to 13 %. The kernels never
call respectra, so no change to the library can move them.
"""

import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.25

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((300, 300))
_V = _RNG.standard_normal(1024)
_SMALL = [_RNG.standard_normal((32, k)) for k in (9, 16)] * 50
_U = _RNG.standard_normal((32, 543))
_S = _RNG.standard_normal((543, 543))
_H = _RNG.standard_normal((512, 256))
_X = _RNG.standard_normal((256, 256))


def mixed():
    acc = 0.0
    for i in range(2000):
        acc += float((_V / (1.0 + i * _V * _V)).sum())
    for b in _SMALL:
        np.linalg.eigvalsh(b.T @ b)
    np.linalg.eigvalsh(_A @ _A.T)
    return acc


def blas():
    for _ in range(3):
        _U @ _S @ _U.T
        _H @ _X @ _H.T


# kernel and its nominal time: the median on the 2-core Intel Xeon box
# (Python 3.11.7, numpy 2.4.6, OpenBLAS at one thread) where the baseline
# was recorded
KERNELS = {"mixed": (mixed, 0.023), "blas": (blas, 0.0125)}


class SpeedMeter:
    """Samples of one reference kernel, taken at operation boundaries at
    most one per SAMPLE_EVERY_S unless forced, and the time they took,
    which the benchmark's clocks leave out."""

    def __init__(self, kernel):
        self._kernel, self._nominal_s = KERNELS[kernel]
        self.samples = []
        self.spent_s = 0.0
        self._last = float("-inf")

    def tick(self, force=False):
        start = time.perf_counter()
        if not force and start - self._last < SAMPLE_EVERY_S:
            return
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.spent_s += self._last - start

    def factor(self, since=0):
        """Speed factor over the samples from index ``since`` on: their
        median over the nominal time (above 1 when slower than nominal)."""
        return statistics.median(self.samples[since:]) / self._nominal_s
