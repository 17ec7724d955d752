"""Machine-speed reference for the benchmark's timings.

The host this benchmark was built on changes speed by up to 1.75x within
a minute, because other tenants share its cores.  Timing a fixed kernel
right before and right after each measured interval and rescaling the
interval by the kernel's time removes that drift: over six sweep1d runs
the wall-clock throughput ranged over 48% while the rescaled one ranged
over 4.4%.

The kernel mixes what the solver spends its time on (batched 6x6 solves,
short numpy calls on tiny arrays, interpreted Python arithmetic) and
shares no code with modecount, so a change to modecount cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the 2-core Xeon machine the benchmark was built on,
# when it was not contended.  Rescaled timings read as wall time on that
# machine at that speed.
NOMINAL_S = 0.008


class SpeedReference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 6, 6))
        self._spd = a @ a.transpose(0, 2, 1) + 6.0 * np.eye(6)
        self._rhs = rng.standard_normal((64, 6, 1))
        self._logits = rng.standard_normal(5)
        self.samples: list[float] = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(150):
            np.linalg.solve(self._spd, self._rhs)
            w = np.exp(self._logits - self._logits.max())
            w /= w.sum()
            np.einsum("k,kij->ij", w, self._spd[:5])
        acc = 0
        for i in range(20_000):
            acc += i * i
        return time.perf_counter() - t0

    def sample(self) -> float:
        """The median of three kernel timings; recorded and returned."""
        elapsed = sorted(self._kernel() for _ in range(3))[1]
        self.samples.append(elapsed)
        return elapsed


def rescale(seconds: float, before: float, after: float) -> float:
    """Wall seconds of an interval, rescaled to the kernel's nominal speed."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
