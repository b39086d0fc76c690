"""Reference kernel that measures how fast the host is during a run.

The host this benchmark runs on is shared: between runs minutes apart, the
same whindex work took up to 1.7 times as much processor time.  A fixed
numpy kernel that shares no code with whindex is timed between problems, and
each problem answered in the benchmark process has its processor time
scaled by ``REF_S`` over the median of the last three kernel times.  Set-up
and ladder rungs run in other processes, where the kernel did not track the
host (scaling widened their spread), so they stay unscaled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Processor seconds the kernel takes on the host the benchmark was defined
#: on (a 2-vCPU VM); scaled times read as seconds on that host.
REF_S = 0.04
#: Least elapsed time between two kernel runs.
INTERVAL_S = 0.5
#: Kernel runs whose median sets the current scale.
RECENT = 3


class Reference:
    """Times the kernel at most every ``INTERVAL_S`` seconds when asked to."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._dense = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        self._small = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                       for _ in range(50)]
        self.samples: list[float] = []
        self._last = float("-inf")

    def _kernel(self) -> float:
        """Processor seconds of one run of the kernel."""
        start = time.process_time()
        for _ in range(3):
            np.linalg.svd(self._dense)
        for _ in range(20):
            for m in self._small:
                np.linalg.eigvalsh(m + m.conj().T)
                np.linalg.solve(np.eye(4) + m, m)
        return time.process_time() - start

    def between(self) -> float:
        """Time the kernel if ``INTERVAL_S`` has passed since it last ran.

        Returns the factor that turns processor time spent now into
        reference-host seconds.
        """
        now = time.perf_counter()
        if now - self._last >= INTERVAL_S:
            self.samples.append(self._kernel())
            self._last = time.perf_counter()
        return REF_S / statistics.median(self.samples[-RECENT:])
