"""Wall time taken at reference speed.

The host's speed drifts: the reference loop below takes about 0.55 ms or
about 1.0-1.1 ms, switching in stretches of seconds.  So the timed
work is cut into short stretches, and right after each stretch a fixed
reference loop (small numpy operations, nothing from the program) is timed
in the same process.  The stretch's wall time is scaled by
``NOMINAL_S / reference time``; the reference loop's own time is excluded.
"""

from __future__ import annotations

import time

import numpy as np

# Length of one stretch before it is closed at the next hook call.
STRETCH_S = 0.03
# Reference loop: REF_BLOCKS blocks of REF_REPS iterations; the fastest
# block is the sample, so one preempted block does not skew a stretch.
REF_REPS = 60
REF_BLOCKS = 3
# Fastest-block time of the reference loop on the machine the README
# describes when the host runs at its fast speed.
NOMINAL_S = 0.6e-3

_X = np.linspace(0.5, 1.5, 10)
_IDX = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])


def reference_loop(reps: int = REF_REPS) -> float:
    """Fixed mix of length-10 numpy calls, the shape of the program's work."""
    acc = 0.0
    x = _X
    for _ in range(reps):
        y = x * 1.0001 + 0.5
        acc += float(np.sum(y[_IDX] * y))
        acc += float(np.bincount(_IDX, weights=y, minlength=3).max())
        acc += int(np.argmax(y > 1.0))
    return acc


def reference_time() -> float:
    """Fastest of REF_BLOCKS timed reference blocks, in seconds."""
    best = float("inf")
    for _ in range(REF_BLOCKS):
        tic = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - tic)
    return best


class StretchClock:
    """Accumulates wall time at reference speed between ``start`` and ``stop``.

    ``tick`` is called from a hook on a call the timed work makes often
    (once per epoch, once per draw); when the open stretch is older than
    STRETCH_S it is closed, the reference loop runs, and a new stretch
    opens after it.  ``lap`` marks per-operation samples (for percentiles),
    which are scaled by the factor of the stretch they fall in.
    """

    def __init__(self) -> None:
        self.scaled_s = 0.0
        self.wall_s = 0.0
        self.ref_samples: list[float] = []
        self.samples: list[float] = []
        self._pending: list[float] = []
        self._open: float | None = None

    def start(self, at: float | None = None) -> None:
        """Open a stretch now, or at an earlier ``time.perf_counter`` value."""
        self._open = time.perf_counter() if at is None else at

    def tick(self) -> None:
        if self._open is None:
            return
        if time.perf_counter() - self._open >= STRETCH_S:
            self._close()
            self.start()

    def lap(self, wall_s: float) -> None:
        """Record one operation's wall time inside the open stretch."""
        self._pending.append(wall_s)

    def stop(self) -> None:
        if self._open is not None:
            self._close()
            self._open = None

    def _close(self) -> None:
        wall = time.perf_counter() - self._open
        ref = reference_time()
        factor = NOMINAL_S / ref
        self.ref_samples.append(ref)
        self.wall_s += wall
        self.scaled_s += wall * factor
        self.samples.extend(s * factor for s in self._pending)
        self._pending.clear()
