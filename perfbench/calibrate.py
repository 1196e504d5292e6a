"""Machine-speed calibration for timings on a shared, drifting CPU.

On the machines this benchmark runs on, the speed of one core drifts by up
to 2x over tens of seconds (other tenants, frequency changes), far beyond
any regression bound.  Every timed sample is therefore taken next to a
short fixed reference task and reported in *reference milliseconds*: raw
milliseconds times the reference's nominal time over its time measured
around the sample.  On a machine that runs the reference in its nominal
time the two are equal.  No change to turnover can move a reference, so a
change that makes turnover slower still reads slower.

Two references are used, because they track different costs:

* ``reference_ms`` -- interpreted float math, for work inside one process.
  Over 90 s of alternating work and reference on a 2-core VM (Python 3.11),
  medians of 5 s windows of raw ``truncated_simplex_volume`` time ranged
  from 1.79 to 3.31 ms (quartile spread 0.54); normalized, from 2.71 to
  2.81 ms (spread 0.013).
* the spawn-to-exit time of an interpreter that imports numpy
  (``run.reference_spawn_ms``), for timings that start processes.  Over
  240 s of cold ``turnover analyze`` commands, windowed medians spread 0.19
  raw, 0.13 against ``reference_ms`` and 0.03 against this spawn.  A bare
  interpreter tracked as well in that window, but not through a 10-minute
  episode in which imports slowed by a quarter while bare starts did not.
"""

from __future__ import annotations

import math
import statistics
import time

# Nominal time of ``reference_ms``; about its time on an idle core of the
# baseline machine.
REFERENCE_MS = 2.0


def _snippet() -> float:
    # Interpreted float math of the same kind as the package's integrands.
    acc = 0.0
    for i in range(4000):
        t = 0.001 * (i % 997)
        c = math.cos(t)
        acc += math.acosh(max(c / (2.0 * c - 1.0), 1.0))
    return acc


def reference_ms() -> float:
    t0 = time.perf_counter()
    _snippet()
    return (time.perf_counter() - t0) * 1e3


class Calibration:
    """Converts raw samples to reference milliseconds.

    Call ``normalize`` right after each timed sample (or batch of samples,
    kept well under a second): it runs the reference once and scales by the
    mean of this reference time and the previous one, which bracket the
    samples.
    """

    def __init__(self, reference=reference_ms, nominal_ms: float = REFERENCE_MS):
        self.reference = reference
        self.nominal_ms = nominal_ms
        self.refs = [reference()]

    def normalize(self, raw_ms: list[float]) -> list[float]:
        self.refs.append(self.reference())
        factor = self.nominal_ms / (0.5 * (self.refs[-2] + self.refs[-1]))
        return [ms * factor for ms in raw_ms]


def summarize(ms, wall_ms) -> dict:
    """Count, total, p50 and p90 of reference-ms samples and of their raw
    wall-clock twins."""
    summary = {"n": len(ms)}
    for prefix, samples in (("", ms), ("wall_", wall_ms)):
        summary[f"{prefix}total_ms"] = sum(samples)
        summary[f"{prefix}p50_ms"] = statistics.median(samples)
        summary[f"{prefix}p90_ms"] = statistics.quantiles(samples, n=10, method="inclusive")[8]
    return summary
