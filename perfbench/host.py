"""Host normalisation: a calibration loop, the scale factors and the fingerprint.

CPU speed on shared cloud hosts drifts by tens of percent within seconds,
so every time the benchmark reports is scaled by how fast this host ran a
fixed calibration loop during the run's timed window::

    scaled statistic = raw statistic * NOMINAL_CAL_MS / same statistic of the samples

The calibration loop is pure Python, imports nothing from the program
under test and allocates nothing: it walks a prebuilt tuple of small
integers, so it measures interpreter speed on this host at this moment.
The runner interleaves one sample between operations whenever
``CAL_INTERVAL_S`` of wall time has passed since the last one, in the
same thread as the operations, so the samples see the same host as the
work they normalise.

Each statistic is scaled by the same statistic of the samples: the
median latency (and set-up) by the median sample, p90 by the p90 sample,
the mean latency behind ``ops_per_s`` by the mean sample.  The host
switches between a fast and a slow state inside one run; the median
sample then reflects the fast majority, while the p90 latency comes from
the slow minority, which the p90 sample sees too (NOISE.md).
"""

import os
import platform
import statistics
from time import perf_counter

#: Calibration time, in ms, that a normalised value is expressed against.
#: A host (or a moment) where one sample takes longer than this has its
#: times scaled down by the ratio, and a faster one scaled up.
NOMINAL_CAL_MS = 1.0

#: Wall time between two calibration samples in a timed window.
CAL_INTERVAL_S = 0.025

_SMALL = tuple(range(256))
_ROUNDS = tuple(range(115))


def spin() -> int:
    """One calibration sample's work (~1 ms of interpreter time here)."""
    acc = 0
    for _ in _ROUNDS:
        for value in _SMALL:
            acc = (acc + value) & 255
    return acc


class Calibrator:
    """Collects calibration samples and turns them into the run factor."""

    def __init__(self) -> None:
        self.samples_ms = []
        self.last = perf_counter()

    def sample(self) -> None:
        """Time one calibration loop now."""
        start = perf_counter()
        spin()
        end = perf_counter()
        self.samples_ms.append((end - start) * 1000.0)
        self.last = end

    def maybe_sample(self, now: float) -> None:
        """Take a sample if ``CAL_INTERVAL_S`` has passed since the last one."""
        if now - self.last >= CAL_INTERVAL_S:
            self.sample()

    def median_ms(self) -> float:
        """Median calibration time of this run."""
        return statistics.median(self.samples_ms)

    def factors(self) -> dict:
        """Scale per statistic: ``NOMINAL_CAL_MS`` over that statistic of the samples."""
        cuts = statistics.quantiles(self.samples_ms, n=100, method="inclusive")
        return {
            "median": NOMINAL_CAL_MS / cuts[49],
            "p90": NOMINAL_CAL_MS / cuts[89],
            "p99": NOMINAL_CAL_MS / cuts[98],
            "mean": NOMINAL_CAL_MS / statistics.fmean(self.samples_ms),
        }


def fingerprint(calibrator: Calibrator) -> dict:
    """The host facts recorded beside every run."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cal_ms": calibrator.median_ms(),
        "cal_samples": len(calibrator.samples_ms),
        "factors": calibrator.factors(),
    }
