"""A probe of the host's speed, so that job times can be stated at a reference speed.

The host is shared: its speed moves by a quarter and more within seconds
and over minutes, for the probe and for vspart alike.  `HostSpeed` times
a fixed pure-Python loop that shares no code with vspart, and a job's
seconds are scaled by PROBE_REF_S over the median of the samples taken
since the previous job ended (`job_scale`).  While a job runs in this
process, SIGALRM takes a sample every PROBE_EVERY_S seconds, so that the
samples cover the job itself, and the sampling time is taken out of the
job's seconds (`stolen`).  A command process runs its own probe the same
way and hands its samples and stolen time back (`export`, `adopt`).

No more than the standard library's builtins are imported, so that the
command child pays almost nothing for loading this module.
"""

import signal
import time

# Seconds between two samples while a job runs.
PROBE_EVERY_S = 0.1
# The reference host speed: the probe loop takes this long.  Close to its
# median on the 2-core VM the benchmark was defined on, so that reported
# times stay near the seconds measured there.
PROBE_REF_S = 0.005


def _probe_loop() -> int:
    """Fixed pure-Python work (about 5 ms)."""
    s = 0
    for i in range(50_000):
        s += i * i % 7
    return s


def _median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class HostSpeed:
    """Seconds the probe loop takes, sampled all through the timed jobs."""

    def __init__(self) -> None:
        self.samples: list = []
        self.stolen = 0.0
        self.used = 0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.samples.append(time.perf_counter() - start)
        self.stolen += time.perf_counter() - start

    def job_scale(self) -> float:
        """Factor to reference seconds for the job that just ended."""
        fresh = self.samples[self.used:] or self.samples[-1:]
        self.used = len(self.samples)
        return PROBE_REF_S / _median(fresh)

    def scale(self) -> float:
        """Factor to reference seconds from all samples so far."""
        return PROBE_REF_S / _median(self.samples)

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def export(self) -> dict:
        return {"samples": self.samples, "stolen": self.stolen}

    def adopt(self, data: dict) -> None:
        """Take over the samples and stolen time of a command process."""
        self.samples.extend(data["samples"])
        self.stolen += data["stolen"]
