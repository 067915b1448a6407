"""Fixed reference tasks that track the machine's speed.

On a shared virtual machine the same code can run 1.7x slower from one
minute to the next, and 20% slower from one second to the next, which
swamps any change to slicekit.  A yardstick times a fixed task while the
ops run, and

    scale = nominal / (mean time of the task samples taken nearest an op)

rescales that op's wall time to a machine of fixed speed: one on which the
task takes exactly ``nominal`` seconds.  The tasks touch no slicekit code,
so a change to slicekit moves the rescaled times exactly as it moves the
wall times.  Raw wall times are printed and recorded next to the rescaled
ones.

Two tasks, for two kinds of op:

- ``LoopYardstick``, for ops that run in the process: a SIGALRM handler
  interrupts the ops every ``INTERVAL_S`` and times a short integer loop,
  so it samples the machine during the ops themselves.
- ``StartYardstick``, for ops that are processes of their own (CLI calls,
  setup probes): between ops it times the start of a bare interpreter,
  which exercises the process start, file and page-fault work that
  in-process loops do not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time

# Seconds one loop chunk takes on the reference machine the reported times
# are scaled to; about what it takes on a 2-vCPU shared VM at its usual speed.
NOMINAL_CHUNK_S = 0.0002
# Seconds between loop chunks.  A chunk adds about 1% to the time it samples.
INTERVAL_S = 0.02
# Fewest chunks one op's scale is taken from: a 0.3-s window.  Narrower
# windows let single chunks' jitter through to short ops; wider ones blur
# the second-to-second swings.
MIN_CHUNKS = 15
# Seconds ``python -c pass`` takes on the reference machine.
NOMINAL_START_S = 0.04
# Fewest interpreter starts one op's scale is taken from: about two on
# each side of it.
MIN_STARTS = 4


def chunk() -> int:
    """A fixed run of interpreter work.  Of the candidates tried (this loop,
    dict and tuple updates, Fraction arithmetic, set and sort work), a bare
    integer loop tracked the speed of slicekit's ops most closely: their
    time moved in proportion to its time."""
    total = 0
    for i in range(2500):
        total += i * i % 7
    return total


def start_interpreter() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class Yardstick:
    """Timed samples of ``task``; ``scales`` rescales ops by the samples
    nearest to them in time.  Subclasses decide when samples are taken."""

    task = staticmethod(chunk)
    nominal = NOMINAL_CHUNK_S
    min_samples = MIN_CHUNKS

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.task()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def __exit__(self, *exc) -> None:
        while len(self.seconds) < self.min_samples:  # a phase too short to sample
            self.sample()

    def between_ops(self) -> None:
        """Called after each op."""

    def scales(self, spans: list[tuple[float, float]]) -> list[float]:
        """For each op's (start, end) ``perf_counter`` span, the factor that
        turns its wall time into reference-machine time: from the samples
        taken during the op, widened to the nearest ones in time until there
        are ``min_samples``."""
        out = []
        for start, end in spans:
            lo = bisect.bisect_left(self.starts, start)
            hi = bisect.bisect_left(self.starts, end)
            while hi - lo < self.min_samples:
                before = start - self.starts[lo - 1] if lo > 0 else None
                after = self.starts[hi] - end if hi < len(self.starts) else None
                if after is None or (before is not None and before < after):
                    lo -= 1
                else:
                    hi += 1
            out.append(self.nominal / statistics.fmean(self.seconds[lo:hi]))
        return out


class LoopYardstick(Yardstick):
    """While entered, times one ``chunk`` every ``INTERVAL_S``, interrupting
    whatever runs.  Only one can be active in a process, in its main
    thread."""

    def __enter__(self) -> "LoopYardstick":
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        super().__exit__(*exc)


class StartYardstick(Yardstick):
    """Times one bare interpreter start before the first op and after each
    op."""

    task = staticmethod(start_interpreter)
    nominal = NOMINAL_START_S
    min_samples = MIN_STARTS

    def __enter__(self) -> "StartYardstick":
        self.sample()
        return self

    def between_ops(self) -> None:
        self.sample()
