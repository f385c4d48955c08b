"""The machine under the benchmark: its speed, and the quieter vCPU.

On the two-vCPU virtual machine this benchmark was written on, timings move for
two reasons that have nothing to do with hexbubble:

- each vCPU slows down for seconds at a time, independently of the
  other, by up to ~1.7x for hexbubble's `solve`: another tenant is using
  the same core;
- the whole machine drifts by 15% and more over minutes.

The benchmark calls `checkpoint()` between operations; the operations
between two checkpoints form a *block*.  A checkpoint times a fixed
pure-Python reference loop.  When the loop reads well above its fastest
reading so far, the process moves to the other vCPU if the loop reads
faster there, which raises the share of undisturbed time; child
processes inherit the vCPU.  `checkpoint()` returns the factor that
quotes the block just ended at the reference speed: `REFERENCE_S` over
the mean of the loop's readings at the block's two ends.  The workloads
keep each input's best time over many repeats, quoted with the factor of
its own block (see workloads.py): interference only ever adds time.

Starting a process depends on the kernel more than on the CPU, and its
cost drifts in its own way, which the loop does not follow.  So every
launch runs right after a bare interpreter (`python -c pass`), and is
quoted by its ratio to that bare start, times `LAUNCH_REFERENCE_S`.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from typing import Sequence

# a reading this much above the fastest so far sends the process to look
# for a faster vCPU; undisturbed readings scatter by under 10%, disturbed
# ones read 35% or more above
MIGRATE_RATIO = 1.2
# the reference loop's best time in a quiet spell on the machine the
# benchmark was written for (Python 3.11); in-process timings are quoted
# at this speed
REFERENCE_S = 50e-6
# a bare interpreter's start-up time in a quiet spell on the same machine
LAUNCH_REFERENCE_S = 0.045


def _probe() -> float:
    """Best of three timings of a fixed ~60 us pure-Python loop."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(1, 400):
            x = i * 1e-3
            s += math.sqrt(x * x + 3.0) + x / (x + 1.0)
        best = min(best, time.perf_counter() - t0)
    return best


class Machine:
    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.checkpoints = 0
        self.slow_checkpoints = 0
        self.migrations = 0
        self._cpu = self.cpus[0]
        self._best = self._opening = self._pin_fastest(self.cpus)

    def _pin(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        self._cpu = cpu

    def _pin_fastest(self, cpus: Sequence[int]) -> float:
        best_cpu, best = self._cpu, math.inf
        for cpu in cpus:
            self._pin(cpu)
            reading = _probe()
            if reading < best:
                best_cpu, best = cpu, reading
        if best_cpu != self._cpu:
            self._pin(best_cpu)
        return best

    def checkpoint(self) -> float:
        """End a block, start the next; the factor to the reference speed
        for the block just ended."""
        self.checkpoints += 1
        closing = opening = _probe()
        if closing > MIGRATE_RATIO * self._best:
            self.slow_checkpoints += 1
            if len(self.cpus) > 1:
                here = self._cpu
                elsewhere = self._pin_fastest([c for c in self.cpus if c != here])
                if elsewhere < closing:
                    self.migrations += 1
                    opening = elsewhere
                else:
                    self._pin(here)
        factor = 2.0 * REFERENCE_S / (self._opening + closing)
        self._best = min(self._best, opening)
        self._opening = opening
        return factor

    def launch(
        self, argv: Sequence[str], env: dict[str, str], cwd: str
    ) -> tuple[float, float, subprocess.CompletedProcess]:
        """A bare interpreter, then argv, in a block of their own:
        (argv seconds, bare seconds, argv result)."""
        self.checkpoint()
        times = []
        for command in ([sys.executable, "-c", "pass"], list(argv)):
            t0 = time.perf_counter()
            done = subprocess.run(command, env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
            times.append(time.perf_counter() - t0)
        self.checkpoint()
        return times[1], times[0], done

    def summary(self) -> dict:
        return {
            "checkpoints": self.checkpoints,
            "slow_share": self.slow_checkpoints / max(1, self.checkpoints),
            "migrations": self.migrations,
            "reference_loop_best_s": self._best,
        }

