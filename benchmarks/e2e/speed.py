"""CPU speed probe: report timings at a fixed reference speed.

On a shared virtual machine the speed of each vCPU follows what its
neighbours on the host run.  On the reference machine a warm ``c499``
kernel call took anything from 140 ms to 880 ms within minutes, one vCPU
ran at half speed while the other ran at full speed, and such stretches
lasted from seconds to more than twenty minutes; ten unscaled runs of a
workload spread by 30-75%.  No statistic of one run can see past a slow
stretch that covers it.

So a run pins itself, and every system under test it starts, to one CPU:
the one on which :func:`probe` runs fastest when the run starts.  Before
and after every stretch of measured work (one set-up, one cold
invocation, one segment of about :data:`SEGMENT_S` of traffic), while the
system is idle, it times the probe again, and scales each raw time of the
stretch to reference speed::

    time at reference speed = raw time * REFERENCE_S / probe time

with the probe time the geometric mean of the probes before and after
the stretch.  The probe is fixed code of this benchmark, never the
program's, so a change to the program cannot move it.  It does the kinds
of work the program does: interpreter dict and string work, many small
numpy calls, numpy gathers over cache-sized arrays, JSON, and an
arithmetic loop.  It allocates little, because a child's peak RSS as
``wait4`` reports it is never below the peak RSS of the process that
started it.  See README.md (Speed scaling) for how well it tracks the
program.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from typing import List, Optional

import numpy as np

#: Median probe time (s) on the reference machine (2-vCPU VM, Intel
#: Xeon, Python 3.11, numpy 2.4) at full speed.
REFERENCE_S = 0.0135

#: Seconds of measured traffic between two probes.
SEGMENT_S = 1.0

_RNG = np.random.default_rng(0)
_TINY = [_RNG.random(64) for _ in range(4)]
_MID = _RNG.random(50_000)
_MID_INDEX = _RNG.integers(0, 50_000, 50_000)
_DOC = {"points": [{"eps": i * 0.005,
                    "per_output": {f"o{j}": j * 0.001 for j in range(40)}}
                   for i in range(32)]}


def _probe_once() -> None:
    counts: dict = {}
    for i in range(8000):
        key = str(i & 1023)
        counts[key] = counts.get(key, 0) + i
    x = _TINY[0]
    for _ in range(2000):
        x = np.maximum(x * _TINY[1], _TINY[2]) + _TINY[3]
    y = _MID
    for _ in range(30):
        y = y[_MID_INDEX] * 0.5 + _MID
    for _ in range(3):
        json.loads(json.dumps(_DOC))
    total = 0
    for i in range(60_000):
        total += i * i


def probe(repeats: int = 5) -> float:
    """Median seconds of ``repeats`` probe passes on the calling thread."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _probe_once()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Speed:
    """The CPU the run uses, and the probe on it.

    The harness pins itself to the CPU on which the probe runs fastest
    when the run starts; every system under test it starts inherits that
    CPU, so all measured work runs where the probe runs.  With ``scale``
    false (traced runs, whose layer split comes from the program's own
    clocks) nothing is probed and every factor is 1.  Where the platform
    cannot pin, the run uses whatever CPUs it is given.
    """

    def __init__(self, scale: bool):
        self.scale = scale
        self.cpu: Optional[int] = None
        self.probes: List[float] = []
        self.factors: List[float] = []
        self._last = 0.0
        if hasattr(os, "sched_setaffinity"):
            timed = {}
            for cpu in sorted(os.sched_getaffinity(0)):
                os.sched_setaffinity(0, {cpu})
                timed[cpu] = probe(1)
            self.cpu = min(timed, key=timed.__getitem__)
            os.sched_setaffinity(0, {self.cpu})

    def start(self) -> None:
        """Probe at the start of a stretch of measured work."""
        if self.scale:
            self._last = probe()
            self.probes.append(self._last)

    def factor(self) -> float:
        """Probe at the end of a stretch; the factor that scales its raw
        times to reference speed.  This probe also starts the next
        stretch.
        """
        if not self.scale:
            return 1.0
        now = probe()
        self.probes.append(now)
        factor = REFERENCE_S / math.sqrt(self._last * now)
        self._last = now
        self.factors.append(factor)
        return factor
