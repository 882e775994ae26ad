"""Machine-speed calibration for the reported times.

On a shared machine the speed of one core swings by a factor of two
within minutes: on a 2-vCPU Xeon VM the same raw-ingest invocation took
0.79 s to 1.95 s over three minutes.  Wall and CPU time both follow it,
so raw seconds from runs minutes apart cannot be compared within any
useful bound.

Every timed unit is therefore bracketed by two fixed jobs, each run
before and after it:

- the compute job: exact Fraction arithmetic and set differences of
  small tuples in this process, the kind of work the program's layers do;
- the start job: a fresh interpreter that imports the standard modules
  the CLI imports, the kind of work every invocation pays before it
  reaches the program.

A unit that took `raw` seconds and started `starts` processes is scaled
by `w * START_S / start + (1 - w) * COMPUTE_S / compute`, where `start`
and `compute` are the bracketing job times and
`w = min(1, starts * start / raw)` is the unit's share of start-up.  The
result reads as seconds on a machine where the jobs take COMPUTE_S and
START_S.  A slower program still reads slower; a slower machine does
not.  On that VM, over 30-second windows, the spread of a workload's
median fell from 0.13 of the median to 0.02-0.03.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction

# Typical job times on the machine the baseline was recorded on.
COMPUTE_S = 0.08
START_S = 0.075


def clean_env() -> dict[str, str]:
    """The environment without Python or ultrapoly settings that change a run."""
    return {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "ULTRAPOLY_"))}


def compute_job_seconds() -> float:
    t0 = time.perf_counter()
    total = Fraction(0)
    codes = [tuple((pos, (i >> pos) & 1) for pos in range(12)) for i in range(64)]
    first_difference = {}
    for i in range(1, 10000):
        total += Fraction(1, i % 97 + 1)
        a, b = codes[i % 64], codes[(i * 7) % 64]
        first_difference[i % 512] = min((pos for pos, _ in set(a) ^ set(b)), default=None)
    return time.perf_counter() - t0


def start_job_seconds() -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import argparse, dataclasses, fractions, json, pathlib, typing"],
        env=clean_env(),
        stdin=subprocess.DEVNULL,
        check=True,
    )
    return time.perf_counter() - t0


class Scale:
    """Turns raw seconds into reference seconds, one bracket at a time."""

    def __init__(self) -> None:
        self._before = (compute_job_seconds(), start_job_seconds())
        self.speeds: list[float] = []

    def next(self, raw_s: float, starts: int) -> float:
        """Factor for the unit just timed; its closing jobs open the next bracket."""
        after = (compute_job_seconds(), start_job_seconds())
        compute = (self._before[0] + after[0]) / 2
        start = (self._before[1] + after[1]) / 2
        self._before = after
        share = min(1.0, starts * start / raw_s) if raw_s > 0 else 0.0
        factor = share * START_S / start + (1 - share) * COMPUTE_S / compute
        self.speeds.append(factor)
        return factor
