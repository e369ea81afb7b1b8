"""How fast the machine runs, measured around and during each op.

On a shared VM the speed of the machine drifts by up to 40% over minutes,
and a single op can last 10 s.  ``kernel`` is a fixed pure-Python loop of
``Fraction`` and dict work that touches no program code, so its time per
unit tracks only the machine's current speed.  It runs:

* between ops, ``BRACKET_UNITS`` at a time (``bracket``);
* during an op, one unit from a SIGALRM handler every ``SAMPLE_PERIOD_S``
  after the first ``SAMPLE_DELAY_S`` (``sampling``).  The handler's own time
  is known exactly and is taken out of the op's time.  Ops shorter than the
  delay are left alone: the brackets around them already track the speed.

``run.py`` scales each op's time to the reference speed with the mean unit
time of the samples inside the op when it has at least ``MIN_SAMPLES`` of
them, and otherwise with that of the brackets on both sides of the op and
any samples inside it (``op_unit_seconds``).  The machine's speed changes
within tenths of a second, so for a long op the samples inside it track
the speed the op ran at better than the brackets do.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

UNIT_ITERATIONS = 250  # one unit takes about 1 ms on the reference VM
BRACKET_UNITS = 60
SAMPLE_DELAY_S = 0.1
SAMPLE_PERIOD_S = 0.025
MIN_SAMPLES = 10  # an op of about 0.35 s or more


@dataclass
class Tally:
    """Kernel time and the units it covered."""

    seconds: float = 0.0
    units: int = 0


def kernel(units: int) -> float:
    """Seconds to run ``units`` units of the fixed loop, with GC and any
    profile or trace hook of the program off, so that what the program does
    to the interpreter does not slow the kernel."""
    enabled = gc.isenabled()
    hooks = sys.getprofile(), sys.gettrace()
    gc.disable()
    sys.setprofile(None)
    sys.settrace(None)
    try:
        start = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, units * UNIT_ITERATIONS + 1):
            acc += Fraction(1, i % 97 + 1)
            seen[(i, i % 7)] = acc.numerator % 1000
        return time.perf_counter() - start
    finally:
        sys.setprofile(hooks[0])
        sys.settrace(hooks[1])
        if enabled:
            gc.enable()


def bracket() -> Tally:
    return Tally(kernel(BRACKET_UNITS), BRACKET_UNITS)


@contextlib.contextmanager
def sampling():
    """Run one kernel unit every SAMPLE_PERIOD_S inside the block, after
    the first SAMPLE_DELAY_S."""
    tally = Tally()

    def tick(signum, frame):
        tally.seconds += kernel(1)
        tally.units += 1

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_DELAY_S, SAMPLE_PERIOD_S)
    try:
        yield tally
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def unit_seconds(*tallies: Tally) -> float:
    """Mean time of one kernel unit over ``tallies``."""
    return sum(t.seconds for t in tallies) / sum(t.units for t in tallies)


def op_unit_seconds(before: Tally, during: Tally, after: Tally) -> float:
    """The unit time to scale one op by (see the module docstring)."""
    if during.units >= MIN_SAMPLES:
        return unit_seconds(during)
    return unit_seconds(before, during, after)
