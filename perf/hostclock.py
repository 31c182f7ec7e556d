"""The host clock, steadied against the machine's changing speed.

The sandbox's cores change speed by about 30 % (two regimes, probably
the SMT sibling being busy or idle), at times every few seconds and at
times every few tenths of a second; see ``perf/README.md`` for the
measurement.  A 16 s run sees a different mix every time, so raw wall
time spreads by 15-20 % between identical runs.  Every host time the
benchmark reports is therefore taken in short sections, each bracketed
by a fixed calibration loop, and scaled to the speed at which that loop
takes :data:`CALIBRATION_REFERENCE_S`.
"""

from __future__ import annotations

import hmac
import time
from hashlib import sha256
from heapq import heappop, heappush
from typing import Dict, List

__all__ = ["CALIBRATION_REFERENCE_S", "calibrate", "at_reference_speed",
           "SpeedClock"]

#: seconds one :func:`_calibration_unit` takes on the reference machine
#: when nothing else runs on the core's sibling; host times are reported
#: at this speed
CALIBRATION_REFERENCE_S = 0.00185


def _calibration_unit() -> None:
    """A fixed piece of host work shaped like the simulator's own.

    HMAC-SHA256 (the AEAD's keystream), dict updates and heap pushes and
    pops (the event loop).  Part of the benchmark's definition: changing
    it changes every host-clock metric.
    """
    key, message = b"k" * 32, b"m" * 64
    for _ in range(800):
        hmac.new(key, message, sha256).digest()
    table: Dict[int, int] = {}
    for index in range(8000):
        table[index & 255] = table.get(index & 255, 0) + index
    heap: List[int] = []
    for index in range(2000):
        heappush(heap, (index * 7919) % 1009)
    while heap:
        heappop(heap)


def calibrate() -> float:
    """Seconds one calibration unit takes now.

    One unit, not the best of several: the speed changes within tenths of
    a second, and the fastest of a few samples says how fast the core
    *can* be, not how fast it was next to the section being timed.
    Sections are short and many, so single samples average out.
    """
    start = time.perf_counter()
    _calibration_unit()
    return time.perf_counter() - start


def at_reference_speed(raw_s: float, *calibrations: float) -> float:
    """``raw_s`` scaled to the speed the calibrations around it saw."""
    mean = sum(calibrations) / len(calibrations)
    return raw_s * CALIBRATION_REFERENCE_S / mean


class SpeedClock:
    """Host seconds of consecutive sections, raw and at reference speed.

    Every section is bracketed by the calibration loop, and its wall
    time is scaled by ``CALIBRATION_REFERENCE_S / (mean of the two
    calibrations)``.  The calibrations themselves are outside every
    section.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.norm_s = 0.0
        self._speed = calibrate()
        self._mark = time.perf_counter()

    def lap(self) -> float:
        """End the running section and start the next; returns its
        seconds at reference speed."""
        raw = time.perf_counter() - self._mark
        after = calibrate()
        norm = at_reference_speed(raw, self._speed, after)
        self.raw_s += raw
        self.norm_s += norm
        self._speed = after
        self._mark = time.perf_counter()
        return norm
