"""Shared utilities: timers, memory accounting, RNG."""

from repro.utils.timing import Stopwatch, Timer, PhaseTimes
from repro.utils.memory import MemoryReport, nbytes_of, format_bytes
from repro.utils.rng import default_rng

__all__ = [
    "Stopwatch",
    "Timer",
    "PhaseTimes",
    "MemoryReport",
    "nbytes_of",
    "format_bytes",
    "default_rng",
]
