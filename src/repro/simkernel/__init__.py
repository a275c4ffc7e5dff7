"""Simulation kernel.

This subpackage provides the deterministic machinery every simulated
dataset is built on:

* :mod:`repro.simkernel.clock` -- duration helpers and a fixed calendar
  so results can be reported with the paper's month-day axis labels.
* :mod:`repro.simkernel.rng` -- named, independently seeded random
  streams derived from a single master seed.
* :mod:`repro.simkernel.schedule` -- periodic and diurnal schedule
  helpers (e.g. "every 12 hours at 11:00 and 23:00").

Nothing in this package knows about networks; it is a generic kernel.
"""

from repro.simkernel.clock import Calendar, days, hours, minutes, seconds
from repro.simkernel.rng import RngStreams
from repro.simkernel.schedule import DiurnalProfile, PeriodicSchedule, times_of_day

__all__ = [
    "Calendar",
    "DiurnalProfile",
    "PeriodicSchedule",
    "RngStreams",
    "days",
    "hours",
    "minutes",
    "seconds",
    "times_of_day",
]
