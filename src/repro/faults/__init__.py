"""Seeded measurement-fault injection.

The paper's measurements were themselves lossy: LANDER capture drops
packets under load, the peering-link monitors went down for
maintenance, and probe responses were silently eaten by firewalls and
congested paths.  This package models those failures as a single
seeded, deterministic :class:`~repro.faults.plan.FaultPlan` so the
sensitivity of every completeness result to measurement failure can be
*measured* instead of hand-waved (see
:mod:`repro.experiments.degradation`).

The seeding contract (DESIGN.md section 9): every stochastic fault
decision derives from ``FaultPlan.seed`` through
:func:`repro.simkernel.rng.derive_seed` with a component-scoped stream
name, and is consumed in deterministic stream order, so a fixed plan
produces bit-identical faults across processes, runs, and
``--jobs N`` fan-out.  ``FaultPlan()`` is inert: every consumer
short-circuits to its pristine code path, so analyses without faults
stay byte-identical to a build that never imported this package.
"""

from repro.faults.active import ProbeFaults
from repro.faults.capture import CaptureFilter
from repro.faults.plan import FaultPlan
from repro.faults.worker import WorkerFaultEvents, WorkerFaultPlan

__all__ = [
    "CaptureFilter",
    "FaultPlan",
    "ProbeFaults",
    "WorkerFaultEvents",
    "WorkerFaultPlan",
]
