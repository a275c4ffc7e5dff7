"""Experiment harness: one module per paper table and figure.

Every experiment module exposes::

    run(seed: int = 0, scale: float = 1.0) -> ExperimentResult

returning an :class:`~repro.experiments.common.ExperimentResult` whose
``render()`` emits the reproduced rows/series next to the paper's
numbers and whose ``metrics`` dict feeds the rows of the fidelity
ledger (:mod:`repro.experiments.fidelity`), the one table of the
paper's shape targets.  :mod:`repro.experiments.runner` executes all of
them and regenerates EXPERIMENTS.md.
"""

from repro.experiments.common import (
    AnalysisContext,
    ExperimentResult,
    clear_caches,
    get_context,
    get_dataset,
)

ALL_EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "figure01",
    "figure02",
    "figure03",
    "figure04",
    "figure05",
    "figure06",
    "figure07",
    "figure08",
    "figure09",
    "figure10",
    "figure11",
    "figure12",
)

#: Functions of :mod:`repro.experiments.ablations`, runnable by
#: ``run_experiment`` under these names; ledger rows only, never
#: sections of EXPERIMENTS.md.
ABLATIONS = (
    "ablations.host_discovery",
    "ablations.sampling",
    "ablations.scan_thresholds",
    "ablations.service_signal",
)

__all__ = [
    "ABLATIONS",
    "ALL_EXPERIMENTS",
    "AnalysisContext",
    "ExperimentResult",
    "clear_caches",
    "get_context",
    "get_dataset",
]
