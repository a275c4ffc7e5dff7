"""The fault plan: one immutable, seeded description of what fails.

A :class:`FaultPlan` is configuration, not state.  Consumers ask it for
fresh stateful fault models (:meth:`FaultPlan.capture_filter`,
:meth:`FaultPlan.probe_faults`) per measurement pass; the plan itself
can be shared, pickled across worker processes, and reused.

Seeding contract
----------------
Every random stream a plan hands out is derived as
``derive_seed(plan.seed, "faults.<component>.<instance>")``:

* ``faults.capture.<link>`` -- per-link capture loss (i.i.d. + bursts);
* ``faults.outage.<link>`` -- per-link maintenance window placement;
* ``faults.probe.<scan_id>.<machine>`` -- per-scanner-machine probe and
  response transmission loss;
* ``faults.downtime.<scan_id>.<machine>`` -- per-machine outage windows;
* ``faults.cache.<key>`` -- trace-cache corruption rolls.

Streams are consumed in deterministic order (record order on a link,
probe order on a machine), so a fixed ``(seed, rates)`` plan produces
identical faults in every process -- two runs, or ``--jobs 1`` versus
``--jobs 4``, degrade the measurement in exactly the same places.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

from repro.simkernel.rng import derive_seed

#: Fraction of a trace file chopped off when cache corruption strikes.
_TRUNCATION_FRACTION = 0.5

_RATE_FIELDS = (
    "capture_loss_rate",
    "burst_loss_rate",
    "outage_fraction",
    "probe_loss_rate",
    "response_loss_rate",
    "prober_downtime_fraction",
    "cache_corruption_rate",
)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of every injected measurement failure.

    Attributes
    ----------
    seed:
        Root of every fault stream (see the module docstring).  Derive
        it from the experiment's master seed so fault realisations are
        reproducible alongside the population/traffic realisation.
    capture_loss_rate:
        Per-record i.i.d. probability a captured header is dropped at
        the link tap (LANDER losing packets under load).
    burst_loss_rate:
        Per-record probability of *entering* a loss burst (a
        Gilbert-style bad state that swallows whole runs of records,
        as interface buffer overruns do).
    burst_mean_length:
        Mean number of consecutive records a burst swallows
        (geometric).
    outage_fraction:
        Fraction of each monitored link's time spent in scheduled
        maintenance outages; capture on that link sees nothing inside
        an outage window.
    outage_count:
        Number of maintenance windows the outage fraction is split
        into per link.
    probe_loss_rate:
        Probability a single SYN probe transmission never reaches the
        target.
    response_loss_rate:
        Probability a target's answer (SYN-ACK or RST) is lost on the
        way back.
    probe_retries:
        Nmap-style retransmit budget: silent probes are retried up to
        this many extra times with exponential backoff.
    retry_backoff_seconds:
        Backoff before the first retransmit; doubles per attempt, and
        shifts the *observed* discovery time of answers that needed
        retries.
    prober_downtime_fraction:
        Fraction of each sweep during which a scanning machine is down
        (crashed prober host); its probes in that span are never sent.
    cache_corruption_rate:
        Probability a freshly committed trace-cache entry is truncated
        on disk, exercising the damaged-entry eviction path end to
        end.
    """

    seed: int = 0
    # -- passive capture ------------------------------------------------
    capture_loss_rate: float = 0.0
    burst_loss_rate: float = 0.0
    burst_mean_length: float = 50.0
    # -- monitor outages ------------------------------------------------
    outage_fraction: float = 0.0
    outage_count: int = 1
    # -- active probing -------------------------------------------------
    probe_loss_rate: float = 0.0
    response_loss_rate: float = 0.0
    probe_retries: int = 2
    retry_backoff_seconds: float = 1.0
    prober_downtime_fraction: float = 0.0
    # -- storage --------------------------------------------------------
    cache_corruption_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.burst_mean_length < 1.0:
            raise ValueError(
                f"burst_mean_length must be >= 1, got {self.burst_mean_length}"
            )
        if self.outage_count < 1:
            raise ValueError(f"outage_count must be >= 1, got {self.outage_count}")
        if self.probe_retries < 0:
            raise ValueError(f"probe_retries must be >= 0, got {self.probe_retries}")
        if self.retry_backoff_seconds < 0:
            raise ValueError(
                "retry_backoff_seconds must be >= 0, got "
                f"{self.retry_backoff_seconds}"
            )

    # ---- classification ----------------------------------------------

    @property
    def is_null(self) -> bool:
        """True when no fault of any kind can fire."""
        return all(getattr(self, name) == 0.0 for name in _RATE_FIELDS)

    @property
    def has_capture_faults(self) -> bool:
        return (
            self.capture_loss_rate > 0.0
            or self.burst_loss_rate > 0.0
            or self.outage_fraction > 0.0
        )

    @property
    def has_probe_faults(self) -> bool:
        return (
            self.probe_loss_rate > 0.0
            or self.response_loss_rate > 0.0
            or self.prober_downtime_fraction > 0.0
        )

    # ---- fault-model factories ----------------------------------------

    def capture_filter(self, duration: float) -> "CaptureFilter | None":
        """A fresh capture-loss filter for one pass over a trace.

        Returns ``None`` when the plan injects no capture faults, so
        callers can hand the result straight to the ``faults=``
        parameters of the replay machinery (``None`` means the
        pristine path).  A filter instance carries per-link RNG state
        and must see each pass's records exactly once; build a new one
        per pass.
        """
        if not self.has_capture_faults:
            return None
        from repro.faults.capture import CaptureFilter

        return CaptureFilter(plan=self, duration=duration)

    def probe_faults(
        self, scan_id: int, start: float, duration: float
    ) -> "ProbeFaults | None":
        """A fresh probe-fault model for one active sweep.

        ``None`` when the plan injects no active-measurement faults.
        """
        if not self.has_probe_faults:
            return None
        from repro.faults.active import ProbeFaults

        return ProbeFaults(
            plan=self, scan_id=scan_id, start=start, duration=duration
        )

    # ---- pure derivations ---------------------------------------------

    def outage_windows(
        self, link: str, duration: float
    ) -> tuple[tuple[float, float], ...]:
        """Scheduled maintenance windows for *link* over ``[0, duration)``.

        The outage fraction is split into ``outage_count`` equal
        windows, one placed uniformly at random inside each equal
        segment of the observation, so windows never overlap and the
        realised dark time is exactly ``outage_fraction * duration``.
        A pure function of ``(seed, link, duration)``.
        """
        if self.outage_fraction <= 0.0 or duration <= 0.0:
            return ()
        rng = random.Random(derive_seed(self.seed, f"faults.outage.{link}"))
        segment = duration / self.outage_count
        width = self.outage_fraction * segment
        windows = []
        for index in range(self.outage_count):
            offset = rng.uniform(0.0, segment - width)
            start = index * segment + offset
            windows.append((start, start + width))
        return tuple(windows)

    # ---- storage faults -----------------------------------------------

    def maybe_corrupt_trace(self, path: str | Path, key: tuple) -> bool:
        """Roll for cache corruption and truncate *path* on a hit.

        Called by the dataset builder right after a trace-cache entry
        commits.  Truncation chops the tail of the file, leaving a
        damaged entry whose record payload no longer matches the
        header -- exactly the shape ``TraceCache.lookup`` must detect,
        evict, and regenerate.  Returns whether corruption fired.
        The roll is a pure function of ``(seed, key)``, so every
        worker that writes the same entry corrupts it identically.
        """
        if self.cache_corruption_rate <= 0.0:
            return False
        rng = random.Random(derive_seed(self.seed, f"faults.cache.{key!r}"))
        if rng.random() >= self.cache_corruption_rate:
            return False
        path = Path(path)
        size = path.stat().st_size
        keep = max(1, int(size * (1.0 - _TRUNCATION_FRACTION)))
        with open(path, "r+b") as handle:
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())
        return True
