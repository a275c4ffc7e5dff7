"""Named, independently seeded random streams.

Every stochastic component of the simulator (host churn, client
arrivals, scanner timing, ...) draws from its own named stream.  Streams
are derived from a single master seed with a stable hash, so:

* adding a new component never perturbs the draws of existing ones;
* two datasets built with the same seed are bit-identical;
* a component can be re-run in isolation and see the same randomness.

``random.Random`` is used rather than numpy generators because draws
are fine-grained and interleaved; the per-call overhead of vectorised
generators buys nothing here, while ``Random`` objects are cheap and
picklable.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Sequence, TypeVar

from repro.telemetry.metrics import registry as _telemetry_registry

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from *master_seed* and a stream *name*.

    Uses SHA-256 rather than ``hash()`` so the derivation is stable
    across interpreter runs (string hashing is salted by default).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A factory of named :class:`random.Random` streams.

    Examples
    --------
    >>> streams = RngStreams(master_seed=42)
    >>> churn = streams.stream("campus.churn")
    >>> clients = streams.stream("traffic.clients")
    >>> churn is streams.stream("campus.churn")
    True
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for *name*, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        rng = random.Random(derive_seed(self.master_seed, name))
        self._streams[name] = rng
        # Stream creation is rare (a handful per dataset build), so this
        # aggregate counter goes through the registry unconditionally.
        _telemetry_registry().counter(
            "repro_simkernel_rng_streams_total",
            "Named RNG streams created from master seeds.",
        ).inc()
        return rng

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RngStreams(master_seed={self.master_seed}, "
            f"streams={sorted(self._streams)})"
        )


def zipf_weights(n: int, exponent: float = 1.0) -> list[float]:
    """Return *n* Zipf-distributed weights summing to 1.0.

    The paper's headline weighting result (99 % of flows covered by the
    handful of most popular servers) relies on a heavy-tailed popularity
    distribution; Zipf is the standard choice for service popularity.
    """
    if n <= 0:
        return []
    raw = [1.0 / (rank ** exponent) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def weighted_choice(rng: random.Random, items: Sequence[T], weights: Sequence[float]) -> T:
    """Pick one of *items* with the given (not necessarily normalised) weights."""
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    total = float(sum(weights))
    if total <= 0.0 or not math.isfinite(total):
        raise ValueError(f"weights must sum to a positive finite value, got {total}")
    point = rng.random() * total
    cumulative = 0.0
    for item, weight in zip(items, weights):
        cumulative += weight
        if point < cumulative:
            return item
    return items[-1]
