"""In-process membership and liveness tracking for fabric workers.

The fabric's supervisor is the single coordinator, so membership is a
bookkeeping table rather than a gossip protocol: each shard slot holds
the **incarnation** currently expected to serve it, when that
incarnation was launched, whether it completed the join handshake, and
when it last heartbeat.  Workers include their incarnation number on
every message; the table's :meth:`Membership.is_current` check lets the
supervisor discard stale traffic from a prior incarnation that lingered
in a queue after its process was declared dead.

Liveness is pull-based from the supervisor's side: workers beat every
:data:`HEARTBEAT_SECONDS` on their own wall clock, and
:meth:`Membership.overdue` declares a member dead once its heartbeat
age exceeds :data:`MISS_BUDGET` intervals (or, before the join handshake
completes, once :data:`JOIN_TIMEOUT_SECONDS` passes -- a worker that
never joins is as dead as one that stops beating).  All decisions take
``now`` as an argument so tests drive the clock explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: How often a worker beats.  It reads its clock once per work item
#: (or every half interval when idle) and sends a few bytes per beat,
#: so the cadence is free; a quarter second keeps ``/healthz`` ages
#: under a second.
HEARTBEAT_SECONDS = 0.25

#: Intervals a joined worker may stay silent before it is declared
#: dead: 2 s at the cadence above, well past one batch's fold (~10 ms)
#: and a GC pause, short enough that a stalled worker is replaced fast.
MISS_BUDGET = 8

#: How long a launched worker may take to complete the join handshake.
#: Generous: a fork under memory pressure can take seconds, and a
#: worker that never joins costs one restart, not a hang.
JOIN_TIMEOUT_SECONDS = 30.0


@dataclass
class Member:
    """One shard slot's current incarnation and its liveness evidence."""

    shard: int
    incarnation: int = -1
    pid: int | None = None
    launched_at: float = 0.0
    joined_at: float | None = None
    last_heartbeat: float | None = None
    restarts: int = 0
    heartbeats: int = 0

    @property
    def joined(self) -> bool:
        return self.joined_at is not None


@dataclass
class Membership:
    """The supervisor's view of which worker serves each shard.

    :meth:`overdue` reads the liveness constants when it is called, so
    a test that patches them reaches a table already built.
    """

    shards: int
    members: dict[int, Member] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        for shard in range(self.shards):
            self.members.setdefault(shard, Member(shard=shard))

    # ---- lifecycle ----------------------------------------------------

    def launch(self, shard: int, now: float, pid: int | None = None) -> int:
        """Record a (re)launch of *shard*; returns the new incarnation.

        Resets the join/heartbeat evidence -- the new process has not
        proven liveness yet -- while preserving the restart counter.
        """
        member = self.members[shard]
        member.incarnation += 1
        member.pid = pid
        member.launched_at = now
        member.joined_at = None
        member.last_heartbeat = None
        return member.incarnation

    def join(self, shard: int, incarnation: int, now: float,
             pid: int | None = None) -> bool:
        """Complete the registration handshake; False when stale."""
        member = self.members[shard]
        if incarnation != member.incarnation:
            return False
        member.joined_at = now
        member.last_heartbeat = now
        if pid is not None:
            member.pid = pid
        return True

    def heartbeat(self, shard: int, incarnation: int, now: float) -> bool:
        """Record a heartbeat; False (ignored) when from a stale incarnation."""
        member = self.members[shard]
        if incarnation != member.incarnation or not member.joined:
            return False
        member.last_heartbeat = now
        member.heartbeats += 1
        return True

    def note_restart(self, shard: int) -> int:
        """Count a restart decision; returns the total for the shard."""
        member = self.members[shard]
        member.restarts += 1
        return member.restarts

    # ---- queries ------------------------------------------------------

    def is_current(self, shard: int, incarnation: int) -> bool:
        return self.members[shard].incarnation == incarnation

    def restarts(self, shard: int) -> int:
        return self.members[shard].restarts

    def heartbeat_age(self, shard: int, now: float) -> float:
        """Seconds since the member last proved liveness.

        Before the join completes this measures from launch, so a
        worker stuck in startup accrues age like a silent one.
        """
        member = self.members[shard]
        basis = member.last_heartbeat
        if basis is None:
            basis = member.launched_at
        return max(0.0, now - basis)

    def overdue(self, shard: int, now: float) -> bool:
        """True when the member must be declared dead and reassigned."""
        member = self.members[shard]
        if member.incarnation < 0:
            return False  # never launched
        if not member.joined:
            return now - member.launched_at > JOIN_TIMEOUT_SECONDS
        assert member.last_heartbeat is not None
        return now - member.last_heartbeat > MISS_BUDGET * HEARTBEAT_SECONDS

    def health(self, now: float) -> list[dict]:
        """Per-shard liveness summary, JSON-ready for ``/healthz``.

        One dict per shard: current incarnation, pid, whether the join
        handshake completed, restart count, heartbeat age in seconds,
        and accepted-heartbeat total.
        """
        summary = []
        for shard in range(self.shards):
            member = self.members[shard]
            summary.append(
                {
                    "shard": shard,
                    "incarnation": member.incarnation,
                    "pid": member.pid,
                    "joined": member.joined,
                    "restarts": member.restarts,
                    "heartbeat_age": round(self.heartbeat_age(shard, now), 3),
                    "heartbeats": member.heartbeats,
                }
            )
        return summary
