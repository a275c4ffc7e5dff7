"""In-process membership and liveness tracking for fabric workers.

The fabric's supervisor is the single coordinator, so membership is a
bookkeeping table rather than a gossip protocol: each shard slot holds
the **incarnation** currently expected to serve it, when that
incarnation was launched, whether it completed the join handshake, and
when it last answered.  Workers include their incarnation number on
every message; the table's :meth:`Membership.is_current` check lets the
supervisor discard stale traffic from a prior incarnation that lingered
in a queue after its process was declared dead.

Liveness is read off what the workers do anyway, never probed.  Before
its join a worker has :data:`JOIN_TIMEOUT_SECONDS`; after it, a worker
is overdue only while it **owes** an answer (the supervisor says so
through :meth:`Membership.owe`) and has given none for
:data:`STALL_TIMEOUT_SECONDS`, counted from the latest of its join, its
last answer and the moment the obligation began.  A worker that owes
nothing is never declared dead by a clock: an exit, a pipe at EOF or a
reported error is how it dies then, and the supervisor sees those
directly.  All decisions take ``now`` as an argument so tests drive the
clock explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: How long a launched worker may take to complete the join handshake.
#: Generous: a fork under memory pressure can take seconds, and a
#: worker restores its state before it joins, so a worker that never
#: joins costs one restart, not a hang.
JOIN_TIMEOUT_SECONDS = 30.0

#: How long a joined worker may owe an answer without giving one: two
#: hundred folds of a ring slot's rows (~10 ms each), well past a
#: checkpoint's fsync and a GC pause, short enough that a wedged
#: worker is replaced fast.
STALL_TIMEOUT_SECONDS = 2.0


@dataclass
class Member:
    """One shard slot's current incarnation and its liveness evidence."""

    shard: int
    incarnation: int = -1
    pid: int | None = None
    launched_at: float = 0.0
    joined_at: float | None = None
    answered_at: float | None = None
    owes_since: float | None = None
    restarts: int = 0

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

        Resets the join/answer evidence -- the new process has not
        proven liveness yet and owes nothing -- while preserving the
        restart counter.
        """
        member = self.members[shard]
        member.incarnation += 1
        member.pid = pid
        member.launched_at = now
        member.joined_at = member.answered_at = member.owes_since = None
        return member.incarnation

    def join(self, shard: int, incarnation: int, now: float,
             pid: int | None = None) -> bool:
        """Complete the registration handshake; False when stale."""
        member = self.members[shard]
        if incarnation != member.incarnation:
            return False
        member.joined_at = now
        if pid is not None:
            member.pid = pid
        return True

    def answer(self, shard: int, incarnation: int, now: float) -> bool:
        """Record an answer; False (ignored) when from a stale incarnation."""
        member = self.members[shard]
        if incarnation != member.incarnation:
            return False
        member.answered_at = now
        return True

    def owe(self, shard: int, owes: bool, now: float) -> None:
        """Say whether the current incarnation owes an answer at *now*;
        an obligation that was already running keeps its start."""
        member = self.members[shard]
        if not owes:
            member.owes_since = None
        elif member.owes_since is None:
            member.owes_since = now

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

    def answer_age(self, shard: int, now: float) -> float:
        """Seconds since the member last answered or joined.

        Before the join completes this measures from launch, so a
        worker stuck in startup accrues age like a silent one.
        """
        member = self.members[shard]
        basis = max(
            member.launched_at, member.joined_at or 0.0,
            member.answered_at or 0.0,
        )
        return max(0.0, now - basis)

    def overdue(self, shard: int, now: float) -> str | None:
        """Why the member must be declared dead and reassigned, or None."""
        member = self.members[shard]
        if member.incarnation < 0:
            return None  # never launched
        if not member.joined:
            if now - member.launched_at > JOIN_TIMEOUT_SECONDS:
                return f"no join within {JOIN_TIMEOUT_SECONDS:.1f}s"
        elif member.owes_since is not None:
            silent = now - max(member.joined_at, member.answered_at or 0.0,
                               member.owes_since)
            if silent > STALL_TIMEOUT_SECONDS:
                return f"owes an answer, silent for {silent:.2f}s"
        return None

    def health(self, now: float) -> list[dict]:
        """Per-shard liveness summary, JSON-ready for ``/healthz``.

        One dict per shard: current incarnation, pid, whether the join
        handshake completed, restart count, answer age in seconds, and
        whether it owes an answer now.
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
                    "answer_age": round(self.answer_age(shard, now), 3),
                    "owes": member.owes_since is not None,
                }
            )
        return summary
