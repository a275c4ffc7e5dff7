"""Record-once trace cache.

The paper's LANDER methodology is record-once/analyze-many: headers
were captured to disk once and every analysis ran offline over the
stored trace.  :class:`TraceCache` gives our synthetic captures the
same shape.  The first full-duration replay of a dataset spills its
border traffic through the trace writer into an on-disk cache; every
later replay reads the stored columns back instead of regenerating the
traffic.

Cache entries are content-addressed by ``(dataset name, seed, scale,
generator version)`` plus the on-disk trace format version
(:data:`repro.trace.columnar.TRACE_FORMAT_VERSION`), so a change to the
traffic generator or the record layout invalidates old entries without
any bookkeeping -- artifacts of the same trace in two formats can never
collide on one path.  Writes go to a temporary file in the
cache directory and are published with an atomic rename, so concurrent
builders (e.g. ``runner --jobs N`` workers) can race on the same key
safely -- both produce identical bytes and the last rename wins.

Environment knobs::

    REPRO_TRACE_CACHE=/path/to/dir   relocate the cache
    REPRO_TRACE_CACHE=off            disable caching entirely
                                     (also: none / disabled / 0)

The default location is ``~/.cache/repro``.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.metrics import registry as _telemetry_registry
from repro.trace.columnar import TRACE_FORMAT_VERSION, trace_is_intact

#: Environment variable overriding the cache directory (or disabling it).
ENV_VAR = "REPRO_TRACE_CACHE"

_DISABLED_VALUES = frozenset({"off", "none", "disabled", "0"})

#: Bump when the on-disk trace layout or the cache keying changes.
CACHE_FORMAT_VERSION = 1

#: Cache entry suffix (same format as ``python -m repro record`` output).
TRACE_SUFFIX = ".rprt"

#: Cross-process hit/miss accumulator kept inside the cache directory.
STATS_FILE = "cache-stats.json"

_PERSISTED_FIELDS = ("hits", "misses", "evictions")


@dataclass
class TraceCacheStats:
    """Counters for one process's trace-cache traffic."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


@dataclass
class PendingTrace:
    """An in-progress cache write: fill ``tmp_path``, then commit.

    The temporary file lives next to the final path so the rename is
    atomic (same filesystem).  ``abort`` removes the partial file; an
    uncommitted pending trace never becomes visible to readers.
    """

    tmp_path: Path
    final_path: Path

    def commit(self) -> Path:
        os.replace(self.tmp_path, self.final_path)
        return self.final_path

    def abort(self) -> None:
        try:
            self.tmp_path.unlink()
        except FileNotFoundError:
            pass


@dataclass
class TraceCache:
    """Content-addressed store of recorded border traces.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first write).
    enabled:
        When False every lookup misses and nothing is written; replay
        falls back to fresh generation (the tests' default-off mode).
    """

    root: Path = field(default_factory=lambda: Path.home() / ".cache" / "repro")
    enabled: bool = True
    stats: TraceCacheStats = field(default_factory=TraceCacheStats)
    #: Watermarks of counters already folded into ``cache-stats.json``,
    #: so repeated flushes write only deltas.
    _flushed: dict = field(default_factory=dict, repr=False)
    _atexit_registered: bool = field(default=False, repr=False)

    @classmethod
    def from_env(cls) -> "TraceCache":
        """Build a cache per the ``REPRO_TRACE_CACHE`` environment knob."""
        value = os.environ.get(ENV_VAR)
        if value is not None and value.strip().lower() in _DISABLED_VALUES:
            return cls(enabled=False)
        if value:
            return cls(root=Path(value).expanduser())
        return cls()

    def path_for(self, key: tuple, format_version: int | None = None) -> Path:
        """The cache path a key maps to (whether or not it exists).

        The digest covers the on-disk trace format version alongside
        the content key: an entry recorded in one format can never be
        served for a lookup expecting another.  *format_version*
        defaults to the version new recordings are written in.
        """
        if format_version is None:
            format_version = TRACE_FORMAT_VERSION
        digest = hashlib.sha256(
            repr(
                (CACHE_FORMAT_VERSION, format_version) + tuple(key)
            ).encode("utf-8")
        ).hexdigest()
        stem = str(key[0]) if key else "trace"
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in stem)
        return self.root / f"{safe}-v{format_version}-{digest[:16]}{TRACE_SUFFIX}"

    def lookup(self, key: tuple) -> Path | None:
        """Return the stored trace for *key*, counting a hit or miss.

        A damaged entry (bad header, a chunk walk that breaks or does
        not add up to the record count the writer stamped on close, or
        a file in another format version) is removed and reported as a
        miss, so replay regenerates and re-records rather than feeding
        observers a partial stream.
        """
        if not self.enabled:
            return None
        self._register_flush()
        reg = _telemetry_registry()
        path = self.path_for(key)
        if path.is_file():
            if trace_is_intact(path):
                self.stats.hits += 1
                reg.counter(
                    "repro_cache_hits_total",
                    "Trace-cache lookups served from a stored recording.",
                ).inc()
                if reg.enabled:
                    try:
                        reg.counter(
                            "repro_cache_bytes_read_total",
                            "Bytes of stored trace handed to batched replay.",
                        ).inc(path.stat().st_size)
                    except OSError:
                        pass
                return path
            self.stats.evictions += 1
            reg.counter(
                "repro_cache_corrupt_evictions_total",
                "Damaged cache entries removed at lookup time.",
            ).inc()
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        self.stats.misses += 1
        reg.counter(
            "repro_cache_misses_total",
            "Trace-cache lookups that fell back to fresh generation.",
        ).inc()
        return None

    def begin_write(self, key: tuple) -> PendingTrace:
        """Open an atomic write for *key* (write tmp, then ``commit``)."""
        final = self.path_for(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = final.with_name(f"{final.name}.tmp.{os.getpid()}")
        return PendingTrace(tmp_path=tmp, final_path=final)

    def entries(self) -> list[Path]:
        """All stored traces, largest first."""
        if not self.root.is_dir():
            return []
        found = [p for p in self.root.glob(f"*{TRACE_SUFFIX}") if p.is_file()]
        return sorted(found, key=lambda p: p.stat().st_size, reverse=True)

    def clear(self) -> int:
        """Remove every stored trace; return how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass
        try:
            self.stats_path().unlink()
        except OSError:
            pass
        self.stats = TraceCacheStats()
        self._flushed = {}
        return removed

    # ---- persistent hit/miss counters -------------------------------

    def stats_path(self) -> Path:
        """Where the cross-process counters live (inside the cache)."""
        return self.root / STATS_FILE

    def _register_flush(self) -> None:
        if not self._atexit_registered:
            self._atexit_registered = True
            atexit.register(self.flush_persistent_stats)

    def _read_stats_file(self) -> dict:
        try:
            payload = json.loads(self.stats_path().read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {name: 0 for name in _PERSISTED_FIELDS}
        return {
            name: int(payload.get(name, 0) or 0) for name in _PERSISTED_FIELDS
        }

    def flush_persistent_stats(self) -> None:
        """Fold this process's unflushed counters into ``cache-stats.json``.

        Best-effort by design: counters are advisory, so a read-modify-
        write race with another process may under-count, and any OSError
        is swallowed.  Only deltas since the previous flush are written,
        making the method safe to call any number of times (it also runs
        atexit once a lookup has happened).
        """
        if not self.enabled:
            return
        deltas = {
            name: getattr(self.stats, name) - self._flushed.get(name, 0)
            for name in _PERSISTED_FIELDS
        }
        if not any(deltas.values()):
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            payload = self._read_stats_file()
            for name, delta in deltas.items():
                payload[name] += delta
            tmp = self.stats_path().with_name(
                f"{STATS_FILE}.tmp.{os.getpid()}"
            )
            tmp.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, self.stats_path())
        except OSError:
            return
        for name in _PERSISTED_FIELDS:
            self._flushed[name] = getattr(self.stats, name)

    def counts(self) -> dict:
        """This process's persisted counters as they stand, by name."""
        return {name: getattr(self.stats, name) for name in _PERSISTED_FIELDS}

    def add_counts(self, deltas: dict) -> None:
        """Count lookups another process made (a forked child, which
        exits without running atexit) as this process's own, so this
        process's flush writes them."""
        if not any(deltas.values()):
            return
        for name, delta in deltas.items():
            setattr(self.stats, name, getattr(self.stats, name) + delta)
        self._register_flush()

    def persistent_stats(self) -> dict:
        """Accumulated hit/miss/eviction counts across all processes.

        The stored file plus this process's not-yet-flushed deltas, so
        ``python -m repro cache`` reflects the current process too.
        """
        payload = self._read_stats_file()
        for name in _PERSISTED_FIELDS:
            payload[name] += getattr(self.stats, name) - self._flushed.get(
                name, 0
            )
        return payload


_default: TraceCache | None = None
_default_env: str | None = None


def default_trace_cache() -> TraceCache:
    """The process-wide cache configured from the environment.

    Re-reads ``REPRO_TRACE_CACHE`` on every call so tests can repoint
    or disable the cache with ``monkeypatch.setenv``; the instance (and
    its stats) is only rebuilt when the variable actually changes.
    """
    global _default, _default_env
    value = os.environ.get(ENV_VAR)
    if _default is None or value != _default_env:
        _default = TraceCache.from_env()
        _default_env = value
    return _default

