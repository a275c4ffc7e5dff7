"""Versioned, atomic, integrity-checked checkpoints of stream state.

A checkpoint captures everything a killed stream run needs to resume
*bit-identically*: the raw source offset (records read, always a batch
boundary), per-shard discovery state, the fault filter's per-link loss
processes, and the watermark emission cursor.  Snapshots are plain
pickled dicts -- shard state is exported via ``state_dict()`` rather
than pickling live objects, since the passive table's campus predicate
is an unpicklable closure (and reconstructing from config keeps old
checkpoints loadable as code evolves).

Two durability layers protect every artifact this module writes:

* **Atomic, fsynced writes** (:func:`repro.durable.write_atomic`).
  Data goes to a tmp file that is fsynced and ``os.replace``d into
  place, and then the *parent directory* is fsynced too -- the rename
  itself is metadata, and a crash right after ``os.replace`` could
  otherwise roll the directory entry back to the old (or no) file on
  power loss.
* **A length + CRC32 trailer.**  Every file ends with an 8-byte
  ``(payload length, crc32)`` trailer checked before unpickling, so a
  truncated or bit-flipped checkpoint surfaces as a clear
  :class:`CheckpointCorrupt` naming the file instead of a raw
  ``UnpicklingError``/``EOFError`` from deep inside pickle.

There is one on-disk layout of stream state, whichever transport took
it: the **generation store** (:class:`ShardCheckpointStore`).  Each
shard's state goes to its own ``shard-SSS.gen-GGGGGG.ckpt`` file
(written by its :class:`~repro.stream.shard.ShardServant`, on a shard
thread or in a worker process), and a ``manifest.gen-GGGGGG.ckpt`` carrying
the run's progress commits the generation only after every shard file
landed -- so a generation is either fully committed or invisible.  The
store retains the last ``keep_generations`` committed generations; a
corrupt file in the newest generation falls back to the previous good
one (the caller replays the wider source gap to catch up).  Every file
is written and read by one codec, :func:`save_checkpoint` /
:func:`load_checkpoint`.

The format carries a version field; loaders reject unknown versions
and config mismatches loudly instead of resuming a stream they cannot
faithfully continue.
"""

from __future__ import annotations

import pickle
import re
import struct
import zlib
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

from repro.durable import write_atomic

#: Bump when the snapshot layout changes incompatibly.  Version 2 added
#: the length+CRC32 integrity trailer (version-1 files, having no
#: trailer, now read as corrupt -- checkpoints are ephemeral run state,
#: never long-lived artifacts).
STREAM_CHECKPOINT_VERSION = 2

#: Integrity trailer: little-endian (payload length, CRC32 of payload).
_TRAILER = struct.Struct("<II")

_SHARD_FILE = "shard-{shard:03d}.gen-{generation:06d}.ckpt"
_MANIFEST_FILE = "manifest.gen-{generation:06d}.ckpt"
_MANIFEST_RE = re.compile(r"^manifest\.gen-(\d{6})\.ckpt$")
#: Any store file's generation, and whether it is a writer's temp file.
_GENERATION_RE = re.compile(r"\.gen-(\d{6})\.ckpt(\.tmp)?$")


class CheckpointError(RuntimeError):
    """A checkpoint exists but cannot be used to resume this run."""


class CheckpointCorrupt(CheckpointError):
    """A checkpoint file failed its integrity check (names the file)."""

    def __init__(self, path: "str | Path", detail: str) -> None:
        super().__init__(f"checkpoint {path} is corrupt: {detail}")
        self.path = Path(path)
        self.detail = detail


def checkpoint_config(
    dataset: str, seed: int, scale: float, shards: int, fault_digest: str | None,
    probe: dict | None = None,
) -> dict:
    """The identity a checkpoint is only valid for (compared on load).

    *probe* is the online-probing identity (policy name, rate, port
    list) when the run probes online; it joins the identity only then,
    so passive checkpoints keep their existing shape and an online
    checkpoint can never resume a passive run (or vice versa, or an
    online run under a different probe schedule).
    """
    identity = {
        "dataset": dataset,
        "seed": seed,
        "scale": repr(scale),
        "shards": shards,
        "fault_digest": fault_digest,
    }
    if probe is not None:
        identity["probe"] = probe
    return identity


# ---- framing ---------------------------------------------------------


def _frame(data: bytes) -> bytes:
    """Append the length+CRC32 integrity trailer to *data*."""
    return data + _TRAILER.pack(len(data), zlib.crc32(data))


def _unframe(raw: bytes, path: "str | Path") -> bytes:
    """Strip and verify the trailer; raise :class:`CheckpointCorrupt`."""
    if len(raw) < _TRAILER.size:
        raise CheckpointCorrupt(
            path, f"only {len(raw)} bytes, shorter than the integrity trailer"
        )
    data = raw[: -_TRAILER.size]
    length, crc = _TRAILER.unpack(raw[-_TRAILER.size:])
    if length != len(data):
        raise CheckpointCorrupt(
            path,
            f"trailer says {length} payload bytes but file holds "
            f"{len(data)} (truncated or torn write)",
        )
    if crc != zlib.crc32(data):
        raise CheckpointCorrupt(path, "CRC32 mismatch (bit flip or torn write)")
    return data


def save_checkpoint(path: "str | Path", payload: dict) -> int:
    """Atomically write *payload* as one checkpoint file; return its size."""
    payload = {"version": STREAM_CHECKPOINT_VERSION, **payload}
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return write_atomic(path, _frame(data))


def load_checkpoint(path: "str | Path", config: dict) -> dict:
    """Read one checkpoint file and validate it against this run's *config*.

    Raises :class:`CheckpointCorrupt` when the file fails its
    length/CRC32 trailer or does not unpickle to a dict, and the broader
    :class:`CheckpointError` when it cannot be read, its version is
    unknown, or it was taken under a different (dataset, seed, scale,
    shards, faults, probe) identity.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    data = _unframe(raw, path)
    try:
        payload = pickle.loads(data)
    except Exception as exc:  # pickle raises a zoo of types
        raise CheckpointCorrupt(
            path, f"payload passed CRC but does not unpickle: {exc!r}"
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointCorrupt(
            path, f"payload is {type(payload).__name__}, expected dict"
        )
    version = payload.get("version")
    if version != STREAM_CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version!r}; "
            f"this build reads version {STREAM_CHECKPOINT_VERSION}"
        )
    saved = payload.get("config")
    if saved != config:
        raise CheckpointError(
            f"checkpoint {path} was taken under a different run identity: "
            f"saved {saved!r}, current {config!r}"
        )
    return payload


# ---- the generation store ---------------------------------------------


@dataclass(frozen=True)
class ShardRestore:
    """Where one shard's state can be restored from.

    ``state`` is the shard's ``state_dict`` snapshot (``None`` means no
    usable checkpoint survives: start fresh).  ``records_read`` is the
    global source offset the state corresponds to and ``faults`` the
    capture filter's state at that offset -- together they let the
    transport replay exactly the gap ``[records_read, now)`` from the
    trace to catch the shard up.
    """

    shard: int
    state: dict | None
    records_read: int
    faults: dict | None

    @property
    def fresh(self) -> bool:
        return self.state is None


@dataclass(frozen=True)
class RestorePlan:
    """A full restore: the resume point plus per-shard bases.

    ``manifest`` is the newest committed manifest (run progress resumes
    from it); each entry of ``shards`` may sit at an older generation
    (its newest file was corrupt) or at generation zero (fresh), in
    which case the transport replays the source gap up to the
    manifest's offset before resuming the live stream.
    """

    generation: int
    manifest: dict
    shards: tuple[ShardRestore, ...]


class ShardCheckpointStore:
    """Per-shard checkpoint files plus generation manifests, in one dir.

    Layout::

        <root>/shard-003.gen-000007.ckpt   one file per shard per generation
        <root>/manifest.gen-000007.ckpt    commit record for generation 7

    Whoever owns a shard's state writes its file (its servant, on a
    shard thread or a fabric worker); the run's driver writes the
    manifest last, so the manifest's existence *is* the commit.
    ``keep_generations`` committed generations are retained, giving
    corruption fallback one generation of slack by default.
    """

    def __init__(self, root: "str | Path", keep_generations: int = 2) -> None:
        if keep_generations < 1:
            raise ValueError("keep_generations must be >= 1")
        self.root = Path(root)
        self.keep_generations = keep_generations
        if self.root.is_file():
            raise CheckpointError(
                f"checkpoint store {self.root} is a file, not a directory "
                f"(a single-file checkpoint from an older version?); "
                f"remove it or choose another checkpoint path"
            )

    # ---- paths --------------------------------------------------------

    def shard_path(self, shard: int, generation: int) -> Path:
        return self.root / _SHARD_FILE.format(shard=shard, generation=generation)

    def manifest_path(self, generation: int) -> Path:
        return self.root / _MANIFEST_FILE.format(generation=generation)

    def generations(self) -> list[int]:
        """Committed (manifest-bearing) generations, newest first."""
        if not self.root.is_dir():
            return []
        found = []
        for entry in self.root.iterdir():
            match = _MANIFEST_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found, reverse=True)

    # ---- writes -------------------------------------------------------

    def save_shard(
        self, shard: int, generation: int, config: dict, state: dict
    ) -> int:
        """Write one shard's snapshot for *generation*; return its size."""
        self.root.mkdir(parents=True, exist_ok=True)
        return save_checkpoint(
            self.shard_path(shard, generation),
            {
                "config": config,
                "shard": shard,
                "generation": generation,
                "state": state,
            },
        )

    def save_manifest(
        self, generation: int, config: dict, progress: dict
    ) -> int:
        """Commit *generation*: write its manifest, then prune old ones.

        Call only after every shard file of the generation landed; the
        manifest carries the run-level progress (source offset,
        delivered count, stream time, watermarks, fault-filter state)
        that defines what the shard files are a consistent cut of.
        Returns the manifest's size.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        size = save_checkpoint(
            self.manifest_path(generation),
            {"config": config, "generation": generation, **progress},
        )
        self.prune(generation)
        return size

    def prune(self, newest_generation: int) -> None:
        """Drop generations older than the retained window (best effort).

        A ``.tmp`` at or below *newest_generation* is a killed writer's
        torn file, never referenced.  One above it may belong to a live
        writer between its ``fsync`` and its ``os.replace`` (a fabric
        worker on the next generation, while ``checkpoint prune`` or a
        commit runs here): it stays, and the commit that passes it, or
        :meth:`clear`, sweeps it if its writer died.
        """
        keep_from = newest_generation - self.keep_generations + 1
        if not self.root.is_dir():
            return
        for entry in list(self.root.iterdir()):
            match = _GENERATION_RE.search(entry.name)
            if match is None:
                continue
            generation = int(match.group(1))
            if generation < keep_from or (
                match.group(2) and generation <= newest_generation
            ):
                with suppress(OSError):
                    entry.unlink()

    def clear(self) -> None:
        """Remove every checkpoint artifact (the clean-finish path)."""
        if not self.root.is_dir():
            return
        for entry in list(self.root.iterdir()):
            if entry.name.endswith((".ckpt", ".tmp")):
                with suppress(OSError):
                    entry.unlink()
        with suppress(OSError):  # directory shared or not empty: leave it
            self.root.rmdir()

    # ---- reads --------------------------------------------------------

    def load_manifest(self, generation: int, config: dict) -> dict:
        path = self.manifest_path(generation)
        payload = load_checkpoint(path, config)
        if payload.get("generation") != generation:
            raise CheckpointCorrupt(
                path,
                f"manifest claims generation {payload.get('generation')!r}",
            )
        return payload

    def load_shard(self, shard: int, generation: int, config: dict) -> dict:
        path = self.shard_path(shard, generation)
        payload = load_checkpoint(path, config)
        if payload.get("shard") != shard or payload.get("generation") != generation:
            raise CheckpointCorrupt(
                path,
                f"file claims shard {payload.get('shard')!r} generation "
                f"{payload.get('generation')!r}",
            )
        return payload

    def restore_shard(
        self, shard: int, config: dict, upto_generation: int
    ) -> ShardRestore:
        """The newest usable snapshot of *shard* at or below a generation.

        Walks committed generations newest-first; a corrupt shard file
        (or corrupt manifest) falls back to the previous good
        generation, and when nothing survives the shard restarts fresh
        from offset zero -- the transport replays the difference.
        """
        for generation in self.generations():
            if generation > upto_generation:
                continue
            try:
                manifest = self.load_manifest(generation, config)
                payload = self.load_shard(shard, generation, config)
            except CheckpointError:
                continue
            return ShardRestore(
                shard=shard,
                state=payload["state"],
                records_read=int(manifest["records_read"]),
                faults=manifest.get("faults"),
            )
        return ShardRestore(shard=shard, state=None, records_read=0, faults=None)

    def plan_restore(self, config: dict) -> RestorePlan | None:
        """The full restore for a resumed run, or ``None``.

        Picks the newest committed generation whose manifest loads and
        matches *config* as the resume point, then restores each shard
        from the newest generation (at or below it) whose files
        verify.  Returns ``None`` when no usable manifest exists --
        the caller cold-starts.
        """
        shards = int(config["shards"])
        for generation in self.generations():
            try:
                manifest = self.load_manifest(generation, config)
            except CheckpointError:
                continue
            return RestorePlan(
                generation=generation,
                manifest=manifest,
                shards=tuple(
                    self.restore_shard(shard, config, generation)
                    for shard in range(shards)
                ),
            )
        return None
