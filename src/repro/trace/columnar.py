"""The trace file format: chunked columns, read zero-copy.

A capture file stores exactly the fields the monitors consume -- the
simulated analogue of the paper's 64-byte header captures -- as a
16-byte header followed by *chunks*, each holding one contiguous array
per field (little endian)::

    header:  magic "RPRT" | u16 version=2 | u16 flags | u64 record count
    chunk:   u32 record count n | u32 reserved
             | f8[n] time | u4[n] src | u4[n] dst
             | u2[n] sport | u2[n] dport
             | u1[n] proto | u1[n] flags | u1[n] link | u1[n] icmp
             | padding to the next 8-byte boundary

Chunks start 8-byte aligned (the header is 16 bytes and every chunk's
total size is a multiple of 8), so the ``time`` column of an mmap'd
file is always a properly aligned ``float64`` view.
:func:`read_trace_columns`, the one decoder, maps the whole file once
and hands out :class:`RecordColumns` batches whose arrays are numpy
views straight into the mapping -- no copies, no per-record objects;
``PacketRecord`` objects exist only where a consumer asks a batch for
them (:meth:`RecordColumns.to_records`).  The record count in the file
header is stamped on close; the decoder never trusts it (a writer that
was killed leaves zero, and every whole chunk still reads back), while
:func:`trace_is_intact` -- the trace cache's admission test -- requires
it to match the chunk walk.

Lifetime rule: column views keep the underlying ``mmap`` alive (numpy
holds a buffer export), so the mapping is released only when the last
view is garbage collected.  The decoder therefore never closes the
mapping; it closes the file descriptor right after mapping, which is
safe -- the mapping outlives the descriptor.

Version 1 is read-only.  Files recorded before the columnar layout are
the same header (version=1) followed by packed 24-byte records, field
for field the :data:`COLUMN_FIELDS` dtypes -- which is exactly a numpy
structured dtype (:data:`V1_DTYPE`).  The decoder maps such a file into
one structured view and yields its fields as strided column views, so
an old file converts (:func:`convert_trace`) and feeds every consumer
through the same code; nothing writes v1.
"""

from __future__ import annotations

import mmap
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from repro.net.packet import ICMP_PORT_UNREACHABLE, PacketRecord, TcpFlags

_MAGIC = b"RPRT"
_HEADER = struct.Struct("<4sHHQ")

#: Chunk header: u32 record count, u32 reserved (keeps chunks 8-aligned).
_CHUNK_HEADER = struct.Struct("<II")

#: The version every recording is written in (the trace cache keys
#: entries by this, so bumping it invalidates stale-format entries).
TRACE_FORMAT_VERSION = 2

#: Versions :func:`read_trace_columns` decodes; 1 is the packed-record
#: stream older recordings are in.
KNOWN_VERSIONS = (1, TRACE_FORMAT_VERSION)

#: Records per chunk written by :class:`ColumnarTraceWriter` (and the
#: batch size v1 files are sliced into when read as columns).
DEFAULT_CHUNK_RECORDS = 65536

#: Records held as ``PacketRecord`` objects at a time wherever record
#: streams and column batches meet: a regenerated source's batches
#: (``BuiltDataset.column_batches``, ``StreamConfig.batch_records``),
#: the writer's :meth:`~ColumnarTraceWriter.write` spill and
#: :func:`read_trace_records`' slices.  Generation batches of a whole
#: chunk were measured at +14 MB peak RSS on a cold pass.
DEFAULT_BATCH_RECORDS = 8192

#: Decode lookup tables: one-byte fields map through tuples instead of
#: calling the enum constructor per record.  Link names and ICMP kinds
#: are stored as one-byte indices into theirs.
_LINKS: tuple[str, ...] = ("", "commercial1", "commercial2", "internet2")
_FLAG_VALUES: tuple[TcpFlags, ...] = tuple(TcpFlags(value) for value in range(256))
_ICMP_VALUES: tuple[tuple[int, int] | None, ...] = (None, ICMP_PORT_UNREACHABLE)

#: The encode direction of the two index tables.
_LINK_INDEX = {name: index for index, name in enumerate(_LINKS)}
_ICMP_INDEX = {kind: index for index, kind in enumerate(_ICMP_VALUES)}

#: (field name, dtype) in on-disk order.  The dtypes are little-endian
#: and match the v1 packed record field for field.
COLUMN_FIELDS: tuple[tuple[str, np.dtype], ...] = (
    ("time", np.dtype("<f8")),
    ("src", np.dtype("<u4")),
    ("dst", np.dtype("<u4")),
    ("sport", np.dtype("<u2")),
    ("dport", np.dtype("<u2")),
    ("proto", np.dtype("u1")),
    ("flags", np.dtype("u1")),
    ("link", np.dtype("u1")),
    ("icmp", np.dtype("u1")),
)

#: Bytes per record across all columns (equals the v1 record size).
_BYTES_PER_RECORD = sum(dtype.itemsize for _, dtype in COLUMN_FIELDS)

#: The v1 packed record as a numpy structured dtype (itemsize 24, no
#: padding) -- lets a v1 file be viewed as columns without decoding.
V1_DTYPE = np.dtype([(name, dtype) for name, dtype in COLUMN_FIELDS])


def _chunk_payload_bytes(count: int) -> int:
    """On-disk size of one chunk body (columns + alignment padding)."""
    raw = count * _BYTES_PER_RECORD
    return raw + (-raw % 8)


@dataclass
class RecordColumns:
    """One batch of records as parallel numpy arrays (one per field).

    The columnar counterpart of ``list[PacketRecord]``: index *i* of
    every array describes the same record.  Arrays may be zero-copy
    views into an mmap'd trace -- treat them as read-only.

    ``link_names`` maps the ``link`` column's one-byte indices back to
    link name strings (index 0 is the empty link).
    """

    time: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    sport: np.ndarray
    dport: np.ndarray
    proto: np.ndarray
    flags: np.ndarray
    link: np.ndarray
    icmp: np.ndarray
    link_names: tuple[str, ...] = _LINKS
    #: The batch's scalar form, shared by every consumer that asks for
    #: per-record objects: the list the batch was built from, or
    #: materialised lazily from the columns.
    _records: "list[PacketRecord] | None" = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.time)

    # ---- construction ------------------------------------------------

    @classmethod
    def from_records(cls, records: "list[PacketRecord]") -> "RecordColumns":
        """Columnise a record list (validates links and ICMP kinds).

        The one record -> column encoder.  The batch keeps *records* as
        its scalar form: :meth:`to_records` hands the same list back.
        """
        try:
            links = [_LINK_INDEX[r.link] for r in records]
            icmps = [_ICMP_INDEX[r.icmp] for r in records]
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"unknown link or unsupported ICMP kind: {exc.args[0]!r}"
            ) from None
        return cls(
            time=np.array([r.time for r in records], dtype="<f8"),
            src=np.array([r.src for r in records], dtype="<u4"),
            dst=np.array([r.dst for r in records], dtype="<u4"),
            sport=np.array([r.sport for r in records], dtype="<u2"),
            dport=np.array([r.dport for r in records], dtype="<u2"),
            proto=np.array([r.proto for r in records], dtype="u1"),
            flags=np.array([int(r.flags) for r in records], dtype="u1"),
            link=np.array(links, dtype="u1"),
            icmp=np.array(icmps, dtype="u1"),
            _records=records,
        )

    @classmethod
    def from_structured(cls, view: np.ndarray) -> "RecordColumns":
        """Columns over a :data:`V1_DTYPE` structured view (zero-copy)."""
        return cls(*(view[name] for name, _ in COLUMN_FIELDS))

    # ---- conversion ----------------------------------------------------

    def to_records(self) -> "list[PacketRecord]":
        """Materialise the batch as ``PacketRecord`` objects.

        The only place decoded bytes become record objects.  The
        result is cached on the batch so several consumers of one batch
        share a single materialisation.
        """
        if self._records is None:
            make = PacketRecord
            flag_values = _FLAG_VALUES
            icmp_values = _ICMP_VALUES
            links = self.link_names
            self._records = [
                make(
                    time=time, src=src, dst=dst, sport=sport, dport=dport,
                    proto=proto, flags=flag_values[flags],
                    icmp=icmp_values[icmp], link=links[link],
                )
                for time, src, dst, sport, dport, proto, flags, link, icmp
                in zip(
                    self.time.tolist(), self.src.tolist(), self.dst.tolist(),
                    self.sport.tolist(), self.dport.tolist(),
                    self.proto.tolist(), self.flags.tolist(),
                    self.link.tolist(), self.icmp.tolist(),
                )
            ]
        return self._records

    # ---- selection -----------------------------------------------------

    def _rebuild(self, selector) -> "RecordColumns":
        return RecordColumns(
            *(getattr(self, name)[selector] for name, _ in COLUMN_FIELDS),
            link_names=self.link_names,
        )

    def take(self, indices: np.ndarray) -> "RecordColumns":
        """Rows at *indices* (fancy indexing; copies)."""
        return self._rebuild(indices)

    def compress(self, mask: np.ndarray) -> "RecordColumns":
        """Rows where the boolean *mask* is True (copies)."""
        return self._rebuild(mask)

    def slice(self, start: int, stop: "int | None" = None) -> "RecordColumns":
        """Contiguous row range (zero-copy views)."""
        return self._rebuild(np.s_[start:stop])


class ColumnarTraceWriter:
    """The trace writer: takes records or column batches, spills chunks.

    Use as a context manager::

        with ColumnarTraceWriter.open(path) as writer:
            for record in stream:
                writer.write(record)

    Chunks fill to *chunk_records* across calls, so a file's bytes
    depend on its records and *chunk_records*, never on how the caller
    cut the stream into :meth:`write` and :meth:`write_columns` calls.
    """

    def __init__(
        self, fileobj: BinaryIO, chunk_records: int = DEFAULT_CHUNK_RECORDS
    ) -> None:
        if chunk_records <= 0:
            raise ValueError("chunk_records must be positive")
        self._file = fileobj
        self._chunk_records = chunk_records
        self._count = 0
        #: Records given to :meth:`write`, not yet columnised.
        self._records: list[PacketRecord] = []
        #: Column slices of the chunk being filled, and their row total.
        self._parts: list[RecordColumns] = []
        self._held = 0
        self._file.write(_HEADER.pack(_MAGIC, TRACE_FORMAT_VERSION, 0, 0))

    @classmethod
    def open(
        cls, path: "str | Path", chunk_records: int = DEFAULT_CHUNK_RECORDS
    ) -> "ColumnarTraceWriter":
        return cls(open(path, "wb"), chunk_records)

    def write(self, record: PacketRecord) -> None:
        """Append one record (validated when columnised: every
        :data:`DEFAULT_BATCH_RECORDS` writes, and in :meth:`close`)."""
        self._records.append(record)
        if len(self._records) >= DEFAULT_BATCH_RECORDS:
            self._spill_records()

    def _spill_records(self) -> None:
        if self._records:
            records, self._records = self._records, []
            self.write_columns(RecordColumns.from_records(records))

    def write_columns(self, columns: RecordColumns) -> None:
        """Append a batch of any size.  The open chunk is held as slices
        (views that never carry a batch's record list) until it fills."""
        self._spill_records()
        start, total = 0, len(columns)
        self._count += total
        while start < total:
            stop = min(total, start + self._chunk_records - self._held)
            self._parts.append(columns.slice(start, stop))
            self._held += stop - start
            start = stop
            if self._held == self._chunk_records:
                self._flush_chunk()

    def _flush_chunk(self) -> None:
        if not self._held:
            return
        write = self._file.write
        write(_CHUNK_HEADER.pack(self._held, 0))
        for name, dtype in COLUMN_FIELDS:
            for part in self._parts:
                write(np.asarray(getattr(part, name), dtype=dtype).tobytes())
        write(b"\x00" * (-(self._held * _BYTES_PER_RECORD) % 8))
        self._parts = []
        self._held = 0

    def close(self) -> None:
        """Flush the tail chunk, finalise the header, close the file."""
        self._spill_records()
        self._flush_chunk()
        self._file.seek(0)
        self._file.write(_HEADER.pack(_MAGIC, TRACE_FORMAT_VERSION, 0, self._count))
        self._file.close()

    def __enter__(self) -> "ColumnarTraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def records_written(self) -> int:
        return self._count + len(self._records)


def read_header(fileobj: BinaryIO) -> tuple[int, int]:
    """Validate the header at the file position.

    Returns ``(version, declared record count)``; accepts every version
    in :data:`KNOWN_VERSIONS`.
    """
    header = fileobj.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ValueError("trace file too short for header")
    magic, version, _, count = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise ValueError(f"bad trace magic: {magic!r}")
    if version not in KNOWN_VERSIONS:
        raise ValueError(f"unsupported trace version: {version}")
    return version, count


def trace_version(path: "str | Path") -> int:
    """The format version of the trace file at *path*."""
    with open(path, "rb") as fileobj:
        version, _count = read_header(fileobj)
    return version


def _checked(batch: RecordColumns) -> RecordColumns:
    """*batch*, once its ``link`` and ``icmp`` bytes are known to index
    their tables: let through, one that does not is an ``IndexError``
    inside a consumer (``flags`` and ``proto`` decode at any value)."""
    for name, table in (("link", _LINKS), ("icmp", _ICMP_VALUES)):
        worst = int(getattr(batch, name).max())
        if worst >= len(table):
            raise ValueError(f"{name} byte out of range in trace: {worst}")
    return batch


def _iter_v2_chunks(
    buffer: mmap.mmap, skip_records: int
) -> Iterator[RecordColumns]:
    """Walk a v2 mapping's chunks, yielding zero-copy column batches."""
    size = len(buffer)
    offset = _HEADER.size
    remaining_skip = skip_records
    while offset < size:
        if offset + _CHUNK_HEADER.size > size:
            raise ValueError("truncated chunk header at end of trace")
        count, _reserved = _CHUNK_HEADER.unpack_from(buffer, offset)
        if count == 0:
            raise ValueError("empty chunk in columnar trace")
        payload = _chunk_payload_bytes(count)
        data_start = offset + _CHUNK_HEADER.size
        if data_start + payload > size:
            raise ValueError("truncated chunk at end of trace")
        if remaining_skip >= count:
            remaining_skip -= count
            offset = data_start + payload
            continue
        columns = []
        column_offset = data_start
        for _, dtype in COLUMN_FIELDS:
            columns.append(
                np.frombuffer(buffer, dtype=dtype, count=count,
                              offset=column_offset)
            )
            column_offset += count * dtype.itemsize
        batch = _checked(RecordColumns(*columns))
        if remaining_skip:
            batch = batch.slice(remaining_skip)
            remaining_skip = 0
        yield batch
        offset = data_start + payload


def read_trace_columns(
    path: "str | Path",
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    skip_records: int = 0,
) -> Iterator[RecordColumns]:
    """Read any trace file as :class:`RecordColumns` batches.

    V2 files yield the writer's chunks as zero-copy views into one
    mmap of the file (*chunk_records* does not re-slice them); v1 files
    are mmap'd into a structured view and yielded in *chunk_records*
    slices (still zero-copy, but each field is a strided view rather
    than a dense array).  *skip_records* drops the first N records --
    whole skipped chunks cost one header read, and a partial skip is a
    view slice.

    Damage raises ``ValueError`` at the batch it is found in, never a
    short read: a bad header before the first batch; a truncated or
    empty chunk (or a v1 body that is not whole records) when the walk
    reaches it; a ``link`` or ``icmp`` byte outside its table when the
    batch holding it would be yielded (skipped chunks are not read).
    """
    if skip_records < 0:
        raise ValueError("skip_records must be >= 0")
    if chunk_records <= 0:
        raise ValueError("chunk_records must be positive")
    with open(path, "rb") as fileobj:
        version, _count = read_header(fileobj)
        buffer = mmap.mmap(fileobj.fileno(), 0, access=mmap.ACCESS_READ)
    if version == TRACE_FORMAT_VERSION:
        yield from _iter_v2_chunks(buffer, skip_records)
        return
    body = len(buffer) - _HEADER.size
    if body % V1_DTYPE.itemsize:
        raise ValueError("truncated record at end of trace")
    view = np.frombuffer(
        buffer, dtype=V1_DTYPE, count=body // V1_DTYPE.itemsize,
        offset=_HEADER.size,
    )
    for start in range(skip_records, len(view), chunk_records):
        yield _checked(
            RecordColumns.from_structured(view[start:start + chunk_records])
        )


def trace_is_intact(path: "str | Path") -> bool:
    """Is *path* a cleanly closed recording?  (The cache's admission test.)

    A writer that closed cleanly stamps the record count into the
    header, which together with the chunk structure fixes the file's
    exact size.  So the file is intact when the decoder walks it end to
    end and finds the declared number of records: truncation anywhere
    -- mid-chunk-header, mid-column, lost tail -- breaks the walk, and a
    zero count over a non-empty body means the writer never finished.
    The walk reads chunk headers and the two index columns the decoder
    range-checks (2 of a record's 24 bytes).  A v1 file is never a
    recording of this code, so it is not intact either.
    """
    try:
        with open(path, "rb") as fileobj:
            version, declared = read_header(fileobj)
        if version != TRACE_FORMAT_VERSION:
            return False
        walked = sum(len(columns) for columns in read_trace_columns(path))
    except (OSError, ValueError):
        return False
    return walked == declared


def write_trace(path: "str | Path", records: Iterable[PacketRecord]) -> int:
    """Write all *records* to *path*; return the record count."""
    with ColumnarTraceWriter.open(path) as writer:
        for record in records:
            writer.write(record)
        return writer.records_written


def read_trace_records(path: "str | Path") -> Iterator[PacketRecord]:
    """Any trace file record by record, for per-record consumers.

    Chunks are materialised a bounded slice at a time, so the pass
    holds a few thousand record objects however large the chunks are.
    """
    for columns in read_trace_columns(path):
        for start in range(0, len(columns), DEFAULT_BATCH_RECORDS):
            yield from columns.slice(
                start, start + DEFAULT_BATCH_RECORDS
            ).to_records()


def read_trace(path: "str | Path") -> list[PacketRecord]:
    """Read a whole trace into memory (tests and small traces only)."""
    return list(read_trace_records(path))


def convert_trace(
    source: "str | Path",
    destination: "str | Path",
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> int:
    """Rewrite any readable trace as a v2 file; return the record count.

    Brings a v1 recording into the current format (a v2 source is
    re-cut into *chunk_records* chunks, whatever its layout);
    ``read_trace`` of source and destination yield identical
    ``PacketRecord`` lists.
    The source is walked end to end before the destination is created,
    so a damaged source raises and leaves no partial output behind, and
    converting a file onto itself -- which would truncate the bytes the
    views map -- is refused.
    """
    if os.path.exists(destination) and os.path.samefile(source, destination):
        raise ValueError("source and destination are the same file")
    batches = list(read_trace_columns(source))
    with ColumnarTraceWriter.open(destination, chunk_records) as writer:
        for columns in batches:
            writer.write_columns(columns)
        return writer.records_written
