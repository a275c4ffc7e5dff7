"""Packet-header trace recording.

The paper's LANDER infrastructure stored 64-byte packet headers and the
published datasets are anonymised.  This package provides the same
pipeline for our simulated captures:

* :mod:`repro.trace.columnar` -- the trace file format: one contiguous
  array per field per chunk, written by :class:`ColumnarTraceWriter`
  and read zero-copy via mmap into numpy views by
  :func:`read_trace_columns`, the one decoder (it also reads the older
  packed-record v1 files, which nothing writes any more;
  :func:`convert_trace` brings one into the current format);
* :mod:`repro.trace.anonymize` -- deterministic, prefix-preserving
  address anonymisation (campus addresses stay campus addresses, so
  every analysis still works on anonymised traces);
* :mod:`repro.trace.cache` -- the record-once trace cache that lets a
  dataset's border traffic be generated once and replayed many times.
"""

from repro.trace.anonymize import Anonymizer
from repro.trace.cache import TraceCache, default_trace_cache
from repro.trace.columnar import (
    TRACE_FORMAT_VERSION,
    ColumnarTraceWriter,
    RecordColumns,
    convert_trace,
    read_trace,
    read_trace_columns,
    trace_is_intact,
    trace_version,
    write_trace,
)

__all__ = [
    "Anonymizer",
    "ColumnarTraceWriter",
    "RecordColumns",
    "TRACE_FORMAT_VERSION",
    "TraceCache",
    "convert_trace",
    "default_trace_cache",
    "read_trace",
    "read_trace_columns",
    "trace_is_intact",
    "trace_version",
    "write_trace",
]
