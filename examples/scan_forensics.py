#!/usr/bin/env python3
"""Scenario: external-scan forensics and trace archival.

Two operational tasks built on the library's monitoring stack:

1. **Scan forensics** -- identify external sources systematically
   sweeping the campus (the paper's >=100-targets / >=100-RSTs rule),
   quantify how much of passive discovery those sweeps contributed
   (Section 4.3's surprising result: scans are an ally), and

2. **Trace archival** -- record a day of border headers to the binary
   trace format with prefix-preserving anonymisation, then re-run the
   analysis from the archived file and verify it matches, mirroring the
   paper's anonymise-then-analyse workflow.

Run::

    python examples/scan_forensics.py [--scale 0.1] [--seed 0]
"""

import argparse
import os
import tempfile

from repro import (
    Anonymizer,
    ColumnarTraceWriter,
    ExternalScanDetector,
    PassiveServiceTable,
    build_dataset,
    read_trace_columns,
)
from repro.core.report import TextTable
from repro.net.addr import format_ipv4
from repro.passive.monitor import replay_columnar
from repro.simkernel.clock import days


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dataset = build_dataset("DTCP1-18d", seed=args.seed, scale=args.scale)

    # ---- pass 1: monitor + detector ----------------------------------
    table = PassiveServiceTable(
        is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports
    )
    detector = ExternalScanDetector(is_campus=dataset.is_campus)
    dataset.replay(table, detector)
    scanners = detector.scanners()

    report = TextTable(
        title="External sources flagged as systematic scanners",
        headers=["Source", "Campus addresses probed"],
    )
    for source in sorted(scanners)[:10]:
        report.add_row(format_ipv4(source), f"{detector.target_count(source):,}")
    if len(scanners) > 10:
        report.add_note(f"... and {len(scanners) - 10} more")
    print(report.render())

    # ---- pass 2: what would passive know without them? ---------------
    without = PassiveServiceTable(
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        exclude_sources=frozenset(scanners),
    )
    dataset.replay(without)
    with_scans = len(table.server_addresses())
    without_scans = len(without.server_addresses())
    print(
        f"\nPassive discovery with scans: {with_scans} servers; with the "
        f"{len(scanners)} flagged sources removed: {without_scans} "
        f"({100 * (with_scans - without_scans) / with_scans:.0f}% fewer). "
        "Hostile sweeps are doing free reconnaissance for the defenders."
    )

    # ---- archival: record day 1 anonymised, re-analyse ----------------
    anonymizer = Anonymizer(key=args.seed + 12345)
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "day1.rprt")
        live = PassiveServiceTable(
            is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports
        )
        with ColumnarTraceWriter.open(path) as writer:
            for record in dataset.packet_stream(end=days(1)):
                live.observe(record)
                writer.write(anonymizer.anonymize(record))
        size_mb = os.path.getsize(path) / 1e6
        archived = PassiveServiceTable(
            is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports
        )
        count = replay_columnar(read_trace_columns(path), archived)
        print(
            f"\nArchived day 1: {count:,} headers, {size_mb:.1f} MB on disk "
            "(anonymised, campus prefix preserved)."
        )
        match = len(archived.endpoints()) == len(live.endpoints())
        print(
            f"Re-analysis from the anonymised archive finds "
            f"{len(archived.endpoints())} service endpoints -- "
            f"{'identical to' if match else 'DIFFERENT from'} the live pass."
        )


if __name__ == "__main__":
    main()
