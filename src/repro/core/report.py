"""Plain-text report rendering.

The benchmark harness prints the same rows/series the paper's tables
and figures report; this module is the shared renderer.  Output is
monospace-friendly Markdown so EXPERIMENTS.md can embed it verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


def format_percent(value: float, decimals: int = 1) -> str:
    """Render a percentage the way the paper does (``"98%"``, ``"2.3%"``)."""
    if value >= 10 or value == 0:
        return f"{value:.0f}%"
    return f"{value:.{decimals}f}%"


def format_count_pct(count: int, pct: float) -> str:
    """``"1,748 (100%)"`` style cells."""
    return f"{count:,} ({format_percent(pct)})"


def format_count(value: float) -> str:
    """Thousands-separated count cells (``"1,748"``; floats keep 2 dp)."""
    if float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:,.2f}"


def count_rows(
    counts: dict[str, float | int],
    label_prefix: str = "",
    descending: bool = True,
) -> list[tuple[str, str]]:
    """Labelled counts as ``(label, formatted)`` table rows.

    The shared shape behind ``python -m repro stats`` and
    ``trace-stats``: counts sort by value (largest first by default,
    ties broken by label for stable output) and render through
    :func:`format_count`.
    """
    ordered = sorted(
        counts.items(),
        key=lambda item: ((-item[1] if descending else item[1]), item[0]),
    )
    return [
        (f"{label_prefix}{label}", format_count(value))
        for label, value in ordered
    ]


def survey_table(
    dataset: str,
    scale: float,
    seed: int,
    records: int,
    scans: int,
    summary,
) -> "TextTable":
    """The passive/active overlap report (the quickstart's output).

    Shared by the batch path (``python -m repro survey``) and the
    streaming engine's final merge: both build their report through
    this one function, which is what makes a streamed report
    byte-identical to the batch report for the same configuration.
    *summary* is any object with ``as_rows()`` yielding
    ``(label, count, percent)`` rows
    (:class:`repro.core.completeness.CompletenessSummary`).
    """
    table = TextTable(
        title=(
            f"{dataset} (scale {scale}, seed {seed}): "
            f"{records:,} headers, {scans} scans"
        ),
        headers=["Measure", "Servers"],
    )
    for name, count, pct in summary.as_rows():
        table.add_row(name, format_count_pct(count, pct))
    return table


@dataclass
class TextTable:
    """A simple aligned text table with a title."""

    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        self.rows.append([str(c) for c in cells])

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        """Render as a Markdown pipe table."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                if index < len(widths):
                    widths[index] = max(widths[index], len(cell))
                else:
                    widths.append(len(cell))

        def line(cells: Sequence[str]) -> str:
            padded = [
                cell.ljust(widths[i]) if i < len(widths) else cell
                for i, cell in enumerate(cells)
            ]
            return "| " + " | ".join(padded) + " |"

        out = [f"### {self.title}", ""]
        out.append(line(self.headers))
        out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for row in self.rows:
            out.append(line(row))
        if self.notes:
            out.append("")
            out.extend(f"> {note}" for note in self.notes)
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()


def render_series(
    title: str,
    series: dict[str, list[tuple[float, float]]],
    x_label: str = "time",
    y_label: str = "value",
    max_points: int = 20,
) -> str:
    """Render named (x, y) series as a compact Markdown table.

    Long series are downsampled to *max_points* evenly spaced samples
    (always keeping the last point), which is enough to judge a curve's
    shape in a text report.
    """
    out = [f"### {title}", "", f"x = {x_label}, y = {y_label}", ""]
    names = list(series)
    sampled: dict[str, list[tuple[float, float]]] = {}
    for name in names:
        points = series[name]
        if len(points) > max_points:
            stride = max(1, len(points) // max_points)
            kept = points[::stride]
            if kept[-1] != points[-1]:
                kept.append(points[-1])
            sampled[name] = kept
        else:
            sampled[name] = list(points)
    table = TextTable(title="", headers=["series"] + [x_label, y_label])
    lines = []
    for name in names:
        for x, y in sampled[name]:
            lines.append(f"| {name} | {x:g} | {y:.2f} |")
    header = f"| series | {x_label} | {y_label} |"
    divider = "|---|---|---|"
    out.append(header)
    out.append(divider)
    out.extend(lines)
    del table  # TextTable kept simple; manual rows keep column count right
    return "\n".join(out)
