"""Minimal table rendering for reports and EXPERIMENTS.md.

No third-party dependency; fixed-width ASCII with right-aligned numeric
columns, plus a GitHub-markdown renderer for the documentation files.
:func:`snapshot_table` renders a series of labelled
:class:`~repro.sim.trace.CounterSnapshot` rows as interval deltas.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence

__all__ = [
    "Table",
    "snapshot_table",
    "histogram_table",
    "gauge_table",
]


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000 or (0 < abs(value) < 0.01):
            return f"{value:.3e}"
        return f"{value:.2f}"
    return str(value)


class Table:
    """A small, immutable-ish result table.

    Examples
    --------
    >>> t = Table(["n", "causal", "atomic"], title="Messages")
    >>> t.add_row(4, 14, 17)
    >>> print(t.render())   # doctest: +ELLIPSIS
    Messages
    ...
    """

    def __init__(self, headers: Sequence[str], title: str = ""):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        """Append one row (cells are formatted immediately)."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has "
                f"{len(self.headers)} columns"
            )
        self.rows.append([_format_cell(cell) for cell in cells])

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append many rows."""
        for row in rows:
            self.add_row(*row)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _widths(self) -> List[int]:
        widths = [len(header) for header in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        return widths

    def render(self) -> str:
        """Fixed-width ASCII rendering."""
        widths = self._widths()
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(
            header.ljust(width) for header, width in zip(self.headers, widths)
        )
        lines.append(header)
        lines.append("  ".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(
                "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
            )
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-markdown rendering (for EXPERIMENTS.md)."""
        lines = []
        if self.title:
            lines.append(f"**{self.title}**")
            lines.append("")
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def histogram_table(
    snapshot: Any,
    title: str = "Histograms",
    prefix: str = "",
) -> Table:
    """Histogram summaries of a metrics snapshot, quantiles included.

    ``snapshot`` is a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    tree (or just its ``"histograms"`` subtree).  ``prefix`` filters by
    name — ``histogram_table(snap, prefix="monitor.")`` renders only the
    monitor's latency series.  Quantile columns read 0 for pre-v4
    snapshots that never recorded samples.
    """
    histograms = snapshot.get("histograms", snapshot)
    table = Table(
        ["name", "count", "mean", "p50", "p95", "p99", "max"], title=title
    )
    for name in sorted(histograms):
        if not name.startswith(prefix):
            continue
        data = histograms[name]
        table.add_row(
            name,
            data.get("count", 0),
            data.get("mean", 0.0),
            data.get("p50", 0.0),
            data.get("p95", 0.0),
            data.get("p99", 0.0),
            data.get("max", 0.0),
        )
    return table


def gauge_table(
    snapshot: Any,
    title: str = "Gauges",
    prefix: str = "",
) -> Table:
    """Gauge values of a metrics snapshot, filtered by name prefix.

    ``snapshot`` is a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    tree (or just its ``"gauges"`` subtree).  The live runtime exports
    its per-link socket/model/queue statistics as ``live.link.*``
    gauges, so ``gauge_table(snap, prefix="live.")`` renders one row per
    channel next to the run's counters.
    """
    gauges = snapshot.get("gauges", snapshot)
    table = Table(["name", "value"], title=title)
    for name in sorted(gauges):
        if not name.startswith(prefix):
            continue
        table.add_row(name, gauges[name])
    return table


def snapshot_table(
    snapshots: Sequence[Any],
    title: str = "Message counters by interval",
) -> Table:
    """Interval deltas of a cumulative snapshot series, labels surfaced.

    Each row is one interval between consecutive snapshots (the first
    row counts from zero).  A label supplied at snapshot time
    (``NetworkStats.snapshot(now, label="iteration=3")``) names its row;
    unlabelled intervals fall back to their index.
    """
    table = Table(
        ["interval", "t", "messages", "bytes", "stamp entries"], title=title
    )
    previous = None
    for index, snapshot in enumerate(snapshots):
        delta = snapshot.delta(previous) if previous is not None else snapshot
        table.add_row(
            delta.label if delta.label is not None else f"#{index}",
            delta.time,
            delta.total,
            delta.bytes_total,
            delta.stamp_entries,
        )
        previous = snapshot
    return table
