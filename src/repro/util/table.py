"""Plain-text result tables for the CLI and the benchmark reports."""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["render_table", "format_value", "render_traffic"]


def format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: Optional[str] = None) -> str:
    """Render an aligned ASCII table (first column left, rest right)."""
    rendered_rows = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt_row(cells):
        out = []
        for index, cell in enumerate(cells):
            if index == 0:
                out.append(cell.ljust(widths[index]))
            else:
                out.append(cell.rjust(widths[index]))
        return "  ".join(out)

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(fmt_row(row))
    return "\n".join(lines)


def render_traffic(stats, title: str = "Network traffic by message kind") -> str:
    """Summarize a :class:`repro.net.TrafficStats` as a table.

    One row per message kind, sorted by total bytes descending, plus a
    totals row — what an operator would want from a switch counter.
    """
    rows = []
    for kind, slot in stats.by_kind.items():
        total = slot["payload_bytes"] + slot["header_bytes"]
        rows.append([kind, slot["messages"], slot["payload_bytes"],
                     slot["header_bytes"], total])
    rows.sort(key=lambda r: -r[4])
    rows.append(["TOTAL", stats.messages, stats.payload_bytes,
                 stats.header_bytes, stats.total_bytes])
    return render_table(
        ["kind", "messages", "payload B", "header B", "total B"],
        rows, title=title)
