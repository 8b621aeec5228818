"""Human-readable formatting for benchmark reports."""

from __future__ import annotations

from typing import List, Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render an aligned plain-text table (benchmark output)."""
    columns = [list(map(str, col)) for col in zip(headers, *rows)] if rows else [
        [h] for h in headers
    ]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines: List[str] = []
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)
