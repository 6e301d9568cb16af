"""Plain-text table rendering for the benchmark harness.

Benchmarks print the same rows/series the paper reports; these helpers
keep that output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["render_table", "compare_row", "within_factor"]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width table with a header rule."""
    if not headers:
        raise ValueError("headers must be non-empty")
    str_rows = [[str(c) for c in row] for row in rows]
    for i, row in enumerate(str_rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells, expected {len(headers)}"
            )
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in str_rows
    )
    return "\n".join(lines)


def compare_row(
    label: str, modeled: float, paper: float | None, unit: str = ""
) -> list[str]:
    """A [label, modeled, paper, ratio] row for reproduction tables;
    ``paper=None`` (the paper prints no such number) leaves dashes."""
    if paper is None:
        return [label, f"{modeled:,.2f}{unit}", "-", "-"]
    ratio = modeled / paper if paper else float("inf")
    return [
        label,
        f"{modeled:,.2f}{unit}",
        f"{paper:,.2f}{unit}",
        f"{ratio:.2f}x",
    ]


def within_factor(modeled: float, paper: float, factor: float) -> bool:
    """True when two positive quantities agree within ``factor``.

    ``within_factor(a, b, 1.3)`` accepts a in [b/1.3, b*1.3].  This is
    the acceptance criterion the reproduction benches assert: shapes and
    factors, not absolute testbed numbers.
    """
    if factor < 1.0:
        raise ValueError("factor must be >= 1")
    if modeled <= 0 or paper <= 0:
        return False
    ratio = modeled / paper
    return 1.0 / factor <= ratio <= factor
