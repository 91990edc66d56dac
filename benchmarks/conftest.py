"""Shared helpers for the figure-regeneration benchmarks.

Every benchmark prints the rows the paper's figure/table reports (run
with ``-s`` to see them) and asserts the *shape* claims, so a silent run
still verifies the reproduction.  Nothing here reads a host clock but
E4's encoding comparison: host time is measured in ``benchmarks/perf/``.
"""

from typing import Iterable, Sequence


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Render one experiment's output as an aligned text table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.1f}"
    return str(cell)
