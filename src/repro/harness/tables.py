"""Plain-text table rendering in the style of the paper's tables."""

from __future__ import annotations

from collections.abc import Sequence


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str | None = None) -> str:
    """Fixed-width table with a header rule, ready for the console."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(w)
                               for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_manager_stats(stats) -> str:
    """Render a :class:`~repro.bdd.manager.ManagerStats` snapshot.

    A per-operation computed-table section followed by the node / GC /
    reorder summary, in the same fixed-width style as the paper tables.
    """
    rows = [[op, s.hits, s.misses, s.evictions, f"{s.hit_rate:.0%}"]
            for op, s in stats.cache_per_op.items()]
    rows.append(["total", stats.cache_hits, stats.cache_misses,
                 stats.cache_evictions, f"{stats.cache_hit_rate:.0%}"])
    cache = format_table(["op", "hits", "misses", "evict", "rate"],
                         rows, title="computed table")
    limit = "unbounded" if stats.cache_limit is None else stats.cache_limit
    lines = [
        f"backend:         {stats.backend}",
        f"cache entries:   {stats.cache_size} (limit: {limit})",
        f"live nodes:      {stats.nodes} (peak: {stats.peak_nodes})",
        f"gc:              {stats.gc_count} runs, "
        f"{stats.gc_reclaimed} nodes reclaimed, "
        f"{stats.gc_pause_total * 1e3:.1f}ms total "
        f"({stats.gc_pause_max * 1e3:.1f}ms max pause)",
        f"reorders:        {stats.reorder_count}",
    ]
    aborts = getattr(stats, "total_aborts", 0)
    degradations = getattr(stats, "total_degradations", 0)
    if aborts or degradations:
        lines.append(f"governor:        {aborts} aborts, "
                     f"{degradations} degradations")
    return cache + "\n" + "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) >= 1e5 or abs(value) < 1e-3):
            return f"{value:.2e}"
        return f"{value:.1f}"
    if isinstance(value, int) and abs(value) >= 10 ** 7:
        return f"{float(value):.2e}"
    return str(value)
