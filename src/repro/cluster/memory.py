"""Per-rank memory accounting for the distributed algorithm.

The argument for distributing the 3-D DP is as much *memory* as speed: the
full cube exceeds a single node long before time does. This module
estimates each rank's footprint under a block decomposition:

``full`` mode
    The rank stores every cell of every block it owns (8-byte score +
    1-byte move for traceback) plus the ghost faces it receives.
``score_only`` mode
    The rank streams blocks with a rolling working set — four plane
    buffers per *active* pencil plus ghosts — so its footprint scales with
    its cross-section, not its volume. A pencil thinner than four planes
    holds no more than its own cells, so score-only never prices above
    full.

Experiment T5 turns these into the per-rank memory table the paper family
uses to argue length scalability.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.blockgrid import BlockGrid
from repro.util.validation import check_positive

#: Bytes per stored DP cell with traceback (float64 score + int8 move).
FULL_CELL_BYTES = 9
#: Bytes per score-only cell (float64).
SCORE_CELL_BYTES = 8


@dataclass
class MemoryProfile:
    """Per-rank memory summary (bytes)."""

    per_rank: list[int]
    mode: str

    @property
    def max_rank(self) -> int:
        """The constrained rank's footprint (what limits problem size)."""
        return max(self.per_rank) if self.per_rank else 0

    @property
    def mean_rank(self) -> float:
        """Average per-rank footprint."""
        return sum(self.per_rank) / len(self.per_rank) if self.per_rank else 0.0

    @property
    def imbalance(self) -> float:
        """max / mean (1.0 = perfectly balanced)."""
        mean = self.mean_rank
        return self.max_rank / mean if mean else 0.0


def per_rank_memory(
    grid: BlockGrid,
    procs: int,
    mapping: str = "pencil",
    mode: str = "full",
) -> MemoryProfile:
    """Estimate every rank's memory footprint in bytes.

    Parameters
    ----------
    mode:
        ``"full"`` — all owned cells resident (global traceback);
        ``"score_only"`` — rolling planes per owned pencil (score or
        divide-and-conquer traceback).
    """
    check_positive("procs", procs)
    if mode not in ("full", "score_only"):
        raise ValueError(f"unknown mode {mode!r}")
    ghost = [0] * procs
    owned_cells = [0] * procs
    # Per rank and pencil (j, k): [largest cross-section, owned cells].
    pencils: list[dict[tuple[int, int], list[int]]] = [
        {} for _ in range(procs)
    ]
    for blk in grid.blocks():
        own = grid.owner(blk, procs, mapping)
        cells = grid.block_cells(blk)
        owned_cells[own] += cells
        section = cells // max(grid.extent(0, blk[0]), 1)
        pencil = pencils[own].setdefault((blk[1], blk[2]), [0, 0])
        pencil[0] = max(pencil[0], section)
        pencil[1] += cells
        for src, payload in grid.dependencies(blk):
            if grid.owner(src, procs, mapping) != own:
                ghost[own] += payload * SCORE_CELL_BYTES

    per_rank: list[int] = []
    for p in range(procs):
        if mode == "full":
            per_rank.append(owned_cells[p] * FULL_CELL_BYTES + ghost[p])
        else:
            planes = sum(
                min(4 * section, cells)
                for section, cells in pencils[p].values()
            )
            per_rank.append(planes * SCORE_CELL_BYTES + ghost[p])
    return MemoryProfile(per_rank=per_rank, mode=mode)


def max_length_for_budget(
    budget_bytes: int,
    procs: int,
    block: int = 16,
    mapping: str = "pencil",
    mode: str = "full",
    max_n: int = 2048,
) -> int:
    """Largest equal-length problem whose constrained rank fits ``budget``.

    Doubling search then bisection on the cubic (full) or quadratic
    (score-only) per-rank curve. ``max_n`` caps the search (the block
    enumeration is O((n/block)^3) per probe).
    """
    check_positive("budget_bytes", budget_bytes)
    check_positive("max_n", max_n)

    def fits(n: int) -> bool:
        grid = BlockGrid.for_sequences(n, n, n, block)
        return (
            per_rank_memory(grid, procs, mapping, mode).max_rank
            <= budget_bytes
        )

    if not fits(1):
        return 0
    lo, hi = 1, 2
    while hi <= max_n and fits(hi):
        lo, hi = hi, hi * 2
    if hi > max_n:
        if fits(max_n):
            return max_n
        hi = max_n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo
