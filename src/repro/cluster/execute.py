"""Functional execution of the distributed block algorithm.

:mod:`repro.cluster.simulate` models the *timing* of the block wavefront;
this module executes its *computation*: blocks are processed in wavefront
order, and each block reads only (a) its own cells and (b) the one-cell
ghost layers its seven predecessor blocks would have sent. Every
cross-owner ghost transfer is recorded, so the executor verifies two
things at once:

1. the block decomposition and its ghost-exchange pattern are *sufficient*
   to compute the exact optimum (the score must equal the monolithic
   engines'), and
2. the message/byte accounting used by the timing simulator corresponds to
   real transfers (the counts must match ``simulate_wavefront`` exactly).

The DP state lives in one shared cube for simplicity, but the read
discipline is enforced structurally: a block's fill reads only indices
inside the block or on its one-cell lower boundary — precisely the ghost
payloads ``BlockGrid.dependencies`` accounts for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.blockgrid import BlockGrid
from repro.core.dp3d import NEG, fill_box
from repro.core.scoring import ScoringScheme
from repro.resilience.errors import ProtocolError
from repro.util.validation import check_positive, check_sequences


@dataclass
class BlockedResult:
    """Outcome of a blocked execution."""

    score: float
    messages: int
    comm_bytes: int
    blocks: int
    per_proc_cells: list[int] = field(default_factory=list)


def execute_blocked(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    block: int | tuple[int, int, int] = 8,
    procs: int = 4,
    mapping: str = "pencil",
) -> BlockedResult:
    """Run the block-decomposed DP and account for every ghost transfer.

    Returns the exact optimal score plus the communication ledger. Use
    small inputs: the per-block fill is the scalar reference (this is a
    validation tool, not a production engine).
    """
    check_sequences((sa, sb, sc), count=3)
    check_positive("procs", procs)
    if scheme.is_affine:
        raise ValueError("execute_blocked implements the linear gap model")
    n1, n2, n3 = len(sa), len(sb), len(sc)
    grid = BlockGrid.for_sequences(n1, n2, n3, block)
    sab, sac, sbc = scheme.profile_matrices(sa, sb, sc)
    g2 = 2.0 * scheme.gap

    D = np.full((n1 + 1, n2 + 1, n3 + 1), NEG)
    messages = 0
    comm_bytes = 0
    per_proc_cells = [0] * procs
    n_blocks = 0

    filled: set[tuple[int, int, int]] = set()
    for blk in grid.blocks():
        n_blocks += 1
        own = grid.owner(blk, procs, mapping)
        # Receive ghosts: every cross-owner dependency is one message of
        # the boundary payload (cells * 8 bytes), exactly as simulated.
        for src, payload in grid.dependencies(blk):
            if src not in filled:
                raise ProtocolError(
                    f"wavefront order violated: {blk} before {src}"
                )
            if grid.owner(src, procs, mapping) != own:
                messages += 1
                comm_bytes += payload * 8
        lo = tuple(idx * b for idx, b in zip(blk, grid.block))
        hi = tuple(
            min((idx + 1) * b, dim) - 1
            for idx, b, dim in zip(blk, grid.block, grid.dims)
        )
        fill_box(D, lo, hi, sab, sac, sbc, g2)  # type: ignore[arg-type]
        per_proc_cells[own] += grid.block_cells(blk)
        filled.add(blk)

    return BlockedResult(
        score=float(D[n1, n2, n3]),
        messages=messages,
        comm_bytes=comm_bytes,
        blocks=n_blocks,
        per_proc_cells=per_proc_cells,
    )
