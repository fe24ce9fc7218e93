"""Linear-space optimal three-way alignment (3-D Hirschberg).

The full-matrix traceback needs an O(n^3) move cube; this module recovers
the optimal alignment in O(n^2) memory by divide and conquer:

1. Pick the longest sequence (rotate it to axis 0) and its midpoint ``mid``.
2. Compute the *forward* slab ``F[mid, j, k]`` (optimal score of aligning
   the prefixes) and the *backward* slab ``B[mid, j, k]`` (optimal score of
   aligning the suffixes, via a forward sweep over reversed sequences).
   Both are score-only O(n^2) sweeps.
3. Every cell on an optimal path at level ``mid`` satisfies
   ``F + B == OPT`` and any cell satisfies ``F + B <= OPT``; the argmax
   ``(j*, k*)`` therefore lies on an optimal path (an optimal path must
   pass through *some* cell of every ``i`` level because each move advances
   ``i`` by at most one).
4. Recurse on the two subcubes and concatenate.

Total work is a constant factor over one sweep (each recursion level sweeps
the two half-cubes, i.e. the cube volume halves per level: 2 + 1 + 1/2 +
... < 4 cube sweeps), while memory stays at two slabs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.rolling import backward_slab, forward_slab
from repro.core.scoring import ScoringScheme
from repro.core.types import Alignment3
from repro.core.wavefront import align3_wavefront
from repro.core.workspace import PlaneWorkspace
from repro.util.validation import check_sequences

#: Default subproblem size (in cells) below which the full-matrix wavefront
#: with traceback is used directly.
DEFAULT_BASE_CELLS = 200_000


@dataclass
class _Stats:
    """Mutable accumulator threaded through the recursion."""

    slab_sweeps: int = 0
    base_calls: int = 0
    base_cells: int = 0
    splits: list[tuple[int, int, int]] = field(default_factory=list)


def _solve(
    seqs: tuple[str, str, str],
    scheme: ScoringScheme,
    base_cells: int,
    stats: _Stats,
    ws: PlaneWorkspace,
) -> list[tuple[str, str, str]]:
    n1, n2, n3 = (len(s) for s in seqs)
    volume = (n1 + 1) * (n2 + 1) * (n3 + 1)
    if volume <= base_cells or max(n1, n2, n3) < 2:
        aln = align3_wavefront(*seqs, scheme, workspace=ws)
        stats.base_calls += 1
        stats.base_cells += volume
        return list(aln.columns())

    # Rotate the longest sequence onto axis 0 so the split halves the
    # dominant dimension (and the slabs span the two smaller ones).
    lengths = (n1, n2, n3)
    axis0 = int(np.argmax(lengths))
    perm = (axis0,) + tuple(x for x in (0, 1, 2) if x != axis0)
    ps = (seqs[perm[0]], seqs[perm[1]], seqs[perm[2]])

    mid = len(ps[0]) // 2
    # The forward slab is freshly allocated (never a workspace view), so it
    # survives the backward sweep's reuse of the same workspace.
    fwd = forward_slab(*ps, scheme, mid, workspace=ws)
    bwd = backward_slab(*ps, scheme, mid, workspace=ws)
    stats.slab_sweeps += 2
    total = fwd + bwd
    j_star, k_star = np.unravel_index(int(np.argmax(total)), total.shape)
    stats.splits.append((mid, int(j_star), int(k_star)))

    left = _solve(
        (ps[0][:mid], ps[1][:j_star], ps[2][:k_star]),
        scheme,
        base_cells,
        stats,
        ws,
    )
    right = _solve(
        (ps[0][mid:], ps[1][j_star:], ps[2][k_star:]),
        scheme,
        base_cells,
        stats,
        ws,
    )
    cols = left + right
    inv = tuple(perm.index(y) for y in range(3))
    return [(c[inv[0]], c[inv[1]], c[inv[2]]) for c in cols]


def align3_hirschberg(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    base_cells: int = DEFAULT_BASE_CELLS,
    workspace: PlaneWorkspace | None = None,
) -> Alignment3:
    """Optimal three-way alignment in O(n^2) memory.

    Parameters
    ----------
    base_cells:
        Subproblems at most this many cells are solved by the full-matrix
        wavefront directly (the recursion's base case). Smaller values lower
        peak memory at the cost of more sweeps.
    workspace:
        Optional :class:`~repro.core.workspace.PlaneWorkspace`. Every
        recursion node — both slab sweeps and the base-case wavefront —
        draws its buffers from this one workspace instead of
        reallocating per split; by default a fresh one is created per
        call. Not thread-safe.
    """
    check_sequences((sa, sb, sc), count=3)
    if scheme.is_affine:
        raise ValueError("align3_hirschberg implements the linear gap model")
    if base_cells < 8:
        raise ValueError(f"base_cells must be >= 8, got {base_cells}")
    stats = _Stats()
    ws = PlaneWorkspace() if workspace is None else workspace
    cols = _solve((sa, sb, sc), scheme, base_cells, stats, ws)
    rows = tuple("".join(col[r] for col in cols) for r in range(3))
    score = scheme.sp_score(rows)
    meta: dict[str, Any] = {
        "engine": "hirschberg",
        "slab_sweeps": stats.slab_sweeps,
        "base_calls": stats.base_calls,
        "base_cells": stats.base_cells,
        "splits": stats.splits,
    }
    return Alignment3(rows=rows, score=score, meta=meta)  # type: ignore[arg-type]


def memory_estimate_bytes(n1: int, n2: int, n3: int, base_cells: int = DEFAULT_BASE_CELLS) -> int:
    """Analytic peak-memory estimate of the Hirschberg engine in bytes.

    Two float64 slabs over the two smaller dimensions, four padded planes
    inside the score-only sweeps, plus the base-case move cube.
    """
    dims = sorted((n1, n2, n3))
    small2 = (dims[0] + 1) * (dims[1] + 1)
    slabs = 2 * small2 * 8
    planes = 4 * (dims[2] + 2) * (dims[1] + 2) * 8
    cube = (n1 + 1) * (n2 + 1) * (n3 + 1)
    base = min(base_cells, cube) * (8 + 1)
    return slabs + planes + base
