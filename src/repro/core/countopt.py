"""Counting and enumerating co-optimal three-way alignments.

The SP optimum is usually not unique — gap placements shuffle freely in
low-information regions. This module quantifies that degeneracy:

* :func:`count_optimal` — the exact number of distinct optimal alignments
  (a counting DP over the score cube, Python integers so it never
  overflows; the count grows exponentially in the sequence lengths);
* :func:`enumerate_optimal` — materialise up to ``limit`` of them by
  depth-first traceback over all tight predecessors.

Both need the full score cube, obtained here by capturing every ``i``
level of one wavefront sweep, so memory is O(n^3) floats — use for
moderate lengths (the counting is a diagnostic, not a production path).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.dp3d import NEG
from repro.core.scoring import ScoringScheme
from repro.core.types import Alignment3, move_delta, moves_to_columns
from repro.core.wavefront import wavefront_sweep
from repro.util.validation import check_positive, check_sequences

#: Score-tie tolerance when matching predecessors.
EPS = 1e-6


def score_cube(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> np.ndarray:
    """The full DP value cube ``D[i, j, k]`` (vectorised fill)."""
    check_sequences((sa, sb, sc), count=3)
    levels = range(len(sa) + 1)
    res = wavefront_sweep(
        sa, sb, sc, scheme, score_only=True, capture_levels=levels
    )
    return np.stack([res.captured_slab[i] for i in levels])


def _tight_moves(
    D: np.ndarray,
    deltas: tuple[np.ndarray, np.ndarray, np.ndarray],
    g2: float,
    cell: tuple[int, int, int],
) -> list[int]:
    """Moves whose predecessor exactly accounts for ``D[cell]``."""
    sab, sac, sbc = deltas
    i, j, k = cell
    here = D[i, j, k]
    out = []
    for m in range(1, 8):
        di, dj, dk = move_delta(m)
        pi, pj, pk = i - di, j - dj, k - dk
        if pi < 0 or pj < 0 or pk < 0:
            continue
        delta = 0.0
        pairs = 0
        if di and dj:
            delta += sab[i - 1, j - 1]
            pairs += 1
        if di and dk:
            delta += sac[i - 1, k - 1]
            pairs += 1
        if dj and dk:
            delta += sbc[j - 1, k - 1]
            pairs += 1
        # Residue/gap pairs: each advanced sequence pairs with each gapped
        # one; with w sequences advanced there are w*(3-w) such pairs, each
        # costing scheme.gap — equivalently g2 for w=1,2 and 0 for w=3.
        w = di + dj + dk
        if w < 3:
            delta += g2
        prev = D[pi, pj, pk]
        if prev > NEG / 2 and abs(prev + delta - here) <= EPS:
            out.append(m)
    return out


def count_optimal(sa: str, sb: str, sc: str, scheme: ScoringScheme) -> int:
    """The exact number of distinct optimal alignments.

    Counting DP: ``C[origin] = 1``; each cell sums the counts of the
    predecessors that achieve its DP value. Python integers throughout —
    counts routinely exceed 2^64 for a few dozen residues.
    """
    if scheme.is_affine:
        raise ValueError("count_optimal implements the linear gap model")
    n1, n2, n3 = len(sa), len(sb), len(sc)
    D = score_cube(sa, sb, sc, scheme)
    deltas = scheme.profile_matrices(sa, sb, sc)
    g2 = 2.0 * scheme.gap

    counts: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    for d in range(1, n1 + n2 + n3 + 1):
        for i in range(max(0, d - n2 - n3), min(n1, d) + 1):
            for j in range(max(0, d - i - n3), min(n2, d - i) + 1):
                k = d - i - j
                total = 0
                for m in _tight_moves(D, deltas, g2, (i, j, k)):
                    di, dj, dk = move_delta(m)
                    total += counts.get((i - di, j - dj, k - dk), 0)
                counts[(i, j, k)] = total
    return counts[(n1, n2, n3)]


def iter_optimal_moves(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> Iterator[list[int]]:
    """Yield every optimal move sequence (lexicographic by move code)."""
    if scheme.is_affine:
        raise ValueError("iter_optimal_moves implements the linear gap model")
    n1, n2, n3 = len(sa), len(sb), len(sc)
    D = score_cube(sa, sb, sc, scheme)
    deltas = scheme.profile_matrices(sa, sb, sc)
    g2 = 2.0 * scheme.gap

    stack: list[int] = []

    def walk(cell: tuple[int, int, int]) -> Iterator[list[int]]:
        if cell == (0, 0, 0):
            yield list(reversed(stack))
            return
        for m in _tight_moves(D, deltas, g2, cell):
            di, dj, dk = move_delta(m)
            stack.append(m)
            yield from walk((cell[0] - di, cell[1] - dj, cell[2] - dk))
            stack.pop()

    yield from walk((n1, n2, n3))


def enumerate_optimal(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    limit: int = 100,
) -> list[Alignment3]:
    """Up to ``limit`` distinct optimal alignments.

    The returned list is deterministic (lexicographic in move codes along
    the backward walk) and every element scores exactly the optimum.
    """
    check_positive("limit", limit)
    n1, n2, n3 = len(sa), len(sb), len(sc)
    out: list[Alignment3] = []
    opt = None
    for moves in iter_optimal_moves(sa, sb, sc, scheme):
        cols = moves_to_columns(moves, sa, sb, sc)
        rows = tuple("".join(col[r] for col in cols) for r in range(3))
        score = scheme.sp_score(rows)
        if opt is None:
            opt = score
        out.append(
            Alignment3(
                rows=rows,  # type: ignore[arg-type]
                score=score,
                meta={"engine": "enumerate", "rank": len(out)},
            )
        )
        if len(out) >= limit:
            break
    if not out:
        # Degenerate all-empty input: one empty alignment.
        if (n1, n2, n3) == (0, 0, 0):
            return [
                Alignment3(rows=("", "", ""), score=0.0, meta={"engine": "enumerate"})
            ]
        raise RuntimeError("no optimal path found (engine bug)")
    return out
