"""Local (Smith–Waterman-style) three-sequence alignment.

The local variant of the 3-D DP: every cell may additionally restart at 0
(begin a fresh alignment), and the answer is the maximum over *all* cells
rather than the terminal corner. The traceback runs from the argmax cell
back to the nearest restart. This finds the highest-scoring triple of
substrings — the natural tool when only a conserved core is shared (the
"motif finding" use case the paper family's introductions cite).

Both entry points run :func:`~repro.core.wavefront.wavefront_sweep` with
``mode="local"``; the invariant ``local >= max(0, global)`` and the
scalar oracle in ``tests/reference/modes.py`` pin it in the tests.
"""

from __future__ import annotations

from typing import Any

from repro.core.scoring import ScoringScheme
from repro.core.traceback import path_cells, traceback_moves
from repro.core.types import Alignment3, moves_to_columns
from repro.core.wavefront import wavefront_sweep


def score3_local(sa: str, sb: str, sc: str, scheme: ScoringScheme) -> float:
    """Best local SP score (O(n^2) memory)."""
    res = wavefront_sweep(sa, sb, sc, scheme, score_only=True, mode="local")
    return res.score


def align3_local(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> Alignment3:
    """Best local three-way alignment (of substrings of the inputs).

    The returned :class:`Alignment3` aligns the three *substrings*;
    ``meta["spans"]`` records each substring's half-open interval in its
    source sequence. When every column scores below zero the alignment
    is empty with score 0.
    """
    res = wavefront_sweep(sa, sb, sc, scheme, mode="local")
    assert res.move_cube is not None
    end = res.end_cell
    moves = traceback_moves(res.move_cube, end, restart=True)
    start = tuple(e - t for e, t in zip(end, path_cells(moves)[-1]))
    cols = moves_to_columns(
        moves,
        sa[start[0] : end[0]],
        sb[start[1] : end[1]],
        sc[start[2] : end[2]],
    )
    rows = tuple("".join(col[r] for col in cols) for r in range(3))
    meta: dict[str, Any] = {
        "engine": "local",
        "spans": tuple(zip(start, end)),
        "cells": res.cells_computed,
    }
    return Alignment3(rows=rows, score=res.score, meta=meta)  # type: ignore[arg-type]
