"""Affine-gap three-sequence alignment (7-state quasi-natural model).

Model
-----
With affine gaps the per-column cost of a move depends on the *previous*
move: a pairwise gap run pays ``gap_open`` once when it starts and ``gap``
per column. Tracking, per cell, the move by which the path arrived (7
possibilities, plus a start state) yields Altschul's *quasi-natural* gap
costs: a pair's gap run is considered continued only when the immediately
preceding column of the three-way alignment had the same pair state. The
difference from the "natural" convention (where a both-gap column is
invisible to the pair) is that resumption after such a column is charged a
fresh opening; Altschul (1989) showed the discrepancy affects only
degenerate gap arrangements. :meth:`ScoringScheme.sp_score_affine_natural`
lets users quantify the gap between the two conventions on real outputs.

State space: ``V[m][i, j, k]`` = best score of an alignment of the prefixes
ending with move ``m``. Transition:

    V[m][cell] = subst(m, cell) + max_{m'} ( V[m'][cell - delta(m)]
                                             + T[m', m] )

where ``T`` is the static pair-gap table
(:meth:`ScoringScheme.affine_transition_table`) and ``subst`` gathers the
substitution scores of the pairs the move matches.

The engine sweeps anti-diagonal planes exactly like
:mod:`repro.core.wavefront`, with an extra leading state axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.dp3d import NEG
from repro.core.scoring import ScoringScheme
from repro.core.types import Alignment3, move_delta, moves_to_columns
from repro.core.wavefront import plane_bounds
from repro.util.validation import check_sequences

#: Number of DP states: index 0 is the pre-alignment start state, 1..7 the
#: arrival moves.
N_STATES = 8

#: Bit weights of each move (how many planes back its source lies).
_MOVE_WEIGHT = [0, 1, 1, 2, 1, 2, 2, 3]


@dataclass
class AffineResult:
    """Output of an affine sweep."""

    score: float
    prev_state: np.ndarray | None
    cells_computed: int
    final_states: np.ndarray | None = None


def affine_sweep(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    score_only: bool = False,
) -> AffineResult:
    """Run the 7-state affine wavefront sweep.

    ``score_only`` skips the per-(cell, state) predecessor table, dropping
    memory from O(7 n^3) to O(n^2).
    """
    check_sequences((sa, sb, sc), count=3)
    n1, n2, n3 = len(sa), len(sb), len(sc)
    sab, sac, sbc = scheme.profile_matrices(sa, sb, sc)
    trans = scheme.affine_transition_table()  # (8, 8)
    dims = (n1, n2, n3)

    # planes[r] has shape (N_STATES, n1+2, n2+2), padded like the linear
    # engine's buffers.
    planes = [
        np.full((N_STATES, n1 + 2, n2 + 2), NEG) for _ in range(4)
    ]
    prev_state = (
        None
        if score_only
        else np.zeros((N_STATES, n1 + 1, n2 + 1, n3 + 1), dtype=np.int8)
    )

    cells = 0
    dmax = n1 + n2 + n3
    for d in range(dmax + 1):
        out = planes[d % 4]
        ilo, ihi, jlo, jhi = plane_bounds(d, n1, n2, n3)
        if ilo > ihi or jlo > jhi:
            continue
        out[:, ilo + 1 : ihi + 2, :] = NEG
        if d == 0:
            out[0, 1, 1] = 0.0
            cells += 1
            continue

        I = np.arange(ilo, ihi + 1)[:, None]
        J = np.arange(jlo, jhi + 1)[None, :]
        K = d - I - J
        valid = (K >= 0) & (K <= n3)

        Ic = np.clip(I - 1, 0, max(n1 - 1, 0))
        Jc = np.clip(J - 1, 0, max(n2 - 1, 0))
        Kc = np.clip(K - 1, 0, max(n3 - 1, 0))
        shape = K.shape
        g_ab = sab[Ic, Jc] if (n1 and n2) else np.zeros(shape)
        g_ac = sac[Ic, Kc] if (n1 and n3) else np.zeros(shape)
        g_bc = sbc[Jc, Kc] if (n2 and n3) else np.zeros(shape)
        zero = np.zeros(shape)
        subst = {
            1: zero,
            2: zero,
            3: g_ab,
            4: zero,
            5: g_ac,
            6: g_bc,
            7: g_ab + g_ac + g_bc,
        }

        r0, r1 = ilo + 1, ihi + 2
        c0, c1 = jlo + 1, jhi + 2
        for m in range(1, 8):
            di, dj = m & 1, (m >> 1) & 1
            src = planes[(d - _MOVE_WEIGHT[m]) % 4]
            block = src[:, r0 - di : r1 - di, c0 - dj : c1 - dj]
            # (8, ri, rj) + per-state transition cost into move m.
            scored = block + trans[:, m][:, None, None]
            best_prev = scored.max(axis=0)
            vals = best_prev + subst[m]
            np.copyto(vals, NEG, where=~valid)
            out[m, r0:r1, c0:c1] = vals
            if prev_state is not None:
                arg = scored.argmax(axis=0).astype(np.int8)
                ii, jj = np.nonzero(valid)
                prev_state[m, ilo + ii, jlo + jj, K[ii, jj]] = arg[ii, jj]
        # State 0 (start) exists only at the origin.
        out[0, r0:r1, c0:c1] = NEG
        if ilo == 0 and jlo == 0 and d == 0:  # pragma: no cover
            out[0, 1, 1] = 0.0
        cells += int(valid.sum())

    final = planes[dmax % 4][:, n1 + 1, n2 + 1].copy()
    score = float(final.max())
    return AffineResult(
        score=score,
        prev_state=prev_state,
        cells_computed=cells,
        final_states=final,
    )


def score3_affine(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> float:
    """Optimal quasi-natural affine SP score (O(n^2) memory)."""
    return affine_sweep(sa, sb, sc, scheme, score_only=True).score


def align3_affine(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> Alignment3:
    """Optimal affine-gap three-way alignment with traceback.

    Memory is O(7 n^3) bytes for the predecessor table; suitable for
    sequences up to a couple of hundred residues.
    """
    res = affine_sweep(sa, sb, sc, scheme, score_only=False)
    assert res.prev_state is not None and res.final_states is not None
    n1, n2, n3 = len(sa), len(sb), len(sc)

    state = int(np.argmax(res.final_states))
    score = float(res.final_states[state])

    moves: list[int] = []
    i, j, k = n1, n2, n3
    guard = 3 * (n1 + n2 + n3) + 3
    while (i, j, k) != (0, 0, 0):
        if state == 0:
            raise RuntimeError("affine traceback reached start state early")
        moves.append(state)
        prev = int(res.prev_state[state, i, j, k])
        di, dj, dk = move_delta(state)
        i, j, k = i - di, j - dj, k - dk
        state = prev
        guard -= 1
        if guard < 0:
            raise RuntimeError("affine traceback did not terminate")
    if state != 0:
        raise RuntimeError("affine traceback did not end in the start state")
    moves.reverse()
    cols = moves_to_columns(moves, sa, sb, sc)
    rows = tuple("".join(col[r] for col in cols) for r in range(3))
    meta: dict[str, Any] = {
        "engine": "affine",
        "cells": res.cells_computed,
        "states": N_STATES,
    }
    return Alignment3(rows=rows, score=score, meta=meta)  # type: ignore[arg-type]
