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

Kernel
------
The engine sweeps anti-diagonal planes exactly like
:mod:`repro.core.wavefront`, with an extra leading state axis, and on the
same discipline: every buffer is allocated once per sweep, and a plane
costs about 25 in-place ufunc calls score-only, 45 with the predecessor
table. A :class:`~repro.core.workspace.PlaneWorkspace` supplies the
``k`` lattice, validity and the clip-padded substitution tables. The
seven moves' source blocks, each plus its transition column, go into
one state-major ``(8, 7, h, w)`` stack, and a three-round pairwise
tournament over the state axis (states 0-1, 2-3, 4-5, 6-7, then the
winners in pairs, then the last two) yields every move's maximum and its
source state at once. The right operand wins a round only when strictly
greater, so the state is the first maximal one, ``argmax``'s rule, and
float64 ``max`` is exact: results are bit-identical to the original
allocating sweep kept in ``tests/reference/affine.py``. The source
states go into a ``(7, n1+1, n2+1, n3+1)`` int8 table, one slab per
move, through one strided scatter per plane
(:func:`repro.core.wavefront._scatter_moves`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.dp3d import NEG
from repro.core.scoring import ScoringScheme
from repro.core.types import Alignment3, move_delta, moves_to_columns
from repro.core.wavefront import _scatter_moves, plane_bounds
from repro.core.workspace import PlaneWorkspace
from repro.obs import hooks as _obs
from repro.util.validation import check_sequences

#: Number of DP states: index 0 is the pre-alignment start state, 1..7 the
#: arrival moves.
N_STATES = 8

#: Bit weights of each move (how many planes back its source lies).
_MOVE_WEIGHT = [0, 1, 1, 2, 1, 2, 2, 3]


@dataclass
class AffineResult:
    """Output of an affine sweep.

    ``prev_state[m - 1, i, j, k]`` is the state the best path into
    ``(i, j, k)`` by move ``m`` came from (``None`` score-only).
    """

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

    ``score_only`` skips the per-(cell, move) predecessor table, dropping
    memory from O(7 n^3) to O(n^2).
    """
    check_sequences((sa, sb, sc), count=3)
    n1, n2, n3 = len(sa), len(sb), len(sc)
    sab, sac, sbc = scheme.profile_matrices(sa, sb, sc)
    dims = (n1, n2, n3)
    ws = PlaneWorkspace(dims)
    ws.bind_profiles(sab, sac, sbc, dims)
    # tcol[m] is T[:, m] shaped (8, 1, 1): the cost of entering move m
    # from each state.
    tcol = np.ascontiguousarray(
        scheme.affine_transition_table().T[:, :, None, None]
    )

    observing = _obs.active()
    t_sweep = time.perf_counter() if observing else 0.0
    # planes[r] has shape (N_STATES, n1+2, n2+2), padded like the linear
    # engine's buffers.
    planes = [
        np.full((N_STATES, n1 + 2, n2 + 2), NEG) for _ in range(4)
    ]
    area = (n1 + 1) * (n2 + 1)
    stack = np.empty(N_STATES * 7 * area)
    prev_state = None
    if not score_only:
        prev_state = np.zeros((7, n1 + 1, n2 + 1, n3 + 1), dtype=np.int8)
        # The tournament's outcomes, 4 + 2 + 1 bool layers of (7, h, w),
        # and the winning states; each layer padded to whole uint64 words.
        # Zeroed, so every byte of the layers, padding included, is 0/1.
        words = -(-7 * area // 8)
        wins = np.zeros(7 * 8 * words, dtype=bool)
        states = np.empty(8 * words, dtype=np.int8)

    planes[0][0, 1, 1] = 0.0  # plane 0 is the origin, in the start state
    dmax = n1 + n2 + n3
    for d in range(1, dmax + 1):
        out = planes[d % 4]
        ilo, ihi, jlo, jhi = plane_bounds(d, n1, n2, n3)
        # Stale plane d-4 values live in these rows; state 0 stays NEG.
        out[:, ilo + 1 : ihi + 2, :] = NEG
        K, kc, valid, invalid, fi2, gv2, g7, _, d0, g_ab, rtac, ctbc = (
            ws.box_views(ilo, ihi, jlo, jhi)
        )
        np.subtract(d, d0, out=K)
        np.maximum(K, 0, out=kc)
        np.minimum(kc, n3, out=kc)
        np.not_equal(K, kc, out=invalid)
        # AC and BC substitution terms: one fused take over the tables.
        np.add(rtac, kc, out=fi2[0])
        np.add(ctbc, kc, out=fi2[1])
        ws._tab_acbc_flat.take(fi2, out=gv2)

        h, w = ihi - ilo + 1, jhi - jlo + 1
        r0, r1, c0, c1 = ilo + 1, ihi + 2, jlo + 1, jhi + 2
        S = stack[: N_STATES * 7 * h * w].reshape(N_STATES, 7, h, w)
        for m in range(1, 8):
            di, dj = m & 1, (m >> 1) & 1
            src = planes[(d - _MOVE_WEIGHT[m]) % 4]
            block = src[:, r0 - di : r1 - di, c0 - dj : c1 - dj]
            np.add(block, tcol[m], out=S[:, m - 1])

        # Tournament over the state axis; the last round's maxima land
        # in the moves' rows of the output plane.
        best = out[1:, r0:r1, c0:c1]
        if score_only:
            np.maximum(S[0::2], S[1::2], out=S[0::2])
            np.maximum(S[0::4], S[2::4], out=S[0::4])
            np.maximum(S[0], S[4], out=best)
        else:
            L = -(-7 * h * w // 8) * 8
            layers = wins[: 7 * L].reshape(7, L)
            g = layers[:, : 7 * h * w].reshape(7, 7, h, w)
            np.greater(S[1::2], S[0::2], out=g[:4])
            np.maximum(S[0::2], S[1::2], out=S[0::2])
            np.greater(S[2::4], S[0::4], out=g[4:6])
            np.maximum(S[0::4], S[2::4], out=S[0::4])
            np.greater(S[4], S[0], out=g[6])
            np.maximum(S[0], S[4], out=best)
            # Winner = 4*b3 + 2*b2 + b1 with b3 = g3, b2 = g2[b3] and
            # b1 = g1[2*b3 + b2]. Every layer byte is 0/1, so each select
            # a ^ (mask & (a ^ b)) and the final sums run on uint64
            # words, eight cells per element: no byte exceeds 7, so no
            # carry crosses a byte, and the padding is never read back.
            u = layers.view(np.uint64)
            u1, u2, u3 = u[:4], u[4:6], u[6]
            np.bitwise_xor(u2[0], u2[1], out=u2[1])
            u2[1] &= u3
            u2[0] ^= u2[1]  # b2
            np.bitwise_xor(u1[:2], u1[2:], out=u1[2:])
            u1[2:] &= u3
            u1[:2] ^= u1[2:]  # the two round-1 layers of b3's half
            np.bitwise_xor(u1[0], u1[1], out=u1[1])
            u1[1] &= u2[0]
            u1[0] ^= u1[1]  # b1
            packed = states[:L].view(np.uint64)
            np.add(u3, u3, out=packed)
            packed += u2[0]
            packed += packed
            packed += u1[0]
            state = states[: 7 * h * w].reshape(7, h, w)

        # Substitution terms in the original addition order. Moves 1, 2
        # and 4 match no pair; the original added 0.0 to them, which is
        # the identity here, since no state value is ever -0.0.
        best[2] += g_ab  # move 3: AB
        best[4] += gv2[0]  # move 5: AC
        best[5] += gv2[1]  # move 6: BC
        np.add(g_ab, gv2[0], out=g7)
        g7 += gv2[1]
        best[6] += g7  # move 7: ABC
        np.copyto(best, NEG, where=invalid)
        if not score_only:
            np.logical_not(invalid, out=valid)
            _scatter_moves(prev_state, state, valid, K, d, ilo, jlo, dims)

    # Every cell of the cube lies on exactly one plane.
    cells = (n1 + 1) * (n2 + 1) * (n3 + 1)
    if observing:
        _obs.record_sweep(
            "affine",
            cells=cells,
            seconds=time.perf_counter() - t_sweep,
            peak_plane_bytes=sum(p.nbytes for p in planes),
            move_cube_bytes=0 if prev_state is None else prev_state.nbytes,
        )
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
        prev = int(res.prev_state[state - 1, i, j, k])
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
        "move_store_bytes": res.prev_state.nbytes,
    }
    return Alignment3(rows=rows, score=score, meta=meta)  # type: ignore[arg-type]
