"""Oracles for the quasi-natural affine-gap engine.

:func:`affine_reference` is a scalar dict-based DP, the independent
check of the optimum. :func:`affine_sweep_ref` is the original
allocating form of :func:`repro.core.affine.affine_sweep`, kept verbatim
as the bit-identity oracle for the tournament kernel and as the A/B
baseline of ``benchmarks/bench_kernel.py``. Its ``prev_state`` keeps
the never-written slab 0, so ``ref.prev_state[1:]`` is the kernel's
table.
"""

from __future__ import annotations

import numpy as np

from repro.core.affine import AffineResult
from repro.core.dp3d import NEG
from repro.core.scoring import ScoringScheme
from repro.core.types import move_delta, moves_to_columns
from repro.core.wavefront import plane_bounds
from repro.util.validation import check_sequences

#: Number of DP states: index 0 is the pre-alignment start state, 1..7 the
#: arrival moves.
N_STATES = 8

#: Bit weights of each move (how many planes back its source lies).
_MOVE_WEIGHT = [0, 1, 1, 2, 1, 2, 2, 3]


def affine_reference(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> float:
    """Scalar reference for the quasi-natural affine optimum.

    Plain dict-based DP over (i, j, k, state); exponential in nothing but
    patience — use for sequences up to ~10 residues in tests.
    """
    n1, n2, n3 = len(sa), len(sb), len(sc)
    sab, sac, sbc = scheme.profile_matrices(sa, sb, sc)
    trans = scheme.affine_transition_table()

    def subst(m: int, i: int, j: int, k: int) -> float:
        total = 0.0
        if m & 1 and m & 2:
            total += sab[i - 1, j - 1]
        if m & 1 and m & 4:
            total += sac[i - 1, k - 1]
        if m & 2 and m & 4:
            total += sbc[j - 1, k - 1]
        return total

    V: dict[tuple[int, int, int, int], float] = {(0, 0, 0, 0): 0.0}
    for d in range(1, n1 + n2 + n3 + 1):
        for i in range(max(0, d - n2 - n3), min(n1, d) + 1):
            for j in range(max(0, d - i - n3), min(n2, d - i) + 1):
                k = d - i - j
                for m in range(1, 8):
                    di, dj, dk = move_delta(m)
                    pi, pj, pk = i - di, j - dj, k - dk
                    if pi < 0 or pj < 0 or pk < 0:
                        continue
                    best = NEG
                    for mp in range(8):
                        prev = V.get((pi, pj, pk, mp))
                        if prev is None:
                            continue
                        v = prev + trans[mp, m]
                        if v > best:
                            best = v
                    if best > NEG / 2:
                        V[(i, j, k, m)] = best + subst(m, i, j, k)
    finals = [
        V.get((n1, n2, n3, m), NEG) for m in range(8)
    ]
    if n1 == n2 == n3 == 0:
        return 0.0
    return float(max(finals))


def affine_sweep_ref(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    score_only: bool = False,
) -> AffineResult:
    """Run the 7-state affine wavefront sweep (the original allocating
    form: per plane and move an ``(8, h, w)`` temporary, ``argmax`` and a
    ``nonzero`` scatter).

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


def affine_rows_ref(
    res: AffineResult, sa: str, sb: str, sc: str
) -> tuple[str, str, str]:
    """The rows traced from :func:`affine_sweep_ref`'s 8-slab table."""
    assert res.prev_state is not None and res.final_states is not None
    state = int(np.argmax(res.final_states))
    moves: list[int] = []
    i, j, k = len(sa), len(sb), len(sc)
    while (i, j, k) != (0, 0, 0):
        moves.append(state)
        prev = int(res.prev_state[state, i, j, k])
        di, dj, dk = move_delta(state)
        i, j, k = i - di, j - dj, k - dk
        state = prev
    assert state == 0
    cols = moves_to_columns(moves[::-1], sa, sb, sc)
    return tuple("".join(col[r] for col in cols) for r in range(3))
