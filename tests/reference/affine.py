"""Scalar oracle for the quasi-natural affine-gap optimum."""

from __future__ import annotations

from repro.core.dp3d import NEG
from repro.core.scoring import ScoringScheme
from repro.core.types import move_delta


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
