"""Scalar oracles for the local and semiglobal alignment modes.

Cell-by-cell fills of the mode recurrences, written independently of the
plane kernel. Each cell starts from its restart floor (move 0: 0 for
every local cell and for semiglobal cells on the i=0 | j=0 | k=0 faces,
-inf elsewhere) and takes a move 1..7 only when it is strictly better,
so a restart wins ties and lower move codes win among equals — the
kernel's tie rule, which keeps whole move cubes comparable.
"""

from __future__ import annotations

import numpy as np

from repro.core.dp3d import NEG
from repro.core.scoring import ScoringScheme
from repro.core.types import move_delta


def _mode_fill(
    sa: str, sb: str, sc: str, scheme: ScoringScheme, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    if scheme.is_affine:
        raise ValueError(f"the {mode} oracle implements the linear gap model")
    n1, n2, n3 = len(sa), len(sb), len(sc)
    sab, sac, sbc = scheme.profile_matrices(sa, sb, sc)
    g2 = 2.0 * scheme.gap
    D = np.full((n1 + 1, n2 + 1, n3 + 1), NEG)
    M = np.zeros(D.shape, dtype=np.int8)
    for i in range(n1 + 1):
        for j in range(n2 + 1):
            for k in range(n3 + 1):
                free = mode == "local" or 0 in (i, j, k)
                best, move = (0.0 if free else NEG), 0
                for m in range(1, 8):
                    di, dj, dk = move_delta(m)
                    if i < di or j < dj or k < dk:
                        continue
                    v = D[i - di, j - dj, k - dk]
                    if di and dj:
                        v += sab[i - 1, j - 1]
                    if di and dk:
                        v += sac[i - 1, k - 1]
                    if dj and dk:
                        v += sbc[j - 1, k - 1]
                    if m != 7:
                        v += g2
                    if v > best:
                        best, move = v, m
                D[i, j, k], M[i, j, k] = best, move
    return D, M


def local_dp3d_matrix(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> tuple[np.ndarray, np.ndarray]:
    """Local score/move cubes; ``M == 0`` marks a restart cell."""
    return _mode_fill(sa, sb, sc, scheme, "local")


def semiglobal_dp3d_matrix(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> tuple[np.ndarray, np.ndarray]:
    """Semiglobal score/move cubes; ``M == 0`` marks a free-start cell."""
    return _mode_fill(sa, sb, sc, scheme, "semiglobal")


def best_end_cell(
    D: np.ndarray, mode: str
) -> tuple[float, tuple[int, int, int]]:
    """The answer: the first best cell in ``(d, i, j)`` order, anywhere
    for local and on the i=n1 | j=n2 | k=n3 faces for semiglobal."""
    n1, n2, n3 = (s - 1 for s in D.shape)
    best, cell = -np.inf, (0, 0, 0)
    for d in range(n1 + n2 + n3 + 1):
        for i in range(max(0, d - n2 - n3), min(n1, d) + 1):
            for j in range(max(0, d - i - n3), min(n2, d - i) + 1):
                k = d - i - j
                upper = i == n1 or j == n2 or k == n3
                if (mode == "local" or upper) and D[i, j, k] > best:
                    best, cell = float(D[i, j, k]), (i, j, k)
    return best, cell


def walk_back(
    M: np.ndarray, end: tuple[int, int, int]
) -> tuple[tuple[int, int, int], list[int]]:
    """``(start, moves)``: the walk from ``end`` back to the nearest
    restart (a zero move), moves in forward order."""
    i, j, k = end
    moves: list[int] = []
    while M[i, j, k]:
        moves.append(int(M[i, j, k]))
        di, dj, dk = move_delta(moves[-1])
        i, j, k = i - di, j - dj, k - dk
    return (i, j, k), moves[::-1]
