"""Reference full-matrix 3-D dynamic program (scalar Python).

This is the *specification* implementation: a direct transcription of the
7-predecessor recurrence, looping cell by cell. It is deliberately simple —
every faster engine in the package is validated against it. Use it for
sequences up to a few tens of residues; beyond that, use
:mod:`repro.core.wavefront`.

Recurrence (linear gap model, similarity maximisation)
------------------------------------------------------
``D[i,j,k] = max over moves m in 1..7 of D[pred(m)] + delta(m, i, j, k)``
where ``delta`` is the SP score of the alignment column the move emits:

===========  =======================================================
move (bits)  column score
===========  =======================================================
A (1)        2*gap                       (a_i against two gaps)
B (2)        2*gap
C (4)        2*gap
AB (3)       s(a_i, b_j) + 2*gap
AC (5)       s(a_i, c_k) + 2*gap
BC (6)       s(b_j, c_k) + 2*gap
ABC (7)      s(a_i, b_j) + s(a_i, c_k) + s(b_j, c_k)
===========  =======================================================

``D[0,0,0] = 0``; cells outside the cube are ``-inf``.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.obs import hooks as _obs
from repro.obs import trace as _trace
from repro.core.scoring import ScoringScheme
from repro.core.traceback import traceback_moves
from repro.core.types import Alignment3, moves_to_columns
from repro.util.validation import check_sequences

#: Finite stand-in for minus infinity; keeps kernel arithmetic NaN-free.
NEG = -1.0e30


def dp3d_matrix(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute the full score cube and move cube.

    Parameters
    ----------
    sa, sb, sc:
        The three sequences.
    scheme:
        Linear-gap SP scoring scheme (``scheme.is_affine`` must be False).

    Returns
    -------
    (D, M):
        ``D`` — float64 score cube, unreachable cells hold a large negative
        sentinel; ``M`` — int8 move cube (0 at the origin).
    """
    check_sequences((sa, sb, sc), count=3)
    if scheme.is_affine:
        raise ValueError(
            "dp3d_matrix implements the linear gap model; "
            "use repro.core.affine for affine gaps"
        )
    n1, n2, n3 = len(sa), len(sb), len(sc)
    sab, sac, sbc = scheme.profile_matrices(sa, sb, sc)
    g2 = 2.0 * scheme.gap

    D = np.full((n1 + 1, n2 + 1, n3 + 1), NEG, dtype=np.float64)
    M = np.zeros((n1 + 1, n2 + 1, n3 + 1), dtype=np.int8)

    observing = _obs.active()
    t0 = time.perf_counter() if observing else 0.0
    fill_box(D, (0, 0, 0), (n1, n2, n3), sab, sac, sbc, g2, M=M)
    if observing:
        _obs.record_sweep(
            "dp3d",
            cells=D.size,
            seconds=time.perf_counter() - t0,
            peak_plane_bytes=D.nbytes,
            move_cube_bytes=M.nbytes,
        )
    return D, M


def fill_box(
    D: np.ndarray,
    lo: tuple[int, int, int],
    hi: tuple[int, int, int],
    sab: np.ndarray,
    sac: np.ndarray,
    sbc: np.ndarray,
    g2: float,
    origin: tuple[int, int, int] = (0, 0, 0),
    M: np.ndarray | None = None,
) -> None:
    """Fill cells ``lo..hi`` (inclusive, cube coordinates) of ``D`` in place.

    ``D[c - origin]`` holds cube cell ``c`` (a halo-padded block passes its
    corner minus one), and every predecessor outside the box must already
    hold its value or NEG. Each cell takes the best of moves 1..7 visited
    in code order with strict ``>``, so the first of equals wins — the
    tie-break every vectorised engine shares. ``M`` (indexed like ``D``)
    receives the winning moves.
    """
    o1, o2, o3 = origin
    for i in range(lo[0], hi[0] + 1):
        x = i - o1
        for j in range(lo[1], hi[1] + 1):
            y = j - o2
            for k in range(lo[2], hi[2] + 1):
                z = k - o3
                if i == j == k == 0:
                    D[x, y, z] = 0.0
                    continue
                best = NEG
                best_move = 0
                # Move A (advance i only).
                if i >= 1:
                    v = D[x - 1, y, z] + g2
                    if v > best:
                        best, best_move = v, 1
                # Move B.
                if j >= 1:
                    v = D[x, y - 1, z] + g2
                    if v > best:
                        best, best_move = v, 2
                # Move AB.
                if i >= 1 and j >= 1:
                    v = D[x - 1, y - 1, z] + sab[i - 1, j - 1] + g2
                    if v > best:
                        best, best_move = v, 3
                # Move C.
                if k >= 1:
                    v = D[x, y, z - 1] + g2
                    if v > best:
                        best, best_move = v, 4
                # Move AC.
                if i >= 1 and k >= 1:
                    v = D[x - 1, y, z - 1] + sac[i - 1, k - 1] + g2
                    if v > best:
                        best, best_move = v, 5
                # Move BC.
                if j >= 1 and k >= 1:
                    v = D[x, y - 1, z - 1] + sbc[j - 1, k - 1] + g2
                    if v > best:
                        best, best_move = v, 6
                # Move ABC.
                if i >= 1 and j >= 1 and k >= 1:
                    v = (
                        D[x - 1, y - 1, z - 1]
                        + sab[i - 1, j - 1]
                        + sac[i - 1, k - 1]
                        + sbc[j - 1, k - 1]
                    )
                    if v > best:
                        best, best_move = v, 7
                D[x, y, z] = best
                if M is not None:
                    M[x, y, z] = best_move


def align3_dp3d(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
) -> Alignment3:
    """Optimal three-way alignment via the reference full-matrix DP."""
    with _trace.span("dp3d.sweep"):
        D, M = dp3d_matrix(sa, sb, sc, scheme)
    n1, n2, n3 = len(sa), len(sb), len(sc)
    score = float(D[n1, n2, n3])
    with _trace.span("dp3d.traceback"):
        moves = traceback_moves(M)
        cols = moves_to_columns(moves, sa, sb, sc)
    rows = tuple("".join(col[r] for col in cols) for r in range(3))
    meta: dict[str, Any] = {
        "engine": "dp3d",
        "cells": (n1 + 1) * (n2 + 1) * (n3 + 1),
    }
    return Alignment3(rows=rows, score=score, meta=meta)  # type: ignore[arg-type]


def score3_dp3d(
    sa: str, sb: str, sc: str, scheme: ScoringScheme
) -> float:
    """Optimal SP score only (reference path)."""
    D, _ = dp3d_matrix(sa, sb, sc, scheme)
    return float(D[len(sa), len(sb), len(sc)])
