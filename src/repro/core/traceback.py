"""Traceback shared by every engine that records moves.

A move store ``M`` holds, for each cell, the move (1..7) by which the optimal
path arrives there, or 0 at the origin. Traceback simply walks from the
terminal corner to the origin, reversing each move's (di, dj, dk). In the
local and semiglobal modes a 0 also marks a cell where the path restarts,
and the walk stops there.

The walk reads only ``M.shape`` and ``M[i, j, k]``, so ``M`` is either a
dense int8 cube or a tube sweep's :class:`~repro.core.tube.TubeMoves`,
which reads 0 outside its tube.
"""

from __future__ import annotations

import numpy as np

from repro.core.tube import TubeMoves
from repro.core.types import move_delta


def traceback_moves(
    M: np.ndarray | TubeMoves,
    start: tuple[int, int, int] | None = None,
    restart: bool = False,
) -> list[int]:
    """Walk ``M`` from ``start`` (default: the terminal corner) back to the
    origin and return the move sequence in forward order.

    With ``restart`` the walk instead ends at the first zero move (a
    local/semiglobal restart cell); the path's first cell is then
    ``start`` minus the moves' summed deltas.

    Raises ``RuntimeError`` when the chain is broken (a zero move before the
    origin, or a cycle longer than the cube's diameter), which would indicate
    a bug in the engine that produced ``M``.
    """
    n1, n2, n3 = (d - 1 for d in M.shape)
    i, j, k = start if start is not None else (n1, n2, n3)
    if not (0 <= i <= n1 and 0 <= j <= n2 and 0 <= k <= n3):
        raise ValueError(f"start {(i, j, k)} outside cube {M.shape}")
    moves: list[int] = []
    limit = i + j + k  # each move decreases i+j+k by at least 1
    while (i, j, k) != (0, 0, 0):
        m = int(M[i, j, k])
        if restart and m == 0:
            break
        if not 1 <= m <= 7:
            raise RuntimeError(
                f"broken traceback chain at ({i},{j},{k}): move {m}"
            )
        moves.append(m)
        di, dj, dk = move_delta(m)
        i, j, k = i - di, j - dj, k - dk
        if i < 0 or j < 0 or k < 0:
            raise RuntimeError("traceback stepped outside the cube")
        if len(moves) > limit:
            raise RuntimeError("traceback did not terminate (cycle?)")
    moves.reverse()
    return moves


def path_cells(moves: list[int]) -> list[tuple[int, int, int]]:
    """The cells visited by a move sequence, starting at the origin.

    Includes both endpoints; useful for verifying that a pruning tube
    retains the optimal path.
    """
    i = j = k = 0
    cells = [(0, 0, 0)]
    for m in moves:
        di, dj, dk = move_delta(m)
        i, j, k = i + di, j + dj, k + dk
        cells.append((i, j, k))
    return cells
