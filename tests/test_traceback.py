"""Unit tests for repro.core.traceback."""

import numpy as np
import pytest

from repro.core.traceback import path_cells, traceback_moves


def _cube_for_moves(moves, dims):
    """Build a move cube that encodes one chain ending at the far corner."""
    M = np.zeros(tuple(d + 1 for d in dims), dtype=np.int8)
    i = j = k = 0
    for m in moves:
        i += m & 1
        j += (m >> 1) & 1
        k += (m >> 2) & 1
        M[i, j, k] = m
    assert (i, j, k) == dims
    return M


class TestTracebackMoves:
    def test_simple_chain(self):
        moves = [7, 3, 4]
        M = _cube_for_moves(moves, (2, 2, 2))
        assert traceback_moves(M) == moves

    def test_empty_cube(self):
        M = np.zeros((1, 1, 1), dtype=np.int8)
        assert traceback_moves(M) == []

    def test_custom_start(self):
        moves = [7, 7]
        M = _cube_for_moves(moves, (2, 2, 2))
        assert traceback_moves(M, start=(1, 1, 1)) == [7]

    def test_start_out_of_range(self):
        M = np.zeros((2, 2, 2), dtype=np.int8)
        with pytest.raises(ValueError, match="outside cube"):
            traceback_moves(M, start=(5, 0, 0))

    def test_broken_chain_detected(self):
        M = np.zeros((2, 2, 2), dtype=np.int8)
        M[1, 1, 1] = 7  # predecessor (0,0,0) fine, but start from a hole:
        M[1, 1, 0] = 0
        with pytest.raises(RuntimeError, match="broken"):
            traceback_moves(M, start=(1, 1, 0))

    def test_restart_ends_the_walk(self):
        # Chain 7, 3, 4 with the first move erased: (1,1,1) is a restart
        # cell, a hole for a global walk.
        M = _cube_for_moves([7, 3, 4], (2, 2, 2))
        M[1, 1, 1] = 0
        assert traceback_moves(M, restart=True) == [3, 4]
        with pytest.raises(RuntimeError, match="broken"):
            traceback_moves(M)

    def test_invalid_move_value_detected(self):
        M = np.zeros((2, 1, 1), dtype=np.int8)
        M[1, 0, 0] = 9
        with pytest.raises(RuntimeError, match="broken"):
            traceback_moves(M)


class TestPathCells:
    def test_includes_both_endpoints(self):
        cells = path_cells([7, 1])
        assert cells[0] == (0, 0, 0)
        assert cells[-1] == (2, 1, 1)
        assert len(cells) == 3

    def test_empty(self):
        assert path_cells([]) == [(0, 0, 0)]

    def test_monotone(self):
        cells = path_cells([1, 2, 4, 7, 3, 5, 6])
        for a, b in zip(cells, cells[1:]):
            assert all(y >= x for x, y in zip(a, b))
            assert sum(b) > sum(a)
