"""Unit tests for repro.parallel.partition."""

import pytest

from repro.parallel.partition import (
    balanced_blocks,
    band_depth,
    block_predecessors,
    plane_bands,
    plane_window,
    row_slabs,
    split_range,
)


class TestSplitRange:
    def test_even_split(self):
        assert split_range(0, 9, 2) == [(0, 4), (5, 9)]

    def test_uneven_split_differs_by_one(self):
        chunks = split_range(0, 10, 4)
        sizes = [hi - lo + 1 for lo, hi in chunks]
        assert sum(sizes) == 11
        assert max(sizes) - min(sizes) <= 1

    def test_covers_range_contiguously(self):
        chunks = split_range(3, 17, 5)
        cells = [x for lo, hi in chunks for x in range(lo, hi + 1)]
        assert cells == list(range(3, 18))

    def test_more_parts_than_items(self):
        chunks = split_range(0, 1, 4)
        nonempty = [(lo, hi) for lo, hi in chunks if lo <= hi]
        assert len(chunks) == 4
        assert sum(hi - lo + 1 for lo, hi in nonempty) == 2

    def test_empty_range(self):
        chunks = split_range(5, 4, 3)
        assert all(lo > hi for lo, hi in chunks)
        assert len(chunks) == 3

    def test_single_part(self):
        assert split_range(2, 8, 1) == [(2, 8)]

    def test_parts_validated(self):
        with pytest.raises(ValueError):
            split_range(0, 5, 0)


class TestBalancedBlocks:
    def test_exact_division(self):
        assert balanced_blocks(8, 4) == [(0, 3), (4, 7)]

    def test_remainder_block(self):
        assert balanced_blocks(10, 4) == [(0, 3), (4, 7), (8, 9)]

    def test_block_larger_than_total(self):
        assert balanced_blocks(3, 10) == [(0, 2)]

    def test_zero_total(self):
        assert balanced_blocks(0, 4) == []

    def test_block_validated(self):
        with pytest.raises(ValueError):
            balanced_blocks(10, 0)


class TestRowSlabs:
    def test_never_emits_empty_slabs(self):
        # parts > rows: split_range would pad with empty chunks; row_slabs
        # must instead shrink the worker count so every slab has work.
        slabs = row_slabs(2, 8)
        assert slabs == [(0, 0), (1, 1), (2, 2)]
        assert all(lo <= hi for lo, hi in slabs)

    def test_covers_all_rows_contiguously(self):
        slabs = row_slabs(10, 3)
        rows = [i for lo, hi in slabs for i in range(lo, hi + 1)]
        assert rows == list(range(11))

    def test_zero_rows_single_slab(self):
        assert row_slabs(0, 4) == [(0, 0)]

    def test_validates(self):
        with pytest.raises(ValueError):
            row_slabs(5, 0)
        with pytest.raises(ValueError):
            row_slabs(-1, 2)


class TestPlaneBands:
    def test_counts_match_balanced_blocks(self):
        for dmax, depth in [(0, 1), (10, 4), (17, 5), (30, 16)]:
            assert plane_bands(dmax, depth) == balanced_blocks(
                dmax + 1, depth
            )

    def test_bands_cover_every_plane_once(self):
        bands = plane_bands(23, 7)
        planes = [d for s, e in bands for d in range(s, e + 1)]
        assert planes == list(range(24))

    def test_zero_length_cube_is_one_band(self):
        # dmax = 0 (three empty sequences): a single one-plane band.
        assert plane_bands(0, 8) == [(0, 0)]

    def test_negative_dmax_rejected(self):
        with pytest.raises(ValueError):
            plane_bands(-1, 4)


class TestPlaneWindow:
    def test_window_formula(self):
        # W = 2T + 3: writing plane d destroys plane d - W; with a full
        # band of slack on top of the 3-plane read horizon, adjacent
        # workers stream a band apart without blocking.
        assert plane_window(1) == 5
        assert plane_window(8) == 19

    def test_validates(self):
        with pytest.raises(ValueError):
            plane_window(0)


class TestBandDepth:
    def test_floor_and_cap(self):
        assert band_depth(0, 4) == 4  # tiny cube: floor wins
        assert band_depth(10_000, 2) == 16  # huge cube: cap wins
        assert band_depth(10_000, 2, cap=32) == 32

    def test_two_bands_in_flight_per_worker(self):
        dmax, workers = 100, 4
        depth = band_depth(dmax, workers)
        assert depth == min(16, max(4, (dmax + 1) // (2 * workers)))

    def test_validates(self):
        with pytest.raises(ValueError):
            band_depth(10, 0)
        with pytest.raises(ValueError):
            band_depth(-1, 2)


class TestBlockPredecessors:
    def test_corner_blocks(self):
        assert block_predecessors(0, 0, 3, 4) == []
        assert block_predecessors(0, 2, 3, 4) == [(0, 1)]
        assert block_predecessors(2, 0, 3, 4) == [(1, 0)]
        assert block_predecessors(1, 1, 3, 4) == [(1, 0), (0, 1)]

    def test_out_of_grid_rejected(self):
        for w, b in [(-1, 0), (3, 0), (0, -1), (0, 4)]:
            with pytest.raises(ValueError):
                block_predecessors(w, b, 3, 4)

    def test_complete_vs_brute_force_cell_dependencies(self):
        """Every cross-block DP dependency must be covered by the
        transitive closure of the declared predecessor edges — i.e. a
        scheduler honouring ``block_predecessors`` can never read a cell
        before the block owning it has run."""
        n1, n2, n3 = 5, 4, 3
        workers, depth = 3, 2
        slabs = row_slabs(n1, workers)
        bands = plane_bands(n1 + n2 + n3, depth)

        def owner(i, j, k):
            w = next(x for x, (lo, hi) in enumerate(slabs) if lo <= i <= hi)
            d = i + j + k
            b = next(x for x, (s, e) in enumerate(bands) if s <= d <= e)
            return (w, b)

        # Transitive closure of the declared grid edges.
        reach = {}
        for w in range(len(slabs)):
            for b in range(len(bands)):
                closed = set()
                frontier = [(w, b)]
                while frontier:
                    node = frontier.pop()
                    for dep in block_predecessors(
                        *node, len(slabs), len(bands)
                    ):
                        if dep not in closed:
                            closed.add(dep)
                            frontier.append(dep)
                reach[(w, b)] = closed

        moves = [
            (1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
            (1, 0, 0), (0, 1, 0), (0, 0, 1),
        ]
        for i in range(n1 + 1):
            for j in range(n2 + 1):
                for k in range(n3 + 1):
                    blk = owner(i, j, k)
                    for di, dj, dk in moves:
                        pi, pj, pk = i - di, j - dj, k - dk
                        if pi < 0 or pj < 0 or pk < 0:
                            continue
                        dep = owner(pi, pj, pk)
                        if dep != blk:
                            assert dep in reach[blk], (
                                f"cell ({i},{j},{k}) in block {blk} reads "
                                f"({pi},{pj},{pk}) in uncovered block {dep}"
                            )

    def test_dependencies_point_strictly_backwards(self):
        # The grid is a DAG ordered by (w + b): every predecessor sits
        # strictly earlier, so the sweep order 'band-major within slab'
        # can never deadlock.
        for w in range(4):
            for b in range(5):
                for pw, pb in block_predecessors(w, b, 4, 5):
                    assert pw + pb < w + b
