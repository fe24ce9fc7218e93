"""Unit tests for the 3-D Hirschberg engine (repro.core.hirschberg)."""

import pytest

from repro.core.dp3d import score3_dp3d
from repro.core.hirschberg import (
    DEFAULT_BASE_CELLS,
    align3_hirschberg,
    memory_estimate_bytes,
)


class TestOptimality:
    def test_small_battery(self, small_triples, dna_scheme):
        for triple in small_triples:
            aln = align3_hirschberg(*triple, dna_scheme, base_cells=30)
            expected = score3_dp3d(*triple, dna_scheme)
            assert aln.score == pytest.approx(expected), triple
            assert dna_scheme.sp_score(aln.rows) == pytest.approx(aln.score)
            assert aln.sequences() == tuple(triple)

    def test_medium_family_forced_recursion(self, family_medium, dna_scheme):
        aln = align3_hirschberg(*family_medium, dna_scheme, base_cells=500)
        expected = score3_dp3d(*family_medium, dna_scheme)
        assert aln.score == pytest.approx(expected)
        assert aln.meta["slab_sweeps"] >= 2

    def test_small_base_cells_recursion(self, family_small, dna_scheme):
        aln = align3_hirschberg(*family_small, dna_scheme, base_cells=100)
        assert aln.score == pytest.approx(score3_dp3d(*family_small, dna_scheme))

    def test_unbalanced_lengths(self, dna_scheme):
        # Longest sequence must be rotated to the split axis.
        sa, sb, sc = "AC", "GATTACAGATTACAGATTACA", "GAT"
        aln = align3_hirschberg(sa, sb, sc, dna_scheme, base_cells=60)
        assert aln.score == pytest.approx(score3_dp3d(sa, sb, sc, dna_scheme))
        assert aln.sequences() == (sa, sb, sc)

    def test_one_empty_sequence(self, dna_scheme):
        aln = align3_hirschberg(
            "GATTACAGATTACA", "GATCAGGTACA", "", dna_scheme, base_cells=40
        )
        expected = score3_dp3d("GATTACAGATTACA", "GATCAGGTACA", "", dna_scheme)
        assert aln.score == pytest.approx(expected)


class TestGuards:
    def test_base_cells_validated(self, dna_scheme):
        with pytest.raises(ValueError, match="base_cells"):
            align3_hirschberg("A", "A", "A", dna_scheme, base_cells=1)

    def test_affine_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="linear"):
            align3_hirschberg(
                "A", "A", "A", dna_scheme.with_gaps(gap=-1, gap_open=-1)
            )

    def test_small_problem_uses_base_case_directly(self, dna_scheme):
        aln = align3_hirschberg("AC", "AG", "AT", dna_scheme)
        assert aln.meta["slab_sweeps"] == 0
        assert aln.meta["base_calls"] == 1


class TestMeta:
    def test_splits_recorded(self, family_medium, dna_scheme):
        aln = align3_hirschberg(*family_medium, dna_scheme, base_cells=500)
        assert len(aln.meta["splits"]) == aln.meta["slab_sweeps"] // 2

    def test_engine_name(self, dna_scheme):
        aln = align3_hirschberg("AC", "AG", "AT", dna_scheme)
        assert aln.meta["engine"] == "hirschberg"


class TestMemoryEstimate:
    def test_scales_quadratically_not_cubically(self):
        m100 = memory_estimate_bytes(100, 100, 100)
        m200 = memory_estimate_bytes(200, 200, 200)
        # Doubling n should roughly 4x the variable part, not 8x; with the
        # constant base-case term the ratio stays well under 8.
        assert m200 / m100 < 5

    def test_smaller_than_full_cube_at_scale(self):
        n = 300
        full = (n + 1) ** 3 * 9
        assert memory_estimate_bytes(n, n, n) < full / 10

    def test_default_base_cells_reasonable(self):
        assert 10_000 <= DEFAULT_BASE_CELLS <= 10_000_000
