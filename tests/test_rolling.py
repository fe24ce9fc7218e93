"""Unit tests for the forward/backward slabs (repro.core.rolling) and the
wavefront sweep's ``i``-level capture behind them."""

import numpy as np
import pytest

from repro.core.dp3d import dp3d_matrix, score3_dp3d
from repro.core.rolling import backward_slab, forward_slab
from repro.core.wavefront import wavefront_sweep


class TestScoreAgreement:
    def test_small_battery(self, small_triples, dna_scheme):
        for triple in small_triples:
            D, _ = dp3d_matrix(*triple, dna_scheme)
            n1 = len(triple[0])
            for level in {0, n1 // 2, n1}:
                fwd = forward_slab(*triple, dna_scheme, level)
                assert np.array_equal(fwd, D[level]), (triple, level)

    def test_medium_family(self, family_medium, dna_scheme):
        from repro.core.wavefront import score3_wavefront

        n1 = len(family_medium[0])
        fwd = forward_slab(*family_medium, dna_scheme, n1)
        assert fwd[-1, -1] == score3_wavefront(*family_medium, dna_scheme)

    def test_affine_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="linear"):
            forward_slab(
                "A", "A", "A", dna_scheme.with_gaps(gap=-1, gap_open=-1), 0
            )


class TestSlabCapture:
    def test_captured_slabs_match_reference_cube(self, dna_scheme):
        sa, sb, sc = "GATT", "GT", "GAT"
        D_ref, _ = dp3d_matrix(sa, sb, sc, dna_scheme)
        res = wavefront_sweep(
            sa, sb, sc, dna_scheme, capture_levels=range(len(sa) + 1)
        )
        assert set(res.captured_slab) == set(range(len(sa) + 1))
        for level, slab in res.captured_slab.items():
            assert np.array_equal(slab, D_ref[level]), level

    def test_capture_level_validated(self, dna_scheme):
        with pytest.raises(ValueError, match="capture level"):
            wavefront_sweep("AC", "A", "A", dna_scheme, capture_levels=(9,))

    def test_cells_computed(self, dna_scheme):
        res = wavefront_sweep("ACG", "AC", "A", dna_scheme, capture_levels=(1,))
        assert res.cells_computed == 4 * 3 * 2


class TestForwardBackwardSlabs:
    def test_forward_slab_matches_reference_cube(self, dna_scheme, family_small):
        sa, sb, sc = family_small
        D, _ = dp3d_matrix(sa, sb, sc, dna_scheme)
        for level in (0, len(sa) // 2, len(sa)):
            fwd = forward_slab(sa, sb, sc, dna_scheme, level)
            assert np.array_equal(fwd, D[level]), level

    def test_forward_plus_backward_attains_optimum(
        self, dna_scheme, family_small
    ):
        # Hirschberg's core invariant: max_j,k F[mid] + B[mid] == OPT.
        sa, sb, sc = family_small
        opt = score3_dp3d(sa, sb, sc, dna_scheme)
        for mid in (0, len(sa) // 2, len(sa)):
            fwd = forward_slab(sa, sb, sc, dna_scheme, mid)
            bwd = backward_slab(sa, sb, sc, dna_scheme, mid)
            total = fwd + bwd
            assert total.max() == pytest.approx(opt), mid
            # And no cell ever exceeds the optimum.
            assert (total <= opt + 1e-6).all()

    def test_backward_slab_is_suffix_scores(self, dna_scheme):
        sa, sb, sc = "GAT", "GT", "AT"
        mid = 1
        bwd = backward_slab(sa, sb, sc, dna_scheme, mid)
        for j in range(len(sb) + 1):
            for k in range(len(sc) + 1):
                expected = score3_dp3d(sa[mid:], sb[j:], sc[k:], dna_scheme)
                assert bwd[j, k] == pytest.approx(expected), (j, k)

    def test_forward_slab_level_zero(self, dna_scheme):
        # F[0, j, k] is the pairwise face of (B, C) with gap columns.
        sa, sb, sc = "ACG", "GA", "GT"
        fwd = forward_slab(sa, sb, sc, dna_scheme, 0)
        assert fwd[0, 0] == 0.0
        expected = score3_dp3d("", sb, sc, dna_scheme)
        assert fwd[len(sb), len(sc)] == pytest.approx(expected)
