"""Unit tests for certified banded alignment (repro.core.band)."""

import numpy as np
import pytest

from repro.core.band import align3_banded, band_tube, score3_banded
from repro.core.dp3d import score3_dp3d
from repro.seqio.generate import MutationModel, mutated_family
from tests.reference.bounds import dense_mask


class TestBandMask:
    def test_corners_always_kept(self):
        mask = dense_mask(band_tube(5, 9, 3, 1))
        assert mask[0, 0, 0] and mask[5, 9, 3]

    def test_band_width_controls_volume(self):
        narrow = dense_mask(band_tube(20, 20, 20, 2)).sum()
        wide = dense_mask(band_tube(20, 20, 20, 8)).sum()
        assert narrow < wide

    def test_full_coverage_at_large_band(self):
        assert dense_mask(band_tube(10, 12, 8, 30)).all()

    def test_diagonal_inside(self):
        mask = dense_mask(band_tube(10, 20, 10, 2))
        for i in range(11):
            assert mask[i, 2 * i, i], i

    def test_degenerate_first_axis(self):
        mask = dense_mask(band_tube(0, 6, 6, 2))
        assert mask[0, 0, 0] and mask[0, 6, 6]
        assert mask[0, 3, 3]
        assert not mask[0, 0, 6]

    def test_all_empty(self):
        assert dense_mask(band_tube(0, 0, 0, 3)).shape == (1, 1, 1)

    def test_band_validated(self):
        with pytest.raises(ValueError):
            band_tube(5, 5, 5, 0)


class TestCertifiedOptimality:
    def test_small_battery(self, small_triples, dna_scheme):
        for triple in small_triples:
            aln = align3_banded(*triple, dna_scheme)
            assert aln.score == pytest.approx(
                score3_dp3d(*triple, dna_scheme)
            ), triple
            assert aln.meta["band_certified"]
            assert aln.sequences() == tuple(triple)

    def test_related_family_narrow_band_suffices(self, dna_scheme):
        fam = mutated_family(
            60, model=MutationModel(0.05, 0.01, 0.01), seed=13
        )
        aln = align3_banded(*fam, dna_scheme, band=6)
        from repro.core.wavefront import score3_wavefront

        assert aln.score == pytest.approx(score3_wavefront(*fam, dna_scheme))
        assert aln.meta["band_certified"]
        # The point of banding: far fewer cells than the cube.
        assert aln.meta["cells"] < 0.5 * np.prod(
            [len(s) + 1 for s in fam]
        )

    def test_diverged_family_forces_widening(self, dna_scheme):
        fam = mutated_family(
            30, model=MutationModel(0.5, 0.15, 0.15), seed=14
        )
        aln = align3_banded(*fam, dna_scheme, band=1)
        assert aln.score == pytest.approx(score3_dp3d(*fam, dna_scheme))
        assert aln.meta["band_certified"]

    def test_uneven_lengths_thin_band_recovers(self, dna_scheme):
        # Default band would cover; force a disconnecting band and verify
        # the widening loop recovers.
        sa, sb, sc = "AC", "ACGTACGTACGTACGTACGT", "ACG"
        aln = align3_banded(sa, sb, sc, dna_scheme, band=1)
        assert aln.score == pytest.approx(score3_dp3d(sa, sb, sc, dna_scheme))

    def test_widen_and_retry_path_is_exercised(self, dna_scheme):
        # Same uneven-lengths family, but assert the retry loop itself:
        # the band must actually widen (not just happen to certify at the
        # requested width) and the widened run must certify optimal.
        sa, sb, sc = "AC", "ACGTACGTACGTACGTACGT", "ACG"
        aln = align3_banded(sa, sb, sc, dna_scheme, band=1)
        assert aln.meta["band_iterations"] > 1
        assert aln.meta["band"] > 1
        assert aln.meta["band_certified"]
        assert aln.score == pytest.approx(score3_dp3d(sa, sb, sc, dna_scheme))

    def test_score_helper(self, dna_scheme, family_small):
        assert score3_banded(*family_small, dna_scheme) == pytest.approx(
            score3_dp3d(*family_small, dna_scheme)
        )

    def test_affine_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="linear"):
            align3_banded("A", "A", "A", dna_scheme.with_gaps(-1, -1))


class TestUncertified:
    def test_certify_false_returns_band_local_optimum(self, dna_scheme):
        fam = mutated_family(25, seed=15)
        loose = align3_banded(*fam, dna_scheme, band=3, certify=False)
        exact = score3_dp3d(*fam, dna_scheme)
        assert loose.score <= exact + 1e-9
        assert loose.meta["band_iterations"] == 1

    def test_meta_fields(self, dna_scheme, family_small):
        aln = align3_banded(*family_small, dna_scheme)
        assert aln.meta["engine"] == "banded"
        assert aln.meta["band"] >= 1
        assert aln.meta["band_iterations"] >= 1
