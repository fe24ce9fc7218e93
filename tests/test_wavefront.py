"""Unit tests for the vectorised wavefront engine (repro.core.wavefront)."""

import numpy as np
import pytest

from repro.core.dp3d import dp3d_matrix, score3_dp3d
from repro.core.tube import PruningTube
from repro.core.wavefront import (
    align3_wavefront,
    plane_bounds,
    score3_wavefront,
    wavefront_sweep,
)
from tests.reference.bounds import full_tube, random_tube, tube_from_mask


class TestPlaneBounds:
    def test_origin_plane(self):
        assert plane_bounds(0, 5, 5, 5) == (0, 0, 0, 0)

    def test_terminal_plane(self):
        assert plane_bounds(15, 5, 5, 5) == (5, 5, 5, 5)

    def test_middle_plane_full(self):
        ilo, ihi, jlo, jhi = plane_bounds(7, 5, 5, 5)
        assert (ilo, ihi) == (0, 5)
        assert (jlo, jhi) == (0, 5)

    def test_out_of_range_plane_empty(self):
        ilo, ihi, _, _ = plane_bounds(16, 5, 5, 5)
        assert ilo > ihi

    def test_asymmetric(self):
        # d=9 on a (2, 3, 5) problem: i >= 9-3-5 = 1.
        assert plane_bounds(9, 2, 3, 5)[0] == 1

    def test_bounds_cover_exactly_the_valid_cells(self):
        n1, n2, n3 = 3, 4, 2
        seen = set()
        for d in range(n1 + n2 + n3 + 1):
            ilo, ihi, jlo, jhi = plane_bounds(d, n1, n2, n3)
            for i in range(ilo, ihi + 1):
                for j in range(jlo, jhi + 1):
                    k = d - i - j
                    if 0 <= k <= n3:
                        seen.add((i, j, k))
        assert len(seen) == (n1 + 1) * (n2 + 1) * (n3 + 1)


class TestAgainstReference:
    def test_small_battery(self, small_triples, dna_scheme):
        for triple in small_triples:
            assert score3_wavefront(*triple, dna_scheme) == pytest.approx(
                score3_dp3d(*triple, dna_scheme)
            ), triple

    def test_medium_family(self, family_medium, dna_scheme):
        assert score3_wavefront(*family_medium, dna_scheme) == pytest.approx(
            score3_dp3d(*family_medium, dna_scheme)
        )

    def test_protein(self, protein_scheme):
        from repro.seqio.datasets import bundled_sequences

        seqs = [s[:25] for s in bundled_sequences("globins")]
        assert score3_wavefront(*seqs, protein_scheme) == pytest.approx(
            score3_dp3d(*seqs, protein_scheme)
        )

    def test_move_cube_matches_reference(self, dna_scheme):
        # Both engines visit moves 1..7 and keep the first of equals, so
        # the move cubes agree cell-by-cell, ties included.
        sa, sb, sc = "GAT", "GTT", "AT"
        D_ref, M_ref = dp3d_matrix(sa, sb, sc, dna_scheme)
        res = wavefront_sweep(sa, sb, sc, dna_scheme)
        assert np.array_equal(res.move_cube, M_ref)
        # Rebuild the value cube from one score-only sweep that captures
        # every i level.
        caps = wavefront_sweep(
            sa,
            sb,
            sc,
            dna_scheme,
            score_only=True,
            capture_levels=range(len(sa) + 1),
        ).captured_slab
        for level in range(len(sa) + 1):
            np.testing.assert_allclose(caps[level], D_ref[level], atol=1e-9)
        assert res.score == pytest.approx(D_ref[len(sa), len(sb), len(sc)])


class TestSweepOptions:
    def test_score_only_drops_move_cube(self, dna_scheme):
        res = wavefront_sweep("AC", "AG", "AT", dna_scheme, score_only=True)
        assert res.move_cube is None

    def test_cells_computed_counts_lattice(self, dna_scheme):
        res = wavefront_sweep("ACG", "AC", "A", dna_scheme)
        assert res.cells_computed == 4 * 3 * 2

    def test_planes_swept(self, dna_scheme):
        res = wavefront_sweep("ACG", "AC", "A", dna_scheme)
        assert res.planes_swept == 3 + 2 + 1 + 1

    def test_capture_level_validated(self, dna_scheme):
        with pytest.raises(ValueError, match="capture level"):
            wavefront_sweep("AC", "A", "A", dna_scheme, capture_levels=(5,))

    def test_affine_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="linear"):
            wavefront_sweep(
                "A", "A", "A", dna_scheme.with_gaps(gap=-1, gap_open=-2)
            )

    def test_tube_shape_validated(self, dna_scheme):
        with pytest.raises(ValueError, match="tube shape"):
            wavefront_sweep(
                "AC", "A", "A", dna_scheme, tube=full_tube((1, 1, 1))
            )


class TestAlignment:
    def test_score_equals_recomputed_sp(self, dna_scheme, small_triples):
        for triple in small_triples:
            aln = align3_wavefront(*triple, dna_scheme)
            assert dna_scheme.sp_score(aln.rows) == pytest.approx(aln.score)
            assert aln.sequences() == tuple(triple)

    def test_engine_meta(self, dna_scheme):
        aln = align3_wavefront("AC", "AG", "AT", dna_scheme)
        assert aln.meta["engine"] == "wavefront"

    def test_empty(self, dna_scheme):
        aln = align3_wavefront("", "", "", dna_scheme)
        assert aln.rows == ("", "", "")

    def test_one_empty_sequence(self, dna_scheme):
        aln = align3_wavefront("ACGT", "AGT", "", dna_scheme)
        assert aln.sequences() == ("ACGT", "AGT", "")

    def test_pruned_unreachable_raises(self, dna_scheme):
        tube = PruningTube(
            klo=np.zeros((3, 3), dtype=np.intp),
            khi=np.full((3, 3), -1, dtype=np.intp),
            n3=2,
        )
        tube.keep_cell(0, 0, 0)
        tube.keep_cell(2, 2, 2)
        with pytest.raises(RuntimeError, match="unreachable"):
            align3_wavefront("AC", "AG", "AT", dna_scheme, tube=tube)


class TestMaskedSweep:
    """Sweeps restricted to a keep-region, given as a tube."""

    def test_full_true_mask_is_identity(self, dna_scheme, family_small):
        dims = tuple(len(s) for s in family_small)
        tube = full_tube(dims)
        assert score3_wavefront(*family_small, dna_scheme, tube=tube) == (
            score3_wavefront(*family_small, dna_scheme)
        )

    def test_mask_restricted_to_optimal_path_still_finds_it(
        self, dna_scheme, family_small
    ):
        from repro.core.traceback import path_cells

        aln = align3_wavefront(*family_small, dna_scheme)
        n1, n2, n3 = (len(s) for s in family_small)
        mask = np.zeros((n1 + 1, n2 + 1, n3 + 1), dtype=bool)
        for cell in path_cells(aln.moves()):
            mask[cell] = True
        # A path's cells at one (i, j) are consecutive in k, so the
        # interval hull is exactly the path.
        tube = tube_from_mask(mask)
        assert tube.kept_cells == int(mask.sum())
        pruned = align3_wavefront(*family_small, dna_scheme, tube=tube)
        assert (pruned.rows, pruned.score) == (aln.rows, aln.score)

    def test_random_masks_never_beat_optimum(self, dna_scheme):
        rng = np.random.default_rng(0)
        sa, sb, sc = "GATTA", "GTA", "GATA"
        full = score3_wavefront(sa, sb, sc, dna_scheme)
        for _ in range(10):
            tube = random_tube(rng, (5, 3, 4))
            got = score3_wavefront(sa, sb, sc, dna_scheme, tube=tube)
            assert got <= full
