"""Tests for the O(n^2) pruning tube and the fused pruned sweep.

Covers the :class:`~repro.core.tube.PruningTube` representation itself,
the Carrillo–Lipman tube builder, the banded lower bound it defaults
to, bit-identity of the tube-pruned wavefront against the unpruned
engines across the divergence spectrum (including the adversarial
nothing-prunes regime), and the memory planner's pruned-path footprint.
"""

import numpy as np
import pytest

from repro.core.bounds import banded_lower_bound, carrillo_lipman_tube
from repro.core.dp3d import score3_dp3d
from repro.core.tube import PruningTube
from repro.core.wavefront import (
    align3_wavefront,
    score3_wavefront,
    wavefront_sweep,
)
from repro.seqio.generate import MutationModel, mutated_family
from tests.reference.bounds import (
    carrillo_lipman_mask,
    dense_mask,
    full_tube,
    tube_from_mask,
)


class TestPruningTube:
    def test_canonicalises_empty_rows(self):
        tube = PruningTube(
            klo=np.array([[3, 5]]), khi=np.array([[1, 9]]), n3=6
        )
        assert tube.klo[0, 0] == 0 and tube.khi[0, 0] == -1  # empty
        assert tube.klo[0, 1] == 5 and tube.khi[0, 1] == 6  # clipped to n3
        assert tube.kept_cells == 2

    def test_full_covers_cube(self):
        tube = full_tube((3, 4, 5))
        assert tube.covers_cube
        assert tube.kept_cells == tube.total_cells == 4 * 5 * 6

    def test_from_mask_is_interval_hull(self):
        mask = np.zeros((1, 1, 7), dtype=bool)
        mask[0, 0, [1, 5]] = True  # kept set with a hole
        tube = tube_from_mask(mask)
        assert tube.klo[0, 0] == 1 and tube.khi[0, 0] == 5
        # The hull keeps a superset of the mask's cells.
        assert dense_mask(tube)[mask].all()

    def test_keep_cell_grows_interval(self):
        tube = PruningTube(
            klo=np.zeros((2, 2), dtype=np.intp),
            khi=np.full((2, 2), -1, dtype=np.intp),
            n3=4,
        )
        assert not tube.contains(1, 1, 2)
        tube.keep_cell(1, 1, 2)
        assert tube.contains(1, 1, 2)
        tube.keep_cell(1, 1, 0)
        assert tube.contains(1, 1, 1)  # hull, not set

    def test_nbytes_is_quadratic_not_cubic(self):
        n = 64
        tube = full_tube((n, n, n))
        assert tube.nbytes < (n + 1) ** 3  # dense bool cube size

    def test_plane_row_windows_cover_live_rows(self):
        rng = np.random.default_rng(7)
        n1, n2, n3 = 9, 7, 8
        mask = rng.random((n1 + 1, n2 + 1, n3 + 1)) < 0.1
        tube = tube_from_mask(mask)
        rlo, rhi = tube.plane_row_windows()
        assert len(rlo) == n1 + n2 + n3 + 1
        dense = dense_mask(tube)
        ii, jj, kk = np.nonzero(dense)
        for i, j, k in zip(ii, jj, kk):
            d = i + j + k
            assert rlo[d] <= i <= rhi[d]

    def test_plane_row_windows_empty_tube(self):
        tube = PruningTube(
            klo=np.zeros((3, 3), dtype=np.intp),
            khi=np.full((3, 3), -1, dtype=np.intp),
            n3=2,
        )
        rlo, rhi = tube.plane_row_windows()
        assert (rlo > rhi).all()


class TestBandedLowerBound:
    def test_is_valid_lower_bound(self, dna_scheme, small_triples):
        for seqs in small_triples:
            lb = banded_lower_bound(*seqs, dna_scheme)
            assert lb <= score3_dp3d(*seqs, dna_scheme) + 1e-9

    def test_tight_on_similar_triples(self, dna_scheme):
        seqs = mutated_family(40, model=MutationModel(0.02, 0.005, 0.005), seed=5)
        assert banded_lower_bound(*seqs, dna_scheme) == pytest.approx(
            score3_dp3d(*seqs, dna_scheme)
        )

    def test_widens_band_until_connected(self, dna_scheme):
        # Very uneven lengths: band=1 cannot reach the far corner.
        lb = banded_lower_bound("ACGTACGTACGT", "AC", "A", dna_scheme, band=1)
        assert lb <= score3_dp3d("ACGTACGTACGT", "AC", "A", dna_scheme) + 1e-9


class TestTubeBitIdentity:
    @pytest.mark.parametrize("sub", [0.02, 0.1, 0.3, 0.6])
    def test_scores_match_across_divergence(self, dna_scheme, sub):
        seqs = mutated_family(
            28, model=MutationModel(sub, sub / 4, sub / 4), seed=int(sub * 100)
        )
        tube, stats = carrillo_lipman_tube(*seqs, dna_scheme)
        assert score3_wavefront(*seqs, dna_scheme, tube=tube) == score3_dp3d(
            *seqs, dna_scheme
        )
        assert 0 < stats.kept_fraction <= 1

    def test_adversarial_nothing_prunes(self, dna_scheme):
        # Unrelated sequences with a hopeless explicit lower bound: the
        # tube keeps (essentially) everything and must still be exact.
        seqs = ("GGGGCCCC", "TTTTAAAA", "CATGCATG")
        tube, stats = carrillo_lipman_tube(
            *seqs, dna_scheme, lower_bound=-1e6
        )
        assert stats.kept_fraction == pytest.approx(1.0)
        assert score3_wavefront(*seqs, dna_scheme, tube=tube) == score3_dp3d(
            *seqs, dna_scheme
        )

    def test_slack_keeps_more_and_stays_exact(self, dna_scheme, family_small):
        # Slack is a lower bound taken below the tight one.
        tight, s0 = carrillo_lipman_tube(*family_small, dna_scheme)
        loose, s1 = carrillo_lipman_tube(
            *family_small, dna_scheme, lower_bound=s0.lower_bound - 20.0
        )
        assert s1.kept_cells >= s0.kept_cells
        opt = score3_dp3d(*family_small, dna_scheme)
        assert score3_wavefront(*family_small, dna_scheme, tube=loose) == opt

    def test_degenerate_sequences(self, dna_scheme, small_triples):
        for seqs in small_triples:
            tube, _ = carrillo_lipman_tube(*seqs, dna_scheme)
            assert score3_wavefront(*seqs, dna_scheme, tube=tube) == (
                score3_dp3d(*seqs, dna_scheme)
            )

    def test_rows_match_wavefront(self, dna_scheme, family_medium):
        tube, _ = carrillo_lipman_tube(*family_medium, dna_scheme)
        pruned = align3_wavefront(*family_medium, dna_scheme, tube=tube)
        plain = align3_wavefront(*family_medium, dna_scheme)
        assert pruned.rows == plain.rows
        assert pruned.score == plain.score

    def test_tube_keeps_superset_of_mask(self, dna_scheme, family_small):
        mask, _ = carrillo_lipman_mask(*family_small, dna_scheme)
        tube, _ = carrillo_lipman_tube(
            *family_small,
            dna_scheme,
            lower_bound=banded_lower_bound(*family_small, dna_scheme),
        )
        assert dense_mask(tube)[mask].all()

    def test_cells_computed_matches_kept(self, dna_scheme, family_medium):
        tube, stats = carrillo_lipman_tube(*family_medium, dna_scheme)
        res = wavefront_sweep(
            *family_medium, dna_scheme, tube=tube, score_only=True
        )
        assert res.cells_computed == stats.kept_cells


class TestAlign3PrunedPath:
    def test_end_to_end_matches_wavefront(self, dna_scheme, family_medium):
        from repro.core.api import align3

        pruned = align3(*family_medium, dna_scheme, method="pruned")
        plain = align3(*family_medium, dna_scheme, method="wavefront")
        assert pruned.rows == plain.rows
        assert pruned.score == plain.score
        meta = pruned.meta["pruning"]
        assert 0 < meta["kept_fraction"] <= 1
        assert meta["lower_bound"] <= pruned.score + 1e-9
        # The keep-region really is quadratic, not a dense bool cube.
        n1, n2, n3 = (len(s) for s in family_medium)
        assert meta["tube_bytes"] < (n1 + 1) * (n2 + 1) * (n3 + 1)

    def test_pruned_cache_round_trip(self, dna_scheme, family_medium, tmp_path):
        from repro.cache import ResultCache, comparable_meta
        from repro.core.api import align3

        cache = ResultCache(cache_dir=tmp_path)
        cold = align3(*family_medium, dna_scheme, method="pruned", cache=cache)
        hit = align3(*family_medium, dna_scheme, method="pruned", cache=cache)
        assert hit.meta["cache"]["hit"] is True
        assert hit.rows == cold.rows and hit.score == cold.score
        assert comparable_meta(hit.meta) == comparable_meta(cold.meta)


class TestDegradeFootprint:
    def test_pruned_estimate_has_no_dense_mask_term(self):
        from repro.resilience.degrade import estimate_bytes

        dims = (400, 400, 400)
        cube = 401 ** 3
        score_only = estimate_bytes("pruned", dims, score_only=True)
        # Score-only pruned runs need only planes + tube + through
        # matrices — far below even one byte per cube cell.
        assert score_only < cube
        # With traceback the dense move cube is still the only cubic term.
        full = estimate_bytes("pruned", dims, score_only=False)
        assert full - score_only == cube

    def test_pruned_fits_where_dense_mask_would_not(self):
        from repro.resilience.degrade import estimate_bytes

        dims = (300, 300, 300)
        cube = 301 ** 3
        # Old (buggy) model: planes + dense bool mask + move cube.
        assert estimate_bytes("pruned", dims) < cube * 2
