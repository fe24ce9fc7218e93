"""Unit tests for Carrillo–Lipman pruning (repro.core.bounds).

``TestMask`` checks the dense mask oracle (``tests/reference/bounds.py``)
that the production tube is held to: every optimal path survives it.
"""

import pytest

from repro.core.bounds import carrillo_lipman_tube, pairwise_upper_bound
from repro.core.dp3d import score3_dp3d
from repro.core.traceback import path_cells
from repro.core.wavefront import align3_wavefront
from repro.seqio.generate import MutationModel, mutated_family
from tests.reference.bounds import carrillo_lipman_mask, heuristic_lower_bound
from tests.reference.kernel import sweep_ref


def _masked_score(seqs, scheme, mask) -> float:
    """Optimal score over the cells of ``mask`` (reference masked sweep)."""
    planes, _, _ = sweep_ref(seqs, scheme, mask=mask, score_only=True)
    return float(planes[-1][len(seqs[0]) + 1, len(seqs[1]) + 1])


class TestBoundsSandwich:
    def test_lower_and_upper_bracket_optimum(self, dna_scheme, family_small):
        opt = score3_dp3d(*family_small, dna_scheme)
        lo = heuristic_lower_bound(*family_small, dna_scheme)
        hi = pairwise_upper_bound(*family_small, dna_scheme)
        assert lo <= opt + 1e-9
        assert opt <= hi + 1e-9

    def test_upper_bound_tight_for_identical(self, dna_scheme):
        seqs = ("ACGT", "ACGT", "ACGT")
        assert pairwise_upper_bound(*seqs, dna_scheme) == pytest.approx(
            score3_dp3d(*seqs, dna_scheme)
        )


class TestMask:
    def test_optimum_survives(self, dna_scheme, small_triples):
        for triple in small_triples:
            mask, _ = carrillo_lipman_mask(*triple, dna_scheme)
            full = score3_dp3d(*triple, dna_scheme)
            pruned = _masked_score(triple, dna_scheme, mask)
            assert pruned == pytest.approx(full), triple

    def test_optimal_path_cells_all_kept(self, dna_scheme, family_small):
        aln = align3_wavefront(*family_small, dna_scheme)
        mask, _ = carrillo_lipman_mask(*family_small, dna_scheme)
        for cell in path_cells(aln.moves()):
            assert mask[cell], cell

    def test_origin_terminal_always_kept(self, dna_scheme):
        mask, _ = carrillo_lipman_mask("GAT", "GT", "AT", dna_scheme)
        assert mask[0, 0, 0] and mask[3, 2, 2]

    def test_explicit_lower_bound_used(self, dna_scheme, family_small):
        # An absurdly low bound keeps everything.
        mask, stats = carrillo_lipman_mask(
            *family_small, dna_scheme, lower_bound=-1e9
        )
        assert stats.kept_fraction == 1.0
        # The optimum itself is the tightest valid bound.
        opt = score3_dp3d(*family_small, dna_scheme)
        mask2, stats2 = carrillo_lipman_mask(
            *family_small, dna_scheme, lower_bound=opt
        )
        assert stats2.kept_cells <= stats.kept_cells
        pruned = _masked_score(family_small, dna_scheme, mask2)
        assert pruned == pytest.approx(opt)

    def test_slack_keeps_more_cells(self, dna_scheme, family_small):
        _, tight = carrillo_lipman_mask(*family_small, dna_scheme)
        _, loose = carrillo_lipman_mask(*family_small, dna_scheme, slack=50.0)
        assert loose.kept_cells >= tight.kept_cells

    def test_negative_slack_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="slack"):
            carrillo_lipman_mask("A", "A", "A", dna_scheme, slack=-1)

    def test_affine_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="linear"):
            carrillo_lipman_mask(
                "A", "A", "A", dna_scheme.with_gaps(gap=-1, gap_open=-1)
            )


class TestPruningEffectiveness:
    def test_similar_sequences_prune_more(self, dna_scheme):
        similar = mutated_family(
            40, model=MutationModel(0.02, 0.005, 0.005), seed=5
        )
        diverged = mutated_family(
            40, model=MutationModel(0.4, 0.1, 0.1), seed=5
        )
        _, s_stats = carrillo_lipman_mask(*similar, dna_scheme)
        _, d_stats = carrillo_lipman_mask(*diverged, dna_scheme)
        assert s_stats.kept_fraction < d_stats.kept_fraction

    def test_stats_fields(self, dna_scheme, family_small):
        mask, stats = carrillo_lipman_mask(*family_small, dna_scheme)
        assert stats.total_cells == mask.size
        assert stats.kept_cells == int(mask.sum())
        assert 0 < stats.kept_fraction <= 1
        assert stats.pruned_fraction == pytest.approx(1 - stats.kept_fraction)

    def test_pruned_cells_actually_skipped(self, dna_scheme, family_small):
        from repro.core.wavefront import wavefront_sweep

        tube, stats = carrillo_lipman_tube(*family_small, dna_scheme)
        assert stats.kept_cells < stats.total_cells
        res = wavefront_sweep(
            *family_small, dna_scheme, score_only=True, tube=tube
        )
        assert res.cells_computed == stats.kept_cells
