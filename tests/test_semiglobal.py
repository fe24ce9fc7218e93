"""Unit tests for semi-global (overlap) alignment (repro.core.semiglobal)."""

import numpy as np
import pytest

from repro.core.dp3d import score3_dp3d
from repro.core.local import score3_local
from repro.core.semiglobal import align3_semiglobal, score3_semiglobal
from repro.seqio.generate import random_sequence
from tests.reference.modes import best_end_cell, semiglobal_dp3d_matrix


class TestEnginesAgree:
    def test_small_battery(self, small_triples, dna_scheme):
        for triple in small_triples:
            D, _ = semiglobal_dp3d_matrix(*triple, dna_scheme)
            ref, _cell = best_end_cell(D, "semiglobal")
            got = score3_semiglobal(*triple, dna_scheme)
            assert got == pytest.approx(ref), triple

    def test_random_medium(self, dna_scheme):
        rng = np.random.default_rng(11)
        for trial in range(5):
            seqs = [
                random_sequence(int(n), seed=900 + trial * 3 + t)
                for t, n in enumerate(rng.integers(4, 18, size=3))
            ]
            D, _ = semiglobal_dp3d_matrix(*seqs, dna_scheme)
            ref, _ = best_end_cell(D, "semiglobal")
            assert score3_semiglobal(*seqs, dna_scheme) == pytest.approx(ref)


class TestSemantics:
    def test_bracketed_by_global_and_local(self, dna_scheme, family_small):
        g = score3_dp3d(*family_small, dna_scheme)
        sg = score3_semiglobal(*family_small, dna_scheme)
        loc = score3_local(*family_small, dna_scheme)
        # Free ends can only help over global; local can only help over
        # semiglobal (it may also drop interior prefix/suffix columns).
        assert g - 1e-9 <= sg <= loc + 1e-9

    def test_staggered_fragments(self, dna_scheme):
        # Three overlapping windows of one source: overlap mode should
        # recover the shared core without paying for the staggered ends.
        src = "GATTACAGATTACAGGATCC"
        sa, sb, sc = src[:14], src[3:17], src[6:]
        sg = score3_semiglobal(sa, sb, sc, dna_scheme)
        g = score3_dp3d(sa, sb, sc, dna_scheme)
        assert sg > g

    def test_identical_inputs_equal_global(self, dna_scheme):
        s = "ACGTACGT"
        assert score3_semiglobal(s, s, s, dna_scheme) == pytest.approx(
            score3_dp3d(s, s, s, dna_scheme)
        )

    def test_empty_input_scores_zero(self, dna_scheme):
        assert score3_semiglobal("ACGT", "", "GG", dna_scheme) == 0.0

    def test_affine_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="linear"):
            score3_semiglobal("A", "A", "A", dna_scheme.with_gaps(-1, -1))


class TestAlignment:
    def test_full_sequences_recovered(self, dna_scheme, family_small):
        aln = align3_semiglobal(*family_small, dna_scheme)
        assert aln.sequences() == tuple(family_small)

    def test_core_region_scores_reported_value(self, dna_scheme):
        src = "GATTACAGATTACAGGATCC"
        sa, sb, sc = src[:14], src[3:17], src[6:]
        aln = align3_semiglobal(sa, sb, sc, dna_scheme)
        lo, hi = aln.meta["core"]
        core_rows = tuple(r[lo:hi] for r in aln.rows)
        assert dna_scheme.sp_score(core_rows) == pytest.approx(aln.score)

    def test_end_gaps_surround_core(self, dna_scheme):
        src = "GATTACAGATTACAGGATCC"
        sa, sb, sc = src[:14], src[3:17], src[6:]
        aln = align3_semiglobal(sa, sb, sc, dna_scheme)
        lo, hi = aln.meta["core"]
        for col in list(zip(*aln.rows))[:lo]:
            assert sum(1 for ch in col if ch != "-") == 1
        for col in list(zip(*aln.rows))[hi:]:
            assert sum(1 for ch in col if ch != "-") == 1

    def test_all_empty(self, dna_scheme):
        aln = align3_semiglobal("", "", "", dna_scheme)
        assert aln.rows == ("", "", "")
        assert aln.score == 0.0
