"""Unit tests for local three-sequence alignment (repro.core.local)."""

import numpy as np
import pytest

from repro.core.dp3d import score3_dp3d
from repro.core.local import align3_local, score3_local
from repro.core.wavefront import wavefront_sweep
from repro.seqio.generate import random_sequence
from tests.reference.modes import local_dp3d_matrix


class TestEnginesAgree:
    def test_small_battery(self, small_triples, dna_scheme):
        for triple in small_triples:
            D, _ = local_dp3d_matrix(*triple, dna_scheme)
            ref = float(D.max())
            got = score3_local(*triple, dna_scheme)
            assert got == pytest.approx(ref), triple

    def test_random_medium(self, dna_scheme):
        rng = np.random.default_rng(7)
        for trial in range(5):
            seqs = [
                random_sequence(int(n), seed=800 + trial * 3 + t)
                for t, n in enumerate(rng.integers(5, 20, size=3))
            ]
            D, _ = local_dp3d_matrix(*seqs, dna_scheme)
            assert score3_local(*seqs, dna_scheme) == pytest.approx(
                float(D.max())
            )


class TestInvariants:
    def test_nonnegative(self, dna_scheme, small_triples):
        for triple in small_triples:
            assert score3_local(*triple, dna_scheme) >= 0

    def test_dominates_global(self, dna_scheme, family_small):
        local = score3_local(*family_small, dna_scheme)
        global_ = score3_dp3d(*family_small, dna_scheme)
        assert local >= global_ - 1e-9

    def test_identical_sequences_full_match(self, dna_scheme):
        s = "ACGTACGT"
        assert score3_local(s, s, s, dna_scheme) == pytest.approx(
            sum(3 * dna_scheme.pair_score(c, c) for c in s)
        )

    def test_disjoint_sequences_zero_or_small(self, dna_scheme):
        # All-mismatching single characters: best local alignment may take
        # one column (3 * mismatch < 0) or nothing; must be 0.
        assert score3_local("A", "C", "G", dna_scheme) == 0.0

    def test_embedded_motif_found(self, dna_scheme):
        motif = "GATTACCA"
        sa = "TTTT" + motif + "CCCC"
        sb = "AAGG" + motif + "TT"
        sc = motif + "GGGGGG"
        aln = align3_local(sa, sb, sc, dna_scheme)
        assert aln.rows[0] == motif
        assert aln.rows[1] == motif
        assert aln.rows[2] == motif
        spans = aln.meta["spans"]
        assert spans[0] == (4, 4 + len(motif))
        assert spans[2] == (0, len(motif))

    def test_affine_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="linear"):
            score3_local("A", "A", "A", dna_scheme.with_gaps(-1, -1))


class TestAlignment:
    def test_rows_are_substrings(self, dna_scheme, family_small):
        aln = align3_local(*family_small, dna_scheme)
        for row, seq, span in zip(
            aln.rows, family_small, aln.meta["spans"]
        ):
            assert row.replace("-", "") == seq[span[0] : span[1]]

    def test_score_matches_sp_of_rows(self, dna_scheme, family_small):
        aln = align3_local(*family_small, dna_scheme)
        assert dna_scheme.sp_score(aln.rows) == pytest.approx(aln.score)

    def test_empty_alignment_when_everything_negative(self, dna_scheme):
        aln = align3_local("A", "C", "G", dna_scheme)
        assert aln.rows == ("", "", "")
        assert aln.score == 0.0

    def test_score_only_sweep(self, dna_scheme, family_small):
        res = wavefront_sweep(
            *family_small, dna_scheme, score_only=True, mode="local"
        )
        assert res.move_cube is None
        assert res.score == pytest.approx(score3_local(*family_small, dna_scheme))

    def test_end_cell_consistent(self, dna_scheme, family_small):
        res = wavefront_sweep(*family_small, dna_scheme, mode="local")
        D, _ = local_dp3d_matrix(*family_small, dna_scheme)
        assert D[res.end_cell] == pytest.approx(res.score)
