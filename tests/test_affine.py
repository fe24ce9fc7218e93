"""Unit tests for the 7-state affine engine (repro.core.affine)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.affine import (
    affine_sweep,
    align3_affine,
    score3_affine,
)
from repro.core.dp3d import score3_dp3d
from repro.core.scoring import default_scheme_for
from repro.seqio.alphabet import DNA, PROTEIN
from repro.seqio.generate import random_sequence
from tests.reference.affine import (
    affine_reference,
    affine_rows_ref,
    affine_sweep_ref,
)

SCHEMES = {
    "dna": default_scheme_for(DNA),
    "protein": default_scheme_for(PROTEIN),
}
LETTERS = {"dna": "ACGT", "protein": "ACDEFGHIKLMNPQRSTVWY"}
#: Gap scores off the integers, so float rounding differs from one
#: addition order to another.
penalty = st.floats(min_value=-12.0, max_value=-0.05).filter(
    lambda x: not x.is_integer()
)


@st.composite
def affine_cases(draw):
    """``(alphabet, triple, gap, gap_open)``: 0-12 residues each."""
    alphabet = draw(st.sampled_from(sorted(SCHEMES)))
    seq = st.text(alphabet=LETTERS[alphabet], min_size=0, max_size=12)
    triple = draw(st.tuples(seq, seq, seq))
    return alphabet, triple, draw(penalty), draw(penalty)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@settings(deadline=None, max_examples=80)
@given(case=affine_cases())
@example(case=("dna", ("", "", ""), -1.7, -0.7))
@example(case=("dna", ("ACG", "AG", ""), -2.3, -8.1))
@example(case=("protein", ("W", "", "WC"), -0.3, -11.3))
@example(case=("dna", ("", "GATTACA", ""), -6.5, -3.2))
def test_sweep_matches_frozen_reference(case):
    """The tournament kernel reproduces the original allocating sweep bit
    for bit: scores, final states and every stored predecessor, traceback
    and score-only alike; the rows follow, and rescore to the score."""
    alphabet, seqs, gap, gap_open = case
    scheme = SCHEMES[alphabet].with_gaps(gap=gap, gap_open=gap_open)
    for score_only in (False, True):
        ref = affine_sweep_ref(*seqs, scheme, score_only=score_only)
        got = affine_sweep(*seqs, scheme, score_only=score_only)
        assert _bits(got.score) == _bits(ref.score)
        assert _bits(got.final_states) == _bits(ref.final_states)
        assert got.cells_computed == ref.cells_computed
        if score_only:
            assert got.prev_state is None
        else:
            assert not ref.prev_state[0].any()  # slab 0 is never written
            assert np.array_equal(got.prev_state, ref.prev_state[1:])
            rows = affine_rows_ref(ref, *seqs)
    aln = align3_affine(*seqs, scheme)
    assert aln.rows == rows
    assert _bits(aln.score) == _bits(ref.score)
    # The DP and the rescorer add the same terms in different orders.
    assert scheme.sp_score_affine_quasinatural(aln.rows) == pytest.approx(
        aln.score, rel=1e-12, abs=1e-9
    )


class TestAgainstScalarReference:
    def test_small_battery(self, small_triples, affine_dna_scheme):
        for triple in small_triples:
            if sum(len(s) for s in triple) > 18:
                continue  # scalar reference is slow
            expected = affine_reference(*triple, affine_dna_scheme)
            got = score3_affine(*triple, affine_dna_scheme)
            assert got == pytest.approx(expected), triple

    def test_random_extra(self, affine_dna_scheme):
        rng = np.random.default_rng(42)
        for trial in range(6):
            lens = rng.integers(0, 6, size=3)
            seqs = [
                random_sequence(int(n), seed=500 + 3 * trial + t)
                for t, n in enumerate(lens)
            ]
            assert score3_affine(*seqs, affine_dna_scheme) == pytest.approx(
                affine_reference(*seqs, affine_dna_scheme)
            ), seqs


class TestDegenerateToLinear:
    def test_zero_open_equals_linear_model(self, dna_scheme, family_small):
        zero_open = dna_scheme.with_gaps(gap=dna_scheme.gap, gap_open=0.0)
        got = score3_affine(*family_small, zero_open)
        expected = score3_dp3d(*family_small, dna_scheme)
        assert got == pytest.approx(expected)


class TestAlignment:
    def test_traceback_score_consistent(self, affine_dna_scheme, small_triples):
        for triple in small_triples:
            aln = align3_affine(*triple, affine_dna_scheme)
            recomputed = affine_dna_scheme.sp_score_affine_quasinatural(aln.rows)
            assert recomputed == pytest.approx(aln.score), triple
            assert aln.sequences() == tuple(triple)

    def test_alignment_is_optimal(self, affine_dna_scheme, family_small):
        aln = align3_affine(*family_small, affine_dna_scheme)
        assert aln.score == pytest.approx(
            score3_affine(*family_small, affine_dna_scheme)
        )

    def test_meta(self, affine_dna_scheme):
        aln = align3_affine("ACG", "AG", "AC", affine_dna_scheme)
        assert aln.meta["engine"] == "affine"
        assert aln.meta["states"] == 8
        # One int8 predecessor slab per move.
        assert aln.meta["move_store_bytes"] == 7 * 4 * 3 * 3

    def test_empty_inputs(self, affine_dna_scheme):
        aln = align3_affine("", "", "", affine_dna_scheme)
        assert aln.rows == ("", "", "")
        assert aln.score == 0.0

    def test_gap_open_discourages_scattered_gaps(self, dna_scheme):
        # With a harsh opening penalty the aligner should prefer one long
        # run over many short ones; compare against a mild-open scheme.
        sa = "AAAACCCCAAAA"
        sb = "AAAAAAAA"
        sc = "AAAACCCCAAAA"
        harsh = dna_scheme.with_gaps(gap=-1.0, gap_open=-20.0)
        aln = align3_affine(sa, sb, sc, harsh)
        # Count gap runs in row B (the short sequence).
        row_b = aln.rows[1]
        runs = sum(
            1
            for idx, ch in enumerate(row_b)
            if ch == "-" and (idx == 0 or row_b[idx - 1] != "-")
        )
        assert runs == 1


class TestSweep:
    def test_score_only_drops_prev_state(self, affine_dna_scheme):
        res = affine_sweep("AC", "AG", "AT", affine_dna_scheme, score_only=True)
        assert res.prev_state is None
        assert res.final_states is not None

    def test_cells_counted(self, affine_dna_scheme):
        res = affine_sweep("AC", "A", "A", affine_dna_scheme, score_only=True)
        assert res.cells_computed == 3 * 2 * 2

    def test_affine_score_at_most_linear_like_envelope(
        self, dna_scheme, family_small
    ):
        # Adding a nonpositive opening penalty can only lower the optimum
        # relative to the same scheme with gap_open = 0.
        aff = dna_scheme.with_gaps(gap=dna_scheme.gap, gap_open=-5.0)
        linear = score3_dp3d(*family_small, dna_scheme)
        assert score3_affine(*family_small, aff) <= linear + 1e-9
