"""Unit tests for repro.core.scoring."""

import numpy as np
import pytest

from repro.core.matrices import dna_simple, unit_matrix
from repro.core.scoring import (
    PAIR_BOTH,
    PAIR_NEITHER,
    PAIR_ONLY_FIRST,
    PAIR_ONLY_SECOND,
    ScoringScheme,
    default_scheme_for,
    pair_state,
)
from repro.seqio.alphabet import DNA, PROTEIN


@pytest.fixture
def dna():
    return default_scheme_for(DNA)


class TestConstruction:
    def test_matrix_shape_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            ScoringScheme(DNA, np.zeros((3, 3)), gap=-1)

    def test_matrix_symmetry_checked(self):
        m = dna_simple()
        m = m.copy()
        m[0, 1] = 99
        with pytest.raises(ValueError, match="symmetric"):
            ScoringScheme(DNA, m, gap=-1)

    def test_positive_gap_open_rejected(self):
        with pytest.raises(ValueError, match="gap_open"):
            ScoringScheme(DNA, dna_simple(), gap=-1, gap_open=2)

    def test_matrix_readonly(self, dna):
        with pytest.raises((ValueError, RuntimeError)):
            dna.matrix[0, 0] = 42

    def test_is_affine(self, dna):
        assert not dna.is_affine
        assert dna.with_gaps(gap=-2, gap_open=-5).is_affine

    def test_with_gaps_preserves_matrix(self, dna):
        other = dna.with_gaps(gap=-3)
        assert np.array_equal(other.matrix, dna.matrix)
        assert other.gap == -3


class TestPairScore:
    def test_match(self, dna):
        assert dna.pair_score("A", "A") == 5.0

    def test_mismatch(self, dna):
        assert dna.pair_score("A", "C") == -4.0

    def test_residue_gap(self, dna):
        assert dna.pair_score("A", "-") == -6.0
        assert dna.pair_score("-", "G") == -6.0

    def test_gap_gap_zero(self, dna):
        assert dna.pair_score("-", "-") == 0.0

    def test_symmetry(self, dna):
        for x in "ACGT-":
            for y in "ACGT-":
                assert dna.pair_score(x, y) == dna.pair_score(y, x)


class TestColumnScore:
    def test_all_match(self, dna):
        assert dna.column_score("A", "A", "A") == 15.0

    def test_one_gap(self, dna):
        # pairs: (A,A)=5, (A,-)=-6, (A,-)=-6
        assert dna.column_score("A", "A", "-") == 5.0 - 12.0

    def test_two_gaps(self, dna):
        # pairs: (A,-)=-6, (A,-)=-6, (-,-)=0
        assert dna.column_score("A", "-", "-") == -12.0

    def test_move_delta_score_matches_column_score(self, dna):
        sa, sb, sc = "AC", "GT", "CA"
        for move in range(1, 8):
            i = 1 if move & 1 else 0
            j = 1 if move & 2 else 0
            k = 1 if move & 4 else 0
            got = dna.move_delta_score(move, sa, sb, sc, max(i, 1), max(j, 1), max(k, 1))
            ca = sa[0] if move & 1 else "-"
            cb = sb[0] if move & 2 else "-"
            cc = sc[0] if move & 4 else "-"
            assert got == dna.column_score(ca, cb, cc)


class TestSpScore:
    def test_empty_alignment(self, dna):
        assert dna.sp_score(("", "", "")) == 0.0

    def test_single_column(self, dna):
        assert dna.sp_score(("A", "A", "A")) == 15.0

    def test_unequal_rows_rejected(self, dna):
        with pytest.raises(ValueError, match="unequal"):
            dna.sp_score(("AC", "A", "AC"))

    def test_additivity_over_columns(self, dna):
        rows = ("AC-G", "A-TG", "-CTG")
        total = dna.sp_score(rows)
        by_col = sum(dna.column_score(*col) for col in zip(*rows))
        assert total == pytest.approx(by_col)


class TestAffineScorers:
    @pytest.fixture
    def aff(self, dna):
        return dna.with_gaps(gap=-2.0, gap_open=-10.0)

    def test_no_gaps_same_as_linear_matrix_part(self, aff):
        rows = ("ACGT", "ACGT", "ACGT")
        assert aff.sp_score_affine_quasinatural(rows) == aff.sp_score(rows)

    def test_single_gap_run_charged_once(self, aff):
        rows = ("AAAA", "A--A", "AAAA")
        # Pair (A,B): run of 2 gaps -> open once + 2 extends.
        # Pair (A,C): all matches. Pair (B,C): same run against C.
        expected = (
            2 * aff.pair_score("A", "A") + (-10.0) + 2 * (-2.0)  # A vs B
            + 4 * aff.pair_score("A", "A")  # A vs C
            + 2 * aff.pair_score("A", "A") + (-10.0) + 2 * (-2.0)  # B vs C
        )
        assert aff.sp_score_affine_quasinatural(rows) == pytest.approx(expected)

    def test_two_runs_charged_twice(self, aff):
        # B's gaps form two runs here versus one run in the comparison
        # alignment; the gap pattern appears in both the (A,B) and (B,C)
        # projections, so two extra opens are charged in total.
        rows = ("AAAAA", "A-A-A", "AAAAA")
        got = aff.sp_score_affine_quasinatural(rows)
        one_run = aff.sp_score_affine_quasinatural(("AAAAA", "A--AA", "AAAAA"))
        assert got == pytest.approx(one_run - 2 * 10.0)

    def test_alternating_directions_agree_across_conventions(self, aff):
        # Pair states change every column (no both-gap interruptions), so
        # natural and quasi-natural charge identically.
        rows = ("A-A", "-A-", "AAA")
        qn = aff.sp_score_affine_quasinatural(rows)
        nat = aff.sp_score_affine_natural(rows)
        assert qn == pytest.approx(nat)

    def test_natural_vs_quasinatural_divergence(self, aff):
        # Pair (A,B) columns: (A,-), (-,-), (A,-) — a gap in B interrupted
        # by a column where the whole pair is gapped. Natural bridges the
        # interruption (one open); quasi-natural charges a reopening.
        # The other two pairs cost the same under both conventions.
        rows = ("A-A", "---", "-A-")
        qn = aff.sp_score_affine_quasinatural(rows)
        nat = aff.sp_score_affine_natural(rows)
        assert qn == pytest.approx(nat - 10.0)

    def test_affine_never_above_linear_with_zero_open(self, dna):
        zero_open = dna.with_gaps(gap=dna.gap, gap_open=0.0)
        rows = ("AC-G", "A-TG", "-CTG")
        assert zero_open.sp_score_affine_quasinatural(rows) == pytest.approx(
            dna.sp_score(rows)
        )


class TestPairState:
    def test_both(self):
        assert pair_state(7, 0, 1) == PAIR_BOTH

    def test_only_first(self):
        assert pair_state(1, 0, 1) == PAIR_ONLY_FIRST

    def test_only_second(self):
        assert pair_state(2, 0, 1) == PAIR_ONLY_SECOND

    def test_neither(self):
        assert pair_state(4, 0, 1) == PAIR_NEITHER

    def test_pair_ac(self):
        assert pair_state(5, 0, 2) == PAIR_BOTH
        assert pair_state(3, 0, 2) == PAIR_ONLY_FIRST


class TestTransitionTable:
    def test_linear_scheme_table_has_no_opens(self, dna):
        t = dna.affine_transition_table()
        # Every move's gap cost is independent of the previous move.
        for m in range(1, 8):
            assert len(set(t[:, m])) == 1

    def test_affine_start_charges_all_opens(self, dna):
        aff = dna.with_gaps(gap=-2.0, gap_open=-10.0)
        t = aff.affine_transition_table()
        # Move 1 (A only): two residue/gap pairs -> 2 extends + 2 opens
        # from the start state.
        assert t[0, 1] == pytest.approx(2 * (-2.0) + 2 * (-10.0))
        # Continuing move 1 after move 1: runs continue, no opens.
        assert t[1, 1] == pytest.approx(2 * (-2.0))

    def test_all_match_move_costs_nothing(self, dna):
        aff = dna.with_gaps(gap=-2.0, gap_open=-10.0)
        t = aff.affine_transition_table()
        assert np.all(t[:, 7] == 0.0)


class TestProfileMatrices:
    def test_shapes(self, dna):
        sab, sac, sbc = dna.profile_matrices("ACG", "AC", "A")
        assert sab.shape == (3, 2)
        assert sac.shape == (3, 1)
        assert sbc.shape == (2, 1)

    def test_values(self, dna):
        sab, _, _ = dna.profile_matrices("AC", "AG", "")
        assert sab[0, 0] == 5.0  # A vs A
        assert sab[1, 1] == -4.0  # C vs G

    def test_empty_sequences(self, dna):
        sab, sac, sbc = dna.profile_matrices("", "", "")
        assert sab.shape == (0, 0)


class TestDefaults:
    def test_protein_default_is_blosum(self):
        s = default_scheme_for(PROTEIN)
        assert s.name == "blosum62"
        assert s.gap == -8.0

    def test_dna_default(self):
        assert default_scheme_for(DNA).name == "dna5-4"
