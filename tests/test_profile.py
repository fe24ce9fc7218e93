"""Profile-to-sequence alignment: ``align_profiles`` with a one-row
second profile, the step ``align3_progressive`` takes, and the column
summary it scores columns with."""

import pytest

from repro.msa.profilealign import align_profiles, column_pair_scores, profile_counts


def _gap_column(merged: tuple[str, ...], col: int) -> bool:
    return all(row[col] == "-" for row in merged[:-1])


def _column_scores(rows_p, rows_q, scheme):
    return column_pair_scores(
        *profile_counts(rows_p, scheme), *profile_counts(rows_q, scheme), scheme
    )


class TestProfile:
    def test_from_rows(self, dna_scheme):
        counts, gaps = profile_counts(("AC-", "A-G"), dna_scheme)
        assert counts.shape[0] == 3
        assert (counts.sum(axis=1) + gaps).tolist() == [2, 2, 2]
        assert counts[0, int(dna_scheme.alphabet.encode("A")[0])] == 2

    def test_unequal_rows_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="unequal"):
            profile_counts(("AC", "A"), dna_scheme)

    def test_empty_rows_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="at least one"):
            profile_counts((), dna_scheme)

    def test_residue_count(self, dna_scheme):
        counts, _ = profile_counts(("AC-", "A-G"), dna_scheme)
        assert counts.sum(axis=1).tolist() == [2, 1, 1]

    def test_column_vs_residue(self, dna_scheme):
        # Column 0 = (A, A): score vs A = 5 + 5.
        assert _column_scores(("A-", "AC"), ("A",), dna_scheme)[0, 0] == (
            pytest.approx(10.0)
        )
        # Column 1 = (-, C): gap + match.
        assert _column_scores(("A-", "AC"), ("C",), dna_scheme)[1, 0] == (
            pytest.approx(dna_scheme.gap + 5.0)
        )

    def test_column_vs_gap(self, dna_scheme):
        scores = _column_scores(("A-", "AC"), ("-",), dna_scheme)
        assert scores[0, 0] == pytest.approx(2 * dna_scheme.gap)
        assert scores[1, 0] == pytest.approx(dna_scheme.gap)


class TestProfileSequenceAlignment:
    def test_identical_alignment(self, dna_scheme):
        merged, _ = align_profiles(("ACGT", "ACGT"), ["ACGT"], dna_scheme)
        assert merged == ("ACGT", "ACGT", "ACGT")

    def test_insertion_into_profile(self, dna_scheme):
        merged, _ = align_profiles(("AC", "AC"), ["AGC"], dna_scheme)
        assert merged[2].replace("-", "") == "AGC"
        assert len({len(row) for row in merged}) == 1
        # The G required an all-gap column in the profile.
        assert any(_gap_column(merged, c) for c in range(len(merged[0])))

    def test_deletion_from_sequence(self, dna_scheme):
        merged, _ = align_profiles(("ACGT", "ACGT"), ["AT"], dna_scheme)
        assert merged[2].replace("-", "") == "AT"
        assert merged[:2] == ("ACGT", "ACGT")  # profile columns preserved

    def test_empty_sequence(self, dna_scheme):
        merged, _ = align_profiles(("AC", "AG"), [""], dna_scheme)
        assert merged == ("AC", "AG", "--")

    def test_empty_profile(self, dna_scheme):
        merged, _ = align_profiles(("", ""), ["AC"], dna_scheme)
        assert merged == ("--", "--", "AC")

    def test_profile_columns_never_reordered(self, dna_scheme):
        rows_p = ("AC-G", "A-TG")
        merged, _ = align_profiles(rows_p, ["ACTG"], dna_scheme)
        kept = [
            c for c in range(len(merged[0])) if not _gap_column(merged, c)
        ]
        assert tuple("".join(row[c] for c in kept) for row in merged[:2]) == rows_p
