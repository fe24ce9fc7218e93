"""Unit tests for the align3 front door (repro.core.api)."""

import pytest

import repro
from repro.core.api import AVAILABLE_METHODS, align3, align3_score
from repro.core.dp3d import score3_dp3d


class TestDispatch:
    @pytest.mark.parametrize(
        "method",
        ["dp3d", "wavefront", "hirschberg", "pruned", "banded", "blocks"],
    )
    def test_all_linear_methods_agree(self, method, dna_scheme, family_small):
        expected = score3_dp3d(*family_small, dna_scheme)
        aln = align3(*family_small, dna_scheme, method=method)
        assert aln.score == pytest.approx(expected), method
        assert dna_scheme.sp_score(aln.rows) == pytest.approx(expected)
        assert aln.meta["method"] == method
        assert "wall_time_s" in aln.meta

    def test_auto_small_is_wavefront(self, dna_scheme):
        aln = align3("GATTACA", "GATCA", "GTT", dna_scheme)
        assert aln.meta["engine"] == "wavefront"

    def test_auto_affine_scheme_routes_to_affine(self, affine_dna_scheme):
        aln = align3("GAT", "GT", "GAT", affine_dna_scheme)
        assert aln.meta["engine"] == "affine"

    def test_affine_scheme_with_linear_method_rejected(self, affine_dna_scheme):
        with pytest.raises(ValueError, match="gap_open"):
            align3("A", "A", "A", affine_dna_scheme, method="wavefront")

    def test_unknown_method_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="unknown method"):
            align3("A", "A", "A", dna_scheme, method="magic")

    @pytest.mark.parametrize("method", ["shared", "threads"])
    def test_removed_parallel_engines_rejected(self, method, dna_scheme):
        with pytest.raises(ValueError, match="unknown method"):
            align3("A", "A", "A", dna_scheme, method=method)

    def test_pruned_records_stats(self, dna_scheme, family_small):
        aln = align3(*family_small, dna_scheme, method="pruned")
        assert 0 < aln.meta["pruning"]["kept_fraction"] <= 1

    def test_methods_listed(self):
        assert AVAILABLE_METHODS == (
            "auto", "dp3d", "wavefront", "hirschberg", "pruned", "banded",
            "affine", "blocks", "anchored",
        )


class TestSchemeGuessing:
    def test_dna_guessed(self):
        aln = align3("GATTACA", "GATCA", "GTTACA")
        assert aln.meta["scheme"] == "dna5-4"

    def test_protein_guessed(self):
        aln = align3("MVLSPAD", "MVHLTPE", "MGLSDGE")
        assert aln.meta["scheme"] == "blosum62"

    def test_explicit_scheme_wins(self, protein_scheme):
        # ACGT is valid protein too; forcing the protein scheme must work.
        aln = align3("ACGT", "ACG", "AGT", scheme=protein_scheme)
        assert aln.meta["scheme"] == "blosum62"


class TestDocstringDrift:
    def test_every_method_documented(self):
        # The dispatch table in the module docstring once omitted
        # ``banded``; keep it in lockstep with the dispatcher.
        import repro.core.api as api

        for method in AVAILABLE_METHODS:
            assert f"``{method}``" in api.__doc__, (
                f"method {method!r} missing from the repro.core.api "
                "docstring dispatch table"
            )


class TestPerSequenceAlphabetGuessing:
    def test_mixed_alphabets_rejected(self):
        # "GATTACA" guesses DNA, "MVLSPAD" guesses protein. The old
        # concatenation-based guess scored both under BLOSUM62 silently.
        with pytest.raises(ValueError, match="mixed alphabets"):
            align3("GATTACA", "MVLSPAD", "GATCA")

    def test_resolve_scheme_mixed_rejected(self):
        from repro.core.api import resolve_scheme

        with pytest.raises(ValueError, match="mixed alphabets"):
            resolve_scheme(("ACGT", "ACGU", "MVLSPAD"))

    def test_explicit_scheme_bypasses_guess(self, protein_scheme):
        # An explicit scheme must silence the mixed-alphabet check ...
        aln = align3("ACGT", "MVLSPAD", "ACG", scheme=protein_scheme)
        assert aln.meta["scheme"] == "blosum62"

    def test_empty_sequences_skipped(self):
        aln = align3("", "GATCA", "GATTA")
        assert aln.meta["scheme"] == "dna5-4"

    def test_all_empty_defaults_to_dna(self):
        from repro.core.api import resolve_scheme

        assert resolve_scheme(("", "", "")).name == "dna5-4"


def _scheme_for(method, dna_scheme, affine_dna_scheme):
    return affine_dna_scheme if method == "affine" else dna_scheme


class TestDegenerateInputs:
    """Empty and single-character sequences through every engine."""

    CASES = [
        ("", "AC", "GT"),
        ("A", "", ""),
        ("", "", ""),
        ("A", "C", "G"),
    ]

    @pytest.mark.parametrize("method", AVAILABLE_METHODS)
    @pytest.mark.parametrize("seqs", CASES, ids=lambda s: "/".join(s) or "empty")
    def test_engines_agree_with_reference(
        self, method, seqs, dna_scheme, affine_dna_scheme
    ):
        scheme = _scheme_for(method, dna_scheme, affine_dna_scheme)
        if method == "affine":
            from repro.core.affine import score3_affine

            expected = score3_affine(*seqs, scheme)
        else:
            expected = score3_dp3d(*seqs, scheme)
        aln = align3(*seqs, scheme, method=method)
        assert aln.score == pytest.approx(expected), (method, seqs)
        if method != "affine":  # sp_score implements the linear gap model
            assert scheme.sp_score(aln.rows) == pytest.approx(expected)
        assert aln.sequences() == seqs

    def test_documented_empty_first_score(self, dna_scheme):
        # ("", "AC", "GT"): two columns, each a gap against a mismatched
        # pair: 2 * (gap + gap + mismatch) = 2 * (-6 - 6 - 4).
        assert align3("", "AC", "GT", dna_scheme).score == -32.0

    @pytest.mark.parametrize("seqs", CASES, ids=lambda s: "/".join(s) or "empty")
    def test_cache_round_trip(self, seqs, dna_scheme, tmp_path):
        from repro.cache import ResultCache, comparable_meta

        cache = ResultCache(cache_dir=tmp_path)
        cold = align3(*seqs, dna_scheme, cache=cache)
        assert cold.meta["cache"]["hit"] is False
        hit = align3(*seqs, dna_scheme, cache=cache)
        assert hit.meta["cache"]["hit"] is True
        assert hit.rows == cold.rows
        assert hit.score == cold.score
        assert comparable_meta(hit.meta) == comparable_meta(cold.meta)


class TestScoreOnly:
    def test_matches_alignment_score(self, dna_scheme, family_small):
        aln = align3(*family_small, dna_scheme)
        assert align3_score(*family_small, dna_scheme) == pytest.approx(aln.score)

    def test_affine_score(self, affine_dna_scheme, family_small):
        from repro.core.affine import score3_affine

        got = align3_score(*family_small, affine_dna_scheme)
        assert got == pytest.approx(score3_affine(*family_small, affine_dna_scheme))


class TestTopLevelExports:
    def test_align3_reexported(self):
        assert repro.align3 is align3

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_docstring_example(self):
        aln = repro.align3("GATTACA", "GATCA", "GATTA")
        assert aln.sequences() == ("GATTACA", "GATCA", "GATTA")
