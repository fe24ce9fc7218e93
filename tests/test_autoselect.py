"""Adaptive method selection and the cache-key equivalence class.

The selector (:func:`repro.core.api.select_method`) replaces the old
cells-only ``auto`` split with a similarity-aware cost model; the cache
key now hashes the *resolved* method's equivalence class rather than
the raw request string. These tests pin both: the routing table, the
identity estimator it relies on, and the end of the aliasing bug where
``auto`` and its resolution were solved and stored twice.
"""

import pytest

from repro.cache import (
    EXACT_METHODS,
    ResultCache,
    method_key_class,
)
from repro.core.api import (
    AUTO_HIRSCHBERG_CELLS,
    AUTO_PRUNE_MIN_CELLS,
    AUTO_PRUNE_MIN_IDENTITY,
    align3,
    estimate_identity,
    select_method,
)
from repro.seqio.generate import MutationModel, mutated_family, random_sequence


class TestEstimateIdentity:
    def test_identical_sequences(self):
        s = random_sequence(200, seed=1)
        assert estimate_identity(s, s) == pytest.approx(1.0)

    def test_unrelated_sequences_near_zero(self):
        assert estimate_identity("A" * 100, "C" * 100) == 0.0

    def test_monotone_in_divergence(self):
        estimates = []
        for sub in (0.02, 0.15, 0.4):
            sa, sb, _ = mutated_family(
                300, model=MutationModel(sub, sub / 4, sub / 4), seed=9
            )
            estimates.append(estimate_identity(sa, sb))
        assert estimates[0] > estimates[1] > estimates[2]

    def test_tracks_true_identity_roughly(self):
        sa, sb, _ = mutated_family(
            400, model=MutationModel(0.05, 0.0, 0.0), seed=3
        )
        est = estimate_identity(sa, sb)
        assert 0.85 <= est <= 1.0

    def test_short_sequences_positional(self):
        assert estimate_identity("ACG", "ACG") == 1.0
        assert estimate_identity("", "") == 1.0
        assert estimate_identity("", "ACG") == 0.0


class TestSelectMethod:
    def _triple(self, n, sub, seed=11):
        return mutated_family(
            n, model=MutationModel(sub, sub / 4, sub / 4), seed=seed
        )

    def test_small_cube_is_wavefront(self, dna_scheme):
        seqs = self._triple(20, 0.02)
        method, sel = select_method(*seqs, dna_scheme)
        assert method == "wavefront"
        assert sel["cells"] <= AUTO_PRUNE_MIN_CELLS

    def test_high_identity_is_pruned(self, dna_scheme):
        # Near-identical, length-matched: the regime ``auto`` used to send
        # to ``banded``, which ``pruned`` beats on every such triple timed.
        seqs = self._triple(100, 0.01)
        method, sel = select_method(*seqs, dna_scheme)
        assert method == "pruned"
        assert sel["identity"] >= 0.96

    def test_moderate_identity_is_pruned(self, dna_scheme):
        seqs = self._triple(100, 0.05)
        method, sel = select_method(*seqs, dna_scheme)
        assert method == "pruned"

    def test_low_identity_is_wavefront(self, dna_scheme):
        seqs = (
            random_sequence(100, seed=1),
            random_sequence(100, seed=2),
            random_sequence(100, seed=3),
        )
        method, _ = select_method(*seqs, dna_scheme)
        assert method == "wavefront"

    def test_huge_similar_cube_is_pruned(self, dna_scheme):
        # The tube's move store follows the kept cells, so size alone no
        # longer forces a similar triple onto the linear-space engine.
        seqs = self._triple(260, 0.01)
        assert (261) ** 3 > AUTO_HIRSCHBERG_CELLS
        method, sel = select_method(*seqs, dna_scheme)
        assert method == "pruned"
        assert sel["identity"] >= AUTO_PRUNE_MIN_IDENTITY

    def test_huge_diverged_cube_is_hirschberg(self, dna_scheme):
        seqs = tuple(random_sequence(200, seed=s) for s in (1, 2, 3))
        assert (201) ** 3 > AUTO_HIRSCHBERG_CELLS
        method, sel = select_method(*seqs, dna_scheme)
        assert method == "hirschberg"
        assert sel["identity"] < AUTO_PRUNE_MIN_IDENTITY

    def test_budget_still_guards_the_pruned_route(
        self, dna_scheme, monkeypatch
    ):
        # A budget below pruned's planned footprint must stop an ``auto``
        # run before any bound or sweep is computed.
        from repro.core import bounds
        from repro.resilience.degrade import ENV_BUDGET, estimate_bytes
        from repro.resilience.errors import DegradedRun

        seqs = self._triple(260, 0.01)
        dims = tuple(len(s) for s in seqs)
        monkeypatch.setenv(ENV_BUDGET, str(estimate_bytes("pruned", dims) - 1))

        def must_not_run(*args, **kwargs):
            raise AssertionError("computed before the memory plan refused")

        monkeypatch.setattr(bounds, "carrillo_lipman_tube", must_not_run)
        with pytest.raises(DegradedRun) as exc:
            align3(*seqs, dna_scheme, method="auto", allow_degrade=False)
        assert exc.value.plan.requested == "pruned"

    def test_align3_records_selection(self, dna_scheme):
        seqs = self._triple(70, 0.02)
        aln = align3(*seqs, dna_scheme, method="auto")
        auto = aln.meta["auto"]
        assert "reason" in auto and "cells" in auto


class TestMethodKeyClass:
    def test_exact_engines_collapse(self):
        assert {method_key_class(m) for m in EXACT_METHODS} == {"exact"}

    def test_affine_keys_as_itself(self):
        assert method_key_class("affine") == "affine"

    def test_hirschberg_keys_as_itself(self):
        # Its rows can differ from the exact class's on ties.
        assert method_key_class("hirschberg") == "hirschberg"

    def test_auto_rejected(self):
        with pytest.raises(ValueError, match="auto"):
            method_key_class("auto")


class TestCacheAliasing:
    def test_auto_and_resolved_share_one_entry(self, dna_scheme, tmp_path):
        seqs = mutated_family(30, seed=21)
        cache = ResultCache(cache_dir=tmp_path)
        cold = align3(*seqs, dna_scheme, method="auto", cache=cache)
        assert cold.meta["cache"]["hit"] is False
        # The same triple requested under any exact engine now hits.
        for method in ("wavefront", "dp3d", "pruned", "auto"):
            again = align3(*seqs, dna_scheme, method=method, cache=cache)
            assert again.meta["cache"]["hit"] is True, method
            assert again.score == cold.score
        # hirschberg breaks ties its own way, so it keys apart.
        own = align3(*seqs, dna_scheme, method="hirschberg", cache=cache)
        assert own.meta["cache"]["hit"] is False

    def test_distinct_triples_do_not_collide(self, dna_scheme, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        a = align3("GATTACA", "GATCA", "GTTACA", dna_scheme, cache=cache)
        b = align3("GATTACA", "GATCA", "GTTACC", dna_scheme, cache=cache)
        assert b.meta["cache"]["hit"] is False
        assert a.score != b.score or a.rows != b.rows
