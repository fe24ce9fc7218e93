"""Unit tests for the content-addressed result cache (repro.cache)."""

import pytest

from repro.cache import (
    ResultCache,
    canonical_order,
    chain_engines_fit,
    chain_key_class,
    comparable_meta,
    decode_alignment,
    derive_for_order,
    encode_alignment,
    jsonable,
    permutation_key,
    permute_rows,
    request_key,
)
from repro.core.api import align3
from repro.core.types import Alignment3
from repro.resilience.errors import DegradationWarning

TRIPLE = ("GATTACA", "GATCA", "GTTACA")


class TestRequestKey:
    def test_deterministic(self, dna_scheme):
        assert request_key(TRIPLE, dna_scheme) == request_key(TRIPLE, dna_scheme)

    def test_case_insensitive(self, dna_scheme):
        lower = tuple(s.lower() for s in TRIPLE)
        assert request_key(lower, dna_scheme) == request_key(TRIPLE, dna_scheme)

    def test_order_sensitive(self, dna_scheme):
        swapped = (TRIPLE[1], TRIPLE[0], TRIPLE[2])
        assert request_key(swapped, dna_scheme) != request_key(TRIPLE, dna_scheme)

    def test_sequence_sensitive(self, dna_scheme):
        other = ("GATTACA", "GATCA", "GTTACC")
        assert request_key(other, dna_scheme) != request_key(TRIPLE, dna_scheme)

    def test_scheme_sensitive(self, dna_scheme, affine_dna_scheme, protein_scheme):
        k = request_key(TRIPLE, dna_scheme)
        assert request_key(TRIPLE, affine_dna_scheme) != k
        assert request_key(("ACGT", "ACG", "AGT"), protein_scheme) != request_key(
            ("ACGT", "ACG", "AGT"), dna_scheme
        )

    def test_scheme_name_excluded(self, dna_scheme):
        from dataclasses import replace

        renamed = replace(dna_scheme, name="renamed")
        assert request_key(TRIPLE, renamed) == request_key(TRIPLE, dna_scheme)

    def test_mode_and_method_sensitive(self, dna_scheme):
        k = request_key(TRIPLE, dna_scheme, "global", "auto")
        assert request_key(TRIPLE, dna_scheme, "local", "auto") != k
        assert request_key(TRIPLE, dna_scheme, "global", "wavefront") != k

    def test_chain_key_classes(self):
        # Constrained requests key by their sub-cube engine: the exact
        # engines share a class, hirschberg and auto key apart.
        exact = {chain_key_class(m, True) for m in ("dp3d", "wavefront", "pruned")}
        assert exact == {"exact"}
        assert chain_key_class("hirschberg", True) == "hirschberg"
        assert chain_key_class("auto", True) not in ("exact", "hirschberg")
        assert chain_key_class("anchored", True) == chain_key_class("auto", True)
        assert chain_key_class("anchored", False) == "anchored"
        # A sub-cube degraded to hirschberg does not fit the exact class.
        assert chain_engines_fit("exact", ["wavefront", "pruned"])
        assert not chain_engines_fit("exact", ["wavefront", "hirschberg"])
        assert chain_engines_fit("auto", ["hirschberg", "pruned"])

    def test_bad_inputs_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="three sequences"):
            request_key(("A", "C"), dna_scheme)
        with pytest.raises(ValueError, match="unknown mode"):
            request_key(TRIPLE, dna_scheme, mode="sideways")


class TestPermutationEquivalence:
    def test_permutation_key_order_insensitive(self, dna_scheme):
        keys = {
            permutation_key(p, dna_scheme)
            for p in [
                TRIPLE,
                (TRIPLE[1], TRIPLE[0], TRIPLE[2]),
                (TRIPLE[2], TRIPLE[1], TRIPLE[0]),
            ]
        }
        assert len(keys) == 1

    def test_canonical_order_invariant(self):
        seqs = ("GTT", "AAA", "CCC")
        canonical, perm = canonical_order(seqs)
        assert canonical == ("AAA", "CCC", "GTT")
        assert all(canonical[i] == seqs[perm[i]] for i in range(3))

    def test_canonical_order_stable_on_duplicates(self):
        _canonical, perm = canonical_order(("AAA", "AAA", "AAA"))
        assert perm == (0, 1, 2)

    def test_permute_rows(self, dna_scheme):
        aln = align3(*TRIPLE, dna_scheme)
        swapped = permute_rows(aln, (1, 0, 2))
        assert swapped.rows == (aln.rows[1], aln.rows[0], aln.rows[2])
        assert swapped.score == aln.score
        assert swapped.meta["permuted_from"] == [1, 0, 2]
        # the original is untouched
        assert "permuted_from" not in aln.meta

    def test_permute_rows_moves_spans(self, dna_scheme):
        aln = align3(*TRIPLE, dna_scheme)
        aln.meta["spans"] = [(0, 7), (1, 5), (2, 6)]
        moved = permute_rows(aln, (2, 0, 1))
        assert moved.meta["spans"] == [(2, 6), (0, 7), (1, 5)]

    def test_permute_rows_rejects_non_permutation(self, dna_scheme):
        aln = align3(*TRIPLE, dna_scheme)
        with pytest.raises(ValueError, match="permutation"):
            permute_rows(aln, (0, 0, 2))

    def test_derive_for_order_restores_request_order(self, dna_scheme):
        canonical, _perm = canonical_order(TRIPLE)
        canon_aln = align3(*canonical, dna_scheme)
        for request in [
            TRIPLE,
            (TRIPLE[2], TRIPLE[0], TRIPLE[1]),
            (TRIPLE[1], TRIPLE[2], TRIPLE[0]),
        ]:
            derived = derive_for_order(canon_aln, request)
            assert derived.sequences() == request
            assert derived.score == canon_aln.score
            assert dna_scheme.sp_score(derived.rows) == pytest.approx(
                canon_aln.score
            )



class TestEncoding:
    def test_jsonable_canonicalises(self):
        import numpy as np

        assert jsonable((1, 2)) == [1, 2]
        assert jsonable({"k": np.float64(2.5)}) == {"k": 2.5}
        assert jsonable(np.array([1, 2])) == [1, 2]
        assert jsonable({1: "x"}) == {"1": "x"}

    def test_round_trip_is_bit_identical(self, dna_scheme):
        import json

        aln = align3(*TRIPLE, dna_scheme)
        aln.meta["odd_float"] = 0.1 + 0.2  # not representable exactly
        payload = json.loads(json.dumps(encode_alignment(aln)))
        back = decode_alignment(payload)
        assert back.rows == aln.rows
        assert back.score == aln.score
        assert back.meta["odd_float"] == aln.meta["odd_float"]

    def test_decode_rejects_wrong_row_count(self):
        with pytest.raises(ValueError, match="rows"):
            decode_alignment({"rows": ["A", "A"], "score": 0.0})

    def test_jsonable_sanitises_non_finite_floats(self):
        import json

        import numpy as np

        payload = jsonable(
            {
                "nan": float("nan"),
                "inf": float("inf"),
                "ninf": float("-inf"),
                "np_nan": np.float64("nan"),
                "fine": 1.5,
            }
        )
        assert payload == {
            "nan": "NaN",
            "inf": "Infinity",
            "ninf": "-Infinity",
            "np_nan": "NaN",
            "fine": 1.5,
        }
        # The result is strict JSON: no NaN/Infinity literals needed.
        json.dumps(payload, allow_nan=False)

    def test_non_finite_meta_round_trips_strict_json(self, dna_scheme):
        import json
        import math

        aln = align3(*TRIPLE, dna_scheme)
        aln.meta["lower_bound"] = float("-inf")
        aln.meta["divergence"] = float("nan")
        text = json.dumps(encode_alignment(aln), allow_nan=False)
        back = decode_alignment(json.loads(text))
        assert back.rows == aln.rows
        assert back.score == aln.score
        # Sentinels are deliberate: strict parsers get strings, and the
        # values stay recoverable via float().
        assert math.isinf(float(back.meta["lower_bound"]))
        assert math.isnan(float(back.meta["divergence"]))

    def test_non_finite_score_round_trips_exactly(self):
        import json

        aln = Alignment3(
            rows=("A", "A", "A"), score=float("-inf"), meta={}
        )
        text = json.dumps(encode_alignment(aln), allow_nan=False)
        back = decode_alignment(json.loads(text))
        assert back.score == float("-inf")

    def test_decode_rejects_non_string_rows_naming_key(self):
        payload = {"rows": ["A", None, "A"], "score": 0.0}
        with pytest.raises(ValueError, match=r"row 1 is NoneType.*'k123'"):
            decode_alignment(payload, key="k123")
        # without a key the error still identifies the bad row
        with pytest.raises(ValueError, match="row 1 is NoneType"):
            decode_alignment(payload)

    def test_corrupted_disk_row_surfaces_value_error(self, tmp_path):
        import json

        cache = ResultCache(cache_dir=tmp_path)
        cache.put("good", self._mk_aln())
        # Corrupt the disk entry: rows become numbers, as a buggy or
        # foreign writer might produce.
        path = tmp_path / "results.jsonl"
        rec = json.loads(path.read_text())
        rec["alignment"]["rows"] = [1, 2, 3]
        path.write_text(json.dumps(rec) + "\n")
        fresh = ResultCache(cache_dir=tmp_path)
        with pytest.raises(ValueError, match=r"expected str \(cache key"):
            fresh.get("good")

    @staticmethod
    def _mk_aln():
        return Alignment3(rows=("A", "A", "A"), score=1.0, meta={})

    def test_comparable_meta_strips_volatile(self):
        meta = {
            "method": "wavefront",
            "wall_time_s": 0.5,
            "cache": {"hit": True},
            "batch": {"source": "dedup"},
            "permuted_from": [1, 0, 2],
            "spans": [(0, 1), (0, 2), (0, 3)],
        }
        cmp = comparable_meta(meta)
        assert cmp == {"method": "wavefront", "spans": [[0, 1], [0, 2], [0, 3]]}


class TestResultCache:
    def _aln(self, score=1.0):
        return Alignment3(
            rows=("GAT", "GAT", "GA-"), score=score, meta={"method": "x"}
        )

    def test_memory_hit(self):
        cache = ResultCache()
        cache.put("k", self._aln())
        got = cache.get("k")
        assert got is not None and got.score == 1.0
        assert cache.stats.memory_hits == 1
        assert cache.stats.hit_rate == 1.0

    def test_miss(self):
        cache = ResultCache()
        assert cache.get("missing") is None
        assert cache.stats.misses == 1

    def test_hits_decode_fresh_objects(self):
        cache = ResultCache()
        cache.put("k", self._aln())
        first = cache.get("k")
        first.meta["mutated"] = True
        second = cache.get("k")
        assert "mutated" not in second.meta

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", self._aln(1.0))
        cache.put("b", self._aln(2.0))
        assert cache.get("a") is not None  # refresh "a"; "b" is now oldest
        cache.put("c", self._aln(3.0))
        assert cache.stats.evictions == 1
        assert "b" not in cache
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_max_entries_validated(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=0)

    def test_record_false_skips_stats(self):
        cache = ResultCache()
        cache.put("k", self._aln())
        cache.get("k", record=False)
        cache.get("nope", record=False)
        assert cache.stats.lookups == 0

    def test_disk_persistence(self, tmp_path):
        first = ResultCache(cache_dir=tmp_path)
        first.put("k", self._aln(7.0))
        second = ResultCache(cache_dir=tmp_path)
        got = second.get("k")
        assert got is not None and got.score == 7.0
        assert second.stats.disk_hits == 1
        # promoted into memory: the next get is a memory hit
        second.get("k")
        assert second.stats.memory_hits == 1

    def test_disk_last_write_wins(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("k", self._aln(1.0))
        cache.put("k", self._aln(2.0))
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get("k").score == 2.0

    def test_truncated_final_line_skipped(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("k", self._aln())
        with open(tmp_path / "results.jsonl", "a") as fh:
            fh.write('{"key": "torn", "alignment"')  # no newline: torn write
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get("k") is not None
        assert fresh.get("torn") is None

    def test_clear_memory_keeps_disk(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("k", self._aln())
        cache.clear_memory()
        assert len(cache) == 0
        assert cache.get("k") is not None
        assert cache.stats.disk_hits == 1


def _mode_alignment(mode, seqs, scheme):
    if mode == "local":
        from repro.core.local import align3_local

        return align3_local(*seqs, scheme)
    if mode == "semiglobal":
        from repro.core.semiglobal import align3_semiglobal

        return align3_semiglobal(*seqs, scheme)
    return align3(*seqs, scheme)


class TestHitBitIdentity:
    """A cache hit must be bit-identical to the cold compute: same rows,
    same score, same meta modulo timing — for both gap models and all
    three alignment modes."""

    @pytest.mark.parametrize("scheme_name", ["linear", "affine"])
    @pytest.mark.parametrize("mode", ["global", "local", "semiglobal"])
    def test_round_trip(
        self, scheme_name, mode, dna_scheme, affine_dna_scheme, tmp_path
    ):
        scheme = affine_dna_scheme if scheme_name == "affine" else dna_scheme
        if scheme_name == "affine" and mode != "global":
            pytest.skip("local/semiglobal engines implement the linear model")
        cold = _mode_alignment(mode, TRIPLE, scheme)
        key = request_key(TRIPLE, scheme, mode)
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(key, cold)

        hit = cache.get(key)
        assert hit.rows == cold.rows
        assert hit.score == cold.score
        assert comparable_meta(hit.meta) == comparable_meta(cold.meta)

        # and again through the disk tier alone
        disk_only = ResultCache(cache_dir=tmp_path)
        hit2 = disk_only.get(key)
        assert disk_only.stats.disk_hits == 1
        assert hit2.rows == cold.rows
        assert hit2.score == cold.score
        assert comparable_meta(hit2.meta) == comparable_meta(cold.meta)

    def test_exact_class_shares_rows_across_engines(self, dna_scheme):
        # dp3d and wavefront share the "exact" key class, so a dp3d result
        # served to a wavefront request must be what wavefront computes.
        triple = ("AGTC", "TGTAC", "ACG")
        cache = ResultCache()
        stored = align3(*triple, dna_scheme, method="dp3d", cache=cache)
        hit = align3(*triple, dna_scheme, method="wavefront", cache=cache)
        assert hit.meta["cache"]["hit"]
        fresh = align3(*triple, dna_scheme, method="wavefront")
        assert hit.rows == stored.rows == fresh.rows
        assert hit.score == fresh.score

    def test_hirschberg_rows_never_served_to_wavefront(
        self, dna_scheme, hirschberg_tie_triple
    ):
        triple = hirschberg_tie_triple
        fresh = align3(*triple, dna_scheme, method="wavefront")
        cache = ResultCache()
        stored = align3(*triple, dna_scheme, method="hirschberg", cache=cache)
        assert stored.rows != fresh.rows
        served = align3(*triple, dna_scheme, method="wavefront", cache=cache)
        assert served.meta["cache"]["hit"] is False
        assert served.rows == fresh.rows

    def test_constrained_hirschberg_rows_never_served_to_wavefront(
        self, dna_scheme, hirschberg_tie_triple
    ):
        # A constraint chain keys by its sub-cube engine's class too.
        triple, chain = hirschberg_tie_triple, ((0, 0, 0, 1),)
        fresh = align3(*triple, dna_scheme, method="wavefront", constraints=chain)
        cache = ResultCache()
        stored = align3(
            *triple, dna_scheme, method="hirschberg", constraints=chain,
            cache=cache,
        )
        assert stored.rows != fresh.rows
        served = align3(
            *triple, dna_scheme, method="wavefront", constraints=chain,
            cache=cache,
        )
        assert served.meta["cache"]["hit"] is False
        assert served.rows == fresh.rows

    def test_degraded_constrained_run_is_not_stored(
        self, dna_scheme, hirschberg_tie_triple, monkeypatch
    ):
        # Under memory pressure the sub-cube runs hirschberg; those rows
        # must not land under the constrained wavefront key.
        triple, chain = hirschberg_tie_triple, ((0, 0, 0, 1),)
        fresh = align3(*triple, dna_scheme, method="wavefront", constraints=chain)
        cache = ResultCache()
        monkeypatch.setenv("REPRO_MEM_BUDGET", "100000")
        with pytest.warns(DegradationWarning):
            degraded = align3(
                *triple, dna_scheme, method="wavefront", constraints=chain,
                cache=cache,
            )
        assert degraded.meta["anchor"]["engines"] == {"hirschberg": 1}
        monkeypatch.delenv("REPRO_MEM_BUDGET")
        served = align3(
            *triple, dna_scheme, method="wavefront", constraints=chain,
            cache=cache,
        )
        assert served.meta["cache"]["hit"] is False
        assert served.rows == fresh.rows

    def test_degraded_run_keys_as_its_engine(
        self, dna_scheme, hirschberg_tie_triple, monkeypatch
    ):
        triple = hirschberg_tie_triple
        fresh = align3(*triple, dna_scheme, method="wavefront")
        cache = ResultCache()
        monkeypatch.setenv("REPRO_MEM_BUDGET", "100000")
        with pytest.warns(DegradationWarning):
            degraded = align3(*triple, dna_scheme, method="wavefront", cache=cache)
        assert degraded.meta["degraded_from"] == "wavefront"
        assert degraded.rows != fresh.rows
        monkeypatch.delenv("REPRO_MEM_BUDGET")
        served = align3(*triple, dna_scheme, method="wavefront", cache=cache)
        assert served.meta["cache"]["hit"] is False
        assert served.rows == fresh.rows
