"""The constrained/anchored chain subsystem (``repro.anchor``).

The load-bearing property: with *empty* constraints the chain paths are
bit-identical (rows and score) to every exact engine, and with
constraints the result equals an independent brute-force maximum over
exactly the constraint-respecting alignments. Everything else here is
plumbing — validation errors, cache-key stability, discovery behaviour,
batch/serve/router integration, degrade pricing, and obs metrics.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.anchor import (
    Anchor,
    align3_chain,
    as_anchors,
    chain_cells,
    chain_coverage,
    decompose,
    discover_anchors,
    max_subcube_dims,
    normalize_constraints,
    validate_chain,
)
from repro.anchor.chain import Segment
from repro.batch.io import requests_from_jsonl
from repro.batch.scheduler import AlignmentRequest, BatchScheduler
from repro.cache import ResultCache, request_key
from repro.core.api import align3
from repro.obs import metrics
from repro.resilience.degrade import estimate_bytes
from repro.router.routing import routing_keys
from repro.seqio.alphabet import GAP_CHAR
from repro.seqio.generate import MutationModel, mutated_family
from repro.serve import protocol
from repro.serve.admission import estimate_cells
from repro.serve.app import parse_align_items

EXACT_ENGINES = ("dp3d", "wavefront", "hirschberg", "pruned", "banded")

_MOVES = [
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
]


def constrained_bruteforce(sa, sb, sc, scheme, anchors):
    """Independent maximum over alignments that respect ``anchors``.

    Written against the *definition* rather than the library's chain
    decomposition: a memoised top-down suffix recursion over
    ``(i, j, k, remaining-anchors)``. Standing on an anchor's start cell
    forces its whole run of ABC columns; a path that reaches the corner
    with anchors still unconsumed scores ``-inf`` and is discarded.
    """
    from functools import lru_cache

    starts = {(a.i, a.j, a.k): a for a in anchors}
    neg_inf = float("-inf")

    @lru_cache(maxsize=None)
    def go(i, j, k, remaining):
        a = starts.get((i, j, k))
        if a is not None and a in remaining:
            run = sum(
                scheme.column_score(sa[i + t], sb[j + t], sc[k + t])
                for t in range(a.length)
            )
            rest = frozenset(remaining - {a})
            return run + go(
                i + a.length, j + a.length, k + a.length, rest
            )
        if i == len(sa) and j == len(sb) and k == len(sc):
            return 0.0 if not remaining else neg_inf
        best = neg_inf
        for di, dj, dk in _MOVES:
            ni, nj, nk = i + di, j + dj, k + dk
            if ni > len(sa) or nj > len(sb) or nk > len(sc):
                continue
            tail = go(ni, nj, nk, remaining)
            if tail == neg_inf:
                continue
            ca = sa[i] if di else GAP_CHAR
            cb = sb[j] if dj else GAP_CHAR
            cc = sc[k] if dk else GAP_CHAR
            cand = scheme.column_score(ca, cb, cc) + tail
            if cand > best:
                best = cand
        return best

    return go(0, 0, 0, frozenset(anchors))


class TestModel:
    def test_coercion_accepts_tuples_dicts_anchors(self):
        got = as_anchors(
            [(0, 1, 2, 3), {"i": 4, "j": 4, "k": 4, "length": 1}, Anchor(9, 9, 9, 2)]
        )
        assert got == (Anchor(0, 1, 2, 3), Anchor(4, 4, 4, 1), Anchor(9, 9, 9, 2))

    @pytest.mark.parametrize(
        "bad",
        [
            (0, 1, 2),  # wrong arity
            (0, 1, 2, 0),  # zero length
            (-1, 0, 0, 1),  # negative offset
            (0.5, 0, 0, 1),  # non-int
            (True, 0, 0, 1),  # bool is not an offset
            "0,0,0,1",  # not a sequence of ints
        ],
    )
    def test_coercion_rejects(self, bad):
        with pytest.raises((TypeError, ValueError)):
            as_anchors([bad])

    def test_validate_chain_bounds(self):
        with pytest.raises(ValueError, match="runs past"):
            validate_chain(as_anchors([(5, 0, 0, 3)]), (6, 6, 6))

    def test_validate_chain_inconsistent(self):
        # second anchor starts before the first ends on the j axis
        with pytest.raises(ValueError, match="consistent"):
            validate_chain(
                as_anchors([(0, 0, 0, 3), (4, 2, 4, 1)]), (8, 8, 8)
            )

    def test_validate_chain_sorts_and_allows_touching(self):
        chain = validate_chain(
            as_anchors([(3, 3, 3, 2), (0, 0, 0, 3)]), (8, 8, 8)
        )
        assert chain == (Anchor(0, 0, 0, 3), Anchor(3, 3, 3, 2))

    def test_normalize_empty_is_empty_tuple(self):
        assert normalize_constraints(None, (4, 4, 4)) == ()
        assert normalize_constraints((), (4, 4, 4)) == ()


class TestChain:
    def test_decompose_alternates_and_covers(self):
        dims = (10, 10, 10)
        anchors = as_anchors([(2, 2, 2, 3), (7, 7, 7, 2)])
        parts = decompose(anchors, dims)
        assert isinstance(parts[0], Segment) and isinstance(parts[-1], Segment)
        segs = [p for p in parts if isinstance(p, Segment)]
        got_anchors = [p for p in parts if isinstance(p, Anchor)]
        assert got_anchors == list(anchors)
        assert len(segs) == len(anchors) + 1
        assert segs[0].start == (0, 0, 0) and segs[-1].end == dims

    def test_max_subcube_shrinks_with_anchors(self):
        dims = (100, 100, 100)
        anchors = as_anchors([(50, 50, 50, 10)])
        sub = max_subcube_dims(anchors, dims)
        assert sub == (50, 50, 50)
        assert max_subcube_dims((), dims) == dims
        assert chain_cells(anchors, dims) < (101) ** 3
        assert chain_coverage(anchors, dims) == pytest.approx(0.1)


class TestConstrainedOptimality:
    """Constrained results equal the brute-force constrained optimum."""

    CASES = [
        (("GATTACA", "GATCA", "GATTA"), [(0, 0, 0, 3)]),
        (("GATTACA", "GATCA", "GATTA"), [(1, 1, 1, 2), (5, 4, 4, 1)]),
        (("ACGT", "ACGT", "ACGT"), [(0, 0, 0, 4)]),
        (("ACGTA", "AGTA", "ACTA"), [(3, 2, 2, 2)]),
        (("AAAA", "AAA", "AA"), [(2, 1, 0, 2)]),
    ]

    @pytest.mark.parametrize("seqs,raw", CASES)
    def test_matches_bruteforce(self, dna_scheme, seqs, raw):
        anchors = as_anchors(raw)
        want = constrained_bruteforce(*seqs, dna_scheme, anchors)
        aln = align3(*seqs, dna_scheme, constraints=raw)
        assert aln.score == pytest.approx(want)
        assert dna_scheme.sp_score(aln.rows) == pytest.approx(aln.score)
        assert aln.sequences() == tuple(seqs)
        assert aln.meta["anchor"]["mode"] == "constrained"

    @settings(deadline=None, max_examples=30)
    @given(
        st.tuples(
            st.text(alphabet="ACGT", min_size=2, max_size=4),
            st.text(alphabet="ACGT", min_size=2, max_size=4),
            st.text(alphabet="ACGT", min_size=2, max_size=4),
        ),
        st.data(),
    )
    def test_property_random_anchor(self, dna_scheme, seqs, data):
        n = min(len(s) for s in seqs)
        length = data.draw(st.integers(1, n))
        i = data.draw(st.integers(0, len(seqs[0]) - length))
        j = data.draw(st.integers(0, len(seqs[1]) - length))
        k = data.draw(st.integers(0, len(seqs[2]) - length))
        anchors = as_anchors([(i, j, k, length)])
        want = constrained_bruteforce(*seqs, dna_scheme, anchors)
        aln = align3(*seqs, dna_scheme, constraints=[(i, j, k, length)])
        assert aln.score == pytest.approx(want)
        assert dna_scheme.sp_score(aln.rows) == pytest.approx(aln.score)

    def test_constraint_can_cost_score(self, dna_scheme):
        # Forcing a mismatch column can only lower the optimum.
        seqs = ("GATTACA", "GATCA", "GATTA")
        free = align3(*seqs, dna_scheme)
        forced = align3(*seqs, dna_scheme, constraints=[(6, 0, 0, 1)])
        assert forced.score <= free.score

    def test_constraints_reject_affine(self, affine_dna_scheme):
        with pytest.raises(ValueError, match="linear gap"):
            align3("ACGT", "ACGT", "ACGT", affine_dna_scheme,
                   constraints=[(0, 0, 0, 2)])


class TestBitIdentity:
    """Empty-chain paths reproduce every exact engine bit for bit."""

    def _battery(self):
        return [
            ("", "", ""),
            ("A", "", "C"),
            ("GATTACA", "GATCA", "GATTA"),
            tuple(mutated_family(16, seed=311)),
        ]

    def test_empty_constraints_identical(self, dna_scheme):
        for seqs in self._battery():
            want = align3(*seqs, dna_scheme, method="dp3d")
            for probe in (
                align3(*seqs, dna_scheme, constraints=()),
                align3(*seqs, dna_scheme, constraints=None),
                align3(*seqs, dna_scheme, method="anchored"),
            ):
                assert probe.rows == want.rows
                assert probe.score == want.score
            for engine in EXACT_ENGINES[1:]:
                other = align3(*seqs, dna_scheme, method=engine)
                assert other.rows == want.rows
                assert other.score == want.score

    def test_no_constraints_means_no_anchor_meta(self, dna_scheme):
        aln = align3("GATTACA", "GATCA", "GATTA", dna_scheme, constraints=())
        assert "anchor" not in aln.meta

    def test_anchored_fallback_marks_meta(self, dna_scheme):
        aln = align3("GATTACA", "GATCA", "GATTA", dna_scheme, method="anchored")
        anchor = aln.meta["anchor"]
        assert anchor["mode"] == "anchored"
        assert anchor["anchors"] == 0
        assert anchor["fallback"]


class TestDiscovery:
    def test_high_identity_yields_chain(self, dna_scheme):
        seqs = mutated_family(
            300,
            model=MutationModel(
                substitution=0.02, insertion=0.005, deletion=0.005
            ),
            seed=4242,
        )
        anchors, info = discover_anchors(*seqs)
        assert anchors, info
        assert info["coverage"] >= info["min_coverage"]
        # the discovered chain really is a valid chain
        validate_chain(anchors, tuple(len(s) for s in seqs))
        # and it lies on an optimal path: anchored == exact optimum
        anchored = align3(*seqs, dna_scheme, method="anchored")
        exact = align3(*seqs, dna_scheme, method="pruned")
        assert anchored.score == exact.score
        assert anchored.meta["anchor"]["anchors"] == len(anchors)

    def test_low_identity_falls_back(self):
        seqs = (
            mutated_family(120, seed=1)[0],
            mutated_family(120, seed=2)[0],
            mutated_family(120, seed=3)[0],
        )
        anchors, info = discover_anchors(*seqs)
        assert anchors == ()
        assert info["reason"]

    def test_short_inputs_fall_back(self):
        anchors, info = discover_anchors("ACGT", "ACGT", "ACGT")
        assert anchors == ()

    def test_discovery_is_deterministic(self):
        seqs = mutated_family(200, seed=777)
        a1, _ = discover_anchors(*seqs)
        a2, _ = discover_anchors(*seqs)
        assert a1 == a2


class TestCacheKeys:
    def test_unconstrained_key_unchanged(self, dna_scheme):
        seqs = ("GATTACA", "GATCA", "GATTA")
        base = request_key(seqs, dna_scheme, "global", "exact")
        assert request_key(
            seqs, dna_scheme, "global", "exact", constraints=None
        ) == base
        assert request_key(
            seqs, dna_scheme, "global", "exact", constraints=()
        ) == base

    def test_constrained_key_differs(self, dna_scheme):
        seqs = ("GATTACA", "GATCA", "GATTA")
        base = request_key(seqs, dna_scheme, "global", "exact")
        con = request_key(
            seqs, dna_scheme, "global", "exact", constraints=[(0, 0, 0, 3)]
        )
        other = request_key(
            seqs, dna_scheme, "global", "exact", constraints=[(0, 0, 0, 2)]
        )
        assert len({base, con, other}) == 3


class TestSelection:
    def test_kmer_sets_memoized_per_call(self, monkeypatch):
        import repro.core.api as api

        calls = []
        real = api._kmer_set

        def counting(seq, k):
            calls.append(seq)
            return real(seq, k)

        monkeypatch.setattr(api, "_kmer_set", counting)
        s = "ACGTACGTACGTACGTACGT"
        api._min_pairwise_identity(s, s, s)
        # identical sequences share one k-mer set computation
        assert len(calls) == 1


class TestDegradePricing:
    def test_anchors_reprice_dims(self):
        dims = (2000, 2000, 2000)
        full = estimate_bytes("wavefront", dims)
        anchored = estimate_bytes(
            "wavefront", dims, anchors=[(995, 995, 995, 10)]
        )
        assert anchored < full / 3
        assert estimate_bytes("anchored", dims) == estimate_bytes(
            "wavefront", dims
        )


class TestPlumbing:
    SEQS = ("GATTACA", "GATCA", "GATTA")

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "reqs.jsonl"
        path.write_text(
            json.dumps(
                {"seqs": list(self.SEQS), "constraints": [[0, 0, 0, 3]]}
            )
            + "\n"
            + json.dumps({"seqs": list(self.SEQS)})
            + "\n"
        )
        reqs = requests_from_jsonl(path)
        assert reqs[0].constraints == ((0, 0, 0, 3),)
        assert reqs[1].constraints is None

    def test_jsonl_bad_constraints_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"seqs": list(self.SEQS), "constraints": [[1, 2]]})
            + "\n"
        )
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            requests_from_jsonl(path)

    def test_parse_align_items_constraints(self):
        reqs = parse_align_items(
            [{"seqs": list(self.SEQS), "constraints": [[0, 0, 0, 3]]}]
        )
        assert reqs[0].constraints == ((0, 0, 0, 3),)
        with pytest.raises(protocol.BadRequest, match="request 0"):
            parse_align_items(
                [{"seqs": list(self.SEQS), "constraints": [[0, 0, 0, 0]]}]
            )

    def test_routing_keys_differ_with_constraints(self, dna_scheme):
        plain = AlignmentRequest(seqs=self.SEQS, scheme=dna_scheme)
        con = AlignmentRequest(
            seqs=self.SEQS, scheme=dna_scheme, constraints=((0, 0, 0, 3),)
        )
        k_plain, k_con = routing_keys([plain, con])
        assert k_plain != k_con

    def test_estimate_cells_chain_costing(self):
        full = estimate_cells(self.SEQS)
        chained = estimate_cells(self.SEQS, ((0, 0, 0, 3),))
        assert 0 < chained < full
        # invalid chain falls back to the full lattice, never raises
        assert estimate_cells(self.SEQS, ((100, 0, 0, 3),)) == full

    def test_scheduler_constrained_batch(self, dna_scheme):
        want = constrained_bruteforce(
            *self.SEQS, dna_scheme, as_anchors([(0, 0, 0, 3)])
        )
        cache = ResultCache()
        reqs = [
            AlignmentRequest(seqs=self.SEQS, scheme=dna_scheme),
            AlignmentRequest(
                seqs=self.SEQS, scheme=dna_scheme,
                constraints=((0, 0, 0, 3),),
            ),
        ]
        with BatchScheduler(cache=cache, workers=1) as sched:
            cold = sched.run(reqs)
            warm = sched.run(reqs)
        assert cold.results[1].alignment.score == pytest.approx(want)
        assert cold.results[1].alignment.meta["anchor"]["mode"] == "constrained"
        # constrained and unconstrained results never alias in the cache
        assert cold.results[0].alignment.rows != () or True
        assert warm.results[1].source == "memory_hit"
        assert warm.results[1].alignment.rows == cold.results[1].alignment.rows

    def test_scheduler_constrained_requires_global(self, dna_scheme):
        with BatchScheduler(cache=ResultCache(), workers=1) as sched:
            with pytest.raises(ValueError, match="global"):
                sched.run(
                    [
                        AlignmentRequest(
                            seqs=self.SEQS,
                            scheme=dna_scheme,
                            mode="local",
                            constraints=((0, 0, 0, 3),),
                        )
                    ]
                )

    def _fasta(self, tmp_path):
        path = tmp_path / "triple.fasta"
        path.write_text(
            "".join(f">s{i}\n{s}\n" for i, s in enumerate(self.SEQS))
        )
        return str(path)

    def test_cli_constraints(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "align",
                self._fasta(tmp_path),
                "--constraints",
                "[[0, 0, 0, 3]]",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "mode=constrained" in err

    def test_cli_bad_constraints(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            ["align", self._fasta(tmp_path), "--constraints", "not json"]
        )
        assert rc == 2


class TestObs:
    def test_record_anchor_metrics(self, dna_scheme):
        seqs = mutated_family(
            200,
            model=MutationModel(
                substitution=0.02, insertion=0.005, deletion=0.005
            ),
            seed=99,
        )
        with metrics.collect() as reg:
            aln = align3(*seqs, dna_scheme, method="anchored")
        s = reg.summary()
        anchor = aln.meta["anchor"]
        assert s["anchored_runs"] == 1.0
        assert s["anchor_chain_coverage"] == pytest.approx(anchor["coverage"])
        engines = anchor["engines"]
        for engine, count in engines.items():
            assert s[f"anchor_subcube_{engine}"] == float(count)
