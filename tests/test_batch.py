"""Unit tests for the batch scheduler and request IO (repro.batch)."""

import json
import multiprocessing

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.batch import (
    AlignmentRequest,
    BatchScheduler,
    read_requests,
    requests_from_fasta,
    requests_from_jsonl,
    run_batch,
)
from repro.cache import ResultCache, comparable_meta
from repro.core.api import AVAILABLE_METHODS, align3
from repro.core.scoring import default_scheme_for
from repro.seqio.alphabet import DNA, PROTEIN
from repro.seqio.fasta import write_fasta
from repro.seqio.generate import mutated_family

T1 = ("GATTACA", "GATCA", "GTTACA")
T2 = ("ACGTAC", "ACTAC", "AGTAC")
T1_PERM = (T1[1], T1[0], T1[2])
FAMILY_40 = tuple(mutated_family(40, seed=3))

#: Every global method but ``anchored``, whose chain solver
#: ``tests/test_anchor.py`` covers.
GLOBAL_METHODS = tuple(m for m in AVAILABLE_METHODS if m != "anchored")
SCHEMES = {
    "dna": default_scheme_for(DNA),
    "protein": default_scheme_for(PROTEIN),
}
LETTERS = {"dna": "ACGT", "protein": "ACDEFGHIKLMNPQRSTVWY"}


def _child_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


@st.composite
def scheme_triples(draw):
    """``(alphabet, triple)``: up to 12 residues each, empty included."""
    alphabet = draw(st.sampled_from(sorted(SCHEMES)))
    seq = st.text(alphabet=LETTERS[alphabet], min_size=0, max_size=12)
    return alphabet, draw(st.tuples(seq, seq, seq))


@settings(deadline=None, max_examples=40)
@given(case=scheme_triples())
@example(case=("dna", FAMILY_40))
@example(case=("dna", ("", "", "")))
@example(case=("protein", ("W", "", "WKV")))
def test_batch_matches_align3_every_method(case):
    """Each global method but ``anchored``, at one and two workers:
    the cold compute and the warm re-run's cache hit both return the
    engine, rows and score of ``align3(method=m)``, and the rows score
    that."""
    alphabet, seqs = case
    scheme = SCHEMES[alphabet]
    for method in GLOBAL_METHODS:
        want = align3(*seqs, scheme, method=method)
        req = AlignmentRequest(seqs=seqs, scheme=scheme, method=method)
        for workers in (1, 2):
            with BatchScheduler(cache=ResultCache(), workers=workers) as sched:
                served = sched.run([req]).results + sched.run([req]).results
            assert [r.source for r in served] == ["computed", "memory_hit"]
            for res in served:
                aln = res.alignment
                assert aln.meta["engine"] == want.meta["engine"]
                assert (aln.rows, aln.score) == (want.rows, want.score)
                assert abs(scheme.sp_score(aln.rows) - aln.score) < 1e-9


class TestScheduling:
    def test_results_in_request_order_with_rids(self, dna_scheme):
        reqs = [
            AlignmentRequest(seqs=T1, scheme=dna_scheme, rid="one"),
            AlignmentRequest(seqs=T2, scheme=dna_scheme, rid="two"),
            AlignmentRequest(seqs=T1, scheme=dna_scheme, rid="three"),
        ]
        report = run_batch(reqs, workers=1)
        assert [r.rid for r in report.results] == ["one", "two", "three"]
        assert [r.index for r in report.results] == [0, 1, 2]

    def test_exact_dedup(self, dna_scheme):
        report = run_batch([T1, T1, T1, T2], workers=1)
        assert report.stats.requests == 4
        assert report.stats.computed == 2
        assert report.stats.dedup_hits == 2
        assert report.stats.dedup_ratio == 0.5
        sources = [r.source for r in report.results]
        assert sources == ["computed", "dedup", "dedup", "computed"]
        # duplicates share the score but own their alignment objects
        assert report.results[0].alignment.score == report.results[1].alignment.score
        assert report.results[0].alignment is not report.results[1].alignment

    def test_batch_matches_serial_align3(self, dna_scheme):
        serial = [align3(*t, dna_scheme) for t in (T1, T2)]
        report = run_batch(
            [AlignmentRequest(seqs=t, scheme=dna_scheme) for t in (T1, T2)],
            workers=1,
        )
        for got, want in zip(report.alignments(), serial):
            assert got.rows == want.rows
            assert got.score == want.score

    def test_permutation_reuse_within_batch(self, dna_scheme):
        report = run_batch(
            [
                AlignmentRequest(seqs=T1, scheme=dna_scheme),
                AlignmentRequest(seqs=T1_PERM, scheme=dna_scheme),
            ],
            workers=1,
        )
        assert report.stats.computed == 1
        assert report.stats.permutation_hits == 1
        perm_res = report.results[1]
        assert perm_res.source == "permutation"
        # score-identical by SP symmetry; rows belong to the right seqs
        assert perm_res.alignment.score == report.results[0].alignment.score
        assert perm_res.alignment.sequences() == T1_PERM
        assert perm_res.alignment.meta["permuted_from"] is not None
        assert dna_scheme.sp_score(perm_res.alignment.rows) == pytest.approx(
            perm_res.alignment.score
        )

    def test_cross_batch_memory_reuse(self, dna_scheme):
        cache = ResultCache()
        with BatchScheduler(cache=cache, workers=1) as sched:
            cold = sched.run([AlignmentRequest(seqs=T1, scheme=dna_scheme)])
            warm = sched.run([AlignmentRequest(seqs=T1, scheme=dna_scheme)])
        assert cold.results[0].source == "computed"
        assert warm.results[0].source == "memory_hit"
        assert warm.stats.memory_hits == 1
        # the bit-identity contract for exact hits
        a, b = cold.results[0].alignment, warm.results[0].alignment
        assert a.rows == b.rows
        assert a.score == b.score
        assert comparable_meta(a.meta) == comparable_meta(b.meta)

    def test_cross_batch_permutation_reuse(self, dna_scheme):
        cache = ResultCache()
        with BatchScheduler(cache=cache, workers=1) as sched:
            sched.run([AlignmentRequest(seqs=T1, scheme=dna_scheme)])
            warm = sched.run(
                [AlignmentRequest(seqs=T1_PERM, scheme=dna_scheme)]
            )
        res = warm.results[0]
        assert res.source == "permutation"
        assert res.alignment.sequences() == T1_PERM

    def test_disk_tier_across_schedulers(self, dna_scheme, tmp_path):
        with BatchScheduler(
            cache=ResultCache(cache_dir=tmp_path), workers=1
        ) as sched:
            cold = sched.run([AlignmentRequest(seqs=T1, scheme=dna_scheme)])
        with BatchScheduler(
            cache=ResultCache(cache_dir=tmp_path), workers=1
        ) as sched:
            warm = sched.run([AlignmentRequest(seqs=T1, scheme=dna_scheme)])
        assert warm.results[0].source == "disk_hit"
        assert warm.stats.disk_hits == 1
        a, b = cold.results[0].alignment, warm.results[0].alignment
        assert a.rows == b.rows
        assert a.score == b.score
        assert comparable_meta(a.meta) == comparable_meta(b.meta)

    def test_direct_auto_job_selects_engine_once(self, dna_scheme, monkeypatch):
        import repro.batch.scheduler as scheduler_mod
        import repro.core.api as api_mod

        calls = []
        real = api_mod.select_method

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(out)
            return out

        monkeypatch.setattr(api_mod, "select_method", spy)
        monkeypatch.setattr(scheduler_mod, "select_method", spy)
        # The compute hands align3 the engine the scheduler already chose.
        report = run_batch(
            [AlignmentRequest(seqs=T1, scheme=dna_scheme)], workers=1
        )
        assert len(calls) == 1
        method, selection = calls[0]
        aln = report.results[0].alignment
        assert aln.meta["auto"] == selection
        assert aln.meta["method"] == method

    def test_two_workers_compute_global_triples_in_process(self, dna_scheme):
        before = _child_pids()
        with BatchScheduler(workers=2) as sched:
            report = sched.run(
                [
                    AlignmentRequest(seqs=t, scheme=dna_scheme)
                    for t in (T1, T2, FAMILY_40)
                ]
            )
            assert _child_pids() == before
        assert report.stats.computed == 3
        assert report.stats.pool_jobs == 0

    def test_blocks_request_runs_on_a_pool(self, dna_scheme):
        from repro.core.wavefront import align3_wavefront

        report = run_batch(
            [AlignmentRequest(seqs=T1, scheme=dna_scheme, method="blocks")],
            workers=2,
        )
        assert report.stats.pool_jobs == 1
        got = report.results[0].alignment
        assert got.meta["engine"] == "blocks"
        want = align3_wavefront(*T1, dna_scheme)
        assert (got.rows, got.score) == (want.rows, want.score)

    def test_degenerate_seqs_match_align3(self, dna_scheme):
        report = run_batch(
            [AlignmentRequest(seqs=("", "AC", "GT"), scheme=dna_scheme)],
            workers=1,
        )
        assert report.results[0].alignment.score == align3(
            "", "AC", "GT", dna_scheme
        ).score

    def test_affine_and_explicit_methods_keep_their_engine(
        self, dna_scheme, affine_dna_scheme
    ):
        report = run_batch(
            [
                AlignmentRequest(seqs=T1, scheme=affine_dna_scheme),
                AlignmentRequest(seqs=T1, scheme=dna_scheme, method="dp3d"),
            ],
            workers=1,
        )
        assert report.stats.computed == 2
        assert report.results[0].alignment.meta["method"] == "affine"
        assert report.results[1].alignment.meta["method"] == "dp3d"

    @pytest.mark.parametrize("mode", ["local", "semiglobal"])
    def test_modes_dispatch(self, mode, dna_scheme):
        report = run_batch(
            [AlignmentRequest(seqs=T1, scheme=dna_scheme, mode=mode)],
            workers=1,
        )
        if mode == "local":
            from repro.core.local import align3_local as ref
        else:
            from repro.core.semiglobal import align3_semiglobal as ref
        want = ref(*T1, dna_scheme)
        got = report.results[0].alignment
        assert got.score == want.score
        assert got.rows == want.rows
        assert got.meta["mode"] == mode

    def test_modes_keyed_separately(self, dna_scheme):
        cache = ResultCache()
        with BatchScheduler(cache=cache, workers=1) as sched:
            report = sched.run(
                [
                    AlignmentRequest(seqs=T1, scheme=dna_scheme, mode=m)
                    for m in ("global", "local", "semiglobal")
                ]
            )
        assert report.stats.computed == 3

    def test_plain_tuples_accepted(self):
        report = run_batch([T1, T1], workers=1)
        assert report.stats.computed == 1
        assert report.stats.dedup_hits == 1

    def test_bad_requests_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="three sequences"):
            run_batch([("A", "C")], workers=1)
        with pytest.raises(ValueError, match="unknown mode"):
            run_batch([AlignmentRequest(seqs=T1, mode="sideways")], workers=1)
        with pytest.raises(ValueError, match="unknown method"):
            run_batch([AlignmentRequest(seqs=T1, method="magic")], workers=1)
        with pytest.raises(ValueError, match="single engine"):
            run_batch(
                [AlignmentRequest(seqs=T1, mode="local", method="dp3d")],
                workers=1,
            )
        with pytest.raises(ValueError):
            BatchScheduler(workers=0)

    def test_explicit_scheme_rejects_foreign_residues_before_computing(
        self, dna_scheme
    ):
        # The DNA scheme cannot encode the protein triple; the batch
        # must fail as it is normalised, before the good triple runs.
        cache = ResultCache()
        with pytest.raises(ValueError, match="'M' is not in alphabet 'dna'"):
            run_batch(
                [
                    AlignmentRequest(seqs=T1, scheme=dna_scheme),
                    AlignmentRequest(
                        seqs=("MKV", "MKV", "MK"), scheme=dna_scheme
                    ),
                ],
                cache=cache,
                workers=1,
            )
        assert len(cache) == 0

    def test_empty_batch(self):
        report = run_batch([], workers=1)
        assert report.results == []
        assert report.stats.requests == 0
        assert report.stats.dedup_ratio == 0.0


class TestRequestIO:
    def test_jsonl_both_schemas(self, tmp_path):
        path = tmp_path / "reqs.jsonl"
        path.write_text(
            "\n".join(
                [
                    json.dumps({"seqs": list(T1), "id": "x"}),
                    "# comment",
                    "",
                    json.dumps({"a": T2[0], "b": T2[1], "c": T2[2]}),
                    json.dumps({"seqs": list(T1), "mode": "local"}),
                ]
            )
            + "\n"
        )
        reqs = requests_from_jsonl(path)
        assert [r.seqs for r in reqs] == [T1, T2, T1]
        assert reqs[0].rid == "x"
        assert reqs[1].rid == "req4"  # line number, comments counted
        assert reqs[2].mode == "local"

    def test_jsonl_errors(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            requests_from_jsonl(bad)
        bad.write_text('{"seqs": ["A", "C"]}\n')
        with pytest.raises(ValueError, match="three strings"):
            requests_from_jsonl(bad)
        bad.write_text('{"x": 1}\n')
        with pytest.raises(ValueError, match="needs 'seqs'"):
            requests_from_jsonl(bad)

    def test_fasta_triples(self, tmp_path):
        path = tmp_path / "six.fasta"
        write_fasta(
            path,
            [(f"t{i // 3} member{i % 3}", s) for i, s in enumerate(T1 + T2)],
        )
        reqs = requests_from_fasta(path)
        assert [r.seqs for r in reqs] == [T1, T2]
        assert reqs[0].rid == "t0"

    def test_fasta_wrong_count(self, tmp_path):
        path = tmp_path / "four.fasta"
        write_fasta(path, [(f"s{i}", "ACGT") for i in range(4)])
        with pytest.raises(ValueError, match="multiple of three"):
            requests_from_fasta(path)

    def test_read_requests_dispatch(self, tmp_path):
        jpath = tmp_path / "r.jsonl"
        jpath.write_text(json.dumps({"seqs": list(T1)}) + "\n")
        fpath = tmp_path / "r.fasta"
        write_fasta(fpath, [(f"s{i}", s) for i, s in enumerate(T1)])
        assert read_requests(jpath)[0].seqs == T1
        assert read_requests(fpath)[0].seqs == T1

    def test_read_requests_cli_defaults(self, tmp_path):
        jpath = tmp_path / "r.jsonl"
        jpath.write_text(
            json.dumps({"seqs": list(T1)})
            + "\n"
            + json.dumps({"seqs": list(T2), "mode": "local"})
            + "\n"
        )
        reqs = read_requests(jpath, mode="semiglobal")
        # CLI default applies where the line didn't say otherwise
        assert reqs[0].mode == "semiglobal"
        assert reqs[1].mode == "local"


class TestStreaming:
    """run(on_result=...) / run_stream: results emitted as they land."""

    def test_on_result_sees_every_result_with_alignment(self, dna_scheme):
        reqs = [
            AlignmentRequest(seqs=t, scheme=dna_scheme)
            for t in (T1, T1, T2, T1_PERM)
        ]
        seen = []
        with BatchScheduler(cache=ResultCache(), workers=1) as sched:
            report = sched.run(reqs, on_result=seen.append)
        assert sorted(r.index for r in seen) == [0, 1, 2, 3]
        assert all(r.alignment is not None for r in seen)
        # plain run() with a callback still returns intact results
        assert all(r.alignment is not None for r in report.results)
        assert len({id(r) for r in seen}) == 4  # each emitted exactly once

    def test_run_stream_releases_alignments_after_emit(self, dna_scheme):
        serial = {t: align3(*t, dna_scheme) for t in (T1, T2)}
        reqs = [
            AlignmentRequest(seqs=t, scheme=dna_scheme, rid=f"r{i}")
            for i, t in enumerate((T1, T2, T1))
        ]
        emitted = {}
        def emit(res):
            # the alignment is only valid during the callback
            assert res.alignment is not None
            emitted[res.rid] = (
                res.alignment.rows, res.alignment.score, res.source
            )
        with BatchScheduler(cache=ResultCache(), workers=1) as sched:
            report = sched.run_stream(reqs, emit)
        assert set(emitted) == {"r0", "r1", "r2"}
        for i, t in enumerate((T1, T2, T1)):
            rows, score, _source = emitted[f"r{i}"]
            assert rows == serial[t].rows
            assert score == serial[t].score
        # after the run every alignment has been released
        assert all(r.alignment is None for r in report.results)
        assert report.stats.computed == 2
        assert report.stats.dedup_hits == 1

    def test_run_stream_and_buffered_run_agree_on_stats(self, dna_scheme):
        reqs = [
            AlignmentRequest(seqs=t, scheme=dna_scheme)
            for t in (T1, T2, T1, T1_PERM, T2)
        ]
        with BatchScheduler(cache=ResultCache(), workers=1) as sched:
            buffered = sched.run(reqs)
        count = 0
        def emit(_res):
            nonlocal count
            count += 1
        with BatchScheduler(cache=ResultCache(), workers=1) as sched:
            streamed = sched.run_stream(reqs, emit)
        assert count == len(reqs)
        assert streamed.stats.computed == buffered.stats.computed
        assert streamed.stats.dedup_hits == buffered.stats.dedup_hits
        assert (
            streamed.stats.permutation_hits
            == buffered.stats.permutation_hits
        )
        sources_s = [r.source for r in streamed.results]
        sources_b = [r.source for r in buffered.results]
        assert sources_s == sources_b

    def test_run_without_callback_unchanged(self, dna_scheme):
        report = run_batch([T1, T2], workers=1)
        assert all(r.alignment is not None for r in report.results)
