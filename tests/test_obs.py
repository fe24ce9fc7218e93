"""Tests for the observability layer (repro.obs)."""

import json
import os

import pytest

from repro.core.affine import align3_affine, score3_affine
from repro.core.scoring import default_scheme_for
from repro.core.wavefront import align3_wavefront
from repro.obs import hooks, metrics, trace
from repro.obs.report import render_metrics, render_report
from repro.obs.trace import TraceRecorder, read_trace
from repro.parallel.blocks import align3_blocks
from repro.parallel.executor import fork_available
from repro.seqio.alphabet import DNA
from repro.seqio.generate import mutated_family


@pytest.fixture
def tracing(tmp_path):
    """Install a recorder for the duration of one test, yielding its path."""
    path = tmp_path / "trace.jsonl"
    recorder = TraceRecorder(path)
    trace.install(recorder)
    try:
        yield path
    finally:
        trace.uninstall()
        recorder.close()


class TestSpans:
    def test_noop_when_disabled(self, tmp_path):
        assert not trace.enabled
        with trace.span("anything") as s:
            pass
        # The shared null span: no sid, no record, no recorder needed.
        assert not hasattr(s, "sid")

    def test_nesting_links_parent_sid(self, tracing):
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        trace.flush()
        spans = {r["name"]: r for r in read_trace(tracing)}
        assert spans["inner"]["parent"] == spans["outer"]["sid"]
        assert spans["outer"]["parent"] is None
        # The inner span closes first and nests inside the outer window.
        assert spans["outer"]["t0"] <= spans["inner"]["t0"]
        assert spans["inner"]["t1"] <= spans["outer"]["t1"]

    def test_attributes_recorded(self, tracing):
        with trace.span("work", method="wavefront", n=3):
            pass
        trace.flush()
        (rec,) = read_trace(tracing)
        assert rec["method"] == "wavefront" and rec["n"] == 3

    def test_stack_unwinds_on_exception(self, tracing):
        with pytest.raises(RuntimeError):
            with trace.span("outer"):
                with trace.span("inner"):
                    raise RuntimeError("boom")
        # A fresh span after the exception must be parentless again.
        with trace.span("after"):
            pass
        trace.flush()
        spans = {r["name"]: r for r in read_trace(tracing)}
        assert spans["after"]["parent"] is None

    def test_event_record(self, tracing):
        trace.event("marker", stage=2)
        trace.flush()
        (rec,) = read_trace(tracing)
        assert rec["type"] == "event" and rec["stage"] == 2


class TestRecorder:
    def test_truncated_line_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type":"event","name":"ok","pid":1,"t":0}\n{"trunc')
        records = read_trace(path)
        assert len(records) == 1 and records[0]["name"] == "ok"

    def test_flush_before_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceRecorder(path) as rec:
            rec.emit({"type": "event", "name": "x", "pid": 0, "t": 0})
            # Below the auto-flush threshold: nothing on disk yet.
            assert path.read_text() == ""
        assert len(read_trace(path)) == 1

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_forked_workers_merge_into_one_file(self, tracing, dna_scheme):
        seqs = mutated_family(18, seed=5)
        aln = align3_blocks(*seqs, dna_scheme, workers=3)
        trace.flush()
        records = read_trace(tracing)
        pids = {r["pid"] for r in records}
        assert len(pids) >= 2  # parent plus at least one forked child
        workers = [r for r in records if r["type"] == "worker"]
        assert {w["worker"] for w in workers} == {0, 1, 2}
        # Every line parsed back cleanly (no interleaved partial writes).
        raw = [ln for ln in tracing.read_text().splitlines() if ln]
        assert len(raw) == len(records)
        for ln in raw:
            json.loads(ln)
        assert aln.score == pytest.approx(
            align3_wavefront(*seqs, dna_scheme).score
        )


class TestHistogram:
    def test_bucketing_edges(self):
        h = metrics.Histogram(bounds=(1.0, 10.0, 100.0))
        h.observe(0.5)  # below first edge -> bucket 0
        h.observe(1.0)  # exactly on an edge -> inclusive, bucket 0
        h.observe(1.5)  # first bucket above edge 1 -> bucket 1
        h.observe(10.0)  # inclusive again -> bucket 1
        h.observe(100.0)  # last bounded bucket
        h.observe(101.0)  # overflow
        assert h.counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.min == 0.5 and h.max == 101.0
        assert h.mean == pytest.approx((0.5 + 1 + 1.5 + 10 + 100 + 101) / 6)

    def test_empty_snapshot(self):
        snap = metrics.Histogram().snapshot()
        assert snap["count"] == 0 and snap["min"] == 0.0 and snap["max"] == 0.0

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="sorted"):
            metrics.Histogram(bounds=(10.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            metrics.Histogram(bounds=())


class TestRegistry:
    def test_instruments_created_on_first_use(self):
        reg = metrics.MetricsRegistry()
        reg.counter("c").inc(2)
        reg.counter("c").inc()
        reg.gauge("g").set(5)
        reg.gauge("g").max_update(3)  # lower value does not win
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3.0
        assert snap["gauges"]["g"] == 5.0

    def test_summary_flattens_histograms(self):
        reg = metrics.MetricsRegistry()
        reg.histogram("h").observe(4)
        reg.histogram("h").observe(6)
        s = reg.summary()
        assert s["h_count"] == 2.0
        assert s["h_mean"] == pytest.approx(5.0)
        assert s["h_max"] == 6.0

    def test_collect_restores_prior_state(self):
        assert not metrics.enabled
        with metrics.collect() as outer:
            outer.counter("n").inc()
            with metrics.collect() as inner:
                inner.counter("n").inc(10)
            # Inner block did not leak into the outer registry...
            assert outer.counter("n").value == 1.0
            # ...and the outer registry is active again.
            assert metrics.registry() is outer
        assert not metrics.enabled


class TestEngineIntegration:
    def test_disabled_observability_is_bit_identical(self, dna_scheme, tmp_path):
        seqs = mutated_family(16, seed=11)
        plain = align3_wavefront(*seqs, dna_scheme)

        recorder = TraceRecorder(tmp_path / "t.jsonl")
        trace.install(recorder)
        try:
            with metrics.collect():
                traced = align3_wavefront(*seqs, dna_scheme)
        finally:
            trace.uninstall()
            recorder.close()
        after = align3_wavefront(*seqs, dna_scheme)

        assert traced.rows == plain.rows and traced.score == plain.score
        assert after.rows == plain.rows and after.score == plain.score

    def test_sweep_metrics_collected(self, dna_scheme):
        seqs = mutated_family(14, seed=3)
        with metrics.collect() as reg:
            align3_wavefront(*seqs, dna_scheme)
        s = reg.summary()
        n1, n2, n3 = (len(x) for x in seqs)
        assert s["cells_computed"] == (n1 + 1) * (n2 + 1) * (n3 + 1)
        assert s["sweeps"] == 1.0
        assert s["cells_per_s"] > 0
        assert s["peak_plane_bytes"] > 0
        assert s["plane_cells_count"] == n1 + n2 + n3 + 1

    def test_affine_sweep_recorded(self, dna_scheme, tracing):
        scheme = dna_scheme.with_gaps(gap=-2.0, gap_open=-8.0)
        seqs = mutated_family(12, seed=5)
        n1, n2, n3 = (len(x) for x in seqs)
        cells = (n1 + 1) * (n2 + 1) * (n3 + 1)
        with metrics.collect() as reg:
            aln = align3_affine(*seqs, scheme)
        s = reg.summary()
        assert s["cells_computed"] == cells and s["sweeps"] == 1.0
        assert s["cells_per_s"] > 0
        # Four rotating planes of 8 states, one int8 slab per move.
        assert s["peak_plane_bytes"] == 4 * 8 * (n1 + 2) * (n2 + 2) * 8
        assert s["move_cube_bytes"] == aln.meta["move_store_bytes"]
        assert aln.meta["move_store_bytes"] == 7 * cells
        score3_affine(*seqs, scheme)  # a score-only sweep stores no moves
        trace.flush()
        sweeps = [r for r in read_trace(tracing) if r["type"] == "sweep"]
        assert [(r["engine"], r["cells"]) for r in sweeps] == [
            ("affine", cells),
            ("affine", cells),
        ]
        assert [r["move_cube_bytes"] for r in sweeps] == [7 * cells, 0]
        assert "affine" in render_report(tracing)

    def test_hooks_active_tracks_both_flags(self):
        assert not hooks.active()
        with metrics.collect():
            assert hooks.active()
        assert not hooks.active()


class TestReport:
    def _capture(self, tmp_path, dna_scheme):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(path)
        trace.install(recorder)
        try:
            align3_wavefront(*mutated_family(15, seed=2), dna_scheme)
        finally:
            trace.uninstall()
            recorder.close()
        return path

    def test_report_sections(self, tmp_path, dna_scheme):
        path = self._capture(tmp_path, dna_scheme)
        text = render_report(path)
        assert "phases" in text and "wavefront.sweep" in text
        assert "sweeps" in text and "Mcells/s" in text
        assert "planes" in text

    def test_plane_binning(self, tmp_path, dna_scheme):
        path = self._capture(tmp_path, dna_scheme)
        binned = render_report(path, plane_bins=5)
        per_plane = render_report(path, plane_bins=0)
        # 46 planes collapse to at most 5 rows when binned, one row each
        # when not; the unbinned report is strictly longer.
        assert len(per_plane.splitlines()) > len(binned.splitlines())

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert "no records" in render_report(path)

    def test_render_metrics(self):
        reg = metrics.MetricsRegistry()
        reg.counter("cells_computed").inc(1000)
        reg.histogram("plane_cells").observe(50)
        text = render_metrics(reg.snapshot())
        assert "cells_computed" in text and "plane_cells" in text
        assert render_metrics(metrics.MetricsRegistry().snapshot()) == (
            "no metrics collected"
        )
