"""Render a captured JSONL trace into human-readable tables.

This is the backend of ``repro report``. It aggregates the typed records
written by :mod:`repro.obs.trace` into per-family views:

* **phases** — span durations grouped by name (count/total/mean/share);
* **sweeps** — per-sweep throughput and peak buffer bytes;
* **planes** — per-plane timing, binned over the wavefront index ``d`` so
  a 180-plane sweep renders as a dozen rows (``--planes 0`` for every
  plane);
* **workers** — per ``(engine, pid, worker)`` busy vs barrier-wait time
  and the busy ratio, the load-imbalance signal the parallel engines are
  tuned against;
* **batches** — one row per batch event: dedup ratio and compute
  count from :mod:`repro.batch` (plus **simulated executions** for
  cluster-simulator traces).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

from repro.obs.trace import read_trace
from repro.util.tables import format_table


def _by_type(records: Iterable[dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = defaultdict(list)
    for rec in records:
        grouped[rec.get("type", "?")].append(rec)
    return grouped


def _phase_table(spans: list[dict]) -> str:
    agg: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        agg[str(s.get("name", "?"))].append(float(s.get("dur", 0.0)))
    grand = sum(sum(v) for v in agg.values()) or 1.0
    rows = [
        (
            name,
            len(durs),
            sum(durs),
            sum(durs) / len(durs),
            max(durs),
            100.0 * sum(durs) / grand,
        )
        for name, durs in sorted(
            agg.items(), key=lambda kv: -sum(kv[1])
        )
    ]
    return format_table(
        "phases (span durations by name)",
        ["phase", "count", "total_s", "mean_s", "max_s", "share_%"],
        rows,
    )


def _sweep_table(sweeps: list[dict]) -> str:
    rows = [
        (
            s.get("engine", "?"),
            s.get("pid", 0),
            s.get("cells", 0),
            s.get("seconds", 0.0),
            s.get("cells_per_s", 0.0) / 1e6,
            s.get("peak_plane_bytes", 0),
            s.get("move_cube_bytes", 0),
        )
        for s in sweeps
    ]
    return format_table(
        "sweeps (throughput and peak buffers)",
        ["engine", "pid", "cells", "seconds", "Mcells/s",
         "peak_plane_B", "move_cube_B"],
        rows,
    )


def _plane_table(planes: list[dict], bins: int) -> str:
    per_engine: dict[str, dict[int, list[float]]] = defaultdict(
        lambda: defaultdict(lambda: [0.0, 0.0])
    )
    # Aggregate repeated sweeps (and multiple workers) of the same engine
    # by plane index first. Each record batches one sweep's per-plane cell
    # counts and durations as parallel lists indexed by d.
    for p in planes:
        by_d = per_engine[str(p.get("engine", "?"))]
        for d, (c, dur) in enumerate(
            zip(p.get("cells", []), p.get("durs", []))
        ):
            acc = by_d[d]
            acc[0] += float(c)
            acc[1] += float(dur)
    rows: list[tuple] = []
    for engine, by_d in sorted(per_engine.items()):
        ds = sorted(by_d)
        dmax = ds[-1]
        width = 1 if bins <= 0 else max(1, (dmax + bins) // bins)
        binned: dict[int, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for d in ds:
            b = d // width
            binned[b][0] += 1
            binned[b][1] += by_d[d][0]
            binned[b][2] += by_d[d][1]
        for b in sorted(binned):
            n_planes, cells, dur = binned[b]
            lo, hi = b * width, min(dmax, (b + 1) * width - 1)
            label = str(lo) if lo == hi else f"{lo}-{hi}"
            rows.append(
                (
                    engine,
                    label,
                    int(n_planes),
                    int(cells),
                    dur,
                    (cells / dur / 1e6) if dur > 0 else float("nan"),
                )
            )
    return format_table(
        "planes (time per wavefront index d)",
        ["engine", "d", "planes", "cells", "time_s", "Mcells/s"],
        rows,
    )


def _worker_table(workers: list[dict]) -> str:
    rows = []
    for w in sorted(
        workers,
        key=lambda w: (str(w.get("engine")), w.get("worker", 0), w.get("pid", 0)),
    ):
        busy = float(w.get("busy_s", 0.0))
        wait = float(w.get("wait_s", 0.0))
        total = busy + wait
        rows.append(
            (
                w.get("engine", "?"),
                w.get("pid", 0),
                w.get("worker", 0),
                busy,
                wait,
                busy / total if total > 0 else float("nan"),
                w.get("cells", 0),
            )
        )
    return format_table(
        "workers (busy vs barrier wait)",
        ["engine", "pid", "worker", "busy_s", "wait_s", "busy_ratio", "cells"],
        rows,
    )


def _batch_table(batches: list[dict]) -> str:
    rows = [
        (
            b.get("requests", 0),
            b.get("cache_hits", 0),
            b.get("deduped", 0),
            b.get("computed", 0),
            (b.get("requests", 0) - b.get("computed", 0))
            / b.get("requests", 1)
            if b.get("requests")
            else 0.0,
            b.get("seconds", 0.0),
        )
        for b in batches
    ]
    return format_table(
        "batches (request dedup)",
        ["requests", "cache_hits", "deduped", "computed", "dedup_ratio",
         "wall_s"],
        rows,
    )


def _sim_table(sims: list[dict]) -> str:
    rows = [
        (
            s.get("procs", 0),
            s.get("blocks", 0),
            s.get("messages", 0),
            s.get("comm_bytes", 0) / 1e6,
            s.get("makespan", 0.0),
            s.get("speedup", 0.0),
        )
        for s in sims
    ]
    return format_table(
        "simulated executions",
        ["procs", "blocks", "messages", "comm_MB", "makespan_s", "speedup"],
        rows,
    )


def render_report(path: Any, plane_bins: int = 12) -> str:
    """Aggregate the trace at ``path`` and return the rendered tables."""
    records = read_trace(path)
    if not records:
        return f"trace {path}: no records"
    grouped = _by_type(records)
    sections: list[str] = [
        f"trace {path}: {len(records)} records, "
        f"{len({r.get('pid') for r in records})} process(es)"
    ]
    if grouped.get("span"):
        sections.append(_phase_table(grouped["span"]))
    if grouped.get("sweep"):
        sections.append(_sweep_table(grouped["sweep"]))
    if grouped.get("planes"):
        sections.append(_plane_table(grouped["planes"], plane_bins))
    if grouped.get("worker"):
        sections.append(_worker_table(grouped["worker"]))
    if grouped.get("sim"):
        sections.append(_sim_table(grouped["sim"]))
    batch_events = [
        e for e in grouped.get("event", []) if e.get("name") == "batch"
    ]
    if batch_events:
        sections.append(_batch_table(batch_events))
    return "\n\n".join(sections)


def render_metrics(snapshot: dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as tables (for
    ``--metrics`` output)."""
    sections: list[str] = []
    scalar_rows = [
        (name, value) for name, value in snapshot.get("counters", {}).items()
    ] + [(name, value) for name, value in snapshot.get("gauges", {}).items()]
    if scalar_rows:
        sections.append(
            format_table("metrics", ["name", "value"], scalar_rows)
        )
    hist_rows = []
    for name, h in snapshot.get("histograms", {}).items():
        buckets = " ".join(
            f"<={b:g}:{c}" for b, c in zip(h["bounds"], h["counts"])
        )
        if h["counts"][-1]:
            buckets += f" >{h['bounds'][-1]:g}:{h['counts'][-1]}"
        hist_rows.append((name, h["count"], h["mean"], h["max"], buckets))
    if hist_rows:
        sections.append(
            format_table(
                "histograms",
                ["name", "count", "mean", "max", "buckets"],
                hist_rows,
            )
        )
    return "\n\n".join(sections) if sections else "no metrics collected"
