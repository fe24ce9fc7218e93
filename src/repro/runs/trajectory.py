"""Perf-trajectory helpers: kernel-row extraction and rolling medians.

The trajectory discipline: a regression gate should compare a fresh
measurement against the *recent history of this machine*, not against
one lucky committed snapshot. These helpers give
``tools/check_perf.py --trajectory`` (and the trend renderer) the
pieces:

* :func:`kernel_metrics` — flatten a ``bench-kernel/2`` benchmark
  document into the flat metric payload a run row carries;
* :func:`seed_from_baseline` — migrate the committed
  ``BENCH_kernel.json`` snapshot into an empty store as the first
  trajectory row (fingerprint id :data:`~repro.runs.record.BASELINE_FP`,
  so it seeds trends but never pollutes same-machine gating);
* :func:`trajectory` / :func:`trajectory_median` — the last N
  same-fingerprint values of one metric and their rolling median, with
  ``None`` signalling "trajectory too thin, fall back to the baseline".
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Mapping

from repro.runs.record import BASELINE_FP, RunRecord, config_hash
from repro.runs.store import RunStore

#: Kind of rows holding real plane-kernel benchmark measurements — the
#: rows the perf trajectory is made of. ``check_perf`` gate-outcome rows
#: use kind ``"check_perf"`` and are never gated against.
KERNEL_KIND = "bench_kernel"

#: Schema tag of the committed kernel baseline document.
KERNEL_BASELINE_SCHEMA = "bench-kernel/2"


def default_baseline_path() -> pathlib.Path:
    """``BENCH_kernel.json`` next to the run store's default location."""
    from repro.runs.store import default_runs_path

    return default_runs_path().parent / "BENCH_kernel.json"


def kernel_metrics(doc: Mapping[str, Any]) -> dict[str, float]:
    """Flatten a ``bench-kernel/2`` result document into run-row metrics."""
    small, large = doc["small_repeated"], doc["large_sweep"]
    metrics = {
        "small_speedup": float(small["speedup"]),
        "large_speedup": float(large["speedup"]),
        "small_cells_per_s": float(small["new_cells_per_s"]),
        "large_cells_per_s": float(large["new_cells_per_s"]),
    }
    hirschberg = doc.get("hirschberg_e2e")
    if hirschberg:
        metrics["hirschberg_cells_per_s"] = float(
            hirschberg["cube_cells_per_s"]
        )
        metrics["hirschberg_seconds"] = float(hirschberg["seconds"])
    # Documents written before the pruned regime existed lack this
    # section; .get keeps old trajectory rows loadable.
    high = doc.get("high_similarity")
    if high:
        metrics["pruned_speedup"] = float(high["speedup"])
        metrics["pruned_kept_fraction"] = float(high["kept_fraction"])
    # Likewise for documents predating the block-tiled scaling curve.
    scaling = doc.get("scaling")
    if scaling:
        metrics["scaling_speedup"] = float(scaling["speedup"])
        # The parallel engine against the serial sweep (no floor; absent
        # from documents written before it was recorded).
        if "serial_seconds" in scaling:
            metrics["scaling_serial_seconds"] = float(
                scaling["serial_seconds"]
            )
            for w, point in scaling["curve"].items():
                metrics[f"scaling_serial_speedup_w{w}"] = float(
                    point["serial_speedup"]
                )
                metrics[f"scaling_efficiency_w{w}"] = float(
                    point["efficiency"]
                )
            for n, point in scaling["crossover"].items():
                metrics[f"crossover_serial_speedup_w2_n{n}"] = float(
                    point["serial_speedup"]
                )
    # And for documents predating the affine kernel section.
    affine = doc.get("affine")
    if affine:
        metrics["affine_speedup"] = float(affine["speedup"])
    anchored = doc.get("long_anchored")
    if anchored:
        metrics["anchored_seconds"] = float(anchored["seconds"])
        metrics["anchored_coverage"] = float(anchored["coverage"])
        metrics["anchored_cells_per_s"] = float(
            anchored["dense_equiv_cells_per_s"]
        )
    return metrics


def seed_from_baseline(
    store: RunStore, baseline_path: Any = None
) -> RunRecord | None:
    """Migrate ``BENCH_kernel.json`` into ``store`` if it has no kernel rows.

    Idempotent: a store that already holds any ``bench_kernel`` row is
    left untouched. Returns the migrated record, or None when nothing
    was (or could be) seeded. The committed file stays in place as the
    machine-neutral acceptance floor; the migrated row only guarantees
    the *trend* view is never empty on a fresh checkout.
    """
    if store.records(kind=KERNEL_KIND):
        return None
    path = (
        default_baseline_path()
        if baseline_path is None
        else pathlib.Path(baseline_path)
    )
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if doc.get("schema") != KERNEL_BASELINE_SCHEMA:
        return None
    try:
        metrics = kernel_metrics(doc)
    except (KeyError, TypeError, ValueError):
        return None
    record = RunRecord(
        kind=KERNEL_KIND,
        config=dict(doc.get("config") or {}),
        metrics=metrics,
        wall_s=0.0,
        t=0.0,  # the committed snapshot is deliberately timestamp-free
        fingerprint={"source": path.name},
        fp=BASELINE_FP,
        config_hash=config_hash(doc.get("config")),
        git_rev=None,
        git_dirty=False,
        notes={"migrated_from": path.name},
    )
    store.append(record)
    return record


def rolling_median(values: list[float]) -> float:
    """Median of ``values`` (mean of the middle pair for even counts)."""
    if not values:
        raise ValueError("median of an empty trajectory")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def trajectory(
    store: RunStore,
    metric: str,
    *,
    kind: str = KERNEL_KIND,
    fp: str | None = None,
    window: int = 5,
) -> list[float]:
    """The last ``window`` finite values of ``metric`` from same-``fp``
    rows of ``kind`` (``fp=None`` means this machine's fingerprint)."""
    from repro.runs.record import fingerprint_id

    if fp is None:
        fp = fingerprint_id()
    values: list[float] = []
    for rec in store.records(kind=kind, fp=fp):
        value = rec.metric(metric)
        if value is not None and value == value:  # drop NaN
            values.append(value)
    return values[-window:] if window >= 0 else values


def trajectory_median(
    store: RunStore,
    metric: str,
    *,
    kind: str = KERNEL_KIND,
    fp: str | None = None,
    window: int = 5,
    min_rows: int = 3,
) -> tuple[float | None, list[float]]:
    """``(median, values)`` over the trajectory window; the median is
    ``None`` while fewer than ``min_rows`` rows exist — the caller's
    signal to fall back to the committed baseline."""
    values = trajectory(store, metric, kind=kind, fp=fp, window=window)
    if len(values) < min_rows:
        return None, values
    return rolling_median(values), values
