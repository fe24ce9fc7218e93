#!/usr/bin/env python
"""Guard against plane-kernel performance regressions.

Re-runs ``benchmarks/bench_kernel.py`` with the workload config stored
in the committed baseline (``BENCH_kernel.json``) and fails when the
kernel has lost its edge:

* the **baseline document** must itself satisfy the acceptance
  criteria — ≥ 1.5x speedup over the frozen reference kernel on the
  repeated-small-plane (Hirschberg-style) workload, no regression
  (≥ 1.0x) on the single large sweep, ≥ 5x end-to-end speedup of
  the Carrillo–Lipman-pruned path over the unpruned wavefront on the
  high-similarity workload, the block-tiled engine at least
  matching (≥ 1.0x) the per-plane-barrier reference sweep at ≥ 4 workers on
  the scaling curve, and ≥ 2x for the affine traceback kernel over the
  frozen allocating sweep, summed over n = 50/70/90;
* the **measured speedups** of the current checkout must not regress
  more than ``--tolerance`` (default 20%) below the reference point.

The reference point is the committed baseline by default. With
``--trajectory`` it becomes the **rolling median of the last
``--window`` same-machine-fingerprint ``bench_kernel`` rows** in the
run-record database (``RUNS.jsonl``; see ``docs/observability.md``) —
regressions are then judged against this machine's recent history
rather than one lucky snapshot. While the trajectory is thin (fewer
than ``--min-rows`` rows for this fingerprint) the gate falls back to
the committed baseline, and on a fresh checkout the baseline is first
migrated into the store as the seed row.

Speedup ratios (new kernel vs the frozen in-process reference kernel,
timed back to back) are the primary gate because they are
machine-neutral: a slower CI box scales both sides equally. Absolute
cells/s are printed for the trajectory and enforced only with
``--absolute``, for use on the machine that wrote the baseline.

Usage::

    PYTHONPATH=src python tools/check_perf.py [--repeats 3]
        [--tolerance 0.20] [--absolute] [--update]
        [--trajectory] [--window 5] [--min-rows 3]
        [--update-trajectory] [--runs-file FILE] [--no-record]

``--update`` rewrites ``BENCH_kernel.json`` from the current run after
the gate passes (refresh the baseline when the kernel gets faster);
``--update-trajectory`` appends the current measurement as a
``bench_kernel`` trajectory row after the gate passes. Every invocation
additionally self-records one ``check_perf`` gate-outcome row (disable
with ``--no-record``). Exit status 0 when within tolerance, 1 on
regression (2 on bad arguments or a missing/invalid baseline).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time


def _ensure_importable() -> None:
    try:
        import repro  # noqa: F401
    except ImportError:
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        sys.path.insert(0, str(src))


_ensure_importable()

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks import bench_kernel  # noqa: E402
from repro.runs import (  # noqa: E402
    RunStore,
    fingerprint_id,
    kernel_metrics,
    record_run,
    seed_from_baseline,
    trajectory_median,
)

#: The acceptance floors, enforced on the committed baseline.
SMALL_SPEEDUP_FLOOR = 1.5
LARGE_SPEEDUP_FLOOR = 1.0
#: End-to-end pruned-vs-unpruned on the ≥0.9-identity workload.
PRUNED_SPEEDUP_FLOOR = 5.0
#: Block-tiled vs per-plane-barrier reference at >= 4 workers. The floor is
#: deliberately break-even: on fork-less hosts both engines fall back to
#: the identical serial sweep and the honest ratio is ~1.0; on any host
#: that actually forks, the barrier wall should put this well above it.
SCALING_SPEEDUP_FLOOR = 1.0
#: Affine traceback, tournament kernel vs the frozen allocating sweep,
#: summed over the affine section's sizes.
AFFINE_SPEEDUP_FLOOR = 2.0


def load_baseline() -> dict:
    path = bench_kernel.baseline_path()
    if not path.exists():
        raise FileNotFoundError(
            f"{path.name} not found — generate it with "
            f"'PYTHONPATH=src python benchmarks/bench_kernel.py --write'"
        )
    doc = json.loads(path.read_text())
    if doc.get("schema") != bench_kernel.SCHEMA:
        raise ValueError(
            f"{path.name} schema {doc.get('schema')!r} != "
            f"{bench_kernel.SCHEMA!r} — regenerate with --write"
        )
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="assert the plane kernel has not regressed vs baseline"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed repeats per side (default: baseline config)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="max allowed fractional speedup regression vs the reference",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="also enforce the tolerance on absolute cells/s "
        "(same-machine runs only)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from this run if the gate passes",
    )
    parser.add_argument(
        "--trajectory",
        action="store_true",
        help="gate against the rolling median of recorded "
        "same-fingerprint bench_kernel runs instead of the committed "
        "baseline (falls back to the baseline while the trajectory is "
        "thinner than --min-rows)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=5,
        help="trajectory rows the rolling median is taken over",
    )
    parser.add_argument(
        "--min-rows",
        type=int,
        default=3,
        help="same-fingerprint rows required before the trajectory "
        "replaces the committed baseline",
    )
    parser.add_argument(
        "--update-trajectory",
        action="store_true",
        help="append this run as a bench_kernel trajectory row if the "
        "gate passes",
    )
    parser.add_argument(
        "--runs-file",
        default=None,
        metavar="FILE",
        help="run-record store (default: RUNS.jsonl at the repo root)",
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="skip self-recording the gate outcome as a check_perf row",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0 or (args.repeats is not None and args.repeats < 1):
        parser.error("tolerance must be >= 0 and repeats >= 1")
    if args.window < 1 or args.min_rows < 1:
        parser.error("window and min-rows must be >= 1")

    try:
        baseline = load_baseline()
    except (FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
        print(f"FAIL: {exc}")
        return 2

    base_small = baseline["small_repeated"]["speedup"]
    base_large = baseline["large_sweep"]["speedup"]
    failures: list[str] = []
    if base_small < SMALL_SPEEDUP_FLOOR:
        failures.append(
            f"baseline small-repeated speedup {base_small:.2f}x is below "
            f"the {SMALL_SPEEDUP_FLOOR:.1f}x acceptance floor"
        )
    if base_large < LARGE_SPEEDUP_FLOOR:
        failures.append(
            f"baseline large-sweep speedup {base_large:.2f}x regresses "
            f"the reference kernel"
        )
    base_high = baseline.get("high_similarity")
    if base_high is None:
        failures.append(
            "baseline has no high_similarity section — regenerate it with "
            "'PYTHONPATH=src python benchmarks/bench_kernel.py --write'"
        )
        base_pruned = float("nan")
    else:
        base_pruned = base_high["speedup"]
        if base_pruned < PRUNED_SPEEDUP_FLOOR:
            failures.append(
                f"baseline high-similarity pruned speedup "
                f"{base_pruned:.2f}x is below the "
                f"{PRUNED_SPEEDUP_FLOOR:.1f}x acceptance floor"
            )
    # Unlike the optional legacy sections above, a missing scaling
    # section is a hard failure, not a skipped gate: every
    # bench-kernel/2 document carries one, so its absence means the
    # baseline was hand-edited — failing loudly beats a vacuous pass
    # with the block-tiled engine silently ungated.
    base_scaling = baseline.get("scaling")
    if base_scaling is None:
        failures.append(
            "baseline has no scaling section — the block-tiled engine "
            "gate has no reference; regenerate the baseline with "
            "'PYTHONPATH=src python benchmarks/bench_kernel.py --write'"
        )
        base_scale_speedup = float("nan")
    else:
        base_scale_speedup = base_scaling["speedup"]
        if base_scale_speedup < SCALING_SPEEDUP_FLOOR:
            failures.append(
                f"baseline scaling speedup {base_scale_speedup:.2f}x "
                f"(blocks vs barrier at w="
                f"{base_scaling.get('gate_workers')}) is below the "
                f"{SCALING_SPEEDUP_FLOOR:.1f}x acceptance floor"
            )

    base_affine = baseline.get("affine")
    if base_affine is None:
        failures.append(
            "baseline has no affine section — the affine kernel gate has "
            "no reference"
        )
        base_affine_speedup = float("nan")
    else:
        base_affine_speedup = base_affine["speedup"]
        if base_affine_speedup < AFFINE_SPEEDUP_FLOOR:
            failures.append(
                f"baseline affine traceback speedup "
                f"{base_affine_speedup:.2f}x is below the "
                f"{AFFINE_SPEEDUP_FLOOR:.1f}x acceptance floor"
            )

    store = RunStore(args.runs_file)
    fp = fingerprint_id()
    if args.trajectory:
        # A fresh checkout has no rows yet: migrate the committed
        # baseline as the seed so the trend view is never empty (it
        # carries the sentinel "baseline" fingerprint, so the gate below
        # still falls back to the committed file until real
        # same-machine rows accumulate).
        seed_from_baseline(store, bench_kernel.baseline_path())

    config = dict(baseline["config"])
    if args.repeats is not None:
        config["repeats"] = args.repeats
    t0 = time.perf_counter()
    doc = bench_kernel.run(config)
    wall = time.perf_counter() - t0
    print(bench_kernel.summarise(doc))

    scale = 1.0 - args.tolerance
    gates = [
        ("small_repeated", "small_speedup", "small"),
        ("large_sweep", "large_speedup", "large"),
    ]
    if base_high is not None:
        gates.append(("high_similarity", "pruned_speedup", "pruned"))
    if base_scaling is not None:
        gates.append(("scaling", "scaling_speedup", "scaling"))
    if base_affine is not None:
        gates.append(("affine", "affine_speedup", "affine"))
    for name, metric, label in gates:
        now = doc[name]["speedup"]
        ref = baseline[name]["speedup"]
        source = "baseline"
        if args.trajectory:
            median, values = trajectory_median(
                store,
                metric,
                fp=fp,
                window=args.window,
                min_rows=args.min_rows,
            )
            if median is not None:
                ref = median
                source = (
                    f"trajectory median of {len(values)} run(s) "
                    f"[fp {fp[:8]}]"
                )
            else:
                source = (
                    f"baseline (trajectory has {len(values)} "
                    f"same-fingerprint row(s) < {args.min_rows})"
                )
        print(f"{label} reference: {ref:.2f}x from {source}")
        if now < ref * scale:
            failures.append(
                f"{label} speedup {now:.2f}x regressed more than "
                f"{args.tolerance:.0%} below {source} {ref:.2f}x"
            )
        if args.absolute:
            # The high_similarity section reports seconds, not cells/s
            # (pruned work is not cube-proportional); the ratio gate
            # above already covers it machine-neutrally.
            now_abs = doc[name].get("new_cells_per_s")
            base_abs = baseline[name].get("new_cells_per_s")
            if now_abs is None or base_abs is None:
                continue
            if now_abs < base_abs * scale:
                failures.append(
                    f"{label} throughput {now_abs:,.0f} cells/s "
                    f"regressed more than {args.tolerance:.0%} below "
                    f"baseline {base_abs:,.0f}"
                )

    passed = not failures
    record_run(
        "check_perf",
        config={
            "trajectory": args.trajectory,
            "tolerance": args.tolerance,
            "window": args.window,
            "min_rows": args.min_rows,
            "absolute": args.absolute,
            "bench_config": doc["config"],
        },
        metrics={**kernel_metrics(doc), "passed": float(passed)},
        wall_s=wall,
        runs_file=args.runs_file,
        enabled=not args.no_record,
        git_dir=bench_kernel.baseline_path().parent,
    )

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1

    print(
        f"OK: small {doc['small_repeated']['speedup']:.2f}x "
        f"(baseline {base_small:.2f}x), "
        f"large {doc['large_sweep']['speedup']:.2f}x "
        f"(baseline {base_large:.2f}x), "
        f"pruned {doc['high_similarity']['speedup']:.2f}x "
        f"(baseline {base_pruned:.2f}x), "
        f"scaling {doc['scaling']['speedup']:.2f}x "
        f"(baseline {base_scale_speedup:.2f}x), "
        f"affine {doc['affine']['speedup']:.2f}x "
        f"(baseline {base_affine_speedup:.2f}x), "
        f"tolerance {args.tolerance:.0%}"
    )
    if args.update:
        path = bench_kernel.baseline_path()
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {path.name}")
    if args.update_trajectory:
        record = record_run(
            "bench_kernel",
            config=doc["config"],
            metrics=kernel_metrics(doc),
            wall_s=wall,
            runs_file=args.runs_file,
            git_dir=bench_kernel.baseline_path().parent,
        )
        if record is not None:
            rows = len(store.records(kind="bench_kernel", fp=fp))
            print(
                f"trajectory updated: {rows} same-fingerprint row(s) "
                f"in {store.path.name}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
