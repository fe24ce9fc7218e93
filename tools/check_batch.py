#!/usr/bin/env python
"""Guard the throughput layer's acceptance bounds.

Builds a duplicate-heavy batch (``--requests`` requests drawn from
``--unique`` distinct triples, i.e. the serving-workload shape the
batching layer targets) and asserts three things:

1. **Dedup** — the batch scheduler computes each distinct request once,
   so the dedup ratio is at least ``1 - unique/requests``.
2. **Bit-identity** — every cache hit (exact and in-batch dedup) matches
   the cold compute: same rows, same score, same meta modulo timing; and
   a warm re-run of the whole batch serves every request from the cache
   with identical results.
3. **Throughput** — the batch run beats a serial ``align3`` loop over
   the same requests by at least ``--min-speedup`` (the issue's bound is
   2x; the default here leaves headroom for loaded CI machines).

Usage::

    PYTHONPATH=src python tools/check_batch.py [--requests 200]
        [--unique 40] [--n 24] [--min-speedup 2.0] [--repeats 2]

Exit status 0 when all bounds hold, 1 on violation (2 on bad arguments).
Both sides compute every miss in this process; ``--workers`` only sizes
the pool of ``blocks`` requests, which this batch does not make. The
dedup ratio and speedup self-record as one ``check_batch`` row in the
run-record database (``RUNS.jsonl``; disable with ``--no-record``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys


def _ensure_importable() -> None:
    try:
        import repro  # noqa: F401
    except ImportError:
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        sys.path.insert(0, str(src))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="assert batch dedup, hit bit-identity and speedup bounds"
    )
    parser.add_argument(
        "--requests", type=int, default=200, help="total batch size"
    )
    parser.add_argument(
        "--unique", type=int, default=40, help="distinct triples in the batch"
    )
    parser.add_argument(
        "--n", type=int, default=24, help="sequence length per triple"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="batch must beat the serial align3 loop by this factor",
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="timed repeats per side"
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="scheduler worker count (used by 'blocks' requests only)"
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="skip self-recording the result as a check_batch run row",
    )
    parser.add_argument(
        "--runs-file",
        default=None,
        metavar="FILE",
        help="run-record store (default: RUNS.jsonl at the repo root)",
    )
    args = parser.parse_args(argv)
    if args.unique < 1 or args.requests < args.unique:
        parser.error("need requests >= unique >= 1")
    if args.n < 1 or args.repeats < 1 or args.min_speedup <= 0:
        parser.error("n/repeats must be >= 1 and min-speedup > 0")

    _ensure_importable()
    import time

    from repro.batch import AlignmentRequest, BatchScheduler
    from repro.cache import ResultCache, comparable_meta
    from repro.core.api import align3
    from repro.core.scoring import default_scheme_for
    from repro.seqio.alphabet import DNA
    from repro.seqio.generate import mutated_family
    from repro.util.timing import format_seconds

    scheme = default_scheme_for(DNA)
    triples = [
        tuple(mutated_family(args.n, seed=500 + i)) for i in range(args.unique)
    ]
    requests = [
        AlignmentRequest(seqs=triples[i % args.unique], scheme=scheme)
        for i in range(args.requests)
    ]
    expected_dedup = 1.0 - args.unique / args.requests

    # Interleave the serial loop and the batch run so machine-load drift
    # hits both sides equally; compare minima.
    serial_times: list[float] = []
    batch_times: list[float] = []
    report = None
    serial_alns = None
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        serial_alns = [align3(*r.seqs, r.scheme) for r in requests]
        serial_times.append(time.perf_counter() - t0)

        with BatchScheduler(cache=ResultCache(), workers=args.workers) as sched:
            t0 = time.perf_counter()
            report = sched.run(requests)
            batch_times.append(time.perf_counter() - t0)
    serial_s, batch_s = min(serial_times), min(batch_times)

    failures: list[str] = []

    if report.stats.computed != args.unique:
        failures.append(
            f"computed {report.stats.computed} jobs, expected {args.unique}"
        )
    if report.stats.dedup_ratio < expected_dedup:
        failures.append(
            f"dedup_ratio {report.stats.dedup_ratio:.3f} "
            f"< expected {expected_dedup:.3f}"
        )

    # Every request must reproduce the serial loop's rows and score
    # exactly; both sides run the same align3 path.
    mismatches = 0
    for res, want in zip(report.results, serial_alns):
        got = res.alignment
        if got.rows != want.rows or got.score != want.score:
            mismatches += 1
    if mismatches:
        failures.append(
            f"{mismatches}/{args.requests} batch results differ from the "
            "serial align3 loop"
        )

    # Warm re-run: everything from the cache, still bit-identical.
    cache = ResultCache()
    with BatchScheduler(cache=cache, workers=args.workers) as sched:
        cold = sched.run(requests)
        warm = sched.run(requests)
    if warm.stats.computed != 0:
        failures.append(
            f"warm re-run recomputed {warm.stats.computed} jobs"
        )
    for a, b in zip(cold.results, warm.results):
        if (
            a.alignment.rows != b.alignment.rows
            or a.alignment.score != b.alignment.score
            or comparable_meta(a.alignment.meta)
            != comparable_meta(b.alignment.meta)
        ):
            failures.append("a warm cache hit differs from its cold compute")
            break

    speedup = serial_s / batch_s if batch_s > 0 else float("inf")
    if speedup < args.min_speedup:
        failures.append(
            f"batch speedup {speedup:.2f}x < required {args.min_speedup:.2f}x"
        )

    status = "FAIL" if failures else "OK"
    print(
        f"{status}: requests={args.requests} unique={args.unique} n={args.n} "
        f"dedup_ratio={report.stats.dedup_ratio:.3f} "
        f"serial={format_seconds(serial_s)} batch={format_seconds(batch_s)} "
        f"speedup={speedup:.2f}x (required {args.min_speedup:.2f}x)"
    )
    for f in failures:
        print(f"  - {f}")

    from repro.runs import record_run

    record_run(
        "check_batch",
        config={
            "requests": args.requests,
            "unique": args.unique,
            "n": args.n,
            "workers": args.workers,
            "min_speedup": args.min_speedup,
        },
        metrics={
            "dedup_ratio": report.stats.dedup_ratio,
            "batch_speedup": speedup,
            "serial_seconds": serial_s,
            "batch_seconds": batch_s,
            "passed": float(not failures),
        },
        wall_s=sum(serial_times) + sum(batch_times),
        runs_file=args.runs_file,
        enabled=not args.no_record,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
