"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``align``     align the sequences of a FASTA file (exact 3-way for three
              records, progressive MSA for more)
``batch``     serve many 3-way requests from one file with caching
              and dedup (``docs/batching.md``); results stream to
              stdout as each one completes
``serve``     run the long-lived alignment service: asyncio HTTP/1.1
              JSON API with admission control, micro-batching and
              graceful drain (``docs/serving.md``)
``router``    run the sharding front tier: consistent-hash routing of
              cache keys over N ``serve`` replicas with health-driven
              failover (``docs/serving.md``)
``cache-server``  run the shared result-cache service that replicas
              started with ``--cache-url`` query on local misses
``score``     print the optimal SP score only (O(n^2) memory)
``count``     count (and optionally enumerate) co-optimal alignments
``generate``  emit a synthetic mutated family as FASTA
``simulate``  run the cluster simulator and print speedup/efficiency
``report``    render a captured ``--trace`` JSONL file into tables, or
              perf trends from the run-record database (``--trends``)
``runs``      inspect the run-record database (``RUNS.jsonl``):
              list/tail/show/gc (``docs/observability.md``)
``info``      version, engines, bundled datasets

``align`` and ``simulate`` accept ``--trace FILE`` (capture a span/plane/
worker trace, merged across worker processes) and ``--metrics`` (print a
counters/gauges/histograms summary to stderr); see
``docs/observability.md``.

Fault tolerance (see ``docs/robustness.md``): ``align`` accepts
``--inject-fault SPEC`` (repeatable) and honours the ``REPRO_FAULTS``
environment variable; ``--no-degrade`` turns the automatic
memory-degradation ladder into a hard error. Typed failures map to
distinct exit codes: worker/rank failure -> 3, forbidden degradation ->
4, bad fault spec -> 5.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterator, Sequence

from repro import __version__
from repro.core.api import AVAILABLE_METHODS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal three-sequence alignment (ICPP 2007 reproduction).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="align sequences from a FASTA file")
    p_align.add_argument("fasta", help="input FASTA (3 records = exact 3-way)")
    _scoring_args(p_align)
    p_align.add_argument(
        "--method",
        choices=AVAILABLE_METHODS,
        default="auto",
        help="engine for 3 sequences; 'auto' picks one from the "
        "estimated pairwise identity and cube size; 'blocks' is the "
        "parallel engine (--workers); 'anchored' discovers an anchor "
        "chain and solves sub-cubes (long high-identity triples)",
    )
    p_align.add_argument(
        "--constraints",
        default=None,
        metavar="SPEC",
        help="anchor chain the alignment must pass through: inline JSON "
        "'[[i, j, k, length], ...]' or @FILE with the same JSON; forces "
        "constrained mode (see docs/workloads.md)",
    )
    p_align.add_argument(
        "--anchored",
        action="store_true",
        help="shorthand for --method anchored (automatic anchor "
        "discovery with exact fallback)",
    )
    p_align.add_argument(
        "--mode",
        choices=("global", "local", "semiglobal"),
        default="global",
        help="alignment mode (local/semiglobal need exactly 3 sequences "
        "and the linear gap model)",
    )
    p_align.add_argument(
        "--workers", type=int, default=2, help="workers for --method blocks"
    )
    p_align.add_argument(
        "--format",
        choices=("pretty", "fasta", "clustal"),
        default="pretty",
        help="output format",
    )
    p_align.add_argument(
        "--width", type=int, default=60, help="pretty-print block width"
    )
    p_align.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="SPEC",
        help="arm a fault for chaos testing, e.g. "
        "'worker_crash@pool:worker=1,plane=25' (repeatable; see "
        "docs/robustness.md)",
    )
    p_align.add_argument(
        "--no-degrade",
        action="store_true",
        help="fail (exit 4) instead of walking the memory-degradation "
        "ladder when the requested engine exceeds the memory budget",
    )
    _obs_args(p_align)

    p_batch = sub.add_parser(
        "batch",
        help="serve many 3-way requests with caching and dedup",
    )
    p_batch.add_argument(
        "input",
        help="JSONL request file (one {'seqs': [a, b, c]} object per line) "
        "or FASTA whose record count is a multiple of three",
    )
    _scoring_args(p_batch)
    p_batch.add_argument(
        "--method",
        choices=AVAILABLE_METHODS,
        default="auto",
        help="default engine for requests that do not name one",
    )
    p_batch.add_argument(
        "--mode",
        choices=("global", "local", "semiglobal"),
        default="global",
        help="default alignment mode",
    )
    p_batch.add_argument(
        "--workers", type=int, default=2,
        help="worker count for 'blocks' requests (every other request "
        "runs in this process)",
    )
    p_batch.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent result cache directory (reused across runs)",
    )
    p_batch.add_argument(
        "--max-entries",
        type=int,
        default=1024,
        help="in-memory cache capacity (LRU-evicted beyond this)",
    )
    p_batch.add_argument(
        "--output",
        choices=("tsv", "jsonl"),
        default="tsv",
        help="per-request output: 'tsv' (id, score, source) or 'jsonl' "
        "(adds the aligned rows); either way lines stream as results "
        "complete, so memory stays bounded on long batches",
    )
    _obs_args(p_batch)

    p_serve = sub.add_parser(
        "serve",
        help="run the alignment service (HTTP/1.1 JSON over asyncio)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (default 8673; 0 binds an ephemeral port — the "
        "bound address is printed to stderr)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="worker count for 'blocks' requests (every other request "
        "runs in the replica process)",
    )
    p_serve.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        help="max triples awaiting a batch flush before shedding (429)",
    )
    p_serve.add_argument(
        "--max-inflight-cells",
        type=int,
        default=None,
        help="max estimated DP cells admitted but not completed",
    )
    p_serve.add_argument(
        "--max-request-cells",
        type=int,
        default=None,
        help="hard per-POST cell cap (413 beyond it)",
    )
    p_serve.add_argument(
        "--batch-max",
        type=int,
        default=None,
        help="micro-batch flush size (triples)",
    )
    p_serve.add_argument(
        "--batch-age-ms",
        type=float,
        default=None,
        help="micro-batch flush age in milliseconds",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline (504 beyond it)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="grace period for in-flight responses during SIGTERM drain",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent result cache directory (reused across restarts)",
    )
    p_serve.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="in-memory cache capacity",
    )
    p_serve.add_argument(
        "--cache-url",
        default=None,
        metavar="HOST:PORT",
        help="shared cache service (repro cache-server) queried on "
        "local misses and populated on puts",
    )
    p_serve.add_argument(
        "--instance",
        default=None,
        metavar="NAME",
        help="replica name echoed in /healthz and /metrics",
    )
    p_serve.add_argument(
        "--drain-grace",
        type=float,
        default=None,
        metavar="SECONDS",
        help="after SIGTERM, keep the listener open (healthz already "
        "503) this long so a polling router reroutes first",
    )
    _obs_args(p_serve)

    p_router = sub.add_parser(
        "router",
        help="run the sharding front tier over N serve replicas",
    )
    p_router.add_argument(
        "replicas",
        nargs="+",
        metavar="HOST:PORT",
        help="backend serve replicas, in ring order",
    )
    p_router.add_argument("--host", default="127.0.0.1", help="bind address")
    p_router.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (default 8674; 0 binds an ephemeral port)",
    )
    p_router.add_argument(
        "--health-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="/healthz poll period per replica",
    )
    p_router.add_argument(
        "--soft-threshold",
        type=int,
        default=None,
        help="consecutive soft failures (timeout/5xx) before ejection",
    )
    p_router.add_argument(
        "--eject-cooldown",
        type=float,
        default=None,
        metavar="SECONDS",
        help="initial ejection cooldown (doubles on half-open failure)",
    )
    p_router.add_argument(
        "--retry-attempts",
        type=int,
        default=None,
        help="failover budget per forwarded slice",
    )
    p_router.add_argument(
        "--response-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-exchange response budget (should exceed the replica "
        "deadline)",
    )
    p_router.add_argument(
        "--drain-grace",
        type=float,
        default=None,
        metavar="SECONDS",
        help="listener grace after SIGTERM (see repro serve)",
    )
    _obs_args(p_router)

    p_cached = sub.add_parser(
        "cache-server",
        help="run the shared result-cache service replicas query",
    )
    p_cached.add_argument("--host", default="127.0.0.1", help="bind address")
    p_cached.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: ephemeral, printed to stderr)",
    )
    p_cached.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent JSONL tier directory (memory-only when unset)",
    )
    p_cached.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="in-memory cache capacity",
    )
    _obs_args(p_cached)

    p_score = sub.add_parser("score", help="optimal SP score only")
    p_score.add_argument("fasta")
    _scoring_args(p_score)

    p_count = sub.add_parser(
        "count", help="count co-optimal alignments (3 sequences)"
    )
    p_count.add_argument("fasta")
    _scoring_args(p_count)
    p_count.add_argument(
        "--show",
        type=int,
        default=0,
        metavar="K",
        help="also print up to K co-optimal alignments",
    )

    p_gen = sub.add_parser("generate", help="emit a synthetic family as FASTA")
    p_gen.add_argument("--length", type=int, default=60, help="ancestor length")
    p_gen.add_argument("--count", type=int, default=3, help="family size")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--alphabet", choices=("dna", "rna", "protein"), default="dna"
    )
    p_gen.add_argument(
        "--divergence",
        type=float,
        default=1.0,
        help="mutation-model scale factor (1.0 = defaults)",
    )

    p_sim = sub.add_parser("simulate", help="cluster-simulate the wavefront")
    p_sim.add_argument("--n", type=int, default=200, help="sequence length")
    p_sim.add_argument(
        "--procs",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8, 16, 32, 64],
        help="processor counts to sweep",
    )
    p_sim.add_argument("--block", type=int, default=16)
    p_sim.add_argument(
        "--network",
        choices=("ethernet-2007", "gigabit-2007", "modern"),
        default="ethernet-2007",
    )
    p_sim.add_argument(
        "--mapping", choices=("pencil", "linear", "slab"), default="pencil"
    )
    p_sim.add_argument(
        "--calibrate",
        action="store_true",
        help="measure this machine's per-cell time instead of the default",
    )
    _obs_args(p_sim)

    p_rep = sub.add_parser(
        "report",
        help="render a --trace JSONL file into breakdown tables, or "
        "run-record trends with --trends",
    )
    p_rep.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="trace file captured with --trace (omit with --trends)",
    )
    p_rep.add_argument(
        "--planes",
        type=int,
        default=12,
        metavar="BINS",
        help="number of bins for the per-plane table (0 = one row per plane)",
    )
    p_rep.add_argument(
        "--trends",
        action="store_true",
        help="render per-kind metric trends (sparkline + delta + "
        "regression flags) from the run-record database",
    )
    p_rep.add_argument(
        "--kind",
        action="append",
        default=None,
        metavar="KIND",
        help="restrict --trends to this run kind (repeatable)",
    )
    p_rep.add_argument(
        "--window",
        type=int,
        default=12,
        help="newest rows per kind the trend tables cover",
    )
    _runs_file_arg(p_rep)

    p_runs = sub.add_parser(
        "runs", help="inspect the run-record database (RUNS.jsonl)"
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    pr_list = runs_sub.add_parser("list", help="one table row per record")
    pr_list.add_argument(
        "--kind", default=None, help="only records of this kind"
    )
    pr_list.add_argument(
        "--limit", type=int, default=50, help="newest records shown"
    )
    _runs_file_arg(pr_list)
    pr_tail = runs_sub.add_parser("tail", help="print raw JSONL lines")
    pr_tail.add_argument(
        "--limit", type=int, default=10, help="newest lines printed"
    )
    _runs_file_arg(pr_tail)
    pr_show = runs_sub.add_parser(
        "show", help="pretty-print one record as JSON"
    )
    pr_show.add_argument(
        "index",
        type=int,
        help="record index from 'repro runs list' (negative counts "
        "from the newest, e.g. -1)",
    )
    _runs_file_arg(pr_show)
    pr_gc = runs_sub.add_parser(
        "gc", help="rotate the store, keeping the newest rows per kind"
    )
    pr_gc.add_argument(
        "--keep", type=int, default=100, help="rows kept per kind"
    )
    _runs_file_arg(pr_gc)

    sub.add_parser("info", help="version, engines and datasets")
    return parser


def _runs_file_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--runs-file",
        default=None,
        metavar="FILE",
        help="run-record store (default: RUNS.jsonl at the repo root)",
    )


def _obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="capture a JSONL span/plane/worker trace to FILE "
        "(render it with 'repro report FILE')",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="collect engine metrics and print a summary to stderr",
    )


@contextlib.contextmanager
def _obs_session(args) -> Iterator[None]:
    """Enable tracing/metrics around a command per its ``--trace`` /
    ``--metrics`` flags, and tear both down afterwards."""
    from repro.obs import metrics, trace

    recorder = None
    if getattr(args, "trace", None):
        try:
            recorder = trace.TraceRecorder(args.trace)
        except OSError as exc:
            print(f"error: cannot open --trace file: {exc}", file=sys.stderr)
            raise SystemExit(2)
        trace.install(recorder)
    want_metrics = bool(getattr(args, "metrics", False))
    if want_metrics:
        metrics.enable()
    try:
        yield
    finally:
        # The summary print can raise (e.g. BrokenPipeError when piped
        # into `head`); the recorder must still be closed or the trace
        # file loses everything buffered since the last flush.
        try:
            if want_metrics:
                from repro.obs.report import render_metrics

                print(
                    render_metrics(metrics.registry().snapshot()),
                    file=sys.stderr,
                )
        finally:
            if want_metrics:
                metrics.disable()
            if recorder is not None:
                trace.uninstall()
                recorder.close()


def _scoring_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--matrix",
        choices=("auto", "blosum62", "pam250", "dna", "unit"),
        default="auto",
        help="substitution matrix (auto = guess from the alphabet)",
    )
    p.add_argument("--gap", type=float, default=None, help="gap (extend) score")
    p.add_argument(
        "--gap-open", type=float, default=0.0, help="gap opening score (affine)"
    )


def _resolve_scheme(args, seqs: Sequence[str]):
    """The scheme ``--matrix``/``--gap``/``--gap-open`` ask for.

    ``auto`` and ``unit`` guess the alphabet per sequence and raise
    ``ValueError`` when the guesses disagree (a DNA + protein input).
    """
    from repro.core import matrices as m
    from repro.core.api import resolve_scheme
    from repro.core.scoring import ScoringScheme
    from repro.seqio.alphabet import DNA, PROTEIN, guess_common_alphabet

    if args.matrix == "auto":
        scheme = resolve_scheme(seqs)
    elif args.matrix == "blosum62":
        scheme = ScoringScheme(PROTEIN, m.blosum62(), gap=-8.0, name="blosum62")
    elif args.matrix == "pam250":
        scheme = ScoringScheme(PROTEIN, m.pam250(), gap=-8.0, name="pam250")
    elif args.matrix == "dna":
        scheme = ScoringScheme(DNA, m.dna_simple(), gap=-6.0, name="dna5-4")
    else:
        alpha = guess_common_alphabet(seqs)
        scheme = ScoringScheme(
            alpha, m.unit_matrix(alpha), gap=-1.0, name="unit"
        )
    gap = args.gap if args.gap is not None else scheme.gap
    if gap != scheme.gap or args.gap_open:
        scheme = scheme.with_gaps(gap=gap, gap_open=args.gap_open)
    return scheme


def _cmd_align(args) -> int:
    from repro.core.api import align3
    from repro.msa import align_msa
    from repro.seqio.fasta import format_fasta, read_fasta

    records = read_fasta(args.fasta)
    if len(records) < 2:
        print("error: need at least two sequences", file=sys.stderr)
        return 2
    names = [h for h, _ in records]
    seqs = [s for _h, s in records]
    try:
        scheme = _resolve_scheme(args, seqs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.mode != "global" and len(records) != 3:
        print(
            f"error: --mode {args.mode} requires exactly three sequences",
            file=sys.stderr,
        )
        return 2
    with _obs_session(args):
        if len(records) == 3:
            if args.mode == "local":
                from repro.core.local import align3_local

                aln = align3_local(*seqs, scheme)
            elif args.mode == "semiglobal":
                from repro.core.semiglobal import align3_semiglobal

                aln = align3_semiglobal(*seqs, scheme)
            else:
                constraints = None
                spec = getattr(args, "constraints", None)
                if spec:
                    try:
                        if spec.startswith("@"):
                            with open(spec[1:], encoding="utf-8") as fh:
                                spec = fh.read()
                        constraints = json.loads(spec)
                    except OSError as exc:
                        print(
                            f"error: cannot read constraints: {exc}",
                            file=sys.stderr,
                        )
                        return 2
                    except json.JSONDecodeError as exc:
                        print(
                            f"error: --constraints is not valid JSON: {exc}",
                            file=sys.stderr,
                        )
                        return 2
                method = args.method
                if getattr(args, "anchored", False) and method == "auto":
                    method = "anchored"
                try:
                    aln = align3(
                        *seqs,
                        scheme,
                        method=method,
                        workers=args.workers,
                        allow_degrade=not args.no_degrade,
                        constraints=constraints,
                    )
                except ValueError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                anchor = aln.meta.get("anchor")
                if anchor:
                    print(
                        f"# anchor: mode={anchor['mode']} "
                        f"anchors={anchor['anchors']} "
                        f"coverage={anchor['coverage']:g}",
                        file=sys.stderr,
                    )
                if "degraded_from" in aln.meta:
                    print(
                        f"# degraded: {aln.meta['degraded_from']} -> "
                        f"{aln.meta['engine']} (memory budget "
                        f"{aln.meta['memory_budget_bytes']:,} bytes)",
                        file=sys.stderr,
                    )
            rows = aln.rows
            score = aln.score
            engine = aln.meta["engine"]
        else:
            msa = align_msa(seqs, scheme, names=names)
            rows = msa.rows
            score = msa.sp_score(scheme)
            engine = msa.meta["engine"]

    if args.format == "fasta":
        print(format_fasta(zip(names, rows)), end="")
    elif args.format == "clustal":
        from repro.seqio.clustal import format_clustal

        safe_names = [n.split()[0] if n.split() else f"seq{i}"
                      for i, n in enumerate(names)]
        print(format_clustal(safe_names, list(rows), width=args.width), end="")
    else:
        label_w = max(len(n) for n in names)
        for start in range(0, len(rows[0]), args.width):
            for name, row in zip(names, rows):
                print(f"{name:<{label_w}} {row[start:start + args.width]}")
            print()
    print(
        f"# score={score:g} engine={engine} scheme={scheme.name} "
        f"columns={len(rows[0])}",
        file=sys.stderr,
    )
    return 0


def _cmd_batch(args) -> int:
    from functools import partial

    from repro.batch import BatchScheduler, read_requests
    from repro.cache import ResultCache

    scheme_for = None
    if args.matrix != "auto" or args.gap is not None or args.gap_open:
        scheme_for = partial(_resolve_scheme, args)

    try:
        requests = read_requests(
            args.input, mode=args.mode, method=args.method,
            scheme_for=scheme_for,
        )
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not requests:
        print("error: no requests in input", file=sys.stderr)
        return 2

    cache = ResultCache(
        max_entries=args.max_entries, cache_dir=args.cache_dir
    )

    # Results stream out as each one completes rather than being
    # buffered until the whole batch is done: long batches show progress,
    # and run_stream releases each alignment after its line is written so
    # resident memory stays bounded by one result, not the batch.
    if args.output == "jsonl":
        def emit(res) -> None:
            print(
                json.dumps(
                    {
                        "id": res.rid or str(res.index),
                        "index": res.index,
                        "score": res.alignment.score,
                        "source": res.source,
                        "rows": list(res.alignment.rows),
                    },
                    separators=(",", ":"),
                ),
                flush=True,
            )
    else:
        def emit(res) -> None:
            print(
                f"{res.rid or res.index}\t{res.alignment.score:g}"
                f"\t{res.source}",
                flush=True,
            )

    with _obs_session(args):
        with BatchScheduler(cache=cache, workers=args.workers) as sched:
            report = sched.run_stream(requests, emit)

    s = report.stats
    print(
        f"# requests={s.requests} computed={s.computed} "
        f"cache_hits={s.cache_hits} dedup={s.dedup_hits} "
        f"permutation={s.permutation_hits} "
        f"dedup_ratio={s.dedup_ratio:.2f} wall={s.wall_s:.3f}s "
        f"pool_jobs={s.pool_jobs}",
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, run_server

    overrides = {
        "host": args.host,
        "port": args.port,
        "workers": args.workers,
        "cache_dir": args.cache_dir,
        "cache_entries": args.max_entries,
        "queue_depth": args.queue_depth,
        "max_inflight_cells": args.max_inflight_cells,
        "max_request_cells": args.max_request_cells,
        "batch_max_requests": args.batch_max,
        "default_deadline_s": args.deadline,
        "drain_timeout_s": args.drain_timeout,
        "cache_url": args.cache_url,
        "instance": args.instance,
        "drain_grace_s": args.drain_grace,
    }
    if args.batch_age_ms is not None:
        overrides["batch_max_age_s"] = args.batch_age_ms / 1000.0
    config = ServeConfig(
        **{k: v for k, v in overrides.items() if v is not None}
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _obs_session(args):
        return run_server(config)


def _cmd_router(args) -> int:
    from repro.router import RouterConfig, run_router

    overrides = {
        "host": args.host,
        "port": args.port,
        "health_interval_s": args.health_interval,
        "soft_threshold": args.soft_threshold,
        "eject_cooldown_s": args.eject_cooldown,
        "retry_attempts": args.retry_attempts,
        "response_timeout_s": args.response_timeout,
        "drain_grace_s": args.drain_grace,
    }
    config = RouterConfig(
        replicas=tuple(args.replicas),
        **{k: v for k, v in overrides.items() if v is not None},
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _obs_session(args):
        return run_router(config)


def _cmd_cache_server(args) -> int:
    from repro.cache.service import run_cache_server

    kwargs = {
        "host": args.host,
        "port": args.port,
        "cache_dir": args.cache_dir,
    }
    if args.max_entries is not None:
        kwargs["cache_entries"] = args.max_entries
    try:
        with _obs_session(args):
            return run_cache_server(**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_score(args) -> int:
    from repro.core.api import align3_score
    from repro.msa import align_msa
    from repro.seqio.fasta import read_fasta

    records = read_fasta(args.fasta)
    seqs = [s for _h, s in records]
    try:
        scheme = _resolve_scheme(args, seqs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(seqs) == 3:
        score = align3_score(*seqs, scheme)
    elif len(seqs) >= 2:
        score = align_msa(seqs, scheme).sp_score(scheme)
    else:
        print("error: need at least two sequences", file=sys.stderr)
        return 2
    print(f"{score:g}")
    return 0


def _cmd_count(args) -> int:
    from repro.core.countopt import count_optimal, enumerate_optimal
    from repro.seqio.fasta import read_fasta

    records = read_fasta(args.fasta)
    if len(records) != 3:
        print("error: count requires exactly three sequences", file=sys.stderr)
        return 2
    seqs = [s for _h, s in records]
    try:
        scheme = _resolve_scheme(args, seqs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if scheme.is_affine:
        print("error: count supports the linear gap model", file=sys.stderr)
        return 2
    n = count_optimal(*seqs, scheme)
    print(f"{n}")
    if args.show > 0:
        for aln in enumerate_optimal(*seqs, scheme, limit=args.show):
            print()
            print(aln.pretty())
    return 0


def _cmd_generate(args) -> int:
    from repro.seqio.alphabet import DNA, PROTEIN, RNA
    from repro.seqio.fasta import format_fasta
    from repro.seqio.generate import MutationModel, mutated_family

    alpha = {"dna": DNA, "rna": RNA, "protein": PROTEIN}[args.alphabet]
    model = MutationModel().scaled(args.divergence)
    fam = mutated_family(
        args.length, model=model, count=args.count, alphabet=alpha,
        seed=args.seed,
    )
    records = [(f"synth{i}", s) for i, s in enumerate(fam)]
    print(format_fasta(records), end="")
    return 0


def _cmd_simulate(args) -> int:
    from repro.cluster.machine import (
        calibrate_t_cell,
        ethernet_2007,
        gigabit_2007,
        modern_cluster,
    )
    from repro.cluster.metrics import sweep_procs
    from repro.util.tables import format_table

    maker = {
        "ethernet-2007": ethernet_2007,
        "gigabit-2007": gigabit_2007,
        "modern": modern_cluster,
    }[args.network]
    machine = maker(1)
    if args.calibrate:
        t_cell = calibrate_t_cell()
        machine = type(machine)(
            procs=1, t_cell=t_cell, alpha=machine.alpha, beta=machine.beta,
            name=machine.name,
        )
    with _obs_session(args):
        results = sweep_procs(
            args.n, args.procs, machine, block=args.block, mapping=args.mapping
        )
    rows = [
        (
            p,
            r.speedup,
            r.efficiency,
            r.makespan,
            r.comm_volume_bytes / 1e6,
            r.messages,
        )
        for p, r in zip(args.procs, results)
    ]
    print(
        format_table(
            f"simulated wavefront: n={args.n}, block={args.block}, "
            f"{machine.name}, {args.mapping} mapping",
            ["P", "speedup", "efficiency", "makespan_s", "comm_MB", "messages"],
            rows,
        )
    )
    return 0


def _cmd_report(args) -> int:
    from repro.obs.report import render_report

    if args.trends:
        from repro.runs import render_trends

        store = _open_runs_store(args.runs_file)
        print(render_trends(store, kinds=args.kind, window=args.window))
        return 0
    if args.trace is None:
        print(
            "error: give a trace file to render, or --trends for the "
            "run-record database",
            file=sys.stderr,
        )
        return 2
    if not os.path.exists(args.trace):
        print(f"error: no such trace file: {args.trace}", file=sys.stderr)
        return 2
    print(render_report(args.trace, plane_bins=args.planes))
    return 0


def _open_runs_store(runs_file):
    """Open the run store and fold the committed kernel baseline in as
    the first trajectory row (idempotent; soft-fails on read-only
    checkouts so viewing never errors)."""
    from repro.runs import RunStore, seed_from_baseline

    store = RunStore(runs_file)
    try:
        seed_from_baseline(store)
    except Exception:  # noqa: BLE001 — viewing must not require writing
        pass
    return store


def _cmd_runs(args) -> int:
    from repro.runs import render_runs_table

    store = _open_runs_store(args.runs_file)
    if args.runs_command == "list":
        records = store.records(kind=args.kind)
        if args.limit and args.limit > 0:
            records = records[-args.limit:]
        print(render_runs_table(records, skipped=store.skipped))
    elif args.runs_command == "tail":
        for line in store.tail_lines(args.limit):
            print(line)
    elif args.runs_command == "show":
        records = store.records()
        if not records:
            print("error: run store is empty", file=sys.stderr)
            return 2
        try:
            record = records[args.index]
        except IndexError:
            print(
                f"error: index {args.index} out of range "
                f"(store has {len(records)} records)",
                file=sys.stderr,
            )
            return 2
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    else:  # gc
        kept, dropped = store.gc(keep_per_kind=args.keep)
        print(
            f"gc: kept {kept} record(s), dropped {dropped} "
            f"(backup at {store.path.name}.1)"
        )
    return 0


def _cmd_info(_args) -> int:
    from repro.core.api import AVAILABLE_METHODS
    from repro.seqio.datasets import list_datasets

    print(f"repro {__version__}")
    print(f"alignment methods : {', '.join(AVAILABLE_METHODS)}")
    print(f"bundled datasets  : {', '.join(list_datasets())}")
    print("experiments       : python -m repro.bench --list")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.resilience import faults
    from repro.resilience.errors import (
        EXIT_BAD_FAULT_SPEC,
        EXIT_DEGRADED,
        EXIT_WORKER_FAILURE,
        DegradedRun,
        FaultSpecError,
        WorkerFailure,
    )

    args = _build_parser().parse_args(argv)
    handler = {
        "align": _cmd_align,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "router": _cmd_router,
        "cache-server": _cmd_cache_server,
        "score": _cmd_score,
        "count": _cmd_count,
        "generate": _cmd_generate,
        "simulate": _cmd_simulate,
        "report": _cmd_report,
        "runs": _cmd_runs,
        "info": _cmd_info,
    }[args.command]
    try:
        faults.install_from_env()
        if getattr(args, "inject_fault", None):
            faults.install(list(args.inject_fault))
        return handler(args)
    except FaultSpecError as exc:
        print(f"error: bad fault spec: {exc}", file=sys.stderr)
        return EXIT_BAD_FAULT_SPEC
    except DegradedRun as exc:
        print(f"error: degraded run forbidden by --no-degrade: {exc}",
              file=sys.stderr)
        return EXIT_DEGRADED
    except WorkerFailure as exc:
        print(f"error: worker failure: {exc}", file=sys.stderr)
        return EXIT_WORKER_FAILURE
    except BrokenPipeError:
        # Output piped into e.g. `head`; die quietly like other line tools.
        # Stdout is already unusable, so detach it before interpreter
        # shutdown tries (and fails) to flush it.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
