#!/usr/bin/env python
"""Chaos-test the fault-tolerance layer end to end.

Runs a ~40^3 alignment under each injected fault class and asserts the
recovery contract from ``docs/robustness.md``:

* a worker crash in a persistent ``WavefrontPool`` or a per-call
  ``blocks`` run (a one-job pool) -> the worker is respawned, its
  blocks replayed, and the output is **bit-identical** to the serial
  engine;
* a pool worker SIGKILLed while idle between jobs -> the next job
  respawns it at plane 0 and its output is bit-identical;
* a straggler is tolerated (or killed and replayed) without changing
  the output;
* a corrupted ghost payload in ``mpirun`` is caught by the CRC32
  checksum, retransmitted, and the score stays exact;
* a dead rank raises a typed ``WorkerFailure`` carrying the failure log
  (instead of hanging or a bare ``queue.Empty``);
* a simulated OOM walks the degradation ladder and still returns the
  optimal score, from ``wavefront`` and from ``pruned`` (the engine
  ``auto`` picks for every similar triple);
* supervision overhead on the fault-free path stays within
  ``--tolerance`` (default 10%): the median of ``--repeats`` per-pair
  ``supervised / unsupervised`` time ratios, the pools taking turns to
  run first. One ~12 ms job per side is too short for a minimum per
  side to be steady on a shared host; the median of pairs is.

Every counter/queue wait in the engines is bounded, so the whole suite
must finish inside ``--budget`` wall-clock seconds — exceeding it is
itself a failure (it means something waited unsupervised).

Usage::

    PYTHONPATH=src python tools/check_chaos.py [--n 40] [--repeats 20]
        [--tolerance 0.10] [--budget 300]

Exit status 0 when every scenario passes, 1 on any failure (2 on bad
arguments).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import signal
import statistics
import sys
import time
import warnings


def _ensure_importable() -> None:
    try:
        import repro  # noqa: F401
    except ImportError:
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        sys.path.insert(0, str(src))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="assert fault injection recovers to bit-identical output"
    )
    parser.add_argument(
        "--n", type=int, default=40, help="sequence length (cube is ~(n+1)^3)"
    )
    parser.add_argument(
        "--repeats", type=int, default=20, help="timed pairs for the "
        "supervision-overhead check (its statistic is their median ratio)"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="max allowed fractional slowdown with supervision enabled",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=300.0,
        help="wall-clock seconds the whole suite must finish within",
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="skip self-recording the result as a check_chaos run row",
    )
    parser.add_argument(
        "--runs-file",
        default=None,
        metavar="FILE",
        help="run-record store (default: RUNS.jsonl at the repo root)",
    )
    args = parser.parse_args(argv)
    if args.n < 4 or args.repeats < 1 or args.tolerance < 0:
        parser.error("n must be >= 4, repeats >= 1, tolerance >= 0")

    _ensure_importable()

    from repro.cluster.mpirun import run_distributed
    from repro.core.api import align3
    from repro.core.scoring import default_scheme_for
    from repro.parallel.blocks import align3_blocks
    from repro.parallel.blockwave import SupervisionPolicy
    from repro.parallel.executor import WavefrontPool
    from repro.resilience import faults
    from repro.resilience.errors import WorkerFailure
    from repro.seqio.alphabet import DNA
    from repro.seqio.generate import MutationModel, mutated_family
    from repro.util.timing import format_seconds

    t_start = time.perf_counter()
    seqs = mutated_family(args.n, seed=7)
    scheme = default_scheme_for(DNA)
    dmax = sum(len(s) for s in seqs)
    mid = dmax // 2

    ref = align3(*seqs, scheme, method="wavefront")
    failures: list[str] = []

    def scenario(name: str, fn) -> None:
        faults.clear()
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report, don't abort
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            print(f"  FAIL {name}: {exc}")
        else:
            print(
                f"  ok   {name} ({format_seconds(time.perf_counter() - t0)})"
            )
        finally:
            faults.clear()

    print(f"chaos: n={args.n} (planes 0..{dmax}), reference score {ref.score:g}")

    def pool_crash() -> None:
        faults.install(f"worker_crash@pool:worker=1,plane={mid}")
        with WavefrontPool((args.n + 5,) * 3, workers=2) as pool:
            aln = pool.align3(*seqs, scheme)
            assert aln.rows == ref.rows and aln.score == ref.score, (
                "output differs after recovery"
            )
            assert aln.meta["recoveries"] >= 1, "no recovery recorded"

    def pool_idle_kill() -> None:
        fast = SupervisionPolicy(scan_interval=0.2, straggler_grace=0.6)
        with WavefrontPool((args.n + 5,) * 3, workers=2, policy=fast) as pool:
            pool.align3(*seqs, scheme)
            victim = pool._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            aln = pool.align3(*seqs, scheme)
            assert aln.rows == ref.rows and aln.score == ref.score, (
                "output differs after recovery"
            )
            seen = [(r.worker, r.plane) for r in pool.failures]
            assert seen == [(1, 0)], f"expected one respawn at plane 0: {seen}"

    def blocks_crash() -> None:
        faults.install(f"worker_crash@pool:worker=1,plane={mid}")
        aln = align3_blocks(*seqs, scheme, workers=2)
        assert aln.rows == ref.rows and aln.score == ref.score, (
            "output differs after recovery"
        )
        assert aln.meta.get("recoveries", 0) >= 1, "no recovery recorded"

    def blocks_straggler() -> None:
        faults.install(f"straggler@pool:worker=1,delay=0.2,plane={mid}")
        aln = align3_blocks(*seqs, scheme, workers=2)
        assert aln.rows == ref.rows and aln.score == ref.score, (
            "output differs under a straggler"
        )

    def mpirun_corrupt() -> None:
        faults.install("corrupt_ghost@mpirun")
        res = run_distributed(*seqs, scheme, block=16, procs=3)
        assert res.score == ref.score, "score differs after retransmit"
        assert res.checksum_bad >= 1, "corruption was not detected"
        assert res.resends >= 1, "no retransmission happened"

    def mpirun_rank_death() -> None:
        faults.install("worker_crash@mpirun:rank=1")
        try:
            run_distributed(*seqs, scheme, block=16, procs=3)
        except WorkerFailure as exc:
            assert exc.failures, "WorkerFailure carried no failure log"
        else:
            raise AssertionError("rank death did not raise WorkerFailure")

    def oom_degrade() -> None:
        from repro.resilience.degrade import estimate_bytes

        dims = tuple(len(s) for s in seqs)
        budget = estimate_bytes("wavefront", dims) - 1
        faults.install(f"oom:budget={budget}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            aln = align3(*seqs, scheme, method="wavefront")
        assert aln.score == ref.score, "degraded run lost optimality"
        assert "degraded_from" in aln.meta, "run did not degrade"

    def oom_degrade_pruned() -> None:
        # ``auto`` sends every similar triple to ``pruned``, so its rung of
        # the ladder must hold too.
        from repro.resilience.degrade import estimate_bytes

        similar = mutated_family(
            args.n, model=MutationModel(0.02, 0.005, 0.005), seed=7
        )
        want = align3(*similar, scheme, method="wavefront").score
        dims = tuple(len(s) for s in similar)
        budget = estimate_bytes("pruned", dims) - 1
        faults.install(f"oom:budget={budget}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            aln = align3(*similar, scheme, method="pruned")
        assert aln.score == want, "degraded run lost optimality"
        assert aln.meta.get("degraded_from") == "pruned", "run did not degrade"
        assert aln.meta["engine"] == "hirschberg", aln.meta["engine"]

    scenario("pool worker_crash -> respawn + plane replay", pool_crash)
    scenario(
        "pool worker killed while idle -> respawn at plane 0", pool_idle_kill
    )
    scenario("blocks worker_crash -> respawn + plane replay", blocks_crash)
    scenario("blocks straggler tolerated", blocks_straggler)
    scenario("mpirun corrupt_ghost -> checksum + resend", mpirun_corrupt)
    scenario("mpirun rank death -> typed WorkerFailure", mpirun_rank_death)
    scenario("oom -> degradation ladder, optimal score", oom_degrade)
    scenario(
        "oom on pruned -> hirschberg, optimal score", oom_degrade_pruned
    )

    # Supervision overhead on the fault-free path: the median of per-pair
    # ratios, each pair run back to back and the pools taking turns to
    # go first, so host drift and run order hit both sides equally.
    faults.clear()
    sup_times: list[float] = []
    base_times: list[float] = []
    with WavefrontPool((args.n + 5,) * 3, workers=2, supervise=True) as sup_pool, \
            WavefrontPool((args.n + 5,) * 3, workers=2, supervise=False) as base_pool:
        sup_pool.align3(*seqs, scheme)  # warmup
        base_pool.align3(*seqs, scheme)

        def timed(pool):
            t0 = time.perf_counter()
            aln = pool.align3(*seqs, scheme)
            return time.perf_counter() - t0, aln

        for pair in range(args.repeats):
            if pair % 2:
                base_s, base_aln = timed(base_pool)
                sup_s, sup_aln = timed(sup_pool)
            else:
                sup_s, sup_aln = timed(sup_pool)
                base_s, base_aln = timed(base_pool)
            base_times.append(base_s)
            sup_times.append(sup_s)
    if sup_aln.rows != base_aln.rows or sup_aln.score != base_aln.score:
        failures.append("supervision changed the alignment output")
    base_s, sup_s = statistics.median(base_times), statistics.median(sup_times)
    overhead = statistics.median(
        s / b for s, b in zip(sup_times, base_times)
    ) - 1.0
    status = "ok  " if overhead <= args.tolerance else "FAIL"
    line = (
        f"  {status} supervision overhead: unsupervised="
        f"{format_seconds(base_s)} supervised={format_seconds(sup_s)} "
        f"(medians) overhead={overhead:+.1%} (median of {args.repeats} "
        f"pair ratios; tolerance {args.tolerance:.0%})"
    )
    print(line)
    if overhead > args.tolerance:
        failures.append(f"supervision overhead {overhead:+.1%}")

    elapsed = time.perf_counter() - t_start
    if elapsed > args.budget:
        failures.append(
            f"wall clock {elapsed:.0f}s exceeded budget {args.budget:.0f}s"
        )
    verdict = "OK" if not failures else "FAIL"
    print(
        f"{verdict}: {len(failures)} failure(s), total "
        f"{format_seconds(elapsed)}"
    )

    from repro.runs import record_run

    record_run(
        "check_chaos",
        config={
            "n": args.n,
            "repeats": args.repeats,
            "tolerance": args.tolerance,
            "budget": args.budget,
        },
        metrics={
            "supervision_overhead_frac": overhead,
            "failures": float(len(failures)),
            "passed": float(not failures),
        },
        wall_s=elapsed,
        runs_file=args.runs_file,
        enabled=not args.no_record,
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
