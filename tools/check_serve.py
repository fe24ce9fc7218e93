#!/usr/bin/env python
"""Guard the serving layer's acceptance bounds.

Spawns real ``repro serve`` processes (ephemeral port, stdlib client)
and asserts the contract from ``docs/serving.md`` in three phases:

1. **Correctness + amortisation** — ``--requests`` requests from
   ``--concurrency`` concurrent clients, duplicate-heavy (drawn from
   ``--unique`` distinct triples). Every 200 response must be
   bit-identical to a direct in-process ``align3`` of the same triple,
   and the server-side dedup ratio (1 - computed/requests, from
   ``/metrics``) must be at least ``--min-dedup``.
2. **Backpressure** — a second server with a tiny admission queue is
   saturated; at least one request must be shed with HTTP 429 and a
   positive integer ``Retry-After`` header, and every response must
   still be one of 200/429 (never a 5xx).
3. **Graceful drain** — a third server gets SIGTERM while requests are
   in flight; every already-admitted request must complete with a
   bit-identical 200 and the process must exit 0.

Usage::

    PYTHONPATH=src python tools/check_serve.py [--requests 200]
        [--unique 25] [--n 16] [--concurrency 16] [--min-dedup 0.8]

Exit status 0 when all bounds hold, 1 on violation (2 on bad arguments).
Needs only the standard library plus ``repro`` itself.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time


def _ensure_importable() -> None:
    try:
        import repro  # noqa: F401
    except ImportError:
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        sys.path.insert(0, str(src))


class ServerProc:
    """A ``repro serve`` child on an ephemeral port."""

    def __init__(self, extra_args: list[str]):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"]
            + extra_args,
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.port = self._await_port()
        self.stderr_lines: list[str] = []
        self._drainer = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drainer.start()

    def _await_port(self, timeout: float = 30.0) -> int:
        deadline = time.monotonic() + timeout
        assert self.proc.stderr is not None
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                raise RuntimeError(
                    f"server exited before binding "
                    f"(rc={self.proc.poll()})"
                )
            m = re.match(r"# serving on [\d.]+:(\d+)", line)
            if m:
                return int(m.group(1))
        raise RuntimeError("timed out waiting for the serving banner")

    def _drain_stderr(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr_lines.append(line)

    def terminate_and_wait(self, timeout: float = 30.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


def _fire(port: int, payloads: list[dict], concurrency: int) -> list:
    """Send ``payloads`` from ``concurrency`` threads; returns responses
    in payload order (None where the connection itself failed)."""
    from repro.serve import ServeClient

    out: list = [None] * len(payloads)
    it = iter(enumerate(payloads))
    lock = threading.Lock()

    def worker() -> None:
        with ServeClient("127.0.0.1", port) as client:
            while True:
                with lock:
                    try:
                        i, payload = next(it)
                    except StopIteration:
                        return
                try:
                    out[i] = client.align(**payload)
                except OSError:
                    out[i] = None

    threads = [
        threading.Thread(target=worker) for _ in range(concurrency)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="assert serve correctness, shedding and drain bounds"
    )
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument(
        "--unique", type=int, default=25, help="distinct triples in the mix"
    )
    parser.add_argument(
        "--n", type=int, default=16, help="sequence length per triple"
    )
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument(
        "--min-dedup",
        type=float,
        default=0.8,
        help="required server-side dedup ratio on the duplicate-heavy mix",
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="skip self-recording the result as a check_serve run row",
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
    if args.concurrency < 1 or args.n < 1:
        parser.error("concurrency and n must be >= 1")

    _ensure_importable()
    t_start = time.perf_counter()
    from repro.core.api import align3
    from repro.core.scoring import default_scheme_for
    from repro.seqio.alphabet import DNA
    from repro.seqio.generate import mutated_family
    from repro.serve import ServeClient

    failures: list[str] = []
    scheme = default_scheme_for(DNA)
    triples = [
        tuple(mutated_family(args.n, seed=900 + i))
        for i in range(args.unique)
    ]
    expected = [align3(*t, scheme) for t in triples]

    # ---- phase 1: concurrent correctness + dedup --------------------
    srv = ServerProc(["--workers", "1"])
    try:
        order = [i % args.unique for i in range(args.requests)]
        payloads = [{"seqs": list(triples[k])} for k in order]
        responses = _fire(srv.port, payloads, args.concurrency)

        bad = sum(1 for r in responses if r is None or r.status != 200)
        if bad:
            failures.append(
                f"phase1: {bad}/{args.requests} requests did not return 200"
            )
        mismatch = 0
        for k, r in zip(order, responses):
            if r is None or r.status != 200:
                continue
            res = r.body["results"][0]
            want = expected[k]
            if (
                tuple(res["rows"]) != want.rows
                or float(res["score"]) != want.score
            ):
                mismatch += 1
        if mismatch:
            failures.append(
                f"phase1: {mismatch} responses differ from direct align3"
            )

        with ServeClient("127.0.0.1", srv.port) as mclient:
            metrics = mclient.metrics().body
        counters = metrics["metrics"].get("counters", {})
        served = counters.get("batch_requests", 0)
        computed = counters.get("batch_computed", 0)
        dedup = 1.0 - computed / served if served else 0.0
        if dedup < args.min_dedup:
            failures.append(
                f"phase1: dedup ratio {dedup:.3f} < {args.min_dedup:.2f} "
                f"(computed={computed} served={served})"
            )
        rc = srv.terminate_and_wait()
        if rc != 0:
            failures.append(f"phase1: server exit code {rc} != 0")
    finally:
        srv.kill()

    # ---- phase 2: tiny queue sheds with 429 + Retry-After -----------
    srv = ServerProc(
        [
            "--workers", "1",
            "--queue-depth", "2",
            "--batch-max", "2",
        ]
    )
    try:
        big = tuple(mutated_family(48, seed=1300))
        payloads = [{"seqs": list(big)} for _ in range(60)]
        responses = _fire(srv.port, payloads, max(args.concurrency, 16))
        statuses = [r.status for r in responses if r is not None]
        shed = [r for r in responses if r is not None and r.status == 429]
        if not shed:
            failures.append("phase2: tiny queue never shed a request (429)")
        for r in shed:
            ra = r.retry_after_s
            if ra is None or ra < 1:
                failures.append(
                    "phase2: a 429 lacked a positive Retry-After header"
                )
                break
        unexpected = [s for s in statuses if s not in (200, 429)]
        if unexpected:
            failures.append(
                f"phase2: unexpected statuses under overload: "
                f"{sorted(set(unexpected))}"
            )
        srv.terminate_and_wait()
    finally:
        srv.kill()

    # ---- phase 3: SIGTERM drains in-flight requests to completion ---
    srv = ServerProc(["--workers", "1", "--batch-max", "4"])
    try:
        n_inflight = 12
        slow = [
            tuple(mutated_family(40, seed=1500 + i))
            for i in range(n_inflight)
        ]
        slow_expected = [align3(*t, scheme) for t in slow]
        results: list = [None] * n_inflight

        def one(i: int) -> None:
            with ServeClient("127.0.0.1", srv.port, timeout=60) as client:
                try:
                    results[i] = client.align(seqs=list(slow[i]))
                except OSError:
                    results[i] = None

        threads = [
            threading.Thread(target=one, args=(i,))
            for i in range(n_inflight)
        ]
        for t in threads:
            t.start()
        time.sleep(0.25)  # let the requests be admitted
        rc = srv.terminate_and_wait(timeout=60)
        for t in threads:
            t.join(timeout=60)

        if rc != 0:
            failures.append(f"phase3: drained server exit code {rc} != 0")
        drained_ok = 0
        for i, r in enumerate(results):
            if r is None or r.status != 200:
                continue
            res = r.body["results"][0]
            want = slow_expected[i]
            if (
                tuple(res["rows"]) == want.rows
                and float(res["score"]) == want.score
            ):
                drained_ok += 1
        # Requests that raced the drain and were refused (503) are fine;
        # every request the server *admitted* must have completed. The
        # 0.25 s head start means at least one was in flight.
        refused = sum(
            1 for r in results if r is not None and r.status == 503
        )
        completed = sum(
            1 for r in results if r is not None and r.status == 200
        )
        if completed == 0:
            failures.append("phase3: no in-flight request survived drain")
        if drained_ok != completed:
            failures.append(
                f"phase3: {completed - drained_ok} drained responses "
                "differ from direct align3"
            )
        dropped = sum(1 for r in results if r is None)
        if dropped:
            failures.append(
                f"phase3: {dropped} admitted connections were dropped "
                "instead of drained"
            )
        print(
            f"# phase3: completed={completed} refused={refused} "
            f"exit={rc}"
        )
    finally:
        srv.kill()

    status = "FAIL" if failures else "OK"
    print(
        f"{status}: requests={args.requests} unique={args.unique} "
        f"concurrency={args.concurrency} dedup_ratio={dedup:.3f} "
        f"(required {args.min_dedup:.2f})"
    )
    for f in failures:
        print(f"  - {f}")

    from repro.runs import record_run

    record_run(
        "check_serve",
        config={
            "requests": args.requests,
            "unique": args.unique,
            "n": args.n,
            "concurrency": args.concurrency,
            "min_dedup": args.min_dedup,
        },
        metrics={
            "dedup_ratio": dedup,
            "drained_completed": float(completed),
            "drain_refused": float(refused),
            "passed": float(not failures),
        },
        wall_s=time.perf_counter() - t_start,
        runs_file=args.runs_file,
        enabled=not args.no_record,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
