"""Processes of the system under test that the benchmark starts itself.

``caller``  one in-process user of the library, the way ``repro batch``
            (``BatchScheduler.run_stream`` over a request file) or
            ``repro align`` (sequential ``align3`` calls) uses it. It
            imports and constructs everything, prints ``READY``, waits
            for ``GO`` (or ``EXIT``), runs whole passes over its input
            list until ``--seconds`` have passed and at least
            MIN_PASSES were made, prints ``DONE <json>`` with each
            item's time per pass, and exits on ``EXIT``.
``launch``  ``repro <argv>`` (``serve`` or ``router``) with the traced
            run's span recorder installed first; the spans are written
            to ``--spans`` after the server drains.

Run by ``run.py``; the program is imported from ``src`` via PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import tracer
import workloads

#: Passes per run, so each item's median time has at least three samples.
MIN_PASSES = 3


def _disk_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _dirs, files in os.walk(path)
        for f in files
    )


class BatchCaller:
    """``BatchScheduler.run_stream`` as ``repro batch`` drives it: one
    long-lived scheduler with the default two workers, a fresh on-disk
    cache per pass, and one JSONL line emitted per result."""

    def __init__(self, items, rundir):
        from repro.batch.scheduler import (
            DEFAULT_MAX_POOL_CELLS,
            AlignmentRequest,
            BatchScheduler,
        )

        self.rundir = rundir
        self.requests = [
            AlignmentRequest(
                seqs=tuple(it["seqs"]),
                scheme=(workloads.scheme_for(it)
                        if it["scheme"] == "affine" else None),
                mode=it["mode"],
                method=it["method"],
                rid=str(i),
            )
            for i, it in enumerate(items)
        ]
        self.sched = BatchScheduler(cache=None, workers=2)
        # Spawn the pool now, sized for every pool-eligible request, so
        # pool start-up is set-up time and no pass has to regrow it.
        pooled = [
            it for it in items
            if it["mode"] == "global" and it["scheme"] == "default"
            and workloads.resolved_engine(it) == "wavefront"
            and _cells(it) <= DEFAULT_MAX_POOL_CELLS
        ]
        if pooled:
            cap = [max(len(it["seqs"][d]) for it in pooled) for d in range(3)]
            self.sched.run([
                tuple(("ACGT" * 64)[:cap[d]] if d == axis else "ACGT"[d]
                      for d in range(3))
                for axis in range(3)
            ])

    def run_pass(self, p, out):
        from repro.cache import ResultCache

        cache_dir = os.path.join(self.rundir, f"cache-{p}")
        self.sched.cache = ResultCache(max_entries=1024, cache_dir=cache_dir)

        # An item's time is the time since the previous result was
        # emitted; results come in the same order every pass.
        times = {}
        last = [time.perf_counter()]

        def emit(res):
            out.write(json.dumps({
                "pass": p, "index": res.index,
                "score": res.alignment.score,
                "rows": list(res.alignment.rows), "source": res.source,
            }, separators=(",", ":")) + "\n")
            out.flush()
            now = time.perf_counter()
            times[str(res.index)] = now - last[0]
            last[0] = now

        t0 = last[0]
        self.sched.run_stream(self.requests, emit)
        end = time.perf_counter()
        times["end"] = end - last[0]
        self.sched.cache = None
        return end - t0, times, _disk_bytes(cache_dir)

    def close(self):
        self.sched.close()


class AlignCaller:
    """Sequential ``align3`` calls as ``repro align`` makes them."""

    def __init__(self, items, rundir):
        from repro.core import api

        self.api = api
        self.items = items

    def run_pass(self, p, out):
        times = {}
        for i, it in enumerate(self.items):
            t0 = time.perf_counter()
            aln = self.api.align3(*it["seqs"], method=it["method"])
            out.write(json.dumps({
                "pass": p, "index": i, "score": aln.score,
                "rows": list(aln.rows), "engine": aln.meta.get("engine"),
            }, separators=(",", ":")) + "\n")
            out.flush()
            times[str(i)] = time.perf_counter() - t0
        return sum(times.values()), times, 0

    def close(self):
        pass


def _cells(it):
    n1, n2, n3 = (len(s) for s in it["seqs"])
    return (n1 + 1) * (n2 + 1) * (n3 + 1)


def caller(args) -> int:
    with open(args.inputs, encoding="utf-8") as fh:
        items = json.load(fh)
    log = None
    if args.trace:
        if args.workload == "batch_mixed":
            from repro.obs import metrics

            # Pool workers only report busy/wait while the obs layer is
            # active; it costs per-plane timing, so only where needed.
            metrics.enable()
        log = tracer.install(
            "caller", os.path.join(args.rundir, "workers.jsonl")
        )
    cls = BatchCaller if args.workload == "batch_mixed" else AlignCaller
    sut = cls(items, args.rundir)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        sut.close()
        return 0
    walls, item_times, disk = [], [], 0
    with open(os.path.join(args.rundir, "results.jsonl"), "w",
              encoding="utf-8") as out:
        start = time.perf_counter()
        while len(walls) < MIN_PASSES or \
                time.perf_counter() - start < args.seconds:
            wall, times, nbytes = sut.run_pass(len(walls), out)
            walls.append(wall)
            item_times.append(times)
            disk += nbytes
        end = time.perf_counter()
    print("DONE " + json.dumps({
        "pass_s": walls, "items_s": item_times, "window": [start, end],
        "disk_bytes": disk,
    }), flush=True)
    sys.stdin.readline()  # EXIT, after the harness has read /proc
    sut.close()
    if log is not None:
        log.dump(os.path.join(args.rundir, "spans-caller.json"), "caller")
    return 0


def launch(args) -> int:
    log = tracer.install(args.role)
    from repro.cli import main

    rc = main(args.argv)
    log.dump(args.spans, args.role)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_call = sub.add_parser("caller")
    p_call.add_argument("--workload", required=True)
    p_call.add_argument("--inputs", required=True)
    p_call.add_argument("--rundir", required=True)
    p_call.add_argument("--seconds", type=float, required=True)
    p_call.add_argument("--trace", action="store_true")
    p_launch = sub.add_parser("launch")
    p_launch.add_argument("--role", choices=("replica", "router"),
                          required=True)
    p_launch.add_argument("--spans", required=True)
    p_launch.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.cmd == "caller":
        return caller(args)
    if args.argv and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return launch(args)


if __name__ == "__main__":
    sys.exit(main())
