#!/usr/bin/env python3
"""End-to-end benchmark of the three-way aligner: one command, three
workloads, a correctness gate on every result.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 20 --trace 0

``--workload``  ``serve_small`` (HTTP through ``repro router`` to one
                ``repro serve --workers 1`` replica, closed loop, two
                keep-alive connections), ``batch_mixed``
                (``BatchScheduler.run_stream`` as ``repro batch`` drives it)
                or ``long_single`` (sequential ``align3`` calls as
                ``repro align`` makes them).
``--seed``      makes the inputs; the same seed gives the same inputs.
``--seconds``   length of the measured window.
``--trace 1``   runs the workload untraced, then again with per-layer
                spans, and prints the per-layer metrics (see NOTES.md).

Run from the repository root; the program is imported from ``src``. The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``). Every other line starts with ``#``.
"""

from __future__ import annotations

import argparse
import collections
import http.client
import json
import os
import queue
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("serve_small", "batch_mixed", "long_single")
#: Set-up samples per run (the median is reported).
SETUP_SAMPLES = {"serve_small": 5, "batch_mixed": 11, "long_single": 11}
#: serve_small's latency sample: POSTs 0 .. MIN_POSTS - 1, whose class
#: mix is the same for every seed; nearest-rank p99 of 1000 leaves 10
#: samples beyond it.
MIN_POSTS = 1000
#: serve_small's window is cut into this many equal time slices; its
#: throughput is the median slice rate.
SLICES = 10
CONNECTIONS = 2
#: POSTs generated per measured second: enough that the list outlasts
#: the window even at several times today's throughput.
POSTS_PER_SECOND = 200
WARMUP = {"seqs": ["ACGTACGTAC", "ACGTTCGTAC", "ACGAACGTAC"]}
START_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, start failure)."""


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


# ---------------------------------------------------------------------------
# Processes of the system under test
# ---------------------------------------------------------------------------


def program_env() -> tuple[dict, list[str]]:
    """The environment the program runs in: no ``REPRO_*`` variables
    (fault injection, memory budgets), the program on PYTHONPATH."""
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if k not in cleared}
    env["PYTHONPATH"] = str(SRC)
    return env, cleared


def _proc_stat(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        return fh.read().rsplit(")", 1)[1].split()


def _running(pid: int) -> bool:
    """Whether ``pid`` has not ended; an orphan's zombie has ended and
    waits only for init to reap it."""
    try:
        return _proc_stat(pid)[0] != "Z"
    except (OSError, IndexError):
        return False


def descendants(pid: int) -> list[int]:
    """``pid`` and every process below it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                ppid = int(_proc_stat(int(entry))[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, []))
    return out


def peak_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def host_ticks() -> list[int]:
    """Machine-wide CPU ticks (user, nice, system, idle, ..., steal)."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(x) for x in fh.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of the machine's CPU time the hypervisor gave elsewhere."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d) if sum(d) else 0.0


def cpu_seconds(pid: int) -> float:
    try:
        fields = _proc_stat(pid)
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Child:
    """One started process: stderr is drained into a bounded tail."""

    def __init__(self, cmd, env, *, stdin=None, stdout=None):
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdin=stdin, stdout=stdout,
            stderr=subprocess.PIPE, text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.tail: collections.deque = collections.deque(maxlen=30)
        threading.Thread(target=self._drain, daemon=True).start()

    def _drain(self):
        for line in self.proc.stderr:
            self.tail.append(line.rstrip())
            self.lines.put(line)

    def wait_banner(self, banner: str) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                line = self.lines.get(timeout=0.5)
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
                continue
            m = re.match(rf"# {banner} [\d.]+:(\d+)", line)
            if m:
                return int(m.group(1))
        raise BenchError(f"{banner!r} never appeared: {list(self.tail)}")

    def stop(self, grace: float = 0.0, timeout: float = 30.0) -> None:
        """Give the process ``grace`` seconds to exit on its own, then
        SIGTERM it (SIGKILL after ``timeout``); then wait for everything
        it started (pool workers, multiprocessing's resource tracker)."""
        family = descendants(self.proc.pid)[1:]
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + 10.0
        while family and time.monotonic() < deadline:
            family = [p for p in family if _running(p)]
            time.sleep(0.02)
        for pid in family:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# serve_small: load generator -> repro router -> repro serve
# ---------------------------------------------------------------------------


def _post(conn, body: bytes):
    conn.request("POST", "/v1/align", body=body,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def _get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


class ServeSystem:
    """``repro serve --workers 1`` behind ``repro router``, started
    fresh; ``setup_s`` runs from the first launch to the first 200
    through the router."""

    def __init__(self, env, rundir, traced, tag):
        py = sys.executable
        self.spans = []
        t0 = time.perf_counter()
        if traced:
            self.spans = [rundir / f"spans-replica-{tag}.json",
                          rundir / f"spans-router-{tag}.json"]
            rep = [py, str(HERE / "sut.py"), "launch", "--role", "replica",
                   "--spans", str(self.spans[0]), "--"]
            rout = [py, str(HERE / "sut.py"), "launch", "--role", "router",
                    "--spans", str(self.spans[1]), "--"]
        else:
            rep = rout = [py, "-m", "repro"]
        self.replica = Child(rep + ["serve", "--port", "0", "--workers", "1"],
                             env)
        self.router = None
        try:
            self.replica_port = self.replica.wait_banner("serving on")
            self.router = Child(rout + ["router",
                                        f"127.0.0.1:{self.replica_port}",
                                        "--port", "0"], env)
            self.port = self.router.wait_banner("routing on")
            self._first_200()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _first_200(self):
        body = json.dumps(WARMUP).encode()
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=30)
            try:
                if _post(conn, body)[0] == 200:
                    return
            except (OSError, http.client.HTTPException, ValueError):
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise BenchError("no 200 through the router")

    def pids(self):
        return [p for c in (self.router, self.replica)
                for p in descendants(c.proc.pid)]

    def stop(self):
        # Router first, so it never fails over against a draining replica.
        for child in (self.router, self.replica):
            if child is not None:
                child.stop()


def drive(port: int, bodies: list[bytes], seconds: float):
    """Closed loop: connection ``c`` sends ``bodies[c::CONNECTIONS]`` in
    order, each POST when the previous response arrives; it stops once
    ``seconds`` have passed and it has sent its share of the first
    MIN_POSTS (or its list runs out)."""
    out: list[tuple] = []
    start = time.perf_counter()

    def worker(c):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            for i in range(c, len(bodies), CONNECTIONS):
                if i >= MIN_POSTS and time.perf_counter() - start >= seconds:
                    return
                t0 = time.perf_counter()
                try:
                    status, data = _post(conn, bodies[i])
                except (OSError, http.client.HTTPException,
                        ValueError) as exc:
                    status, data = None, repr(exc)
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=30)
                t1 = time.perf_counter()
                out.append((i, status, t1 - t0, data, t1))
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(c,))
               for c in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out, (start, time.perf_counter())


def run_serve(inputs, seconds, env, rundir, traced):
    posts = inputs
    bodies = [
        json.dumps({"seqs": p[0]["seqs"]} if len(p) == 1 else
                   {"requests": [{"seqs": it["seqs"]} for it in p]}).encode()
        for p in posts
    ]
    setups = []
    for k in range(SETUP_SAMPLES["serve_small"]):
        system = ServeSystem(env, rundir, traced, k)
        setups.append(system.setup_s)
        if k < SETUP_SAMPLES["serve_small"] - 1:
            system.stop()
    extra: dict = {}
    try:
        if traced:
            before = (_get(system.port, "/metrics"),
                      _get(system.replica_port, "/metrics"))
            cpu0 = _cpu_snapshot(system)
        ticks = host_ticks()
        sent, window = drive(system.port, bodies, seconds)
        steal = steal_share(ticks, host_ticks())
        wall = window[1] - window[0]
        if traced:
            cpu1 = _cpu_snapshot(system)
            after = (_get(system.port, "/metrics"),
                     _get(system.replica_port, "/metrics"))
            extra.update(_serve_counters(before, after))
            extra["cpu"] = {r: (cpu1[r] - cpu0[r]) / wall for r in cpu0}
        rss = sum(peak_rss_kib(p) for p in system.pids()) / 1024
    finally:
        system.stop()
    results, latencies = [], {}
    slices = [0] * SLICES  # triples whose POST completed in each slice
    for i, status, lat, data, t_done in sent:
        latencies[i] = lat
        rows = data.get("results") if status == 200 and \
            isinstance(data, dict) else None
        k = min(SLICES - 1, int((t_done - window[0]) / wall * SLICES))
        slices[k] += len(posts[i])
        for j, it in enumerate(posts[i]):
            if rows is None or j >= len(rows):
                err = f"POST {i}: status {status}: {str(data)[:200]}"
                results.append((it, None, err))
            else:
                results.append((it, rows[j], None))
    sample = [latencies[i] for i in range(MIN_POSTS) if i in latencies]
    return {
        "setups": setups, "wall": wall, "window": window,
        "results": results, "rss_mib": rss,
        "spans": system.spans, "extra": extra,
        "e2e_s": sum(latencies.values()), "steal": steal,
        # The median time slice, so a few seconds of host stall inside
        # one slice do not move the run's figure.
        "rate": statistics.median(n * SLICES / wall for n in slices),
        "p50_s": statistics.median(sample),
        "p99_s": tracer.percentile(sample, 0.99),
        "latency_samples": f"{len(sample)} POSTs",
    }


def _cpu_snapshot(system: ServeSystem):
    t = os.times()
    return {
        "client": t.user + t.system,
        "router": sum(cpu_seconds(p)
                      for p in descendants(system.router.proc.pid)),
        "replica": sum(cpu_seconds(p)
                       for p in descendants(system.replica.proc.pid)),
    }


def _serve_counters(before, after) -> dict:
    (r0, s0), (r1, s1) = before, after
    retries = r1["router"]["retries"] - r0["router"]["retries"]
    c0, c1 = s0["metrics"]["counters"], s1["metrics"]["counters"]

    def delta(name):
        return c1.get(name, 0) - c0.get(name, 0)

    flushes = delta("serve_flushes")
    a0, a1 = s0["admission"], s1["admission"]
    shed = a1["shed_total"] - a0["shed_total"]
    admitted = a1["admitted_total"] - a0["admitted_total"]
    return {
        "router_retries": retries,
        "flush_age_share": delta("serve_flush_age") / flushes
        if flushes else 0.0,
        "shed_ratio": shed / (shed + admitted) if shed + admitted else 0.0,
    }


# ---------------------------------------------------------------------------
# batch_mixed / long_single: one in-process caller
# ---------------------------------------------------------------------------


def run_caller(workload, items, seconds, env, rundir, traced):
    inputs = rundir / "inputs.json"
    inputs.write_text(json.dumps(items))
    cmd = [sys.executable, str(HERE / "sut.py"), "caller",
           "--workload", workload, "--inputs", str(inputs),
           "--rundir", str(rundir), "--seconds", str(seconds)]
    if traced:
        cmd.append("--trace")
    setups = []
    n = SETUP_SAMPLES[workload]
    for k in range(n):
        t0 = time.perf_counter()
        child = Child(cmd, env, stdin=subprocess.PIPE,
                      stdout=subprocess.PIPE)
        line = _readline(child, START_TIMEOUT_S)
        if line.strip() != "READY":
            child.stop()
            raise BenchError(f"caller did not start: {list(child.tail)}")
        setups.append(time.perf_counter() - t0)
        if k < n - 1:
            child.proc.stdin.write("EXIT\n")
            child.proc.stdin.flush()
            child.stop(grace=60)
    grace = 0.0  # until EXIT is sent, stopping means SIGTERM
    try:
        pool_pids = [p for p in descendants(child.proc.pid)
                     if p != child.proc.pid and not _is_tracker(p)]
        cpu0 = _caller_cpu(child.proc.pid, pool_pids)
        ticks = host_ticks()
        child.proc.stdin.write("GO\n")
        child.proc.stdin.flush()
        line = _readline(child, 3 * seconds + 60)
        if not line.startswith("DONE "):
            raise BenchError(f"caller failed: {list(child.tail)}")
        steal = steal_share(ticks, host_ticks())
        done = json.loads(line[5:])
        cpu1 = _caller_cpu(child.proc.pid, pool_pids)
        rss = sum(peak_rss_kib(p)
                  for p in descendants(child.proc.pid)) / 1024
        child.proc.stdin.write("EXIT\n")
        child.proc.stdin.flush()
        grace = 60.0
    finally:
        child.stop(grace=grace)
    wall = sum(done["pass_s"])
    # The input list's time from per-item medians over the passes, so a
    # host stall in one pass moves only the items it hit.
    list_s = sum(statistics.median(p[k] for p in done["items_s"])
                 for k in done["items_s"][0])
    window = tuple(done["window"])
    span_wall = window[1] - window[0]
    records = {}
    with open(rundir / "results.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            records[(rec["pass"], rec["index"])] = rec
    results = []
    for p in range(len(done["pass_s"])):
        for i, it in enumerate(items):
            rec = records.get((p, i))
            results.append((it, rec, None if rec else f"pass {p}: no "
                            f"result for request {i}"))
    extra = {
        "disk_bytes": done["disk_bytes"],
        "cpu": {r: (cpu1[r] - cpu0[r]) / span_wall for r in cpu0},
    }
    spans = [rundir / "spans-caller.json"] if traced else []
    if traced:
        extra.update(_worker_records(rundir / "workers.jsonl", window))
    return {
        "setups": setups, "wall": wall, "window": window,
        "results": results, "rss_mib": rss, "spans": spans,
        "extra": extra, "e2e_s": wall, "steal": steal,
        "rate": len(items) / list_s,
        # A user waits for the whole list: one latency sample per pass.
        "p50_s": list_s,
        "p99_s": max(done["pass_s"]),
        "latency_samples": f"{len(done['pass_s'])} passes",
    }


def _is_tracker(pid: int) -> bool:
    """multiprocessing's resource tracker (not a pool worker)."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"resource_tracker" in fh.read()
    except OSError:
        return False


def _readline(child: Child, timeout: float) -> str:
    timer = threading.Timer(timeout, child.proc.kill)
    timer.start()
    try:
        return child.proc.stdout.readline()
    finally:
        timer.cancel()


def _caller_cpu(pid, pool_pids):
    t = os.times()
    return {
        "client": t.user + t.system,
        "caller": cpu_seconds(pid),
        "pool": sum(cpu_seconds(p) for p in pool_pids),
    }


def _worker_records(path: Path, window) -> dict:
    busy = wait = 0.0
    if path.exists():
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            if rec["engine"] == "pool" and window[0] <= rec["t"] <= window[1]:
                busy += rec["busy"]
                wait += rec["wait"]
    return {"pool_wait_share": wait / (busy + wait) if busy + wait else 0.0}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def _ref_key(it):
    return json.dumps([it["seqs"], it["mode"], it["scheme"]])


def reference_scores(items, cache_path: Path) -> dict:
    """Serial score-only reference per distinct (triple, mode, scheme),
    cached per seed (computed outside the measured window)."""
    from repro.core.api import align3_score
    from repro.core.local import score3_local
    from repro.core.semiglobal import score3_semiglobal

    import workloads

    refs = {}
    if cache_path.exists():
        refs = json.loads(cache_path.read_text())
    fresh = False
    for it in items:
        key = _ref_key(it)
        if key in refs or it["method"] == "anchored":
            continue
        scheme = workloads.scheme_for(it)
        if it["mode"] == "local":
            refs[key] = score3_local(*it["seqs"], scheme)
        elif it["mode"] == "semiglobal":
            refs[key] = score3_semiglobal(*it["seqs"], scheme)
        else:
            refs[key] = align3_score(*it["seqs"], scheme)
        fresh = True
    if fresh:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        cache_path.write_text(json.dumps(refs))
    return refs


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))


def check(it, rec, refs) -> str | None:
    """Why ``rec`` (``rows``, ``score``) is wrong for ``it``, or None."""
    import workloads

    rows, score = rec.get("rows"), rec.get("score")
    if not isinstance(rows, list) or len(rows) != 3 or \
            len({len(r) for r in rows}) != 1:
        return "rows missing or ragged"
    if not isinstance(score, (int, float)):
        return "score missing"
    bare = [r.replace("-", "") for r in rows]
    if it["mode"] == "local":
        if not all(b in s for b, s in zip(bare, it["seqs"])):
            return "local rows are not substrings of the inputs"
    elif bare != list(it["seqs"]):
        return "rows without gaps are not the inputs"
    scheme = workloads.scheme_for(it)
    if it["mode"] == "global":
        sp = (scheme.sp_score_affine_quasinatural(rows) if scheme.is_affine
              else scheme.sp_score(rows))
        if not _close(sp, score):
            return f"SP score of rows {sp} != returned {score}"
    if it["method"] != "anchored":
        ref = refs[_ref_key(it)]
        if not _close(ref, score):
            return f"score {score} != reference {ref}"
    return None


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


def measure(workload, inputs, seconds, env, rundir, traced):
    rundir.mkdir(parents=True, exist_ok=True)
    if workload == "serve_small":
        run = run_serve(inputs, seconds, env, rundir, traced)
    else:
        run = run_caller(workload, inputs, seconds, env, rundir, traced)
    if traced:
        run["procs"] = tracer.load(run["spans"])
    return run


def verify(run, cache_path):
    refs = reference_scores([it for it, _rec, _err in run["results"]],
                            cache_path)
    ok, failures = 0, []
    for it, rec, err in run["results"]:
        if err is None:
            err = check(it, rec, refs)
        if err is None:
            ok += 1
        else:
            failures.append(err)
    return ok, failures


def end_to_end(run, ok):
    """The end-to-end metrics of one run; ``ok`` triples passed the gate,
    and throughput counts only those."""
    return {
        "setup_s": statistics.median(run["setups"]),
        "throughput_rps": run["rate"] * ok / len(run["results"]),
        "latency_p50_ms": run["p50_s"] * 1e3,
        "latency_p99_ms": run["p99_s"] * 1e3,
        "peak_rss_mb": run["rss_mib"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark (see perfbench/NOTES.md)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is not in {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env, cleared = program_env()
    log(f"workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    log(f"program environment: REPRO_* cleared "
        f"({', '.join(cleared) if cleared else 'none were set'})")

    if args.workload == "serve_small":
        inputs = workloads.serve_small(
            args.seed, int(POSTS_PER_SECOND * max(args.seconds, 10)))
        items = [it for post in inputs for it in post]
        props = workloads.properties(items, inputs)
    else:
        inputs = getattr(workloads, args.workload)(args.seed)
        items = inputs
        props = workloads.properties(items)
    log("properties " + json.dumps(props))

    scratch = ROOT / ".perfbench"
    rundir = scratch / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    cache_path = scratch / "refs" / f"{args.workload}-{props['digest']}.json"
    try:
        base = measure(args.workload, inputs, args.seconds, env,
                       rundir / "untraced", False)
        ok, failures = verify(base, cache_path)
        e2e = end_to_end(base, ok)
        traced = None
        if args.trace:
            traced = measure(args.workload, inputs, args.seconds, env,
                             rundir / "traced", True)
            t_ok, t_fail = verify(traced, cache_path)
            ok += t_ok
            failures += t_fail
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = len(base["results"]) + (
        len(traced["results"]) if traced else 0)
    log(f"setup_s samples: {[round(s, 4) for s in base['setups']]}")
    log(f"measured {base['wall']:.2f} s, latency over "
        f"{base['latency_samples']}, {len(base['results'])} triples; host CPU "
        f"steal during the window {100 * base['steal']:.1f}%")
    log(f"peak_rss_mb = sum of VmHWM over the system's processes "
        f"(router, replica or caller, pool workers); generator excluded")
    for err in failures[:10]:
        log(f"FAILED: {err}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        log(f"{name:<16} {value:>14.4f} {units.get(name, '')}")

    if args.trace:
        layers, by, selfs = tracer.layer_metrics(
            traced["procs"], traced["window"], e2e_seconds=traced["e2e_s"],
            extra=traced["extra"],
        )
        t_e2e = end_to_end(traced, t_ok)
        layers["trace.overhead_pct"] = 100.0 * (
            1.0 - t_e2e["throughput_rps"] / e2e["throughput_rps"])
        _print_trace(spec, e2e, t_e2e, layers, by, selfs)
        metrics = {
            m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def _print_trace(spec, e2e, t_e2e, layers, by, selfs):
    log("untraced / traced end-to-end:")
    for name in e2e:
        log(f"  {name:<16} {e2e[name]:>12.4f} {t_e2e[name]:>12.4f}")
    log("spans in the traced window (count, total s, self s):")
    for name in sorted(by):
        total = sum(s[2] - s[1] for s in by[name])
        log(f"  {name:<20} {len(by[name]):>7} {total:>10.4f} "
            f"{selfs.get(name, 0.0):>10.4f}")
    log("per-layer metrics:")
    for m in spec["per_layer"]:
        log(f"  {m['name']:<30} {layers[m['name']]:>16.6g} {m['unit']}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
