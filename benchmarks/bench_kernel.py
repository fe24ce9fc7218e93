#!/usr/bin/env python
"""Plane-kernel throughput benchmark and perf-baseline writer.

Measures the zero-allocation wavefront kernel (``compute_plane_rows`` +
:class:`~repro.core.workspace.PlaneWorkspace`) against the frozen
pre-workspace reference kernel (``compute_plane_rows_ref`` in
``tests/reference/kernel.py``) on the two
workloads that bracket the engine's regimes:

* **small_repeated** — many score-only sweeps over small cubes, the
  Hirschberg/persistent-pool regime where per-sweep allocation used to
  rival the arithmetic. This is where the workspace wins big. Each side
  takes only ~0.1–0.3 s, so a minimum per side swings with whichever
  side caught a quiet moment; the speedup is instead the median of
  per-pair ``t_ref / t_new`` ratios over four times ``repeats``
  interleaved pairs (:func:`_ab_pairs`).
* **large_sweep** — one big full-traceback sweep, the
  bandwidth-dominated regime where allocation amortises; the new kernel
  must simply not regress here.
* **hirschberg_e2e** — end-to-end linear-space alignment wall time and
  cell throughput, recorded for the perf trajectory.
* **high_similarity** — a ≥0.9-identity triple (the production-typical
  regime): one unpruned score-only wavefront vs the *end-to-end*
  Carrillo–Lipman tube path — banded lower bound, tube build and
  pruned sweep all inside the timed side — asserting bit-identical
  scores. This is the ≥5x acceptance number for the pruned engine.
  A traceback leg, with no floor, times ``align3(method="pruned")``
  against ``align3_hirschberg`` on the same triple and records the
  pruned run's ``move_store_bytes``.
* **scaling** — the synchronisation-regime curve: score-only sweeps of
  one mid-size triple through a per-plane-barrier reference sweep
  (:func:`_barrier_score`, local to this benchmark) and the block-tiled
  engine (``blocks``) at 1/2/4/8 workers, in the same interleaved A/B
  harness as the kernel sections. Scores are asserted bit-identical to
  the serial wavefront at every point. The gate number is the best
  barrier/blocks wall-time ratio at ≥ 4 workers — the regime where the
  per-plane barrier wall dominates. The section also records, with no
  floor, the serial ``wavefront_sweep`` time with ``blocks``' speedup
  and efficiency against it per worker count, and the w=2 speedup over
  serial at a few larger n (where the parallel engine crosses over).
* **affine** — traceback ``affine_sweep`` (the 7-state affine engine's
  tournament kernel) against the frozen allocating sweep
  (``affine_sweep_ref`` in ``tests/reference/affine.py``) at each of
  :data:`AFFINE_NS`, on medium-identity DNA under gap -2 / open -8 (the
  affine class of the ``batch_mixed`` perf workload), interleaved A/B.
  Scores and whole predecessor tables are asserted identical; the gate
  number is the speedup of the summed times.
* **long_anchored** — an n≈2000 high-identity triple through
  ``align3(method="anchored")`` (anchor discovery + cube-chain
  decomposition, ``repro.anchor``): end-to-end wall time, chain
  coverage and dense-cube-equivalent throughput. No unanchored
  reference is timed here — a full n=2000 cube takes minutes; the
  ≥3x speedup floor is enforced by ``tools/check_anchor.py`` with a
  subprocess timeout instead.

``python benchmarks/bench_kernel.py`` prints a summary and (with
``--write``) saves ``BENCH_kernel.json`` at the repo root — the baseline
that ``tools/check_perf.py`` gates against. The file is deliberately
machine-neutral: workload config and measured numbers only, no
hostnames, paths or timestamps.

Every run also self-records one ``bench_kernel`` row into the run-record
database (``RUNS.jsonl``, see ``docs/observability.md``), growing the
perf trajectory that ``check_perf.py --trajectory`` gates against and
``repro report --trends`` renders. ``--no-record`` opts out,
``--runs-file`` redirects the row elsewhere.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def _ensure_importable() -> None:
    root = pathlib.Path(__file__).resolve().parent.parent
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(root / "src"))
    # The reference kernel lives in the test tree (tests/reference).
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))


_ensure_importable()

import numpy as np  # noqa: E402

from repro.core.dp3d import NEG  # noqa: E402
from repro.core.hirschberg import align3_hirschberg  # noqa: E402
from repro.core.scoring import default_scheme_for  # noqa: E402
from repro.core.wavefront import (  # noqa: E402
    compute_plane_rows,
    wavefront_sweep,
)
from repro.core.workspace import PlaneWorkspace  # noqa: E402
from repro.seqio.generate import mutated_family  # noqa: E402
from repro.util.timing import repeat_min  # noqa: E402
from tests.reference.kernel import compute_plane_rows_ref  # noqa: E402


def _ab_min(run_ref, run_new, repeats):
    """Interleaved A/B timing: min seconds per side.

    Alternating ref/new inside each repeat makes slow drift (thermal
    throttling, background load) hit both sides equally, so the two
    minima compare like with like — the same trick as
    ``tools/check_overhead.py``. Each side gets one untimed warmup.
    Returns ``(ref_seconds, new_seconds, ref_result, new_result)``.
    """
    import time

    run_ref()
    run_new()
    t_ref = t_new = float("inf")
    ref_result = new_result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        ref_result = run_ref()
        t_ref = min(t_ref, time.perf_counter() - t0)
        t0 = time.perf_counter()
        new_result = run_new()
        t_new = min(t_new, time.perf_counter() - t0)
    return t_ref, t_new, ref_result, new_result


def _ab_pairs(run_ref, run_new, pairs):
    """Interleaved A/B timing as paired ratios.

    Each pair times both sides back to back, and the side that goes
    first alternates from pair to pair, so host noise during a pair
    hits both of its sides and order effects cancel. Each side gets
    one untimed warmup. Returns ``(ratios, ref_seconds, new_seconds,
    ref_result, new_result)``: the per-pair ``t_ref / t_new`` and each
    side's per-pair times.
    """
    import time

    def timed(run):
        t0 = time.perf_counter()
        result = run()
        return time.perf_counter() - t0, result

    run_ref()
    run_new()
    t_refs, t_news = [], []
    for p in range(pairs):
        if p % 2:
            t_new, new_result = timed(run_new)
            t_ref, ref_result = timed(run_ref)
        else:
            t_ref, ref_result = timed(run_ref)
            t_new, new_result = timed(run_new)
        t_refs.append(t_ref)
        t_news.append(t_new)
    ratios = [r / n for r, n in zip(t_refs, t_news)]
    return ratios, t_refs, t_news, ref_result, new_result


BASELINE_NAME = "BENCH_kernel.json"

#: Cube sizes at which the scaling section times ``blocks`` at two
#: workers against the serial sweep: around where the parallel engine
#: starts to pay on a 2-core host.
CROSSOVER_NS = (96, 140, 180)
#: Sequence lengths of the affine section: the range of the affine
#: triples in the ``batch_mixed`` perf workload.
AFFINE_NS = (50, 70, 90)
SCHEMA = "bench-kernel/2"

#: Default workload knobs. ``quick`` halves the repeats for the CI gate.
DEFAULT_CONFIG = {
    "small_n": 14,
    "small_triples": 24,
    "small_rounds": 3,
    "large_n": 110,
    "hirschberg_n": 90,
    "hirschberg_base_cells": 20_000,
    "high_sim_n": 240,
    "anchored_n": 2000,
    "scaling_n": 96,
    "scaling_workers": [1, 2, 4, 8],
    "scaling_repeats": 3,
    "repeats": 5,
    "seed": 20240805,
}


def _sweep_with_kernel(kernel, seqs, scheme, ws=None):
    """Score-only sweep driving an explicit kernel (the A/B harness).

    Mirrors :func:`repro.core.wavefront.wavefront_sweep` minus
    observability, so the timing isolates kernel cost. Returns
    (score, cells).
    """
    sa, sb, sc = seqs
    n1, n2, n3 = len(sa), len(sb), len(sc)
    sab, sac, sbc = scheme.profile_matrices(sa, sb, sc)
    g2 = 2.0 * scheme.gap
    dims = (n1, n2, n3)
    if ws is None:
        planes = [np.full((n1 + 2, n2 + 2), NEG) for _ in range(4)]
        kwargs = {}
    else:
        planes = ws.planes_for(n1, n2)
        kwargs = {"ws": ws}
    cells = 0
    dmax = n1 + n2 + n3
    for d in range(dmax + 1):
        cells += kernel(
            d,
            0,
            n1,
            planes[(d - 1) % 4],
            planes[(d - 2) % 4],
            planes[(d - 3) % 4],
            planes[d % 4],
            sab,
            sac,
            sbc,
            g2,
            dims,
            **kwargs,
        )
    return float(planes[dmax % 4][n1 + 1, n2 + 1]), cells


def _measure_small_repeated(config, scheme):
    """Hirschberg-style regime: many small score-only sweeps."""
    triples = [
        mutated_family(config["small_n"], seed=config["seed"] + i)
        for i in range(config["small_triples"])
    ]
    rounds = config["small_rounds"]

    def run_ref():
        total = 0
        for _ in range(rounds):
            for seqs in triples:
                _, c = _sweep_with_kernel(
                    compute_plane_rows_ref, seqs, scheme
                )
                total += c
        return total

    ws = PlaneWorkspace()

    def run_new():
        total = 0
        for _ in range(rounds):
            for seqs in triples:
                _, c = _sweep_with_kernel(
                    compute_plane_rows, seqs, scheme, ws=ws
                )
                total += c
        return total

    ratios, t_refs, t_news, cells, cells_new = _ab_pairs(
        run_ref, run_new, 4 * config["repeats"]
    )
    assert cells == cells_new
    t_ref, t_new = min(t_refs), min(t_news)
    return {
        "cells": cells,
        "pairs": len(ratios),
        "ref_seconds": t_ref,
        "new_seconds": t_new,
        "ref_cells_per_s": cells / t_ref,
        "new_cells_per_s": cells / t_new,
        "speedup": float(np.median(ratios)),
    }


def _measure_large_sweep(config, scheme):
    """Single large sweep: the no-regression side of the gate."""
    seqs = mutated_family(config["large_n"], seed=config["seed"] + 1001)

    def run_ref():
        return _sweep_with_kernel(compute_plane_rows_ref, seqs, scheme)[1]

    ws = PlaneWorkspace()

    def run_new():
        return _sweep_with_kernel(compute_plane_rows, seqs, scheme, ws=ws)[1]

    t_ref, t_new, cells, _ = _ab_min(run_ref, run_new, config["repeats"])
    return {
        "cells": cells,
        "ref_seconds": t_ref,
        "new_seconds": t_new,
        "ref_cells_per_s": cells / t_ref,
        "new_cells_per_s": cells / t_new,
        "speedup": t_ref / t_new,
    }


def _measure_hirschberg(config, scheme):
    """End-to-end linear-space alignment; the trajectory number."""
    seqs = mutated_family(
        config["hirschberg_n"], seed=config["seed"] + 2002
    )
    n = config["hirschberg_n"]

    def run():
        return align3_hirschberg(
            *seqs, scheme, base_cells=config["hirschberg_base_cells"]
        )

    seconds, aln = repeat_min(run, repeats=config["repeats"], warmup=1)
    check = wavefront_sweep(*seqs, scheme, score_only=True).score
    assert aln.score == check, "hirschberg/wavefront score mismatch"
    cube = (n + 1) ** 3
    return {
        "n": n,
        "seconds": seconds,
        "cube_cells": cube,
        "cube_cells_per_s": cube / seconds,
        "score": aln.score,
    }


def _measure_high_similarity(config, scheme):
    """Similar-triple regime: unpruned wavefront vs end-to-end pruning.

    The pruned side pays for everything a cold ``method='pruned'``
    request pays — the banded lower-bound sweep, three pairwise
    through-matrices, the tube build — and still has to come
    out ≥5x ahead for the adaptive selector's routing to make sense.
    Scores must match bit for bit (pruning keeps every optimal path).
    """
    from repro.core.bounds import carrillo_lipman_tube
    from repro.seqio.generate import MutationModel

    n = config["high_sim_n"]
    seqs = mutated_family(
        n,
        model=MutationModel(
            substitution=0.02, insertion=0.005, deletion=0.005
        ),
        seed=config["seed"] + 3003,
    )

    def run_ref():
        return wavefront_sweep(*seqs, scheme, score_only=True).score

    stats_holder = {}

    def run_new():
        tube, stats = carrillo_lipman_tube(*seqs, scheme)
        stats_holder["stats"] = stats
        return wavefront_sweep(
            *seqs, scheme, tube=tube, score_only=True
        ).score

    t_ref, t_new, score_ref, score_new = _ab_min(
        run_ref, run_new, config["repeats"]
    )
    assert score_ref == score_new, "pruned/wavefront score mismatch"
    stats = stats_holder["stats"]

    # Traceback leg: the whole pruned engine against the linear-space
    # engine, the other way to an alignment without a dense move cube.
    from repro.core.api import align3

    t_hb, t_pr, hb, pr = _ab_min(
        lambda: align3_hirschberg(*seqs, scheme),
        lambda: align3(*seqs, scheme, method="pruned"),
        config["repeats"],
    )
    assert hb.score == pr.score == score_ref, "traceback score mismatch"
    return {
        "n": n,
        "cube_cells": stats.total_cells,
        "kept_cells": stats.kept_cells,
        "kept_fraction": stats.kept_fraction,
        "ref_seconds": t_ref,
        "new_seconds": t_new,
        "speedup": t_ref / t_new,
        "score": score_ref,
        "hirschberg_traceback_seconds": t_hb,
        "pruned_traceback_seconds": t_pr,
        "move_store_bytes": pr.meta["pruning"]["move_store_bytes"],
    }


def _barrier_score(sa, sb, sc, scheme, workers):
    """Per-plane-barrier reference sweep for the scaling gate.

    Each anti-diagonal plane's rows are re-sliced across ``workers``
    forked processes with ``split_range``, everyone meets one barrier
    per plane, and the planes rotate through a 4-deep window in shared
    memory; the main process is worker 0. Workers beyond the widest
    plane's row count would only ever get empty slices, so they are
    never forked. Fault-free path only: a stuck barrier fails the run
    after a timeout instead of recovering. Returns the optimal score.
    """
    import multiprocessing as mp
    from multiprocessing import shared_memory

    from repro.core.wavefront import plane_bounds
    from repro.parallel.partition import split_range

    dims = n1, n2, n3 = len(sa), len(sb), len(sc)
    dmax = n1 + n2 + n3
    active = min(workers, min(n1, n2 + n3) + 1)
    if active == 1 or "fork" not in mp.get_all_start_methods():
        return wavefront_sweep(sa, sb, sc, scheme, score_only=True).score
    sab, sac, sbc = scheme.profile_matrices(sa, sb, sc)
    g2 = 2.0 * scheme.gap
    ctx = mp.get_context("fork")
    shms = [
        shared_memory.SharedMemory(create=True, size=(n1 + 2) * (n2 + 2) * 8)
        for _ in range(4)
    ]
    planes = [
        np.ndarray((n1 + 2, n2 + 2), dtype=np.float64, buffer=shm.buf)
        for shm in shms
    ]
    for plane in planes:
        plane.fill(NEG)
    barrier = ctx.Barrier(active)

    def sweep(w):
        ws = PlaneWorkspace(dims)
        for d in range(dmax + 1):
            ilo, ihi, _jlo, _jhi = plane_bounds(d, n1, n2, n3)
            lo, hi = split_range(ilo, ihi, active)[w]
            if lo <= hi:
                compute_plane_rows(
                    d, lo, hi, planes[(d - 1) % 4], planes[(d - 2) % 4],
                    planes[(d - 3) % 4], planes[d % 4], sab, sac, sbc, g2,
                    dims, ws=ws,
                )
            barrier.wait(timeout=60)

    procs = [
        ctx.Process(target=sweep, args=(w,), daemon=True)
        for w in range(1, active)
    ]
    try:
        for proc in procs:
            proc.start()
        sweep(0)
        for proc in procs:
            proc.join()
        return float(planes[dmax % 4][n1 + 1, n2 + 1])
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join()
        for shm in shms:
            shm.close()
            shm.unlink()


def _measure_scaling(config, scheme):
    """Barrier-wall regime: per-plane barrier vs block-tiled ``blocks``.

    Both sides compute identical cells with the same kernel; the only
    difference is synchronisation — one barrier per plane versus a
    handful of counter waits per plane *band*. Their wall-time ratio at
    each worker count is therefore a direct measurement of the barrier
    wall, machine-neutral in the same way the kernel A/B ratios are
    (both sides fork the same number of processes on the same box).

    The ``speedup`` gate number is the best barrier/blocks ratio at
    ≥ 4 workers: with few workers both regimes are dispatch-dominated
    and the ratio hovers near 1.0; the barrier wall only opens up once
    the per-plane rendezvous has enough legs. On hosts without ``fork``
    both sides fall back to the identical serial sweep, so the ratio
    degrades to ~1.0 rather than lying.

    Every curve point also carries ``serial_speedup`` (the serial
    ``wavefront_sweep`` time over ``blocks``' time) and ``efficiency``
    (that speedup per worker); ``crossover`` holds the w=2 speedup over
    serial at each of :data:`CROSSOVER_NS`. None of these has a floor: they
    say where the parallel engine starts to pay on the host running it.
    """
    from repro.parallel.blocks import score3_blocks

    n = config["scaling_n"]
    seqs = mutated_family(n, seed=config["seed"] + 5005)
    expect = wavefront_sweep(*seqs, scheme, score_only=True).score
    repeats = config["scaling_repeats"]
    serial_s, _ = repeat_min(
        lambda: wavefront_sweep(*seqs, scheme, score_only=True),
        repeats=repeats,
        warmup=1,
    )
    curve = {}
    for w in config["scaling_workers"]:
        t_barrier, t_blocks, s_barrier, s_blocks = _ab_min(
            lambda: _barrier_score(*seqs, scheme, workers=w),
            lambda: score3_blocks(*seqs, scheme, workers=w),
            repeats,
        )
        assert s_barrier == expect and s_blocks == expect, (
            f"scaling score mismatch at workers={w}: "
            f"barrier={s_barrier} blocks={s_blocks} serial={expect}"
        )
        curve[str(w)] = {
            "barrier_seconds": t_barrier,
            "blocks_seconds": t_blocks,
            "speedup": t_barrier / t_blocks,
            "serial_speedup": serial_s / t_blocks,
            "efficiency": serial_s / t_blocks / w,
        }
    gate = [w for w in config["scaling_workers"] if w >= 4]
    if not gate:
        gate = [max(config["scaling_workers"])]
    gate_w = max(gate, key=lambda w: curve[str(w)]["speedup"])
    crossover = {}
    for cn in CROSSOVER_NS:
        cseqs = mutated_family(cn, seed=config["seed"] + 5005)
        t_serial, t_w2, s_serial, s_w2 = _ab_min(
            lambda: wavefront_sweep(*cseqs, scheme, score_only=True).score,
            lambda: score3_blocks(*cseqs, scheme, workers=2),
            repeats,
        )
        assert s_serial == s_w2, f"crossover score mismatch at n={cn}"
        crossover[str(cn)] = {
            "serial_seconds": t_serial,
            "blocks_seconds": t_w2,
            "serial_speedup": t_serial / t_w2,
        }
    return {
        "n": n,
        "workers": list(config["scaling_workers"]),
        "gate_workers": gate_w,
        "curve": curve,
        "speedup": curve[str(gate_w)]["speedup"],
        "serial_seconds": serial_s,
        "crossover": crossover,
        "score": expect,
    }


def _measure_affine(config, scheme):
    """Affine traceback: the tournament kernel against the frozen sweep.

    Each size is one medium-identity DNA family (6% substitutions, 1%
    insertions and deletions) under gap -2 / open -8, swept with the
    predecessor table by both kernels in the interleaved harness. The
    two must agree on the score and on every stored predecessor (the
    reference keeps a never-written slab 0, hence ``[1:]``).
    """
    from repro.core.affine import affine_sweep
    from repro.seqio.generate import MutationModel
    from tests.reference.affine import affine_sweep_ref

    affine = scheme.with_gaps(gap=-2.0, gap_open=-8.0)
    points = {}
    for n in AFFINE_NS:
        seqs = mutated_family(
            n,
            model=MutationModel(
                substitution=0.06, insertion=0.01, deletion=0.01
            ),
            seed=config["seed"] + 6006 + n,
        )
        t_ref, t_new, ref, new = _ab_min(
            lambda: affine_sweep_ref(*seqs, affine),
            lambda: affine_sweep(*seqs, affine),
            config["repeats"],
        )
        assert ref.score == new.score and np.array_equal(
            ref.prev_state[1:], new.prev_state
        ), f"affine score/table mismatch at n={n}"
        points[str(n)] = {
            "cells": new.cells_computed,
            "ref_seconds": t_ref,
            "new_seconds": t_new,
            "speedup": t_ref / t_new,
        }
    ref_s = sum(p["ref_seconds"] for p in points.values())
    new_s = sum(p["new_seconds"] for p in points.values())
    return {
        "ns": list(AFFINE_NS),
        "gap": affine.gap,
        "gap_open": affine.gap_open,
        "points": points,
        "ref_seconds": ref_s,
        "new_seconds": new_s,
        "speedup": ref_s / new_s,
    }


def _measure_long_anchored(config, scheme):
    """Long-sequence regime: anchored divide-and-conquer end to end.

    One timed ``align3(method="anchored")`` run (discovery, chaining,
    per-sub-cube engine selection, stitching) on a triple no dense
    engine serves interactively. ``dense_equiv_cells_per_s`` divides the
    *full* lattice size by the anchored wall time — the apples-to-apples
    number against the other regimes' cells/s.
    """
    from repro.core.api import align3
    from repro.seqio.generate import MutationModel

    n = config["anchored_n"]
    seqs = mutated_family(
        n,
        model=MutationModel(
            substitution=0.02, insertion=0.005, deletion=0.005
        ),
        seed=config["seed"] + 4004,
    )

    def run():
        return align3(*seqs, scheme, method="anchored")

    # min-of-2, not config["repeats"]: one run is seconds, and the gate
    # (check_perf) re-executes this whole document on every invocation.
    seconds, aln = repeat_min(run, repeats=2, warmup=0)
    anchor = aln.meta["anchor"]
    assert anchor["anchors"] > 0, (
        "anchored bench triple must actually anchor; discovery said: "
        f"{anchor.get('discovery')}"
    )
    cube = 1
    for s in seqs:
        cube *= len(s) + 1
    return {
        "n": n,
        "seconds": seconds,
        "anchors": anchor["anchors"],
        "coverage": anchor["coverage"],
        "segments": anchor["segments"],
        "max_subcube_cells": anchor["max_subcube_cells"],
        "cube_cells": cube,
        "dense_equiv_cells_per_s": cube / seconds,
        "score": aln.score,
    }


def run(config: dict | None = None) -> dict:
    """Run the full benchmark; returns the result document."""
    cfg = dict(DEFAULT_CONFIG)
    if config:
        cfg.update(config)
    from repro.seqio import DNA

    scheme = default_scheme_for(DNA)
    return {
        "schema": SCHEMA,
        "config": cfg,
        "small_repeated": _measure_small_repeated(cfg, scheme),
        "large_sweep": _measure_large_sweep(cfg, scheme),
        "hirschberg_e2e": _measure_hirschberg(cfg, scheme),
        "high_similarity": _measure_high_similarity(cfg, scheme),
        "scaling": _measure_scaling(cfg, scheme),
        "affine": _measure_affine(cfg, scheme),
        "long_anchored": _measure_long_anchored(cfg, scheme),
    }


def baseline_path() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parent.parent / BASELINE_NAME


def summarise(doc: dict) -> str:
    sm, lg, hb = (
        doc["small_repeated"],
        doc["large_sweep"],
        doc["hirschberg_e2e"],
    )
    lines = [
        f"small repeated : {sm['new_cells_per_s']:,.0f} cells/s "
        f"(ref {sm['ref_cells_per_s']:,.0f}) "
        f"speedup {sm['speedup']:.2f}x",
        f"large sweep    : {lg['new_cells_per_s']:,.0f} cells/s "
        f"(ref {lg['ref_cells_per_s']:,.0f}) "
        f"speedup {lg['speedup']:.2f}x",
        f"hirschberg e2e : n={hb['n']} in {hb['seconds']:.3f} s "
        f"({hb['cube_cells_per_s']:,.0f} cube cells/s)",
    ]
    hs = doc.get("high_similarity")
    if hs:
        lines.append(
            f"high similarity: n={hs['n']} pruned "
            f"{hs['new_seconds'] * 1000:.1f} ms vs full "
            f"{hs['ref_seconds'] * 1000:.1f} ms — "
            f"speedup {hs['speedup']:.2f}x "
            f"(kept {hs['kept_fraction']:.2%} of the cube)"
        )
        if "pruned_traceback_seconds" in hs:
            lines.append(
                f"  traceback    : pruned "
                f"{hs['pruned_traceback_seconds'] * 1000:.1f} ms vs "
                f"hirschberg {hs['hirschberg_traceback_seconds'] * 1000:.1f}"
                f" ms, move store {hs['move_store_bytes']:,} B "
                f"(dense cube {hs['cube_cells']:,} B)"
            )
    sc = doc.get("scaling")
    if sc:
        points = " ".join(
            f"w={w}:{sc['curve'][str(w)]['speedup']:.2f}x"
            for w in sc["workers"]
        )
        lines.append(
            f"scaling        : n={sc['n']} blocks vs barrier — {points} "
            f"(gate {sc['speedup']:.2f}x at w={sc['gate_workers']})"
        )
        if "serial_seconds" in sc:
            vs_serial = " ".join(
                f"w={w}:{sc['curve'][str(w)]['serial_speedup']:.2f}x"
                f"/{sc['curve'][str(w)]['efficiency']:.0%}"
                for w in sc["workers"]
            )
            lines.append(
                f"vs serial      : n={sc['n']} serial "
                f"{sc['serial_seconds'] * 1000:.1f} ms — blocks "
                f"speedup/efficiency {vs_serial}"
            )
            cross = " ".join(
                f"n={cn}:{pt['serial_speedup']:.2f}x"
                for cn, pt in sc["crossover"].items()
            )
            lines.append(f"w=2 vs serial  : {cross}")
    af = doc.get("affine")
    if af:
        points = " ".join(
            f"n={n}:{pt['speedup']:.2f}x" for n, pt in af["points"].items()
        )
        lines.append(
            f"affine         : traceback {af['new_seconds'] * 1000:.0f} ms "
            f"vs ref {af['ref_seconds'] * 1000:.0f} ms — speedup "
            f"{af['speedup']:.2f}x ({points})"
        )
    la = doc.get("long_anchored")
    if la:
        lines.append(
            f"long anchored  : n={la['n']} in {la['seconds']:.2f} s — "
            f"{la['anchors']} anchors, coverage {la['coverage']:.0%}, "
            f"{la['dense_equiv_cells_per_s']:,.0f} dense-equiv cells/s"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark the plane kernel and write the perf baseline"
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help=f"save results to {BASELINE_NAME} at the repo root",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timed repeats per side"
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="skip appending this run to the run-record store",
    )
    parser.add_argument(
        "--runs-file",
        default=None,
        metavar="FILE",
        help="run-record store to append to (default: RUNS.jsonl at the "
        "repo root)",
    )
    args = parser.parse_args(argv)
    overrides = {}
    if args.repeats is not None:
        if args.repeats < 1:
            parser.error("repeats must be >= 1")
        overrides["repeats"] = args.repeats

    import time as _time

    from repro.runs import kernel_metrics, record_run

    t0 = _time.perf_counter()
    doc = run(overrides)
    wall = _time.perf_counter() - t0
    print(summarise(doc))
    record = record_run(
        "bench_kernel",
        config=doc["config"],
        metrics=kernel_metrics(doc),
        wall_s=wall,
        runs_file=args.runs_file,
        enabled=not args.no_record,
        git_dir=baseline_path().parent,
    )
    if record is not None:
        print(f"# run recorded: kind=bench_kernel fp={record.fp[:8]}")
    if args.write:
        path = baseline_path()
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"baseline written to {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
