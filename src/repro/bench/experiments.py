"""One runner per table/figure of the (reconstructed) evaluation.

See the mismatch notice in ``DESIGN.md``: the experiment set reconstructs
the standard evaluation of the paper family from the title/venue; each
runner prints the rows or series the corresponding table or figure would
contain, and ``EXPERIMENTS.md`` records the measured outputs.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from repro.bench.harness import ExperimentResult, experiment
from repro.cluster import (
    BlockGrid,
    ethernet_2007,
    gigabit_2007,
    simulate_wavefront,
)
from repro.cluster.metrics import block_sweep, sweep_procs
from repro.core.affine import align3_affine, score3_affine
from repro.core.bounds import PruningStats, carrillo_lipman_tube
from repro.core.dp3d import NEG, score3_dp3d
from repro.core.hirschberg import align3_hirschberg, memory_estimate_bytes
from repro.core.scoring import default_scheme_for
from repro.core.wavefront import (
    compute_plane_rows,
    plane_bounds,
    score3_wavefront,
)
from repro.core.workspace import PlaneWorkspace
from repro.heuristics import align3_centerstar, align3_progressive
from repro.parallel.blocks import score3_blocks
from repro.parallel.partition import split_range
from repro.seqio.alphabet import DNA, PROTEIN
from repro.seqio.datasets import bundled_sequences
from repro.seqio.generate import MutationModel, mutated_family
from repro.util.tables import Table, format_series
from repro.util.timing import repeat_min

_DNA = default_scheme_for(DNA)
_PROCS = (1, 2, 4, 8, 16, 32, 64)


def _family(n: int, scale: float = 1.0, seed: int = 11) -> list[str]:
    model = MutationModel().scaled(scale)
    return mutated_family(n, model=model, seed=seed)


# ---------------------------------------------------------------------------
# T1 — sequential runtime vs length: scalar reference vs vectorised wavefront
# ---------------------------------------------------------------------------


@experiment("t1", "Table 1: sequential runtime vs sequence length")
def exp_t1(quick: bool) -> ExperimentResult:
    ns_scalar = (10, 20, 30) if quick else (10, 20, 30, 40)
    ns_vector = (20, 40, 60) if quick else (20, 40, 60, 80, 100, 120)
    table = Table(
        "T1 sequential runtime (DNA, linear gaps)",
        ["n", "cells", "t_dp3d_s", "t_wavefront_s", "vector_speedup", "Mcells/s"],
    )
    data: dict[str, list] = {"rows": []}
    for n in ns_vector:
        seqs = _family(n)
        cells = (len(seqs[0]) + 1) * (len(seqs[1]) + 1) * (len(seqs[2]) + 1)
        t_wf, s_wf = repeat_min(lambda: score3_wavefront(*seqs, _DNA), repeats=2)
        if n in ns_scalar:
            t_ref, s_ref = repeat_min(lambda: score3_dp3d(*seqs, _DNA), repeats=1)
            assert abs(s_ref - s_wf) < 1e-9
            ratio = t_ref / t_wf
        else:
            t_ref, ratio = float("nan"), float("nan")
        mcps = cells / t_wf / 1e6
        table.add_row(n, cells, t_ref, t_wf, ratio, mcps)
        data["rows"].append((n, cells, t_ref, t_wf, ratio, mcps))
    return ExperimentResult("t1", "sequential runtime", table.render(), data)


# ---------------------------------------------------------------------------
# T2 — memory: full matrix vs rolling vs Hirschberg
# ---------------------------------------------------------------------------


@experiment("t2", "Table 2: memory footprint of the engines")
def exp_t2(quick: bool) -> ExperimentResult:
    ns = (40, 80) if quick else (40, 80, 120, 160)
    table = Table(
        "T2 memory (bytes; analytic, plus tracemalloc-measured at smallest n)",
        ["n", "full_matrix_B", "wavefront_tb_B", "score_only_B", "hirschberg_B"],
    )
    data: dict[str, list] = {"rows": []}
    for n in ns:
        cube = (n + 1) ** 3
        full = cube * (8 + 1)  # float64 scores + int8 moves
        wavefront_tb = 4 * (n + 2) ** 2 * 8 + cube  # planes + move cube
        score_only = 4 * (n + 2) ** 2 * 8
        hb = memory_estimate_bytes(n, n, n)
        table.add_row(n, full, wavefront_tb, score_only, hb)
        data["rows"].append((n, full, wavefront_tb, score_only, hb))

    # Measured peak for the two memory-light paths at the smallest size.
    seqs = _family(ns[0])
    tracemalloc.start()
    score3_wavefront(*seqs, _DNA)
    _cur, peak_score = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracemalloc.start()
    align3_hirschberg(*seqs, _DNA, base_cells=4_000)
    _cur, peak_hb = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    note = (
        f"measured peaks at n={ns[0]}: score-only wavefront "
        f"{peak_score} B, hirschberg {peak_hb} B"
    )
    data["measured"] = {"score_only": peak_score, "hirschberg": peak_hb}
    return ExperimentResult(
        "t2", "memory", table.render() + "\n" + note, data
    )


# ---------------------------------------------------------------------------
# F1/F2 — simulated cluster speedup / efficiency vs processor count
# ---------------------------------------------------------------------------


def _f1_sweep(quick: bool):
    ns = (100, 200) if quick else (100, 200, 400)
    series = {}
    results = {}
    for n in ns:
        res = sweep_procs(n, _PROCS, ethernet_2007(1), block=16)
        series[f"n={n}"] = [r.speedup for r in res]
        results[n] = res
    return ns, series, results


@experiment("f1", "Figure 1: simulated speedup vs processors (ethernet-2007)")
def exp_f1(quick: bool) -> ExperimentResult:
    ns, series, results = _f1_sweep(quick)
    rendered = format_series(
        "F1 speedup vs P (block 16, pencil mapping)", "P", list(_PROCS), series
    )
    ideal = {"ideal": list(_PROCS)}
    data = {"procs": list(_PROCS), "series": series, "ideal": ideal}
    return ExperimentResult("f1", "speedup", rendered, data)


@experiment("f2", "Figure 2: simulated parallel efficiency vs processors")
def exp_f2(quick: bool) -> ExperimentResult:
    ns, _series, results = _f1_sweep(quick)
    series = {
        f"n={n}": [r.efficiency for r in results[n]] for n in ns
    }
    rendered = format_series(
        "F2 efficiency vs P (block 16, pencil mapping)", "P", list(_PROCS), series
    )
    return ExperimentResult(
        "f2", "efficiency", rendered, {"procs": list(_PROCS), "series": series}
    )


# ---------------------------------------------------------------------------
# F3 — measured shared-memory speedup on this machine
# ---------------------------------------------------------------------------


def _score3_threads(sa: str, sb: str, sc: str, scheme, workers: int) -> float:
    """Score-only wavefront over ``workers`` threads: each plane's rows
    are split across the threads, one barrier per plane. F3's GIL
    column — it shows why the parallel engine uses processes."""
    import threading

    dims = n1, n2, n3 = len(sa), len(sb), len(sc)
    dmax = n1 + n2 + n3
    sab, sac, sbc = scheme.profile_matrices(sa, sb, sc)
    planes = [np.full((n1 + 2, n2 + 2), NEG) for _ in range(4)]
    barrier = threading.Barrier(workers)

    def run(w: int) -> None:
        ws = PlaneWorkspace(dims)
        try:
            for d in range(dmax + 1):
                ilo, ihi, _jlo, _jhi = plane_bounds(d, n1, n2, n3)
                lo, hi = split_range(ilo, ihi, workers)[w]
                if lo <= hi:
                    compute_plane_rows(
                        d, lo, hi, planes[(d - 1) % 4], planes[(d - 2) % 4],
                        planes[(d - 3) % 4], planes[d % 4], sab, sac, sbc,
                        2.0 * scheme.gap, dims, ws=ws,
                    )
                barrier.wait()
        except BaseException:
            barrier.abort()  # release the peers instead of wedging them
            raise

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    return float(planes[dmax % 4][n1 + 1, n2 + 1])


@experiment("f3", "Figure 3: measured shared-memory speedup (this machine)")
def exp_f3(quick: bool) -> ExperimentResult:
    import multiprocessing as mp

    ns = (60, 80) if quick else (60, 80, 100, 120)
    cores = mp.cpu_count()
    table = Table(
        f"F3 measured wall time (s) and speedup, {cores} cores",
        ["n", "t_serial", "t_threads", "t_blocks", "speedup_blocks"],
    )
    data: dict[str, list] = {"rows": []}
    for n in ns:
        seqs = _family(n)
        t_serial, s0 = repeat_min(lambda: score3_wavefront(*seqs, _DNA), repeats=3)
        t_thr, s1 = repeat_min(
            lambda: _score3_threads(*seqs, _DNA, workers=cores), repeats=3
        )
        t_blk, s2 = repeat_min(
            lambda: score3_blocks(*seqs, _DNA, workers=cores), repeats=3, warmup=1
        )
        assert abs(s0 - s1) < 1e-9 and abs(s0 - s2) < 1e-9
        table.add_row(n, t_serial, t_thr, t_blk, t_serial / t_blk)
        data["rows"].append((n, t_serial, t_thr, t_blk, t_serial / t_blk))
    return ExperimentResult("f3", "shared-memory speedup", table.render(), data)


@experiment("f3pool", "Figure 3 addendum: persistent-pool speedup (this machine)")
def exp_f3pool(quick: bool) -> ExperimentResult:
    import multiprocessing as mp

    from repro.parallel.executor import WavefrontPool

    ns = (60, 80) if quick else (60, 80, 100, 120)
    cores = mp.cpu_count()
    table = Table(
        f"F3-pool measured wall time (s), {cores} cores, persistent workers",
        ["n", "t_serial", "t_pool", "speedup_pool"],
    )
    data: dict[str, list] = {"rows": []}
    cap = max(ns) + 10
    with WavefrontPool((cap, cap, cap), workers=cores) as pool:
        for n in ns:
            seqs = _family(n)
            t_serial, s0 = repeat_min(
                lambda: score3_wavefront(*seqs, _DNA), repeats=4, warmup=1
            )
            t_pool, s1 = repeat_min(
                lambda: pool.score3(*seqs, _DNA), repeats=4, warmup=1
            )
            assert abs(s0 - s1) < 1e-9
            table.add_row(n, t_serial, t_pool, t_serial / t_pool)
            data["rows"].append((n, t_serial, t_pool, t_serial / t_pool))
    return ExperimentResult("f3pool", "pool speedup", table.render(), data)


# ---------------------------------------------------------------------------
# F4 — block-size sweep and mapping ablation
# ---------------------------------------------------------------------------


@experiment("f4", "Figure 4: block-size tradeoff and mapping ablation")
def exp_f4(quick: bool) -> ExperimentResult:
    n = 100 if quick else 200
    procs = 16
    blocks = (4, 8, 16, 32, 64)
    machine = ethernet_2007(procs)
    res = block_sweep(n, blocks, machine)
    series = {
        "speedup": [r.speedup for r in res],
        "messages": [r.messages for r in res],
        "comm_time_s": [r.comm_time_total for r in res],
    }
    rendered = format_series(
        f"F4 block sweep (n={n}, P={procs}, ethernet-2007)",
        "block",
        list(blocks),
        series,
    )
    # Mapping ablation at the sweet-spot block size.
    grid = BlockGrid.for_sequences(n, n, n, 16)
    mapping_rows = Table(
        "F4b mapping ablation (block 16)", ["mapping", "speedup", "comm_MB"]
    )
    mapping_data = {}
    for mapping in ("pencil", "linear", "slab"):
        r = simulate_wavefront(grid, machine, mapping=mapping)
        mapping_rows.add_row(mapping, r.speedup, r.comm_volume_bytes / 1e6)
        mapping_data[mapping] = r.speedup
    rendered += "\n" + mapping_rows.render()
    return ExperimentResult(
        "f4",
        "block sweep",
        rendered,
        {"blocks": list(blocks), "series": series, "mappings": mapping_data},
    )


# ---------------------------------------------------------------------------
# T3 — exact vs heuristic SP score (optimality gap)
# ---------------------------------------------------------------------------


@experiment("t3", "Table 3: exact vs heuristic SP score across divergence")
def exp_t3(quick: bool) -> ExperimentResult:
    n = 40 if quick else 60
    scales = (0.5, 1.0, 2.0) if quick else (0.5, 1.0, 2.0, 4.0)
    trials = 3 if quick else 5
    table = Table(
        f"T3 optimality gap (DNA, n~{n}, {trials} trials/row)",
        ["mut_scale", "exact_SP", "centerstar_SP", "progressive_SP",
         "gap_cs", "gap_pg", "heuristic_optimal_frac", "pair_agreement_pg"],
    )
    data: dict[str, list] = {"rows": []}
    for scale in scales:
        from repro.analysis.compare import pair_agreement
        from repro.core.wavefront import align3_wavefront

        ex_t = cs_t = pg_t = agree_t = 0.0
        opt_hits = 0
        for trial in range(trials):
            seqs = _family(n, scale=scale, seed=100 * trial + 7)
            exact_aln = align3_wavefront(*seqs, _DNA)
            exact = exact_aln.score
            cs = align3_centerstar(*seqs, _DNA).score
            pg_aln = align3_progressive(*seqs, _DNA)
            pg = pg_aln.score
            assert cs <= exact + 1e-9 and pg <= exact + 1e-9
            ex_t += exact
            cs_t += cs
            pg_t += pg
            agree_t += pair_agreement(pg_aln.rows, exact_aln.rows)
            if max(cs, pg) >= exact - 1e-9:
                opt_hits += 1
        row = (
            scale,
            ex_t / trials,
            cs_t / trials,
            pg_t / trials,
            (ex_t - cs_t) / trials,
            (ex_t - pg_t) / trials,
            opt_hits / trials,
            agree_t / trials,
        )
        table.add_row(*row)
        data["rows"].append(row)
    return ExperimentResult("t3", "optimality gap", table.render(), data)


# ---------------------------------------------------------------------------
# F5 — Carrillo–Lipman pruning effectiveness vs divergence
# ---------------------------------------------------------------------------


def _score3_pruned(seqs) -> tuple[float, PruningStats]:
    """What a score-only ``pruned`` request runs: the Carrillo–Lipman
    tube build (its banded lower bound included), then the tube sweep.
    Returns ``(score, stats)``."""
    tube, stats = carrillo_lipman_tube(*seqs, _DNA)
    return score3_wavefront(*seqs, _DNA, tube=tube), stats


@experiment("f5", "Figure 5: pruned fraction of the lattice vs divergence")
def exp_f5(quick: bool) -> ExperimentResult:
    n = 40 if quick else 80
    scales = (0.25, 1.0, 4.0) if quick else (0.25, 0.5, 1.0, 2.0, 4.0)
    kept, t_full_s, t_pruned_s = [], [], []
    for scale in scales:
        seqs = _family(n, scale=scale, seed=23)
        t_full, s_full = repeat_min(
            lambda: score3_wavefront(*seqs, _DNA), repeats=2
        )
        t_pruned, (s_pruned, stats) = repeat_min(
            lambda: _score3_pruned(seqs), repeats=2
        )
        assert abs(s_full - s_pruned) < 1e-9, "pruning changed the optimum!"
        kept.append(stats.kept_fraction)
        t_full_s.append(t_full)
        t_pruned_s.append(t_pruned)
    rendered = format_series(
        f"F5 Carrillo-Lipman pruning (DNA, n~{n})",
        "mut_scale",
        list(scales),
        {
            "kept_fraction": kept,
            "t_full_s": t_full_s,
            "t_pruned_s": t_pruned_s,
        },
    )
    return ExperimentResult(
        "f5",
        "pruning",
        rendered,
        {"scales": list(scales), "kept": kept},
    )


# ---------------------------------------------------------------------------
# T4 — affine vs linear gap model
# ---------------------------------------------------------------------------


@experiment("t4", "Table 4: affine vs linear gap model (globins)")
def exp_t4(quick: bool) -> ExperimentResult:
    seqs = bundled_sequences("globins")
    if quick:
        seqs = [s[:40] for s in seqs]
    scheme_lin = default_scheme_for(PROTEIN)
    scheme_aff = scheme_lin.with_gaps(gap=-2.0, gap_open=-10.0)
    table = Table(
        "T4 gap models on the globin fragments (BLOSUM62)",
        ["model", "score", "time_s", "aln_len", "identity"],
    )
    t_lin, _ = repeat_min(lambda: score3_wavefront(*seqs, scheme_lin), repeats=1)
    from repro.core.wavefront import align3_wavefront

    aln_lin = align3_wavefront(*seqs, scheme_lin)
    table.add_row(
        "linear(g=-8)", aln_lin.score, t_lin, aln_lin.length, aln_lin.identity()
    )
    t_aff, _ = repeat_min(lambda: score3_affine(*seqs, scheme_aff), repeats=1)
    aln_aff = align3_affine(*seqs, scheme_aff)
    table.add_row(
        "affine(-10,-2)", aln_aff.score, t_aff, aln_aff.length, aln_aff.identity()
    )
    # Affine center-star heuristic: the cheap baseline under the same
    # objective, quantifying the optimality gap in the affine setting too.
    t_cs, cs = repeat_min(
        lambda: align3_centerstar(*seqs, scheme_aff), repeats=1
    )
    assert cs.score <= aln_aff.score + 1e-9
    table.add_row(
        "affine centerstar", cs.score, t_cs, cs.length, cs.identity()
    )
    data = {
        "linear_score": aln_lin.score,
        "affine_score": aln_aff.score,
        "affine_centerstar_score": cs.score,
        "t_linear": t_lin,
        "t_affine": t_aff,
    }
    return ExperimentResult("t4", "affine vs linear", table.render(), data)


# ---------------------------------------------------------------------------
# T5 — per-rank memory scalability of the distributed algorithm
# ---------------------------------------------------------------------------


@experiment("t5", "Table 5: per-rank memory and attainable length vs P")
def exp_t5(quick: bool) -> ExperimentResult:
    from repro.cluster.blockgrid import BlockGrid
    from repro.cluster.memory import max_length_for_budget, per_rank_memory

    n = 100 if quick else 200
    procs_list = (1, 4, 16) if quick else (1, 4, 16, 64)
    budget = 256 * 1024 * 1024  # a 2007-era node's spare RAM
    table = Table(
        f"T5 per-rank memory (n={n}, block 16, pencil) and max length "
        f"under a {budget // 2**20} MiB/rank budget",
        ["P", "full_max_MB", "score_only_max_MB", "imbalance",
         "max_n_full", "max_n_score_only"],
    )
    data: dict[str, list] = {"rows": []}
    grid = BlockGrid.for_sequences(n, n, n, 16)
    for p in procs_list:
        full = per_rank_memory(grid, p, mode="full")
        so = per_rank_memory(grid, p, mode="score_only")
        # The probe cost is O((n/block)^3); cap the search where the point
        # is already made (values at the cap mean "at least this").
        cap = 256 if quick else 512
        nf = max_length_for_budget(budget, p, mode="full", max_n=cap)
        ns = max_length_for_budget(budget, p, mode="score_only", max_n=cap)
        row = (
            p,
            full.max_rank / 2**20,
            so.max_rank / 2**20,
            full.imbalance,
            nf,
            ns,
        )
        table.add_row(*row)
        data["rows"].append(row)
    return ExperimentResult("t5", "memory scalability", table.render(), data)


# ---------------------------------------------------------------------------
# F6 — communication volume vs processor count (model accounting)
# ---------------------------------------------------------------------------


@experiment("f6", "Figure 6: communication volume vs processors")
def exp_f6(quick: bool) -> ExperimentResult:
    n = 100 if quick else 200
    res_eth = sweep_procs(n, _PROCS, ethernet_2007(1), block=16)
    res_gig = sweep_procs(n, _PROCS, gigabit_2007(1), block=16)
    series = {
        "comm_MB": [r.comm_volume_bytes / 1e6 for r in res_eth],
        "messages": [r.messages for r in res_eth],
        "comm_time_eth_s": [r.comm_time_total for r in res_eth],
        "comm_time_gig_s": [r.comm_time_total for r in res_gig],
    }
    rendered = format_series(
        f"F6 communication vs P (n={n}, block 16)", "P", list(_PROCS), series
    )
    return ExperimentResult(
        "f6", "comm volume", rendered, {"procs": list(_PROCS), "series": series}
    )


# ---------------------------------------------------------------------------
# A1 — ablation: search-space reduction strategies (full vs CL vs banded)
# ---------------------------------------------------------------------------


@experiment("a1", "Ablation 1: full vs Carrillo-Lipman vs certified banding")
def exp_a1(quick: bool) -> ExperimentResult:
    from repro.core.band import align3_banded

    n = 50 if quick else 80
    scales = (0.5, 2.0) if quick else (0.5, 1.0, 2.0, 4.0)
    table = Table(
        f"A1 search-space strategies (DNA, n~{n})",
        ["mut_scale", "t_full_s", "t_pruned_s", "t_banded_s",
         "banded_cells_frac", "all_equal"],
    )
    data: dict[str, list] = {"rows": []}
    for scale in scales:
        seqs = _family(n, scale=scale, seed=41)
        cube = 1
        for s in seqs:
            cube *= len(s) + 1
        t_full, s_full = repeat_min(
            lambda: score3_wavefront(*seqs, _DNA), repeats=2
        )
        t_pruned, (s_pruned, _stats) = repeat_min(
            lambda: _score3_pruned(seqs), repeats=2
        )
        t_banded, aln = repeat_min(
            lambda: align3_banded(*seqs, _DNA), repeats=2
        )
        equal = (
            abs(s_full - s_pruned) < 1e-9 and abs(s_full - aln.score) < 1e-9
        )
        assert equal, "strategies disagree on the optimum!"
        row = (
            scale,
            t_full,
            t_pruned,
            t_banded,
            aln.meta["cells"] / cube,
            equal,
        )
        table.add_row(*row)
        data["rows"].append(row)
    return ExperimentResult("a1", "search-space ablation", table.render(), data)


# ---------------------------------------------------------------------------
# A2 — ablation: Hirschberg base-case threshold
# ---------------------------------------------------------------------------


@experiment("a2", "Ablation 2: Hirschberg base-case size sweep")
def exp_a2(quick: bool) -> ExperimentResult:
    n = 50 if quick else 70
    seqs = _family(n, seed=42)
    thresholds = (1_000, 10_000, 100_000) if quick else (
        1_000, 10_000, 100_000, 1_000_000
    )
    reference = score3_wavefront(*seqs, _DNA)
    table = Table(
        f"A2 Hirschberg base_cells sweep (DNA, n~{n})",
        ["base_cells", "time_s", "slab_sweeps", "base_calls", "optimal"],
    )
    data: dict[str, list] = {"rows": []}
    for bc in thresholds:
        t, aln = repeat_min(
            lambda: align3_hirschberg(*seqs, _DNA, base_cells=bc), repeats=2
        )
        ok = abs(aln.score - reference) < 1e-9
        assert ok
        row = (bc, t, aln.meta["slab_sweeps"], aln.meta["base_calls"], ok)
        table.add_row(*row)
        data["rows"].append(row)
    return ExperimentResult("a2", "hirschberg ablation", table.render(), data)


# ---------------------------------------------------------------------------
# A3 — ablation: heterogeneous nodes and weighted pencil mapping
# ---------------------------------------------------------------------------


@experiment("a3", "Ablation 3: stragglers vs speed-weighted mapping")
def exp_a3(quick: bool) -> ExperimentResult:
    from repro.cluster.blockgrid import BlockGrid
    from repro.cluster.hetero import (
        simulate_wavefront_hetero,
        uniform_with_stragglers,
    )

    n = 100 if quick else 200
    procs = 16
    grid = BlockGrid.for_sequences(n, n, n, 16)
    slowdowns = (1.0, 2.0, 4.0) if quick else (1.0, 2.0, 4.0, 8.0)
    table = Table(
        f"A3 heterogeneity (n={n}, P={procs}, 2 stragglers, ethernet-2007)",
        ["slowdown", "naive_speedup", "weighted_speedup", "recovery"],
    )
    data: dict[str, list] = {"rows": []}
    for slow in slowdowns:
        machine = uniform_with_stragglers(procs, stragglers=2, slowdown=slow)
        naive = simulate_wavefront_hetero(grid, machine, mapping="pencil")
        weighted = simulate_wavefront_hetero(grid, machine, mapping="weighted")
        row = (
            slow,
            naive.speedup,
            weighted.speedup,
            weighted.speedup / naive.speedup,
        )
        table.add_row(*row)
        data["rows"].append(row)
    return ExperimentResult("a3", "heterogeneity", table.render(), data)


# ---------------------------------------------------------------------------
# Extra ablation: engine agreement & throughput overview (not a paper item,
# but ties the evaluation together and guards the harness itself).
# ---------------------------------------------------------------------------


@experiment("dist", "Distributed runtime demo: real ranks vs monolithic")
def exp_dist(quick: bool) -> ExperimentResult:
    from repro.cluster.blockgrid import BlockGrid
    from repro.cluster.machine import MachineModel
    from repro.cluster.mpirun import run_distributed
    from repro.cluster.simulate import simulate_wavefront

    n = 16 if quick else 24
    seqs = _family(n, seed=55)
    reference = score3_wavefront(*seqs, _DNA)
    table = Table(
        f"Distributed message-passing ranks (DNA, n~{n}, block 6)",
        ["procs", "score_ok", "messages", "comm_bytes", "ledger_matches_sim"],
    )
    data: dict[str, list] = {"rows": []}
    dims = tuple(len(s) for s in seqs)
    grid = BlockGrid.for_sequences(*dims, 6)
    for procs in (1, 2, 4):
        res = run_distributed(*seqs, _DNA, block=6, procs=procs)
        ok = abs(res.score - reference) < 1e-9
        assert ok, "distributed ranks disagree with the monolithic engine"
        if procs == 1:
            matches = res.messages == 0
        else:
            sim = simulate_wavefront(grid, MachineModel(procs=procs))
            matches = (
                res.messages == sim.messages
                and res.comm_bytes == sim.comm_volume_bytes
            )
        row = (procs, ok, res.messages, res.comm_bytes, matches)
        table.add_row(*row)
        data["rows"].append(row)
    return ExperimentResult("dist", "distributed demo", table.render(), data)


@experiment("engines", "Engine overview: agreement and throughput")
def exp_engines(quick: bool) -> ExperimentResult:
    n = 40 if quick else 60
    seqs = _family(n)
    table = Table(
        f"Engine overview (DNA, n~{n})", ["engine", "score", "time_s"]
    )
    rows = []
    for name, fn in (
        ("wavefront", lambda: score3_wavefront(*seqs, _DNA)),
        ("hirschberg", lambda: align3_hirschberg(*seqs, _DNA).score),
        ("blocks(2)", lambda: score3_blocks(*seqs, _DNA, workers=2)),
    ):
        t0 = time.perf_counter()
        score = fn()
        dt = time.perf_counter() - t0
        table.add_row(name, score, dt)
        rows.append((name, score, dt))
    scores = {round(r[1], 6) for r in rows}
    assert len(scores) == 1, f"engines disagree: {rows}"
    return ExperimentResult("engines", "engine overview", table.render(), {"rows": rows})
