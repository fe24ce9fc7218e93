#!/usr/bin/env python3
"""Cluster scaling study: predict the paper's speedup figures for *this*
machine's kernel speed.

1. Calibrates the per-cell compute time of the vectorised engine.
2. Measures the real shared-memory speedup of the parallel engine
   (``blocks``) against the serial sweep.
3. Simulates the distributed block wavefront on three machine models
   (Fast Ethernet 2007, Gigabit 2007, modern) across processor counts.
4. Sweeps the block size to expose the communication/pipeline tradeoff.

Run:  python examples/cluster_scaling.py
"""

import multiprocessing as mp

from repro import default_scheme_for, mutated_family
from repro.cluster import (
    BlockGrid,
    calibrate_t_cell,
    ethernet_2007,
    gigabit_2007,
    modern_cluster,
    simulate_wavefront,
)
from repro.cluster.metrics import block_sweep, speedup_series
from repro.core.wavefront import score3_wavefront
from repro.parallel.blocks import score3_blocks
from repro.seqio.alphabet import DNA
from repro.util.tables import format_series
from repro.util.timing import repeat_min


def main() -> None:
    t_cell = calibrate_t_cell(n=50, seed=0)
    print(f"Calibrated per-cell time of the vectorised engine: "
          f"{t_cell * 1e9:.1f} ns/cell\n")

    # Measured shared-memory speedup on the real cores of this machine.
    scheme = default_scheme_for(DNA)
    fam = mutated_family(100, seed=1)
    cores = mp.cpu_count()
    t_serial, _ = repeat_min(
        lambda: score3_wavefront(*fam, scheme), repeats=3
    )
    t_par, _ = repeat_min(
        lambda: score3_blocks(*fam, scheme, workers=cores), repeats=3, warmup=1
    )
    print(f"Measured on this machine (n=100, {cores} cores): "
          f"serial {t_serial*1e3:.0f} ms, parallel {t_par*1e3:.0f} ms "
          f"-> speedup {t_serial/t_par:.2f}x\n")

    # Simulated cluster speedups with the calibrated kernel speed.
    procs = [1, 2, 4, 8, 16, 32, 64]
    n = 300
    series = {}
    for mk in (ethernet_2007, gigabit_2007, modern_cluster):
        machine = mk(1)
        if mk is not modern_cluster:
            machine = type(machine)(
                procs=1, t_cell=t_cell, alpha=machine.alpha,
                beta=machine.beta, name=machine.name,
            )
        series[machine.name] = [
            round(s, 2)
            for s in speedup_series(n, procs, machine, block=16)
        ]
    print(format_series(
        f"Simulated speedup, n={n}, block 16 (calibrated t_cell)",
        "P", procs, series,
    ))

    # Block-size tradeoff at P=16 on the 2007 network.
    blocks = [4, 8, 16, 32, 64]
    res = block_sweep(n, blocks, ethernet_2007(16, t_cell=t_cell))
    print()
    print(format_series(
        f"Block-size sweep, n={n}, P=16, ethernet-2007",
        "block",
        blocks,
        {
            "speedup": [round(r.speedup, 2) for r in res],
            "messages": [r.messages for r in res],
            "utilisation": [round(r.avg_utilisation, 2) for r in res],
        },
    ))

    # Mapping ablation.
    grid = BlockGrid.for_sequences(n, n, n, 16)
    print("\nMapping ablation (P=16):")
    for mapping in ("pencil", "linear", "slab"):
        r = simulate_wavefront(
            grid, ethernet_2007(16, t_cell=t_cell), mapping=mapping
        )
        print(f"  {mapping:7s} speedup {r.speedup:6.2f}   "
              f"comm {r.comm_volume_bytes/1e6:7.2f} MB")


if __name__ == "__main__":
    main()
