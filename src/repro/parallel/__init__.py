"""The parallel wavefront executor.

The anti-diagonal plane is the natural parallel unit: all cells on plane
``i + j + k = d`` are independent given the previous three planes. One
executor implements it — :class:`~repro.parallel.executor.WavefrontPool`,
a persistent multiprocess pool over ``SharedMemory`` buffers. Each
worker owns a fixed row slab and streams *plane bands* (3-D blocks)
through a deep rotating plane window, syncing on per-worker readiness
counters only at band edges (:mod:`repro.parallel.blockwave`).

* :mod:`repro.parallel.executor` — :class:`WavefrontPool`, the executor
  the batch scheduler and the serve tier keep alive across jobs;
* :mod:`repro.parallel.blocks` — ``method="blocks"``: a one-job pool
  sized to the cube, opened and closed per call.

Partitioning helpers (row slabs, plane bands, the block dependency
grid) live in :mod:`repro.parallel.partition`.
"""

from repro.parallel.partition import (
    split_range,
    balanced_blocks,
    band_depth,
    block_predecessors,
    plane_bands,
    plane_window,
    row_slabs,
)
from repro.parallel.blocks import align3_blocks, score3_blocks
from repro.parallel.executor import WavefrontPool, fork_available

__all__ = [
    "split_range",
    "balanced_blocks",
    "band_depth",
    "block_predecessors",
    "plane_bands",
    "plane_window",
    "row_slabs",
    "align3_blocks",
    "score3_blocks",
    "WavefrontPool",
    "fork_available",
]
