"""F3 — measured shared-memory parallel engine on the machine running it.

Compares the serial wavefront against the per-call block-tiled engine
(``blocks``, a one-job pool) and a persistent :class:`WavefrontPool` at
the same problem size; the speedup ratio is the figure's measured
series.
"""

import multiprocessing as mp

import pytest

from repro.core.wavefront import score3_wavefront
from repro.parallel.blocks import score3_blocks
from repro.parallel.executor import WavefrontPool

_CORES = mp.cpu_count()


@pytest.fixture(scope="module")
def pool(dna_scheme):
    with WavefrontPool((100, 100, 100), workers=_CORES) as p:
        # Warm the workers before timing.
        p.score3("ACGT", "ACG", "AGT", dna_scheme)
        yield p


def test_serial_baseline_n80(benchmark, dna_scheme, family80):
    benchmark(score3_wavefront, *family80, dna_scheme)


def test_blocks_workers_n80(benchmark, dna_scheme, family80):
    benchmark(score3_blocks, *family80, dna_scheme, workers=_CORES)


def test_pool_workers_n80(benchmark, dna_scheme, family80, pool):
    benchmark(pool.score3, *family80, dna_scheme)
