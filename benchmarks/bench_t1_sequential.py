"""T1 — sequential engines: scalar reference vs vectorised wavefront.

The table's headline: the vectorised anti-diagonal kernel is the
compiled-code substitute, typically two orders of magnitude over the
scalar fill.
"""

from repro.core.dp3d import score3_dp3d
from repro.core.wavefront import score3_wavefront


def test_dp3d_scalar_n20(benchmark, dna_scheme, family20):
    benchmark(score3_dp3d, *family20, dna_scheme)


def test_wavefront_n20(benchmark, dna_scheme, family20):
    benchmark(score3_wavefront, *family20, dna_scheme)


def test_wavefront_n60(benchmark, dna_scheme, family60):
    benchmark(score3_wavefront, *family60, dna_scheme)


def test_wavefront_n80(benchmark, dna_scheme, family80):
    benchmark(score3_wavefront, *family80, dna_scheme)
