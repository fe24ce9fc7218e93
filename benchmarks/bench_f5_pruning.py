"""F5 — Carrillo–Lipman pruning: tube construction and pruned sweep.

The pruned-sweep benchmarks time what a score-only ``pruned`` request
runs: the tube build (its banded lower bound included) plus the tube
sweep.
"""

from repro.core.bounds import carrillo_lipman_tube
from repro.core.wavefront import score3_wavefront


def _score3_pruned(seqs, scheme) -> float:
    tube, _ = carrillo_lipman_tube(*seqs, scheme)
    return score3_wavefront(*seqs, scheme, tube=tube)


def test_tube_construction_n60(benchmark, dna_scheme, family60):
    benchmark(carrillo_lipman_tube, *family60, dna_scheme)


def test_full_sweep_n60(benchmark, dna_scheme, family60):
    benchmark(score3_wavefront, *family60, dna_scheme)


def test_pruned_sweep_similar_n60(benchmark, dna_scheme, family60):
    benchmark(_score3_pruned, family60, dna_scheme)


def test_pruned_sweep_diverged_n60(benchmark, dna_scheme, family60_diverged):
    benchmark(_score3_pruned, family60_diverged, dna_scheme)
