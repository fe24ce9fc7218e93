"""Extension engines: local, semiglobal, banded, co-optimal counting, MSA.

Not paper tables — throughput guards for the optional/extension features so
regressions in their kernels are visible next to the core numbers.
"""

from repro.core.band import align3_banded
from repro.core.countopt import count_optimal
from repro.core.local import align3_local, score3_local
from repro.core.semiglobal import align3_semiglobal, score3_semiglobal
from repro.msa.progressive import align_msa
from repro.seqio.generate import mutated_family


def test_local_n60(benchmark, dna_scheme, family60):
    benchmark(score3_local, *family60, dna_scheme)


def test_semiglobal_n60(benchmark, dna_scheme, family60):
    benchmark(score3_semiglobal, *family60, dna_scheme)


def test_local_traceback_n60(benchmark, dna_scheme, family60):
    # The traceback path is what BatchScheduler runs for mode="local".
    benchmark(align3_local, *family60, dna_scheme)


def test_semiglobal_traceback_n60(benchmark, dna_scheme, family60):
    benchmark(align3_semiglobal, *family60, dna_scheme)


def test_banded_certified_n60(benchmark, dna_scheme, family60):
    benchmark(align3_banded, *family60, dna_scheme)


def test_count_optimal_n20(benchmark, dna_scheme, family20):
    benchmark(count_optimal, *family20, dna_scheme)


def test_msa_six_sequences(benchmark, dna_scheme):
    fam = mutated_family(60, count=6, seed=9)
    benchmark(align_msa, fam, dna_scheme)
