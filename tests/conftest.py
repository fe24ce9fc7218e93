"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scoring import ScoringScheme, default_scheme_for
from repro.seqio.alphabet import DNA, PROTEIN
from repro.seqio.generate import MutationModel, mutated_family, random_sequence


@pytest.fixture(scope="session")
def dna_scheme() -> ScoringScheme:
    """Default DNA scheme (5/-4 matrix, gap -6, linear)."""
    return default_scheme_for(DNA)


@pytest.fixture(scope="session")
def protein_scheme() -> ScoringScheme:
    """Default protein scheme (BLOSUM62, gap -8, linear)."""
    return default_scheme_for(PROTEIN)


@pytest.fixture(scope="session")
def affine_dna_scheme(dna_scheme) -> ScoringScheme:
    """DNA scheme with affine gaps (-10 open, -4 extend)."""
    return dna_scheme.with_gaps(gap=-4.0, gap_open=-10.0)


@pytest.fixture(scope="session")
def small_triples() -> list[tuple[str, str, str]]:
    """A battery of deterministic small DNA triples, including degenerate
    shapes (empty sequences, single residues, unequal lengths)."""
    rng = np.random.default_rng(12345)
    out: list[tuple[str, str, str]] = [
        ("", "", ""),
        ("A", "", ""),
        ("", "C", ""),
        ("", "", "G"),
        ("A", "A", "A"),
        ("A", "C", "G"),
        ("ACGT", "", "ACGT"),
        ("GATTACA", "GATCA", "GTTACA"),
    ]
    for trial in range(10):
        lens = rng.integers(0, 9, size=3)
        out.append(
            tuple(
                random_sequence(int(n), DNA, seed=1000 + 3 * trial + t)
                for t, n in enumerate(lens)
            )
        )
    return out


@pytest.fixture(scope="session")
def family_small() -> list[str]:
    """A related triple (common ancestor, default mutation model)."""
    return mutated_family(20, seed=77)


@pytest.fixture(scope="session")
def family_medium() -> list[str]:
    """A longer related triple for the vectorised/parallel engines."""
    return mutated_family(45, model=MutationModel(0.15, 0.04, 0.04), seed=78)


@pytest.fixture(scope="session")
def hirschberg_tie_triple() -> tuple[str, str, str]:
    """An n=80 random DNA triple on which ``hirschberg`` returns another
    co-optimal alignment than the plane-sweep engines (DNA scheme)."""
    return tuple(random_sequence(80, seed=s) for s in (3, 4, 5))
