"""Regression battery for strongly skewed cube shapes.

The padded-plane engine's correctness rests on a subtle invariant about
which buffer rows may hold stale data when the four plane buffers rotate
(see docs/algorithms.md section 3). Skewed shapes (one sequence much
longer/shorter than the others) exercise the extreme bounding boxes where
that argument has the least slack, so every engine is pinned against the
scalar reference on a battery of adversarial shapes.
"""

import numpy as np
import pytest

from repro.core.dp3d import dp3d_matrix, score3_dp3d
from repro.core.hirschberg import align3_hirschberg
from repro.core.local import score3_local
from repro.core.rolling import forward_slab
from repro.core.semiglobal import score3_semiglobal
from repro.core.wavefront import score3_wavefront
from repro.parallel.blocks import score3_blocks
from repro.seqio.generate import random_sequence
from tests.reference.modes import (
    best_end_cell,
    local_dp3d_matrix,
    semiglobal_dp3d_matrix,
)

SHAPES = [
    (1, 40, 3),
    (40, 1, 3),
    (3, 1, 40),
    (2, 35, 35),
    (35, 35, 2),
    (35, 2, 35),
    (1, 1, 50),
    (50, 1, 1),
    (4, 18, 44),
    (44, 18, 4),
    (0, 25, 25),
    (25, 25, 0),
    (7, 0, 31),
]


def _seqs(shape, seed_base):
    return tuple(
        random_sequence(n, seed=seed_base + t) for t, n in enumerate(shape)
    )


@pytest.mark.parametrize("shape", SHAPES)
def test_global_engines_on_skewed_shapes(shape, dna_scheme):
    seqs = _seqs(shape, 3000)
    D, _ = dp3d_matrix(*seqs, dna_scheme)
    ref = float(D[tuple(len(s) for s in seqs)])
    assert score3_wavefront(*seqs, dna_scheme) == pytest.approx(ref)
    # Hirschberg's slabs on the skewed cube, one i level at a time.
    for level in {0, len(seqs[0]) // 2, len(seqs[0])}:
        assert np.array_equal(
            forward_slab(*seqs, dna_scheme, level), D[level]
        ), level
    assert score3_blocks(*seqs, dna_scheme, workers=3) == pytest.approx(ref)
    assert align3_hirschberg(
        *seqs, dna_scheme, base_cells=50
    ).score == pytest.approx(ref)


@pytest.mark.parametrize("shape", SHAPES[:8])
def test_local_engine_on_skewed_shapes(shape, dna_scheme):
    seqs = _seqs(shape, 4000)
    D, _ = local_dp3d_matrix(*seqs, dna_scheme)
    assert score3_local(*seqs, dna_scheme) == pytest.approx(float(D.max()))


@pytest.mark.parametrize("shape", SHAPES[:8])
def test_semiglobal_engine_on_skewed_shapes(shape, dna_scheme):
    seqs = _seqs(shape, 5000)
    D, _ = semiglobal_dp3d_matrix(*seqs, dna_scheme)
    ref, _cell = best_end_cell(D, "semiglobal")
    assert score3_semiglobal(*seqs, dna_scheme) == pytest.approx(ref)


def test_extremely_long_thin_cube(dna_scheme):
    # Long A against short B/C stresses plane-buffer reuse the hardest:
    # hundreds of plane rotations with single-digit box heights.
    sa = random_sequence(300, seed=6000)
    sb = random_sequence(4, seed=6001)
    sc = random_sequence(5, seed=6002)
    ref = score3_dp3d(sa, sb, sc, dna_scheme)
    assert score3_wavefront(sa, sb, sc, dna_scheme) == pytest.approx(ref)
    assert forward_slab(sa, sb, sc, dna_scheme, 300)[4, 5] == ref
