"""Workspace-reuse property tests (repro.core.workspace).

The zero-allocation kernel slices every buffer out of one grow-only
:class:`PlaneWorkspace`, so the risk it introduces is *stale state*: a
sweep over a small cube reading garbage a bigger previous sweep left in
the shared scratch. These tests hammer heterogeneous shapes — skewed
cubes, empty sequences, tube-pruned sweeps — through a single
workspace and assert every result is bit-identical to (a) a
fresh-workspace run and (b) the frozen pre-workspace reference kernel
``compute_plane_rows_ref`` (``tests/reference/kernel.py``), which a
tube sweep meets through the tube's dense mask.
"""

import numpy as np
import pytest

from repro.core.dp3d import NEG, dp3d_matrix
from repro.core.hirschberg import align3_hirschberg
from repro.core.rolling import backward_slab, forward_slab
from repro.core.tube import PruningTube, TubeMoves
from repro.core.wavefront import (
    align3_wavefront,
    compute_plane_rows,
    wavefront_sweep,
)
from repro.core.workspace import PlaneWorkspace
from repro.parallel.executor import fork_available
from tests.reference.bounds import dense_mask, random_tube
from tests.reference.kernel import (
    compute_plane_rows_ref,
    drive_planes,
    sweep_ref,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

# Deliberately heterogeneous: cube shapes shrink, grow, zero out and skew
# between consecutive sweeps so stale workspace state would surface.
SHAPES = [
    (6, 6, 6),
    (1, 1, 1),
    (12, 3, 1),
    (0, 0, 0),
    (2, 9, 4),
    (0, 5, 7),
    (5, 0, 7),
    (5, 7, 0),
    (9, 9, 9),
    (1, 0, 0),
    (3, 3, 12),
]


def _random_triple(rng, shape):
    return tuple(
        "".join(rng.choice(list("ACGT")) for _ in range(n)) for n in shape
    )


def _check_unpruned(seqs, scheme, ws, score_only=False):
    """The production kernel against the reference kernel, plane by
    plane: every plane buffer and the dense move cube are equal."""
    ref_planes, ref_mc, _ = sweep_ref(seqs, scheme, score_only=score_only)
    got_mc = None if ref_mc is None else np.zeros_like(ref_mc)
    got_planes, _ = drive_planes(
        compute_plane_rows, seqs, scheme, got_mc, ws=ws
    )
    shape = tuple(len(s) for s in seqs)
    for d, (a, b) in enumerate(zip(ref_planes, got_planes)):
        assert np.array_equal(a, b), f"plane {d} differs at {shape}"
    if not score_only:
        assert np.array_equal(ref_mc, got_mc), f"moves differ at {shape}"


def check_tube_kernel(seqs, scheme, tube, ws):
    """``compute_plane_rows`` with a :class:`TubeMoves` store against the
    reference kernel fed ``dense_mask(tube)``: every plane buffer, every
    kept cell's move and the cell count are equal."""
    mask = dense_mask(tube)
    ref_planes, ref_mc, ref_cells = sweep_ref(seqs, scheme, mask=mask)
    store = TubeMoves(tube)
    got_planes, got_cells = drive_planes(
        compute_plane_rows, seqs, scheme, store, ws=ws, tube=tube
    )
    shape = tuple(len(s) for s in seqs)
    for d, (a, b) in enumerate(zip(ref_planes, got_planes)):
        assert np.array_equal(a, b), f"plane {d} differs at {shape}"
    assert got_cells == ref_cells, shape
    for cell in zip(*np.nonzero(mask)):
        assert store[cell] == ref_mc[cell], (shape, cell)


def _cut_tube(tube: PruningTube, d_cut: int) -> PruningTube:
    """``tube`` without its cells on planes ``d_cut .. dmax - 1``: those
    planes are empty, and the terminal corner is kept alone."""
    n1p, n2p, n3p = tube.shape
    ij = np.add.outer(np.arange(n1p), np.arange(n2p))
    cut = PruningTube(
        klo=tube.klo.copy(),
        khi=np.minimum(tube.khi, d_cut - 1 - ij),
        n3=tube.n3,
    )
    cut.keep_cell(n1p - 1, n2p - 1, n3p - 1)
    return cut


class TestKernelBitIdentity:
    """The zero-allocation kernel vs the frozen reference kernel."""

    def test_heterogeneous_shapes_one_workspace(self, dna_scheme):
        rng = np.random.default_rng(7)
        ws = PlaneWorkspace()
        for shape in SHAPES:
            _check_unpruned(_random_triple(rng, shape), dna_scheme, ws)

    def test_masked_sweeps_one_workspace(self, dna_scheme):
        # Random tubes (empty rows included) through one workspace.
        rng = np.random.default_rng(11)
        ws = PlaneWorkspace()
        for shape in SHAPES + SHAPES[::-1]:
            seqs = _random_triple(rng, shape)
            tube = random_tube(rng, shape, corners=bool(rng.integers(2)))
            check_tube_kernel(seqs, dna_scheme, tube, ws)

    def test_score_only_sweeps_one_workspace(self, dna_scheme):
        rng = np.random.default_rng(13)
        ws = PlaneWorkspace()
        for shape in SHAPES:
            seqs = _random_triple(rng, shape)
            _check_unpruned(seqs, dna_scheme, ws, score_only=True)

    def test_pruned_to_empty_plane(self, dna_scheme):
        # Tubes that empty whole planes exercise the early-return paths:
        # the corners alone, and random tubes cut off after plane d.
        rng = np.random.default_rng(17)
        ws = PlaneWorkspace()
        for shape in [(5, 5, 5), (7, 3, 4), (0, 4, 6)]:
            seqs = _random_triple(rng, shape)
            n1, n2, n3 = shape
            corners = PruningTube(
                klo=np.zeros((n1 + 1, n2 + 1), dtype=np.intp),
                khi=np.full((n1 + 1, n2 + 1), -1, dtype=np.intp),
                n3=n3,
            )
            corners.keep_cell(0, 0, 0)
            corners.keep_cell(n1, n2, n3)
            check_tube_kernel(seqs, dna_scheme, corners, ws)
            for d_cut in (1, 4, sum(shape) // 2):
                tube = _cut_tube(random_tube(rng, shape), d_cut)
                check_tube_kernel(seqs, dna_scheme, tube, ws)

    def test_long_thin_cubes(self, dna_scheme):
        rng = np.random.default_rng(19)
        ws = PlaneWorkspace()
        for shape in [(60, 2, 3), (2, 60, 3), (2, 3, 60)]:
            _check_unpruned(_random_triple(rng, shape), dna_scheme, ws)

    def test_non_contiguous_inputs(self, dna_scheme):
        # Profile matrices arriving as views (e.g. shared-memory slices)
        # must gather identically.
        rng = np.random.default_rng(23)
        seqs = _random_triple(rng, (6, 5, 4))
        sab, sac, sbc = dna_scheme.profile_matrices(*seqs)
        big = np.full((sab.shape[0] * 2, sab.shape[1] * 2), 99.0)
        big[:: 2, :: 2] = sab
        sab_view = big[:: 2, :: 2]
        assert not sab_view.flags.c_contiguous
        n1, n2, n3 = (len(s) for s in seqs)
        dims = (n1, n2, n3)
        g2 = 2.0 * dna_scheme.gap
        planes_a = [np.full((n1 + 2, n2 + 2), NEG) for _ in range(4)]
        planes_b = [np.full((n1 + 2, n2 + 2), NEG) for _ in range(4)]
        ws = PlaneWorkspace(dims)
        for d in range(n1 + n2 + n3 + 1):
            compute_plane_rows_ref(
                d, 0, n1,
                planes_a[(d - 1) % 4], planes_a[(d - 2) % 4],
                planes_a[(d - 3) % 4], planes_a[d % 4],
                sab_view, sac, sbc, g2, dims,
            )
            compute_plane_rows(
                d, 0, n1,
                planes_b[(d - 1) % 4], planes_b[(d - 2) % 4],
                planes_b[(d - 3) % 4], planes_b[d % 4],
                sab_view, sac, sbc, g2, dims, ws=ws,
            )
            assert np.array_equal(planes_a[d % 4], planes_b[d % 4])


class TestEngineReuse:
    """Whole engines sharing one workspace across heterogeneous runs."""

    def test_wavefront_sweep_reuse(self, dna_scheme):
        rng = np.random.default_rng(29)
        ws = PlaneWorkspace()
        for shape in SHAPES:
            seqs = _random_triple(rng, shape)
            fresh = wavefront_sweep(*seqs, dna_scheme)
            reused = wavefront_sweep(*seqs, dna_scheme, workspace=ws)
            assert fresh.score == reused.score
            assert np.array_equal(fresh.move_cube, reused.move_cube)
            assert fresh.cells_computed == reused.cells_computed

    @pytest.mark.parametrize("mode", ["local", "semiglobal"])
    def test_mode_sweep_reuse(self, dna_scheme, mode):
        # The restart floor reads the face scratch; a stale mask from a
        # bigger sweep must never leak into a smaller one.
        rng = np.random.default_rng(61)
        ws = PlaneWorkspace()
        for shape in SHAPES + SHAPES[::-1]:
            seqs = _random_triple(rng, shape)
            fresh = wavefront_sweep(*seqs, dna_scheme, mode=mode)
            reused = wavefront_sweep(*seqs, dna_scheme, mode=mode, workspace=ws)
            assert (fresh.score, fresh.end_cell) == (reused.score, reused.end_cell)
            assert np.array_equal(fresh.move_cube, reused.move_cube)

    def test_align3_wavefront_reuse(self, dna_scheme):
        rng = np.random.default_rng(31)
        ws = PlaneWorkspace()
        for shape in [(8, 6, 7), (2, 2, 2), (10, 1, 4)]:
            seqs = _random_triple(rng, shape)
            fresh = align3_wavefront(*seqs, dna_scheme)
            reused = align3_wavefront(*seqs, dna_scheme, workspace=ws)
            assert fresh.rows == reused.rows
            assert fresh.score == reused.score
            assert fresh.meta == reused.meta

    def test_capture_slab_survives_reuse(self, dna_scheme):
        # Hirschberg holds the forward slab across the backward sweep of
        # the SAME workspace; the slab must be a fresh array, not a view.
        rng = np.random.default_rng(37)
        seqs = _random_triple(rng, (8, 7, 6))
        ws = PlaneWorkspace()
        level = 4
        fwd = forward_slab(*seqs, dna_scheme, level, workspace=ws)
        snapshot = fwd.copy()
        backward_slab(*seqs, dna_scheme, level, workspace=ws)
        assert np.array_equal(fwd, snapshot)
        assert np.array_equal(
            fwd, forward_slab(*seqs, dna_scheme, level)
        )

    def test_slab_sweep_reuse(self, dna_scheme):
        rng = np.random.default_rng(41)
        ws = PlaneWorkspace()
        for shape in SHAPES:
            seqs = _random_triple(rng, shape)
            for level in {0, len(seqs[0])}:
                for slab in (forward_slab, backward_slab):
                    fresh = slab(*seqs, dna_scheme, level)
                    reused = slab(*seqs, dna_scheme, level, workspace=ws)
                    assert np.array_equal(fresh, reused), (shape, level)

    def test_slab_engine_slabs_bit_identical(self, dna_scheme):
        # Slabs from a reused workspace equal the scalar cube's i levels.
        rng = np.random.default_rng(43)
        ws = PlaneWorkspace()
        for shape in [(7, 6, 5), (3, 9, 2), (1, 1, 8)]:
            seqs = _random_triple(rng, shape)
            D, _ = dp3d_matrix(*seqs, dna_scheme)
            n1 = len(seqs[0])
            for level in {0, n1 // 2, n1}:
                reused = forward_slab(*seqs, dna_scheme, level, workspace=ws)
                assert np.array_equal(D[level], reused)

    def test_hirschberg_reuse(self, dna_scheme):
        rng = np.random.default_rng(47)
        ws = PlaneWorkspace()
        for shape in [(20, 16, 18), (6, 30, 4), (9, 9, 9)]:
            seqs = _random_triple(rng, shape)
            fresh = align3_hirschberg(*seqs, dna_scheme, base_cells=64)
            reused = align3_hirschberg(
                *seqs, dna_scheme, base_cells=64, workspace=ws
            )
            assert fresh.rows == reused.rows
            assert fresh.score == reused.score
            assert fresh.meta == reused.meta

    @needs_fork
    def test_pool_varied_job_shapes(self, dna_scheme):
        # The pool's persistent workers each hold one workspace across
        # every job; interleaved shapes must stay bit-identical.
        from repro.parallel.executor import WavefrontPool

        rng = np.random.default_rng(53)
        shapes = [(12, 12, 12), (3, 3, 3), (12, 2, 5), (1, 9, 9), (12, 12, 12)]
        with WavefrontPool((12, 12, 12), workers=2) as pool:
            for shape in shapes:
                seqs = _random_triple(rng, shape)
                got = pool.align3(*seqs, dna_scheme)
                ref = align3_wavefront(*seqs, dna_scheme)
                assert got.rows == ref.rows
                assert got.score == ref.score


class TestWorkspaceMechanics:
    def test_grow_only(self):
        ws = PlaneWorkspace((4, 4, 4))
        assert ws.capacity == (4, 4, 4)
        assert ws.grows == 0
        ws.reserve(2, 2, 2)  # shrink request: no-op
        assert ws.capacity == (4, 4, 4)
        assert ws.grows == 0
        ws.reserve(8, 2, 2)
        assert ws.capacity == (8, 4, 4)
        assert ws.grows == 1

    def test_steady_state_no_regrow(self, dna_scheme):
        rng = np.random.default_rng(59)
        ws = PlaneWorkspace((10, 10, 10))
        ws.planes_for(10, 10)  # materialise plane buffers up front
        for shape in [(10, 10, 10), (4, 4, 4), (10, 2, 7)]:
            seqs = _random_triple(rng, shape)
            wavefront_sweep(*seqs, dna_scheme, workspace=ws)
        assert ws.grows == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            PlaneWorkspace((-1, 0, 0))

    def test_planes_are_neg_filled_views(self):
        ws = PlaneWorkspace((5, 5, 0))
        planes = ws.planes_for(5, 5)
        assert len(planes) == 4
        for p in planes:
            assert p.shape == (7, 7)
            assert np.all(p == NEG)
        planes[0][3, 3] = 1.0
        again = ws.planes_for(2, 2)
        for p in again:
            assert p.shape == (4, 4)
            assert np.all(p == NEG)
