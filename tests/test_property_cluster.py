"""Property-based tests for the cluster substrate (grids, simulation)."""

from hypothesis import example, given, settings, strategies as st

from repro.cluster.blockgrid import BlockGrid
from repro.cluster.machine import MachineModel
from repro.cluster.memory import per_rank_memory
from repro.cluster.simulate import simulate_wavefront

dims = st.tuples(
    st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)
)
blocks = st.tuples(
    st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)
)

COMMON = dict(deadline=None, max_examples=30)


@settings(**COMMON)
@given(dims, blocks)
def test_blocks_partition_lattice(d, b):
    grid = BlockGrid(dims=d, block=b)
    blks = list(grid.blocks())
    assert len(blks) == grid.n_blocks
    assert len(set(blks)) == len(blks)
    assert sum(grid.block_cells(x) for x in blks) == grid.total_cells()


@settings(**COMMON)
@given(dims, blocks)
def test_wavefront_order_and_backward_edges(d, b):
    grid = BlockGrid(dims=d, block=b)
    planes = [sum(x) for x in grid.blocks()]
    assert planes == sorted(planes)
    for blk in grid.blocks():
        for src, payload in grid.dependencies(blk):
            assert sum(src) < sum(blk)
            assert payload >= 1


@settings(**COMMON)
@given(dims, blocks, st.integers(1, 12))
def test_simulation_invariants(d, b, procs):
    grid = BlockGrid(dims=d, block=b)
    machine = MachineModel(procs=procs)
    r = simulate_wavefront(grid, machine)
    assert 0 < r.speedup <= procs + 1e-9
    assert 0 < r.efficiency <= 1 + 1e-9
    assert r.makespan >= r.serial_time / procs - 1e-12
    assert sum(r.busy_time) <= r.serial_time + 1e-9
    assert abs(sum(r.busy_time) - r.serial_time) < 1e-9
    assert r.blocks == grid.n_blocks
    if procs == 1:
        assert r.messages == 0


@settings(**COMMON)
@given(dims, st.integers(1, 8))
@example(d=(3, 36, 38), procs=1)  # a pencil thinner than four planes
def test_memory_modes_and_partition(d, procs):
    grid = BlockGrid(dims=d, block=(4, 4, 4))
    full = per_rank_memory(grid, procs, mode="full")
    so = per_rank_memory(grid, procs, mode="score_only")
    assert len(full.per_rank) == procs
    assert all(x >= 0 for x in full.per_rank)
    # Full mode stores at least the whole cube across ranks.
    assert sum(full.per_rank) >= grid.total_cells() * 9
    # Score-only never exceeds full for the constrained rank (+ slack for
    # degenerate tiny grids where plane buffers dominate).
    if grid.total_cells() > 4096:
        assert so.max_rank <= full.max_rank


@settings(**COMMON)
@given(dims, st.integers(1, 8), st.sampled_from(["pencil", "linear", "slab"]))
def test_owner_total_coverage(d, procs, mapping):
    grid = BlockGrid(dims=d, block=(3, 5, 2))
    owners = {grid.owner(b, procs, mapping) for b in grid.blocks()}
    assert owners <= set(range(procs))
