"""Heterogeneous clusters: unequal node speeds and weighted ownership.

The paper's group worked extensively on heterogeneous computing, and the
natural stress test for a static block mapping is a cluster where nodes
differ in speed: round-robin pencil assignment then leaves the fast nodes
idling at every wavefront barrier while the slow ones finish.

This module models per-processor speeds (:class:`HeterogeneousMachine`),
simulates the block wavefront on them, and provides a *weighted* pencil
assignment (:func:`weighted_pencil_owners`) — greedy longest-processing-
time placement of pencil workloads onto processors scaled by speed — to
restore balance. Experiment A3 quantifies the recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.blockgrid import BlockGrid
from repro.cluster.simulate import SimResult, _event_loop
from repro.util.validation import check_positive


@dataclass(frozen=True)
class HeterogeneousMachine:
    """A cluster whose processors have individual per-cell times.

    Parameters
    ----------
    t_cells:
        Per-processor seconds per DP cell (length = processor count).
    alpha, beta:
        Uniform link latency (s/message) and inverse bandwidth (s/byte).
    bytes_per_cell:
        Ghost payload bytes per boundary cell.
    """

    t_cells: tuple[float, ...]
    alpha: float = 1.0e-4
    beta: float = 8.0e-8
    bytes_per_cell: int = 8
    name: str = "hetero"

    def __post_init__(self) -> None:
        if not self.t_cells:
            raise ValueError("t_cells must not be empty")
        for t in self.t_cells:
            check_positive("t_cells entries", t)
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")

    @property
    def procs(self) -> int:
        """Number of processors."""
        return len(self.t_cells)

    @property
    def total_speed(self) -> float:
        """Aggregate cells/second across the cluster."""
        return sum(1.0 / t for t in self.t_cells)

    def compute_time(self, cells: int, proc: int) -> float:
        """Time for ``proc`` to evaluate ``cells`` DP cells."""
        if cells < 0:
            raise ValueError("cells must be >= 0")
        return cells * self.t_cells[proc]

    def comm_time(self, payload_bytes: int) -> float:
        """Latency + bandwidth cost of one message."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        return self.alpha + self.beta * payload_bytes

    def ideal_serial_time(self, total_cells: int) -> float:
        """One-processor time on the *fastest* node (speedup baseline)."""
        return total_cells * min(self.t_cells)


def uniform_with_stragglers(
    procs: int,
    t_cell: float = 2.0e-8,
    stragglers: int = 1,
    slowdown: float = 4.0,
) -> HeterogeneousMachine:
    """A mostly-uniform cluster with ``stragglers`` nodes ``slowdown``×
    slower — the canonical heterogeneity stress case."""
    check_positive("procs", procs)
    if not 0 <= stragglers <= procs:
        raise ValueError("stragglers must be in [0, procs]")
    check_positive("slowdown", slowdown)
    t = [t_cell] * procs
    for idx in range(stragglers):
        t[idx] = t_cell * slowdown
    return HeterogeneousMachine(t_cells=tuple(t))


def weighted_pencil_owners(
    grid: BlockGrid, machine: HeterogeneousMachine
) -> dict[tuple[int, int], int]:
    """Assign pencil columns to processors proportionally to speed.

    Greedy LPT: pencils (sorted by their cell load, descending) go to the
    processor whose *scaled* accumulated load (cells × t_cell) is lowest.
    Returns a map ``(J, K) -> proc``.
    """
    gi, gj, gk = grid.grid_shape
    loads: dict[tuple[int, int], int] = {}
    for blk in grid.blocks():
        key = (blk[1], blk[2])
        loads[key] = loads.get(key, 0) + grid.block_cells(blk)
    assigned: dict[tuple[int, int], int] = {}
    proc_time = [0.0] * machine.procs
    for key, cells in sorted(
        loads.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        best = min(
            range(machine.procs),
            key=lambda p: (proc_time[p] + cells * machine.t_cells[p], p),
        )
        assigned[key] = best
        proc_time[best] += cells * machine.t_cells[best]
    return assigned


def simulate_wavefront_hetero(
    grid: BlockGrid,
    machine: HeterogeneousMachine,
    mapping: str = "weighted",
) -> SimResult:
    """Simulate the block wavefront on a heterogeneous cluster.

    ``mapping``: ``"weighted"`` (speed-proportional pencil assignment) or
    any homogeneous :class:`BlockGrid` mapping name (``pencil``/``linear``/
    ``slab``) applied blindly, for comparison.
    """
    procs = machine.procs
    if mapping == "weighted":
        pencil_owner = weighted_pencil_owners(grid, machine)

        def owner(blk: tuple[int, int, int]) -> int:
            return pencil_owner[(blk[1], blk[2])]

    else:

        def owner(blk: tuple[int, int, int]) -> int:
            return grid.owner(blk, procs, mapping)

    return _event_loop(
        grid,
        machine,
        owner=owner,
        compute_time=machine.compute_time,
        serial_time=machine.ideal_serial_time(grid.total_cells()),
    )
