"""Event-driven simulation of the distributed block wavefront.

Scheduling model: blocks are visited in block-plane (wavefront) order — the
order the real distributed algorithm imposes — and each block starts as
soon as (a) its owning processor is free and (b) every predecessor has
finished and its ghost layer has arrived. A ghost layer sent between blocks
on the *same* processor is free; across processors it costs
``alpha + beta * payload_bytes``.

This reproduces the three effects the paper family's figures exhibit:

* **pipeline fill/drain** — early and late block-planes have fewer blocks
  than processors, bounding speedup for small problems;
* **communication rolloff** — per-block latency grows relative to per-block
  compute as blocks shrink or processors multiply;
* **block-size tradeoff** — large blocks amortise latency but lengthen the
  pipeline; small blocks do the opposite (experiment F4 sweeps this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.blockgrid import BlockGrid
from repro.cluster.machine import MachineModel
from repro.obs import hooks as _obs


@dataclass
class SimResult:
    """Outcome of one simulated execution."""

    makespan: float
    serial_time: float
    procs: int
    comm_volume_bytes: int
    messages: int
    comm_time_total: float
    busy_time: list[float] = field(default_factory=list)
    blocks: int = 0

    @property
    def speedup(self) -> float:
        """Serial time over simulated parallel makespan."""
        return self.serial_time / self.makespan if self.makespan > 0 else 0.0

    @property
    def efficiency(self) -> float:
        """Speedup normalised by processor count."""
        return self.speedup / self.procs if self.procs else 0.0

    @property
    def avg_utilisation(self) -> float:
        """Mean fraction of the makespan processors spent computing."""
        if not self.busy_time or self.makespan <= 0:
            return 0.0
        return sum(self.busy_time) / (len(self.busy_time) * self.makespan)


def simulate_wavefront(
    grid: BlockGrid,
    machine: MachineModel,
    mapping: str = "pencil",
) -> SimResult:
    """Simulate the block-wavefront execution of ``grid`` on ``machine``.

    Returns a :class:`SimResult`; ``serial_time`` is the one-processor
    compute time of the same cube (no communication), so ``speedup`` is the
    quantity the paper's scaling figures plot.
    """
    procs = machine.procs
    res = _event_loop(
        grid,
        machine,
        owner=lambda blk: grid.owner(blk, procs, mapping),
        compute_time=lambda cells, proc: machine.compute_time(cells),
        serial_time=machine.compute_time(grid.total_cells()),
    )
    if _obs.active():
        _obs.record_sim(
            procs=procs,
            blocks=res.blocks,
            messages=res.messages,
            comm_bytes=res.comm_volume_bytes,
            makespan=res.makespan,
            speedup=res.speedup,
            busy=res.busy_time,
        )
    return res


def _event_loop(
    grid: BlockGrid,
    machine: Any,
    owner: Callable[[tuple[int, int, int]], int],
    compute_time: Callable[[int, int], float],
    serial_time: float,
) -> SimResult:
    """The one event loop behind every cluster simulation.

    Visits ``grid``'s blocks in wavefront order; each starts once its
    processor ``owner(blk)`` is free and every predecessor's ghost layer
    has arrived, and runs for ``compute_time(cells, proc)``. ``machine``
    supplies ``procs``, ``bytes_per_cell`` and ``comm_time``, charged
    only between blocks on different processors.
    """
    procs = machine.procs
    finish: dict[tuple[int, int, int], float] = {}
    proc_avail = [0.0] * procs
    busy = [0.0] * procs
    comm_volume = 0
    comm_time = 0.0
    messages = 0
    n_blocks = 0

    for blk in grid.blocks():
        n_blocks += 1
        own = owner(blk)
        ready = 0.0
        for src, payload_cells in grid.dependencies(blk):
            arrive = finish[src]
            if owner(src) != own:
                payload = payload_cells * machine.bytes_per_cell
                delay = machine.comm_time(payload)
                arrive += delay
                comm_volume += payload
                comm_time += delay
                messages += 1
            ready = max(ready, arrive)
        compute = compute_time(grid.block_cells(blk), own)
        start = max(proc_avail[own], ready)
        end = start + compute
        finish[blk] = end
        proc_avail[own] = end
        busy[own] += compute

    return SimResult(
        makespan=max(finish.values()) if finish else 0.0,
        serial_time=serial_time,
        procs=procs,
        comm_volume_bytes=comm_volume,
        messages=messages,
        comm_time_total=comm_time,
        busy_time=busy,
        blocks=n_blocks,
    )
