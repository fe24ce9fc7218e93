"""Graceful degradation: estimate the cube, fall back before the OOM.

A full-traceback run of ``dp3d``, ``wavefront`` or ``blocks`` at length
``n`` needs the dense ``(n+1)^3`` move cube; past the memory budget that
dies with a raw ``MemoryError`` deep inside NumPy. ``pruned`` and
``banded`` store moves only for the cells their tube keeps
(:class:`~repro.core.tube.TubeMoves`), but a tube can keep the whole
cube, so they are priced as if it did. This module estimates every
engine's footprint *up front* and walks a degradation ladder instead::

    dp3d ──────────────┐
    wavefront/pruned ──┼──>  hirschberg  (divide & conquer, O(n^2))
    blocks ────────────┤
    banded ────────────┘

The rungs are the ``rung`` column of :data:`repro.core.methods.METHODS`.
Each rung preserves exactness: Hirschberg's divide-and-conquer returns
an optimal alignment in quadratic memory (cf. the low-memory line of
work in PAPERS.md), so a degraded run still produces the optimal score
and a bit-identical-scoring alignment — only the engine (and possibly
the co-optimal tie choice) changes, which the structured
:class:`DegradationWarning` and ``meta["degraded_from"]`` record.

The budget comes from (first match wins): an armed ``oom`` fault
(chaos testing), the ``REPRO_MEM_BUDGET`` env var, 80% of
``MemAvailable`` from ``/proc/meminfo``, or a 2 GiB fallback.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.methods import METHODS
from repro.resilience import faults
from repro.resilience.errors import DegradationWarning, DegradedRun

ENV_BUDGET = "REPRO_MEM_BUDGET"

FALLBACK_BUDGET = 2 << 30

__all__ = [
    "DegradationWarning",
    "DegradedRun",
    "DegradePlan",
    "estimate_bytes",
    "memory_budget",
    "plan_method",
]


def _meminfo_available(path: str = "/proc/meminfo") -> int | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def memory_budget(environ=None) -> int:
    """The byte budget engine planning works against (see module doc)."""
    spec = faults.peek("oom")
    if spec is not None:
        return spec.budget
    env = environ if environ is not None else os.environ
    raw = env.get(ENV_BUDGET, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    avail = _meminfo_available()
    if avail is not None:
        return int(avail * 0.8)
    return FALLBACK_BUDGET


def estimate_bytes(
    method: str,
    dims: tuple[int, int, int],
    score_only: bool = False,
    *,
    anchors=None,
) -> int:
    """Upper-bound estimate of an engine's peak allocation for ``dims``.

    Deliberately ignores the O(n) sequence data and O(n^2) profile
    matrices common to all engines; the cube-shaped buffers dominate.

    ``anchors`` (a normalised constraint chain, see
    :mod:`repro.anchor.model`) reprices the run at the **largest free
    sub-cube** of the chain decomposition: sub-cubes are solved
    sequentially sharing one workspace, so the full cube never exists.
    ``method="anchored"`` prices as a wavefront over that sub-cube (the
    most memory-hungry engine ``select_method`` can hand a segment).
    """
    if anchors:
        from repro.anchor import as_anchors, max_subcube_dims

        dims = max_subcube_dims(as_anchors(anchors), dims)
    if method == "anchored":
        method = "wavefront"
    n1, n2, n3 = dims
    cube = (n1 + 1) * (n2 + 1) * (n3 + 1)
    planes = 4 * (n1 + 2) * (n2 + 2) * 8
    if method == "dp3d":
        # float64 DP cube, plus the int8 move cube for traceback.
        return cube * 8 + (0 if score_only else cube)
    if method == "wavefront":
        return planes + (0 if score_only else cube)
    if method == "blocks":
        # The pool streams through a deeper rotating plane window
        # (2 * BAND_CAP + 3 buffers).
        from repro.parallel.executor import BAND_CAP
        from repro.parallel.partition import plane_window

        window = plane_window(BAND_CAP)
        return (window * planes) // 4 + (0 if score_only else cube)
    if method in ("pruned", "banded"):
        # The keep-region is a tube (two (n1+1)(n2+1) intp planes), not a
        # boolean cube; pruned additionally holds the three O(n^2)
        # pairwise through-matrices while building the bound. The move
        # store holds one byte per kept cell, which the tube is not
        # known to bound before it is built: ``cube`` prices the full
        # tube, so the estimate stays an upper bound.
        tube = 2 * (n1 + 1) * (n2 + 1) * 8
        through = (
            (n1 + 1) * (n2 + 1) + (n1 + 1) * (n3 + 1) + (n2 + 1) * (n3 + 1)
        ) * 8
        return planes + tube + through + (0 if score_only else cube)
    if method == "hirschberg":
        from repro.core.hirschberg import memory_estimate_bytes

        return memory_estimate_bytes(n1, n2, n3)
    raise ValueError(f"no memory model for method {method!r}")


@dataclass
class DegradePlan:
    """Outcome of up-front memory planning for one run."""

    requested: str
    method: str
    estimate: int
    budget: int
    #: Methods considered, in order, with their estimates.
    steps: list[tuple[str, int]] = field(default_factory=list)
    #: True when the final rung still exceeds the budget (attempted
    #: anyway — there is nothing lower to fall to).
    over_budget: bool = False

    @property
    def degraded(self) -> bool:
        return self.method != self.requested

    def describe(self) -> str:
        path = " -> ".join(m for m, _e in self.steps)
        return (
            f"method {self.requested!r} needs ~{self.estimate:,} bytes but "
            f"the budget is {self.budget:,}; degraded along {path}"
        )


def plan_method(
    method: str,
    dims: tuple[int, int, int],
    *,
    score_only: bool = False,
    budget: int | None = None,
) -> DegradePlan:
    """Walk the ladder from ``method`` to the first engine that fits.

    The bottom rung is accepted even when over budget — an attempt that
    may OOM still beats refusing outright, and strict callers turn the
    plan into a :class:`DegradedRun` instead.
    """
    if budget is None:
        budget = memory_budget()
    first_estimate = estimate_bytes(method, dims, score_only)
    steps: list[tuple[str, int]] = [(method, first_estimate)]
    current, estimate = method, first_estimate
    while estimate > budget:
        lower = METHODS[current].rung
        if lower is None:
            break
        current = lower
        estimate = estimate_bytes(current, dims, score_only)
        steps.append((current, estimate))
    return DegradePlan(
        requested=method,
        method=current,
        estimate=first_estimate,
        budget=budget,
        steps=steps,
        over_budget=estimate > budget,
    )
