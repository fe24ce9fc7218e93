"""The method catalogue: each fact about an ``align3`` method, written once.

:data:`AVAILABLE_METHODS`, :data:`CHAIN_ENGINES`,
:data:`repro.cache.EXACT_METHODS` and the memory ladder of
:func:`repro.resilience.degrade.plan_method` are views of
:data:`METHODS`, and :mod:`repro.core.api` checks, resolves and
dispatches every request from it. An engine is named as
``"module.function"`` and looked up on its module at call time, so a
function rebound there (a tracer, a monkeypatch) is the one that runs.
This module imports nothing from ``repro``, so any layer may read it.
"""

from __future__ import annotations

from typing import NamedTuple


class Method(NamedTuple):
    """One ``align3`` method."""

    #: The function that runs it (``auto`` runs what it resolves to).
    runs: str
    #: Cache-key class of its rows; engines sharing the kernel's
    #: tie-break return the same rows and key as ``"exact"``.
    key_class: str | None
    #: Next lower-memory engine; ``None``: the memory plan skips it.
    rung: str | None = None
    #: Options the engine function takes by keyword.
    takes: tuple[str, ...] = ()
    #: Engine for each sub-cube of a constrained request naming it;
    #: ``None``: it cannot solve a sub-cube.
    subcube: str | None = None


METHODS: dict[str, Method] = {
    "auto": Method("", None, subcube="auto"),
    "dp3d": Method(
        "repro.core.dp3d.align3_dp3d", "exact", "wavefront", (), "dp3d"
    ),
    "wavefront": Method(
        "repro.core.wavefront.align3_wavefront", "exact", "hirschberg",
        ("workspace",), "wavefront",
    ),
    "hirschberg": Method(
        "repro.core.hirschberg.align3_hirschberg", "hirschberg", None,
        ("workspace",), "hirschberg",
    ),
    "pruned": Method(
        "repro.core.bounds.align3_pruned", "exact", "hirschberg",
        ("workspace",), "pruned",
    ),
    "banded": Method(
        "repro.core.band.align3_banded", "exact", "hirschberg", (), "banded"
    ),
    "affine": Method("repro.core.affine.align3_affine", "affine"),
    "blocks": Method(
        "repro.parallel.blocks.align3_blocks", "exact", "hirschberg",
        ("workers",),
    ),
    "anchored": Method(
        "repro.anchor.solve.align3_chain", "anchored", subcube="auto"
    ),
}

#: The ``method=`` values ``align3`` accepts.
AVAILABLE_METHODS = tuple(METHODS)

#: Engines a chain sub-cube may be solved with.
CHAIN_ENGINES = tuple(m for m, row in METHODS.items() if row.subcube == m)


def subcube_engine(method: str) -> str:
    """The engine for each sub-cube of a chain naming ``method``."""
    row = METHODS.get(method)
    if row is None or row.subcube is None:
        raise ValueError(
            f"unknown chain engine {method!r}; available: {CHAIN_ENGINES}"
        )
    return row.subcube
