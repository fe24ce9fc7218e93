"""Typed failures shared by the fault-tolerance layer.

These live in their own module (rather than with the parallel
executor or :mod:`degrade`) so that the CLI and the engines can import
the types without pulling in multiprocessing machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: CLI exit codes for the typed failures (argparse already uses 2).
EXIT_WORKER_FAILURE = 3
EXIT_DEGRADED = 4
EXIT_BAD_FAULT_SPEC = 5


@dataclass
class FailureRecord:
    """One observed worker/rank failure."""

    engine: str
    worker: int
    plane: int | None = None
    reason: str = ""
    exitcode: int | None = None
    respawned: bool = False

    def describe(self) -> str:
        where = f" at plane {self.plane}" if self.plane is not None else ""
        code = f" (exit {self.exitcode})" if self.exitcode is not None else ""
        tail = "respawned" if self.respawned else "not respawned"
        return (
            f"{self.engine} worker {self.worker}{where}: "
            f"{self.reason}{code}, {tail}"
        )


class WorkerFailure(RuntimeError):
    """A worker or rank died (or stalled) beyond what recovery allows.

    Carries the accumulated failure log so callers — and the CLI's
    one-line error path — can report *which* worker failed doing *what*
    instead of a bare ``queue.Empty`` or a hung barrier.
    """

    def __init__(
        self, message: str, failures: list[FailureRecord] | None = None
    ):
        super().__init__(message)
        self.failures: list[FailureRecord] = list(failures or [])

    def describe(self) -> str:
        lines = [str(self)]
        lines.extend(f"  - {rec.describe()}" for rec in self.failures)
        return "\n".join(lines)


class ProtocolError(RuntimeError):
    """The block/message protocol was violated (ordering, unknown tag)."""


class FaultSpecError(ValueError):
    """An ``--inject-fault`` / ``REPRO_FAULTS`` spec could not be parsed."""


class DegradationWarning(UserWarning):
    """Emitted when a run is transparently moved to a lower-memory engine."""


class DegradedRun(RuntimeError):
    """Degradation was required but the caller forbade it (strict mode)."""

    def __init__(self, message: str, plan: Any | None = None):
        super().__init__(message)
        self.plan = plan


__all__ = [
    "FailureRecord",
    "WorkerFailure",
    "ProtocolError",
    "FaultSpecError",
    "DegradationWarning",
    "DegradedRun",
    "EXIT_WORKER_FAILURE",
    "EXIT_DEGRADED",
    "EXIT_BAD_FAULT_SPEC",
]
