"""Deterministic, seed-driven fault injection.

A fault spec is a compact string::

    kind[@engine][:key=value[,key=value...]]

with kinds

``worker_crash``   the matching worker calls ``os._exit(13)`` mid-sweep
``straggler``      the matching worker sleeps ``delay`` seconds at a plane
``corrupt_ghost``  a ghost payload is bit-flipped *after* its checksum is
                   computed (models wire corruption in ``mpirun``)
``oom``            :func:`repro.resilience.degrade.memory_budget` reports
                   ``budget`` bytes, forcing the degradation ladder

and keys ``engine``, ``worker``, ``rank``, ``plane``, ``block``,
``delay`` (seconds), ``budget`` (bytes), ``seed``, ``times``. Multiple
specs are separated by ``;``. ``@engine`` must name a label that
injects faults (:data:`ENGINES`): ``pool`` (the parallel executor,
including per-call ``method="blocks"``) or ``mpirun`` (the cluster
runtime); any other target could never fire. Examples::

    worker_crash@pool:worker=1,plane=25
    straggler@pool:worker=1,delay=0.2
    corrupt_ghost@mpirun:rank=1
    oom:budget=200000

Determinism: when ``plane`` is omitted for a crash/straggler the firing
plane is derived from ``seed`` (and the worker id) with a stable hash,
so the same spec fires at the same place on every run. Each spec fires
``times`` times per process (default 1 for crashes/stragglers/corruption,
unlimited for ``oom``); forked workers inherit the armed registry, and
supervisors respawn replacement workers with injection *disarmed* so a
recovered sweep cannot re-kill itself forever.

The hot-path cost when nothing is armed is one module-bool check
(:data:`enabled`), mirroring :mod:`repro.obs`.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field

from repro.resilience.errors import FaultSpecError

#: Environment variable holding ``;``-separated fault specs.
ENV_VAR = "REPRO_FAULTS"

KINDS = ("worker_crash", "straggler", "corrupt_ghost", "oom")

#: Engine labels that call the injection hooks — the valid ``@engine``
#: targets.
ENGINES = ("pool", "mpirun")

#: Module-level fast guard: False <=> no armed specs in this process.
enabled = False

_specs: list["FaultSpec"] = []

_INT_KEYS = ("worker", "rank", "plane", "block", "seed", "times")
_FLOAT_KEYS = ("delay",)


@dataclass
class FaultSpec:
    """One parsed, armed fault."""

    kind: str
    engine: str | None = None
    worker: int | None = None
    rank: int | None = None
    plane: int | None = None
    block: int | None = None
    delay: float = 0.05
    budget: int = 1_000_000
    seed: int = 0
    times: int = 1
    fired: int = field(default=0, compare=False)

    @property
    def armed(self) -> bool:
        return self.times < 0 or self.fired < self.times

    def derived_plane(self, worker: int, dmax: int) -> int:
        """Deterministic firing plane when ``plane`` was not given."""
        if self.plane is not None:
            return self.plane
        if dmax <= 0:
            return 0
        h = zlib.crc32(f"{self.kind}:{self.seed}:{worker}".encode())
        return 1 + h % dmax

    def spec_string(self) -> str:
        at = f"@{self.engine}" if self.engine else ""
        keys = []
        for k in ("worker", "rank", "plane", "block", "seed"):
            v = getattr(self, k)
            if v is not None and (k != "seed" or v):
                keys.append(f"{k}={v}")
        if self.kind == "straggler":
            keys.append(f"delay={self.delay:g}")
        if self.kind == "oom":
            keys.append(f"budget={self.budget}")
        tail = ":" + ",".join(keys) if keys else ""
        return f"{self.kind}{at}{tail}"


def parse_spec(text: str) -> FaultSpec:
    """Parse one spec string; raises :class:`FaultSpecError` on nonsense."""
    text = text.strip()
    if not text:
        raise FaultSpecError("empty fault spec")
    head, _, tail = text.partition(":")
    kind, _, engine = head.partition("@")
    kind = kind.strip()
    if kind not in KINDS:
        raise FaultSpecError(
            f"unknown fault kind {kind!r}; known: {', '.join(KINDS)}"
        )
    spec = FaultSpec(kind=kind, engine=engine.strip() or None)
    if spec.engine is not None and spec.engine not in ENGINES:
        raise FaultSpecError(
            f"unknown fault target @{spec.engine}; faults fire only in: "
            f"{', '.join(ENGINES)}"
        )
    if kind == "oom":
        spec.times = -1  # budget queries are read repeatedly
    for item in filter(None, (s.strip() for s in tail.split(","))):
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise FaultSpecError(f"bad key=value {item!r} in {text!r}")
        try:
            if key in _INT_KEYS or key == "budget":
                setattr(spec, key, int(value))
            elif key in _FLOAT_KEYS:
                setattr(spec, key, float(value))
            else:
                raise FaultSpecError(
                    f"unknown fault key {key!r} in {text!r}"
                )
        except ValueError as exc:
            raise FaultSpecError(
                f"bad value for {key!r} in {text!r}: {exc}"
            ) from None
    if spec.kind == "worker_crash" and spec.worker == 0:
        raise FaultSpecError(
            "worker_crash targets child workers; worker 0 is the dispatcher"
        )
    if spec.kind == "straggler" and spec.delay < 0:
        raise FaultSpecError("straggler delay must be >= 0")
    return spec


def install(specs: str | list[str]) -> list[FaultSpec]:
    """Arm the given spec string(s) in this process (additive)."""
    global enabled
    if isinstance(specs, str):
        specs = [s for s in specs.split(";") if s.strip()]
    parsed = [parse_spec(s) for s in specs]
    _specs.extend(parsed)
    enabled = bool(_specs)
    return parsed


def install_from_env(environ=None) -> list[FaultSpec]:
    """Arm specs from :data:`ENV_VAR` when present."""
    env = environ if environ is not None else os.environ
    raw = env.get(ENV_VAR, "").strip()
    return install(raw) if raw else []


def clear() -> None:
    """Disarm everything (used between chaos scenarios and in tests)."""
    global enabled
    _specs.clear()
    enabled = False


def disarm_all() -> None:
    """Keep the registry but stop all firing (respawned workers call this
    so a replayed plane cannot re-trigger the crash that killed its
    predecessor)."""
    global enabled
    enabled = False


def active_specs() -> list[FaultSpec]:
    return list(_specs)


def _matches(spec: FaultSpec, kind: str, **where) -> bool:
    if spec.kind != kind or not spec.armed:
        return False
    engine = where.get("engine")
    if spec.engine is not None and engine is not None and spec.engine != engine:
        return False
    for key in ("worker", "rank", "block"):
        want = getattr(spec, key)
        have = where.get(key)
        if want is not None and have is not None and want != have:
            return False
    if kind in ("worker_crash", "straggler"):
        plane = where.get("plane")
        if plane is not None:
            target = spec.derived_plane(
                where.get("worker") or 0, where.get("dmax") or 0
            )
            if plane != target:
                return False
    return True


def fire(kind: str, **where) -> FaultSpec | None:
    """Return (and consume one shot of) the first matching armed spec.

    Callers pass their coordinates (``engine=, worker=, plane=, dmax=,
    rank=, block=``); unspecified spec fields match anything. Returns
    ``None`` — at the cost of a single bool check — when nothing is armed.
    """
    if not enabled:
        return None
    for spec in _specs:
        if _matches(spec, kind, **where):
            spec.fired += 1
            return spec
    return None


def maybe_inject(
    engine: str, worker: int, plane: int, dmax: int
) -> None:
    """Enact crash/straggler faults at a plane boundary.

    Called by the parallel engines at the top of each plane, *before*
    computing it — so a crash leaves that worker's rows of the plane
    missing and recovery genuinely has to replay it. One bool check when
    nothing is armed."""
    if not enabled:
        return
    if worker != 0:
        # Worker 0 is the dispatcher/supervisor; a crash spec with no
        # explicit worker id must never take it (and the process hosting
        # the tests) down.
        spec = fire(
            "worker_crash", engine=engine, worker=worker, plane=plane, dmax=dmax
        )
        if spec is not None:
            os._exit(13)
    spec = fire(
        "straggler", engine=engine, worker=worker, plane=plane, dmax=dmax
    )
    if spec is not None:
        time.sleep(spec.delay)


def peek(kind: str, **where) -> FaultSpec | None:
    """Like :func:`fire` but without consuming a shot (used by the memory
    budget, which is read more than once per run)."""
    if not enabled:
        return None
    for spec in _specs:
        if _matches(spec, kind, **where):
            return spec
    return None
