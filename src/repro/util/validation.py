"""Argument-validation helpers.

Every public entry point validates its inputs eagerly so that misuse fails
with a clear message at the API boundary instead of deep inside a vectorised
kernel, where NumPy's broadcasting errors are hard to map back to the
caller's mistake.
"""

from __future__ import annotations

import math
import os
import sys
from typing import Any, Iterable, Mapping, Sequence


def env_seconds(
    name: str,
    default: float,
    floor: float,
    environ: Mapping[str, str] | None = None,
) -> float:
    """A duration in seconds read from environment variable ``name``.

    Unset or empty gives ``default``; a finite number is raised to at
    least ``floor``. A non-numeric or non-finite value (``abc``,
    ``nan``, ``inf``) warns on stderr and gives ``default``: these are
    read when a worker pool or a rank starts, where a typo should
    neither crash the run nor turn a bounded wait into an unbounded one.
    """
    env = os.environ if environ is None else environ
    raw = env.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        print(
            f"# warning: ignoring {name}={raw!r} (not a finite number); "
            f"using default {default:g}s",
            file=sys.stderr,
            flush=True,
        )
        return default
    return max(floor, value)


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_nonnegative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_in_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_type(name: str, value: Any, types: type | tuple[type, ...]) -> None:
    """Raise ``TypeError`` unless ``value`` is an instance of ``types``."""
    if not isinstance(value, types):
        expected = (
            types.__name__
            if isinstance(types, type)
            else " | ".join(t.__name__ for t in types)
        )
        raise TypeError(
            f"{name} must be {expected}, got {type(value).__name__}"
        )


def check_sequences(seqs: Sequence[str], count: int | None = None) -> None:
    """Validate a collection of raw sequence strings.

    Ensures each element is a ``str``; empty sequences are *allowed* (the
    alignment algorithms handle them and several tests rely on it), but
    non-string entries and a wrong count are rejected.
    """
    if count is not None and len(seqs) != count:
        raise ValueError(f"expected {count} sequences, got {len(seqs)}")
    for idx, s in enumerate(seqs):
        if not isinstance(s, str):
            raise TypeError(
                f"sequence #{idx} must be str, got {type(s).__name__}"
            )


def ensure_distinct(names: Iterable[str]) -> None:
    """Raise ``ValueError`` when ``names`` contains duplicates."""
    seen: set[str] = set()
    for n in names:
        if n in seen:
            raise ValueError(f"duplicate name: {n!r}")
        seen.add(n)
