#!/usr/bin/env python3
"""Generate docs/api.md from the package's public surface.

Walks every ``repro`` submodule, collects the names its ``__all__`` (or
public top-level definitions) exposes, and emits a markdown reference with
each object's signature and first docstring line. Run after API changes:

    python tools/gen_api_doc.py            # rewrites docs/api.md
    python tools/gen_api_doc.py OUT.md     # writes OUT.md instead

``tests/test_tools.py`` writes to a temporary path and fails when the
result differs from the committed ``docs/api.md``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import pkgutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "docs" / "api.md"

HEADER = """# API reference

Generated by ``tools/gen_api_doc.py`` — regenerate after changing public
signatures. One line per public object: signature and summary. Full
semantics live in the docstrings (``help(obj)``) and ``docs/algorithms.md``;
the constrained/anchored modes of ``align3`` are walked through in
``docs/workloads.md``.
"""


def _first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else "(undocumented)"


class _Elided:
    """Stand-in default rendered as ``...`` in signatures."""

    def __repr__(self) -> str:
        return "..."


#: Defaults whose repr exceeds this are elided — a verbatim repr of a
#: large or mutable default (e.g. ``os.environ``) would leak whatever the
#: generating machine had in it into the committed doc.
_MAX_DEFAULT_REPR = 64


def _signature(obj) -> str:
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return ""
    params = []
    for p in sig.parameters.values():
        if (
            p.default is not inspect.Parameter.empty
            and len(repr(p.default)) > _MAX_DEFAULT_REPR
        ):
            p = p.replace(default=_Elided())
        params.append(p)
    return str(sig.replace(parameters=params))


def _public_names(module) -> list[str]:
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and getattr(obj, "__module__", None) == module.__name__
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out", nargs="?", type=pathlib.Path, default=OUT,
        help="output path (default: docs/api.md)",
    )
    out = parser.parse_args(argv).out
    import repro

    lines = [HEADER]
    modules = [repro]
    for info in sorted(
        pkgutil.walk_packages(repro.__path__, prefix="repro."),
        key=lambda m: m.name,
    ):
        if ".bench" in info.name and info.name.endswith("__main__"):
            continue
        try:
            modules.append(importlib.import_module(info.name))
        except Exception as exc:  # pragma: no cover - import-time issue
            print(f"skip {info.name}: {exc}", file=sys.stderr)

    for module in modules:
        names = _public_names(module)
        if not names:
            continue
        lines.append(f"\n## `{module.__name__}`\n")
        summary = _first_line(module)
        lines.append(f"{summary}\n")
        for name in names:
            obj = getattr(module, name, None)
            if obj is None:
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                sig = _signature(obj)
                kind = "class" if inspect.isclass(obj) else "def"
                lines.append(f"- **`{kind} {name}{sig}`** — {_first_line(obj)}")
            elif inspect.ismodule(obj):
                continue
            else:
                lines.append(f"- **`{name}`** — constant/data")
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(lines)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
