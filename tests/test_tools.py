"""Tests for repo tooling (gen_api_doc.py, check_overhead.py, the
check_perf gate plumbing) and the generated doc."""

import copy
import functools
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=1)
def _load_check_perf():
    spec = importlib.util.spec_from_file_location(
        "check_perf", ROOT / "tools" / "check_perf.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckPerfGate:
    """In-process check_perf runs with the expensive benchmark stubbed
    out: the gate logic (floors, tolerance, trajectory fallback, loud
    failure on a missing scaling reference) in milliseconds."""

    @pytest.fixture()
    def cp(self, monkeypatch):
        module = _load_check_perf()
        baseline = json.loads(
            (ROOT / "BENCH_kernel.json").read_text()
        )
        # The fresh "measurement" reproduces the baseline exactly, so
        # every ratio gate passes with zero margin consumed.
        monkeypatch.setattr(
            module.bench_kernel,
            "run",
            lambda config: copy.deepcopy(baseline),
        )
        return module

    def test_passes_and_reports_every_gate(self, cp, tmp_path, capsys):
        rc = cp.main(
            ["--no-record", "--runs-file", str(tmp_path / "RUNS.jsonl")]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        for label in ("small", "large", "pruned", "scaling", "affine"):
            assert f"{label} reference:" in out

    def test_missing_scaling_section_fails_loudly(
        self, cp, tmp_path, monkeypatch, capsys
    ):
        # A hand-edited baseline without the scaling section must fail
        # the gate outright — not silently skip the block-tiled check.
        doc = json.loads((ROOT / "BENCH_kernel.json").read_text())
        doc.pop("scaling")
        mangled = tmp_path / "BENCH_kernel.json"
        mangled.write_text(json.dumps(doc))
        monkeypatch.setattr(
            cp.bench_kernel, "baseline_path", lambda: mangled
        )
        rc = cp.main(
            ["--no-record", "--runs-file", str(tmp_path / "RUNS.jsonl")]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "no scaling section" in out

    def test_affine_floor_enforced_on_the_baseline(
        self, cp, tmp_path, monkeypatch, capsys
    ):
        doc = json.loads((ROOT / "BENCH_kernel.json").read_text())
        assert doc["affine"]["speedup"] >= cp.AFFINE_SPEEDUP_FLOOR
        doc["affine"]["speedup"] = 1.9
        mangled = tmp_path / "BENCH_kernel.json"
        mangled.write_text(json.dumps(doc))
        monkeypatch.setattr(
            cp.bench_kernel, "baseline_path", lambda: mangled
        )
        rc = cp.main(
            ["--no-record", "--runs-file", str(tmp_path / "RUNS.jsonl")]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "affine traceback speedup 1.90x is below" in out
        doc.pop("affine")
        mangled.write_text(json.dumps(doc))
        assert cp.main(
            ["--no-record", "--runs-file", str(tmp_path / "RUNS.jsonl")]
        ) == 1
        assert "no affine section" in capsys.readouterr().out

    def test_missing_baseline_is_a_hard_error_even_with_trajectory(
        self, cp, tmp_path, monkeypatch, capsys
    ):
        # Neither source exists: empty run store and no committed
        # baseline — the gate must refuse to run, not vacuously pass.
        monkeypatch.setattr(
            cp.bench_kernel,
            "baseline_path",
            lambda: tmp_path / "nope.json",
        )
        rc = cp.main(
            [
                "--trajectory",
                "--no-record",
                "--runs-file",
                str(tmp_path / "RUNS.jsonl"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 2
        assert "FAIL" in out

    def test_trajectory_on_empty_store_falls_back_to_baseline(
        self, cp, tmp_path, capsys
    ):
        runs = tmp_path / "RUNS.jsonl"
        rc = cp.main(["--trajectory", "--no-record", "--runs-file", str(runs)])
        out = capsys.readouterr().out
        assert rc == 0, out
        # Every gate — the scaling and affine ones included — reports the
        # committed-baseline fallback while the trajectory is thin.
        assert out.count("from baseline (trajectory has 0") == 5
        # The baseline was migrated as the seed row, scaling metric
        # included, so the trend view starts non-empty.
        from repro.runs import RunStore

        rows = RunStore(runs).records(kind="bench_kernel")
        assert len(rows) == 1
        assert rows[0].metric("scaling_speedup") > 0


def test_generator_runs_and_covers_subpackages(tmp_path):
    # The generator writes to tmp_path; the committed reference must be
    # exactly what it emits, so a changed public signature fails here
    # until docs/api.md is regenerated.
    out = tmp_path / "api.md"
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_api_doc.py"), str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    text = out.read_text()
    assert text == (ROOT / "docs" / "api.md").read_text(), (
        "docs/api.md is stale: run python tools/gen_api_doc.py"
    )
    for module in (
        "repro.core.wavefront",
        "repro.core.hirschberg",
        "repro.cluster.simulate",
        "repro.parallel.executor",
        "repro.msa.progressive",
        "repro.analysis.compare",
        "repro.seqio.fasta",
    ):
        assert f"`{module}`" in text, module


def test_check_overhead_smoke():
    # Tiny cube and a loose tolerance: this verifies the guard's plumbing
    # (imports, measurement loop, output-identity check), not the 10%
    # budget itself — that is enforced by running the tool standalone on a
    # quiet machine.
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "check_overhead.py"),
            "--n", "16",
            "--repeats", "2",
            "--tolerance", "5.0",
            "--no-record",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "OK:" in result.stdout and "overhead=" in result.stdout


def test_check_chaos_smoke():
    # Small cube and loose limits: verifies every fault scenario's plumbing
    # (injection, recovery, checksum/resend, degradation) end to end; the
    # real 40^3 / 10% run is the standalone acceptance gate.
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "check_chaos.py"),
            "--n", "16",
            "--repeats", "2",
            "--tolerance", "5.0",
            "--budget", "240",
            "--no-record",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "OK:" in result.stdout


def test_check_batch_smoke():
    # Small duplicate-heavy batch with a loose speedup bound: verifies the
    # gate's plumbing (dedup accounting, bit-identity sweep, warm re-run);
    # the real 200-request / 2x run is the standalone acceptance gate.
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "check_batch.py"),
            "--requests", "30",
            "--unique", "6",
            "--n", "16",
            "--repeats", "1",
            "--min-speedup", "1.2",
            "--no-record",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "OK:" in result.stdout and "dedup_ratio=" in result.stdout


def test_check_serve_smoke():
    # Small request count at low concurrency: verifies the gate's three
    # phases end to end (spawn + bit-identity + dedup, tiny-queue 429s,
    # SIGTERM drain); the full 200-request / 16-way run is the standalone
    # acceptance gate.
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "check_serve.py"),
            "--requests", "40",
            "--unique", "8",
            "--n", "12",
            "--concurrency", "8",
            "--no-record",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "OK:" in result.stdout and "dedup_ratio=" in result.stdout


def test_check_runs_smoke():
    # Full round trip of the run-record gate in its own temp store: seed
    # from the committed baseline, record, re-gate against the rolling
    # median, torn-line repair, gc and trend render.
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "check_runs.py"),
            "--no-record",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "OK:" in result.stdout


def test_check_all_discovers_every_gate():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_all.py"), "--list"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    listed = set(result.stdout.split())
    on_disk = {
        p.name
        for p in (ROOT / "tools").glob("check_*.py")
        if p.name != "check_all.py"
    }
    assert listed == on_disk
    assert "check_serve.py" in listed


def test_check_all_rejects_unknown_gate():
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "check_all.py"),
            "--only", "no_such_gate",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2


def test_api_doc_mentions_key_entry_points():
    text = (ROOT / "docs" / "api.md").read_text()
    for name in ("align3", "WavefrontPool", "simulate_wavefront",
                 "carrillo_lipman_tube", "align_msa", "run_distributed"):
        assert name in text, name


#: Imports ``sut`` (and so ``tracer`` and ``workloads``), resolves every
#: ``repro`` name either module imports, even inside a function, then
#: installs the span recorder of one process role.
_BENCH_HOOKS = """
import ast, importlib, sys
import sut, tracer, workloads
for mod in (sut, workloads):
    with open(mod.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \\
                (node.module or "").startswith("repro"):
            target = importlib.import_module(node.module)
            for alias in node.names:
                getattr(target, alias.name)
tracer.install(sys.argv[1])
"""


@pytest.mark.parametrize("role", ["caller", "replica", "router"])
def test_benchmark_hooks_resolve(role):
    # perfbench/tracer.py wraps repro functions by module attribute and
    # perfbench/sut.py imports repro names, so a rename under src/ would
    # otherwise surface only in a traced benchmark run. A subprocess,
    # because install() rebinds module attributes for the whole process.
    result = subprocess.run(
        [sys.executable, "-c", _BENCH_HOOKS, role],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "perfbench")])},
    )
    assert result.returncode == 0, result.stderr
