"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main
from repro.seqio.fasta import parse_fasta, write_fasta
from repro.seqio.generate import mutated_family


@pytest.fixture
def fasta3(tmp_path):
    fam = mutated_family(25, seed=2)
    path = tmp_path / "three.fasta"
    write_fasta(path, [(f"s{i}", s) for i, s in enumerate(fam)])
    return str(path), fam


@pytest.fixture
def fasta5(tmp_path):
    fam = mutated_family(20, count=5, seed=3)
    path = tmp_path / "five.fasta"
    write_fasta(path, [(f"s{i}", s) for i, s in enumerate(fam)])
    return str(path), fam


class TestAlign:
    def test_pretty_output(self, fasta3, capsys):
        path, fam = fasta3
        assert main(["align", path]) == 0
        captured = capsys.readouterr()
        assert "s0" in captured.out
        assert "score=" in captured.err

    def test_fasta_output_roundtrip(self, fasta3, capsys):
        path, fam = fasta3
        assert main(["align", path, "--format", "fasta"]) == 0
        out = capsys.readouterr().out
        records = parse_fasta(out)
        assert len(records) == 3
        assert [s.replace("-", "") for _h, s in records] == fam

    def test_method_selection(self, fasta3, capsys):
        path, _fam = fasta3
        assert main(["align", path, "--method", "hirschberg"]) == 0
        assert "engine=hirschberg" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["shared", "threads"])
    def test_removed_parallel_engines_are_argparse_errors(
        self, fasta3, capsys, method
    ):
        path, _fam = fasta3
        with pytest.raises(SystemExit) as exc:
            main(["align", path, "--method", method])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_affine_via_gap_open(self, fasta3, capsys):
        path, _fam = fasta3
        assert main(
            ["align", path, "--gap", "-3", "--gap-open", "-9"]
        ) == 0
        assert "engine=affine" in capsys.readouterr().err

    def test_msa_for_five(self, fasta5, capsys):
        path, fam = fasta5
        assert main(["align", path, "--format", "fasta"]) == 0
        records = parse_fasta(capsys.readouterr().out)
        assert len(records) == 5
        assert [s.replace("-", "") for _h, s in records] == fam

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--method", "blocks"], "--method blocks"),
            (["--constraints", "[[0, 0, 0, 1]]"], "--constraints"),
            (["--anchored"], "--anchored"),
            (
                ["--method", "blocks", "--constraints", "[[0, 0, 0, 1]]",
                 "--anchored"],
                "--method blocks",
            ),
        ],
    )
    def test_msa_rejects_three_sequence_flags(
        self, fasta5, tmp_path, capsys, flags, named
    ):
        path, fam = fasta5
        assert main(["align", path, *flags]) == 2
        assert (
            f"{named} requires exactly three sequences"
            in capsys.readouterr().err
        )
        pair = tmp_path / "two.fasta"
        write_fasta(pair, [("a", fam[0]), ("b", fam[1])])
        assert main(["align", str(pair), *flags]) == 2

    def test_msa_accepts_no_degrade(self, fasta5, capsys):
        path, _fam = fasta5
        assert main(["align", path, "--no-degrade"]) == 0
        assert "engine=progressive" in capsys.readouterr().err

    def test_single_record_errors(self, tmp_path, capsys):
        path = tmp_path / "one.fasta"
        write_fasta(path, [("only", "ACGT")])
        assert main(["align", str(path)]) == 2
        assert "at least two" in capsys.readouterr().err


class TestScore:
    def test_matches_api(self, fasta3, capsys, dna_scheme):
        from repro.core.api import align3_score

        path, fam = fasta3
        assert main(["score", path]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(align3_score(*fam, dna_scheme))

    def test_explicit_matrix_and_gap(self, fasta3, capsys):
        path, _fam = fasta3
        assert main(["score", path, "--matrix", "unit", "--gap", "-2"]) == 0
        float(capsys.readouterr().out.strip())  # parses as a number


class TestGenerate:
    def test_emits_fasta(self, capsys):
        assert main(["generate", "--length", "30", "--count", "4",
                     "--seed", "9"]) == 0
        records = parse_fasta(capsys.readouterr().out)
        assert len(records) == 4
        assert all(set(s) <= set("ACGT") for _h, s in records)

    def test_deterministic(self, capsys):
        main(["generate", "--seed", "11"])
        first = capsys.readouterr().out
        main(["generate", "--seed", "11"])
        assert capsys.readouterr().out == first

    def test_protein_alphabet(self, capsys):
        assert main(["generate", "--alphabet", "protein", "--length", "20"]) == 0
        _h, seq = parse_fasta(capsys.readouterr().out)[0]
        from repro.seqio.alphabet import PROTEIN

        assert PROTEIN.is_valid(seq)


class TestSimulate:
    def test_table_printed(self, capsys):
        assert main(["simulate", "--n", "60", "--procs", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "comm_MB" in out

    def test_network_choice(self, capsys):
        assert main(
            ["simulate", "--n", "60", "--procs", "2", "--network", "modern"]
        ) == 0
        assert "modern" in capsys.readouterr().out


class TestObservability:
    def test_align_trace_and_metrics(self, fasta3, tmp_path, capsys):
        from repro.obs.trace import read_trace

        path, _fam = fasta3
        out = tmp_path / "trace.jsonl"
        assert main(["align", path, "--trace", str(out), "--metrics"]) == 0
        err = capsys.readouterr().err
        assert "cells_computed" in err  # --metrics summary on stderr
        records = read_trace(out)
        types = {r["type"] for r in records}
        assert {"span", "sweep", "planes"} <= types

    def test_tracing_off_by_default(self, fasta3, capsys):
        from repro.obs import metrics, trace

        path, _fam = fasta3
        assert main(["align", path]) == 0
        capsys.readouterr()
        assert not trace.enabled and not metrics.enabled

    def test_report_renders_tables(self, fasta3, tmp_path, capsys):
        path, _fam = fasta3
        out = tmp_path / "trace.jsonl"
        main(["align", path, "--trace", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "phases" in text and "sweeps" in text and "planes" in text

    def test_unwritable_trace_path(self, fasta3, tmp_path, capsys):
        path, _fam = fasta3
        bad = tmp_path / "missing-dir" / "t.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["align", path, "--trace", str(bad)])
        assert exc.value.code == 2
        assert "cannot open --trace" in capsys.readouterr().err

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such" in capsys.readouterr().err.lower()

    def test_simulate_trace(self, tmp_path, capsys):
        from repro.obs.trace import read_trace

        out = tmp_path / "sim.jsonl"
        assert main(
            ["simulate", "--n", "60", "--procs", "2", "--trace", str(out)]
        ) == 0
        capsys.readouterr()
        sims = [r for r in read_trace(out) if r["type"] == "sim"]
        assert sims and sims[0]["procs"] == 2


class TestInfo:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro 1.0.0" in out
        assert "wavefront" in out


class TestAlignModes:
    def test_local_mode(self, fasta3, capsys):
        path, _fam = fasta3
        assert main(["align", path, "--mode", "local"]) == 0
        assert "engine=local" in capsys.readouterr().err

    def test_semiglobal_mode(self, fasta3, capsys):
        path, _fam = fasta3
        assert main(["align", path, "--mode", "semiglobal"]) == 0
        captured = capsys.readouterr()
        assert "engine=semiglobal" in captured.err

    def test_semiglobal_rows_cover_inputs(self, fasta3, capsys):
        path, fam = fasta3
        assert main(["align", path, "--mode", "semiglobal",
                     "--format", "fasta"]) == 0
        records = parse_fasta(capsys.readouterr().out)
        assert [s.replace("-", "") for _h, s in records] == fam

    def test_mode_requires_three(self, fasta5, capsys):
        path, _fam = fasta5
        assert main(["align", path, "--mode", "local"]) == 2
        assert "exactly three" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["local", "semiglobal"])
    def test_affine_scheme_rejected_before_computing(
        self, fasta3, mode, capsys
    ):
        path, _fam = fasta3
        assert main(["align", path, "--mode", mode, "--gap-open", "-8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert "linear gap model" in captured.err

    def test_affine_msa_rejected_before_computing(self, fasta5, capsys):
        path, _fam = fasta5
        assert main(["align", path, "--gap-open", "-8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: align_msa implements the linear gap model\n"
        )

    def test_banded_method(self, fasta3, capsys):
        path, _fam = fasta3
        assert main(["align", path, "--method", "banded"]) == 0
        assert "engine=banded" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mode", "local", "--method", "pruned"],
             "mode 'local' has a single engine; use method='auto'"),
            (["--mode", "local", "--constraints", "[[0, 0, 0, 1]]"],
             "constrained alignment supports mode='global' only"),
            (["--mode", "semiglobal", "--anchored"],
             "mode 'semiglobal' has a single engine; use method='auto'"),
        ],
        ids=["local-method", "local-constraints", "semiglobal-anchored"],
    )
    def test_flag_the_mode_cannot_honour_rejected(
        self, fasta3, flags, message, capsys
    ):
        # The same requests repro batch and POST /v1/align reject.
        path, _fam = fasta3
        assert main(["align", path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestBenchOut:
    def test_out_dir_written(self, tmp_path, capsys):
        from repro.bench.__main__ import main as bench_main

        out = tmp_path / "results"
        assert bench_main(["--exp", "f6", "--quick", "--out", str(out)]) == 0
        text = (out / "f6.txt").read_text()
        assert "comm_MB" in text


class TestCount:
    def test_count_printed(self, fasta3, capsys):
        path, fam = fasta3
        assert main(["count", path]) == 0
        n = int(capsys.readouterr().out.strip())
        from repro.core.countopt import count_optimal
        from repro.core.scoring import default_scheme_for
        from repro.seqio.alphabet import DNA

        assert n == count_optimal(*fam, default_scheme_for(DNA))

    def test_show_alignments(self, fasta3, capsys):
        path, _fam = fasta3
        assert main(["count", path, "--show", "2"]) == 0
        out = capsys.readouterr().out
        # The count line plus at least one pretty-printed block.
        assert out.splitlines()[0].strip().isdigit()
        assert "\nA " in out

    def test_requires_three(self, fasta5, capsys):
        path, _fam = fasta5
        assert main(["count", path]) == 2
        assert "exactly three" in capsys.readouterr().err

    def test_affine_rejected(self, fasta3, capsys):
        path, _fam = fasta3
        assert main(["count", path, "--gap-open", "-5"]) == 2
        assert "linear" in capsys.readouterr().err


class TestSimulateExtras:
    def test_calibrate_flag(self, capsys):
        assert main(
            ["simulate", "--n", "60", "--procs", "1", "2", "--calibrate"]
        ) == 0
        assert "speedup" in capsys.readouterr().out

    def test_mapping_flag(self, capsys):
        assert main(
            ["simulate", "--n", "60", "--procs", "4", "--mapping", "slab"]
        ) == 0
        assert "slab" in capsys.readouterr().out

    def test_block_flag(self, capsys):
        assert main(
            ["simulate", "--n", "60", "--procs", "2", "--block", "8"]
        ) == 0
        assert "block=8" in capsys.readouterr().out


class TestBatch:
    @pytest.fixture
    def reqs_jsonl(self, tmp_path):
        import json

        t1 = ["GATTACA", "GATCA", "GTTACA"]
        t2 = ["ACGTAC", "ACTAC", "AGTAC"]
        path = tmp_path / "reqs.jsonl"
        lines = [
            json.dumps({"seqs": t1, "id": "a"}),
            json.dumps({"seqs": t1, "id": "b"}),  # exact duplicate
            json.dumps({"seqs": t2, "id": "c"}),
        ]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_jsonl_batch(self, reqs_jsonl, capsys):
        assert main(["batch", reqs_jsonl, "--workers", "1"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 3
        rid, score, source = lines[0].split("\t")
        assert rid == "a" and source == "computed"
        assert lines[1].split("\t")[2] == "dedup"
        assert lines[0].split("\t")[1] == lines[1].split("\t")[1]
        assert "dedup_ratio=0.33" in captured.err

    def test_fasta_batch(self, tmp_path, capsys):
        fam = mutated_family(15, seed=9)
        path = tmp_path / "six.fasta"
        write_fasta(
            path, [(f"s{i}", s) for i, s in enumerate(fam + fam)]
        )
        assert main(["batch", str(path), "--workers", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split("\t")[2] == "dedup"

    def test_cache_dir_warm_restart(self, reqs_jsonl, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["batch", reqs_jsonl, "--workers", "1", "--cache-dir", cache_dir]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0  # fresh process state, same disk tier
        captured = capsys.readouterr()
        sources = [l.split("\t")[2] for l in captured.out.strip().splitlines()]
        assert sources == ["disk_hit", "dedup", "disk_hit"]
        assert "dedup_ratio=1.00" in captured.err

    def test_explicit_scheme_flags(self, reqs_jsonl, capsys):
        assert main(
            ["batch", reqs_jsonl, "--workers", "1", "--gap", "-2"]
        ) == 0
        assert capsys.readouterr().out.count("\t") == 6

    def test_metrics_summary(self, reqs_jsonl, capsys):
        assert main(
            ["batch", reqs_jsonl, "--workers", "1", "--metrics"]
        ) == 0
        err = capsys.readouterr().err
        assert "batch_requests" in err
        assert "request_latency_s" in err

    @pytest.mark.parametrize(
        "fields", [{"mode": "local"}, {"method": "anchored"}]
    )
    def test_affine_linear_only_line_exits_2(self, tmp_path, fields, capsys):
        import json

        path = tmp_path / "reqs.jsonl"
        good = json.dumps({"seqs": ["GATTACA", "GATCA", "GTTACA"]})
        bad = json.dumps({"seqs": ["ACGTAC", "ACTAC", "AGTAC"], **fields})
        path.write_text("\n".join([good, bad]) + "\n")
        args = ["batch", str(path), "--workers", "1", "--gap-open", "-8"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the first line runs
        assert f"{path}:2: " in captured.err
        assert "linear gap model" in captured.err

    def test_missing_file(self, capsys):
        assert main(["batch", "/nonexistent/x.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_empty_input(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("# nothing here\n")
        assert main(["batch", str(path)]) == 2
        assert "no requests" in capsys.readouterr().err

    def test_bad_fasta_count(self, tmp_path, capsys):
        path = tmp_path / "four.fasta"
        write_fasta(path, [(f"s{i}", "ACGT") for i in range(4)])
        assert main(["batch", str(path)]) == 2
        assert "multiple of three" in capsys.readouterr().err


class TestMixedAlphabets:
    """A DNA + protein input has no default scheme: exit 2, no result."""

    MIXED = ("ACGTACGT", "ACGTACGA", "MKVLWQ")

    @pytest.fixture
    def mixed3(self, tmp_path):
        path = tmp_path / "mixed.fasta"
        write_fasta(path, [(f"s{i}", s) for i, s in enumerate(self.MIXED)])
        return str(path)

    @pytest.mark.parametrize("matrix", ["auto", "unit"])
    @pytest.mark.parametrize("command", ["align", "score", "count"])
    def test_rejected_with_exit_2(self, mixed3, command, matrix, capsys):
        assert main([command, mixed3, "--matrix", matrix]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mixed alphabets" in captured.err

    def test_explicit_matrix_is_the_callers_choice(self, mixed3, capsys):
        assert main(["score", mixed3, "--matrix", "blosum62"]) == 0

    def test_batch_names_the_line_and_runs_nothing(self, tmp_path, capsys):
        import json

        path = tmp_path / "reqs.jsonl"
        good = json.dumps({"seqs": ["GATTACA", "GATCA", "GTTACA"]})
        path.write_text(
            "\n".join([good, json.dumps({"seqs": list(self.MIXED)}), good])
            + "\n"
        )
        assert main(["batch", str(path), "--workers", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:2: " in captured.err
        assert "mixed alphabets" in captured.err
        assert main(
            ["batch", str(path), "--workers", "1", "--matrix", "blosum62"]
        ) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_batch_explicit_matrix_rejects_a_foreign_line(
        self, tmp_path, capsys
    ):
        import json

        path = tmp_path / "reqs.jsonl"
        good = json.dumps({"seqs": ["GATTACA", "GATCA", "GTTACA"]})
        protein = json.dumps({"seqs": ["MKVLWQ", "MKVLW", "MKLWQ"]})
        path.write_text("\n".join([good, protein, good]) + "\n")
        assert main(["batch", str(path), "--matrix", "dna"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:2: " in captured.err
        assert "not in alphabet 'dna'" in captured.err


class TestBatchOutputFormats:
    @pytest.fixture
    def reqs_jsonl(self, tmp_path):
        import json

        t1 = ["GATTACA", "GATCA", "GTTACA"]
        path = tmp_path / "reqs.jsonl"
        path.write_text(
            json.dumps({"seqs": t1, "id": "a"})
            + "\n"
            + json.dumps({"seqs": t1, "id": "b"})
            + "\n"
        )
        return str(path)

    def test_jsonl_output_carries_rows(self, reqs_jsonl, capsys):
        import json

        assert main(
            ["batch", reqs_jsonl, "--workers", "1", "--output", "jsonl"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        recs = [json.loads(l) for l in lines]
        assert [r["id"] for r in recs] == ["a", "b"]
        assert recs[0]["rows"] == recs[1]["rows"]
        assert len(recs[0]["rows"]) == 3
        assert recs[0]["source"] == "computed"
        assert recs[1]["source"] == "dedup"
        assert recs[0]["score"] == recs[1]["score"]


class TestCliDocDrift:
    """Every subcommand the parser knows must be documented; a new
    subparser without docs (or docs for a removed command) fails here."""

    @staticmethod
    def _subcommands():
        import argparse

        from repro.cli import _build_parser

        parser = _build_parser()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return sorted(action.choices)
        raise AssertionError("no subparsers found on the CLI parser")

    def test_expected_surface(self):
        # the drift check below is only meaningful if discovery works
        cmds = self._subcommands()
        for expected in ("align", "batch", "serve", "score", "info"):
            assert expected in cmds

    def test_every_subcommand_in_readme(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_text()
        missing = [
            c for c in self._subcommands() if f"repro {c}" not in readme
        ]
        assert not missing, (
            f"subcommands absent from README.md: {missing}"
        )

    def test_every_subcommand_in_docs(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        corpus = "".join(
            p.read_text() for p in sorted((root / "docs").glob("*.md"))
        )
        missing = [
            c for c in self._subcommands() if f"repro {c}" not in corpus
        ]
        assert not missing, (
            f"subcommands absent from docs/*.md: {missing}"
        )

    def test_module_docstring_lists_every_subcommand(self):
        import repro.cli as cli

        doc = cli.__doc__ or ""
        missing = [
            c for c in self._subcommands() if f"``{c}``" not in doc
        ]
        assert not missing, (
            f"subcommands absent from the repro.cli docstring: {missing}"
        )


class TestServeCli:
    def test_bad_config_rejected(self, capsys):
        assert main(["serve", "--port", "-2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parser_accepts_all_knobs(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            [
                "serve", "--host", "0.0.0.0", "--port", "0",
                "--workers", "3", "--queue-depth", "64",
                "--max-inflight-cells", "1000000",
                "--max-request-cells", "2000000",
                "--batch-max", "16",
                "--deadline", "10", "--drain-timeout", "5",
                "--cache-dir", "/tmp/x", "--max-entries", "128",
            ]
        )
        assert args.command == "serve"
        assert args.batch_max == 16

    def test_batch_age_flag_rejected(self, capsys):
        # Batches flush when the compute thread is free; there is no
        # age window to set.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--batch-age-ms", "5"])
        assert exc.value.code == 2
        assert "--batch-age-ms" in capsys.readouterr().err
