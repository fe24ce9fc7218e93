"""Tests for the fault-tolerance layer (repro.resilience) and its wiring
into the parallel engines, the cluster runtime, the API and the CLI."""

import os
import queue
import signal
import threading
import warnings

import numpy as np
import pytest

from repro.core.api import align3
from repro.core.dp3d import align3_dp3d, score3_dp3d
from repro.core.wavefront import align3_wavefront
from repro.parallel.blocks import align3_blocks
from repro.parallel.blockwave import SupervisionPolicy
from repro.parallel.executor import WavefrontPool, fork_available
from repro.resilience import faults
from repro.resilience.degrade import (
    DegradePlan,
    estimate_bytes,
    memory_budget,
    plan_method,
)
from repro.resilience.errors import (
    DegradationWarning,
    DegradedRun,
    FaultSpecError,
    ProtocolError,
    WorkerFailure,
)
from repro.resilience.retry import (
    DEFAULT_DEADLINE,
    comm_deadline,
    corrupt_payload,
    payload_checksum,
    queue_get_with_retry,
    verify_payload,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

#: Detects a dead worker within 0.2 s, so recovery tests take ~1 s.
FAST_POLICY = SupervisionPolicy(scan_interval=0.2, straggler_grace=0.6)


def within(seconds: float, fn, *args):
    """``fn(*args)`` on a daemon thread: its result, or its exception —
    or a failure, instead of a hung suite, when it is still blocked
    after ``seconds``."""
    box: dict = {}

    def target() -> None:
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # re-raised on the calling thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"still blocked after {seconds}s"
    if "error" in box:
        raise box["error"]
    return box.get("value")


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


class TestFaultSpecs:
    def test_parse_full_spec(self):
        spec = faults.parse_spec("worker_crash@pool:worker=1,plane=25")
        assert spec.kind == "worker_crash"
        assert spec.engine == "pool"
        assert spec.worker == 1 and spec.plane == 25
        assert spec.times == 1 and spec.armed

    def test_parse_minimal_and_oom_defaults(self):
        spec = faults.parse_spec("oom:budget=4096")
        assert spec.budget == 4096
        assert spec.times == -1  # budget is read repeatedly

    def test_roundtrip_spec_string(self):
        text = "straggler@pool:worker=1,plane=7,delay=0.2"
        spec = faults.parse_spec(text)
        assert faults.parse_spec(spec.spec_string()) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "meteor_strike",
            "worker_crash:worker=zero",
            "worker_crash:worker=0",  # worker 0 is the dispatcher
            "straggler:delay=-1",
            "worker_crash:nonsense=1",
            "worker_crash:plane",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            faults.parse_spec(bad)

    @pytest.mark.parametrize(
        "stale",
        [
            "worker_crash@shared:worker=1",
            "straggler@threads:worker=1,delay=0.1",
            "worker_crash@blocks:worker=1,plane=5",
        ],
    )
    def test_targets_that_never_fire_rejected(self, stale):
        # Only labels that reach an injection hook are valid targets; a
        # spec aimed anywhere else would arm, never fire, and let a
        # chaos run pass without testing anything.
        with pytest.raises(FaultSpecError, match="unknown fault target"):
            faults.parse_spec(stale)

    def test_install_is_additive_and_clear_disarms(self):
        faults.install("worker_crash@pool:worker=1;oom:budget=1")
        assert faults.enabled and len(faults.active_specs()) == 2
        faults.clear()
        assert not faults.enabled and not faults.active_specs()

    def test_fire_consumes_shots_peek_does_not(self):
        faults.install("corrupt_ghost:rank=2")
        assert faults.peek("corrupt_ghost", rank=2) is not None
        assert faults.fire("corrupt_ghost", rank=2) is not None
        assert faults.fire("corrupt_ghost", rank=2) is None  # consumed
        assert faults.fire("corrupt_ghost", rank=1) is None  # wrong rank

    def test_derived_plane_is_deterministic_and_in_range(self):
        spec = faults.parse_spec("worker_crash:seed=3")
        planes = {spec.derived_plane(1, 90) for _ in range(5)}
        assert len(planes) == 1
        assert 1 <= planes.pop() <= 90


class TestRetryHelpers:
    def test_checksum_roundtrip_and_corruption_detected(self):
        payload = np.arange(12, dtype=np.float64).reshape(3, 4)
        crc = payload_checksum(payload)
        assert verify_payload(payload, crc)
        assert not verify_payload(corrupt_payload(payload), crc)

    def test_queue_get_retry_returns_message(self):
        q = queue.Queue()
        q.put("hello")
        assert queue_get_with_retry(q, deadline=1.0) == "hello"

    def test_queue_get_retry_raises_typed_failure(self):
        q = queue.Queue()
        with pytest.raises(WorkerFailure, match="waiting for ghost"):
            queue_get_with_retry(q, deadline=0.2, what="ghost")

    def test_liveness_probe_short_circuits_the_deadline(self):
        q = queue.Queue()

        def dead_peer():
            raise WorkerFailure("peer died")

        with pytest.raises(WorkerFailure, match="peer died"):
            queue_get_with_retry(q, deadline=30.0, liveness=dead_peer)

    def test_comm_deadline_reads_env_with_floor(self):
        assert comm_deadline({}) == DEFAULT_DEADLINE
        assert comm_deadline({"REPRO_COMM_TIMEOUT": "12.5"}) == 12.5
        assert comm_deadline({"REPRO_COMM_TIMEOUT": "0.001"}) == 0.1

    def test_comm_deadline_falls_back_on_garbage(self, capsys):
        # A typo'd environment must not crash a worker mid-alignment:
        # warn on stderr and use the default.
        assert comm_deadline(
            {"REPRO_COMM_TIMEOUT": "sixty"}
        ) == DEFAULT_DEADLINE
        err = capsys.readouterr().err
        assert "warning" in err and "sixty" in err

    @pytest.mark.parametrize("raw", ["abc", "nan", "inf", "-inf"])
    def test_timeout_env_vars_fall_back_on_non_finite(self, capsys, raw):
        # Neither crash (abc), nor wait forever (inf), nor silently pick
        # the floor (nan): warn and keep the default.
        assert comm_deadline({"REPRO_COMM_TIMEOUT": raw}) == DEFAULT_DEADLINE
        policy = SupervisionPolicy.from_env({"REPRO_SUPERVISE_TIMEOUT": raw})
        assert policy == SupervisionPolicy()
        err = capsys.readouterr().err
        assert err.count("warning") == 2
        assert "REPRO_COMM_TIMEOUT" in err
        assert "REPRO_SUPERVISE_TIMEOUT" in err

    def test_supervise_timeout_scales_with_floor(self):
        policy = SupervisionPolicy.from_env({"REPRO_SUPERVISE_TIMEOUT": "0.5"})
        assert (policy.scan_interval, policy.straggler_grace) == (0.5, 1.5)
        floored = SupervisionPolicy.from_env({"REPRO_SUPERVISE_TIMEOUT": "0"})
        assert floored.scan_interval == 0.05
        assert SupervisionPolicy.from_env({}) == SupervisionPolicy()

    @needs_fork
    def test_bad_supervise_timeout_still_builds_a_pool(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SUPERVISE_TIMEOUT", "abc")
        with WavefrontPool((4, 4, 4), workers=2) as pool:
            assert pool.policy == SupervisionPolicy()
        assert "REPRO_SUPERVISE_TIMEOUT" in capsys.readouterr().err


@pytest.mark.chaos
class TestPoolRecovery:
    @needs_fork
    def test_crash_recovers_bit_identical(self, dna_scheme, family_small):
        ref = align3_dp3d(*family_small, dna_scheme)
        dmax = sum(len(s) for s in family_small)
        faults.install(f"worker_crash@pool:worker=1,plane={dmax // 2}")
        with WavefrontPool((25, 25, 25), workers=2) as pool:
            aln = pool.align3(*family_small, dna_scheme)
            assert aln.rows == ref.rows and aln.score == ref.score
            assert aln.meta["recoveries"] >= 1
            assert pool.failures[0].respawned
            # The pool stays usable after a recovery.
            faults.clear()
            again = pool.align3(*family_small, dna_scheme)
            assert again.rows == ref.rows

    @needs_fork
    def test_close_releases_shared_memory_after_kill(
        self, dna_scheme, family_small
    ):
        pool = WavefrontPool((25, 25, 25), workers=2)
        names = list(pool._names.values())
        # Simulate a wedged worker: kill it behind the pool's back, then
        # close() must escalate (not hang) and still unlink every segment.
        pool._procs[1].kill()
        pool._procs[1].join()
        pool.close()
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    @needs_fork
    def test_idle_death_respawns_at_plane_0(self, dna_scheme, family_small):
        # A child killed while idle between jobs is found by the next
        # job's counter scan, like a mid-sweep death, and replays that
        # job from plane 0.
        ref = align3_wavefront(*family_small, dna_scheme)
        pool = WavefrontPool((25, 25, 25), workers=2, policy=FAST_POLICY)
        names = list(pool._names.values())
        try:
            assert pool.align3(*family_small, dna_scheme).rows == ref.rows
            victim = pool._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            aln = within(30, pool.align3, *family_small, dna_scheme)
            assert aln.rows == ref.rows and aln.score == ref.score
            assert [(r.worker, r.plane) for r in pool.failures] == [(1, 0)]
            assert pool.failures[0].respawned
        finally:
            within(30, pool.close)
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    @needs_fork
    def test_unsupervised_pool_still_works(self, dna_scheme, family_small):
        with WavefrontPool((25, 25, 25), workers=2, supervise=False) as pool:
            aln = pool.align3(*family_small, dna_scheme)
            assert aln.score == pytest.approx(
                score3_dp3d(*family_small, dna_scheme)
            )
            assert not aln.meta["supervised"]


@pytest.mark.chaos
class TestBlocksRecovery:
    @needs_fork
    def test_crash_recovers_bit_identical(self, dna_scheme, family_small):
        ref = align3_dp3d(*family_small, dna_scheme)
        dmax = sum(len(s) for s in family_small)
        # Per-call blocks runs on a one-job pool: faults target @pool.
        faults.install(f"worker_crash@pool:worker=1,plane={dmax // 2}")
        aln = align3_blocks(*family_small, dna_scheme, workers=2)
        assert aln.rows == ref.rows and aln.score == ref.score
        assert aln.meta["recoveries"] >= 1

    @needs_fork
    @pytest.mark.parametrize("workers", [3, 8])
    def test_crash_recovers_at_more_workers(
        self, dna_scheme, family_small, workers
    ):
        ref = align3_dp3d(*family_small, dna_scheme)
        dmax = sum(len(s) for s in family_small)
        faults.install(f"worker_crash@pool:worker=2,plane={dmax // 2}")
        aln = align3_blocks(*family_small, dna_scheme, workers=workers)
        assert aln.rows == ref.rows and aln.score == ref.score
        assert aln.meta["recoveries"] >= 1

    @needs_fork
    def test_straggler_is_tolerated(self, dna_scheme, family_small):
        ref = align3_dp3d(*family_small, dna_scheme)
        faults.install("straggler@pool:worker=1,delay=0.1,plane=10")
        aln = align3_blocks(*family_small, dna_scheme, workers=2)
        assert aln.rows == ref.rows and aln.score == ref.score


@pytest.mark.chaos
class TestDistributedResilience:
    @needs_fork
    def test_corrupt_ghost_detected_and_resent(self, dna_scheme, family_small):
        from repro.cluster.mpirun import run_distributed

        ref = score3_dp3d(*family_small, dna_scheme)
        faults.install("corrupt_ghost@mpirun")
        res = run_distributed(*family_small, dna_scheme, block=6, procs=3)
        assert res.score == pytest.approx(ref)
        assert res.checksum_bad >= 1
        assert res.resends >= 1

    @needs_fork
    def test_rank_death_raises_with_failure_log(self, dna_scheme, family_small):
        from repro.cluster.mpirun import run_distributed

        faults.install("worker_crash@mpirun:rank=1")
        with pytest.raises(WorkerFailure) as excinfo:
            run_distributed(*family_small, dna_scheme, block=6, procs=3)
        assert excinfo.value.failures
        assert excinfo.value.failures[0].exitcode == 13

    def test_wavefront_order_violation_is_protocol_error(self):
        assert issubclass(ProtocolError, RuntimeError)


class TestDegradation:
    def test_estimates_ordered_sensibly_at_scale(self):
        dims = (300, 300, 300)
        assert estimate_bytes("dp3d", dims) > estimate_bytes(
            "wavefront", dims
        ) > estimate_bytes("hirschberg", dims)

    def test_plan_prefers_requested_method_when_it_fits(self):
        plan = plan_method("wavefront", (20, 20, 20), budget=1 << 30)
        assert isinstance(plan, DegradePlan)
        assert not plan.degraded and plan.method == "wavefront"

    def test_plan_walks_ladder_and_bottom_rung_is_accepted(self):
        plan = plan_method("dp3d", (50, 50, 50), budget=1)
        assert plan.method == "hirschberg"
        assert plan.over_budget  # nothing fits in 1 byte; attempt anyway
        assert [m for m, _ in plan.steps] == [
            "dp3d", "wavefront", "hirschberg"
        ]

    def test_oom_fault_overrides_the_budget(self):
        faults.install("oom:budget=12345")
        assert memory_budget() == 12345

    @pytest.mark.chaos
    def test_degraded_run_is_exact_and_annotated(
        self, dna_scheme, family_small
    ):
        ref = align3_dp3d(*family_small, dna_scheme)
        faults.install("oom:budget=50000")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            aln = align3(*family_small, dna_scheme, method="dp3d")
        assert aln.score == ref.score
        assert aln.meta["degraded_from"] == "dp3d"
        assert any(
            issubclass(w.category, DegradationWarning) for w in caught
        )

    def test_strict_mode_raises_degraded_run(self, dna_scheme, family_small):
        faults.install("oom:budget=50000")
        with pytest.raises(DegradedRun) as excinfo:
            align3(
                *family_small, dna_scheme, method="dp3d", allow_degrade=False
            )
        assert excinfo.value.plan.requested == "dp3d"


class TestCliExitCodes:
    def _fasta(self, tmp_path, seqs=("GATTACA", "GATCA", "GATTA")):
        path = tmp_path / "in.fasta"
        path.write_text(
            "".join(f">s{i}\n{s}\n" for i, s in enumerate(seqs))
        )
        return str(path)

    def test_bad_fault_spec_exits_5(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            ["align", self._fasta(tmp_path), "--inject-fault", "meteor"]
        )
        assert rc == 5
        assert "bad fault spec" in capsys.readouterr().err

    def test_stale_fault_target_exits_5(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "align", self._fasta(tmp_path),
                "--method", "blocks",
                "--inject-fault", "worker_crash@shared:worker=1",
            ]
        )
        assert rc == 5
        assert "unknown fault target" in capsys.readouterr().err

    def test_forbidden_degradation_exits_4(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "align", self._fasta(tmp_path),
                "--method", "dp3d",
                "--no-degrade",
                "--inject-fault", "oom:budget=1000",
            ]
        )
        assert rc == 4
        assert "--no-degrade" in capsys.readouterr().err

    @pytest.mark.chaos
    def test_worker_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        def failing_job(self, *args, **kwargs):
            raise WorkerFailure("pool worker 1 failed 4 times")

        # The pool under --method blocks exhausts its respawns.
        monkeypatch.setattr(WavefrontPool, "align3", failing_job)
        rc = main(
            ["align", self._fasta(tmp_path), "--method", "blocks"]
        )
        assert rc == 3
        assert "worker failure" in capsys.readouterr().err

    @pytest.mark.chaos
    def test_degraded_align_still_succeeds_with_note(self, tmp_path, capsys):
        from repro.cli import main

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(
                [
                    "align", self._fasta(tmp_path),
                    "--method", "dp3d",
                    "--inject-fault", "oom:budget=2000",
                ]
            )
        assert rc == 0
        err = capsys.readouterr().err
        assert "# degraded: dp3d ->" in err
