"""One request check for every entry point (repro.core.api.check_request).

``align3`` (cold or warm cache), ``BatchScheduler._normalise`` (and so
serve, the router and ``repro batch``) and ``repro align`` run the same
check before any cache lookup or compute, so each admits and rejects
the same requests with the same message.
"""

from __future__ import annotations

import pytest

import repro.batch.scheduler as scheduler_mod
from repro.batch import AlignmentRequest, BatchScheduler
from repro.cache import ResultCache
from repro.cli import main
from repro.core.api import AVAILABLE_METHODS, align3
from repro.core.types import MODES
from repro.seqio.fasta import write_fasta
from repro.serve import ServeClient
from tests.test_serve import ServerThread

SEQS = ("GATTACA", "GATCA", "GATTA")
CHAIN = ((0, 0, 0, 1),)
#: Methods that cannot solve a chain sub-cube.
NO_SUBCUBE = ("blocks", "affine")


def _rejection(fn) -> str | None:
    """``fn``'s ``ValueError`` message, or None when it succeeds."""
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


class TestConstrainedMethods:
    @pytest.mark.parametrize("method", NO_SUBCUBE)
    def test_cold_cache_rejects_before_the_lookup(
        self, method, hirschberg_tie_triple
    ):
        cache = ResultCache()
        with pytest.raises(ValueError, match="unknown chain engine"):
            align3(
                *hirschberg_tie_triple, method=method, constraints=CHAIN,
                cache=cache,
            )
        assert cache.stats.lookups == 0

    @pytest.mark.parametrize("method", NO_SUBCUBE)
    def test_warm_cache_rejects(
        self, method, dna_scheme, hirschberg_tie_triple
    ):
        cache = ResultCache()
        align3(
            *hirschberg_tie_triple, dna_scheme, method="wavefront",
            constraints=CHAIN, cache=cache,
        )
        lookups = cache.stats.lookups
        with pytest.raises(ValueError, match="unknown chain engine"):
            align3(
                *hirschberg_tie_triple, dna_scheme, method=method,
                constraints=CHAIN, cache=cache,
            )
        assert cache.stats.lookups == lookups

    @pytest.mark.parametrize("method", NO_SUBCUBE)
    def test_batch_rejects_before_computing(
        self, method, dna_scheme, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            scheduler_mod, "align3", lambda *a, **k: calls.append(a)
        )
        reqs = [
            AlignmentRequest(seqs=SEQS, scheme=dna_scheme),
            AlignmentRequest(
                seqs=SEQS, scheme=dna_scheme, method=method,
                constraints=CHAIN,
            ),
        ]
        cache = ResultCache()
        with BatchScheduler(cache=cache, workers=1) as sched:
            with pytest.raises(ValueError, match="unknown chain engine"):
                sched.run(reqs)
        assert calls == []
        assert cache.stats.lookups == 0

    @pytest.mark.serve
    def test_post_gets_400_alone_and_next_to_a_good_request(self):
        bad = {"seqs": list(SEQS), "method": "blocks",
               "constraints": [list(c) for c in CHAIN]}
        good = {"seqs": list(SEQS)}
        with ServerThread() as srv, ServeClient(
            "127.0.0.1", srv.port
        ) as client:
            for body in (bad, {"requests": [good, bad]}):
                resp = client._request("POST", "/v1/align", body)
                assert resp.status == 400
                assert resp.body["error"]["type"] == "bad_request"
                assert "unknown chain engine" in resp.body["error"]["message"]
            assert srv.server.batcher.requests_served == 0
            assert client._request("POST", "/v1/align", good).status == 200


@pytest.mark.parametrize("scheme_name", ["linear", "affine"])
@pytest.mark.parametrize("constraints", [None, CHAIN],
                         ids=["free", "constrained"])
@pytest.mark.parametrize("method", AVAILABLE_METHODS)
def test_align3_and_normalise_admit_alike(
    method, constraints, scheme_name, dna_scheme, affine_dna_scheme
):
    scheme = affine_dna_scheme if scheme_name == "affine" else dna_scheme
    # A warm cache holds what the accepted neighbours of this request
    # computed, so a rejection cannot hide behind a hit.
    warm = ResultCache()
    for chain in (None, CHAIN):
        align3(*SEQS, dna_scheme, method="wavefront", constraints=chain,
               cache=warm)
    align3(*SEQS, affine_dna_scheme, method="affine", cache=warm)
    outcomes = {
        "align3": _rejection(lambda: align3(
            *SEQS, scheme, method=method, constraints=constraints)),
        "align3 warm": _rejection(lambda: align3(
            *SEQS, scheme, method=method, constraints=constraints,
            cache=warm)),
        "_normalise": _rejection(lambda: BatchScheduler._normalise(
            AlignmentRequest(seqs=SEQS, scheme=scheme, method=method,
                             constraints=constraints))),
    }
    assert len(set(outcomes.values())) == 1, outcomes


@pytest.mark.parametrize("constraints", [None, CHAIN],
                         ids=["free", "constrained"])
@pytest.mark.parametrize("method", AVAILABLE_METHODS)
@pytest.mark.parametrize("mode", MODES)
def test_cli_and_normalise_admit_alike(
    mode, method, constraints, dna_scheme, tmp_path, capsys
):
    path = tmp_path / "three.fasta"
    write_fasta(path, [(f"s{i}", s) for i, s in enumerate(SEQS)])
    argv = ["align", str(path), "--mode", mode, "--method", method]
    if constraints:
        argv += ["--constraints", str([list(c) for c in constraints])]
    want = _rejection(lambda: BatchScheduler._normalise(AlignmentRequest(
        seqs=SEQS, scheme=dna_scheme, mode=mode, method=method,
        constraints=constraints)))
    rc = main(argv)
    err = capsys.readouterr().err
    if want is None:
        assert rc == 0, err
    else:
        assert (rc, err) == (2, f"error: {want}\n")
