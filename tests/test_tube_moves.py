"""The tube-sparse move store (:class:`repro.core.tube.TubeMoves`).

A traceback sweep over a tube keeps moves only for the tube's cells.
Each case holds it to the reference masked sweep of the same region
(``sweep_ref(mask=dense_mask(tube))``, the frozen kernel with a dense
move cube) bit for bit: score, cell count, every stored move and the
rows. Comparing with the masked sweep rather than the unpruned one
isolates the store from a band's own tie choices; Carrillo–Lipman tubes
keep every optimal path, so there the rows must also equal the unpruned
sweep's.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.api import align3
from repro.core.band import band_tube
from repro.core.bounds import carrillo_lipman_tube
from repro.core.dp3d import NEG
from repro.core.scoring import default_scheme_for
from repro.core.traceback import traceback_moves
from repro.core.tube import PruningTube, TubeMoves
from repro.core.types import moves_to_columns
from repro.core.wavefront import align3_wavefront, wavefront_sweep
from repro.core.workspace import PlaneWorkspace
from repro.seqio.alphabet import DNA, PROTEIN
from repro.seqio.generate import MutationModel, mutated_family
from tests.reference.bounds import dense_mask, full_tube
from tests.reference.kernel import sweep_ref

SCHEMES = {
    "dna": default_scheme_for(DNA),
    "protein": default_scheme_for(PROTEIN),
}
LETTERS = {"dna": "ACGT", "protein": "ACDEFGHIKLMNPQRSTVWY"}
#: One workspace shared by every reusing example: stale scratch must
#: never leak into the store.
SHARED_WS = PlaneWorkspace()


def _stored(store: TubeMoves, mask: np.ndarray) -> np.ndarray:
    """The store read cell by cell as a dense cube, 0 outside ``mask``."""
    dense = np.zeros(store.shape, dtype=np.int8)
    for cell in zip(*np.nonzero(mask)):
        dense[cell] = store[cell]
    return dense


def _tube(kind: str, seqs, scheme, band: int) -> PruningTube:
    if kind == "cl":
        return carrillo_lipman_tube(*seqs, scheme)[0]
    return band_tube(*(len(s) for s in seqs), band)


def check_store(seqs, scheme, tube, ws) -> None:
    mask = dense_mask(tube)
    sparse = wavefront_sweep(*seqs, scheme, tube=tube, workspace=ws)
    planes, ref_moves, ref_cells = sweep_ref(seqs, scheme, mask=mask)
    n1, n2, _ = (len(s) for s in seqs)
    store = sparse.move_cube
    assert isinstance(store, TubeMoves)
    assert store.shape == ref_moves.shape
    assert sparse.score == planes[-1][n1 + 1, n2 + 1]
    assert sparse.cells_computed == ref_cells
    # Every tube cell's stored move is the masked sweep's move there.
    assert np.array_equal(_stored(store, mask), ref_moves)
    # A walk that starts outside the tube finds no chain.
    outside = np.argwhere(~mask)
    if len(outside):
        with pytest.raises(RuntimeError, match="broken traceback chain"):
            traceback_moves(store, start=tuple(int(v) for v in outside[0]))
    if sparse.score <= NEG / 2:
        return  # a band too thin to connect the corners
    ref_path = traceback_moves(ref_moves)
    assert traceback_moves(store) == ref_path
    a = align3_wavefront(*seqs, scheme, tube=tube, workspace=ws)
    cols = moves_to_columns(ref_path, *seqs)
    assert a.rows == tuple("".join(col[r] for col in cols) for r in range(3))
    assert a.score == sparse.score
    assert a.meta["move_store_bytes"] == store.nbytes


@st.composite
def cases(draw):
    """``(alphabet, triple)``: 0-12 residues each, empty included."""
    alphabet = draw(st.sampled_from(sorted(SCHEMES)))
    seq = st.text(alphabet=LETTERS[alphabet], min_size=0, max_size=12)
    return alphabet, draw(st.tuples(seq, seq, seq))


@settings(deadline=None, max_examples=80)
@given(
    case=cases(),
    kind=st.sampled_from(["cl", "band"]),
    band=st.integers(1, 4),
    reuse=st.booleans(),
)
@example(case=("dna", ("", "", "")), kind="cl", band=1, reuse=False)
@example(case=("dna", ("ACGTACGTACGT", "AC", "A")), kind="band", band=1,
         reuse=True)
@example(case=("protein", ("WYW", "", "W")), kind="cl", band=2, reuse=True)
def test_store_matches_masked_sweep(case, kind, band, reuse):
    alphabet, seqs = case
    scheme = SCHEMES[alphabet]
    ws = SHARED_WS if reuse else None
    tube = _tube(kind, seqs, scheme, band)
    check_store(seqs, scheme, tube, ws)
    if kind == "cl":
        pruned = align3(*seqs, scheme, method="pruned")
        plain = align3_wavefront(*seqs, scheme, workspace=ws)
        assert (pruned.rows, pruned.score) == (plain.rows, plain.score)


@pytest.mark.parametrize("alphabet", ["dna", "protein"])
@pytest.mark.parametrize("kind", ["cl", "band"])
def test_store_matches_masked_sweep_n60(alphabet, kind):
    scheme = SCHEMES[alphabet]
    seqs = mutated_family(
        60,
        model=MutationModel(0.05, 0.0125, 0.0125),
        alphabet=DNA if alphabet == "dna" else PROTEIN,
        seed=60,
    )
    tube = _tube(kind, seqs, scheme, band=4)
    check_store(seqs, scheme, tube, None)
    check_store(seqs, scheme, tube, SHARED_WS)
    if kind == "cl":
        pruned = align3(*seqs, scheme, method="pruned")
        plain = align3_wavefront(*seqs, scheme)
        assert (pruned.rows, pruned.score) == (plain.rows, plain.score)


def test_full_tube_store_is_the_dense_cube(dna_scheme):
    # For the full tube the arena is laid out as the C-order cube, plus
    # the dump byte.
    seqs = ("GATTACAGA", "GATCAGT", "TTACAGGA")
    dims = tuple(len(s) for s in seqs)
    sparse = wavefront_sweep(*seqs, dna_scheme, tube=full_tube(dims))
    dense = wavefront_sweep(*seqs, dna_scheme)
    assert np.array_equal(sparse.move_cube.arena[:-1], dense.move_cube.ravel())


def test_near_identical_store_is_under_one_percent_of_the_cube(dna_scheme):
    # n=245 at 1% substitution: the tube keeps a few hundred of the
    # ~14.9M cells, so the store is a few KiB, not the dense cube.
    seqs = mutated_family(
        245, model=MutationModel(0.01, 0.0025, 0.0025), seed=501
    )
    aln = align3(*seqs, dna_scheme, method="pruned")
    cube_bytes = np.prod([len(s) + 1 for s in seqs])
    assert aln.meta["pruning"]["move_store_bytes"] < 0.01 * cube_bytes
    assert dna_scheme.sp_score(aln.rows) == aln.score
