"""Seeded inputs for the three workloads, and the workload property report.

Every generator takes the run's ``--seed`` and is deterministic in it. The
class mix of each workload is fixed (how many triples of each size,
identity, alphabet, mode and scheme); the seed draws their contents. That
keeps the cost of a run comparable across seeds while the program still
sees new sequences every time.

An item is a plain dict::

    {"seqs": [a, b, c], "mode": "global", "method": "auto",
     "scheme": "default" | "affine", "alphabet": "dna" | "protein",
     "tag": "<class label>"}
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

#: Affine gap penalties layered on the alphabet's default substitution
#: matrix for the ``affine`` share of ``batch_mixed``.
AFFINE_GAP = -2.0
AFFINE_GAP_OPEN = -8.0

#: ``serve_small`` traffic shape. A POST's class is set by its position in
#: a repeating cycle, so the first N POSTs hold the same count of each
#: class for every seed; the seed draws only their contents.
SERVE_MIN_LEN, SERVE_MAX_LEN = 16, 38  # (38 + 1) ** 3 <= 62_500 cells
SERVE_CYCLE = 40
SERVE_HOT_SET = 8
#: Cycle positions of order permutations of earlier triples (2 of 40).
SERVE_PERM_SLOTS = (20, 35)
SERVE_CHUNK = 8  # triples per chunk POST
#: Chunk lengths, one per chunk in turn. Like the single chunk slot at
#: cycle position 0 (an even position, so connection 0 sends every
#: chunk, as one pipeline client would, and two chunks never queue
#: together), this is an assumption chosen to keep p99 steady, not the
#: shape of a named caller: the tail is set by chunks of similar cost.
SERVE_CHUNK_LENGTHS = tuple(range(30, SERVE_MAX_LEN + 1))

# Mutation models (substitution, insertion = deletion) per identity class.
LOW = (0.30, 0.05)
MEDIUM = (0.06, 0.01)
HIGH = (0.005, 0.001)
PROTEIN_MEDIUM = (0.04, 0.01)
PROTEIN_LOW = (0.35, 0.05)
ANCHOR_FRIENDLY = (0.02, 0.005)


def _family(rng, n, model, protein=False):
    from repro.seqio.alphabet import DNA, PROTEIN
    from repro.seqio.generate import MutationModel, mutated_family

    sub, indel = model
    return list(
        mutated_family(
            int(n),
            model=MutationModel(sub, indel, indel),
            alphabet=PROTEIN if protein else DNA,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
    )


def _item(seqs, tag, *, protein=False, mode="global", method="auto",
          scheme="default"):
    return {
        "seqs": list(seqs),
        "mode": mode,
        "method": method,
        "scheme": scheme,
        "alphabet": "protein" if protein else "dna",
        "tag": tag,
    }


def _permuted(item, rng):
    orders = [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    order = orders[int(rng.integers(len(orders)))]
    out = dict(item)
    out["seqs"] = [item["seqs"][o] for o in order]
    return out


# ---------------------------------------------------------------------------
# serve_small
# ---------------------------------------------------------------------------


def _clip(seqs, rng, protein):
    letters = "ARNDCQEGHILKMFPSTWYV" if protein else "ACGT"
    out = []
    for s in seqs:
        s = s[:SERVE_MAX_LEN]
        while len(s) < SERVE_MIN_LEN:
            s += letters[int(rng.integers(len(letters)))]
        out.append(s)
    return out


def _serve_slot(pos: int) -> str:
    """The class of POST ``pos``: one chunk, two permutations and 13 hot
    repeats (about a third) per 40 POSTs; the rest are unique."""
    r = pos % SERVE_CYCLE
    if r == 0:
        return "chunk"
    if r in SERVE_PERM_SLOTS:
        return "permutation"
    return "hot" if r % 3 == 1 else "unique"


def serve_small(seed: int, n_posts: int) -> list[list[dict]]:
    """``n_posts`` POST bodies, each a list of one or more triples.
    Connection ``c`` of two sends positions ``c, c + 2, ...``. About a
    fifth of the triples are protein, chosen by position."""
    rng = np.random.default_rng([seed, 1])

    def single(protein):
        n = int(rng.integers(SERVE_MIN_LEN + 2, SERVE_MAX_LEN - 3))
        seqs = _clip(_family(rng, n, (0.12, 0.02), protein), rng, protein)
        return _item(seqs, "unique", protein=protein)

    hot = [dict(single(k % 5 == 4), tag="hot") for k in range(SERVE_HOT_SET)]
    history: list[dict] = []
    posts: list[list[dict]] = []
    for pos in range(n_posts):
        slot = _serve_slot(pos)
        if slot == "chunk":
            # Substitution-only families: every triple in the chunk has
            # the same n x n x n cube.
            k = pos // SERVE_CYCLE
            n = SERVE_CHUNK_LENGTHS[k % len(SERVE_CHUNK_LENGTHS)]
            protein = k % 5 == 4
            chunk = [
                _item(_family(rng, n, (0.15, 0.0), protein), "chunk",
                      protein=protein)
                for _ in range(SERVE_CHUNK)
            ]
            posts.append(chunk)
            history.extend(chunk)
            continue
        if slot == "hot":
            item = hot[int(rng.integers(SERVE_HOT_SET))]
        elif slot == "permutation":
            item = dict(_permuted(history[int(rng.integers(len(history)))],
                                  rng), tag="permutation")
        else:
            item = single(pos % 5 == 2)
        posts.append([item])
        history.append(item)
    return posts


# ---------------------------------------------------------------------------
# batch_mixed
# ---------------------------------------------------------------------------


def batch_mixed(seed: int) -> list[dict]:
    """One ``repro batch`` input file: 110 requests."""
    rng = np.random.default_rng([seed, 2])
    base: list[dict] = []
    # Low-identity DNA across the pool/serial crossover (n ~ 90); cubes
    # up to the pool's 2M-cell ceiling go to the pool, larger ones direct.
    for n in np.linspace(50, 130, 36).round():
        base.append(_item(_family(rng, n, LOW), "dna-low"))
    # High-identity DNA: near-identical -> banded, similar -> pruned.
    for n in np.linspace(120, 190, 6).round():
        base.append(_item(_family(rng, n, HIGH), "dna-high"))
    for n in np.linspace(120, 190, 6).round():
        base.append(_item(_family(rng, n, MEDIUM), "dna-medium"))
    # Protein under BLOSUM62, similar and diverged.
    for i, n in enumerate(np.linspace(60, 110, 10).round()):
        model = PROTEIN_MEDIUM if i % 2 else PROTEIN_LOW
        base.append(_item(_family(rng, n, model, True), "protein",
                          protein=True))
    for mode in ("local", "semiglobal"):
        for n in np.linspace(60, 100, 8).round():
            base.append(_item(_family(rng, n, MEDIUM), f"dna-{mode}",
                              mode=mode))
    for n in np.linspace(50, 90, 8).round():
        base.append(_item(_family(rng, n, MEDIUM), "dna-affine",
                          scheme="affine"))
    order = rng.permutation(len(base))
    items = [base[i] for i in order]
    # Exact duplicates and order permutations of earlier requests.
    for tag, count in (("duplicate", 16), ("permutation", 12)):
        for _ in range(count):
            pos = int(rng.integers(1, len(items) + 1))
            src = items[int(rng.integers(pos))]
            rep = dict(src) if tag == "duplicate" else _permuted(src, rng)
            items.insert(pos, dict(rep, tag=tag))
    return items


# ---------------------------------------------------------------------------
# long_single
# ---------------------------------------------------------------------------

#: (tag, ancestor length, model, protein, method) per call of one pass.
LONG_STRATA = (
    ("dna-low", 165, LOW, False, "auto"),
    ("dna-low", 185, LOW, False, "auto"),
    ("dna-medium", 170, MEDIUM, False, "auto"),
    ("dna-medium", 190, MEDIUM, False, "auto"),
    ("dna-medium", 215, MEDIUM, False, "auto"),
    ("dna-high", 180, HIGH, False, "auto"),
    ("dna-high", 245, HIGH, False, "auto"),
    ("protein-medium", 175, PROTEIN_MEDIUM, True, "auto"),
    ("anchored", 2000, ANCHOR_FRIENDLY, False, "anchored"),
    ("anchored", 2000, ANCHOR_FRIENDLY, False, "anchored"),
)

def _cannot_finish(seqs) -> bool:
    """Whether an anchored call on ``seqs`` could not finish within a run,
    by the program's own limits: discovery's coverage gate
    (``DEFAULT_MIN_COVERAGE``) fails and the call falls back to an
    unanchored sweep of the whole ~8e9-cell cube, or a sub-cube between
    anchors exceeds ``AUTO_HIRSCHBERG_CELLS``, the largest cube ``auto``
    sweeps in memory."""
    from repro.anchor.chain import max_subcube_dims
    from repro.anchor.discover import discover_anchors
    from repro.core.api import AUTO_HIRSCHBERG_CELLS

    chain, _info = discover_anchors(*seqs)
    if not chain:
        return True
    d = max_subcube_dims(chain, tuple(len(s) for s in seqs))
    return (d[0] + 1) * (d[1] + 1) * (d[2] + 1) > AUTO_HIRSCHBERG_CELLS


def long_single(seed: int) -> list[dict]:
    """One pass of sequential ``align3`` calls. An anchored draw that
    could not finish is redrawn from the same seed stream; each anchored
    item records how many draws were dropped in ``redrawn``."""
    rng = np.random.default_rng([seed, 3])
    items = []
    for tag, n, model, protein, method in LONG_STRATA:
        seqs = _family(rng, n, model, protein)
        item = _item(seqs, tag, protein=protein, method=method)
        if method == "anchored":
            item["redrawn"] = 0
            while _cannot_finish(item["seqs"]):
                item["redrawn"] += 1
                if item["redrawn"] > 20:
                    raise RuntimeError("no finishable anchored draw in 20")
                item["seqs"] = _family(rng, n, model, protein)
        items.append(item)
    order = rng.permutation(len(items))
    return [items[i] for i in order]


# ---------------------------------------------------------------------------
# Schemes and the property report
# ---------------------------------------------------------------------------


def scheme_for(item):
    """The :class:`ScoringScheme` an item is scored under: the program's
    default for the guessed alphabet, with affine gaps when asked."""
    from repro.core.api import resolve_scheme

    scheme = resolve_scheme(item["seqs"])
    if item["scheme"] == "affine":
        scheme = scheme.with_gaps(gap=AFFINE_GAP, gap_open=AFFINE_GAP_OPEN)
    return scheme


def resolved_engine(item) -> str:
    """The engine the program's selector picks for an item."""
    from repro.core.api import select_method

    if item["method"] == "anchored":
        return "anchored"
    if item["mode"] != "global":
        return item["mode"]
    scheme = scheme_for(item)
    if scheme.is_affine:
        return "affine"
    return select_method(*item["seqs"], scheme)[0]


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _shares(values) -> dict[str, float]:
    out: dict[str, float] = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return {k: round(c / len(values), 4) for k, c in sorted(out.items())}


def properties(items: list[dict], posts: list[list[dict]] | None = None):
    """Input properties the system's behaviour depends on."""
    from repro.core.api import AUTO_HIRSCHBERG_CELLS

    exact, perm = set(), set()
    n_exact = n_perm = 0
    big = 0
    for it in items:
        key = (tuple(it["seqs"]), it["mode"], it["scheme"], it["method"])
        pkey = (tuple(sorted(it["seqs"])),) + key[1:]
        if key in exact:
            n_exact += 1
        elif pkey in perm:
            n_perm += 1
        exact.add(key)
        perm.add(pkey)
        n1, n2, n3 = (len(s) for s in it["seqs"])
        if (n1 + 1) * (n2 + 1) * (n3 + 1) > AUTO_HIRSCHBERG_CELLS:
            big += 1
    engines: dict[tuple, str] = {}
    for it in items:
        key = (tuple(it["seqs"]), it["mode"], it["scheme"], it["method"])
        if key not in engines:
            engines[key] = resolved_engine(it)
    report = {
        "digest": digest(posts if posts is not None else items),
        "triples": len(items),
        "repeat_exact_share": round(n_exact / len(items), 4),
        "repeat_permutation_share": round(n_perm / len(items), 4),
        "alphabet_shares": _shares([it["alphabet"] for it in items]),
        "mode_shares": _shares([it["mode"] for it in items]),
        "scheme_shares": _shares([it["scheme"] for it in items]),
        "engine_shares": _shares([
            engines[(tuple(it["seqs"]), it["mode"], it["scheme"],
                     it["method"])]
            for it in items
        ]),
        "cubes_over_auto_hirschberg_share": round(big / len(items), 4),
    }
    if any("redrawn" in it for it in items):
        report["anchored_redraws"] = sum(it.get("redrawn", 0) for it in items)
    if posts is not None:
        shared = 0
        for post in posts:
            shapes = [tuple(len(s) for s in it["seqs"]) for it in post]
            shared += sum(1 for s in shapes if shapes.count(s) > 1)
        report["posts"] = len(posts)
        report["same_post_shape_share"] = round(shared / len(items), 4)
    return report
