"""Reusable buffer workspace for the wavefront plane kernel.

:func:`repro.core.wavefront.compute_plane_rows` is the hot inner loop of
every engine in this repo. Its original form allocated ~10 fresh arrays
per plane — index grids, validity masks, three substitution gathers and a
7-candidate stack that is seven times the plane's memory — and the
Hirschberg divide-and-conquer additionally re-allocated all four plane
buffers at every recursion node. For the repeated-small-plane workloads
that dominate Hirschberg (and the pool's batched jobs), that allocation
traffic — and the fixed Python-level cost of the ~40 NumPy calls per
plane — rivals the arithmetic itself.

:class:`PlaneWorkspace` removes both. One workspace owns, grow-only:

* the four padded rotating **plane buffers** (``(n1+2, n2+2)`` each),
* 2-D **kernel scratch** — the ``k`` lattice, validity masks, gather
  targets and the running-max buffers,
* **per-sweep tables** built once per (profile-matrices, dims) binding
  and reused by every plane of the sweep: clip-padded substitution
  tables (``tab_ab``/``tab_ac``/``tab_bc``, so the AB term becomes a
  plain view and the AC/BC terms one fused flat ``take``), the
  ``i + j`` grid (``K`` in a single subtract) and flat-offset rows for
  the table gather.

Buffers are sized to the largest shape seen so far and sliced down to
views per sweep, so *changing cube shapes can safely share one
workspace*: every consumed region is (re)initialised by the sweep or the
profile binding that uses it, which the workspace-reuse property tests
(``tests/test_workspace.py``) verify bit-for-bit against fresh runs.

Concurrency contract
--------------------
A workspace is **not** thread-safe and must not be shared by two
concurrently-running kernel invocations. Each parallel worker (thread or
process) owns its own workspace; the engines in :mod:`repro.parallel`
follow this rule. Sharing one workspace across *sequential* sweeps —
Hirschberg recursion, the persistent pool's job loop — is the point.

The profile binding caches by **object identity** (the workspace keeps
references, so ids cannot be recycled). Mutating a profile matrix in
place between planes of one sweep is therefore not supported — no engine
does this.
"""

from __future__ import annotations

import numpy as np

from repro.core.dp3d import NEG


class PlaneWorkspace:
    """Grow-only preallocated buffers for wavefront sweeps.

    Parameters
    ----------
    capacity:
        Initial ``(n1, n2, n3)`` sequence-length capacity. Sweeps beyond
        it grow the buffers (amortised: capacity never shrinks), so
        ``PlaneWorkspace()`` is a valid lazy starting point and
        ``PlaneWorkspace(pool_capacity)`` pre-sizes everything once.

    Attributes
    ----------
    grows:
        Number of times the buffers were (re)allocated after
        construction — 0 in steady state, which is what the perf
        benchmark (``benchmarks/bench_kernel.py``) exploits.
    """

    def __init__(self, capacity: tuple[int, int, int] = (0, 0, 0)):
        c1, c2, c3 = (int(c) for c in capacity)
        if min(c1, c2, c3) < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._c1 = self._c2 = self._c3 = -1
        self.grows = -1  # the constructor's reserve() is not a "grow"
        self._planes: list[np.ndarray] | None = None
        self.reserve(c1, c2, c3)

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------

    def reserve(self, n1: int, n2: int, n3: int) -> "PlaneWorkspace":
        """Ensure every buffer can serve a ``(n1, n2, n3)`` sweep.

        A no-op (three comparisons) when the workspace is already big
        enough — the kernel calls this on every plane.
        """
        if n1 <= self._c1 and n2 <= self._c2 and n3 <= self._c3:
            return self
        self._c1 = max(self._c1, int(n1))
        self._c2 = max(self._c2, int(n2))
        self._c3 = max(self._c3, int(n3))
        self.grows += 1
        c1, c2, c3 = self._c1, self._c2, self._c3
        self.rows = np.arange(c1 + 1)
        self.cols = np.arange(c2 + 1)
        # 2-D kernel scratch, sliced to the plane bounding box per call.
        shape = (c1 + 1, c2 + 1)
        self.k = np.empty(shape, dtype=np.intp)
        self.kc = np.empty(shape, dtype=np.intp)
        self.valid = np.empty(shape, dtype=bool)
        self.tmp = np.empty(shape, dtype=bool)
        self.face = np.empty(shape, dtype=bool)  # semiglobal restart faces
        self.cand = np.empty(shape)
        self.moves = np.empty(shape, dtype=np.int8)
        # Fused-gather scratch: AC/BC indices and values live stacked in
        # one flat buffer each, so both substitution terms come out of a
        # single ``take`` per plane (box_views reshapes them (2, h, w)).
        self._idx2_flat = np.empty(2 * (c1 + 1) * (c2 + 1), dtype=np.intp)
        self._gacbc_flat = np.empty(2 * (c1 + 1) * (c2 + 1))
        # Per-sweep tables, filled by bind_profiles(). tab_ac and tab_bc
        # are carved out of one flat allocation (the fused gather's
        # source), with tab_bc's rows offset past tab_ac.
        self.d0 = np.empty(shape, dtype=np.intp)  # i + j
        self.tab_ab = np.empty(shape)
        ac_len = (c1 + 1) * (c3 + 1)
        self._tab_acbc_flat = np.empty(ac_len + (c2 + 1) * (c3 + 1))
        self.tab_ac = self._tab_acbc_flat[:ac_len].reshape(c1 + 1, c3 + 1)
        self.tab_bc = self._tab_acbc_flat[ac_len:].reshape(c2 + 1, c3 + 1)
        # Flat row/col offsets into the concatenated table; rows
        # pre-shaped (c1+1, 1) so a plain slice broadcasts.
        self.rows_tac = (self.rows * (c3 + 1)).reshape(-1, 1)
        self.cols_tbc = self.cols * (c3 + 1) + ac_len
        # Box-view cache (see box_views); a grow moves every buffer.
        self._views: dict[tuple[int, int, int, int], tuple] = {}
        # A grow moves the tables, so any existing binding is stale.
        self._psab: np.ndarray | None = None
        self._psac: np.ndarray | None = None
        self._psbc: np.ndarray | None = None
        self._pdims: tuple[int, int, int] | None = None
        # Plane buffers are lazy; a grow invalidates any existing (now
        # too small) ones.
        self._planes = None
        return self

    @property
    def capacity(self) -> tuple[int, int, int]:
        """Current ``(n1, n2, n3)`` sequence-length capacity."""
        return (self._c1, self._c2, self._c3)

    def box_views(
        self, row_lo: int, row_hi: int, jlo: int, jhi: int
    ) -> tuple:
        """The kernel's view bundle for one plane bounding box.

        Slicing ~12 views per plane costs real time at small plane
        sizes, and sweeps revisit the same boxes (one per ``d``, and
        identically across repeated same-shape sweeps), so the tuples
        are memoised. Views stay valid across
        :meth:`bind_profiles` (tables are refilled in place); a grow
        reallocates every buffer and clears the cache.

        Returns ``(k, kc, valid, tmp, fi2, gv2, cand, moves, d0, gab,
        rows_tac, cols_tbc)`` — scratch sliced at the origin to the
        box shape, tables sliced at the box's absolute position. ``fi2``
        and ``gv2`` are the C-contiguous ``(2, h, w)`` index/value pair
        of the fused AC/BC gather (``gv2[0]`` is AC, ``gv2[1]`` BC).
        """
        key = (row_lo, row_hi, jlo, jhi)
        v = self._views.get(key)
        if v is None:
            h = row_hi - row_lo + 1
            w = jhi - jlo + 1
            rs = slice(row_lo, row_hi + 1)
            cs = slice(jlo, jhi + 1)
            v = (
                self.k[:h, :w],
                self.kc[:h, :w],
                self.valid[:h, :w],
                self.tmp[:h, :w],
                self._idx2_flat[: 2 * h * w].reshape(2, h, w),
                self._gacbc_flat[: 2 * h * w].reshape(2, h, w),
                self.cand[:h, :w],
                self.moves[:h, :w],
                self.d0[rs, cs],
                self.tab_ab[rs, cs],
                self.rows_tac[rs],
                self.cols_tbc[cs],
            )
            self._views[key] = v
        return v

    # ------------------------------------------------------------------
    # Per-sweep profile binding
    # ------------------------------------------------------------------

    def bound_to(
        self,
        sab: np.ndarray,
        sac: np.ndarray,
        sbc: np.ndarray,
        dims: tuple[int, int, int],
    ) -> bool:
        """True when the sweep tables are already built for exactly
        these profile matrices (by identity) and dims."""
        return (
            self._psab is sab
            and self._psac is sac
            and self._psbc is sbc
            and self._pdims == dims
        )

    def bind_profiles(
        self,
        sab: np.ndarray,
        sac: np.ndarray,
        sbc: np.ndarray,
        dims: tuple[int, int, int],
    ) -> None:
        """Build the per-sweep tables for one (profiles, dims) sweep.

        Called lazily by the kernel on the first plane of a sweep; every
        later plane hits the identity check in :meth:`bound_to` and pays
        nothing. The tables are the *clip-padded* substitution matrices
        (first row/column duplicated, exactly ``clip(i-1, 0, n-1)``
        indexing), so per plane the AB term is a plain table view and
        the AC/BC terms come out of one fused flat ``take`` over the
        concatenated table — the index clamps, multiplies and fancy
        gathers all happen once here instead of once per plane.
        """
        n1, n2, n3 = dims
        self.reserve(n1, n2, n3)
        # i + j grid: per plane, K = d - d0 in one subtract.
        np.add(
            self.rows[: n1 + 1, None],
            self.cols[None, : n2 + 1],
            out=self.d0[: n1 + 1, : n2 + 1],
        )
        # Clip-padded substitution tables. Where a sequence is empty the
        # old kernel substituted zeros; padding whole-table zeros keeps
        # that bit-identical.
        tab = self.tab_ab[: n1 + 1, : n2 + 1]
        if n1 and n2:
            tab[1:, 1:] = sab
            tab[0, 1:] = sab[0]
            tab[1:, 0] = sab[:, 0]
            tab[0, 0] = sab[0, 0]
        else:
            tab.fill(0.0)
        tac = self.tab_ac[: n1 + 1, : n3 + 1]
        if n1 and n3:
            tac[1:, 1:] = sac
            tac[0, 1:] = sac[0]
            tac[1:, 0] = sac[:, 0]
            tac[0, 0] = sac[0, 0]
        else:
            tac.fill(0.0)
        tbc = self.tab_bc[: n2 + 1, : n3 + 1]
        if n2 and n3:
            tbc[1:, 1:] = sbc
            tbc[0, 1:] = sbc[0]
            tbc[1:, 0] = sbc[:, 0]
            tbc[0, 0] = sbc[0, 0]
        else:
            tbc.fill(0.0)
        self._psab, self._psac, self._psbc = sab, sac, sbc
        self._pdims = dims

    # ------------------------------------------------------------------
    # Plane buffers (wavefront engine)
    # ------------------------------------------------------------------

    def planes_for(self, n1: int, n2: int) -> list[np.ndarray]:
        """The four rotating padded plane buffers for an ``(n1, n2)``
        sweep, as NEG-filled ``(n1+2, n2+2)`` views.

        Filling happens here (the sweep's O(plane) initialisation, same
        as the old ``np.full`` allocation) — what is saved is the
        allocation itself.
        """
        self.reserve(n1, n2, 0)
        if self._planes is None:
            self._planes = [
                np.empty((self._c1 + 2, self._c2 + 2)) for _ in range(4)
            ]
        views = [p[: n1 + 2, : n2 + 2] for p in self._planes]
        for v in views:
            v.fill(NEG)
        return views
