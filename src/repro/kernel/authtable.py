"""Vectorized authority resolution: dir → auth MDS as a flat array.

:class:`~repro.namespace.subtree.AuthorityMap.resolve_dir` walks ancestor
chains per request with a per-version dict cache. The columnar engine's
turbo tick instead resolves against a dense array rebuilt only when the
authority map's version counter moves (migration commits, splits, pins,
merges) — during a serve phase authority is constant by construction
(the migrator and the balancer both run outside the serve tick), so one
rebuild amortizes over every op of every tick until the next authority
event. Fragmented directories get their owner-per-fragment cycle, which
create streams walk in order.

The rebuild is a parent-pointer propagation: seed the array with the
subtree roots' ranks, then repeatedly pull each unresolved directory's
value from its parent. Directory ids are assigned child-after-parent, so
the loop terminates in at most tree-depth iterations, all vectorized.
"""

from __future__ import annotations

import numpy as np

from repro.namespace.subtree import AuthorityMap

__all__ = ["AuthTable"]


class AuthTable:
    """Dense dir→auth list + fragment cycles, keyed to the map version."""

    def __init__(self, authmap: AuthorityMap) -> None:
        self.authmap = authmap
        self._version = -1
        self._n_dirs = -1
        self._parent: np.ndarray | None = None
        #: dir -> auth MDS as a plain list — Python list indexing is what
        #: the engine's per-client scalar lookups actually pay for
        self.auth: list[int] = []
        #: fragmented dir -> the owner every frag shares, or None when the
        #: frags are split between owners
        self.frag_uniform: dict[int, int | None] = {}
        #: dir -> dense owner-per-frag_no list (``len == 2**bits``, holes
        #: filled with the dir authority). The turbo tick walks this
        #: cyclically — create streams visit frag_no ``(n_files + i)
        #: & mask`` — instead of two dict gets per op.
        self.frag_seq: dict[int, list[int]] = {}
        #: dir -> run-length encoding of :attr:`frag_seq`:
        #: ``(starts, lens, owners)`` parallel lists over the cycle.
        #: Exported fragments cluster, so capacity emulation walks a few
        #: same-owner segments per quantum slice instead of every op.
        self.frag_rle: dict[int, tuple[list[int], list[int], list[int]]] = {}
        #: dir -> (bits, owners snapshot, base) the tables were built from
        self._frag_src: dict[int, tuple[int, dict[int, int], int]] = {}
        #: the subtree roots the auth list was propagated from
        self._roots: dict[int, int] = {}

    def refresh(self) -> list[int]:
        """Return the dir→auth list, rebuilding if authority changed."""
        authmap = self.authmap
        tree = authmap.tree
        n = tree.n_dirs
        if authmap.version == self._version and n == self._n_dirs:
            return self.auth
        if self._parent is None or self._n_dirs != n:
            parent = np.asarray(tree.parent, dtype=np.int64)
            parent[0] = 0  # the root is its own fixpoint
            self._parent = parent
        roots = authmap.subtree_roots()
        if n != self._n_dirs or roots != self._roots:
            auth = np.full(n, -1, dtype=np.int64)
            for d, mds in roots.items():
                auth[d] = mds
            unresolved = auth < 0
            while bool(unresolved.any()):
                auth[unresolved] = auth[self._parent[unresolved]]
                unresolved = auth < 0
            self.auth = auth.tolist()
            self._roots = dict(roots)
        auth_l = self.auth
        frag_src = self._frag_src
        seen: set[int] = set()
        for d in authmap.fragmented_dirs():
            seen.add(d)
            frag = authmap.frag_owners(d)
            assert frag is not None
            bits, owners = frag
            base = auth_l[d]
            prev = frag_src.get(d)
            if (prev is not None and prev[0] == bits and prev[2] == base
                    and prev[1] == owners):
                continue  # ownership content unchanged: keep the tables
            frag_src[d] = (bits, dict(owners), base)
            seq = [owners.get(fn, base) for fn in range(1 << bits)]
            self.frag_seq[d] = seq
            starts: list[int] = [0]
            lens: list[int] = []
            rle_owners: list[int] = [seq[0]]
            run = 1
            for fn in range(1, len(seq)):
                if seq[fn] == rle_owners[-1]:
                    run += 1
                else:
                    lens.append(run)
                    starts.append(fn)
                    rle_owners.append(seq[fn])
                    run = 1
            lens.append(run)
            self.frag_rle[d] = (starts, lens, rle_owners)
            self.frag_uniform[d] = rle_owners[0] if len(rle_owners) == 1 else None
        if len(seen) != len(self.frag_uniform):
            for d in [x for x in self.frag_uniform if x not in seen]:
                del self.frag_uniform[d], self.frag_seq[d]
                del self.frag_rle[d], frag_src[d]
        self._version = authmap.version
        self._n_dirs = n
        return self.auth
