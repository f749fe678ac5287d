"""Fragment-owner cycles for the turbo tick, keyed to the map version.

Directory authority needs no table here: the turbo tick reads
:meth:`~repro.namespace.subtree.AuthorityMap.resolve_dir`, the one
resolver, once per client per tick, and its memo survives every
fragment change. What the tick does need per fragmented directory is the
owner of every fragment in ``frag_no`` order, which create streams walk
cyclically. Those tables are rebuilt only when the authority map's
version counter moves (migration commits, splits, pins, merges), and
then only for directories whose owners or base authority changed.
"""

from __future__ import annotations

from repro.namespace.subtree import AuthorityMap

__all__ = ["AuthTable"]


class AuthTable:
    """Per-fragmented-dir owner cycles, keyed to the map version."""

    def __init__(self, authmap: AuthorityMap) -> None:
        self.authmap = authmap
        self._version = -1
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

    def refresh(self) -> None:
        """Bring the fragment tables up to the map's current version."""
        authmap = self.authmap
        if authmap.version == self._version:
            return
        frag_src = self._frag_src
        seen: set[int] = set()
        for d in authmap.fragmented_dirs():
            seen.add(d)
            frag = authmap.frag_owners(d)
            assert frag is not None
            bits, owners = frag
            base = authmap.resolve_dir(d)[0]
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
