"""Fragment-owner cycles for the turbo tick, keyed to the owner tuples.

Directory authority needs no table here: the turbo tick reads
:meth:`~repro.namespace.subtree.AuthorityMap.resolve_dir`, the one
resolver, once per client per tick, and its memo survives every
fragment change. What the tick does need per fragmented directory is the
owner of every fragment in ``frag_no`` order, which create streams walk
cyclically: that is the map's own owners tuple from
:meth:`~repro.namespace.subtree.AuthorityMap.frag_state`. The derived
tables (run-length segments, the uniform owner) are rebuilt only when the
map's version counter moves (migration commits, splits, pins, merges),
and then only for directories whose owners tuple is a different object.
"""

from __future__ import annotations

from repro.namespace.subtree import AuthorityMap

__all__ = ["AuthTable"]


class AuthTable:
    """Per-fragmented-dir owner cycles, keyed to the owners tuples."""

    def __init__(self, authmap: AuthorityMap) -> None:
        self.authmap = authmap
        self._version = -1
        #: fragmented dir -> the owner every frag shares, or None when the
        #: frags are split between owners
        self.frag_uniform: dict[int, int | None] = {}
        #: dir -> the map's owners tuple itself, which the turbo tick walks
        #: cyclically (create streams visit frag_no ``(n_files + i) &
        #: mask``); the tables are stale when the map holds another tuple
        self.frag_seq: dict[int, tuple[int, ...]] = {}
        #: dir -> run-length encoding of :attr:`frag_seq`:
        #: ``(starts, lens, owners)`` parallel lists over the cycle.
        #: Exported fragments cluster, so capacity emulation walks a few
        #: same-owner segments per quantum slice instead of every op.
        self.frag_rle: dict[int, tuple[list[int], list[int], list[int]]] = {}

    def refresh(self) -> None:
        """Bring the fragment tables up to the map's current version."""
        authmap = self.authmap
        if authmap.version == self._version:
            return
        frag_seq = self.frag_seq
        live = authmap.fragmented_dirs()
        for d in live:
            state = authmap.frag_state(d)
            assert state is not None
            seq = state[1]
            if frag_seq.get(d) is seq:
                continue  # the same tuple: the tables still hold
            frag_seq[d] = seq
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
        if len(live) != len(frag_seq):
            for d in [x for x in frag_seq if x not in live]:
                del frag_seq[d], self.frag_rle[d], self.frag_uniform[d]
        self._version = authmap.version
