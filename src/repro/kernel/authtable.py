"""Fragment-owner cycles for the turbo tick, keyed to the owner tuples.

Directory authority needs no table here: the turbo tick reads
:meth:`~repro.namespace.subtree.AuthorityMap.resolve_dir`, the one
resolver, once per client per tick, and its memo survives every
fragment change. What the tick does need per fragmented directory is the
owner of every fragment in ``frag_no`` order, which create streams walk
cyclically: that is the map's own owners tuple from
:meth:`~repro.namespace.subtree.AuthorityMap.frag_state`. Its derived
:class:`OwnerCycle` (run-length segments and per-owner fragment
counts) is rebuilt only when the map's version counter moves
(migration commits, splits, pins, merges), and then only for directories
whose owners tuple is a different object.

The segments serve the turbo tick's stepped race rounds, where a turn
walks a quantum of the cycle and may stop anywhere. The per-owner counts
serve its skip-ahead, which knows that a client walks a window of ``w``
cycle positions without blocking: an owner's share of that window is
``w // P`` whole cycles times its count, plus its positions in the last
``w % P``, a walk over at most one cycle's segments. The counts add
``O(owners)`` entries per directory to the segments' ``O(P)``.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.namespace.subtree import AuthorityMap

__all__ = ["AuthTable", "OwnerCycle", "owner_cycle"]


class OwnerCycle(NamedTuple):
    """One fragmented directory's owner-per-fragment cycle, derived.

    ``starts``, ``lens`` and ``owners`` are parallel lists, one entry per
    maximal same-owner segment of the ``size`` fragments. ``counts``
    holds each owner with the number of fragments it owns, ``((rank,
    count), ...)`` in ascending rank; a single entry means one owner
    holds every fragment.
    """

    size: int
    starts: list[int]
    lens: list[int]
    owners: list[int]
    counts: tuple[tuple[int, int], ...]


def owner_cycle(seq: tuple[int, ...]) -> OwnerCycle:
    """The segments and per-owner counts of an owners tuple."""
    starts: list[int] = [0]
    lens: list[int] = []
    owners: list[int] = [seq[0]]
    run = 1
    for fn in range(1, len(seq)):
        if seq[fn] == owners[-1]:
            run += 1
        else:
            lens.append(run)
            starts.append(fn)
            owners.append(seq[fn])
            run = 1
    lens.append(run)
    counts: dict[int, int] = {}
    for m, n in zip(owners, lens):
        counts[m] = counts.get(m, 0) + n
    return OwnerCycle(len(seq), starts, lens, owners, tuple(sorted(counts.items())))


class AuthTable:
    """Per-fragmented-dir owner cycles, keyed to the owners tuples."""

    def __init__(self, authmap: AuthorityMap) -> None:
        self.authmap = authmap
        self._version = -1
        #: dir -> the map's owners tuple itself, which the turbo tick walks
        #: cyclically (create streams visit frag_no ``(n_files + i) &
        #: mask``); the cycle is stale when the map holds another tuple
        self.frag_seq: dict[int, tuple[int, ...]] = {}
        #: dir -> :class:`OwnerCycle` of :attr:`frag_seq`. Exported
        #: fragments cluster, so a stepped race round walks a few
        #: same-owner segments per quantum slice instead of every op.
        self.frag_cycle: dict[int, OwnerCycle] = {}

    def refresh(self) -> None:
        """Bring the fragment cycles up to the map's current version."""
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
                continue  # the same tuple: the cycle still holds
            frag_seq[d] = seq
            self.frag_cycle[d] = owner_cycle(seq)
        if len(live) != len(frag_seq):
            for d in [x for x in frag_seq if x not in live]:
                del frag_seq[d], self.frag_cycle[d]
        self._version = authmap.version
