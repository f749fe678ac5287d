"""The typed, immutable cluster snapshot every policy plans from.

This is the repository's version of the paper's N-to-1 message passing
(§3.1): once per epoch the simulator assembles a :class:`ClusterView` —
per-rank loads, capacities, failure flags and histories, pending
import/export loads, the heat and migration-index arrays, and the
subtree-authority state — and hands it to the balancer. The balancer
returns a declarative :class:`~repro.core.plan.EpochPlan`; it never sees
the simulator itself (enforced by an architecture test: nothing under
``balancers/`` or ``core/`` imports ``repro.cluster.simulator``).

The view is built from duck-typed components (``mdss``, ``stats``,
``authmap``, ``migrator``) so this module has no dependency on the
simulator either.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.namespace.subtree import AuthorityMap, FragState
from repro.obs.events import NO_DECISION, DecisionIds

if TYPE_CHECKING:
    from repro.core.plan import EpochPlan

__all__ = ["RankView", "ClusterView", "build_cluster_view"]


@dataclass(frozen=True)
class RankView:
    """One MDS as the load monitors report it (paper's ImbalanceState)."""

    rank: int
    #: most recent completed epoch's IOPS
    load: float
    #: max metadata ops per tick (the paper's per-MDS capacity C)
    capacity: float
    failed: bool
    #: per-epoch IOPS history, most recent last
    history: tuple[float, ...]
    #: load already queued/in flight away from this rank
    pending_out: float
    #: load already queued/in flight toward this rank
    pending_in: float
    #: export tasks queued or active on this rank
    queue_depth: int


@dataclass(frozen=True)
class ClusterView:
    """Immutable per-epoch snapshot of everything a policy may read."""

    epoch: int
    ranks: tuple[RankView, ...]
    #: the homogeneous per-MDS capacity C from the config (per-rank values,
    #: which may differ in heterogeneous clusters, live on the RankViews)
    default_capacity: float
    tree: object
    #: subtree-root -> rank snapshot (detached copy, insertion-ordered)
    subtree_auth: dict[int, int]
    #: dir -> (bits, owners) for fragmented directories, ``owners[f]`` the
    #: rank of frag ``f`` (a detached dict; the owner tuples are shared with
    #: the live map, which replaces them on change and never edits them)
    frags: dict[int, FragState]
    #: decayed per-directory popularity (heat) at the epoch boundary
    heat: np.ndarray
    #: access-stats handle for lazily derived arrays (mindex); read-only by
    #: convention — stats do not change between snapshot and planning
    stats: object | None = None
    #: the simulator's metrics registry (a sink; optional)
    metrics: object | None = None
    #: run-wide decision-id allocator, threaded into plans built from this
    #: view so policy events share the trace log's id sequence
    decision_ids: DecisionIds | None = None
    #: the ``did`` of the simulator's reporting ``if_computed`` event for
    #: this epoch — policies parent their role decisions under it
    if_decision_id: int = NO_DECISION
    _lazy: dict = field(default_factory=dict, repr=False, compare=False)

    # --------------------------------------------------------------- per-rank
    @property
    def n_mds(self) -> int:
        return len(self.ranks)

    def loads(self) -> list[float]:
        """Most recent epoch IOPS per MDS."""
        return [r.load for r in self.ranks]

    def capacities(self) -> list[float]:
        return [r.capacity for r in self.ranks]

    def histories(self) -> list[list[float]]:
        return [list(r.history) for r in self.ranks]

    def failed_ranks(self) -> set[int]:
        """Ranks currently down; no policy should plan exports to or from
        them — a dead importer cannot receive and a replayed exporter will
        not resume pre-failure plans."""
        return {r.rank for r in self.ranks if r.failed}

    def pending_out(self) -> list[float]:
        return [r.pending_out for r in self.ranks]

    def pending_in(self) -> list[float]:
        return [r.pending_in for r in self.ranks]

    def queue_depths(self) -> dict[int, int]:
        return {r.rank: r.queue_depth for r in self.ranks}

    # -------------------------------------------------------------- namespace
    @property
    def authority(self) -> AuthorityMap:
        """Read-only authority snapshot (detached from the live map)."""
        ns = self._lazy.get("authority")
        if ns is None:
            ns = AuthorityMap.from_state(self.tree, self.subtree_auth, self.frags)
            self._lazy["authority"] = ns
        return ns

    def heat_loads(self) -> list[float]:
        """Per-MDS load as CephFS-Vanilla sees it: decayed popularity.

        CephFS's ``mds_load`` derives from the pop counters of the subtrees
        an MDS *owns*, not from the requests it serves. For recurrent
        workloads the two agree; for scans an MDS holding freshly scanned
        (dead) subtrees looks loaded while serving nothing — the root cause
        of the paper's first inefficiency. Lunule's contribution is exactly
        to replace this with observed IOPS (paper §3.2).
        """
        cached = self._lazy.get("heat_loads")
        if cached is None:
            cached = self._lazy["heat_loads"] = self._heat_loads_sparse()
        return list(cached)

    def _heat_loads_sparse(self) -> list[float]:
        # Equivalent to summing ``heat`` over every root's full extent, but
        # visiting only directories with live heat: zero addends are exact
        # identities (x + 0.0 == x for the non-negative heat values), so
        # skipping them cannot move a bit — *provided* the live dirs are
        # summed in extent order. ``subtree_extent``'s stack visits children
        # in descending child-list order, which the sort key below (negated
        # child positions along the path from the owning root, parents
        # first) reproduces exactly.
        heat = self.heat
        authmap = self.authority
        tree = authmap.tree
        parent = tree.parent

        by_root: dict[int, list[int]] = {}
        for d in np.nonzero(heat)[0].tolist():
            by_root.setdefault(authmap.resolve_dir(d)[1], []).append(d)

        pos_memo: dict[int, dict[int, int]] = {}

        def extent_key(d: int, root: int) -> tuple[int, ...]:
            path: list[int] = []
            while d != root:
                p = parent[d]
                pos = pos_memo.get(p)
                if pos is None:
                    pos = pos_memo[p] = {
                        c: i for i, c in enumerate(tree.children[p])}
                path.append(-pos[d])
                d = p
            return tuple(reversed(path))

        out = [0.0] * self.n_mds
        for root, auth in authmap.subtree_roots().items():
            members = by_root.get(root)
            if not members:
                continue
            members.sort(key=lambda d, _root=root: extent_key(d, _root))
            out[auth] += float(sum(heat[d] for d in members))
        return out

    @property
    def mindex(self) -> np.ndarray:
        """Per-directory migration index (paper Eq. 4), computed on demand."""
        cached = self._lazy.get("mindex")
        if cached is None:
            from repro.core.mindex import mindex_per_dir

            if self.stats is None:
                raise ValueError("this view was built without access stats")
            cached = self._lazy["mindex"] = mindex_per_dir(self.stats)
        return cached

    # --------------------------------------------------------------- planning
    def new_plan(self) -> EpochPlan:
        """A fresh :class:`~repro.core.plan.EpochPlan` against this view."""
        from repro.core.plan import EpochPlan

        return EpochPlan(epoch=self.epoch, tree=self.tree,
                         subtree_auth=self.subtree_auth, frags=self.frags,
                         queue_depths=self.queue_depths(),
                         decision_ids=self.decision_ids)


def build_cluster_view(*, epoch: int, mdss: Iterable[Any], stats: Any,
                       authmap: AuthorityMap, migrator: Any,
                       default_capacity: float,
                       metrics: object | None = None,
                       decision_ids: DecisionIds | None = None,
                       if_decision_id: int = NO_DECISION) -> ClusterView:
    """Assemble a :class:`ClusterView` from duck-typed cluster components.

    ``mdss`` is a sequence of :class:`~repro.cluster.mds.MDS`-likes,
    ``stats`` an :class:`~repro.cluster.stats.AccessStats`-like, ``authmap``
    an :class:`~repro.namespace.subtree.AuthorityMap` and ``migrator`` a
    :class:`~repro.cluster.migration.Migrator`-like. Everything mutable is
    copied; the tree and stats are shared read-only.
    """
    ranks = tuple(
        RankView(
            rank=m.rank,
            load=m.current_load,
            capacity=m.capacity,
            failed=m.failed,
            history=tuple(m.load_history),
            pending_out=migrator.pending_export_load(m.rank),
            pending_in=migrator.pending_import_load(m.rank),
            queue_depth=migrator.queue_depth(m.rank),
        )
        for m in mdss
    )
    subtree_auth, frags = authmap.snapshot_state()
    return ClusterView(
        epoch=epoch,
        ranks=ranks,
        default_capacity=float(default_capacity),
        tree=authmap.tree,
        subtree_auth=subtree_auth,
        frags=frags,
        heat=stats.heat_array(),
        stats=stats,
        metrics=metrics,
        decision_ids=decision_ids,
        if_decision_id=if_decision_id,
    )
