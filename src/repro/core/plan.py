"""Declarative epoch plans: what a policy decided, not yet applied.

Balancers are pure policies: they consume a :class:`~repro.core.view.ClusterView`
snapshot and return an :class:`EpochPlan` — an *ordered* stream of actions
the mechanism layer (``Simulator``/``Migrator``/``AuthorityMap``) replays.
The ordering matters: trace events interleave with exports exactly the way
they would if the policy acted directly, which is what keeps the golden
decision traces byte-identical across the policy/mechanism split.

Planning may need to mutate authority state *speculatively* — the subtree
selector fragments a directory and then selects some of the resulting
frags. :class:`PlanningNamespace` provides that: a detached copy of the
authority map whose mutators both update the local overlay and record the
corresponding action, so the real map replays the same mutation at apply
time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.namespace.dirfrag import FragId
from repro.obs.events import NO_DECISION, DecisionIds
from repro.namespace.subtree import AuthorityMap, FragState
from repro.namespace.tree import NamespaceTree

__all__ = [
    "EmitEvent",
    "SplitDir",
    "PinSubtree",
    "ExportUnit",
    "PlanningNamespace",
    "EpochPlan",
]


@dataclass(frozen=True)
class EmitEvent:
    """Record one decision event on the simulator's trace."""

    event: object


@dataclass(frozen=True)
class SplitDir:
    """Fragment a directory into ``2**bits`` dirfrags."""

    dir_id: int
    bits: int


@dataclass(frozen=True)
class PinSubtree:
    """Delegate the subtree rooted at ``dir_id`` to ``rank``."""

    dir_id: int
    rank: int


@dataclass(frozen=True)
class ExportUnit:
    """Ship one subtree or dirfrag from ``src`` to ``dst``.

    ``did``/``parent`` carry decision provenance across the plan/apply
    seam: ``did`` is the pre-allocated id the migrator will stamp on the
    resulting ``migration_planned`` event, ``parent`` the selection (or
    role) decision this export fulfils.
    """

    src: int
    dst: int
    unit: int | FragId
    load: float
    did: int = NO_DECISION
    parent: int = NO_DECISION


class PlanningNamespace(AuthorityMap):
    """A plan-local authority overlay.

    Read methods (``subtree_roots``, ``frag_state``, ``extent``, ...) are
    inherited unchanged from :class:`AuthorityMap` and operate on detached
    copies (sharing only the owner tuples, which a split replaces), so
    planning never touches live cluster state. The two mutators a policy
    may use — :meth:`split_dir` and :meth:`set_subtree_auth` — update the
    overlay *and* append the matching action to the owning
    :class:`EpochPlan`, preserving exact mutation order for replay.
    """

    def __init__(self, tree: NamespaceTree, subtree_auth: dict[int, int],
                 frags: dict[int, FragState],
                 plan: EpochPlan) -> None:
        super().__init__(tree)
        self._subtree_auth = dict(subtree_auth)
        self._frags = dict(frags)
        self._plan = plan

    def split_dir(self, dir_id: int, bits: int) -> list[FragId]:
        frags = super().split_dir(dir_id, bits)
        self._plan.actions.append(SplitDir(dir_id, bits))
        return frags

    def set_subtree_auth(self, dir_id: int, mds: int) -> None:
        super().set_subtree_auth(dir_id, mds)
        self._plan.actions.append(PinSubtree(dir_id, mds))


class EpochPlan:
    """Ordered action stream produced by one policy invocation.

    Duck-compatible with :class:`~repro.obs.tracelog.TraceLog` on the
    ``emit`` side, so components written against a trace sink (e.g. the
    migration initiator) can write decision events straight into the plan.
    """

    def __init__(self, *, epoch: int, tree: NamespaceTree,
                 subtree_auth: dict[int, int],
                 frags: dict[int, FragState],
                 queue_depths: dict[int, int] | None = None,
                 decision_ids: DecisionIds | None = None) -> None:
        self.epoch = epoch
        self.actions: list[object] = []
        self.namespace = PlanningNamespace(tree, subtree_auth, frags, self)
        self._queue_base = dict(queue_depths or {})
        self._planned_exports: dict[int, int] = {}
        #: decision-id allocator shared with the simulator's trace log (the
        #: view threads it through), so policy-side ids stay monotone with
        #: mechanism-side ones; standalone plans get their own sequence
        self.ids = decision_ids if decision_ids is not None else DecisionIds()

    @classmethod
    def from_authority(cls, authority: AuthorityMap, *, epoch: int = 0,
                       queue_depths: dict[int, int] | None = None,
                       decision_ids: DecisionIds | None = None) -> EpochPlan:
        """Plan against a live authority map (unit tests, standalone use)."""
        subtree_auth, frags = authority.snapshot_state()
        return cls(epoch=epoch, tree=authority.tree, subtree_auth=subtree_auth,
                   frags=frags, queue_depths=queue_depths,
                   decision_ids=decision_ids)

    # -------------------------------------------------------------- recording
    def emit(self, event: object) -> None:
        """Append a decision event (replayed onto the trace in order)."""
        self.actions.append(EmitEvent(event))

    def next_decision_id(self) -> int:
        """Mint the next decision id (see :class:`~repro.obs.tracelog.TraceSink`)."""
        return self.ids.next()

    def export(self, src: int, dst: int, unit: int | FragId, load: float,
               parent: int = NO_DECISION) -> int:
        """Append one export; replayed as ``Migrator.submit_export``.

        Pre-allocates the ``migration_planned`` decision id here, at
        planning time, so trace ids stay monotone in trace order even
        though the event itself is emitted at apply time. Returns the id.
        """
        did = self.next_decision_id()
        self.actions.append(ExportUnit(src, dst, unit, load, did=did,
                                       parent=parent))
        self._planned_exports[src] = self._planned_exports.get(src, 0) + 1
        return did

    # ------------------------------------------------------------- inspection
    def queue_depth(self, rank: int) -> int:
        """Snapshot queue depth plus exports planned for ``rank`` so far.

        Matches what ``Migrator.queue_depth`` would report mid-epoch if the
        policy were submitting directly, so queue-bounding policies behave
        identically under planning.
        """
        return self._queue_base.get(rank, 0) + self._planned_exports.get(rank, 0)

    @property
    def exports(self) -> list[ExportUnit]:
        return [a for a in self.actions if isinstance(a, ExportUnit)]

    def __len__(self) -> int:
        return len(self.actions)

    def __bool__(self) -> bool:
        # An empty plan is still a plan; application of either is a no-op.
        return True
