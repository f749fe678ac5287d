"""The Subtree Selector (paper §3.3 / §4.1 "Subtree selection").

For each migration decision ``<exporter, importer, amount>`` the exporter
scans its candidates ranked by migration index and picks a set whose
predicted load matches ``amount``, via three search paths:

1. a single subtree whose load is within 10% of ``amount``;
2. otherwise, the smallest subtree larger than ``amount`` is *split* —
   when its load sits in its own (flat) files, by fragmenting the directory
   and taking just enough frags; when it sits in descendants, the greedy
   path below naturally picks those descendants instead;
3. otherwise, a minimal set of subtrees is accumulated greedily,
   largest-first, never overshooting the remaining demand by more than the
   tolerance.

Selections made for one importer stay blocked for subsequent importers in
the same epoch (no unit is exported twice), as are ancestors/descendants of
selected units (exporting both a directory and its parent would double-ship
the child).

The selector is pure policy: it operates on an
:class:`~repro.core.plan.EpochPlan`, splitting directories through the
plan's namespace overlay and recording selections as trace events on the
plan — nothing happens to the live cluster until the plan is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.balancers.candidates import Candidate
from repro.core.plan import EpochPlan
from repro.namespace.dirfrag import MAX_FRAG_BITS, FragId
from repro.obs.events import NO_DECISION, SubtreeSelected, encode_unit

__all__ = ["ExportPlan", "SubtreeSelector"]


@dataclass
class ExportPlan:
    """One unit chosen for export, with its predicted load."""

    unit: int | FragId
    load: float
    #: the ``subtree_selected`` decision id behind this unit (provenance;
    #: ``NO_DECISION`` for untraced selections)
    decision_id: int = NO_DECISION


class SubtreeSelector:
    """Stateful per-epoch selector for one exporter MDS."""

    def __init__(self, plan: EpochPlan, candidates: list[Candidate], *,
                 tolerance: float = 0.1, min_load: float = 1e-9,
                 exporter: int | None = None,
                 parent: int = NO_DECISION) -> None:
        self.plan = plan
        self.ns = plan.namespace
        self.tolerance = tolerance
        self.min_load = min_load
        #: rank this selector plans for; selections are traced when known
        self.exporter = exporter
        #: the exporter's ``role_assigned`` decision id selections hang under
        self.parent = parent
        self.candidates = [c for c in candidates if c.load > min_load]
        self._selected_dirs: set[int] = set()
        self._blocked_dirs: set[int] = set()
        self._taken_units: set[object] = set()

    # ------------------------------------------------------------- blocking
    def _usable(self, c: Candidate) -> bool:
        key = c.unit if c.is_frag else ("dir", c.unit)
        if key in self._taken_units:
            return False
        if not c.is_frag and c.dir_id in self._blocked_dirs:
            return False
        return all(a not in self._selected_dirs
                   for a in self.ns.tree.ancestors(c.dir_id))

    def _take(self, c: Candidate) -> ExportPlan:
        if c.is_frag:
            self._taken_units.add(c.unit)
            # The containing dir can no longer be exported wholesale — its
            # file ownership is now mixed.
            self._blocked_dirs.add(c.dir_id)
        else:
            self._taken_units.add(("dir", c.unit))
            self._selected_dirs.add(c.dir_id)
            for a in self.ns.tree.ancestors(c.dir_id):
                if a != c.dir_id:
                    self._blocked_dirs.add(a)
        return ExportPlan(c.unit, c.load)

    # ------------------------------------------------------------- selection
    def select(self, amount: float, importer: int | None = None) -> list[ExportPlan]:
        """Choose export units predicted to carry ``amount`` load.

        When the selector knows which decision it fulfils (``exporter`` set
        at construction, ``importer`` passed here) each chosen unit is
        recorded on the plan's decision-event stream.
        """
        plans = self._select(amount)
        if plans and self.exporter is not None:
            epoch = self.plan.epoch
            for p in plans:
                p.decision_id = self.plan.next_decision_id()
                self.plan.emit(SubtreeSelected(
                    epoch=epoch, exporter=self.exporter,
                    importer=-1 if importer is None else importer,
                    unit=encode_unit(p.unit), load=p.load,
                    did=p.decision_id, parent=self.parent))
        return plans

    def _select(self, amount: float) -> list[ExportPlan]:
        if amount <= self.min_load:
            return []
        tol = self.tolerance
        # ``_usable`` has no side effects, so each path tests the cheap
        # load predicate first and ``_usable`` only on what passes it.

        # Path 1 — a single subtree within the tolerance band.
        for c in self.candidates:
            if abs(c.load - amount) <= tol * amount and self._usable(c):
                return [self._take(c)]

        plans: list[ExportPlan] = []
        remaining = amount

        # Path 2 — split the smallest too-big *splittable* candidate when
        # its load is concentrated in its own flat files (a dirfrag split is
        # the only way to move part of one huge directory). Oversized
        # candidates whose load sits in descendants are left alone: their
        # children are separate candidates the greedy path picks up.
        over = sorted((c for c in self.candidates
                       if c.load > amount and self._usable(c)),
                      key=lambda x: x.load)
        for c in over:
            if (not c.is_frag and c.self_files >= 2
                    and c.self_load >= 0.5 * c.load
                    and self.ns.frag_state(c.dir_id) is None):
                plans.extend(self._split_and_take(c, amount))
            elif c.is_frag and c.unit.bits < MAX_FRAG_BITS:
                plans.extend(self._resplit_and_take(c, amount))
            else:
                continue
            break
        if plans:
            got = sum(p.load for p in plans)
            remaining = amount - got
            if remaining <= tol * amount:
                return plans

        # Path 3 — greedy minimal set, largest-first, no overshoot.
        for c in self.candidates:
            if remaining <= tol * amount:
                break
            if c.load <= remaining * (1.0 + tol) and self._usable(c):
                plans.append(self._take(c))
                remaining -= c.load
        return plans

    def _split_and_take(self, c: Candidate, amount: float) -> list[ExportPlan]:
        """Fragment ``c``'s directory and take ~``amount`` worth of frags."""
        ratio = c.self_load / amount if amount > 0 else 2.0
        bits = min(MAX_FRAG_BITS, max(1, math.ceil(math.log2(max(ratio, 2.0)))))
        frags = self.ns.split_dir(c.dir_id, bits)
        per_frag_load = c.self_load / (1 << bits)
        if per_frag_load <= self.min_load:
            return []
        # floor, not round: over-shipping is exactly the vanilla failure
        # mode Lunule avoids; a shortfall is covered by the greedy path or
        # by the next epoch's decision
        k = max(1, min(len(frags) - 1, int(amount // per_frag_load)))
        self._blocked_dirs.add(c.dir_id)
        for a in self.ns.tree.ancestors(c.dir_id):
            self._blocked_dirs.add(a)
        plans = []
        for frag in frags[:k]:
            self._taken_units.add(frag)
            plans.append(ExportPlan(frag, per_frag_load))
        return plans

    def _resplit_and_take(self, c: Candidate, amount: float) -> list[ExportPlan]:
        """A single frag is still too big: double the dir's frag count and
        take just enough of the resulting sub-frags.

        Re-splitting preserves every other frag's ownership (sub-frags
        inherit from their containing coarser frag), so only this frag's
        granularity changes.
        """
        old: FragId = c.unit  # type: ignore[assignment]
        new_bits = old.bits + 1
        self.ns.split_dir(old.dir_id, new_bits)
        subs = [FragId(old.dir_id, new_bits, old.frag_no),
                FragId(old.dir_id, new_bits, old.frag_no + (1 << old.bits))]
        per_sub = c.load / 2.0
        self._taken_units.add(old)
        self._blocked_dirs.add(old.dir_id)
        k = 1 if amount < c.load else 2
        plans = []
        for frag in subs[:k]:
            self._taken_units.add(frag)
            plans.append(ExportPlan(frag, per_sub))
        return plans
