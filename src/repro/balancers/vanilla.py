"""A model of the CephFS built-in metadata load balancer ("Vanilla").

Faithful to the decision logic the paper's §2.2 dissects, including its
three inefficiencies:

1. **inaccurate, benign-imbalance-oblivious view** — decisions compare each
   MDS's *smoothed* (slow EWMA) load against the cluster average with a
   relative offset gate; there is no dispersion (CoV) measure and no
   urgency gate, so it misses heavy/light gaps when the max is near the
   mean, and happily migrates when the cluster is nearly idle;
2. **aggressive amounts** — an exporter plans its whole excess over the
   average every epoch, with no per-epoch cap and no awareness of
   migrations already queued or in flight, so the plan is re-submitted
   on top of itself while transfers lag (the ping-pong mechanism);
3. **one-size-fits-all selection** — candidates are ranked by decayed
   popularity (*heat*), i.e. by the past; for scan workloads the exported
   subtrees are exactly the ones that will never be visited again.
"""

from __future__ import annotations

import numpy as np

from repro.balancers.base import Balancer
from repro.balancers.candidates import Candidate, candidates_for, scale_to_load
from repro.core.plan import EpochPlan
from repro.core.view import ClusterView
from repro.obs.events import RoleAssigned

__all__ = ["VanillaBalancer", "greedy_heat_selection"]


def greedy_heat_selection(ns, candidates: list[Candidate], amount: float,
                          *, overshoot: float = 1.2,
                          ) -> list[tuple[Candidate, float]]:
    """Hottest-first selection, CephFS style.

    ``ns`` is the namespace the selection plans against — normally an
    :class:`~repro.core.plan.PlanningNamespace`, so the dirfrag splits this
    makes stay speculative until the plan is applied.

    Unlike Lunule's selector this tolerates overshoot up to ``overshoot``
    times the remaining demand — the hottest subtree gets shipped even when
    it is bigger than needed (the paper's 98%-of-inodes export). A subtree
    whose heat sits in *descendants* and exceeds the bound is skipped — its
    children appear later in the ranked list; one whose heat sits in its own
    flat files is split in half, mirroring CephFS's dirfrag splitting of
    overly hot directories.
    """
    chosen: list[tuple[Candidate, float]] = []
    selected_dirs: set[int] = set()
    blocked: set[int] = set()
    remaining = amount
    tree = ns.tree
    for c in candidates:
        if remaining <= 0:
            break
        if c.load <= 0:
            continue
        if not c.is_frag and c.dir_id in blocked:
            continue
        if any(a in selected_dirs for a in tree.ancestors(c.dir_id)):
            continue
        if c.load > overshoot * remaining:
            if (not c.is_frag and c.self_files >= 2
                    and c.self_load >= 0.5 * c.load
                    and ns.frag_state(c.dir_id) is None):
                # Too hot to ship whole and flat: split and take one side.
                frags = ns.split_dir(c.dir_id, 1)
                half = c.self_load / 2.0
                chosen.append((Candidate(frags[0], c.dir_id, half, half,
                                         c.self_files // 2), half))
                blocked.add(c.dir_id)
                remaining -= half
            continue
        chosen.append((c, c.load))
        remaining -= c.load
        if c.is_frag:
            blocked.add(c.dir_id)
        else:
            selected_dirs.add(c.dir_id)
    return chosen


class VanillaBalancer(Balancer):
    name = "vanilla"

    def __init__(self, *, decay: float = 0.7, min_offload: float = 0.1,
                 max_queue: int = 16) -> None:
        super().__init__()
        if not 0.0 <= decay < 1.0:
            raise ValueError("decay must be in [0, 1)")
        self.decay = decay
        self.min_offload = min_offload
        self.max_queue = max_queue
        self._vload: np.ndarray | None = None
        # Selection ranks candidates by the heat snapshot gossiped in the
        # previous heartbeat round — one epoch staler than the local view.
        self._gossiped_heat: np.ndarray | None = None

    def smoothed_loads(self) -> np.ndarray:
        if self._vload is None:
            return np.zeros(0)
        return self._vload.copy()

    def on_epoch(self, view: ClusterView) -> EpochPlan | None:
        epoch = view.epoch
        # CephFS's load view is owned-subtree popularity, not served IOPS.
        loads = np.array(view.heat_loads())
        n = loads.size
        if self._vload is None:
            self._vload = loads.astype(float)
        else:
            if self._vload.size < n:  # cluster grew
                self._vload = np.concatenate([self._vload, np.zeros(n - self._vload.size)])
            self._vload = self.decay * self._vload + (1.0 - self.decay) * loads
        vload = self._vload
        avg = float(vload.mean())
        if avg <= 0.0:
            return None

        plan = view.new_plan()
        down = view.failed_ranks()
        # Importer gaps: underloaded peers, roomiest first. A failed rank
        # reads as idle but cannot receive an import.
        gaps = {j: avg - float(vload[j]) for j in range(n)
                if vload[j] < avg and j not in down}
        for j in sorted(gaps):
            plan.emit(RoleAssigned(epoch=epoch, rank=j, role="importer",
                                   amount=gaps[j],
                                   did=plan.next_decision_id(),
                                   parent=view.if_decision_id))
        fresh = view.heat
        heat = self._gossiped_heat if self._gossiped_heat is not None else fresh
        if heat.size < fresh.size:  # namespace grew since last gossip
            heat = np.concatenate([heat, fresh[heat.size:]])
        self._gossiped_heat = fresh
        for i in range(n):
            if i in down:
                continue
            if vload[i] <= avg * (1.0 + self.min_offload):
                continue
            if plan.queue_depth(i) >= self.max_queue:
                continue  # CephFS bounds its export queue
            amount = float(vload[i] - avg)
            role_id = plan.next_decision_id()
            plan.emit(RoleAssigned(epoch=epoch, rank=i, role="exporter",
                                   amount=amount, did=role_id,
                                   parent=view.if_decision_id))
            scaled = scale_to_load(candidates_for(plan.namespace, i, heat),
                                   float(vload[i]))
            if not scaled:
                continue
            for cand, load in greedy_heat_selection(plan.namespace, scaled, amount):
                dst = self._pick_destination(gaps, i)
                if dst is None:
                    break
                gaps[dst] = gaps.get(dst, 0.0) - load
                plan.export(i, dst, cand.unit, load, parent=role_id)
        return plan

    @staticmethod
    def _pick_destination(gaps: dict[int, float], src: int) -> int | None:
        best, best_gap = None, 0.0
        for j, gap in gaps.items():
            if j != src and gap > best_gap:
                best, best_gap = j, gap
        return best
