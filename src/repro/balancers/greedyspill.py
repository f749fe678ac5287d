"""GreedySpill (GIGA+ policy, run in CephFS through the Mantle framework).

The policy from the paper's baseline set: an MDS triggers migration when it
has load and its next-rank neighbor has (almost) none, and then ships half
of its load to that neighbor. It uses only local information — no global
dispersion measure — and heat-ranked candidates, so on scan workloads the
spilled half carries no future load and the imbalance persists while
migration traffic keeps flowing (paper Fig. 6: IF close to 1).
"""

from __future__ import annotations

from repro.balancers.base import Balancer
from repro.balancers.candidates import candidates_for, scale_to_load
from repro.balancers.vanilla import greedy_heat_selection
from repro.core.plan import EpochPlan
from repro.core.view import ClusterView
from repro.obs.events import RoleAssigned

__all__ = ["GreedySpillBalancer"]


class GreedySpillBalancer(Balancer):
    name = "greedyspill"

    def __init__(self, *, idle_fraction: float = 0.01, max_queue: int = 8) -> None:
        super().__init__()
        if not 0.0 <= idle_fraction < 1.0:
            raise ValueError("idle_fraction must be in [0, 1)")
        self.idle_fraction = idle_fraction
        self.max_queue = max_queue

    def on_epoch(self, view: ClusterView) -> EpochPlan | None:
        epoch = view.epoch
        # Mantle policies read CephFS's popularity-based load metric too.
        loads = view.heat_loads()
        n = len(loads)
        if n < 2:
            return None
        # Popularity units are not IOPS; "idle" is relative to the busiest.
        idle_cut = self.idle_fraction * max(max(loads), 1.0)
        heat = view.heat
        down = view.failed_ranks()
        plan = view.new_plan()
        for i in range(n):
            j = (i + 1) % n
            # Mantle GreedySpill: "when my load > 0.01 and my neighbor's
            # load < 0.01, send half". Failed ranks sit the round out.
            if i in down or j in down:
                continue
            if loads[i] <= idle_cut or loads[j] > idle_cut:
                continue
            if plan.queue_depth(i) >= self.max_queue:
                continue
            amount = loads[i] / 2.0
            role_id = plan.next_decision_id()
            plan.emit(RoleAssigned(epoch=epoch, rank=i, role="exporter",
                                   amount=amount, did=role_id,
                                   parent=view.if_decision_id))
            plan.emit(RoleAssigned(epoch=epoch, rank=j, role="importer",
                                   amount=amount,
                                   did=plan.next_decision_id(),
                                   parent=view.if_decision_id))
            scaled = scale_to_load(candidates_for(plan.namespace, i, heat),
                                   loads[i])
            if not scaled:
                continue
            for cand, load in greedy_heat_selection(plan.namespace, scaled, amount):
                plan.export(i, j, cand.unit, load, parent=role_id)
        return plan
