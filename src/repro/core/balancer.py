"""Lunule and Lunule-Light balancer orchestration (paper §3.1 workflow).

Per epoch: Load Monitors report per-MDS IOPS to the Migration Initiator
(N-to-1); the initiator computes the IF and — above the threshold — runs
Algorithm 1 to produce per-exporter migration decisions; each exporter's
Workload-aware Migration Planner ranks its subtrees by migration index and
the Subtree Selector fulfils the decision; chosen units become export
actions on the returned :class:`~repro.core.plan.EpochPlan`.

*Lunule-Light* is the paper's ablation variant: same IF-model trigger and
Algorithm 1 amounts, but the default (decayed-heat) candidate ranking
instead of the migration index.
"""

from __future__ import annotations

import numpy as np

from repro.balancers.base import Balancer
from repro.balancers.candidates import candidates_for, scale_to_load
from repro.core.initiator import InitiatorConfig, MigrationInitiator
from repro.core.plan import EpochPlan
from repro.core.selector import SubtreeSelector
from repro.core.view import ClusterView

__all__ = ["LunuleBalancer", "LunuleLightBalancer"]


class LunuleBalancer(Balancer):
    name = "lunule"

    def __init__(self, config: InitiatorConfig | None = None, *,
                 tolerance: float = 0.1) -> None:
        self.initiator_config = config or InitiatorConfig()
        self.tolerance = tolerance
        #: created on first use — the capacity C comes from the first view
        self.initiator: MigrationInitiator | None = None

    # What the Pattern Analyzer feeds the selector (overridden by -Light).
    def per_dir_load(self, view: ClusterView) -> np.ndarray:
        return view.mindex

    def on_epoch(self, view: ClusterView) -> EpochPlan | None:
        plan = view.new_plan()
        if self.initiator is None:
            self.initiator = MigrationInitiator(
                view.default_capacity, self.initiator_config,
                trace=plan, metrics=view.metrics)
        else:
            # The initiator writes its decision events into this epoch's plan.
            self.initiator.trace = plan
            self.initiator.metrics = view.metrics
        loads = view.loads()
        decisions = self.initiator.plan(
            view.epoch, loads, view.histories(),
            view.pending_out(), view.pending_in(),
            exclude=view.failed_ranks(),
            capacities=view.capacities(),
        )
        if not decisions:
            return plan
        per_dir = self.per_dir_load(view)
        for msg in decisions:
            src = msg.exporter
            scaled = scale_to_load(candidates_for(plan.namespace, src, per_dir),
                                   loads[src])
            if not scaled:
                continue
            selector = SubtreeSelector(plan, scaled, tolerance=self.tolerance,
                                       exporter=src, parent=msg.decision_id)
            for dst, amount in sorted(msg.assignments.items(),
                                      key=lambda kv: kv[1], reverse=True):
                for export in selector.select(amount, importer=dst):
                    plan.export(src, dst, export.unit, export.load,
                                parent=export.decision_id)
        return plan


class LunuleLightBalancer(LunuleBalancer):
    """Lunule's trigger and amounts with the default heat-based selection."""

    name = "lunule-light"

    def per_dir_load(self, view: ClusterView) -> np.ndarray:
        return view.heat
