"""A Mantle-style programmable balancer framework.

Mantle (Sevilla et al., SC '15) decouples *when* to migrate, *how much* to
migrate, and *where* to send it into operator-written policies (Lua in the
original). The paper's §3.4 envisions a framework "similar to but more
powerful than Mantle" that also covers the *which subtrees* question its
API lacks. This module is that framework:

- :class:`PolicyEnv` — the read-only metrics environment a policy sees
  (per-MDS loads, whoami, capacity, pending migrations, epoch...),
- :class:`MantleBalancer` — drives four hooks per epoch per MDS:

  ========  ===============================================  ==============
  hook      signature                                        default
  ========  ===============================================  ==============
  when      ``when(env) -> bool``                            export if my
                                                             load > mean
  howmuch   ``howmuch(env) -> float`` (load units)           my load − mean
  where     ``where(env, amount) -> dict[rank, float]``      fill least
                                                             loaded first
  which     ``which(view, env) -> per-dir load estimates``   decayed heat
  ========  ===============================================  ==============

The ``which`` hook is the extension beyond Mantle's API: it returns the
per-directory load-estimate array candidates are ranked by (it receives the
epoch's :class:`~repro.core.view.ClusterView`, so Lunule's migration index
is expressible as a policy — see :func:`lunule_selection_policy`).
GreedySpill — the paper's Mantle-hosted baseline — ships as
:func:`greedyspill_policy`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.balancers.base import Balancer
from repro.balancers.candidates import candidates_for, scale_to_load
from repro.balancers.vanilla import greedy_heat_selection
from repro.core.plan import EpochPlan
from repro.core.view import ClusterView

__all__ = [
    "PolicyEnv",
    "MantlePolicy",
    "MantleBalancer",
    "greedyspill_policy",
    "lunule_selection_policy",
]


@dataclass(frozen=True)
class PolicyEnv:
    """What a policy is allowed to see (mirrors Mantle's Lua environment)."""

    whoami: int
    epoch: int
    #: most recent epoch IOPS per MDS
    loads: tuple[float, ...]
    #: CephFS-style popularity loads per MDS (what vanilla policies used)
    heat_loads: tuple[float, ...]
    capacity: float
    #: load already queued/in flight away from each MDS
    pending_out: tuple[float, ...]
    #: load already queued/in flight toward each MDS
    pending_in: tuple[float, ...]
    #: per-MDS capacities on heterogeneous clusters (``None`` → all equal
    #: to ``capacity``)
    capacities: tuple[float, ...] | None = None

    @property
    def n_mds(self) -> int:
        return len(self.loads)

    @property
    def my_load(self) -> float:
        return self.loads[self.whoami]

    @property
    def mean_load(self) -> float:
        return sum(self.loads) / len(self.loads)

    @property
    def total_load(self) -> float:
        return sum(self.loads)

    def neighbor(self, offset: int = 1) -> int:
        return (self.whoami + offset) % self.n_mds


WhenFn = Callable[[PolicyEnv], bool]
HowMuchFn = Callable[[PolicyEnv], float]
WhereFn = Callable[[PolicyEnv, float], dict[int, float]]
WhichFn = Callable[[ClusterView, PolicyEnv], np.ndarray]


def _default_when(env: PolicyEnv) -> bool:
    return env.my_load > env.mean_load * 1.1


def _default_howmuch(env: PolicyEnv) -> float:
    return max(0.0, env.my_load - env.mean_load)


def _default_where(env: PolicyEnv, amount: float) -> dict[int, float]:
    """Fill the least-loaded peers first, proportionally to their gap."""
    gaps = {j: env.mean_load - env.loads[j] for j in range(env.n_mds)
            if j != env.whoami and env.loads[j] < env.mean_load}
    total_gap = sum(gaps.values())
    if total_gap <= 0:
        return {}
    return {j: amount * g / total_gap for j, g in gaps.items() if g > 0}


def _default_which(view: ClusterView, env: PolicyEnv) -> np.ndarray:
    return view.heat


@dataclass
class MantlePolicy:
    """A bundle of the four hooks, each optional."""

    when: WhenFn = _default_when
    howmuch: HowMuchFn = _default_howmuch
    where: WhereFn = _default_where
    which: WhichFn = _default_which
    name: str = "mantle"


class MantleBalancer(Balancer):
    """Runs a :class:`MantlePolicy` once per epoch for every MDS."""

    def __init__(self, policy: MantlePolicy | None = None, *,
                 max_queue: int = 16, overshoot: float = 1.2) -> None:
        super().__init__()
        self.policy = policy or MantlePolicy()
        self.max_queue = max_queue
        self.overshoot = overshoot
        self.name = f"mantle:{self.policy.name}"

    @staticmethod
    def _env(view: ClusterView, rank: int, loads, heat) -> PolicyEnv:
        return PolicyEnv(
            whoami=rank,
            epoch=view.epoch,
            loads=tuple(loads),
            heat_loads=tuple(heat),
            capacity=view.default_capacity,
            pending_out=tuple(view.pending_out()),
            pending_in=tuple(view.pending_in()),
            capacities=tuple(view.capacities()),
        )

    def on_epoch(self, view: ClusterView) -> EpochPlan | None:
        loads = view.loads()
        heat = view.heat_loads()
        policy = self.policy
        plan = view.new_plan()
        for rank in range(len(loads)):
            env = self._env(view, rank, loads, heat)
            if not policy.when(env):
                continue
            if plan.queue_depth(rank) >= self.max_queue:
                continue
            amount = float(policy.howmuch(env))
            if amount <= 0:
                continue
            targets = policy.where(env, amount)
            if not targets:
                continue
            per_dir = np.asarray(policy.which(view, env), dtype=np.float64)
            scaled = scale_to_load(candidates_for(plan.namespace, rank, per_dir),
                                   loads[rank])
            if not scaled:
                continue
            for dst, dst_amount in sorted(targets.items(), key=lambda kv: -kv[1]):
                if dst == rank or dst_amount <= 0:
                    continue
                for cand, load in greedy_heat_selection(
                        plan.namespace, scaled, dst_amount,
                        overshoot=self.overshoot):
                    if plan.queue_depth(rank) >= self.max_queue:
                        return plan
                    plan.export(rank, dst, cand.unit, load)
        return plan


# --------------------------------------------------------------- policies
def greedyspill_policy(idle_fraction: float = 0.01) -> MantlePolicy:
    """The GIGA+/GreedySpill policy exactly as the paper hosts it in Mantle:
    trigger when my neighbor is idle, send half of my load to it."""

    def when(env: PolicyEnv) -> bool:
        idle_cut = idle_fraction * max(max(env.heat_loads), 1.0)
        me = env.heat_loads[env.whoami]
        return me > idle_cut and env.heat_loads[env.neighbor()] <= idle_cut

    def howmuch(env: PolicyEnv) -> float:
        return env.heat_loads[env.whoami] / 2.0

    def where(env: PolicyEnv, amount: float) -> dict[int, float]:
        return {env.neighbor(): amount}

    return MantlePolicy(when=when, howmuch=howmuch, where=where,
                        name="greedyspill")


def lunule_selection_policy() -> MantlePolicy:
    """Lunule's *which* question answered inside the Mantle framework:
    candidates ranked by the migration index instead of heat.

    (The trigger/amount side stays simple here; the full Lunule lives in
    :class:`repro.core.balancer.LunuleBalancer` — this policy demonstrates
    that the framework's ``which`` hook covers the feature Mantle lacked.)
    """

    def which(view: ClusterView, env: PolicyEnv) -> np.ndarray:
        return view.mindex

    return MantlePolicy(which=which, name="lunule-select")
