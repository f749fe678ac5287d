#!/usr/bin/env python
"""Writing your own metadata balancer against the public policy API.

The paper's future-work section envisions a generic policy framework "more
powerful than Mantle". This repository's :class:`repro.balancers.base.Balancer`
interface is exactly that seam: a policy receives an immutable
:class:`~repro.core.view.ClusterView` snapshot each epoch and returns an
:class:`~repro.core.plan.EpochPlan` of declarative actions — it never
touches the simulator.

Below is a deliberately simple *water-filling* balancer — every epoch it
tops up the least-loaded MDS from the most-loaded one — compared against
Lunule and Vanilla on the MDtest create storm.

Run:  python examples/custom_balancer.py
"""

from repro import SimConfig, Simulator, make_balancer
from repro.balancers.base import Balancer
from repro.balancers.candidates import candidates_for, scale_to_load
from repro.workloads import MdtestWorkload


class WaterFillingBalancer(Balancer):
    """Move half the gap between the busiest and idlest MDS each epoch."""

    name = "water-filling"

    def __init__(self, threshold: float = 0.2) -> None:
        super().__init__()
        self.threshold = threshold

    def on_epoch(self, view):
        loads = view.heat_loads()
        hi = max(range(len(loads)), key=loads.__getitem__)
        lo = min(range(len(loads)), key=loads.__getitem__)
        gap = loads[hi] - loads[lo]
        if loads[hi] == 0 or gap < self.threshold * view.default_capacity:
            return None
        plan = view.new_plan()
        amount = gap / 2.0
        # Rank export candidates by decayed heat and scale into IOPS units.
        cands = scale_to_load(candidates_for(plan.namespace, hi, view.heat),
                              loads[hi])
        if not cands:
            return None
        remaining = amount
        for c in cands:
            if remaining <= 0:
                break
            if 0 < c.load <= remaining * 1.2:
                plan.export(hi, lo, c.unit, c.load)
                remaining -= c.load
        return plan


def main() -> None:
    config = SimConfig(n_mds=5, mds_capacity=100, epoch_len=10)
    print("MDtest create storm: 20 clients x 3000 creates, 5 MDSs\n")
    header = f"{'balancer':14s} {'mean IF':>8s} {'peak IOPS':>10s} {'done at':>8s}"
    print(header)
    print("-" * len(header))
    for balancer in (make_balancer("vanilla"), WaterFillingBalancer(),
                     make_balancer("lunule")):
        workload = MdtestWorkload(n_clients=20, creates_per_client=3000)
        sim = Simulator(workload.materialize(seed=7), balancer, config)
        res = sim.run()
        print(f"{res.balancer:14s} {res.mean_if(2):8.3f} "
              f"{res.peak_iops():10.0f} {res.finished_tick:7d}s")
    print("\nThe custom policy plugs into the same ClusterView/EpochPlan seam "
          "as Lunule itself:\nsubclass Balancer, read the view, plan "
          "exports.")


if __name__ == "__main__":
    main()
