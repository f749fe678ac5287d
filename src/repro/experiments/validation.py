"""Internal-consistency validation of simulation results.

`validate(sim, result)` re-checks, after a run, every invariant the
simulator is supposed to maintain. The property-based tests use it, and
users extending the simulator (new balancers, new workloads, custom
schedules) can call it to catch conservation bugs early instead of
debugging skewed curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.results import SimResult

__all__ = ["ValidationReport", "validate"]


@dataclass
class ValidationReport:
    """Outcome of a validation pass: empty ``problems`` means consistent."""

    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def raise_if_failed(self) -> None:
        if self.problems:
            raise AssertionError("result validation failed:\n  "
                                 + "\n  ".join(self.problems))


def validate(sim, result: SimResult) -> ValidationReport:
    """Check a finished simulation against its result object."""
    rep = ValidationReport()

    # --- op conservation -------------------------------------------------
    issued = sum(c.ops_done for c in sim.clients)
    served = sum(result.served_per_mds)
    rep.expect(served == issued,
               f"ops served ({served}) != ops issued ({issued})")
    rep.expect(result.meta_ops == issued,
               f"meta_ops ({result.meta_ops}) != ops issued ({issued})")

    # --- inode conservation ----------------------------------------------
    expected_inodes = sim.tree.n_dirs + sim.tree.total_files()
    rep.expect(sum(result.inode_distribution) == expected_inodes,
               f"inode distribution sums to {sum(result.inode_distribution)}, "
               f"namespace holds {expected_inodes}")

    # --- authority map ----------------------------------------------------
    covered: list[int] = []
    for root in sim.authmap.subtree_roots():
        covered.extend(sim.authmap.extent(root))
    rep.expect(sorted(covered) == list(range(sim.tree.n_dirs)),
               "subtree extents do not partition the namespace")
    for root, auth in sim.authmap.subtree_roots().items():
        rep.expect(0 <= auth < sim.n_mds,
                   f"subtree {root} pinned to invalid rank {auth}")
    for d, (_, owners) in sim.authmap.snapshot_state()[1].items():
        for frag_no, owner in enumerate(owners):
            rep.expect(0 <= owner < sim.n_mds,
                       f"fragment {frag_no} of dir {d} owned by invalid "
                       f"rank {owner}")

    # --- series alignment ---------------------------------------------------
    n = len(result.epoch_ticks)
    for name in ("per_mds_iops", "if_series", "migrated_series",
                 "forwards_series", "latency_series"):
        rep.expect(len(getattr(result, name)) == n,
                   f"{name} has {len(getattr(result, name))} entries, "
                   f"expected {n}")
    rep.expect(all(0.0 <= v <= 1.0 for v in result.if_series),
               "imbalance factor left [0, 1]")
    rep.expect(all(b >= a for a, b in zip(result.migrated_series,
                                          result.migrated_series[1:])),
               "migrated-inode series is not cumulative")
    rep.expect(all(b >= a for a, b in zip(result.forwards_series,
                                          result.forwards_series[1:])),
               "forwards series is not cumulative")
    rep.expect(all(v >= 1.0 for v in result.latency_series),
               "op latency below one service tick")

    # --- capacity ----------------------------------------------------------
    caps = [m.capacity for m in sim.mdss]
    for row in result.per_mds_iops:
        for rank, v in enumerate(row):
            rep.expect(v <= caps[rank] + 1e-9,
                       f"MDS-{rank} exceeded its capacity: {v} > {caps[rank]}")

    # --- completions ---------------------------------------------------------
    for cid, tick in result.completion_ticks.items():
        rep.expect(0 <= tick <= result.finished_tick,
                   f"client {cid} completed at {tick}, run ended at "
                   f"{result.finished_tick}")

    # --- migration accounting ---------------------------------------------
    mig = sim.migrator
    rep.expect(result.committed_tasks == mig.committed_tasks,
               "committed-task count mismatch")
    rep.expect(result.aborted_tasks == mig.aborted_tasks,
               "aborted-task count mismatch")

    return rep
