"""The Mantle-style programmable policy framework."""

import pytest

from repro.balancers.mantle import (
    MantleBalancer,
    MantlePolicy,
    PolicyEnv,
    greedyspill_policy,
    lunule_selection_policy,
)
from repro.cluster.simulator import SimConfig, Simulator
from repro.workloads import CnnWorkload, MdtestWorkload, ZipfWorkload

CFG = SimConfig(n_mds=4, mds_capacity=50, epoch_len=5, max_ticks=3000,
                migration_rate=100)


def run(balancer, workload=None, cfg=CFG):
    wl = workload or ZipfWorkload(8, files_per_dir=50, reads_per_client=400)
    sim = Simulator(wl.materialize(seed=5), balancer, cfg)
    return sim, sim.run()


class TestPolicyEnv:
    def _env(self, loads=(60.0, 10.0, 10.0, 0.0), whoami=0):
        n = len(loads)
        return PolicyEnv(whoami=whoami, epoch=3, loads=loads,
                         heat_loads=loads, capacity=100.0,
                         pending_out=(0.0,) * n, pending_in=(0.0,) * n)

    def test_derived_properties(self):
        env = self._env()
        assert env.n_mds == 4
        assert env.my_load == 60.0
        assert env.mean_load == pytest.approx(20.0)
        assert env.total_load == pytest.approx(80.0)

    def test_neighbor_wraps(self):
        assert self._env(whoami=3).neighbor() == 0
        assert self._env(whoami=0).neighbor(2) == 2

    def test_env_is_frozen(self):
        env = self._env()
        with pytest.raises(Exception):
            env.whoami = 1  # type: ignore[misc]


class TestDefaultPolicy:
    def test_balances_like_a_balancer(self):
        _, res = run(MantleBalancer())
        assert res.migrated_series[-1] > 0
        assert sum(1 for s in res.served_per_mds if s > 0) >= 2

    def test_name_reflects_policy(self):
        assert MantleBalancer().name == "mantle:mantle"
        assert MantleBalancer(greedyspill_policy()).name == "mantle:greedyspill"

    def test_idle_cluster_is_a_noop(self):
        bal = MantleBalancer()
        sim, res = run(bal)
        # drain everything, then close an idle epoch: loads are all zero
        for _ in range(200):
            sim.migrator.tick()
        for m in sim.mdss:
            m.end_epoch(sim.config.epoch_len)
        depth_before = sum(sim.migrator.queue_depth(i) for i in range(sim.n_mds))
        plan = bal.on_epoch(sim.snapshot_view())
        sim.apply_plan(plan)
        depth_after = sum(sim.migrator.queue_depth(i) for i in range(sim.n_mds))
        assert depth_after == depth_before


class TestCustomHooks:
    def test_when_false_never_migrates(self):
        policy = MantlePolicy(when=lambda env: False, name="never")
        _, res = run(MantleBalancer(policy))
        assert res.migrated_series[-1] == 0

    def test_howmuch_zero_never_migrates(self):
        policy = MantlePolicy(howmuch=lambda env: 0.0, name="zero")
        _, res = run(MantleBalancer(policy))
        assert res.migrated_series[-1] == 0

    def test_where_directs_all_to_one_target(self):
        policy = MantlePolicy(where=lambda env, amount: {1: amount},
                              name="to-one")
        sim, res = run(MantleBalancer(policy))
        # only MDS-0 (initial authority) and MDS-1 ever serve
        assert res.served_per_mds[2] == 0
        assert res.served_per_mds[3] == 0
        assert res.served_per_mds[1] > 0

    def test_which_receives_view_and_env(self):
        seen = {}

        def which(view, env):
            seen["type"] = type(view).__name__
            seen["epoch"] = env.epoch
            return view.heat

        _, res = run(MantleBalancer(MantlePolicy(which=which, name="spy")))
        assert seen["type"] == "ClusterView"
        assert seen["epoch"] >= 0


class TestRankBounds:
    @pytest.mark.parametrize("dst", [3, -1])
    def test_export_to_missing_rank_raises_before_replay(self, dst):
        planned_at: list[int] = []

        def where(env, amount):
            planned_at.append(env.epoch)
            return {dst: amount}

        wl = MdtestWorkload(6, creates_per_client=300)
        sim = Simulator(wl.materialize(seed=5),
                        MantleBalancer(MantlePolicy(where=where, name="bad")),
                        CFG.with_(n_mds=3))
        with pytest.raises(ValueError, match="ExportUnit"):
            sim.run()
        # the first plan that names the rank is refused whole: nothing of
        # it reaches the migrator or the trace
        assert set(planned_at) == {sim.epoch}
        assert sim.trace.events("migration_planned") == []
        assert sim.migrator.committed_tasks == 0


class TestGreedySpillPolicy:
    def test_spills_to_neighbor(self):
        _, res = run(MantleBalancer(greedyspill_policy()))
        assert res.migrated_series[-1] > 0

    def test_matches_builtin_greedyspill_shape(self):
        from repro.balancers.greedyspill import GreedySpillBalancer

        _, mantle = run(MantleBalancer(greedyspill_policy()))
        _, builtin = run(GreedySpillBalancer())
        # both leave the cluster similarly imbalanced (same policy)
        assert abs(mantle.mean_if(2) - builtin.mean_if(2)) < 0.35


class TestLunuleSelectionPolicy:
    def test_mindex_selection_beats_heat_on_scans(self):
        wl = lambda: CnnWorkload(8, n_dirs=40, files_per_dir=20, jitter=0.05)
        _, heat = run(MantleBalancer(MantlePolicy(name="heat")), workload=wl())
        _, mindex = run(MantleBalancer(lunule_selection_policy()), workload=wl())
        assert mindex.finished_tick <= heat.finished_tick * 1.1


class TestQueueGuard:
    def test_max_queue_bounds_submissions(self):
        policy = MantlePolicy(howmuch=lambda env: env.my_load,  # aggressive
                              name="flood")
        bal = MantleBalancer(policy, max_queue=3)
        sim, _ = run(bal)
        for i in range(sim.n_mds):
            assert sim.migrator.queue_depth(i) <= 3 + sim.migrator.concurrency
