"""Simulator engine: conservation, capacity, epochs, dynamics, data path."""

import pytest

from repro.balancers import make_balancer
from repro.cluster.simulator import SimConfig, Simulator
from repro.workloads import MdtestWorkload, ZipfWorkload
from repro.workloads.base import Client, OP_STAT


class TestBasicRun:
    def test_all_clients_finish(self, make_sim):
        res = make_sim("nop").run()
        assert len(res.completion_ticks) == 6

    def test_ops_conserved(self, make_sim):
        # Every op issued by every client is served exactly once.
        sim = make_sim("nop")
        res = sim.run()
        issued = sum(c.ops_done for c in sim.clients)
        assert sum(res.served_per_mds) == issued == res.meta_ops

    def test_single_mds_bottleneck(self, make_sim):
        # Without balancing everything stays on MDS-0.
        res = make_sim("nop").run()
        assert res.served_per_mds[1] == 0 and res.served_per_mds[2] == 0

    def test_capacity_respected_per_epoch(self, make_sim):
        res = make_sim("nop").run()
        for row in res.per_mds_iops:
            for v in row:
                assert v <= 50.0 + 1e-9  # configured capacity

    def test_deterministic(self, make_sim):
        r1 = make_sim("lunule").run()
        r2 = make_sim("lunule").run()
        assert r1.completion_ticks == r2.completion_ticks
        assert r1.if_series == r2.if_series

    def test_epoch_series_aligned(self, make_sim):
        res = make_sim("nop").run()
        n = len(res.epoch_ticks)
        assert len(res.per_mds_iops) == n
        assert len(res.if_series) == n
        assert len(res.migrated_series) == n
        assert len(res.forwards_series) == n

    def test_max_ticks_bounds_run(self, make_sim):
        res = make_sim("nop", max_ticks=20).run()
        assert res.finished_tick <= 20

    def test_needs_an_mds(self, make_sim):
        with pytest.raises(ValueError):
            make_sim("nop", n_mds=0)

    @pytest.mark.parametrize("quantum", [0, -1])
    def test_needs_a_positive_quantum(self, make_sim, quantum):
        with pytest.raises(ValueError):
            make_sim("nop", serve_quantum=quantum)


class TestBalancedRun:
    def test_lunule_spreads_load(self, make_sim):
        res = make_sim("lunule").run()
        busy = sum(1 for s in res.served_per_mds if s > 0)
        assert busy >= 2

    def test_lunule_faster_than_nop(self, make_sim):
        slow = make_sim("nop").run()
        fast = make_sim("lunule").run()
        assert fast.finished_tick < slow.finished_tick

    def test_migration_moves_inodes(self, make_sim):
        res = make_sim("lunule").run()
        assert res.migrated_series[-1] > 0
        assert res.committed_tasks > 0

    def test_inode_distribution_total_preserved(self, make_sim):
        sim = make_sim("lunule", workload=ZipfWorkload(6, files_per_dir=50,
                                                       reads_per_client=300))
        total_before = sum(sim.authmap.inode_distribution(sim.n_mds))
        res = sim.run()
        assert sum(res.inode_distribution) == total_before


class TestRateLimiting:
    def test_rate_caps_throughput(self):
        wl = ZipfWorkload(4, files_per_dir=20, reads_per_client=200, client_rate=2)
        sim = Simulator(wl.materialize(seed=1), make_balancer("nop"),
                        SimConfig(n_mds=2, mds_capacity=100, epoch_len=5,
                                  max_ticks=5000))
        res = sim.run()
        # 4 clients x 2 ops/tick max = 8 IOPS ceiling
        for row in res.per_mds_iops:
            assert sum(row) <= 8.0 + 1e-9

    def test_unlimited_clients_run_faster(self):
        def run(rate):
            wl = ZipfWorkload(4, files_per_dir=20, reads_per_client=200,
                              client_rate=rate)
            sim = Simulator(wl.materialize(seed=1), make_balancer("nop"),
                            SimConfig(n_mds=2, mds_capacity=100, epoch_len=5,
                                      max_ticks=5000))
            return sim.run().finished_tick
        assert run(None) < run(2)


class TestDynamics:
    def test_add_mds_mid_run(self, make_sim):
        sim = make_sim("lunule", schedule=[(20, lambda s: s.add_mds(1))],
                       workload=ZipfWorkload(6, files_per_dir=50, reads_per_client=800))
        assert sim.n_mds == 3
        res = sim.run()
        assert len(res.served_per_mds) == 4
        assert len(res.per_mds_iops[-1]) == 4

    def test_add_clients_mid_run(self, make_sim):
        wl = ZipfWorkload(8, files_per_dir=50, reads_per_client=300)
        inst = wl.materialize(seed=3)
        late = inst.clients[4:]
        inst.clients = inst.clients[:4]
        sim = Simulator(inst, make_balancer("lunule"),
                        SimConfig(n_mds=3, mds_capacity=50, epoch_len=5,
                                  max_ticks=5000),
                        schedule=[(30, lambda s: s.add_clients(late))])
        res = sim.run()
        assert len(res.completion_ticks) == 8
        assert min(t for cid, t in res.completion_ticks.items() if cid >= 4) > 30

    def test_duplicate_client_rejected(self, make_sim):
        wl = ZipfWorkload(2, files_per_dir=10, reads_per_client=10)
        inst = wl.materialize(seed=1)
        sim = Simulator(inst, make_balancer("nop"),
                        SimConfig(n_mds=2, mds_capacity=50, max_ticks=100))
        with pytest.raises(ValueError):
            sim.add_clients([inst.clients[0]])


class TestApplyPlan:
    def test_pin_at_missing_rank_replays_nothing(self, make_sim):
        sim = make_sim("nop")
        plan = sim.snapshot_view().new_plan()
        plan.namespace.split_dir(1, 1)
        plan.namespace.set_subtree_auth(1, sim.n_mds)
        version = sim.authmap.version
        with pytest.raises(ValueError, match="PinSubtree"):
            sim.apply_plan(plan)
        assert sim.authmap.version == version  # the split was not replayed


class TestDataPath:
    def _run(self, balancer="nop"):
        wl = ZipfWorkload(4, files_per_dir=30, reads_per_client=150,
                          file_bytes=1_000_000)
        cfg = SimConfig(n_mds=2, mds_capacity=100, epoch_len=5, max_ticks=10_000,
                        data_path=True, n_osds=1, osd_bandwidth=2_000_000,
                        data_window=500_000)
        sim = Simulator(wl.materialize(seed=2), make_balancer(balancer), cfg)
        return sim, sim.run()

    def test_data_ops_counted(self):
        _, res = self._run()
        assert res.data_ops == 4 * 150
        assert res.meta_ratio() == pytest.approx(0.5)

    def test_data_path_slows_completion(self):
        _, with_data = self._run()
        wl = ZipfWorkload(4, files_per_dir=30, reads_per_client=150,
                          file_bytes=1_000_000)
        cfg = SimConfig(n_mds=2, mds_capacity=100, epoch_len=5, max_ticks=10_000)
        no_data = Simulator(wl.materialize(seed=2), make_balancer("nop"), cfg).run()
        assert with_data.finished_tick > no_data.finished_tick

    def test_all_bytes_drained_at_completion(self):
        sim, res = self._run()
        total = 4 * 150 * 1_000_000
        assert sim.osd.bytes_served == pytest.approx(total)
        assert sim.osd.inflight_count() == 0


class TestCreates:
    def test_mdtest_grows_namespace(self):
        wl = MdtestWorkload(4, creates_per_client=100)
        inst = wl.materialize(seed=1)
        sim = Simulator(inst, make_balancer("nop"),
                        SimConfig(n_mds=2, mds_capacity=100, epoch_len=5,
                                  max_ticks=2000))
        res = sim.run()
        assert inst.tree.total_files() == 400
        assert res.meta_ops == 400


class TestStallJitter:
    def test_stalled_client_waits(self):
        ops = iter([(OP_STAT, 0, -1, 0)] * 50)
        c = Client(0, ops, stall_prob=0.99, seed=1)
        c.advance(now=7)
        assert c.ready_at == 8
