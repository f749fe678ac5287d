"""Scalar/columnar engine equivalence and serve-loop edge cases.

The columnar engine's contract is *decision equivalence*: for any config,
the full balancer-decision trace must be byte-identical to the scalar
reference's. These tests hold that contract over a matrix of workloads,
balancers, and serve-loop edge conditions (rate-limited clients, data-path
stalls, lease expiry, dirfrag redirects, streams the turbo tick must
refuse), plus the chaos failure path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.balancers import make_balancer
from repro.cluster.simulator import SimConfig, Simulator
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_traced
from repro.workloads.base import OP_CREATE, OP_READDIR, RepeatOps
from repro.workloads.mdtest import MdtestWorkload

SMALL = SimConfig(n_mds=3, mds_capacity=60.0, epoch_len=5, max_ticks=1200,
                  migration_rate=50, seed=0)

#: name -> (workload, balancer, sim config, workload overrides, data_path)
MATRIX = {
    "mdtest_lunule": ("mdtest", "lunule", SMALL, {}, False),
    "mixed_lunule": ("mixed", "lunule", SMALL, {}, False),
    "zipf_vanilla": ("zipf", "vanilla", SMALL, {}, False),
    # Rate-limited clients: the per-tick op budget forces runs to span
    # ticks and the turbo path to fall back.
    "rate_limited": ("mdtest", "lunule", SMALL,
                     {"client_rate": 2.5, "creates_per_client": 120}, False),
    # Data path on: OSD stalls suspend clients mid-stream (data_window),
    # which the columnar engine must replay op-by-op.
    "data_window": ("zipf", "lunule", SMALL, {}, True),
    # Aggressive lease expiry: client dentry caches die every 3 ticks, so
    # every stream keeps re-charging its routing entries.
    "lease_churn": ("mdtest", "lunule", SMALL.with_(client_lease_ttl=3),
                    {}, False),
    # One client, one MDS: exercises the lone-survivor drain budget.
    "single_client": ("mdtest", "lunule",
                      SMALL.with_(n_mds=1, max_ticks=400), {}, False),
    # Capacity-bound create storm: three clients per rank at low capacity
    # and a non-default quantum, streams long enough for lunule to split
    # dirs across ranks; turbo ticks skip ahead, then step the dry-ups.
    "capacity_storm": ("mdtest", "lunule",
                       SMALL.with_(n_mds=2, mds_capacity=20.0, serve_quantum=3,
                                   max_ticks=3000),
                       {"creates_per_client": 2000}, False),
    # The capacity storm with leases that lapse every 7 ticks and
    # fractional forward charges: turbo ticks hold cold and stale
    # clients that route a prefix through the reference path, then
    # rejoin the warm race (some on multi-owner cycles) as ranks run dry.
    "stale_capacity_churn": ("mdtest", "lunule",
                             SMALL.with_(n_mds=2, mds_capacity=20.0,
                                         serve_quantum=3, max_ticks=3000,
                                         client_lease_ttl=7,
                                         forward_charge=0.5),
                             {"creates_per_client": 2000}, False),
}


def run_engine(name: str, engine: str):
    workload, balancer, sim, overrides, data_path = MATRIX[name]
    cfg = ExperimentConfig(workload=workload, balancer=balancer, n_clients=6,
                           seed=11, scale=0.12, data_path=data_path,
                           sim=sim.with_(engine=engine),
                           workload_overrides=overrides or None)
    return run_traced(cfg)


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_trace_equivalence(name):
    """Scalar and columnar runs produce byte-identical decision traces."""
    result_s, sim_s = run_engine(name, "scalar")
    result_c, sim_c = run_engine(name, "columnar")
    assert sim_s.trace.dumps() == sim_c.trace.dumps()
    assert result_s.meta_ops == result_c.meta_ops
    assert result_s.completion_ticks == result_c.completion_ticks
    assert result_s.served_per_mds == result_c.served_per_mds
    assert result_s.total_forwards == result_c.total_forwards


def test_capacity_storm_skips_then_steps(monkeypatch):
    """The capacity storm's turbo ticks skip ahead, then step the dry-ups.

    A spy on :func:`~repro.kernel.engine.capacity_race` reads each race's
    inputs: with no client in a prefix and every touched rank holding at least
    ``quantum`` credits per client that may touch it, the race opens with
    a skip-ahead; a wait can only come from a stepped round. Both must
    occur in one tick, for single-owner and for multi-owner clients.
    """
    from repro.kernel import engine

    race = engine.capacity_race
    seen = {"skip_then_dry": 0, "cycle_skips": 0}

    def spy(mdss, quantum, cuts, heads, cycles, owners1, pre, serve_slow):
        need: dict[int, int] = {}
        for i, cyc in enumerate(cycles):
            for m in ([owners1[i]] if cyc is None else [m for m, _ in cyc.counts]):
                need[m] = need.get(m, 0) + quantum
        skips = not any(pre) and max(cuts) > 0 and all(
            mdss[m].remaining >= x for m, x in need.items())
        out = race(mdss, quantum, cuts, heads, cycles, owners1, pre, serve_slow)
        if skips and out[2]:
            seen["skip_then_dry"] += 1
        if skips and any(cyc is not None for cyc in cycles):
            seen["cycle_skips"] += 1
        return out

    monkeypatch.setattr(engine, "capacity_race", spy)
    run_engine("capacity_storm", "columnar")
    assert seen["skip_then_dry"] > 0
    assert seen["cycle_skips"] > 0


def test_stale_clients_route_only_their_prefix(monkeypatch):
    """A cold or stale client routes only its prefix, then serves warm.

    Spies count the reference path's ``_serve_op`` calls inside each
    turbo tick against the prefixes the tick hands
    :func:`~repro.kernel.engine.capacity_race`: the calls are at most
    their sum (fewer when a prefix blocks). The run must also hold
    clients, single- and multi-owner, that finish a prefix and go on
    to serve warm creates in the same tick.
    """
    from repro.kernel import engine

    race = engine.capacity_race
    turbo = engine.ColumnarEngine._turbo_tick
    serve_op = engine.ScalarEngine._serve_op
    tick = {"in": False, "ops": 0, "pre": 0}
    seen = {"prefixes": 0, "warm_after": 0, "cycle_warm_after": 0}

    def spy_race(mdss, quantum, cuts, heads, cycles, owners1, pre, serve_slow):
        tick["pre"] += sum(pre)
        out = race(mdss, quantum, cuts, heads, cycles, owners1, pre, serve_slow)
        for i, p in enumerate(pre):
            if p:
                seen["prefixes"] += 1
                if out[0][i]:
                    seen["warm_after"] += 1
                    seen["cycle_warm_after"] += cycles[i] is not None
        return out

    def spy_turbo(self, active, now):
        tick.update({"in": True, "ops": 0, "pre": 0})
        try:
            return turbo(self, active, now)
        finally:
            tick["in"] = False
            assert tick["ops"] <= tick["pre"], (now, tick)

    def spy_serve_op(self, c, now):
        if tick["in"]:
            tick["ops"] += 1
        return serve_op(self, c, now)

    monkeypatch.setattr(engine, "capacity_race", spy_race)
    monkeypatch.setattr(engine.ColumnarEngine, "_turbo_tick", spy_turbo)
    monkeypatch.setattr(engine.ScalarEngine, "_serve_op", spy_serve_op)
    run_engine("stale_capacity_churn", "columnar")
    assert seen["prefixes"] > 0
    assert seen["warm_after"] > 0
    assert seen["cycle_warm_after"] > 0


def test_chaos_trace_equivalence():
    """The chaos failure path (faults, aborts, replays) is engine-neutral."""
    from repro.experiments.chaos import run_chaos

    _, _, sim_s = run_chaos("flap", seed=1, engine="scalar")
    _, _, sim_c = run_chaos("flap", seed=1, engine="columnar")
    assert sim_s.trace.dumps() == sim_c.trace.dumps()


class _SharedDirMdtest(MdtestWorkload):
    """Clients 0 and 1 create into one directory; the rest into their own."""

    def client_ops(self, built, client_index, seed):
        d = built.dirs[max(client_index - 1, 0)]
        return RepeatOps((OP_CREATE, d, -1, 0), self.creates_per_client)


class _ReaddirMdtest(MdtestWorkload):
    """Client 0 lists its directory over and over; the rest create."""

    def client_ops(self, built, client_index, seed):
        if client_index == 0:
            return RepeatOps((OP_READDIR, built.dirs[0], -1, 0),
                             self.creates_per_client)
        return super().client_ops(built, client_index, seed)


@pytest.mark.parametrize("workload", [_SharedDirMdtest, _ReaddirMdtest],
                         ids=["shared_dir", "readdir_stream"])
def test_turbo_refusals_equivalent(workload):
    """Structured streams the turbo tick must refuse serve like the reference.

    Every client streams :class:`RepeatOps`, so only the shared-directory
    and non-create guards keep these ticks off the create fast path.
    """
    runs = []
    for engine in ("scalar", "columnar"):
        instance = workload(4, creates_per_client=300).materialize(seed=5)
        sim = Simulator(instance, make_balancer("lunule"),
                        SMALL.with_(engine=engine))
        runs.append((sim.run(), sim))
    (result_s, sim_s), (result_c, sim_c) = runs
    assert result_s.meta_ops == 4 * 300
    assert sim_s.trace.dumps() == sim_c.trace.dumps()
    assert sim_s.tree.n_files == sim_c.tree.n_files
    assert result_s.completion_ticks == result_c.completion_ticks
    assert result_s.served_per_mds == result_c.served_per_mds
    assert result_s.total_forwards == result_c.total_forwards


class TestServeLoopEdges:
    """Semantic checks on the edge conditions, run under both engines."""

    @pytest.fixture(params=["scalar", "columnar"])
    def engine(self, request):
        return request.param

    def test_rate_limited_client_spans_ticks(self, engine):
        """A rate-R client is capped at ceil(R) ops per tick, spanning ticks.

        Serving stops once ``rate_served >= rate``, so the op that crosses
        the threshold still completes: rate 2.5 means exactly 3 ops/tick
        for a client with work queued, and 100 creates take ceil(100/3)
        ticks regardless of MDS capacity.
        """
        sim_cfg = SMALL.with_(n_mds=1, max_ticks=600, engine=engine)
        cfg = ExperimentConfig(workload="mdtest", balancer="nop", n_clients=1,
                               seed=3, scale=1.0, sim=sim_cfg,
                               workload_overrides={"client_rate": 2.5,
                                                   "creates_per_client": 100,
                                                   "jitter": 0.0})
        result, sim = run_traced(cfg)
        assert result.meta_ops == 100
        done = list(result.completion_ticks.values())[0]
        assert done + 1 >= math.ceil(100 / 3)  # rate, not capacity, binds

    def test_lease_expiry_recharges_routing(self, engine):
        """Expiring dentry leases prune stale routing, cutting forwards.

        Forwards happen when a client's cached entry still points at the
        pre-migration authority. With expiry off (ttl=0) stale entries
        linger and keep misrouting; a short TTL forces the client to
        re-charge the entry from the current authority map.
        """
        def forwards(ttl):
            sim_cfg = SMALL.with_(client_lease_ttl=ttl, engine=engine)
            cfg = ExperimentConfig(workload="mixed", balancer="lunule",
                                   n_clients=6, seed=11, scale=0.12,
                                   sim=sim_cfg)
            result, _ = run_traced(cfg)
            return result.total_forwards

        assert forwards(3) < forwards(0)  # deterministic at this seed

    def test_data_window_stalls_and_resumes(self, engine):
        """With the data path on, every client still finishes its stream."""
        sim_cfg = SMALL.with_(engine=engine, data_path=True, max_ticks=3000)
        cfg = ExperimentConfig(workload="zipf", balancer="vanilla",
                               n_clients=4, seed=5, scale=0.1,
                               data_path=True, sim=sim_cfg)
        result, sim = run_traced(cfg)
        assert result.data_ops > 0
        assert len(result.completion_ticks) == 4

    def test_frag_redirects_under_fragmentation(self, engine):
        """A fragmenting run routes file ops to frag owners, not dir auth."""
        result, sim = run_engine("mdtest_lunule", engine)
        frags = sim.authmap.fragmented_dirs()
        assert frags, "scenario expected to fragment at least one dir"
        # Fragment ownership actually spread load: some frag owner differs
        # from the dir's subtree authority.
        spread = False
        for d in frags:
            bits, owners = sim.authmap.frag_state(d)
            auth, _ = sim.authmap.resolve_dir(d)
            if any(o != auth for o in owners):
                spread = True
        assert spread


class TestTreeAccessHistogram:
    """The incremental epoch histograms behind ``unvisited_array``."""

    def test_matches_brute_force_scan(self):
        from repro.namespace.tree import NEVER_ACCESSED, NamespaceTree

        rng = np.random.default_rng(0)
        tree = NamespaceTree()
        dirs = [tree.add_dir(0, f"d{i}") for i in range(4)]
        for d in dirs:
            tree.add_files(d, 30)
        for epoch in range(12):
            for d in dirs:
                for idx in rng.integers(0, 30, size=8):
                    tree.touch_file(d, int(idx), epoch)
            first = tree.n_files[dirs[1]]
            tree.add_files(dirs[1], 5)
            tree.touch_file_range(dirs[1], first, 5, epoch)
            cutoff = epoch - 3
            got = dict(tree.recently_accessed(cutoff))
            for d in dirs:
                arr = tree._file_last_access[d][: tree.n_files[d]]
                want = int(((arr != NEVER_ACCESSED) & (arr >= cutoff)).sum())
                assert got.get(d, 0) == want, (epoch, d)

    def test_n_files_array_mirrors_list(self):
        from repro.namespace.tree import NamespaceTree

        tree = NamespaceTree()
        a = tree.add_dir(0, "a")
        b = tree.add_dir(a, "b")
        tree.add_files(a, 7)
        tree.add_files(b, 3)
        tree.add_files(a, 2)
        arr = tree.n_files_array()
        assert arr.tolist() == [float(x) for x in tree.n_files]
        arr[a] = 99  # a copy, not a view
        assert tree.n_files[a] == 9


class TestSparseHeatLoads:
    """``ClusterView.heat_loads`` sums only live-heat dirs, bit-exactly."""

    def test_matches_dense_extent_walk(self):
        from repro.core.view import ClusterView, RankView
        from repro.namespace.subtree import AuthorityMap
        from repro.namespace.tree import NamespaceTree

        rng = np.random.default_rng(42)
        for trial in range(15):
            tree = NamespaceTree()
            for i in range(int(rng.integers(20, 200))):
                tree.add_dir(int(rng.integers(tree.n_dirs)), f"d{i}")
            ns = AuthorityMap(tree, 0)
            n_mds = 4
            picks = rng.choice(tree.n_dirs - 1,
                               size=min(6, tree.n_dirs - 1), replace=False)
            for d in picks:
                ns.set_subtree_auth(int(d) + 1, int(rng.integers(n_mds)))
            heat = np.where(rng.random(tree.n_dirs) < 0.4,
                            rng.random(tree.n_dirs) * 5, 0.0)
            sub, frags = ns.snapshot_state()
            view = ClusterView(
                epoch=0,
                ranks=tuple(RankView(r, 0.0, 100.0, False, (), 0.0, 0.0, 0)
                            for r in range(n_mds)),
                default_capacity=100.0, tree=tree, subtree_auth=sub,
                frags=frags, heat=heat)
            authmap = view.authority
            ref = [0.0] * n_mds
            for root, auth in authmap.subtree_roots().items():
                ref[auth] += float(sum(heat[d] for d in authmap.extent(root)))
            assert view.heat_loads() == ref, trial
