"""Property-based invariants across the authority map, migration and IF model.

These are the safety properties everything else rests on: every directory
always has exactly one authority, the one resolver agrees with a
from-scratch propagation under any mutation sequence, fragment files
partition exactly, inode totals are conserved under arbitrary migration
sequences, and the IF model stays in its documented range.
"""

import copy
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.migration import Migrator
from repro.core.if_model import imbalance_factor
from repro.core.plan import EpochPlan
from repro.kernel.authtable import AuthTable
from repro.namespace.builder import build_fanout
from repro.namespace.dirfrag import FragId
from repro.namespace.subtree import AuthorityMap
from repro.namespace.tree import NamespaceTree


def random_tree(draw_dirs: list[int], files: list[int]) -> NamespaceTree:
    """Build a tree where dir i attaches under parent draw_dirs[i] % i."""
    t = NamespaceTree()
    for i, (p, f) in enumerate(zip(draw_dirs, files), start=1):
        parent = p % i  # valid existing id
        d = t.add_dir(parent, f"d{i}")
        t.add_files(d, f)
    return t


tree_strategy = st.tuples(
    st.lists(st.integers(0, 100), min_size=1, max_size=25),
    st.lists(st.integers(0, 20), min_size=1, max_size=25),
).map(lambda pair: random_tree(pair[0], pair[1][: len(pair[0])] +
                               [0] * max(0, len(pair[0]) - len(pair[1]))))


class TestAuthorityPartition:
    @given(tree_strategy, st.lists(st.tuples(st.integers(0, 200), st.integers(0, 4)),
                                   max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_every_dir_always_resolvable(self, tree, assignments):
        am = AuthorityMap(tree, 0)
        for raw_d, mds in assignments:
            am.set_subtree_auth(raw_d % tree.n_dirs, mds)
        for d in range(tree.n_dirs):
            auth, root = am.resolve_dir(d)
            assert 0 <= auth <= 4
            assert am.is_subtree_root(root)

    @given(tree_strategy, st.lists(st.tuples(st.integers(0, 200), st.integers(0, 4)),
                                   max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_extents_partition_namespace(self, tree, assignments):
        am = AuthorityMap(tree, 0)
        for raw_d, mds in assignments:
            am.set_subtree_auth(raw_d % tree.n_dirs, mds)
        seen: list[int] = []
        for root in am.subtree_roots():
            seen.extend(am.extent(root))
        assert sorted(seen) == list(range(tree.n_dirs))

    @given(tree_strategy, st.lists(st.tuples(st.integers(0, 200), st.integers(0, 4)),
                                   max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_inode_total_invariant(self, tree, assignments):
        am = AuthorityMap(tree, 0)
        expected = tree.n_dirs + tree.total_files()
        for raw_d, mds in assignments:
            am.set_subtree_auth(raw_d % tree.n_dirs, mds)
            assert sum(am.inode_distribution(5)) == expected


def propagated_authority(am: AuthorityMap) -> list[tuple[int, int]]:
    """Oracle: every dir's ``(auth, root)`` by dense parent-pointer propagation.

    Seeds each subtree root with its own id, then pulls each unresolved
    directory's root from its parent until every directory has one. It
    shares no code or cache with ``AuthorityMap.resolve_dir``.
    """
    roots = am.subtree_roots()
    parent = np.asarray(am.tree.parent, dtype=np.int64)
    parent[0] = 0  # the root is its own fixpoint
    owner = np.full(am.tree.n_dirs, -1, dtype=np.int64)
    for d in roots:
        owner[d] = d
    unresolved = owner < 0
    while bool(unresolved.any()):
        owner[unresolved] = owner[parent[unresolved]]
        unresolved = owner < 0
    return [(roots[r], r) for r in owner.tolist()]


def mutate(am: AuthorityMap, step: tuple[int, int, int, int, int]) -> None:
    """Apply one of the six authority mutators, chosen by ``step[0]``."""
    op, raw_d, rank, bits, frag_no = step
    n = am.tree.n_dirs
    if op == 0:
        am.set_subtree_auth(raw_d % n, rank)
    elif op == 1:
        roots = sorted(r for r in am.subtree_roots() if r != 0)
        if roots:
            am.drop_subtree_root(roots[raw_d % len(roots)])
    elif op == 2:
        am.merge_redundant_roots()
    elif op == 3:
        am.split_dir(raw_d % n, bits)
    elif op == 4:
        split = sorted(am.fragmented_dirs())
        if split:
            d = split[raw_d % len(split)]
            dbits = am.frag_state(d)[0]
            am.set_frag_auth(FragId(d, dbits, frag_no % (1 << dbits)), rank)
    else:
        am.merge_uniform_frags()


mutation_steps = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 200), st.integers(0, 2),
              st.integers(1, 3), st.integers(0, 7)),
    min_size=1, max_size=30)


class TestResolverOracle:
    @given(tree_strategy,
           st.lists(st.tuples(st.integers(0, 200), st.integers(0, 2)), max_size=5),
           mutation_steps)
    @settings(max_examples=100, deadline=None)
    def test_resolve_dir_matches_propagation_after_every_mutation(
            self, tree, pins, steps):
        live = AuthorityMap(tree, 0)
        for raw_d, rank in pins:
            live.set_subtree_auth(raw_d % tree.n_dirs, rank)
        planning = EpochPlan.from_authority(live).namespace
        table = AuthTable(live)
        for i, step in enumerate(steps):
            # a snapshot shares the owner tuples, so it must never change
            # after it is taken, whatever the maps do next
            snaps = [am.snapshot_state() for am in (live, planning)]
            copies = copy.deepcopy(snaps)
            for am in (live, planning):
                mutate(am, step)
                expected = propagated_authority(am)
                # alternate the read order so walks both start cold at the
                # leaves and stop early at a resolved parent; every dir is
                # read, so the memo is warm when the next mutation lands
                order = range(tree.n_dirs) if i % 2 else reversed(range(tree.n_dirs))
                for d in order:
                    assert am.resolve_dir(d) == expected[d], (step, d)
            assert snaps == copies, step
            assert planning.snapshot_state() == live.snapshot_state()
            table.refresh()
            fresh = AuthTable(live)
            fresh.refresh()
            assert table.frag_seq == fresh.frag_seq
            assert table.frag_cycle == fresh.frag_cycle
            for d, cyc in table.frag_cycle.items():
                # the segments spell the tuple, and each owner is
                # counted with exactly its fragments
                seq = live.frag_state(d)[1]
                assert cyc.size == len(seq)
                assert [o for o, n in zip(cyc.owners, cyc.lens)
                        for _ in range(n)] == list(seq)
                assert cyc.starts == [sum(cyc.lens[:j])
                                      for j in range(len(cyc.lens))]
                assert cyc.counts == tuple(sorted(Counter(seq).items()))


class TestFragPartition:
    @given(st.integers(0, 500), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_resplit_preserves_file_routing_totals(self, n_files, bits1, bits2):
        tree = NamespaceTree()
        d = tree.add_dir(0, "big")
        tree.add_files(d, n_files)
        am = AuthorityMap(tree, 0)
        am.split_dir(d, bits1)
        am.frag_state(d)
        owners_before = [am.resolve(d, i) for i in range(n_files)]
        if bits2 > bits1:
            am.split_dir(d, bits2)
            owners_after = [am.resolve(d, i) for i in range(n_files)]
            assert owners_before == owners_after  # re-split never moves files


class TestMigrationConservation:
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 3)), min_size=1,
                    max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_export_sequence_conserves_inodes(self, moves):
        built = build_fanout(8, 5)
        am = AuthorityMap(built.tree, 0)
        mig = Migrator(am, rate=1000, commit_latency=0)
        expected = sum(am.inode_distribution(4))
        for raw_d, dst in moves:
            d = raw_d % built.tree.n_dirs
            if d == 0:
                continue
            src = am.resolve_dir(d)[0]
            if src == dst:
                continue
            mig.submit_export(src, dst, d)
            for _ in range(3):
                mig.tick()
            assert sum(am.inode_distribution(4)) == expected
        assert mig.committed_tasks + mig.aborted_tasks <= len(moves)


class TestIfModelProperties:
    @given(st.lists(st.floats(0, 1000), min_size=2, max_size=20),
           st.floats(1.0, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_if_in_unit_interval(self, loads, cap):
        v = imbalance_factor(loads, cap)
        assert 0.0 <= v <= 1.0
        assert not math.isnan(v)

    @given(st.integers(2, 16), st.floats(1.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_single_hot_is_maximal_shape(self, n, load):
        skewed = [load] + [0.0] * (n - 1)
        balanced = [load / n] * n
        cap = load
        assert imbalance_factor(skewed, cap) > imbalance_factor(balanced, cap)

    @given(st.lists(st.floats(1.0, 100.0), min_size=2, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, loads):
        a = imbalance_factor(loads, 200.0)
        b = imbalance_factor(list(reversed(loads)), 200.0)
        assert a == pytest.approx(b)


class TestRouterTotalServed:
    @given(st.integers(2, 6), st.integers(1, 30))
    @settings(max_examples=20, deadline=None)
    def test_simulation_op_conservation(self, n_clients, reads):
        from repro.balancers import make_balancer
        from repro.cluster.simulator import SimConfig, Simulator
        from repro.workloads import ZipfWorkload

        wl = ZipfWorkload(n_clients, files_per_dir=10, reads_per_client=reads)
        sim = Simulator(wl.materialize(seed=1), make_balancer("lunule"),
                        SimConfig(n_mds=3, mds_capacity=40, epoch_len=5,
                                  max_ticks=5000))
        res = sim.run()
        assert sum(res.served_per_mds) == n_clients * reads
        assert len(res.completion_ticks) == n_clients
