"""Candidate enumeration and load aggregation."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.balancers.candidates import Candidate, candidates_for, scale_to_load
from repro.balancers.mantle import greedyspill_policy, lunule_selection_policy
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_traced
from repro.namespace.builder import build_fanout
from repro.namespace.dirfrag import FragId, frag_file_count
from repro.namespace.subtree import AuthorityMap
from repro.namespace.tree import NamespaceTree
from tests.test_golden_traces import GOLDEN_SIM


@pytest.fixture
def ns(tree):
    # candidates_for takes any authority namespace; a bare AuthorityMap
    # works (balancers pass the plan's PlanningNamespace overlay).
    return AuthorityMap(tree, 0)


def loads_for(ns, values: dict[int, float]):
    arr = np.zeros(ns.tree.n_dirs)
    for d, v in values.items():
        arr[d] = v
    return arr


def dense_candidates_for(ns, mds: int, per_dir_load) -> list[Candidate]:
    """Reference oracle: the full-extent walk over every directory ``mds``
    governs, cold ones included, folded in reversed pre-order.

    :func:`candidates_for` walks only the load skeleton; it must emit the
    same candidates with nonzero load (and every frag candidate), in the
    same order and with the same bits.
    """
    tree = ns.tree
    out: list[Candidate] = []
    all_roots = set(ns.subtree_roots())

    def emit_frags(d: int) -> None:
        bits, owners = ns.frag_state(d)
        n_files = tree.n_files[d]
        per_file = float(per_dir_load[d]) / n_files if n_files else 0.0
        for fno, owner in enumerate(owners):
            f_files = frag_file_count(n_files, bits, fno)
            if owner == mds and f_files:
                out.append(Candidate(FragId(d, bits, fno), d, per_file * f_files,
                                     per_file * f_files, f_files))

    # every fragment ``mds`` owns, as sorted FragIds: (dir, bits, frag_no)
    owned: list[FragId] = []
    for d in ns.fragmented_dirs():
        bits, owners = ns.frag_state(d)
        owned.extend(FragId(d, bits, fno) for fno, owner in enumerate(owners)
                     if owner == mds)
    owned.sort()

    extents = [tree.subtree_extent(root, all_roots - {root})
               for root in ns.subtrees_of(mds)]
    own = {d for extent in extents for d in extent}
    foreign: set[int] = set()
    for frag in owned:
        if frag.dir_id not in own and frag.dir_id not in foreign:
            foreign.add(frag.dir_id)
            emit_frags(frag.dir_id)

    for extent in extents:
        agg: dict[int, float] = {}
        self_load: dict[int, float] = {}
        self_files: dict[int, int] = {}
        for d in extent:
            if ns.frag_state(d) is None:
                self_load[d], self_files[d] = float(per_dir_load[d]), tree.n_files[d]
            else:
                emit_frags(d)
                self_load[d], self_files[d] = 0.0, 0
            agg[d] = self_load[d]
        for d in reversed(extent[1:]):
            agg[tree.parent[d]] += agg[d]
        out.extend(Candidate(d, d, agg[d], self_load[d], self_files[d])
                   for d in extent if d != 0)

    out.sort(key=lambda c: c.load, reverse=True)
    return out


def decisive(cands: list[Candidate]) -> list[tuple]:
    """Candidates a decision can read, keyed bit for bit: those with
    nonzero load and every frag unit."""
    return [(c.unit, c.load.hex(), c.self_load.hex(), c.self_files)
            for c in cands if c.load != 0 or c.is_frag]


class TestAggregation:
    def test_subtree_load_sums_descendants(self, ns):
        per_dir = loads_for(ns, {2: 5.0, 3: 7.0, 4: 1.0})
        cs = {c.unit: c for c in candidates_for(ns, 0, per_dir)}
        assert cs[2].load == pytest.approx(13.0)
        assert cs[3].load == pytest.approx(7.0)
        assert cs[2].self_load == pytest.approx(5.0)

    def test_root_dir_never_a_candidate(self, ns):
        cs = candidates_for(ns, 0, loads_for(ns, {1: 1.0}))
        assert all(c.unit != 0 for c in cs)

    def test_sorted_descending(self, ns):
        per_dir = loads_for(ns, {1: 2.0, 3: 9.0})
        cs = candidates_for(ns, 0, per_dir)
        loads = [c.load for c in cs]
        assert loads == sorted(loads, reverse=True)

    def test_nested_foreign_subtree_excluded(self, ns):
        ns.set_subtree_auth(3, 1)
        per_dir = loads_for(ns, {2: 5.0, 3: 7.0})
        cs = {c.unit: c for c in candidates_for(ns, 0, per_dir)}
        assert cs[2].load == pytest.approx(5.0)  # dir 3 now someone else's
        assert 3 not in cs

    def test_other_mds_sees_its_extent(self, ns):
        ns.set_subtree_auth(3, 1)
        per_dir = loads_for(ns, {3: 7.0})
        cs = {c.unit: c for c in candidates_for(ns, 1, per_dir)}
        assert set(cs) == {3}
        assert cs[3].load == pytest.approx(7.0)


class TestFragCandidates:
    def test_owned_frags_emitted(self, ns):
        ns.split_dir(3, 1)
        ns.set_frag_auth(FragId(3, 1, 1), 2)
        per_dir = loads_for(ns, {3: 8.0})
        cs = candidates_for(ns, 0, per_dir)
        frags = [c for c in cs if c.is_frag]
        assert len(frags) == 1
        assert frags[0].unit == FragId(3, 1, 0)
        assert frags[0].load == pytest.approx(4.0)  # half the files

    def test_fragmented_dir_candidate_excludes_file_load(self, ns):
        ns.split_dir(3, 1)
        per_dir = loads_for(ns, {3: 8.0})
        cs = {c.unit: c for c in candidates_for(ns, 0, per_dir)}
        assert cs[3].load == 0.0  # files route by frag now
        assert cs[FragId(3, 1, 0)].load + cs[FragId(3, 1, 1)].load == pytest.approx(8.0)

    def test_foreign_frags_not_emitted(self, ns):
        ns.split_dir(3, 1)
        ns.set_frag_auth(FragId(3, 1, 0), 1)
        ns.set_frag_auth(FragId(3, 1, 1), 1)
        cs = candidates_for(ns, 0, loads_for(ns, {3: 8.0}))
        assert not any(c.is_frag for c in cs)


class TestScaleToLoad:
    def test_partition_scales_exactly(self, ns):
        per_dir = loads_for(ns, {1: 3.0, 3: 7.0})
        cs = candidates_for(ns, 0, per_dir)
        scaled = scale_to_load(cs, 100.0)
        assert [s.unit for s in scaled] == [c.unit for c in cs]
        assert [s.load for s in scaled] == pytest.approx([10.0 * c.load for c in cs])
        assert ([s.self_load for s in scaled]
                == pytest.approx([10.0 * c.self_load for c in cs]))

    def test_zero_estimate_returns_zero(self, ns):
        # a fragmented dir keeps zero-load candidates on the skeleton
        ns.split_dir(3, 1)
        cs = candidates_for(ns, 0, np.zeros(ns.tree.n_dirs))
        assert cs
        assert scale_to_load(cs, 100.0) == []

    def test_zero_measured_load_returns_zero(self, ns):
        cs = candidates_for(ns, 0, loads_for(ns, {1: 3.0}))
        assert scale_to_load(cs, 0.0) == []

    def test_frag_partition_not_double_counted(self, ns):
        ns.split_dir(3, 1)
        per_dir = loads_for(ns, {3: 8.0, 1: 2.0})
        cs = candidates_for(ns, 0, per_dir)
        scaled = scale_to_load(cs, 10.0)
        assert [s.load for s in scaled] == pytest.approx([c.load for c in cs])


def two_pass_scale_to_load(candidates, total_load):
    """``scale_to_load`` with its two passes over the candidates, the oracle."""
    if total_load <= 0:
        return []
    est = sum(c.load for c in candidates if c.is_frag)
    est += sum(c.self_load for c in candidates if not c.is_frag)
    if est <= 0:
        return []
    scale = total_load / est
    return [Candidate(c.unit, c.dir_id, c.load * scale, c.self_load * scale,
                      c.self_files)
            for c in candidates]


signed_loads = st.one_of(
    st.just(0.0),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(0.0, 1e-300),
    st.floats(1e-3, 1e9),
)


@st.composite
def candidate_lists(draw):
    """Dir and frag candidates mixed, or all of one kind, or none."""
    mix = draw(st.sampled_from(["mixed", "frags", "dirs", "empty"]))
    n = 0 if mix == "empty" else draw(st.integers(1, 40))
    out = []
    for i in range(n):
        frag = mix == "frags" or (mix == "mixed" and draw(st.booleans()))
        unit = FragId(i, 3, draw(st.integers(0, 7))) if frag else i
        out.append(Candidate(unit, i, draw(signed_loads), draw(signed_loads),
                             draw(st.integers(0, 100))))
    return out


def hexes(cands: list[Candidate]) -> list[tuple]:
    return [(c.unit, c.dir_id, c.load.hex(), c.self_load.hex(), c.self_files)
            for c in cands]


class TestScaleToLoadOnePass:
    @given(candidate_lists(),
           st.one_of(st.just(0.0), st.floats(-10.0, 1e6, allow_nan=False)))
    @settings(max_examples=300, deadline=None)
    @example([], 10.0)
    @example([Candidate(FragId(0, 1, 0), 0, 0.1, 0.0, 1),
              Candidate(1, 1, 9.0, 0.2, 1), Candidate(FragId(0, 1, 1), 0, 0.7, 5.0, 1),
              Candidate(2, 2, 0.0, 0.3, 1)], 3.0)
    def test_matches_two_passes(self, cands, total):
        """The one-pass split keeps every scaled value's bits."""
        assert hexes(scale_to_load(cands, total)) == hexes(
            two_pass_scale_to_load(cands, total))


class TestFanoutScale:
    def test_many_dirs(self):
        b = build_fanout(50, 4)
        ns = AuthorityMap(b.tree, 0)
        per_dir = np.ones(b.tree.n_dirs)
        cs = candidates_for(ns, 0, per_dir)
        by_unit = {c.unit: c for c in cs}
        # the workload root aggregates all 50 leaf dirs plus itself
        assert by_unit[b.root].load == pytest.approx(51.0)
        assert len(cs) == 51


load_values = st.one_of(st.just(0.0), st.just(-0.0),
                        st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def authority_namespaces(draw):
    """A random tree with nested subtree roots and split dirs on up to four
    ranks, plus a signed per-dir load estimate."""
    n_mds = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    tree = NamespaceTree()
    for i, p in enumerate(draw(st.lists(st.integers(0, n), min_size=n, max_size=n)),
                          start=1):
        tree.add_dir(p % i, f"d{i}")
    for d, f in enumerate(draw(st.lists(st.integers(0, 6), min_size=n + 1,
                                        max_size=n + 1))):
        tree.add_files(d, f)
    ns = AuthorityMap(tree, 0)
    rank = st.integers(0, n_mds - 1)
    for d, m in draw(st.lists(st.tuples(st.integers(0, n), rank), max_size=6)):
        ns.set_subtree_auth(d, m)
    for d, bits, owners in draw(st.lists(
            st.tuples(st.integers(0, n), st.integers(1, 2),
                      st.lists(rank, min_size=4, max_size=4)), max_size=4)):
        for frag in ns.split_dir(d, bits):
            ns.set_frag_auth(frag, owners[frag.frag_no])
    loads = np.array(draw(st.lists(load_values, min_size=n + 1, max_size=n + 1)))
    return ns, n_mds, loads


def foreign_frags_out_of_set_order():
    """Rank 1 owns frag 0 of dirs 9 and 3, both governed by rank 0, with
    equal per-file loads. Dir 9 is split first, and a set of the two ids
    iterates 9 before 3, so only an ascending walk emits the two equal-load
    frags in the oracle's order."""
    tree = NamespaceTree()
    for i in range(1, 10):
        tree.add_dir(0, f"d{i}")
    ns = AuthorityMap(tree, 0)
    loads = np.zeros(tree.n_dirs)
    for d in (9, 3):
        tree.add_files(d, 4)
        loads[d] = 2.0
        ns.split_dir(d, 1)
        ns.set_frag_auth(FragId(d, 1, 0), 1)
    assert list(ns.fragmented_dirs()) == [9, 3]
    return ns, 2, loads


class TestSkeletonMatchesOracle:
    """The load-skeleton walk agrees with the full-extent oracle."""

    @given(authority_namespaces(),
           st.one_of(st.just(0.0), st.floats(1e-3, 1e4)))
    @example(foreign_frags_out_of_set_order(), 10.0)
    @settings(max_examples=200, deadline=None)
    def test_generated_namespaces(self, case, measured):
        ns, n_mds, loads = case
        for mds in range(n_mds):
            dense = dense_candidates_for(ns, mds, loads)
            skeleton = candidates_for(ns, mds, loads)
            assert decisive(skeleton) == decisive(dense)
            scaled = scale_to_load(skeleton, measured)
            dense_scaled = scale_to_load(dense, measured)
            assert decisive(scaled) == decisive(dense_scaled)
            assert bool(scaled) == bool(dense_scaled)

    def test_negative_load_seeds_the_skeleton(self):
        # A signed estimate (a Mantle ``which`` hook may return one) must
        # fold its negative entries into the ancestors too.
        b = build_fanout(6, 3)
        ns = AuthorityMap(b.tree, 0)
        loads = loads_for(ns, {b.dirs[0]: 5.0, b.dirs[1]: -2.0, b.dirs[2]: 1.0})
        dense = dense_candidates_for(ns, 0, loads)
        skeleton = candidates_for(ns, 0, loads)
        assert decisive(skeleton) == decisive(dense)
        assert {c.unit: c.load for c in skeleton}[b.root] == 4.0
        scaled = {c.unit: c.load for c in scale_to_load(skeleton, 100.0)}
        assert scaled[b.dirs[0]] == 125.0  # factor 100 / 4


BALANCERS = {
    "lunule": ("lunule", dict, "repro.core.balancer"),
    "lunule-light": ("lunule-light", dict, "repro.core.balancer"),
    "vanilla": ("vanilla", dict, "repro.balancers.vanilla"),
    "greedyspill": ("greedyspill", dict, "repro.balancers.greedyspill"),
    "mantle": ("mantle", dict, "repro.balancers.mantle"),
    "mantle-greedyspill": ("mantle", lambda: {"policy": greedyspill_policy()},
                           "repro.balancers.mantle"),
    "mantle-lunule-select": ("mantle", lambda: {"policy": lunule_selection_policy()},
                             "repro.balancers.mantle"),
}


@pytest.mark.parametrize("name", sorted(BALANCERS))
def test_balancer_decides_the_same_with_the_oracle(name, monkeypatch):
    """Every dynamic balancer writes the same decision trace whether its
    candidates come from the skeleton walk or the full-extent oracle."""
    balancer, kwargs, module = BALANCERS[name]
    cfg = ExperimentConfig(workload="mixed", balancer=balancer, n_clients=8,
                           seed=7, scale=0.15, sim=GOLDEN_SIM)
    calls = []

    def oracle(ns, mds, per_dir_load):
        calls.append(mds)
        return dense_candidates_for(ns, mds, per_dir_load)

    with monkeypatch.context() as m:
        m.setattr(f"{module}.candidates_for", oracle)
        _, dense_sim = run_traced(cfg, balancer_kwargs=kwargs())
    assert calls, "the oracle was never consulted"
    _, sim = run_traced(cfg, balancer_kwargs=kwargs())
    assert sim.trace.dumps() == dense_sim.trace.dumps()
