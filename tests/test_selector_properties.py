"""Property-based tests of the Subtree Selector over random candidate sets."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.balancers.candidates import Candidate, candidates_for
from repro.core.plan import EpochPlan
from repro.core.selector import ExportPlan, SubtreeSelector
from repro.namespace.builder import build_fanout
from repro.namespace.dirfrag import MAX_FRAG_BITS, FragId
from repro.namespace.subtree import AuthorityMap
from repro.namespace.tree import NamespaceTree


def make_env(loads: list[int]):
    """A fanout namespace with one leaf dir per load entry."""
    built = build_fanout(max(1, len(loads)), 10)
    ns = AuthorityMap(built.tree, 0)
    per_dir = np.zeros(built.tree.n_dirs)
    for d, load in zip(built.dirs, loads):
        per_dir[d] = float(load)
    return ns, candidates_for(ns, 0, per_dir)


def selector_for(ns, cands) -> SubtreeSelector:
    return SubtreeSelector(EpochPlan.from_authority(ns), cands)


loads_strategy = st.lists(st.integers(0, 100), min_size=1, max_size=20)
amount_strategy = st.floats(0.5, 300.0)


class TestSelectorProperties:
    @given(loads_strategy, amount_strategy)
    @settings(max_examples=60, deadline=None)
    def test_no_unit_selected_twice(self, loads, amount):
        ns, cands = make_env(loads)
        sel = selector_for(ns, cands)
        plans = sel.select(amount) + sel.select(amount)
        units = [p.unit for p in plans]
        assert len(units) == len(set(units))

    @given(loads_strategy, amount_strategy)
    @settings(max_examples=60, deadline=None)
    def test_all_plans_positive_load(self, loads, amount):
        ns, cands = make_env(loads)
        plans = selector_for(ns, cands).select(amount)
        assert all(p.load > 0 for p in plans)

    @given(loads_strategy, amount_strategy)
    @settings(max_examples=60, deadline=None)
    def test_selection_bounded_by_demand(self, loads, amount):
        # greedy never overshoots beyond tolerance; a path-1/2 single pick
        # may exceed by its 10% band
        ns, cands = make_env(loads)
        plans = selector_for(ns, cands).select(amount)
        got = sum(p.load for p in plans)
        assert got <= max(amount * 1.3, amount + 1.0)

    @given(loads_strategy, amount_strategy)
    @settings(max_examples=60, deadline=None)
    def test_no_ancestor_descendant_pairs(self, loads, amount):
        ns, cands = make_env(loads)
        plans = selector_for(ns, cands).select(amount)
        dir_units = [p.unit for p in plans if not isinstance(p.unit, FragId)]
        taken = set(dir_units)
        for d in dir_units:
            for a in ns.tree.ancestors(d):
                assert a == d or a not in taken

    @given(loads_strategy)
    @settings(max_examples=30, deadline=None)
    def test_zero_amount_empty(self, loads):
        ns, cands = make_env(loads)
        assert selector_for(ns, cands).select(0.0) == []

    @given(amount_strategy)
    @settings(max_examples=20, deadline=None)
    def test_cold_namespace_selects_nothing(self, amount):
        ns, cands = make_env([0, 0, 0, 0])
        assert selector_for(ns, cands).select(amount) == []

    @given(loads_strategy, amount_strategy)
    @settings(max_examples=40, deadline=None)
    def test_frag_plans_reference_real_splits(self, loads, amount):
        ns, cands = make_env(loads)
        sel = selector_for(ns, cands)
        plans = sel.select(amount)
        for p in plans:
            if isinstance(p.unit, FragId):
                # splits land on the plan's namespace overlay, not the live map
                state = sel.plan.namespace.frag_state(p.unit.dir_id)
                assert state is not None
                assert state[0] == p.unit.bits


class UpFrontSelector(SubtreeSelector):
    """The oracle: ``_select`` as it was, with ``_usable`` run over every
    candidate up front."""

    def _select(self, amount: float) -> list[ExportPlan]:
        if amount <= self.min_load:
            return []
        tol = self.tolerance

        usable = [c for c in self.candidates if self._usable(c)]
        if not usable:
            return []

        for c in usable:
            if abs(c.load - amount) <= tol * amount:
                return [self._take(c)]

        plans: list[ExportPlan] = []
        remaining = amount

        over = sorted((c for c in usable if c.load > amount), key=lambda x: x.load)
        for c in over:
            if (not c.is_frag and c.self_files >= 2
                    and c.self_load >= 0.5 * c.load
                    and self.ns.frag_state(c.dir_id) is None):
                plans.extend(self._split_and_take(c, amount))
            elif c.is_frag and c.unit.bits < MAX_FRAG_BITS:
                plans.extend(self._resplit_and_take(c, amount))
            else:
                continue
            break
        if plans:
            got = sum(p.load for p in plans)
            remaining = amount - got
            if remaining <= tol * amount:
                return plans

        for c in self.candidates:
            if remaining <= tol * amount:
                break
            if c.load <= remaining * (1.0 + tol) and self._usable(c):
                plans.append(self._take(c))
                remaining -= c.load
        return plans


#: few distinct loads, so candidates tie with each other and with amounts
tied_loads = st.sampled_from([0.0, 0.5, 1.0, 2.5, 5.0, 9.0, 10.0, 11.0, 20.0, 40.0])


@st.composite
def selection_cases(draw):
    """A nested namespace, dir and frag candidates, and a select sequence."""
    n = draw(st.integers(2, 14))
    tree = NamespaceTree()
    for i in range(1, n):
        d = tree.add_dir(draw(st.integers(0, i - 1)), f"d{i}")
        tree.add_files(d, draw(st.integers(0, 6)))
    ns = AuthorityMap(tree, 0)
    cands = []
    for d in range(1, n):
        kind = draw(st.sampled_from(["none", "dir", "frags", "both"]))
        if kind in ("dir", "both"):
            load = draw(tied_loads)
            share = draw(st.sampled_from([0.0, 0.4, 0.5, 1.0]))
            cands.append(Candidate(d, d, load, load * share,
                                   draw(st.integers(0, 6))))
        if kind in ("frags", "both"):
            bits = draw(st.sampled_from([1, 2, MAX_FRAG_BITS]))
            ns.split_dir(d, bits)
            for f in draw(st.sets(st.integers(0, (1 << bits) - 1),
                                  min_size=1, max_size=3)):
                load = draw(tied_loads)
                cands.append(Candidate(FragId(d, bits, f), d, load, load, 0))
    cands.sort(key=lambda c: c.load, reverse=True)  # as candidates_for ranks
    amounts = draw(st.lists(st.one_of(tied_loads, st.floats(0.0, 60.0)),
                            min_size=1, max_size=4))
    return ns, cands, amounts


def run_selector(cls, ns, cands, amounts):
    sel = cls(EpochPlan.from_authority(ns), cands, exporter=0)
    picks = [[(p.unit, p.load.hex(), p.decision_id)
              for p in sel.select(a, importer=1)] for a in amounts]
    return sel, picks


class TestSelectMatchesUpFrontFilter:
    @given(selection_cases())
    @settings(max_examples=200, deadline=None)
    def test_same_plans_actions_and_blocks(self, case):
        """Testing loads before ``_usable`` changes no selection."""
        ns, cands, amounts = case
        new, got = run_selector(SubtreeSelector, ns, cands, amounts)
        old, want = run_selector(UpFrontSelector, ns, cands, amounts)
        assert got == want
        assert new.plan.actions == old.plan.actions
        assert new._taken_units == old._taken_units
        assert new._blocked_dirs == old._blocked_dirs
        assert new._selected_dirs == old._selected_dirs
