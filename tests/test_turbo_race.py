"""The turbo tick's capacity race and the batched heat bump against oracles.

:func:`repro.kernel.engine.capacity_race` serves each client's cold or
stale prefix through the reference path, skips ahead over every round in
which no rank can run dry and steps one round at a time only where a
rank may run dry or a client is still in its prefix.
:func:`stepped_race` below is the race one round at a time, a prefix
served through the stub and then the warm cut within the same turn,
kept here as the oracle: on generated races both must serve the same
ops per client and per rank, count the same waits and leave every credit
with the same bits. ``AccessStats._bump_heat`` adds ``n`` unit steps in
O(log n); its oracle is ``n`` times ``+= 1.0``.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster.stats import AccessStats
from repro.kernel.authtable import owner_cycle
from repro.kernel.engine import _OUT, _SURVIVE, capacity_race
from repro.namespace.tree import NamespaceTree


class Rank:
    """A credit column: the only MDS attribute the race touches."""

    def __init__(self, remaining: float) -> None:
        self.remaining = remaining


class Counted:
    """A credit column that counts the writes to it in ``writes[m]``."""

    def __init__(self, writes: list[int], m: int, r: float) -> None:
        self.writes = writes
        self.m = m
        self._r = r

    @property
    def remaining(self) -> float:
        return self._r

    @remaining.setter
    def remaining(self, r: float) -> None:
        self.writes[self.m] += 1
        self._r = r


def stepped_race(mdss, quantum, cuts, heads, cycles, owners1, pre, serve_slow):
    """The race one round at a time, each turn's prefix ops first."""
    k = len(cuts)
    cnt = [0] * len(mdss)
    served = [0] * k
    pre_left = list(pre)
    wait = 0
    order = list(range(k))
    while order:
        nxt: list[int] = []
        single = len(order) == 1
        budget = (1 << 30) if single else quantum
        for i in order:
            turn = budget
            if pre_left[i]:
                s = min(turn, pre_left[i])
                if serve_slow(i, s) != _SURVIVE:
                    continue
                pre_left[i] -= s
                turn -= s
                if pre_left[i] or not turn:
                    nxt.append(i)
                    continue
            left = cuts[i] - served[i]
            slice_n = left if single or left < turn else turn
            cyc = cycles[i]
            if cyc is None:
                m = owners1[i]
                md = mdss[m]
                r = md.remaining
                if r < 1.0:
                    wait += 1
                    continue
                t = slice_n if r >= slice_n else int(r)
                md.remaining = r - t
                cnt[m] += t
                served[i] += t
                if t < slice_n:
                    wait += 1
                    continue
            else:
                P, starts, lens, sowners, _ = cyc
                pos = (heads[i] + served[i]) % P
                si = bisect_right(starts, pos) - 1
                off = pos - starts[si]
                nseg = len(starts)
                t = 0
                blocked = False
                while t < slice_n:
                    m = sowners[si]
                    md = mdss[m]
                    r = md.remaining
                    if r < 1.0:
                        blocked = True
                        break
                    need = slice_n - t
                    seg_avail = lens[si] - off
                    take = seg_avail if seg_avail < need else need
                    if r < take:
                        take = int(r)
                        md.remaining = r - take
                        cnt[m] += take
                        t += take
                        blocked = True
                        break
                    md.remaining = r - take
                    cnt[m] += take
                    t += take
                    off += take
                    if off == lens[si]:
                        off = 0
                        si += 1
                        if si == nseg:
                            si = 0
                served[i] += t
                if blocked:
                    wait += 1
                    continue
            if served[i] < cuts[i]:
                nxt.append(i)
        order = nxt
    return served, cnt, wait


class SlowClients:
    """Scripted prefixes, served op by op like ``_serve_client``.

    Client ``i``'s prefix has ``pre[i]`` ops, each served on ``rank``;
    each of its first ``hop_ops`` is first forwarded through ``hops``
    (each hop pays ``charge``, which may be fractional). An op that finds
    ``rank`` below one credit blocks the client for the rest of the tick.
    A prefix that covers the client's whole cut (``cuts[i] == 0``) ends
    it: its last op returns ``_OUT``, as the last op of a cut does.
    """

    def __init__(self, mdss, scripts, pre, cuts, charge: float) -> None:
        self.mdss = mdss
        self.scripts = scripts
        self.pre = pre
        self.cuts = cuts
        self.charge = charge
        self.served = dict.fromkeys(scripts, 0)
        self.wait = 0

    def __call__(self, i: int, budget: int) -> int:
        # the race asks only for prefix ops, at least one at a time
        assert 1 <= budget <= self.pre[i] - self.served[i]
        rank, hops, hop_ops = self.scripts[i]
        mdss = self.mdss
        for _ in range(budget):
            md = mdss[rank]
            if md.remaining < 1.0:
                self.wait += 1
                return _OUT
            if self.served[i] < hop_ops:
                for h in hops:
                    mdss[h].remaining -= self.charge
            md.remaining -= 1.0
            self.served[i] += 1
            if self.served[i] == self.pre[i] and self.cuts[i] == 0:
                return _OUT
        return _SURVIVE


@st.composite
def owner_tuples(draw, n_ranks: int) -> tuple[int, ...]:
    """2-256 fragment owners: independent, or in clustered runs."""
    size = draw(st.integers(2, 256))
    rng = draw(st.randoms(use_true_random=False))
    ranks = draw(st.lists(st.integers(0, n_ranks - 1), min_size=1, max_size=4))
    if draw(st.booleans()):
        return tuple(rng.choice(ranks) for _ in range(size))
    seq: list[int] = []
    while len(seq) < size:
        seq.extend([rng.choice(ranks)] * rng.randint(1, 40))
    return tuple(seq[:size])


credits = st.one_of(
    st.integers(-5, 3000).map(float),
    st.floats(-3.0, 3000.0, allow_nan=False),
    st.integers(0, 3000).map(lambda x: x + 0.7),
)


@st.composite
def races(draw):
    n_ranks = draw(st.integers(1, 8))
    start = draw(st.lists(credits, min_size=n_ranks, max_size=n_ranks))
    quantum = draw(st.integers(1, 16))
    k = draw(st.integers(1, 10))
    cuts, heads, cycles, owners1, pre = [], [], [], [], []
    scripts = {}
    for i in range(k):
        kind = draw(st.sampled_from(["single", "cycle"]))
        cuts.append(draw(st.integers(0, 3000)))
        heads.append(draw(st.integers(0, 1 << 20)))
        owners1.append(0)
        cycles.append(None)
        if kind == "single":
            owners1[i] = draw(st.integers(0, n_ranks - 1))
        else:
            cycles[i] = owner_cycle(draw(owner_tuples(n_ranks)))
        # a cold or stale client: its first ops route through the stub
        pre.append(draw(st.integers(1, 300)) if draw(st.booleans()) else 0)
        if pre[i]:
            scripts[i] = (
                draw(st.integers(0, n_ranks - 1)),
                draw(st.lists(st.integers(0, n_ranks - 1), max_size=2)),
                draw(st.integers(0, 5)),
            )
    charge = draw(st.sampled_from([0.3, 0.5, 1.0, 1.7, 2.0]))
    return start, quantum, cuts, heads, cycles, owners1, pre, scripts, charge


def run(race, case):
    start, quantum, cuts, heads, cycles, owners1, pre, scripts, charge = case
    mdss = [Rank(r) for r in start]
    stub = SlowClients(mdss, scripts, pre, cuts, charge)
    served, cnt, wait = race(mdss, quantum, list(cuts), list(heads), cycles,
                             list(owners1), list(pre), stub)
    return (served, cnt, wait, stub.wait, stub.served,
            [md.remaining.hex() for md in mdss])


class TestCapacityRace:
    @given(races())
    @settings(max_examples=300, deadline=None)
    def test_matches_stepped_race(self, case):
        """Served counts, waits and every credit's bits match the oracle."""
        assert run(capacity_race, case) == run(stepped_race, case)

    def test_ample_credits_take_one_skip(self):
        """With no rank able to run dry, each rank is debited once."""
        writes = [0] * 4
        mdss = [Counted(writes, m, 10_000.5) for m in range(4)]
        served, cnt, wait = capacity_race(
            mdss, 8, [1000] * 4, [0] * 4, [None] * 4, [0, 1, 2, 3],
            [0] * 4, lambda i, b: _OUT)
        assert served == [1000] * 4 and cnt == [1000] * 4 and wait == 0
        assert writes == [1, 1, 1, 1]
        assert [md.remaining for md in mdss] == [9000.5] * 4

    def test_skip_then_dry_up(self):
        """The skip stops short of the dry-up, which a stepped round serves."""
        mdss = [Rank(100.0), Rank(100.0)]
        cyc = owner_cycle((0, 0, 1, 1))
        case = ([100.0, 100.0], 8, [1000, 1000], [0, 1], [None, cyc], [0, 0],
                [0, 0], {}, 1.0)
        assert run(capacity_race, case) == run(stepped_race, case)
        served, cnt, wait = capacity_race(
            mdss, 8, [1000, 1000], [0, 1], [None, cyc], [0, 0],
            [0, 0], lambda i, b: _OUT)
        # rank 0 runs dry, and each client blocks on it once
        assert cnt[0] == 100 and mdss[0].remaining == 0.0
        assert wait == 2 and sum(served) == sum(cnt)

    def test_prefix_rejoins_warm_in_the_same_turn(self):
        """A client serves its prefix, the rest of that turn warm, then skips.

        Client 0's 3 prefix ops go through the stub (3 credit writes on
        rank 0); the remaining 5 ops of its first turn are one warm debit;
        with no prefix left, every later round is one skip per rank.
        """
        writes = [0] * 4
        mdss = [Counted(writes, m, 10_000.0) for m in range(4)]
        calls: list[tuple[int, int]] = []

        def serve_slow(i: int, budget: int) -> int:
            calls.append((i, budget))
            for _ in range(budget):
                mdss[0].remaining -= 1.0
            return _SURVIVE

        served, cnt, wait = capacity_race(
            mdss, 8, [997, 1000, 1000, 1000], [3, 0, 0, 0], [None] * 4,
            [0, 1, 2, 3], [3, 0, 0, 0], serve_slow)
        assert calls == [(0, 3)]
        assert served == [997, 1000, 1000, 1000] and wait == 0
        assert cnt == [997, 1000, 1000, 1000]
        assert writes == [3 + 1 + 1, 2, 2, 2]
        assert [md.remaining for md in mdss] == [9000.0] * 4


def unit_steps(h: float, n: int) -> float:
    for _ in range(n):
        h += 1.0
    return h


def _below_power_of_two(e: int, gap: float) -> float:
    return math.ldexp(1.0, e) - gap


heats = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.builds(lambda x, j: x * 0.8 ** j,
              st.integers(1, 100_000), st.integers(0, 60)),
    st.builds(_below_power_of_two, st.integers(1, 52),
              st.sampled_from([0.125, 0.25, 0.5, 1.0, 1.5, 2.0, 3.75])),
    st.builds(lambda e, j: math.ldexp(1.0, e) + 2.0 * j,
              st.integers(52, 60), st.integers(0, 8)),
    st.floats(1.0, 1e6),
)


class TestBumpHeat:
    @given(heats, st.integers(0, 5000))
    @settings(max_examples=500, deadline=None)
    @example(1.0, 5000)
    @example(0.0, 1)
    @example(math.ldexp(1.0, 53) - 1.0, 3)
    @example(math.ldexp(1.0, 53) + 2.0, 5)
    @example(1023.5, 2)
    # a plain ``h += n`` rounds differently on these two
    @example(10.393527904784, 65)
    @example(math.ldexp(1.0, 52) - 0.5, 2)
    def test_matches_unit_steps(self, h, n):
        """``n`` unit steps at once keep the bits of ``n`` ``+= 1.0``."""
        tree = NamespaceTree()
        stats = AccessStats(tree)
        stats.heat[0] = h
        stats._bump_heat(0, n)
        assert stats.heat[0].hex() == unit_steps(h, n).hex()

    @pytest.mark.parametrize("n", [0, 1, 7, 5000])
    def test_record_create_batch_heat(self, n):
        """The batched create record adds heat as ``n`` single creates do."""
        tree = NamespaceTree()
        d = tree.add_dir(0, "d")
        stats = AccessStats(tree)
        stats.heat[d] = 0.8 ** 7 * 13
        first = tree.add_files(d, n)
        stats.record_create_batch(d, first, n)
        assert stats.heat[d].hex() == unit_steps(0.8 ** 7 * 13, n).hex()
