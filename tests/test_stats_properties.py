"""Property tests of the cutting-window bookkeeping in AccessStats.

The migration index is only as good as these counters; the properties
below pin down the window algebra regardless of access pattern, and
``TestFoldMatchesPerOp`` checks the epoch fold, the sparse window
entries and the sparse mIndex bit for bit against the per-op updates,
dense windows and dense Eq. 4 they replaced (``PerOpStats`` and
``dense_mindex``, the oracles).
"""

from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.stats import AccessStats
from repro.core.mindex import mindex_per_dir
from repro.namespace.builder import build_fanout
from repro.namespace.tree import NEVER_ACCESSED, NamespaceTree
from repro.util.rng import substream

# an access script: per epoch, a list of (dir_index, file_index) touches
script_strategy = st.lists(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), max_size=30),
    min_size=1, max_size=8,
)


def replay(script, *, windows=3, recurrence=2, sibling=0.0):
    built = build_fanout(5, 10)
    stats = AccessStats(built.tree, recurrence_window=recurrence,
                        pattern_windows=windows,
                        sibling_probability=sibling, seed=1)
    per_epoch = []
    for epoch_ops in script:
        counts = np.zeros(built.tree.n_dirs)
        for di, fi in epoch_ops:
            d = built.dirs[di]
            stats.record_file_access(d, fi)
            counts[d] += 1
        stats.end_epoch()
        per_epoch.append(counts)
    return built, stats, per_epoch


class TestWindowAlgebra:
    @given(script_strategy)
    @settings(max_examples=40, deadline=None)
    def test_window_visits_equal_recent_epoch_sum(self, script):
        built, stats, per_epoch = replay(script, windows=3)
        expected = np.sum(per_epoch[-3:], axis=0)
        assert np.array_equal(stats.pattern_arrays()["visits"], expected)

    @given(script_strategy)
    @settings(max_examples=40, deadline=None)
    def test_visits_partition_into_recurrent_and_first(self, script):
        built, stats, _ = replay(script)
        arrays = stats.pattern_arrays()
        assert np.array_equal(arrays["visits"],
                              arrays["recurrent"] + arrays["first"])

    @given(script_strategy)
    @settings(max_examples=40, deadline=None)
    def test_ls_equals_first_without_sibling_bonus(self, script):
        built, stats, _ = replay(script, sibling=0.0)
        arrays = stats.pattern_arrays()
        assert np.array_equal(arrays["ls"], arrays["first"])

    @given(script_strategy)
    @settings(max_examples=40, deadline=None)
    def test_all_window_sums_non_negative(self, script):
        built, stats, _ = replay(script)
        for name, arr in stats.pattern_arrays().items():
            assert (arr >= 0).all(), name

    @given(script_strategy)
    @settings(max_examples=40, deadline=None)
    def test_unvisited_stock_bounded_by_files(self, script):
        built, stats, _ = replay(script)
        stock = stats.unvisited_array()
        for d in range(built.tree.n_dirs):
            assert 0 <= stock[d] <= built.tree.n_files[d]

    @given(script_strategy, st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_idle_epochs_drain_the_window(self, script, idle):
        built, stats, _ = replay(script, windows=3)
        for _ in range(max(3, idle)):
            stats.end_epoch()
        arrays = stats.pattern_arrays()
        for name in ("visits", "recurrent", "first", "ls", "created"):
            assert np.allclose(arrays[name], 0.0), name


class TestHeatAlgebra:
    @given(script_strategy)
    @settings(max_examples=30, deadline=None)
    def test_heat_is_decayed_visit_sum(self, script):
        built, stats, per_epoch = replay(script)
        decay = stats.heat_decay
        expected = np.zeros(built.tree.n_dirs)
        for counts in per_epoch:
            expected = (expected + counts) * decay
        assert np.allclose(stats.heat_array(), expected)

    @given(script_strategy)
    @settings(max_examples=30, deadline=None)
    def test_heat_never_negative(self, script):
        _, stats, _ = replay(script)
        assert (stats.heat_array() >= 0).all()


# ------------------------------------------------------- the per-op oracle
class PerOpStats:
    """AccessStats as it was before the epoch fold: every access updates
    stamps, counters and heat at once, the sibling pool is a list
    comprehension per active dir, and each closed window is a tuple of
    dense per-dir arrays.

    It shares the tree's structure (dirs, children, file counts) with the
    stats under test but keeps its own per-file stamps, so no access
    state of the code under test feeds it.
    """

    def __init__(self, tree, *, heat_decay, recurrence_window,
                 pattern_windows, sibling_probability, seed):
        self.tree = tree
        self.heat_decay = heat_decay
        self.recurrence_window = recurrence_window
        self.pattern_windows = pattern_windows
        self.sibling_probability = sibling_probability
        self._rng = substream(seed, "access-stats")
        n = tree.n_dirs
        self.heat = [0.0] * n
        self._visits = [0] * n
        self._recurrent = [0] * n
        self._first = [0] * n
        self._created = [0] * n
        self._win = deque()
        self.win_visits = np.zeros(n)
        self.win_recurrent = np.zeros(n)
        self.win_first = np.zeros(n)
        self.win_ls = np.zeros(n)
        self.win_created = np.zeros(n)
        self._dir_last_access = [NEVER_ACCESSED] * n
        self._touched_epoch = set()
        self._heat_live = set()
        self.epoch = 0
        self.last_epoch_mix = {"visits": 0, "recurrent": 0, "first": 0,
                               "created": 0}
        #: (dir, file) -> last-access epoch
        self.stamps = {}

    def _grow(self):
        grow = self.tree.n_dirs - len(self.heat)
        if grow <= 0:
            return
        self.heat.extend([0.0] * grow)
        for name in ("_visits", "_recurrent", "_first", "_created"):
            getattr(self, name).extend([0] * grow)
        self._dir_last_access.extend([NEVER_ACCESSED] * grow)
        for name in ("win_visits", "win_recurrent", "win_first", "win_ls",
                     "win_created"):
            setattr(self, name, np.concatenate([getattr(self, name),
                                                np.zeros(grow)]))

    def _touch(self, d, f):
        if not 0 <= f < self.tree.n_files[d]:
            raise IndexError(f)
        prev = self.stamps.get((d, f), NEVER_ACCESSED)
        self.stamps[(d, f)] = self.epoch
        return prev

    def record_file_access(self, dir_id, file_idx, *, created=False):
        if dir_id >= len(self.heat):
            self._grow()
        self._touched_epoch.add(dir_id)
        prev = self._touch(dir_id, file_idx)
        self.heat[dir_id] += 1.0
        self._visits[dir_id] += 1
        if prev == NEVER_ACCESSED or self.epoch - prev > self.recurrence_window:
            self._first[dir_id] += 1
            if created:
                self._created[dir_id] += 1
        else:
            self._recurrent[dir_id] += 1

    def record_dir_access(self, dir_id):
        if dir_id >= len(self.heat):
            self._grow()
        self._touched_epoch.add(dir_id)
        self.heat[dir_id] += 1.0
        self._visits[dir_id] += 1
        prev = self._dir_last_access[dir_id]
        if prev != NEVER_ACCESSED and self.epoch - prev <= self.recurrence_window:
            self._recurrent[dir_id] += 1
        self._dir_last_access[dir_id] = self.epoch

    def record_create_batch(self, dir_id, first_idx, count):
        if count <= 0:
            return
        if dir_id >= len(self.heat):
            self._grow()
        self._touched_epoch.add(dir_id)
        for f in range(first_idx, first_idx + count):
            assert self._touch(dir_id, f) == NEVER_ACCESSED
        h = self.heat[dir_id]
        for _ in range(count):
            h += 1.0
        self.heat[dir_id] = h
        self._visits[dir_id] += count
        self._first[dir_id] += count
        self._created[dir_id] += count

    def end_epoch(self):
        self._grow()
        n = self.tree.n_dirs
        touched = sorted(self._touched_epoch)
        visits, recurrent, first, created = (np.zeros(n) for _ in range(4))
        for d in touched:
            visits[d] = self._visits[d]
            recurrent[d] = self._recurrent[d]
            first[d] = self._first[d]
            created[d] = self._created[d]
        self.last_epoch_mix = {
            "visits": int(visits.sum()), "recurrent": int(recurrent.sum()),
            "first": int(first.sum()), "created": int(created.sum())}
        ls = first.copy()
        if self.sibling_probability > 0.0:
            active = np.nonzero(first)[0]
            stock = self.unvisited_array() if active.size else None
            for d in active:
                if self._rng.random() >= self.sibling_probability:
                    continue
                parent = self.tree.parent[d]
                if parent < 0:
                    continue
                siblings = self.tree.children[parent]
                if len(siblings) < 2:
                    continue
                unvisited = [s for s in siblings if s != d and stock[s] > 0]
                pool = unvisited if unvisited else [s for s in siblings if s != d]
                if not pool:
                    continue
                pick = int(pool[self._rng.integers(len(pool))])
                ls[pick] += min(first[d], stock[pick])
        self._win.append((visits, recurrent, first, ls, created))
        self.win_visits += visits
        self.win_recurrent += recurrent
        self.win_first += first
        self.win_ls += ls
        self.win_created += created
        if len(self._win) > self.pattern_windows:
            old = self._win.popleft()
            for arr, name in zip(old, ("win_visits", "win_recurrent", "win_first",
                                       "win_ls", "win_created")):
                getattr(self, name)[: arr.size] -= arr
        for d in touched:
            self._visits[d] = self._recurrent[d] = 0
            self._first[d] = self._created[d] = 0
        self._heat_live.update(self._touched_epoch)
        self._touched_epoch.clear()
        for d in self._heat_live:
            self.heat[d] = self.heat[d] * self.heat_decay
        self.epoch += 1

    # readers, from the oracle's own stamps
    def recently_accessed(self, cutoff):
        out = {}
        for (d, _), e in self.stamps.items():
            if e >= cutoff:
                out[d] = out.get(d, 0) + 1
        return out

    def unvisited_counts(self):
        out = list(self.tree.n_files)
        for d, _ in self.stamps:
            out[d] -= 1
        return out

    def stamp_array(self, d):
        arr = np.full(self.tree.n_files[d], NEVER_ACCESSED, dtype=np.int32)
        for (sd, f), e in self.stamps.items():
            if sd == d:
                arr[f] = e
        return arr

    def unvisited_array(self):
        out = self.tree.n_files_array()
        for d, c in self.recently_accessed(self.epoch - self.recurrence_window).items():
            out[d] -= c
        return out

    def heat_array(self):
        self._grow()
        out = np.zeros(len(self.heat))
        for d in self._heat_live | self._touched_epoch:
            out[d] = self.heat[d]
        return out

    def live_heat(self):
        values = [self.heat[d] for d in sorted(self._heat_live | self._touched_epoch)
                  if d < len(self.heat) and self.heat[d] > 0.0]
        return values, self.tree.n_dirs

    def pattern_arrays(self):
        self._grow()
        return {"visits": self.win_visits.copy(),
                "recurrent": self.win_recurrent.copy(),
                "first": self.win_first.copy(), "ls": self.win_ls.copy(),
                "created": self.win_created.copy(),
                "unvisited": self.unvisited_array()}


def dense_mindex(oracle):
    """Paper Eq. 4 over every dir, from the oracle's dense running sums:
    the every-dir body ``analyze`` had before it took a dir subset."""
    arrays = oracle.pattern_arrays()
    visits = arrays["visits"]
    denom = np.maximum(visits, 1.0)
    alpha = arrays["recurrent"] / denom
    spatial_stock = arrays["unvisited"] + arrays["created"]
    beta = np.minimum(1.0, spatial_stock / denom)
    beta[spatial_stock <= 0.0] = 0.0
    return alpha * visits + beta * arrays["ls"]


def _hexes(values):
    return [float(v).hex() for v in values]


def _dense_entry(entry, n):
    """A sparse window entry scattered into the oracle's dense tuple."""
    visits, recurrent, first, ls, created = (np.zeros(n) for _ in range(5))
    visits[entry.dirs] = entry.visits
    recurrent[entry.dirs] = entry.recurrent
    first[entry.dirs] = entry.first
    created[entry.dirs] = entry.created
    ls[entry.ls_dirs] = entry.ls
    return visits, recurrent, first, ls, created


#: ``mindex`` is read through ``mindex_per_dir`` and ``dense_mindex``
READERS = ("heat_array", "live_heat", "unvisited_array", "pattern_arrays",
           "mindex")


def _read(name, stats, oracle):
    if name == "mindex":
        return mindex_per_dir(stats), dense_mindex(oracle)
    return getattr(stats, name)(), getattr(oracle, name)()


def _same_reading(name, got, want):
    if name == "mindex":
        assert got.tobytes() == want.tobytes()
    elif name == "heat_array":
        assert _hexes(got) == _hexes(want)
    elif name == "live_heat":
        assert _hexes(got[0]) == _hexes(want[0]) and got[1] == want[1]
    elif name == "unvisited_array":
        assert np.array_equal(got, want)
    else:
        assert got.keys() == want.keys()
        for key in got:
            assert np.array_equal(got[key], want[key]), key


def _assert_same_state(stats, oracle):
    tree = stats.tree
    assert stats.epoch == oracle.epoch
    assert _hexes(stats.heat) == _hexes(oracle.heat)
    for name in ("_visits", "_recurrent", "_first", "_created",
                 "_dir_last_access"):
        assert getattr(stats, name) == getattr(oracle, name), name
    for name in ("win_visits", "win_recurrent", "win_first", "win_ls",
                 "win_created"):
        assert np.array_equal(getattr(stats, name), getattr(oracle, name)), name
    assert len(stats._win) == len(oracle._win)
    for got, want in zip(stats._win, oracle._win):
        # the dense entry was as long as the namespace when it was closed
        dense = _dense_entry(got, want[0].size)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(dense, want))
    assert stats.last_epoch_mix == oracle.last_epoch_mix
    assert tree._unvisited == oracle.unvisited_counts()
    cutoff = stats.epoch - stats.recurrence_window
    assert dict(tree.recently_accessed(cutoff)) == oracle.recently_accessed(cutoff)
    for d in range(tree.n_dirs):
        arr = tree._file_last_access.get(d)
        got = (arr[: tree.n_files[d]] if arr is not None
               else np.full(tree.n_files[d], NEVER_ACCESSED, dtype=np.int32))
        assert np.array_equal(got, oracle.stamp_array(d)), d
    # the next draw of the sibling-pool stream
    assert stats._rng.bit_generator.state == oracle._rng.bit_generator.state


OP_KINDS = ("read",) * 8 + ("dir", "dir", "create", "batch", "mkdir", "reader")
op_strategy = st.tuples(st.sampled_from(OP_KINDS), st.integers(0, 255),
                        st.integers(0, 255))


@st.composite
def fold_scenarios(draw):
    fanout = draw(st.lists(st.integers(0, 6), min_size=2, max_size=5))
    files = draw(st.lists(st.integers(0, 6), min_size=1, max_size=8))
    params = {
        "recurrence_window": draw(st.integers(1, 4)),
        "heat_decay": draw(st.sampled_from([0.8, 0.7])),
        "sibling_probability": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "pattern_windows": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 3)),
    }
    epochs = draw(st.lists(st.lists(op_strategy, max_size=40),
                           min_size=1, max_size=8))
    return fanout, files, params, epochs


class TestFoldMatchesPerOp:
    """The epoch fold leaves exactly the state the per-op updates left,
    each sparse window entry scatters to the oracle's dense one, and the
    sparse mIndex has the bits of dense Eq. 4 over every dir."""

    @given(fold_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_fold_matches_per_op_oracle(self, scenario):
        fanout, files, params, epochs = scenario
        tree = NamespaceTree()
        # wide fan-outs, so the sibling pool has choices
        for i, width in enumerate(fanout):
            top = tree.add_dir(0, f"t{i}")
            for j in range(width):
                tree.add_dir(top, f"t{i}.{j}")
        for d in range(tree.n_dirs):
            tree.add_files(d, files[d % len(files)])
        stats = AccessStats(tree, **params)
        oracle = PerOpStats(tree, **params)
        for ops in epochs:
            for kind, a, b in ops:
                d = a % tree.n_dirs
                if kind == "read":
                    if tree.n_files[d]:
                        f = b % tree.n_files[d]
                        stats.record_file_access(d, f)
                        oracle.record_file_access(d, f)
                elif kind == "dir":
                    stats.record_dir_access(d)
                    oracle.record_dir_access(d)
                elif kind == "create":
                    f = tree.add_files(d, 1)
                    stats.record_file_access(d, f, created=True)
                    oracle.record_file_access(d, f, created=True)
                elif kind == "batch":
                    count = 1 + b % 4
                    f = tree.add_files(d, count)
                    stats.record_create_batch(d, f, count)
                    oracle.record_create_batch(d, f, count)
                elif kind == "mkdir":
                    tree.add_dir(d, f"m{tree.n_dirs}")
                else:
                    # a reader mid-epoch folds what is logged so far
                    name = READERS[b % len(READERS)]
                    _same_reading(name, *_read(name, stats, oracle))
            stats.end_epoch()
            oracle.end_epoch()
            _assert_same_state(stats, oracle)
            for name in READERS:
                _same_reading(name, *_read(name, stats, oracle))
