"""Pattern Analyzer: alpha/beta/l_t/l_s under canonical access patterns."""

import numpy as np
import pytest

from repro.cluster.stats import AccessStats
from repro.core.mindex import mindex_per_dir
from repro.core.pattern import analyze
from repro.namespace.builder import build_fanout, build_private_dirs
from repro.namespace.tree import NamespaceTree


def scan_dir(stats, d, n):
    for i in range(n):
        stats.record_file_access(d, i)


class TestScanPattern:
    """CNN/NLP-style: every file touched once, never again."""

    def test_active_dir_is_spatial(self):
        b = build_fanout(5, 20)
        stats = AccessStats(b.tree, sibling_probability=0.0, seed=1)
        d = b.dirs[0]
        scan_dir(stats, d, 10)  # half scanned
        stats.end_epoch()
        p = analyze(stats)
        assert p.alpha[d] == 0.0
        assert p.beta[d] == pytest.approx(1.0)  # 10 unvisited / 10 visits
        assert p.l_s[d] == 10
        assert p.mindex[d] > 0

    def test_fully_scanned_dir_decays_to_zero(self):
        b = build_fanout(5, 10)
        stats = AccessStats(b.tree, recurrence_window=2, pattern_windows=2,
                            sibling_probability=0.0, seed=1)
        d = b.dirs[0]
        scan_dir(stats, d, 10)
        stats.end_epoch()
        stats.end_epoch()
        p = analyze(stats)
        # no unvisited stock left within the window, no recurrence: dead
        assert p.mindex[d] == pytest.approx(0.0)

    def test_unvisited_sibling_gets_predicted_load(self):
        b = build_fanout(5, 20)
        stats = AccessStats(b.tree, sibling_probability=1.0, seed=1)
        scan_dir(stats, b.dirs[0], 20)
        stats.end_epoch()
        p = analyze(stats)
        sibling_mindex = [p.mindex[d] for d in b.dirs[1:]]
        assert max(sibling_mindex) > 0  # the bonus landed somewhere
        bonus_dir = b.dirs[1:][sibling_mindex.index(max(sibling_mindex))]
        assert p.beta[bonus_dir] == pytest.approx(1.0)


class TestRecurrentPattern:
    """Zipf/Web-style: the same files re-touched every epoch."""

    def test_alpha_dominates(self):
        b = build_private_dirs(2, 10)
        stats = AccessStats(b.tree, sibling_probability=0.0, seed=1)
        d = b.dirs[0]
        for _ in range(3):
            scan_dir(stats, d, 10)
            stats.end_epoch()
        p = analyze(stats)
        assert p.alpha[d] > 0.6
        assert p.mindex[d] > 0
        # mindex tracks the visit rate through the l_t term
        assert p.l_t[d] >= 20

    def test_mindex_follows_recent_rate_not_history(self):
        b = build_private_dirs(2, 10)
        stats = AccessStats(b.tree, pattern_windows=2, sibling_probability=0.0,
                            seed=1)
        d = b.dirs[0]
        for _ in range(3):
            scan_dir(stats, d, 10)
            stats.end_epoch()
        hot = analyze(stats).mindex[d]
        for _ in range(3):
            stats.end_epoch()  # gone cold
        cold = analyze(stats).mindex[d]
        assert cold < hot / 5


class TestCreatePattern:
    """MDtest-style: a stream of brand-new inodes."""

    def test_creates_keep_beta_high(self):
        b = build_private_dirs(2, 0)
        stats = AccessStats(b.tree, sibling_probability=0.0, seed=1)
        d = b.dirs[0]
        for _ in range(2):
            for _ in range(20):
                idx = b.tree.add_files(d, 1)
                stats.record_file_access(d, idx, created=True)
            stats.end_epoch()
        p = analyze(stats)
        assert p.beta[d] == pytest.approx(1.0)
        assert p.mindex[d] >= 20  # ~ the create rate per window


class TestColdDirs:
    def test_untouched_dir_has_zero_mindex(self):
        b = build_fanout(3, 10)
        stats = AccessStats(b.tree, sibling_probability=0.0, seed=1)
        stats.end_epoch()
        p = analyze(stats)
        for d in b.dirs:
            assert p.mindex[d] == 0.0
            assert p.beta[d] == 1.0  # full unvisited stock, but no l_s


def epochs_beside_cold(n_cold, n_epochs=12):
    """The same accesses to eight hot dirs beside ``n_cold`` cold ones.

    The cold dirs hang under their own parent, as in ``MegaTreeWorkload``,
    so the hot dirs' sibling pools do not depend on ``n_cold``. Yields
    ``(stats, hot_dirs)`` after each epoch.
    """
    tree = NamespaceTree()
    hot_root = tree.add_dir(0, "hot")
    hot = [tree.add_dir(hot_root, f"h{i}") for i in range(8)]
    for i, d in enumerate(hot):
        tree.add_files(d, 4 + 3 * i)
    cold_root = tree.add_dir(0, "cold")
    for i in range(n_cold // 1000):
        parent = tree.add_dir(cold_root, f"c{i}")
        for j in range(1000):
            tree.add_dir(parent, f"d{j}")
    stats = AccessStats(tree, sibling_probability=0.5, seed=3)
    rng = np.random.default_rng(5)
    for _ in range(n_epochs):
        for _ in range(rng.integers(0, 30)):
            d = hot[rng.integers(len(hot))]
            stats.record_file_access(d, int(rng.integers(tree.n_files[d])))
        if rng.random() < 0.5:
            d = hot[rng.integers(len(hot))]
            stats.record_create_batch(d, tree.add_files(d, 3), 3)
        if rng.random() < 0.3:
            stats.record_dir_access(hot_root)
        stats.end_epoch()
        yield stats, hot


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestColdNamespace:
    """The epoch roll and Eq. 4 work on what the window saw."""

    def test_window_entries_do_not_depend_on_cold_dirs(self):
        for (small, _), (big, _) in zip(epochs_beside_cold(1_000),
                                        epochs_beside_cold(100_000)):
            assert len(small._win) == len(big._win)
            for a, b in zip(small._win, big._win):
                assert len(a) == len(b)
                assert all(_same_bits(x, y) for x, y in zip(a, b))
            assert _same_bits(small.window_dirs(), big.window_dirs())

    def test_analyze_on_dirs_is_the_full_analysis_restricted(self):
        seen_bonus = False
        for stats, hot in epochs_beside_cold(1_000):
            full = analyze(stats)
            window = stats.window_dirs()
            seen_bonus |= any(w.ls_dirs.size > w.dirs.size for w in stats._win)
            cold = stats.tree.n_dirs - 1
            # unsorted, repeated, and with dirs no window names
            for dirs in (window, np.array([cold, *window[::-1], 0, hot[0], 0])):
                part = analyze(stats, dirs)
                for name in ("alpha", "beta", "l_t", "l_s"):
                    assert _same_bits(getattr(part, name),
                                      getattr(full, name)[dirs]), name
            assert _same_bits(mindex_per_dir(stats), full.mindex)
        assert seen_bonus  # some sibling bonus landed outside the touched set
