"""AccessStats: heat, cutting windows, locality classification."""

import numpy as np
import pytest

from repro.cluster.stats import AccessStats
from repro.namespace.builder import build_private_dirs
from repro.namespace.tree import NEVER_ACCESSED, NamespaceTree


@pytest.fixture
def stats(tree):
    return AccessStats(tree, heat_decay=0.5, recurrence_window=2,
                       pattern_windows=2, sibling_probability=0.0, seed=1)


class TestValidation:
    def test_bad_decay(self, tree):
        with pytest.raises(ValueError):
            AccessStats(tree, heat_decay=0.0)

    def test_bad_windows(self, tree):
        with pytest.raises(ValueError):
            AccessStats(tree, recurrence_window=0)

    def test_bad_probability(self, tree):
        with pytest.raises(ValueError):
            AccessStats(tree, sibling_probability=1.5)


class TestHeat:
    def test_accumulates_in_epoch(self, stats):
        stats.record_file_access(1, 0)
        stats.record_file_access(1, 1)
        assert stats.heat_array()[1] == pytest.approx(2.0)

    def test_decays_at_epoch_end(self, stats):
        stats.record_file_access(1, 0)
        stats.record_file_access(1, 1)
        stats.end_epoch()
        assert stats.heat_array()[1] == pytest.approx(1.0)  # 2 * 0.5

    def test_dir_access_heats(self, stats):
        stats.record_dir_access(2)
        assert stats.heat_array()[2] == pytest.approx(1.0)


class TestClassification:
    def test_first_touch_is_spatial(self, stats):
        stats.record_file_access(1, 0)
        stats.end_epoch()
        p = stats.pattern_arrays()
        assert p["first"][1] == 1 and p["recurrent"][1] == 0

    def test_retouch_within_window_is_recurrent(self, stats):
        stats.record_file_access(1, 0)
        stats.end_epoch()
        stats.record_file_access(1, 0)
        stats.end_epoch()
        p = stats.pattern_arrays()
        assert p["recurrent"][1] == 1

    def test_retouch_same_epoch_is_recurrent(self, stats):
        stats.record_file_access(1, 0)
        stats.record_file_access(1, 0)
        stats.end_epoch()
        p = stats.pattern_arrays()
        assert p["recurrent"][1] == 1 and p["first"][1] == 1

    def test_retouch_beyond_window_is_spatial_again(self, stats):
        # window = 2 epochs: a file untouched for 3 epochs is unvisited again
        stats.record_file_access(1, 0)
        for _ in range(4):
            stats.end_epoch()
        stats.record_file_access(1, 0)
        stats.end_epoch()
        p = stats.pattern_arrays()
        assert p["first"][1] == 1 and p["recurrent"][1] == 0

    def test_created_counts(self, stats, tree):
        idx = tree.add_files(1, 1)
        stats.record_file_access(1, idx, created=True)
        stats.end_epoch()
        p = stats.pattern_arrays()
        assert p["created"][1] == 1 and p["first"][1] == 1


class TestWindows:
    def test_window_sums_roll(self, stats):
        stats.record_file_access(1, 0)
        stats.end_epoch()  # epoch 0
        stats.end_epoch()  # epoch 1
        assert stats.pattern_arrays()["visits"][1] == 1  # still in 2-window
        stats.end_epoch()  # epoch 2: epoch-0 data leaves the window
        assert stats.pattern_arrays()["visits"][1] == 0

    def test_ls_includes_first_visits(self, stats):
        stats.record_file_access(1, 0)
        stats.end_epoch()
        assert stats.pattern_arrays()["ls"][1] == 1


class TestUnvisitedStock:
    def test_initial_stock_is_all_files(self, stats, tree):
        stock = stats.unvisited_array()
        assert stock[1] == 3 and stock[3] == 4

    def test_access_reduces_stock(self, stats):
        stats.record_file_access(1, 0)
        stats.end_epoch()
        assert stats.unvisited_array()[1] == 2

    def test_stock_returns_after_window(self, stats):
        stats.record_file_access(1, 0)
        for _ in range(4):
            stats.end_epoch()
        assert stats.unvisited_array()[1] == 3  # sliding definition


class TestSiblingBonus:
    def test_bonus_lands_on_a_sibling(self, tree):
        stats = AccessStats(tree, sibling_probability=1.0, seed=1)
        tree.add_files(4, 5)  # give the sibling unvisited stock
        # dir 3 (b1) has sibling dir 4 (b2)
        stats.record_file_access(3, 0)
        stats.end_epoch()
        p = stats.pattern_arrays()
        assert p["ls"][3] == 1  # own first visit
        assert p["ls"][4] == 1  # sibling bonus (only possible sibling)

    def test_bonus_capped_by_sibling_stock(self, tree):
        stats = AccessStats(tree, sibling_probability=1.0, seed=1)
        # sibling dir 4 (b2) is empty: it cannot absorb any future visits
        for i in range(4):
            stats.record_file_access(3, i)
        stats.end_epoch()
        assert stats.pattern_arrays()["ls"][4] == 0

    def test_no_bonus_when_disabled(self, tree):
        stats = AccessStats(tree, sibling_probability=0.0, seed=1)
        stats.record_file_access(3, 0)
        stats.end_epoch()
        assert stats.pattern_arrays()["ls"][4] == 0


class TestGrowth:
    def test_new_dirs_get_stats(self, tree):
        stats = AccessStats(tree, sibling_probability=0.0)
        d = tree.add_dir(0, "late")
        tree.add_files(d, 2)
        stats.record_file_access(d, 0)
        stats.end_epoch()
        p = stats.pattern_arrays()
        assert p["visits"][d] == 1
        assert stats.unvisited_array()[d] == 1


class TestOpTimeChecks:
    def test_file_out_of_range_raises_at_the_op(self, stats):
        with pytest.raises(IndexError):
            stats.record_file_access(1, 3)  # dir 1 holds files 0..2
        with pytest.raises(IndexError):
            stats.record_file_access(1, -1)
        stats.end_epoch()  # nothing was logged
        assert stats.pattern_arrays()["visits"][1] == 0

    @pytest.mark.parametrize("dir_id", [-1, 5, 99])
    def test_unknown_dir_raises_at_the_op(self, stats, dir_id):
        with pytest.raises(IndexError):
            stats.record_file_access(dir_id, 0)
        with pytest.raises(IndexError):
            stats.record_dir_access(dir_id)

    # A create run naming an unknown dir or files past the end raises
    # before it writes anything (a negative dir id used to reach the last
    # dir).
    @pytest.mark.parametrize("dir_id, first_idx, count",
                             [(-1, 0, 5), (5, 0, 1), (4, 8, 3), (4, -1, 2)])
    def test_create_batch_raises_before_writing(self, dir_id, first_idx, count):
        tree = build_private_dirs(3, 10).tree
        stats = AccessStats(tree, heat_decay=0.5, sibling_probability=0.0)
        with pytest.raises(IndexError):
            stats.record_create_batch(dir_id, first_idx, count)
        assert not stats.heat_array().any()
        assert np.array_equal(stats.unvisited_array(), tree.n_files_array())
        assert tree._file_last_access == {} and tree._access_counts == {}
        stats.end_epoch()
        assert not stats._win[0].dirs.size
        arrays = stats.pattern_arrays()
        for name in ("visits", "recurrent", "first", "ls", "created"):
            assert not arrays[name].any(), name

    def test_misused_create_batch_leaves_heat_alone(self):
        tree = build_private_dirs(3, 10).tree
        stats = AccessStats(tree, heat_decay=0.5, sibling_probability=0.0)
        with pytest.raises(IndexError):
            stats.record_create_batch(-1, 0, 5)
        stats.record_file_access(4, 0)
        stats.end_epoch()
        stats.end_epoch()
        assert stats.heat_array()[4] == 0.25


class TestHistogramFloor:
    """The tree forgets the histogram slots no window reads any more."""

    def test_long_run_keeps_histograms_within_the_window(self):
        rng = np.random.default_rng(3)
        tree = NamespaceTree()
        dirs = [tree.add_dir(0, f"d{i}") for i in range(4)]
        for d in dirs:
            tree.add_files(d, 20)
        window = 3
        stats = AccessStats(tree, recurrence_window=window,
                            sibling_probability=0.5, seed=2)

        def check_lists():
            assert all(len(c) <= window + 1
                       for c in tree._access_counts.values())

        for _ in range(2000):
            # a few dirs re-touched; the rest idle, some past the window
            for d in rng.choice(dirs, size=rng.integers(0, 3), replace=False):
                d = int(d)
                for f in rng.integers(0, tree.n_files[d], size=rng.integers(1, 6)):
                    stats.record_file_access(d, int(f))
            if rng.random() < 0.1:
                d = dirs[rng.integers(len(dirs))]
                stats.record_create_batch(d, tree.add_files(d, 2), 2)
            if rng.random() < 0.2:
                stats.heat_array()  # a fold mid-epoch
                check_lists()
            stats.end_epoch()
            check_lists()
            # a dir with an all-zero window has left the histograms
            assert all(any(c) for c in tree._access_counts.values())
            cutoff = stats.epoch - window
            want = tree.n_files_array()
            for d, arr in tree._file_last_access.items():
                arr = arr[: tree.n_files[d]]
                want[d] -= ((arr != NEVER_ACCESSED) & (arr >= cutoff)).sum()
            assert np.array_equal(stats.unvisited_array(), want)
