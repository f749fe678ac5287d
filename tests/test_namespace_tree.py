"""NamespaceTree: structure, file state, traversal."""

import copy

import numpy as np
import pytest

from repro.namespace.tree import NEVER_ACCESSED, NamespaceTree


class TestStructure:
    def test_root_exists(self):
        t = NamespaceTree()
        assert t.n_dirs == 1
        assert t.parent[0] == -1
        assert t.depth[0] == 0

    def test_add_dir_assigns_sequential_ids(self, tree):
        assert tree.n_dirs == 5
        # parent ids are always smaller than child ids (builders rely on it
        # for one-pass bottom-up aggregation)
        for d in range(1, tree.n_dirs):
            assert tree.parent[d] < d

    def test_add_dir_bad_parent(self, tree):
        with pytest.raises(IndexError):
            tree.add_dir(99, "x")

    def test_path(self, tree):
        assert tree.path(0) == "/"
        assert tree.path(1) == "/a"
        assert tree.path(3) == "/b/b1"

    def test_depth(self, tree):
        assert tree.depth[1] == 1
        assert tree.depth[3] == 2

    def test_children_recorded(self, tree):
        assert tree.children[0] == [1, 2]
        assert tree.children[2] == [3, 4]

    def test_ancestors_includes_self_and_root(self, tree):
        assert list(tree.ancestors(3)) == [3, 2, 0]
        assert list(tree.ancestors(0)) == [0]

    def test_walk_preorder_covers_all(self, tree):
        seen = list(tree.walk(0))
        assert sorted(seen) == list(range(tree.n_dirs))
        assert seen[0] == 0

    def test_walk_subtree_only(self, tree):
        assert sorted(tree.walk(2)) == [2, 3, 4]


class TestFiles:
    def test_add_files_returns_first_index(self, tree):
        first = tree.add_files(1, 5)
        assert first == 3  # dir a already had 3 files
        assert tree.n_files[1] == 8

    def test_add_files_negative_rejected(self, tree):
        with pytest.raises(ValueError):
            tree.add_files(1, -1)

    def test_total_files(self, tree):
        assert tree.total_files() == 9

    def test_unvisited_tracks_adds(self, tree):
        assert tree.unvisited_files(1) == 3
        tree.add_files(1, 2)
        assert tree.unvisited_files(1) == 5


class TestTouch:
    def test_first_touch_returns_never(self, tree):
        assert tree.touch_file(1, 0, epoch=4) == NEVER_ACCESSED

    def test_second_touch_returns_prev_epoch(self, tree):
        tree.touch_file(1, 0, epoch=4)
        assert tree.touch_file(1, 0, epoch=9) == 4

    def test_touch_decrements_unvisited_once(self, tree):
        tree.touch_file(1, 0, epoch=1)
        tree.touch_file(1, 0, epoch=2)
        assert tree.unvisited_files(1) == 2

    def test_touch_out_of_range(self, tree):
        with pytest.raises(IndexError):
            tree.touch_file(1, 3, epoch=0)

    def test_touch_after_growth(self, tree):
        tree.touch_file(1, 0, epoch=1)
        idx = tree.add_files(1, 10)
        assert tree.touch_file(1, idx + 5, epoch=2) == NEVER_ACCESSED
        # earlier state survived the growth
        assert tree.touch_file(1, 0, epoch=3) == 1

    def test_batched_touch_matches_one_at_a_time(self, tree):
        rng = np.random.default_rng(5)
        twin = copy.deepcopy(tree)
        dirs = np.array([1, 2, 3])
        for epoch in range(6):
            ds = rng.choice(dirs, size=25)
            fs = np.array([rng.integers(tree.n_files[d]) for d in ds])
            got = tree.touch_files(ds, fs, epoch)
            want = [twin.touch_file(int(d), int(f), epoch) for d, f in zip(ds, fs)]
            assert got.tolist() == want
            assert tree._unvisited == twin._unvisited
            assert dict(tree.recently_accessed(epoch - 2)) == \
                dict(twin.recently_accessed(epoch - 2))
            for d in dirs:
                assert np.array_equal(tree._file_last_access[d][: tree.n_files[d]],
                                      twin._file_last_access[d][: twin.n_files[d]])

    def test_batched_touch_checks_before_writing(self, tree):
        with pytest.raises(IndexError):
            tree.touch_files(np.array([1, 3, 1]), np.array([0, 4, 1]), 0)
        assert tree.unvisited_files(1) == 3
        assert tree.touch_file(1, 0, epoch=1) == NEVER_ACCESSED

    @pytest.mark.parametrize("dir_id, start, count",
                             [(-1, 0, 5), (5, 0, 1), (4, 3, 3), (4, -1, 2)])
    def test_file_range_checks_before_writing(self, tree, dir_id, start, count):
        tree.add_files(4, 5)  # the last dir, which id -1 used to reach
        with pytest.raises(IndexError):
            tree.touch_file_range(dir_id, start, count, epoch=0)
        assert tree._file_last_access == {} and tree._access_counts == {}
        assert [tree.unvisited_files(d) for d in range(tree.n_dirs)] == \
            [0, 3, 2, 4, 5]

    def test_forgotten_slots_are_not_read_or_moved(self, tree):
        tree.touch_file(1, 0, epoch=0)
        tree.touch_file(1, 1, epoch=2)
        tree.forget_access_before(1)
        assert dict(tree.recently_accessed(1)) == {1: 1}
        assert tree._access_base[1] == 1
        # re-touching the epoch-0 file takes nothing back below the floor
        tree.touch_file(1, 0, epoch=3)
        assert dict(tree.recently_accessed(1)) == {1: 2}
        tree.forget_access_before(4)
        assert 1 not in tree._access_counts


class TestExtent:
    def test_extent_without_stops(self, tree):
        assert sorted(tree.subtree_extent(2)) == [2, 3, 4]

    def test_extent_stops_exclude_nested(self, tree):
        assert sorted(tree.subtree_extent(0, {2})) == [0, 1]

    def test_extent_root_in_stop_still_included(self, tree):
        assert sorted(tree.subtree_extent(2, {2, 3})) == [2, 4]

    def test_inode_count(self, tree):
        # dirs count as one inode each plus their files
        assert tree.inode_count([2, 3, 4]) == 3 + 2 + 4
        assert tree.inode_count([]) == 0
