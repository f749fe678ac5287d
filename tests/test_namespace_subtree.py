"""AuthorityMap: resolution, caching, fragmentation, distributions."""

import pytest

from repro.namespace.dirfrag import FragId


class TestResolve:
    def test_everything_on_initial_mds(self, authmap):
        for d in range(authmap.tree.n_dirs):
            assert authmap.resolve_dir(d) == (0, 0)

    def test_nested_subtree_wins(self, authmap):
        authmap.set_subtree_auth(2, 1)
        assert authmap.resolve_dir(3) == (1, 2)
        assert authmap.resolve_dir(1) == (0, 0)

    def test_deeper_root_overrides(self, authmap):
        authmap.set_subtree_auth(2, 1)
        authmap.set_subtree_auth(3, 2)
        assert authmap.resolve_dir(3) == (2, 3)
        assert authmap.resolve_dir(4) == (1, 2)

    def test_resolve_file_defaults_to_dir(self, authmap):
        assert authmap.resolve(1, 0) == 0

    def test_cache_invalidated_on_change(self, authmap):
        assert authmap.resolve_dir(3)[0] == 0
        authmap.set_subtree_auth(2, 1)
        assert authmap.resolve_dir(3)[0] == 1

    def test_negative_rank_rejected(self, authmap):
        with pytest.raises(ValueError):
            authmap.set_subtree_auth(1, -1)

    def test_version_bumps(self, authmap):
        v = authmap.version
        authmap.set_subtree_auth(1, 1)
        assert authmap.version > v


class TestRoots:
    def test_drop_merges_back(self, authmap):
        authmap.set_subtree_auth(2, 1)
        authmap.drop_subtree_root(2)
        assert authmap.resolve_dir(3) == (0, 0)

    def test_drop_root_dir_forbidden(self, authmap):
        with pytest.raises(ValueError):
            authmap.drop_subtree_root(0)

    def test_subtrees_of(self, authmap):
        authmap.set_subtree_auth(1, 1)
        authmap.set_subtree_auth(3, 1)
        assert authmap.subtrees_of(1) == [1, 3]
        assert authmap.subtrees_of(0) == [0]

    def test_extent_excludes_nested(self, authmap):
        authmap.set_subtree_auth(2, 1)
        assert sorted(authmap.extent(0)) == [0, 1]
        assert sorted(authmap.extent(2)) == [2, 3, 4]

    def test_extent_requires_root(self, authmap):
        with pytest.raises(ValueError):
            authmap.extent(1)


class TestFrags:
    def test_split_keeps_current_auth(self, authmap):
        frags = authmap.split_dir(3, 1)
        assert len(frags) == 2
        for f in frags:
            assert authmap.resolve(3, f.frag_no) == 0

    def test_set_frag_auth_routes_files(self, authmap):
        authmap.split_dir(3, 1)
        authmap.set_frag_auth(FragId(3, 1, 1), 2)
        assert authmap.resolve(3, 1) == 2
        assert authmap.resolve(3, 3) == 2
        assert authmap.resolve(3, 0) == 0
        # the dir inode itself stays with the subtree authority
        assert authmap.resolve(3, -1) == 0

    def test_set_frag_auth_requires_matching_split(self, authmap):
        with pytest.raises(ValueError):
            authmap.set_frag_auth(FragId(3, 1, 0), 1)
        authmap.split_dir(3, 1)
        with pytest.raises(ValueError):
            authmap.set_frag_auth(FragId(3, 2, 0), 1)

    def test_resplit_inherits_owner(self, authmap):
        authmap.split_dir(3, 1)
        authmap.set_frag_auth(FragId(3, 1, 1), 2)
        authmap.split_dir(3, 2)
        # sub-frags of frag 1 (i.e. 1 and 3) keep owner 2
        assert authmap.resolve(3, 1) == 2
        assert authmap.resolve(3, 3) == 2
        assert authmap.resolve(3, 0) == 0
        assert authmap.resolve(3, 2) == 0

    def test_frag_state(self, authmap):
        assert authmap.frag_state(3) is None
        authmap.split_dir(3, 2)
        # owners[f] is the rank of frag f, one slot per frag
        assert authmap.frag_state(3) == (2, (0, 0, 0, 0))

    def test_set_frag_auth_replaces_owners(self, authmap):
        authmap.split_dir(3, 2)
        before = authmap.frag_state(3)[1]
        authmap.set_frag_auth(FragId(3, 2, 1), 2)
        after = authmap.frag_state(3)[1]
        assert before == (0, 0, 0, 0)  # a tuple read earlier keeps its values
        assert after is not before
        assert after == (0, 2, 0, 0)

    def test_split_needs_positive_bits(self, authmap):
        with pytest.raises(ValueError):
            authmap.split_dir(3, 0)

    def test_set_frag_auth_rejects_negative_rank(self, authmap):
        authmap.split_dir(3, 1)
        with pytest.raises(ValueError):
            authmap.set_frag_auth(FragId(3, 1, 0), -1)
        assert authmap.frag_state(3) == (1, (0, 0))

    def test_fragment_changes_keep_resolutions(self, authmap):
        # resolution reads only the subtree roots, so a fragment mutator
        # must leave the resolve memo warm
        authmap.set_subtree_auth(2, 1)
        warm = {d: authmap.resolve_dir(d) for d in range(authmap.tree.n_dirs)}
        authmap.split_dir(3, 1)
        authmap.set_frag_auth(FragId(3, 1, 1), 2)
        authmap.merge_uniform_frags()
        authmap.resolve_dir(1)
        assert authmap._cache == warm


class TestInodeDistribution:
    def test_all_on_zero_initially(self, authmap):
        dist = authmap.inode_distribution(3)
        assert dist == [authmap.tree.total_files() + authmap.tree.n_dirs, 0, 0]

    def test_total_preserved_under_any_partition(self, authmap):
        total = sum(authmap.inode_distribution(3))
        authmap.set_subtree_auth(2, 1)
        authmap.split_dir(1, 1)
        authmap.set_frag_auth(FragId(1, 1, 0), 2)
        dist = authmap.inode_distribution(3)
        assert sum(dist) == total
        assert dist[2] >= 1  # received frag files

    def test_frag_files_attributed_to_owner(self, authmap):
        # dir 3 has 4 files; give half to MDS 2
        authmap.split_dir(3, 1)
        authmap.set_frag_auth(FragId(3, 1, 1), 2)
        dist = authmap.inode_distribution(3)
        assert dist[2] == 2
