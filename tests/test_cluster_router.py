"""Routing, client caches and forward accounting."""

import pytest

from repro.cluster.router import ClientRoutingState, Router
from repro.namespace.dirfrag import FragId


@pytest.fixture
def router(authmap):
    return Router(authmap)


@pytest.fixture
def state():
    return ClientRoutingState()


class TestBasicRouting:
    def test_routes_to_authority(self, router, state):
        assert router.route(state, 3, 0)[0] == 0

    def test_follows_subtree_auth(self, router, authmap, state):
        authmap.set_subtree_auth(2, 1)
        assert router.route(state, 3, 0)[0] == 1

    def test_cache_hit_no_forwards(self, router, state):
        router.route(state, 3, 0)
        before = router.total_forwards
        _, hops = router.route(state, 3, 1)
        assert hops == [] and router.total_forwards == before

    def test_single_authority_no_forwards(self, router, state):
        # entire path on one MDS: no authority transitions, no hops
        _, hops = router.route(state, 3, 0)
        assert hops == []


class TestForwards:
    def test_transition_costs_a_hop(self, router, authmap, state):
        authmap.set_subtree_auth(2, 1)
        _, hops = router.route(state, 3, 0)
        # path / -> b -> b1 crosses MDS0 -> MDS1 once
        assert hops == [0]
        assert router.total_forwards == 1

    def test_hops_charged_once_until_invalidation(self, router, authmap, state):
        authmap.set_subtree_auth(2, 1)
        router.route(state, 3, 0)
        _, hops = router.route(state, 3, 2)
        assert hops == []

    def test_unrelated_migration_costs_nothing(self, router, authmap, state):
        authmap.set_subtree_auth(2, 1)
        router.route(state, 3, 0)
        authmap.set_subtree_auth(1, 2)  # a different subtree moved
        _, hops = router.route(state, 3, 0)
        assert hops == []

    def test_stale_entry_redirects_once(self, router, authmap, state):
        router.route(state, 3, 0)
        authmap.set_subtree_auth(2, 1)  # dir 3's subtree moved
        _, hops = router.route(state, 3, 0)
        assert hops == [0]  # the old authority forwards us
        _, hops = router.route(state, 3, 1)
        assert hops == []

    def test_per_dir_hash_many_transitions(self, tree, state):
        # pin every dir to alternating ranks: deep path -> multiple hops
        from repro.namespace.subtree import AuthorityMap
        am = AuthorityMap(tree, 0)
        am.set_subtree_auth(2, 1)
        am.set_subtree_auth(3, 0)
        r = Router(am)
        _, hops = r.route(state, 3, 0)
        # / (0) -> b (1) -> b1 (0): two transitions
        assert hops == [0, 1]


class TestFragRouting:
    def test_frag_owner_serves(self, router, authmap, state):
        authmap.split_dir(3, 1)
        authmap.set_frag_auth(FragId(3, 1, 1), 2)
        assert router.route(state, 3, 1)[0] == 2
        assert router.route(state, 3, 0)[0] == 0

    def test_frag_redirect_counted_once(self, router, authmap, state):
        authmap.split_dir(3, 1)
        authmap.set_frag_auth(FragId(3, 1, 1), 2)
        _, hops1 = router.route(state, 3, 1)
        assert hops1 == [0]
        _, hops2 = router.route(state, 3, 3)  # same frag
        assert hops2 == []

    def test_dir_level_op_ignores_frags(self, router, authmap, state):
        authmap.split_dir(3, 1)
        authmap.set_frag_auth(FragId(3, 1, 0), 2)
        assert router.route(state, 3, -1)[0] == 0


def route_at(r, state, dir_id, file_idx, now):
    """Route as the serve engine does a client's first op of tick ``now``:
    expire its lapsed leases, then route."""
    r.check_lease(state, now)
    return r.route(state, dir_id, file_idx)


class TestLeaseExpiry:
    def test_expiry_recharges_resolution(self, authmap, state):
        authmap.set_subtree_auth(2, 1)
        r = Router(authmap, lease_ttl=10)
        _, hops = route_at(r, state, 3, 0, now=0)
        assert hops == [0]
        _, hops = route_at(r, state, 3, 1, now=5)
        assert hops == []  # lease still valid
        _, hops = route_at(r, state, 3, 2, now=10)
        assert hops == [0]  # lease expired: path re-resolved

    def test_zero_ttl_never_expires(self, authmap, state):
        authmap.set_subtree_auth(2, 1)
        r = Router(authmap, lease_ttl=0)
        route_at(r, state, 3, 0, now=0)
        _, hops = route_at(r, state, 3, 1, now=10_000)
        assert hops == []

    def test_expiry_is_per_client(self, authmap):
        authmap.set_subtree_auth(2, 1)
        r = Router(authmap, lease_ttl=10)
        s1, s2 = ClientRoutingState(), ClientRoutingState()
        route_at(r, s1, 3, 0, now=0)
        route_at(r, s2, 3, 0, now=8)
        _, hops1 = route_at(r, s1, 3, 1, now=12)  # s1's lease expired
        _, hops2 = route_at(r, s2, 3, 1, now=12)  # s2's lease still valid
        assert hops1 == [0] and hops2 == []


class TestStateIsolation:
    def test_clients_have_independent_caches(self, router, authmap):
        s1, s2 = ClientRoutingState(), ClientRoutingState()
        authmap.set_subtree_auth(2, 1)
        router.route(s1, 3, 0)
        before = router.total_forwards
        router.route(s2, 3, 0)
        assert router.total_forwards == before + 1
