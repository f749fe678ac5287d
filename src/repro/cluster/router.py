"""Request routing with client-side caching and forward accounting.

A client asks the MDS it believes is authoritative for the target directory.
Two situations cost *forward hops*, each a real message handled by the hop
MDS:

- **first resolution** — path components are looked up owner by owner, so
  every authority transition along an unresolved path chain is one hop;
- **stale cache** — after a migration, the client's cached authority
  answers with a redirect: one hop per moved directory (or dirfrag) per
  client, on the next touch. CephFS clients are invalidated per subtree,
  not wholesale, so a migration does not re-charge untouched paths.

Dynamic subtree partitioning keeps paths within one authority most of the
time; hash-based placement (Dir-Hash) scatters adjacent path components
across MDSs, which is exactly the ~2x-forwards effect of paper Fig. 14.
"""

from __future__ import annotations

from repro.namespace.subtree import AuthorityMap

__all__ = ["Router", "ClientRoutingState"]


class ClientRoutingState:
    """Per-client caches: dir / (dir, frag) -> auth MDS, + resolved prefixes."""

    __slots__ = ("auth_cache", "resolved", "lease_expiry")

    def __init__(self) -> None:
        self.auth_cache: dict[object, int] = {}
        self.resolved: set[int] = set()
        self.lease_expiry = -1


class Router:
    """Routes an op to its authoritative MDS, counting forward hops.

    ``lease_ttl`` models CephFS's client-cache trimming: dentry leases
    expire, so clients periodically re-resolve paths. Under subtree
    partitioning re-resolution is nearly free (whole paths share one
    authority); under hash placement it re-pays one hop per authority
    transition — the mechanism behind Dir-Hash's sustained forward overhead
    (paper Fig. 14). ``lease_ttl <= 0`` disables expiry.
    """

    def __init__(self, authmap: AuthorityMap, forward_charge: float = 1.0,
                 lease_ttl: int = 0, metrics=None) -> None:
        self.authmap = authmap
        self.forward_charge = float(forward_charge)
        self.lease_ttl = int(lease_ttl)
        self.total_forwards = 0
        # Held, not re-fetched: route() is the simulator's hottest path.
        self._c_forwards = (metrics.counter("router.forwards")
                            if metrics is not None else None)
        self._c_lease_expiries = (metrics.counter("router.lease_expiries")
                                  if metrics is not None else None)

    def check_lease(self, state: ClientRoutingState, now: int) -> None:
        """Expire the client's dentry leases if their TTL lapsed.

        The serve engine calls it once per active client at the start of
        each tick, before that client's first :meth:`route`; a lease can
        lapse only between ticks. Idempotent within a tick: after the
        first call the expiry is re-armed at ``now + lease_ttl > now``, so
        repeated calls are no-ops.
        """
        if self.lease_ttl <= 0:
            return
        if state.lease_expiry < 0:
            state.lease_expiry = now + self.lease_ttl
        elif now >= state.lease_expiry:
            state.auth_cache.clear()
            state.resolved.clear()
            state.lease_expiry = now + self.lease_ttl
            if self._c_lease_expiries is not None:
                self._c_lease_expiries.inc()

    def route(self, state: ClientRoutingState, dir_id: int,
              file_idx: int = -1) -> tuple[int, list[int]]:
        """Resolve the serving MDS for an op.

        Returns ``(auth_mds, forward_hops)``; ``forward_hops`` lists the MDS
        ranks that relayed the request (empty on a fresh cache hit). Lease
        expiry is not checked here: see :meth:`check_lease`.
        """
        authmap = self.authmap
        tree = authmap.tree
        cache = state.auth_cache

        hops: list[int] = []
        true_auth = authmap.resolve_dir(dir_id)[0]
        cached = cache.get(dir_id)
        if cached is None:
            # Walk up to the nearest resolved ancestor; every authority
            # transition along the unresolved chain is a forward hop, since
            # each path component must be looked up on its owner.
            chain: list[int] = []
            anchor: int | None = None
            for d in tree.ancestors(dir_id):
                if d in state.resolved:
                    anchor = d
                    break
                chain.append(d)
            prev_auth: int | None = cache.get(anchor) if anchor is not None else None
            for d in reversed(chain):
                auth = authmap.resolve_dir(d)[0]
                if prev_auth is not None and auth != prev_auth:
                    hops.append(prev_auth)
                prev_auth = auth
                state.resolved.add(d)
                cache[d] = auth
        elif cached != true_auth:
            # Migration redirect: the stale authority forwards us once.
            hops.append(cached)
            cache[dir_id] = true_auth

        serving = true_auth
        frag = authmap.frag_state(dir_id) if file_idx >= 0 else None
        if frag is not None:
            bits, owners = frag
            frag_no = file_idx & ((1 << bits) - 1)
            frag_auth = owners[frag_no]
            key = (dir_id, frag_no)
            cached_frag = cache.get(key)
            if cached_frag is None:
                if frag_auth != true_auth:
                    hops.append(true_auth)
            elif cached_frag != frag_auth:
                hops.append(cached_frag)
            cache[key] = frag_auth
            serving = frag_auth

        if hops:
            self.total_forwards += len(hops)
            if self._c_forwards is not None:
                self._c_forwards.inc(len(hops))
        return serving, hops
