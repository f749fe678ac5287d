"""The serve loop: one per-op reference path plus the columnar turbo tick.

:class:`ScalarEngine` is the reference. Each tick it scans the active
clients, expires the dentry leases of each one whose TTL lapsed
(:meth:`~repro.cluster.router.Router.check_lease`, once per active client
per tick), and drains them round-robin, at most ``serve_quantum`` ops per
client per round, one op at a time through
:meth:`ScalarEngine._serve_op`: route, capacity check, forward charges,
serve, log the access, advance. Round-robin interleaving is the only
thing capacity contention and shared-directory creates can observe, so
every engine preserves it exactly.

Logging an access is an O(1) append:
:meth:`~repro.cluster.stats.AccessStats.record_file_access` and
:meth:`~repro.cluster.stats.AccessStats.record_dir_access` check the
op's indices and queue it, and :class:`~repro.cluster.stats.AccessStats`
folds the epoch's queue with numpy when it is next read, at the latest at
the epoch boundary. Nothing in the serve loop reads access statistics.

:class:`ColumnarEngine` (the default) is the same loop plus one
tick-level fast path, :meth:`ColumnarEngine._turbo_tick`, for the
homogeneous regime: every active client a create stream
(:class:`~repro.workloads.base.RepeatOps`) into its own directory, the
mdtest-style create storm that is the serve path's worst case. There the
whole tick collapses to integer arithmetic:

- authority is resolved once per client per tick through
  :meth:`~repro.namespace.subtree.AuthorityMap.resolve_dir`, and
  fragment owners come from the map's own owners tuples, which the
  :class:`~repro.kernel.authtable.AuthTable` holds with their run-length
  segments (rebuilt only for a tuple the map has replaced), instead of
  one resolution per op;
- each client's cut comes from its queue of stalling draw indices
  (:meth:`~repro.workloads.base.Client.stall_scan`), a peek that
  consumes no draw;
- round-robin capacity contention is emulated over per-directory
  fragment-owner cycles without touching an op
  (:func:`capacity_race`): every run of rounds in which no rank can run
  dry is served in one step per client, and rounds are stepped one at a
  time only where a rank may run dry or a client is still in its
  prefix (below), so the race costs what its clients and dry-ups do,
  not what its ops do;
- each client gets exactly one batched apply per tick: MDS credits,
  :meth:`~repro.cluster.stats.AccessStats.record_create_batch` and
  :meth:`~repro.workloads.base.Client.advance_bulk`.

A client whose cache is cold or stale (its directory or a fragment moved,
or its lease lapsed) routes a prefix of its tick through the reference
path, op by op inside the same round-robin race: its creates up to the
last one whose directory or fragment key is not cached at its live
owner. Those routes cache every key its later creates touch, and a route
on such a key writes nothing and hops nowhere, so the client rejoins the
warm race for the rest of its cut, within the same turn. Any client that
breaks the regime (a data op, a rate limit, a non-create or shared
directory stream) sends the whole tick down the reference loop.

Decision equivalence is the contract: both engines produce byte-identical
decision traces for every configuration (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from typing import Any

from repro.cluster.mds import MDS
from repro.cluster.osd import OsdPool
from repro.cluster.router import Router
from repro.cluster.stats import AccessStats
from repro.kernel.authtable import AuthTable, OwnerCycle
from repro.namespace.tree import NamespaceTree
from repro.workloads.base import OP_CREATE, OP_READDIR, Client

__all__ = ["ENGINES", "ColumnarEngine", "ScalarEngine", "capacity_race"]

# outcome of one client's turn in a round
_SURVIVE = 0  # quantum exhausted while still ready: rejoin next round
_OUT = 1  # out for the rest of this tick (stall/done/rate/data/capacity)

# outcome of a single op
_OP_SERVED = 0
_OP_OUT = 1
_OP_BLOCKED = 2

#: credits at or above this are never skipped ahead: an integer debit is
#: exact only while ulp(credit) <= 1
_EXACT_CREDIT = float(1 << 53)


def capacity_race(mdss: list[MDS], quantum: int, cuts: list[int],
                  heads: list[int], cycles: list[OwnerCycle | None],
                  owners1: list[int], pre: list[int],
                  serve_slow: Callable[[int, int], int],
                  ) -> tuple[list[int], list[int], int]:
    """The turbo tick's round-robin capacity race over plain lists.

    Client ``i`` first serves a prefix of ``pre[i]`` ops through
    ``serve_slow(i, budget)``, which returns ``_SURVIVE`` or ``_OUT`` and
    debits what it serves itself; then it wants ``cuts[i]`` warm creates.
    Its ``j``-th warm create lands on position ``(heads[i] + j) % size``
    of the fragment cycle ``cycles[i]`` and debits that position's
    owner, or, when ``cycles[i]`` is None, debits rank ``owners1[i]``.
    Each round gives every client in the race one turn of at most
    ``quantum`` ops (a lone client takes the rest of its cut): a turn
    still in its prefix serves up to the prefix's end through
    ``serve_slow`` and, if that survives and the prefix is done, spends
    the rest of its budget warm. A warm turn that finds its rank's credit
    below 1 blocks the client for the rest of the tick and counts one
    wait. A prefix that covers the whole cut (``cuts[i] == 0``) must end
    in ``_OUT``, as the last op of a cut does. Credits are
    ``mdss[m].remaining``, debited in place. Returns the warm ops served
    per client, the warm ops served per rank and the wait count.

    Skip-ahead: with no client left in its prefix, a turn debits any one
    rank at most ``quantum``, so a rank ``m`` that ``n_m`` clients may
    touch (a single owner, or any owner of a cycle) cannot run dry
    within ``remaining_m // (quantum * n_m)`` rounds. The least such
    count ``K`` over the touched ranks is served in one step: each
    client takes ``min(K * quantum, cut left)`` ops along its cycle, and
    each rank is debited once by the sum. No turn of those rounds could
    have blocked, so the interleaving is unobservable, and an integer
    debit no larger than a credit below 2**53 is exact, so one debit of
    ``a + b`` leaves the bits of ``a`` then ``b``. ``quantum * n_m`` is
    kept per rank as clients join the warm race and leave it; the bound
    is computed again after each skip and after each round that a client
    joined or left, starting with the rank that last stopped it. A
    prefix op's forward hops debit ranks no cycle names, so the race
    steps while a client is in its prefix.
    """
    n_ranks = len(mdss)
    cnt = [0] * n_ranks
    served = [0] * len(cuts)
    wait = 0
    order = list(range(len(cuts)))
    pre_left = list(pre)
    n_slow = 0  # clients still in their prefix
    # the most each rank can lose in one round to the warm clients still
    # in the race: ``quantum`` per client that may touch it
    need = [0] * n_ranks

    def shift_need(i: int, by: int) -> None:
        cyc = cycles[i]
        if cyc is None:
            need[owners1[i]] += by
        else:
            for m, _ in cyc.counts:
                need[m] += by

    for i in order:
        if pre_left[i]:
            n_slow += 1
        else:
            shift_need(i, quantum)
    short = -1  # a rank last found short of its need, checked first
    bound = True  # whether a skip-ahead may have become possible
    while order:
        if bound and not n_slow:
            # -- skip ahead: the rounds in which no rank can run dry -------
            bound = False
            if short >= 0 and need[short] and not (
                    need[short] <= mdss[short].remaining < _EXACT_CREDIT):
                # Credits only fall: a rank short of its need stays short
                # until a client that may touch it leaves the race.
                rounds = 0
            else:
                rounds = -1  # no bound yet
                for m, per_round in enumerate(need):
                    if per_round:
                        r = mdss[m].remaining
                        if not per_round <= r < _EXACT_CREDIT:
                            rounds = 0
                            short = m
                            break
                        k = int(r) // per_round
                        if rounds < 0 or k < rounds:
                            rounds = k
            if rounds > 0:
                span = rounds * quantum
                debit = [0] * n_ranks
                nxt: list[int] = []
                for i in order:
                    left = cuts[i] - served[i]
                    w = span if span < left else left
                    cyc = cycles[i]
                    if cyc is None:
                        debit[owners1[i]] += w
                    else:
                        # whole cycles, then the segments of the window
                        # [pos, pos + rem), which is shorter than a cycle
                        P, starts, lens, sowners, counts = cyc
                        full, rem = divmod(w, P)
                        if full:
                            for m, c in counts:
                                debit[m] += full * c
                        if rem:
                            pos = (heads[i] + served[i]) % P
                            si = bisect_right(starts, pos) - 1
                            take = starts[si] + lens[si] - pos
                            while True:
                                if take >= rem:
                                    debit[sowners[si]] += rem
                                    break
                                debit[sowners[si]] += take
                                rem -= take
                                si += 1
                                if si == len(starts):
                                    si = 0
                                take = lens[si]
                    served[i] += w
                    if w < left:
                        nxt.append(i)
                    else:
                        shift_need(i, -quantum)
                for m, x in enumerate(debit):
                    if x:
                        mdss[m].remaining -= x
                        cnt[m] += x
                order = nxt
                short = -1
                bound = True
                continue
        # -- one stepped round ---------------------------------------------
        nxt = []
        single = len(order) == 1
        budget = (1 << 30) if single else quantum
        for i in order:
            turn = budget
            p = pre_left[i]
            if p:
                s = budget if budget < p else p
                if serve_slow(i, s) != _SURVIVE:
                    n_slow -= 1
                    bound = True
                    continue
                p -= s
                pre_left[i] = p
                if p:
                    nxt.append(i)
                    continue
                # prefix done: every later op of the tick is warm, starting
                # with the rest of this turn
                n_slow -= 1
                shift_need(i, quantum)
                bound = True
                turn -= s
                if not turn:
                    # the prefix took the whole turn: no warm slice, which
                    # would test a credit without serving from it
                    nxt.append(i)
                    continue
            left = cuts[i] - served[i]
            slice_n = left if single or left < turn else turn
            cyc = cycles[i]
            blocked = False
            if cyc is None:
                m = owners1[i]
                md = mdss[m]
                r = md.remaining
                if r < 1.0:
                    blocked = True
                else:
                    t = slice_n if r >= slice_n else int(r)
                    md.remaining = r - t
                    cnt[m] += t
                    served[i] += t
                    blocked = t < slice_n
            else:
                # walk same-owner segments of the fragment cycle; ops
                # within a segment debit one MDS, so a whole segment
                # (or the owner's credit floor) advances in one step
                P, starts, lens, sowners, _ = cyc
                pos = (heads[i] + served[i]) % P
                si = bisect_right(starts, pos) - 1
                off = pos - starts[si]
                nseg = len(starts)
                t = 0
                while t < slice_n:
                    m = sowners[si]
                    md = mdss[m]
                    r = md.remaining
                    if r < 1.0:
                        blocked = True
                        break
                    need_t = slice_n - t
                    seg_avail = lens[si] - off
                    take = seg_avail if seg_avail < need_t else need_t
                    if r < take:
                        # the owner's credits run dry inside this
                        # segment: its next op blocks the client
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
            elif served[i] < cuts[i]:
                nxt.append(i)
                continue
            # out of the race: its ranks need less per round
            shift_need(i, -quantum)
            bound = True
        order = nxt
    return served, cnt, wait


class ScalarEngine:
    """The op-at-a-time reference serve loop (``SimConfig(engine="scalar")``)."""

    def __init__(self, *, clients: list[Client], mdss: list[MDS],
                 router: Router, tree: NamespaceTree, stats: AccessStats,
                 osd: OsdPool | None, data_busy: set[int],
                 serve_quantum: int, forward_charge: float,
                 data_window: float) -> None:
        # live references — the simulator mutates these lists/sets in place
        self.clients = clients
        self.mdss = mdss
        self.router = router
        self.tree = tree
        self.stats = stats
        self.osd = osd
        self.data_busy = data_busy
        self.serve_quantum = serve_quantum
        self.forward_charge = forward_charge
        self.data_window = data_window
        self._wait = 0

    # ------------------------------------------------------------------ tick
    def serve_tick(self, now: int) -> int:
        """Serve one tick; returns the tick's queueing-delay count."""
        self._wait = 0
        self._serve_rounds(self._active(now), now)
        return self._wait

    def _active(self, now: int) -> list[Client]:
        """The tick's active clients, their lapsed leases expired.

        Exact: each active client's first act of the tick is a ``route``,
        and ``check_lease`` touches only that client's cache.
        """
        data_busy = self.data_busy
        active = [
            c for c in self.clients
            if c.done_at is None and c.ready_at <= now and c.cid not in data_busy
        ]
        router = self.router
        if router.lease_ttl > 0:
            for c in active:
                router.check_lease(c.routing, now)
        return active

    def _serve_rounds(self, active: list[Client], now: int) -> None:
        """Drain ``active`` round-robin, ``serve_quantum`` ops per turn."""
        quantum = self.serve_quantum
        while active:
            survivors: list[Client] = []
            for c in active:
                # A client's first turn of the tick resets its rate
                # counter. Later rounds need no rate check: a turn that
                # uses the rate up ends _OUT inside _serve_op.
                if c.rate is not None and c.rate_tick != now:
                    c.rate_tick = now
                    c.rate_served = 0
                if self._serve_client(c, now, quantum) == _SURVIVE:
                    survivors.append(c)
            active = survivors

    def _serve_client(self, c: Client, now: int, budget: int) -> int:
        """One turn: serve up to ``budget`` of ``c``'s ops."""
        for _ in range(budget):
            status = self._serve_op(c, now)
            if status != _OP_SERVED:
                if status == _OP_BLOCKED:
                    # ready but unserved for the rest of this tick: one
                    # tick of queueing delay for this client
                    self._wait += 1
                return _OUT
        return _SURVIVE

    def _serve_op(self, c: Client, now: int) -> int:
        """Route, serve and log the op at the head of ``c``'s stream."""
        tree = self.tree
        kind, d, idx, nb = c.current  # type: ignore[misc]
        ridx = tree.n_files[d] if kind == OP_CREATE else idx
        serving, hops = self.router.route(c.routing, d, ridx)
        mdss = self.mdss
        mds = mdss[serving]
        if mds.remaining < 1.0:
            return _OP_BLOCKED
        forward_charge = self.forward_charge
        for h in hops:
            hop = mdss[h]
            hop.remaining -= forward_charge
            hop.forwards_handled += 1
        mds.serve()
        c.meta_ops += 1
        if c.rate is not None:
            c.rate_served += 1
        stats = self.stats
        if kind == OP_CREATE:
            new_idx = tree.add_files(d, 1)
            stats.record_file_access(d, new_idx, created=True)
        elif kind == OP_READDIR or idx < 0:
            stats.record_dir_access(d)
        else:
            stats.record_file_access(d, idx)
        osd = self.osd
        if nb > 0:
            c.data_ops += 1
            c.data_bytes += nb
            if osd is not None:
                osd.start(c.cid, float(nb))
                # Data reads pipeline behind metadata; the client stalls
                # only once it outruns the OSD pool by more than its
                # prefetch window.
                if osd.outstanding(c.cid) > self.data_window:
                    self.data_busy.add(c.cid)
                    c.advance(now)
                    return _OP_OUT
        c.advance(now)
        if c.done_at is not None:
            if osd is not None and osd.outstanding(c.cid) > 0.0:
                self.data_busy.add(c.cid)
            return _OP_OUT
        if c.ready_at > now or (c.rate is not None and c.rate_served >= c.rate):
            return _OP_OUT
        return _OP_SERVED


class ColumnarEngine(ScalarEngine):
    """The reference loop behind a tick-level create-storm fast path."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.table = AuthTable(self.router.authmap)

    # ------------------------------------------------------------------ tick
    def serve_tick(self, now: int) -> int:
        """Serve one tick; returns the tick's queueing-delay count."""
        active = self._active(now)
        if not active:
            return 0
        # _active() has expired lapsed leases, so the turbo tick may skip
        # route() for warm clients
        self.table.refresh()
        self._wait = 0
        if not self._turbo_tick(active, now):
            self._serve_rounds(active, now)
        return self._wait

    # ------------------------------------------------------------- turbo tick
    def _turbo_tick(self, active: list[Client], now: int) -> bool:
        """Serve a homogeneous create tick without materializing any op.

        Eligible when every active client is an unlimited-rate create
        stream (:class:`~repro.workloads.base.RepeatOps`) into its own
        directory, with no data path in play. Each client's cut of
        ``n_c`` creates (up to its next stall or stream end) splits into
        a prefix of ``pre`` ops and a warm rest: ``pre`` is 1 if the
        directory key is not cached at its authority, raised to ``j + 1``
        for the last window position ``j < min(n_c, P)`` whose fragment
        key is not cached at its owner in the map's owners tuple. The
        prefix routes through the reference path (``_serve_client``),
        which caches every key the rest touches; ``resolve_dir`` and the
        owners tuples cannot change inside a tick, so every later op has
        a proven no-op ``route`` and the client's only cross-client
        coupling is MDS capacity. :func:`capacity_race` emulates every
        turn in exact round-robin order against the live credit columns
        (credits stay live so prefix and warm turns observe each other),
        stepping rounds while a prefix is in the race and skipping ahead
        over the rounds in which no rank can run dry once none is. The
        warm ops' side effects are applied once, in a single batched
        step after the race; the prefix logs its accesses per op, and
        both are unit heat steps of distinct files, so they commute.
        Returns False — with no simulation state touched — if any client
        breaks the regime (rate limits, data ops, shared or non-create
        streams).
        """
        if self.osd is not None:
            return False
        resolve_dir = self.router.authmap.resolve_dir
        table = self.table
        frag_seq = table.frag_seq
        frag_cycle = table.frag_cycle
        n_files = self.tree.n_files
        k = len(active)
        dirs: set[int] = set()
        ds = [0] * k  # target directory per client
        nfs = [0] * k  # first warm create index: file count + prefix
        n_cs = [0] * k  # warm cut: ops until stall / stream end, less prefix
        #: fragment-owner cycle of multi-owner dirs
        cycles: list[OwnerCycle | None] = [None] * k
        owners1 = [0] * k  # the single owner when cycles[i] is None
        pre = [0] * k  # prefix: ops routed through the reference path
        for i, c in enumerate(active):
            if c.rate is not None:
                return False
            left = c.stream_left()
            if left is None:
                return False
            kind, d, _idx, nb = c.current  # type: ignore[misc]
            if kind != OP_CREATE or nb != 0:
                return False
            if d in dirs:
                return False
            dirs.add(d)
            ds[i] = d
            cut = c.stall_scan(left - 1)
            n_c = left if cut < 0 else cut + 1
            nf = n_files[d]
            cache = c.routing.auth_cache
            auth = resolve_dir(d)[0]
            p = 0 if cache.get(d) == auth else 1
            seq = frag_seq.get(d)
            if seq is None:
                owners1[i] = auth
            else:
                # route() on a key cached at its live owner writes nothing
                # and hops nowhere. The prefix runs through the window's
                # last key that is not: its own routes cache the keys it
                # covers, later ones are cached already, and keys repeat
                # every cycle.
                P = len(seq)
                mask = P - 1
                j = (n_c if n_c < P else P) - 1
                while j >= p:
                    fn = (nf + j) & mask
                    if cache.get((d, fn)) != seq[fn]:
                        p = j + 1
                        break
                    j -= 1
                cyc = frag_cycle[d]
                if len(cyc.counts) == 1:
                    owners1[i] = cyc.counts[0][0]
                else:
                    cycles[i] = cyc
            pre[i] = p
            nfs[i] = nf + p
            n_cs[i] = n_c - p
        # -- the round-robin capacity race against live credit columns ------
        mdss = self.mdss
        served, cnt, wait = capacity_race(
            mdss, self.serve_quantum, n_cs, nfs, cycles, owners1, pre,
            lambda i, budget: self._serve_client(active[i], now, budget))
        # -- apply: one batched step per MDS and per client ------------------
        for m, n in enumerate(cnt):
            if n:
                md = mdss[m]
                md.served_epoch += n
                md.served_total += n
        tree = self.tree
        stats = self.stats
        for i, c in enumerate(active):
            srv = served[i]
            if srv == 0:
                continue
            c.meta_ops += srv
            d = ds[i]
            first = tree.add_files(d, srv)
            assert first == nfs[i]
            stats.record_create_batch(d, first, srv)
            c.advance_bulk(srv, now)
        self._wait += wait
        return True


#: ``SimConfig.engine`` name -> serve engine
ENGINES: dict[str, type[ScalarEngine]] = {
    "scalar": ScalarEngine,
    "columnar": ColumnarEngine,
}
