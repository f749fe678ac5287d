"""Client and workload abstractions.

Ops are plain tuples ``(kind, dir_id, file_idx, data_bytes)`` — this is the
simulator's hot path, so no per-op object overhead. ``data_bytes`` is only
exercised when the simulator runs with the data path enabled.

Clients are *closed-loop*: one outstanding op, next op issued when the
previous completes. Each client carries a stall probability (think-time
jitter): real clients drift apart because of OS scheduling and data-path
variance, and that drift is what makes balancing scan workloads profitable
— a lockstep scan would always hammer a single directory at a time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.router import ClientRoutingState
from repro.namespace.builder import BuiltNamespace
from repro.namespace.tree import NamespaceTree
from repro.util.rng import substream

__all__ = [
    "Op",
    "OP_STAT",
    "OP_CREATE",
    "OP_READDIR",
    "OP_OPEN",
    "Client",
    "RepeatOps",
    "Workload",
    "WorkloadInstance",
]

Op = tuple[int, int, int, int]  # (kind, dir_id, file_idx, data_bytes)

OP_STAT = 0  #: metadata read on a file (lookup/stat/getattr)
OP_CREATE = 1  #: create a new file in a directory
OP_READDIR = 2  #: directory-level metadata op
OP_OPEN = 3  #: open a file; data_bytes > 0 adds a data-path read/write


class RepeatOps:
    """An op stream of one tuple repeated ``left`` times.

    Iterates exactly like the equivalent generator, but exposes its
    structure: the columnar engine's tick-level fast path can skip
    ``count`` ops by decrementing :attr:`left` instead of pulling them
    one ``next()`` at a time (see :meth:`Client.advance_bulk`).
    """

    __slots__ = ("op", "left")

    def __init__(self, op: Op, count: int) -> None:
        self.op = op
        self.left = count

    def __iter__(self) -> "RepeatOps":
        return self

    def __next__(self) -> Op:
        if self.left <= 0:
            raise StopIteration
        self.left -= 1
        return self.op


class Client:
    """One closed-loop workload client.

    Jitter is one uniform draw per completed op that lines up a next one,
    from the client's own RNG substream: when draw ``k`` is below
    :attr:`stall_prob`, the op it lines up waits for the next tick. Only
    whether a draw stalls is ever read, so the client takes the stream in
    ``random(256)`` blocks and keeps just the stalling indices between
    ``_drawn`` (draws consumed) and ``_scanned`` (draws taken, a multiple
    of 256).
    """

    __slots__ = (
        "cid",
        "group",
        "stall_prob",
        "rate",
        "routing",
        "ready_at",
        "done_at",
        "ops_done",
        "meta_ops",
        "data_ops",
        "data_bytes",
        "_ops",
        "current",
        "_rng",
        "_drawn",
        "_scanned",
        "_stalls",
        "rate_tick",
        "rate_served",
    )

    def __init__(self, cid: int, ops: Iterator[Op], *, stall_prob: float = 0.0,
                 rate: float | None = None, seed: int = 0, group: str = "") -> None:
        if not 0.0 <= stall_prob < 1.0:
            raise ValueError("stall_prob must be in [0, 1)")
        if rate is not None and rate <= 0:
            raise ValueError("client rate must be positive")
        self.cid = cid
        self.group = group
        self.stall_prob = stall_prob
        #: max ops this client issues per tick (None = as fast as served).
        #: Finite rates model clients whose own CPU / network bounds demand
        #: — needed for benign-imbalance scenarios (paper Fig. 12b).
        self.rate = rate
        self.routing = ClientRoutingState()
        self.ready_at = 0
        self.done_at: int | None = None
        self.ops_done = 0
        self.meta_ops = 0
        self.data_ops = 0
        self.data_bytes = 0
        self._ops = ops
        self._rng = substream(seed, "client", cid)
        self._drawn = 0
        self._scanned = 0
        #: stalling draw indices in ``[_drawn, _scanned)``, ascending
        self._stalls: deque[int] = deque()
        self.current: Op | None = next(ops, None)
        self.rate_tick = -1
        self.rate_served = 0
        if self.current is None:
            self.done_at = 0

    @property
    def done(self) -> bool:
        return self.done_at is not None

    def advance(self, now: int) -> None:
        """Current op completed at tick ``now``; line up the next one."""
        self.ops_done += 1
        self.current = next(self._ops, None)
        if self.current is None:
            self.done_at = now
            return
        # inline rather than a helper shared with advance_bulk: this runs
        # once per op, where a method call is a measurable share
        if self.stall_prob > 0.0:
            k = self._drawn
            self._drawn = k + 1
            if k == self._scanned:
                self._scan()
            st = self._stalls
            if st and st[0] == k:
                st.popleft()
                self.ready_at = now + 1

    def _scan(self) -> None:
        """Take the next 256-draw block and queue its stalling indices."""
        base = self._scanned
        hits = np.flatnonzero(self._rng.random(256) < self.stall_prob)
        self._stalls.extend((hits + base).tolist())
        self._scanned = base + 256

    # ---------------------------------------------------------- batched path
    # Bulk views for the turbo tick: the next stall found without
    # consuming a draw, and structured streams skipped arithmetically.
    # Both are advance()-equivalent op for op: blocks are taken in the
    # same order from a substream nothing else reads, so taking one early
    # never changes its values.

    def stall_scan(self, n: int) -> int:
        """Index of the first stalling draw among the next ``n``, or -1.

        Peeks without consuming. Blocks are taken only while no stall is
        queued and the next ``n`` draws are not all taken, so a scan takes
        no block past the one holding the ``n``-th next draw, and repeated
        scans over the same stretch cost a queue peek.
        """
        if self.stall_prob == 0.0:
            return -1
        st = self._stalls
        target = self._drawn + n
        while not st and self._scanned < target:
            self._scan()
        if st and st[0] < target:
            return st[0] - self._drawn
        return -1

    def stream_left(self) -> int | None:
        """Ops left including ``current``, when knowable without pulling.

        Only bulk-skippable streams (:class:`RepeatOps`) can answer;
        generator-backed clients return None.
        """
        ops = self._ops
        if type(ops) is not RepeatOps or self.current is None:
            return None
        return 1 + ops.left

    def advance_bulk(self, count: int, now: int) -> None:
        """Complete ``count`` ops in one step — ``count`` advance() calls.

        Contract (the engine establishes it via :meth:`stall_scan`): no
        draw before the last one consumed stalls. A run that ends the
        stream consumes ``count - 1`` draws (the advance onto a ``None``
        op never draws), exactly like the per-op path. The ops are
        skipped arithmetically, so the stream must be a
        :class:`RepeatOps` (every skipped op equals ``current``).
        """
        ops = self._ops
        assert type(ops) is RepeatOps
        left = self.stream_left()
        assert left is not None and count <= left
        self.ops_done += count
        if count < left:
            ops.left -= count
            self.current = ops.op
        else:
            ops.left = 0
            self.current = None
            self.done_at = now
            count -= 1
        if count and self.stall_prob > 0.0:
            last = self._drawn + count - 1
            self._drawn = last + 1
            while self._scanned <= last:
                self._scan()
            st = self._stalls
            # with only indices kept, a stall skipped here would be lost
            assert not st or st[0] >= last, "a bulk run skipped a stall"
            if st and st[0] == last:
                st.popleft()
                self.ready_at = now + 1


@dataclass
class WorkloadInstance:
    """A materialized workload: shared namespace + ready-to-run clients."""

    name: str
    tree: NamespaceTree
    clients: list[Client]
    built: BuiltNamespace | None = None
    info: dict = field(default_factory=dict)


class Workload(ABC):
    """A workload recipe: namespace shape + per-client op streams.

    Subclasses implement :meth:`build_namespace` and :meth:`client_ops`.
    ``materialize`` wires them together; :class:`MixedWorkload` composes
    several recipes into one tree.
    """

    name: str = "abstract"
    #: fraction of metadata ops among all ops, from the paper's Table 1
    paper_meta_ratio: float = float("nan")

    def __init__(self, n_clients: int, *, jitter: float = 0.15,
                 client_rate: float | None = None) -> None:
        if n_clients <= 0:
            raise ValueError("need at least one client")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if client_rate is not None and client_rate <= 0:
            raise ValueError("client_rate must be positive")
        self.n_clients = n_clients
        self.jitter = jitter
        self.client_rate = client_rate

    @abstractmethod
    def build_namespace(self, tree: NamespaceTree, seed: int) -> BuiltNamespace:
        """Create this workload's directories/files inside ``tree``."""

    @abstractmethod
    def client_ops(self, built: BuiltNamespace, client_index: int, seed: int) -> Iterator[Op]:
        """The op stream for the ``client_index``-th client of this workload."""

    def make_clients(self, built: BuiltNamespace, seed: int, *,
                     first_cid: int = 0) -> list[Client]:
        rng = substream(seed, "workload", self.name, "jitter")
        stalls = rng.uniform(0.0, self.jitter, size=self.n_clients)
        return [
            Client(
                first_cid + i,
                self.client_ops(built, i, seed),
                stall_prob=float(stalls[i]),
                rate=self.client_rate,
                seed=seed,
                group=self.name,
            )
            for i in range(self.n_clients)
        ]

    def materialize(self, seed: int = 0) -> WorkloadInstance:
        tree = NamespaceTree()
        built = self.build_namespace(tree, seed)
        clients = self.make_clients(built, seed)
        return WorkloadInstance(self.name, tree, clients, built)


def interleave_passes(*passes: Iterator[Op]) -> Iterator[Op]:
    """Run op passes back to back (helper for scan-then-read workloads)."""
    for p in passes:
        yield from p


def zipf_like_sizes(rng: np.random.Generator, n: int, mean_bytes: float) -> np.ndarray:
    """Per-file sizes with a realistic long tail, mean ~= ``mean_bytes``."""
    raw = rng.lognormal(mean=0.0, sigma=1.0, size=n)
    return np.maximum(1, (raw / raw.mean() * mean_bytes)).astype(np.int64)
