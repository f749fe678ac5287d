"""A client's stall cursor against the block-buffer oracle.

:class:`repro.workloads.base.Client` keeps only the indices of its
stalling draws: ``_drawn`` draws consumed, ``_scanned`` draws taken from
its RNG substream in ``random(256)`` blocks, and a queue of the stalling
indices in between. :class:`BlockClient` below is the earlier jitter
state, which held the current block, a list of prefetched blocks and
three draw cursors; it is kept here as the oracle. Both are driven
through the same generated steps — runs of ``advance`` mixed with
``advance_bulk`` runs cut by ``stall_scan`` as the turbo tick cuts them,
a per-op prefix included — and must agree after every step on
``ready_at``, ``done_at``, ``ops_done``, ``current`` and a far
``stall_scan`` peek.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.util.rng import substream
from repro.workloads.base import OP_CREATE, OP_STAT, Client, Op, RepeatOps


class BlockClient:
    """The block-buffer stall state: the oracle for :class:`Client`."""

    def __init__(self, cid: int, ops: Iterator[Op], *, stall_prob: float,
                 seed: int) -> None:
        self.stall_prob = stall_prob
        self.ready_at = 0
        self.done_at: int | None = None
        self.ops_done = 0
        self._ops = ops
        self._rng = substream(seed, "client", cid)
        self._draws = self._rng.random(256) if stall_prob > 0.0 else None
        self._draw_pos = 0
        self._pending: list[np.ndarray] = []
        self._draw_abs = 0
        self._stalls: list[int] = []
        self._scanned_abs = 0
        self.current: Op | None = next(ops, None)
        if self.current is None:
            self.done_at = 0

    @property
    def done(self) -> bool:
        return self.done_at is not None

    def advance(self, now: int) -> None:
        self.ops_done += 1
        self.current = next(self._ops, None)
        if self.current is None:
            self.done_at = now
            return
        if self._draws is not None:
            draw = self._draws[self._draw_pos]
            self._consume_draws(1)
            if draw < self.stall_prob:
                self.ready_at = now + 1

    def stall_scan(self, n: int) -> int:
        if self._draws is None or n <= 0:
            return -1
        abs_pos = self._draw_abs
        base = abs_pos - self._draw_pos
        if self._scanned_abs < base:
            self._scanned_abs = base
        st_ = self._stalls
        while st_ and st_[0] < abs_pos:
            st_.pop(0)
        target = abs_pos + n
        while not st_ and self._scanned_abs < target:
            self._scan_stall_block()
            while st_ and st_[0] < abs_pos:
                st_.pop(0)
        if st_ and st_[0] < target:
            return st_[0] - abs_pos
        return -1

    def _scan_stall_block(self) -> None:
        k = self._scanned_abs >> 8
        kcur = (self._draw_abs - self._draw_pos) >> 8
        if k == kcur:
            block = self._draws
        else:
            i = k - kcur - 1
            while len(self._pending) <= i:
                self._pending.append(self._rng.random(256))
            block = self._pending[i]
        hits = np.nonzero(block < self.stall_prob)[0]  # type: ignore[operator]
        if hits.size:
            b = self._scanned_abs
            self._stalls.extend(b + int(h) for h in hits)
        self._scanned_abs += 256

    def _peek_draw(self, i: int) -> float:
        pos = self._draw_pos + i
        if pos < 256:
            return float(self._draws[pos])  # type: ignore[index]
        block_i, off = divmod(pos - 256, 256)
        while len(self._pending) <= block_i:
            self._pending.append(self._rng.random(256))
        return float(self._pending[block_i][off])

    def _consume_draws(self, n: int) -> None:
        self._draw_abs += n
        pos = self._draw_pos + n
        while pos >= 256:
            if self._pending:
                self._draws = self._pending.pop(0)
            else:
                self._draws = self._rng.random(256)
            pos -= 256
        self._draw_pos = pos

    def stream_left(self) -> int | None:
        ops = self._ops
        if type(ops) is not RepeatOps or self.current is None:
            return None
        return 1 + ops.left

    def advance_bulk(self, count: int, now: int) -> None:
        ops = self._ops
        assert type(ops) is RepeatOps
        left = self.stream_left()
        assert left is not None and count <= left
        self.ops_done += count
        if count < left:
            ops.left -= count
            self.current = ops.op
            if self._draws is not None:
                last = self._peek_draw(count - 1)
                self._consume_draws(count)
                if last < self.stall_prob:
                    self.ready_at = now + 1
        else:
            ops.left = 0
            self.current = None
            self.done_at = now
            if self._draws is not None and count > 1:
                self._consume_draws(count - 1)


def stat_ops(n: int) -> Iterator[Op]:
    """A generator stream: not bulk-skippable, so only ``advance`` runs it."""
    for i in range(n):
        yield (OP_STAT, i % 7, i, 0)


def run_steps(c, steps, far: int) -> list[tuple]:
    """Drive ``c`` through ``steps``; its observable state after each.

    ``("adv", r)`` is ``r`` advance() calls. ``("bulk", p, x)`` cuts the
    stream as the turbo tick does — ``stall_scan(left - 1)`` — serves a
    prefix of up to ``p`` ops per op, then one ``advance_bulk`` over
    part of the rest of the cut (all of it when ``x < 0``).
    """
    seen = []
    for now, step in enumerate(steps):
        if c.done:
            break
        if step[0] == "adv":
            for _ in range(step[1]):
                if c.done:
                    break
                c.advance(now)
        else:
            _, p, x = step
            left = c.stream_left()
            if left is not None:
                cut = c.stall_scan(left - 1)
                n_c = left if cut < 0 else cut + 1
                p = min(p, n_c)
                for _ in range(p):
                    c.advance(now)
                rest = n_c - p
                if rest:
                    c.advance_bulk(rest if x < 0 else 1 + x % rest, now)
        seen.append((c.ready_at, c.done_at, c.ops_done, c.current,
                     c.stall_scan(far)))
    return seen


stall_probs = st.one_of(
    st.just(0.0),
    st.floats(1e-9, 1e-3),
    st.floats(1e-3, 0.2),
    st.floats(0.2, 0.99, exclude_max=True),
)
streams = st.one_of(
    st.integers(1, 3000).map(lambda n: ("repeat", n)),
    st.integers(0, 3000).map(lambda n: ("gen", n)),
)
step_lists = st.lists(
    st.one_of(
        st.tuples(st.just("adv"), st.integers(1, 600)),
        st.tuples(st.just("bulk"), st.one_of(st.just(0), st.integers(0, 300)),
                  st.one_of(st.just(-1), st.integers(0, 1 << 20))),
    ),
    min_size=1, max_size=30)


def make_stream(kind: str, n: int) -> Callable[[], Iterator[Op]]:
    if kind == "repeat":
        return lambda: RepeatOps((OP_CREATE, 3, 0, 0), n)
    return lambda: stat_ops(n)


@given(stall_prob=stall_probs, seed=st.integers(0, 50), cid=st.integers(0, 3),
       stream=streams, steps=step_lists, far=st.integers(0, 5000))
@settings(max_examples=400, deadline=None)
# a stream-ending run after a prefix, every run crossing 256-draw blocks
@example(stall_prob=0.004, seed=3, cid=0, stream=("repeat", 2000),
         steps=[("adv", 300), ("bulk", 5, -1), ("bulk", 0, -1),
                ("bulk", 40, -1)] * 4, far=4000)
@example(stall_prob=0.5, seed=0, cid=1, stream=("repeat", 700),
         steps=[("bulk", 0, -1)] * 30, far=3)
@example(stall_prob=1e-9, seed=50, cid=2, stream=("repeat", 3000),
         steps=[("bulk", 257, 0), ("adv", 1), ("bulk", 0, -1)], far=5000)
@example(stall_prob=0.1, seed=7, cid=3, stream=("gen", 1500),
         steps=[("adv", 600), ("bulk", 1, 1), ("adv", 600), ("adv", 600)],
         far=300)
def test_cursor_matches_block_buffer(stall_prob, seed, cid, stream, steps,
                                     far):
    ops = make_stream(*stream)
    new = Client(cid, ops(), stall_prob=stall_prob, seed=seed)
    old = BlockClient(cid, ops(), stall_prob=stall_prob, seed=seed)
    assert run_steps(new, steps, far) == run_steps(old, steps, far)


def test_cursor_keeps_indices_only():
    """The jitter state is two counters and one queue of stall indices."""
    c = Client(0, RepeatOps((OP_CREATE, 1, 0, 0), 5000), stall_prob=0.05,
               seed=1)
    assert c._scanned == 0  # no block is taken before a draw is needed
    first = c.stall_scan(4999)
    assert first >= 0 and c._scanned == 256 * (first // 256 + 1)
    for _ in range(first):
        c.advance(0)
    assert c.ready_at == 0 and c._drawn == first
    c.advance(0)
    assert c.ready_at == 1
    assert all(c._drawn <= k < c._scanned for k in c._stalls)
    assert list(c._stalls) == sorted(c._stalls)
