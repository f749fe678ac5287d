"""The decision trace: an append-only log of typed balancer events.

A :class:`TraceLog` rides on the simulator and receives every
:mod:`repro.obs.events` event the balancing stack emits. Two modes:

- **unbounded** (default): keeps the full run — what benchmarks export as
  JSONL and what the golden-trace regression suite byte-compares;
- **ring buffer** (``capacity=N``): keeps only the most recent N events in
  O(1) memory per append, for always-on production-style tracing where
  only the recent history matters at inspection time.

Appending is one deque append; serialization cost is paid only at dump
time, so tracing stays out of the simulator's hot loop entirely.
"""

from __future__ import annotations

import bisect
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from itertools import islice
from typing import Any, Protocol

from repro.obs.events import DecisionIds, TraceEvent, event_from_json, event_to_json
from repro.obs.registry import Counter

__all__ = ["TraceSink", "TraceLog", "read_jsonl", "write_jsonl",
           "filter_events"]


class TraceSink(Protocol):
    """Anything decision events can be emitted into.

    Satisfied by :class:`TraceLog` and by
    :class:`~repro.core.plan.EpochPlan` (which records the event as a
    replayable action) — the duck type components like the migration
    initiator are written against. Sinks also mint decision ids
    (:meth:`next_decision_id`) so provenance links stay monotone in
    emission order whichever side of the plan/apply seam emits.
    """

    def emit(self, event: Any) -> None: ...

    def next_decision_id(self) -> int: ...


class TraceLog:
    """Ordered, optionally ring-buffered, event sink.

    ``drop_counter`` (anything with ``.inc()``, typically a registry
    :class:`~repro.obs.registry.Counter`) is bumped once per event the
    ring buffer evicts, so always-on deployments see the loss as a
    ``trace_events_dropped_total`` series instead of silence.
    """

    def __init__(self, capacity: int | None = None,
                 drop_counter: Counter | None = None,
                 ids: DecisionIds | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("ring capacity must be positive (or None)")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        #: lifetime appended count — keeps growing even when the ring drops
        self.emitted = 0
        self.drop_counter = drop_counter
        #: decision-id allocator; the simulator passes its run-wide one so
        #: mechanism-side events share the policy sequence
        self.ids = ids if ids is not None else DecisionIds()
        #: live-tap callbacks (``repro serve``'s event bus); empty for
        #: batch runs, so :meth:`emit` pays one falsy check and nothing more
        self._listeners: list[Callable[[TraceEvent], None]] = []

    def add_listener(self, fn: Callable[[TraceEvent], None]) -> None:
        """Tap the log: ``fn`` sees every event as it is emitted.

        Listeners must never raise and never block — the serve event bus
        satisfies this with a bounded drop-on-full queue per subscriber.
        """
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[TraceEvent], None]) -> None:
        self._listeners.remove(fn)

    def next_decision_id(self) -> int:
        """Mint the next decision id (see :class:`TraceSink`)."""
        return self.ids.next()

    # ---------------------------------------------------------------- writing
    def emit(self, event: TraceEvent) -> None:
        if (self.capacity is not None and self.drop_counter is not None
                and len(self._events) == self.capacity):
            self.drop_counter.inc()
        self._events.append(event)
        self.emitted += 1
        if self._listeners:
            for fn in self._listeners:
                fn(event)

    def clear(self) -> None:
        self._events.clear()

    # ---------------------------------------------------------------- reading
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def dropped(self) -> int:
        """Events the ring buffer has discarded."""
        return self.emitted - len(self._events)

    def events(self, etype: str | None = None) -> list[TraceEvent]:
        """Retained events, optionally filtered by type tag."""
        if etype is None:
            return list(self._events)
        return [e for e in self._events if e.etype == etype]

    def since(self, emitted: int) -> list[TraceEvent]:
        """Events emitted after an earlier :attr:`emitted` reading.

        Oldest first, in O(new events) rather than O(retained). Raises
        ``ValueError`` when the ring buffer has evicted some of them.
        """
        n = self.emitted - emitted
        if not 0 <= n <= len(self._events):
            raise ValueError(f"{n} events since mark {emitted}, "
                             f"{len(self._events)} retained")
        return list(islice(reversed(self._events), n))[::-1]

    def counts(self) -> dict[str, int]:
        """Retained event count per type tag, sorted by tag."""
        out: dict[str, int] = {}
        for e in self._events:
            out[e.etype] = out.get(e.etype, 0) + 1
        return dict(sorted(out.items()))

    # ------------------------------------------------------------------ jsonl
    def dumps(self) -> str:
        """The retained trace as canonical JSONL (trailing newline)."""
        return "".join(event_to_json(e) + "\n" for e in self._events)

    def dump_jsonl(self, path: str | os.PathLike) -> int:
        """Write the retained trace to ``path``; returns events written."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.dumps())
        return len(self._events)

    @classmethod
    def load_jsonl(cls, path: str | os.PathLike,
                   capacity: int | None = None) -> TraceLog:
        log = cls(capacity=capacity)
        for event in read_jsonl(path):
            log.emit(event)
        return log


def read_jsonl(path: str | os.PathLike) -> Iterator[TraceEvent]:
    """Stream events from a JSONL trace file (blank lines ignored)."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield event_from_json(line)


def filter_events(events: Iterable[TraceEvent],
                  etypes: Iterable[str] | None = None,
                  epoch_range: tuple[int, int] | None = None,
                  decision_ids: Iterable[int] | None = None,
                  ) -> list[TraceEvent]:
    """Slice a trace by event type, epoch and/or decision id.

    ``etypes`` keeps only the given type tags. ``epoch_range`` is an
    inclusive ``(lo, hi)``: events carrying an ``epoch`` field use it
    directly; tick-stamped events (migration plan/commit/abort, failures)
    are assigned the epoch whose ``epoch_start`` boundary tick is the
    first at or after their tick — exact, because ``epoch_start(k)`` is
    emitted at epoch *k*'s closing tick. Tick events past the last
    boundary belong to the (unclosed) next epoch; when a trace has no
    boundaries at all, tick-only events are dropped as unattributable.
    ``decision_ids`` keeps only events whose ``did`` is in the given set —
    pair it with :meth:`repro.obs.provenance.ProvenanceGraph.chain_ids`
    to slice one decision's full causal chain out of a trace.
    """
    events = list(events)
    # epoch boundaries come from the *unfiltered* stream, so a type filter
    # that drops epoch_start does not break tick-to-epoch attribution
    boundaries = [(e.tick, e.epoch) for e in events if e.etype == "epoch_start"]
    if etypes is not None:
        wanted = set(etypes)
        events = [e for e in events if e.etype in wanted]
    if decision_ids is not None:
        dids = set(decision_ids)
        events = [e for e in events if getattr(e, "did", -1) in dids]
    if epoch_range is None:
        return events
    lo, hi = epoch_range
    if lo > hi:
        raise ValueError(f"empty epoch range {lo}..{hi}")
    ticks = [t for t, _ in boundaries]
    kept: list[TraceEvent] = []
    for e in events:
        epoch = getattr(e, "epoch", None)
        if epoch is None:
            tick = getattr(e, "tick", None)
            if tick is None or not ticks:
                continue
            i = bisect.bisect_left(ticks, tick)
            epoch = boundaries[i][1] if i < len(ticks) else boundaries[-1][1] + 1
        if lo <= epoch <= hi:
            kept.append(e)
    return kept


def write_jsonl(path: str | os.PathLike, events: Iterable[TraceEvent]) -> int:
    """Write any event iterable as canonical JSONL; returns events written."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in events:
            fh.write(event_to_json(e) + "\n")
            n += 1
    return n
