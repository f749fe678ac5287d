"""Hierarchical span profiler with Chrome/Perfetto trace-event export.

``SpanProfiler`` records where a run's time goes as nested *spans* — the
simulator wraps its epoch phases (serve, migration, snapshot_view, plan,
apply_plan) and the experiment engine wraps per-worker jobs. Spans open
and close strictly LIFO (the context-manager API guarantees it), so the
exported ``"B"``/``"E"`` event stream is always properly nested and loads
directly in ``ui.perfetto.dev`` / ``chrome://tracing``.

Two clocks:

- ``"logical"`` — a monotone counter that advances by one per begin/end.
  Timestamps are then a pure function of the control flow, so a
  fixed-seed run exports byte-identical traces (golden-able, and safe to
  aggregate across a process pool);
- ``"wall"`` — ``time.perf_counter_ns`` in integer microseconds, for real
  phase-time breakdowns and benchmark flamecharts.
"""

from __future__ import annotations

import json
import os
import time

__all__ = ["NULL_SPANS", "NullSpanProfiler", "SpanProfiler", "merge_span_events",
           "totals_from_events"]

_CLOCKS = ("logical", "wall")


class _SpanCtx:
    """Reusable-shape context manager for one ``with profiler.span(...)``."""

    __slots__ = ("_prof", "_name")

    def __init__(self, prof: SpanProfiler, name: str) -> None:
        self._prof = prof
        self._name = name

    def __enter__(self) -> _SpanCtx:
        self._prof.begin(self._name)
        return self

    def __exit__(self, *exc: object) -> None:
        self._prof.end(self._name)


class SpanProfiler:
    """Records a stream of strictly nested, named spans."""

    def __init__(self, clock: str = "logical", pid: int = 0, tid: int = 0) -> None:
        if clock not in _CLOCKS:
            raise ValueError(f"clock must be one of {_CLOCKS}, got {clock!r}")
        self.clock = clock
        self.pid = pid
        self.tid = tid
        #: minimal event records ("ph", "name", "ts"); pid/tid attach at export
        self._events: list[tuple[str, str, int]] = []
        self._stack: list[tuple[str, int]] = []
        self._logical = 0
        self._t0 = time.perf_counter_ns()
        #: name -> [count, total inclusive duration] over *closed* spans
        self._totals: dict[str, list] = {}

    def _now(self) -> int:
        if self.clock == "logical":
            self._logical += 1
            return self._logical
        return (time.perf_counter_ns() - self._t0) // 1000  # integer µs

    # --------------------------------------------------------------- spanning
    def span(self, name: str) -> _SpanCtx:
        """``with profiler.span("plan"): ...`` — begin/end around the block."""
        return _SpanCtx(self, name)

    def begin(self, name: str) -> None:
        ts = self._now()
        self._stack.append((name, ts))
        self._events.append(("B", name, ts))

    def end(self, name: str | None = None) -> None:
        """Close the innermost open span (asserting its name when given)."""
        if not self._stack:
            raise RuntimeError("end() with no open span")
        opened, ts_begin = self._stack.pop()
        if name is not None and name != opened:
            raise RuntimeError(f"span nesting broken: closing {name!r} "
                               f"but {opened!r} is innermost")
        ts = self._now()
        self._events.append(("E", opened, ts))
        tot = self._totals.setdefault(opened, [0, 0])
        tot[0] += 1
        tot[1] += ts - ts_begin

    def close_open(self) -> int:
        """End every still-open span (outermost last); returns how many.

        The simulator calls this at finalize so a run stopped mid-epoch
        (``max_ticks`` not a multiple of ``epoch_len``) still exports a
        properly paired stream.
        """
        n = len(self._stack)
        while self._stack:
            self.end()
        return n

    # ---------------------------------------------------------------- reading
    def __len__(self) -> int:
        return len(self._events)

    @property
    def depth(self) -> int:
        """Currently open span count."""
        return len(self._stack)

    def totals(self) -> dict[str, dict]:
        """Per-name count and total inclusive duration of closed spans.

        Durations are in the profiler's clock units: µs for ``"wall"``,
        begin/end steps for ``"logical"``.
        """
        return {name: {"count": c, "total": t}
                for name, (c, t) in sorted(self._totals.items())}

    def events(self, pid: int | None = None, tid: int | None = None) -> list[dict]:
        """The span stream as Chrome trace events (``ph``/``name``/``ts``/
        ``pid``/``tid``); raises while spans are still open."""
        if self._stack:
            raise RuntimeError(
                f"cannot export with open spans: {[n for n, _ in self._stack]}")
        pid = self.pid if pid is None else pid
        tid = self.tid if tid is None else tid
        return [
            {"ph": ph, "name": name, "ts": ts, "pid": pid, "tid": tid,
             "cat": "phase"}
            for ph, name, ts in self._events
        ]

    # ---------------------------------------------------------------- export
    def to_perfetto(self, pid: int | None = None) -> dict:
        """The whole profile as a Chrome/Perfetto JSON object."""
        return {"traceEvents": self.events(pid=pid), "displayTimeUnit": "ms"}

    def dumps_perfetto(self) -> str:
        """Canonical JSON of :meth:`to_perfetto` (byte-stable per run)."""
        return json.dumps(self.to_perfetto(), sort_keys=True,
                          separators=(",", ":"))

    def dump_perfetto(self, path: str | os.PathLike) -> int:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.dumps_perfetto())
            fh.write("\n")
        return len(self._events)


class NullSpanProfiler:
    """A profiler that records nothing.

    A simulator without a flight recorder holds one, so each phase is
    written once as ``with spans.span(...)`` whether or not recording is
    on. ``span`` returns the profiler itself as the context manager, so
    an unrecorded phase costs one call and one empty ``with``.
    """

    __slots__ = ()

    def span(self, name: str) -> NullSpanProfiler:
        return self

    def __enter__(self) -> NullSpanProfiler:
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def begin(self, name: str) -> None:
        return None

    def end(self, name: str | None = None) -> None:
        return None


#: the shared do-nothing profiler (it holds no state)
NULL_SPANS = NullSpanProfiler()


def merge_span_events(event_lists: list[list[dict]],
                      labels: list[str] | None = None) -> list[dict]:
    """Merge per-process span streams into one trace-event list.

    Each input list becomes one Perfetto *process*: its events are
    re-stamped with ``pid = index`` (input order, so a pool's merge is
    deterministic regardless of completion order), and an optional label
    becomes the process name via a ``"M"`` metadata event.
    """
    if labels is not None and len(labels) != len(event_lists):
        raise ValueError("labels must match event_lists 1:1")
    out: list[dict] = []
    for pid, events in enumerate(event_lists):
        if labels is not None:
            out.append({"ph": "M", "name": "process_name", "ts": 0, "pid": pid,
                        "tid": 0, "args": {"name": labels[pid]}})
        for e in events:
            out.append({**e, "pid": pid})
    return out


def totals_from_events(events: list[dict]) -> dict[str, dict]:
    """Per-name count/total from a B/E event stream (metadata ignored).

    Works on merged streams too: pairing is tracked per ``(pid, tid)``.
    """
    stacks: dict[tuple, list] = {}
    totals: dict[str, list] = {}
    for e in events:
        ph = e.get("ph")
        if ph == "B":
            stacks.setdefault((e.get("pid"), e.get("tid")), []).append(e)
        elif ph == "E":
            stack = stacks.get((e.get("pid"), e.get("tid")), [])
            if not stack:
                raise ValueError(f"unpaired E event: {e!r}")
            opened = stack.pop()
            if opened["name"] != e["name"]:
                raise ValueError(f"mismatched pair: {opened['name']!r} closed "
                                 f"by {e['name']!r}")
            tot = totals.setdefault(e["name"], [0, 0])
            tot[0] += 1
            tot[1] += e["ts"] - opened["ts"]
    open_names = [s["name"] for stack in stacks.values() for s in stack]
    if open_names:
        raise ValueError(f"unpaired B events: {open_names}")
    return {name: {"count": c, "total": t}
            for name, (c, t) in sorted(totals.items())}
