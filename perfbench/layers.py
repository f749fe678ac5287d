"""Traced-run instrumentation: spans around each layer's public calls.

The traced run wraps, from outside the program, the methods the
simulator calls by attribute on its live objects, plus three module-level
names (``repro.core.balancer.candidates_for``,
``repro.serve.service.build_ledger`` and ``WorkloadProfile.compute``).
Every wrapper records one span on a wall-clock
:class:`~repro.obs.spans.SpanProfiler`; a layer's self time is its span
minus its child spans. :meth:`LayerTracer.restore` undoes every patch, so
a traced and an untraced run can share one process (the test suite does).
"""

from __future__ import annotations

import functools
from collections.abc import Callable

from repro.obs.spans import SpanProfiler

__all__ = ["LOOP_SPANS", "LayerTracer", "span_stats"]

_MISSING = object()

#: span names recorded during the tick loop (setup spans are excluded from
#: the loop's attribution)
LOOP_SPANS = (
    "kernel.serve_tick", "kernel.authtable.refresh", "cluster.migrator.tick",
    "cluster.stats.end_epoch", "core.snapshot_view", "balancers.on_epoch",
    "balancers.candidates", "cluster.apply_plan", "namespace.merge",
    "obs.ledger.build", "obs.recorder.sample", "obs.workload_profile",
    "serve.bus.publish",
)


class LayerTracer:
    """Installs span wrappers and keeps the counts measured beside them."""

    def __init__(self) -> None:
        self.prof = SpanProfiler(clock="wall")
        self.counts: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- patching
    def wrap(self, owner: object, attr: str, span: str,
             before: Callable[..., None] | None = None,
             after: Callable[[object], None] | None = None) -> None:
        """Replace ``owner.attr`` with a spanned call of the original.

        ``owner`` may be a live object (the wrapper shadows the bound
        method), a class or a module. ``before`` sees the call's arguments,
        ``after`` its return value; both run inside the span.
        """
        original = getattr(owner, attr)
        prof = self.prof

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            prof.begin(span)
            try:
                if before is not None:
                    before(*args, **kwargs)
                out = original(*args, **kwargs)
                if after is not None:
                    after(out)
                return out
            finally:
                prof.end(span)

        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, spanned)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # ----------------------------------------------------------- the layers
    def install_modules(self, served: bool) -> None:
        """Patch module- and class-level names (before set-up)."""
        import repro.core.balancer as core_balancer
        import repro.serve.service as service_mod
        from repro.obs.workload import WorkloadProfile
        from repro.workloads.mixed import MixedWorkload

        self.wrap(core_balancer, "candidates_for", "balancers.candidates",
                  after=lambda out: self.count("balancers.candidates.emitted",
                                               len(out)))
        self.wrap(service_mod, "build_ledger", "obs.ledger.build")
        self.wrap(WorkloadProfile, "compute", "obs.workload_profile")
        if served:
            # the service materializes inside its constructor
            self.wrap(MixedWorkload, "materialize", "workloads.materialize")

    def install_live(self, sim, service=None) -> None:
        """Wrap the bound methods of a constructed simulator (after set-up)."""
        engine = sim.engine
        if engine is None:
            raise ValueError("the traced run needs the columnar engine")
        authmap = sim.authmap
        versions = [authmap.version]

        def note_version(*_a, **_k) -> None:
            if authmap.version != versions[-1]:
                self.count("kernel.authtable.rebuilds")
                versions.append(authmap.version)

        self.wrap(engine, "serve_tick", "kernel.serve_tick")
        self.wrap(engine.table, "refresh", "kernel.authtable.refresh",
                  before=note_version)
        self.wrap(sim.migrator, "tick", "cluster.migrator.tick")
        self.wrap(sim.stats, "end_epoch", "cluster.stats.end_epoch")
        self.wrap(sim, "snapshot_view", "core.snapshot_view")
        self.wrap(sim.balancer, "on_epoch", "balancers.on_epoch")
        self.wrap(sim, "apply_plan", "cluster.apply_plan")
        self.wrap(authmap, "merge_redundant_roots", "namespace.merge")
        self.wrap(authmap, "merge_uniform_frags", "namespace.merge")
        if sim.recorder is not None:
            self.wrap(sim.recorder, "sample", "obs.recorder.sample")
        if service is not None:
            self.wrap(service.bus, "publish", "serve.bus.publish")


def span_stats(events: list[dict]) -> dict[str, dict]:
    """Per-name calls, inclusive and self time (µs) and per-call durations.

    Self time is a span's duration minus the durations of its direct
    children. ``top`` sums the durations of outermost spans only.
    """
    stats: dict[str, dict] = {}
    stack: list[list] = []  # [name, ts_begin, child_total]
    for e in events:
        if e["ph"] == "B":
            stack.append([e["name"], e["ts"], 0])
            continue
        name, ts0, child = stack.pop()
        dur = e["ts"] - ts0
        st = stats.setdefault(name, {"calls": 0, "total": 0, "self": 0,
                                     "top": 0, "durs": []})
        st["calls"] += 1
        st["total"] += dur
        st["self"] += dur - child
        st["durs"].append(dur)
        if stack:
            stack[-1][2] += dur
        else:
            st["top"] += dur
    return stats
