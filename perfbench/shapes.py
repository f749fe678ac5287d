"""The benchmark's three workloads, built through the public API.

Every workload runs the lunule balancer on the columnar engine as a
closed loop: the simulator serves the next tick only after the previous
one completes, and no generator thread feeds it. One :class:`Instance` is
one simulation at one workload seed; :meth:`Instance.setup` is the timed
set-up (workload materialization, simulator or service construction and
``start``), :meth:`Instance.loop` the timed tick loop.

The sizes below are the benchmark's; the test suite passes smaller
``size`` overrides to run the same shapes in seconds.
"""

from __future__ import annotations

import contextlib
import pathlib
import sys
from collections.abc import Callable
from typing import ContextManager

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _p in (ROOT / "src", ROOT / "benchmarks"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from bench_core_speed import MegaTreeWorkload  # noqa: E402
from repro.balancers import make_balancer  # noqa: E402
from repro.cluster.results import SimResult  # noqa: E402
from repro.cluster.simulator import SimConfig, Simulator  # noqa: E402
from repro.experiments.config import BENCH_SIM_CONFIG, ExperimentConfig  # noqa: E402
from repro.serve.service import SimulatorService  # noqa: E402
from repro.workloads import MdtestWorkload, Workload  # noqa: E402

__all__ = ["SHAPES", "Instance", "instance_seed"]

#: a span factory: ``with span("layer.name"): ...`` (a no-op when untraced)
SpanFn = Callable[[str], ContextManager]


def _no_span(_name: str) -> ContextManager:
    return contextlib.nullcontext()


#: workload -> default sizes (each sized for >= 100 epochs)
SHAPES: dict[str, dict] = {
    # mdtest create storm: 32 clients, each creating into its own dir,
    # 8 ranks at capacity 1000 (the fig13_serveheavy_n8 shape)
    "create_storm": {"clients": 32, "creates": 160_000, "n_mds": 8,
                     "capacity": 1000.0, "jitter": 0.005},
    # creates on 32 ranks next to a cold fan-out far above the sparse
    # candidate threshold (SPARSE_DIR_THRESHOLD = 65,536 dirs)
    "megatree": {"clients": 128, "creates": 13_000, "cold_dirs": 150_000,
                 "n_mds": 32, "capacity": 100.0, "jitter": 0.005},
    # the paper's mixed workload (cnn/nlp/web/zipf groups) driven through
    # SimulatorService with the observability `repro serve` turns on
    "served_mixed": {"clients": 20, "scale": 2.0, "n_mds": 5,
                     "capacity": 100.0},
}


def instance_seed(seed: int, index: int) -> int:
    """The workload seed of the ``index``-th instance of a run at ``seed``."""
    return seed + 1000 * index


class Instance:
    """One simulation of one workload at one workload seed."""

    def __init__(self, workload: str, seed: int, *, engine: str = "columnar",
                 served: bool | None = None, **size) -> None:
        if workload not in SHAPES:
            raise ValueError(f"unknown workload {workload!r}; "
                             f"choose from {sorted(SHAPES)}")
        self.workload = workload
        self.seed = seed
        self.engine = engine
        #: served_mixed runs through SimulatorService; ``served=False``
        #: builds the same config as a batch Simulator (the test suite's
        #: served == batch check)
        self.served = (workload == "served_mixed") if served is None else served
        self.size = {**SHAPES[workload], **size}
        self.sim: Simulator | None = None
        self.service: SimulatorService | None = None

    # -------------------------------------------------------------- configs
    def sim_config(self) -> SimConfig:
        s = self.size
        cfg = BENCH_SIM_CONFIG.with_(n_mds=s["n_mds"], mds_capacity=s["capacity"],
                                     engine=self.engine, seed=self.seed)
        if self.workload == "served_mixed":
            # what `repro serve` sets: wall-clock recorder, perf gauges and
            # the workload profile
            cfg = cfg.with_(record=True, record_clock="wall", perf_gauges=True,
                            workload_profile=True)
        return cfg

    def experiment_config(self) -> ExperimentConfig:
        s = self.size
        return ExperimentConfig(workload="mixed", balancer="lunule",
                                n_clients=s["clients"], seed=self.seed,
                                scale=s["scale"], sim=self.sim_config())

    def build_workload(self) -> Workload:
        s = self.size
        if self.workload == "create_storm":
            return MdtestWorkload(s["clients"], creates_per_client=s["creates"],
                                  jitter=s["jitter"])
        if self.workload == "megatree":
            return MegaTreeWorkload(s["clients"], n_cold_dirs=s["cold_dirs"],
                                    creates_per_client=s["creates"],
                                    jitter=s["jitter"])
        return self.experiment_config().build_workload()

    # ------------------------------------------------------------------ run
    def setup(self, span: SpanFn | None = None) -> None:
        """Config to first tick: materialize, construct, ``start``.

        ``span`` names each step for a traced run; untraced runs pass none.
        """
        span = span or _no_span
        if self.served:
            with span("cluster.sim_init"):
                self.service = SimulatorService(self.experiment_config())
            self.sim = self.service.sim
            with span("cluster.start"):
                self.service.start()
            return
        workload = self.build_workload()
        with span("workloads.materialize"):
            instance = workload.materialize(seed=self.seed)
        with span("cluster.sim_init"):
            self.sim = Simulator(instance, make_balancer("lunule"),
                                 self.sim_config())
        with span("cluster.start"):
            self.sim.start()

    def loop(self) -> SimResult:
        """Tick to completion and return the result."""
        if self.service is not None:
            self.service.run_to_completion()
            assert self.service.result is not None
            return self.service.result
        assert self.sim is not None
        while self.sim.step_tick():
            pass
        return self.sim.finish()
