"""The result-validation utility."""

import pytest

from repro.balancers import make_balancer
from repro.cluster.simulator import SimConfig, Simulator
from repro.experiments.validation import ValidationReport, validate
from repro.namespace.dirfrag import FragId
from repro.workloads import MdtestWorkload, ZipfWorkload


def run_sim(balancer="lunule", workload=None, **overrides):
    wl = workload or ZipfWorkload(6, files_per_dir=40, reads_per_client=300)
    cfg = SimConfig(n_mds=3, mds_capacity=50, epoch_len=5, max_ticks=4000)
    if overrides:
        cfg = cfg.with_(**overrides)
    sim = Simulator(wl.materialize(seed=4), make_balancer(balancer), cfg)
    return sim, sim.run()


class TestValidationPasses:
    @pytest.mark.parametrize("balancer", ["nop", "vanilla", "greedyspill",
                                          "dirhash", "lunule", "lunule-light"])
    def test_every_balancer_validates(self, balancer):
        sim, res = run_sim(balancer)
        report = validate(sim, res)
        assert report.ok, report.problems

    def test_creates_validate(self):
        sim, res = run_sim("lunule", workload=MdtestWorkload(4, creates_per_client=400))
        assert validate(sim, res).ok

    def test_data_path_validates(self):
        sim, res = run_sim("lunule", data_path=True)
        assert validate(sim, res).ok

    def test_raise_if_failed_noop_when_ok(self):
        sim, res = run_sim("nop")
        validate(sim, res).raise_if_failed()


class TestValidationCatchesCorruption:
    def test_detects_served_mismatch(self):
        sim, res = run_sim("nop")
        res.served_per_mds[0] += 5
        report = validate(sim, res)
        assert not report.ok
        assert any("ops served" in p for p in report.problems)

    def test_detects_inode_leak(self):
        sim, res = run_sim("nop")
        res.inode_distribution[0] -= 1
        assert not validate(sim, res).ok

    def test_detects_if_out_of_range(self):
        sim, res = run_sim("nop")
        res.if_series[0] = 1.5
        report = validate(sim, res)
        assert any("imbalance factor" in p for p in report.problems)

    def test_detects_non_cumulative_migration(self):
        sim, res = run_sim("lunule")
        if len(res.migrated_series) >= 2:
            res.migrated_series[-1] = 0
        report = validate(sim, res)
        assert not report.ok

    def test_detects_capacity_violation(self):
        sim, res = run_sim("nop")
        res.per_mds_iops[0][0] = 10_000.0
        assert any("capacity" in p for p in validate(sim, res).problems)

    def test_detects_fragment_at_missing_rank(self):
        sim, res = run_sim("nop")
        d = sim.tree.n_dirs - 1
        sim.authmap.split_dir(d, 1)
        sim.authmap.set_frag_auth(FragId(d, 1, 1), sim.n_mds)
        problems = validate(sim, res).problems
        assert any(f"fragment 1 of dir {d}" in p for p in problems), problems

    def test_raise_if_failed_raises(self):
        sim, res = run_sim("nop")
        res.meta_ops += 1
        with pytest.raises(AssertionError):
            validate(sim, res).raise_if_failed()


class TestReport:
    def test_expect_collects(self):
        rep = ValidationReport()
        rep.expect(True, "fine")
        rep.expect(False, "broken")
        assert not rep.ok
        assert rep.problems == ["broken"]
