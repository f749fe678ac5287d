"""The command-line interface."""

import io

import pytest

from repro.cli import FIGURES, build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "bogus"])

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    @pytest.mark.parametrize("command,flag,value", [
        (cmd, flag, value)
        for cmd, flags in [
            (["run"], ("-c", "-m", "--capacity", "--scale")),
            (["trace"], ("-c", "-m", "--capacity", "--scale", "--ring")),
            (["sweep"], ("-c", "--scale", "-j")),
            (["chaos", "flap"], ("-c", "-m", "--scale")),
            (["serve"], ("-c", "-m", "--capacity", "--scale")),
            (["figure", "table1"], ("--scale",)),
            (["overhead"], ("-m",)),
        ]
        for flag in flags
        for value in (("0", "-5", "nan", "inf")
                      if flag in ("--capacity", "--scale") else ("0", "-1"))
    ])
    def test_rejects_out_of_range_numbers(self, command, flag, value, capsys):
        """A zero or negative count, capacity or scale is a usage error
        (exit 2), never a traceback from deep inside the run."""
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, value], out=io.StringIO())
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err
        assert f"argument {flag}" in err or f"/{flag}" in err


class TestList:
    def test_lists_everything(self):
        code, text = run_cli("list")
        assert code == 0
        for token in ("lunule", "vanilla", "dirhash", "cnn", "mixed", "fig6"):
            assert token in text


class TestRun:
    def test_run_summary(self):
        code, text = run_cli("run", "-w", "zipf", "-b", "lunule",
                             "-c", "6", "-m", "3", "--scale", "0.2")
        assert code == 0
        assert "Simulation summary" in text
        assert "mean imbalance factor" in text
        assert "zipf" in text and "lunule" in text

    def test_run_with_data_path(self):
        code, text = run_cli("run", "-w", "zipf", "-b", "nop", "-c", "4",
                             "-m", "2", "--scale", "0.1", "--data-path")
        assert code == 0
        assert "metadata-op ratio" in text

    def test_seed_changes_nothing_but_is_accepted(self):
        code, _ = run_cli("run", "-w", "mdtest", "-b", "vanilla", "-c", "4",
                          "-m", "2", "--scale", "0.1", "--seed", "11")
        assert code == 0


class TestRecordAndReport:
    RUN_ARGS = ("run", "-w", "mdtest", "-b", "lunule", "-c", "6", "-m", "3",
                "--scale", "0.1")

    def test_record_then_report_round_trip(self, tmp_path):
        run_dir = tmp_path / "flight"
        code, text = run_cli(*self.RUN_ARGS, "--record", str(run_dir))
        assert code == 0
        assert "recorded" in text
        for name in ("run.json", "timeseries.csv", "trace.jsonl",
                     "metrics.json", "metrics.prom", "spans.perfetto.json"):
            assert (run_dir / name).exists(), f"missing artifact {name}"

        code, text = run_cli("report", str(run_dir), "--html")
        assert code == 0
        assert "# Run report" in text
        assert "## Imbalance-factor trajectory" in text
        assert (run_dir / "report.md").exists()
        assert (run_dir / "report.html").exists()

    def test_recorded_artifacts_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(*self.RUN_ARGS, "--record", str(a))
        run_cli(*self.RUN_ARGS, "--record", str(b))
        for name in ("timeseries.csv", "spans.perfetto.json", "metrics.prom"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_prom_artifact_passes_the_self_check(self, tmp_path):
        from repro.obs.prom import parse_openmetrics

        run_dir = tmp_path / "flight"
        run_cli(*self.RUN_ARGS, "--record", str(run_dir))
        families = parse_openmetrics(
            (run_dir / "metrics.prom").read_text(encoding="utf-8"))
        assert "sim_epochs" in families

    def test_report_on_a_non_artifact_dir_fails(self, tmp_path, capsys):
        code = main(["report", str(tmp_path)], out=io.StringIO())
        assert code == 2
        assert "repro run --record" in capsys.readouterr().err


class TestTraceFilters:
    TRACE_ARGS = ("trace", "-w", "mdtest", "-b", "lunule", "-c", "6",
                  "-m", "3", "--scale", "0.1")

    def test_etype_filter_limits_the_dump(self, tmp_path):
        from repro.obs.tracelog import read_jsonl

        out_path = tmp_path / "t.jsonl"
        code, text = run_cli(*self.TRACE_ARGS, "--etype", "epoch_start",
                             "-o", str(out_path))
        assert code == 0
        assert "filters kept" in text
        events = list(read_jsonl(out_path))
        assert events
        assert {e.etype for e in events} == {"epoch_start"}

    def test_epoch_range_filter(self, tmp_path):
        from repro.obs.tracelog import read_jsonl

        out_path = tmp_path / "t.jsonl"
        code, _ = run_cli(*self.TRACE_ARGS, "--epoch-range", "0:1",
                          "-o", str(out_path))
        assert code == 0
        starts = [e for e in read_jsonl(out_path) if e.etype == "epoch_start"]
        assert [e.epoch for e in starts] == [0, 1]

    def test_filters_apply_to_existing_files_too(self, tmp_path):
        from repro.obs.tracelog import read_jsonl

        full = tmp_path / "full.jsonl"
        run_cli(*self.TRACE_ARGS, "-o", str(full))
        sliced = tmp_path / "sliced.jsonl"
        code, text = run_cli("trace", "--from", str(full),
                             "--etype", "migration_committed",
                             "--epoch-range", "1:",
                             "-o", str(sliced))
        assert code == 0
        n_full = len(list(read_jsonl(full)))
        events = list(read_jsonl(sliced))
        assert len(events) < n_full
        assert all(e.etype == "migration_committed" for e in events)

    def test_bad_epoch_range_is_a_usage_error(self, capsys):
        code = main([*self.TRACE_ARGS, "--epoch-range", "5:2"],
                    out=io.StringIO())
        assert code == 2
        assert "epoch-range" in capsys.readouterr().err

    def test_unknown_etype_rejected_by_the_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--etype", "bogus"])


class TestSweepRecord:
    def test_sweep_record_writes_the_aggregate(self, tmp_path):
        import json

        run_dir = tmp_path / "sweep"
        code, text = run_cli("sweep", "-w", "mdtest", "-b", "vanilla",
                             "lunule", "-c", "6", "--scale", "0.1",
                             "-j", "1", "--record", str(run_dir))
        assert code == 0
        assert "recorded aggregate observability" in text
        with open(run_dir / "aggregate.json", encoding="utf-8") as fh:
            agg = json.load(fh)
        assert set(agg) == {"metrics", "spans", "runs"}
        assert set(agg["runs"]) == {"mdtestxvanilla", "mdtestxlunule"}
        assert (run_dir / "sweep.perfetto.json").exists()
        assert (run_dir / "metrics.prom").exists()


class TestOverhead:
    def test_overhead_report(self):
        code, text = run_cli("overhead", "-m", "3")
        assert code == 0
        assert "Overhead accounting" in text
        assert "gossip" in text


class TestFigure:
    def test_table1(self):
        code, text = run_cli("figure", "table1", "--scale", "0.5")
        assert code == 0
        assert "Table 1" in text

    def test_fig2(self):
        code, text = run_cli("figure", "fig2", "--scale", "0.3")
        assert code == 0
        assert "Figure 2" in text

    def test_all_figures_registered(self):
        # every paper figure has a CLI id
        expected = {"table1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig8",
                    "fig9", "fig10", "fig11", "fig12a", "fig12b", "fig13a",
                    "fig13b", "fig14"}
        assert expected == set(FIGURES)


class TestExplainAndDiff:
    RUN = ("run", "-w", "mdtest", "-b", "lunule", "-c", "6", "-m", "3",
           "--scale", "0.1")

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("prov-runs")
        a, b = base / "a", base / "b"
        assert run_cli(*self.RUN, "--seed", "7", "--record", str(a))[0] == 0
        assert run_cli(*self.RUN, "--seed", "11", "--record", str(b))[0] == 0
        return a, b

    def test_explain_renders_chains_and_summary(self, runs):
        code, text = run_cli("explain", str(runs[0]))
        assert code == 0
        assert "migration" in text and "summary:" in text
        assert "if_computed[" in text  # chains start at the IF root

    def test_explain_json_is_valid(self, runs):
        import json

        code, text = run_cli("explain", str(runs[0]), "--format", "json")
        assert code == 0
        report = json.loads(text)
        assert set(report) == {"epochs", "summary"}
        assert report["summary"]["migrations"] > 0

    def test_explain_epoch_filter(self, runs):
        import json

        code, text = run_cli("explain", str(runs[0]), "--epoch", "0",
                             "--format", "json")
        assert code == 0
        report = json.loads(text)
        assert [b["epoch"] for b in report["epochs"]] in ([], [0])

    def test_explain_rank_and_subtree_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "x", "--rank", "1",
                                       "--subtree", "7"])

    def test_explain_missing_run_fails(self, tmp_path, capsys):
        code = main(["explain", str(tmp_path / "nope")], out=io.StringIO())
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_diff_identical_runs_exit_zero(self, runs):
        code, text = run_cli("diff", str(runs[0]), str(runs[0]))
        assert code == 0
        assert "no divergence" in text

    def test_diff_divergent_runs_exit_one(self, runs):
        code, text = run_cli("diff", str(runs[0]), str(runs[1]))
        assert code == 1
        assert "first divergence at epoch" in text
        assert "run A" in text and "run B" in text

    def test_diff_json(self, runs):
        import json

        code, text = run_cli("diff", str(runs[0]), str(runs[1]),
                             "--format", "json")
        assert code == 1
        report = json.loads(text)
        assert report["divergent"] is True
        assert "first_divergence" in report

    def test_diff_missing_side_fails(self, runs, tmp_path, capsys):
        code = main(["diff", str(runs[0]), str(tmp_path / "nope")],
                    out=io.StringIO())
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_decision_filter_slices_one_chain(self, runs, tmp_path):
        from repro.obs.provenance import ProvenanceGraph
        from repro.obs.tracelog import read_jsonl

        full = runs[0] / "trace.jsonl"
        graph = ProvenanceGraph.from_jsonl(full)
        planned = next(e for e in graph.events
                       if e.etype == "migration_planned")
        sliced = tmp_path / "chain.jsonl"
        code, text = run_cli("trace", "--from", str(full),
                             "--decision", str(planned.did),
                             "-o", str(sliced))
        assert code == 0
        assert "filters kept" in text
        dids = {e.did for e in read_jsonl(sliced)}
        assert dids == graph.chain_ids(planned.did)
        assert planned.did in dids

    def test_trace_unknown_decision_fails(self, runs, capsys):
        full = runs[0] / "trace.jsonl"
        code = main(["trace", "--from", str(full), "--decision", "999999"],
                    out=io.StringIO())
        assert code == 2
        assert "not in this trace" in capsys.readouterr().err
