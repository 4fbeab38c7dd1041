"""Tests for the evaluation-report generator."""

import json

import pytest

from repro.apps import APPS
from repro.report import (
    BENCH_ARTIFACTS,
    evaluate_app,
    load_bench_artifact,
    main,
    paper_cells,
    render_bench_appendix,
    render_report,
)
from repro.runtime import phases
from repro.serve import ServeSession, plan_key
from repro.tempest.faults import FaultConfig

# Tiny overrides keep the full matrix cheap.
TINY = {"grav": dict(n=33, iters=1), "cg": dict(rows=24, cols=48, iters=2)}
LOSSY = FaultConfig(drop_prob=0.05, dup_prob=0.025, jitter_ns=10_000, seed=1997)


@pytest.fixture(scope="module")
def grav_eval():
    # With both optional cells: they are built from the same overrides as
    # the rest (the old evaluate_combining / evaluate_faults rebuilt the
    # program without them and died in the numerics check).
    return evaluate_app(
        "grav", n_nodes=4, faults=LOSSY, combine=True, **TINY["grav"]
    )


class TestPaperCells:
    NAMES = ["uni", "unopt_dual", "opt_dual", "unopt_single", "opt_single",
             "msgpass", "opt_base", "opt_bulk"]

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_is_the_whole_declaration(self, app):
        cells = paper_cells(app, n_nodes=4)
        assert list(cells) == self.NAMES
        # The one exception to the full stack: cg runs without rt-elim.
        for name in ("opt_dual", "opt_single"):
            assert cells[name].optimize and cells[name].rt_elim is (app != "cg")
        # Only the two headline cells carry the profilers.
        assert [n for n, r in cells.items() if r.profile_phases] == [
            n for n, r in cells.items() if r.critical_path
        ] == ["unopt_dual", "opt_dual"]
        assert {r.config.dual_cpu for r in cells.values()} == {True, False}

    def test_optional_cells(self):
        cells = paper_cells("jacobi", n_nodes=4, faults=LOSSY, combine=True)
        assert list(cells) == self.NAMES + ["combined", "faulted"]
        assert cells["combined"].config.combine.enabled
        assert not cells["combined"].optimize
        assert cells["faulted"].config.faults == LOSSY
        assert cells["faulted"].rt_elim and cells["faulted"].audit_each_barrier

    def test_cg_full_stack_is_the_bulk_plan(self):
        # Without rt-elim, cg's headline cell reuses opt_bulk's functional
        # pass; everywhere else the two are different plans.
        cg = paper_cells("cg", n_nodes=4, params=TINY["cg"])
        assert plan_key(cg["opt_dual"]) == plan_key(cg["opt_bulk"])
        grav = paper_cells("grav", n_nodes=4, params=TINY["grav"])
        assert plan_key(grav["opt_dual"]) != plan_key(grav["opt_bulk"])


class TestEvaluateApp:
    def test_matrix_complete(self, grav_eval):
        assert grav_eval.app == "grav"
        assert grav_eval.uni.backend == "uniproc"
        assert grav_eval.msgpass.backend == "msgpass"
        assert paper_cells("grav", n_nodes=4, params=TINY["grav"])["opt_dual"].rt_elim

    def test_derived_metrics_sensible(self, grav_eval):
        assert 0 < grav_eval.miss_reduction <= 100
        assert grav_eval.comm_reduction_dual > 0
        assert grav_eval.speedup(grav_eval.opt_dual) > grav_eval.speedup(
            grav_eval.unopt_dual
        )

    def test_cg_disables_rt_elim(self):
        assert not paper_cells("cg", n_nodes=4, params=TINY["cg"])["opt_dual"].rt_elim

    def test_optional_cells_honour_overrides(self, grav_eval):
        # iters=1 is not grav's default: a cell simulated from a rebuilt
        # default program disagrees with the reference's numerics.
        for name in ("combined", "faulted"):
            grav_eval.cells[name].assert_same_numerics(grav_eval.uni)
        assert grav_eval.combined.stats.total_msgs_combined > 0
        assert grav_eval.faulted.reliability["drops"] > 0
        with pytest.raises(AttributeError):
            grav_eval.no_such_cell

    def test_an_inline_evaluation_runs_the_numerics_once(self, monkeypatch):
        # Eight cells over four distinct plans (the single- and dual-CPU
        # cells share theirs), one program, one evaluator pass.
        calls = []
        real = phases.eval_parallel_assign
        monkeypatch.setattr(
            phases, "eval_parallel_assign",
            lambda *args: calls.append(args[0]) or real(*args),
        )
        phases.numerics(APPS["jacobi"].program())
        one_pass = len(calls)
        assert one_pass > 0
        session = ServeSession()
        evaluation = evaluate_app("jacobi", session=session)
        assert len(calls) == 2 * one_pass
        assert len(evaluation.cells) == 8
        assert session.stats()["plans_built"] == 4

    @pytest.mark.parametrize("app", ["grav", "cg"])
    def test_served_equals_inline(self, app, tmp_path):
        # The report's own matrix (profiled cells included) through a
        # worker pool and a store, cold then warm, is cell for cell what
        # the inline evaluation computes.
        inline = evaluate_app(app, n_nodes=4, **TINY[app])
        for expect_hits in (0, len(inline.cells)):
            with ServeSession(jobs=2, cache_dir=str(tmp_path)) as session:
                served = evaluate_app(app, n_nodes=4, session=session, **TINY[app])
                assert session.stats()["cache_hits"] == expect_hits
            assert list(served.cells) == list(inline.cells)
            for name, result in inline.cells.items():
                assert served.cells[name].exact_equal(result), name


class TestRenderReport:
    def test_contains_all_sections(self, grav_eval):
        text = render_report([grav_eval], 4)
        assert "Table 3" in text
        assert "Figure 3" in text
        assert "Figure 4" in text
        assert "| grav |" in text
        # Paper values in parentheses.
        assert "(38.2)" in text

    def test_markdown_tables_well_formed(self, grav_eval):
        text = render_report([grav_eval], 4)
        for section in ("Message combining", "Robustness", "Critical path"):
            assert section in text
        lines = text.splitlines()
        tables = 0
        for prev, line, nxt in zip([""] + lines, lines, lines[1:] + [""]):
            if not line.startswith("|"):
                continue
            assert line.endswith("|"), line
            if not prev.startswith("|"):
                # A header: GitHub only renders the table if the rule
                # under it has exactly as many columns.
                tables += 1
                assert set(nxt) <= set("|-"), nxt
                assert nxt.count("|") == line.count("|"), (line, nxt)
        assert tables == 8


class TestBenchArtifacts:
    MATRIX = {
        "scale": "default",
        "n_nodes": 8,
        "apps": {"jacobi": {"link+plain": {"elapsed_ns": 61_300_000},
                            "switch+plain": {"elapsed_ns": 63_900_000}}},
    }

    def test_missing_artifact_is_none_not_error(self, tmp_path):
        assert load_bench_artifact(str(tmp_path / "BENCH_switch.json")) is None

    def test_corrupt_artifact_is_none_not_error(self, tmp_path):
        bad = tmp_path / "BENCH_switch.json"
        bad.write_text("{not json")
        assert load_bench_artifact(str(bad)) is None
        bad.write_text(json.dumps(["wrong", "shape"]))
        assert load_bench_artifact(str(bad)) is None
        bad.write_text(json.dumps({"apps": "not-a-dict"}))
        assert load_bench_artifact(str(bad)) is None

    def test_valid_artifact_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_switch.json"
        path.write_text(json.dumps(self.MATRIX))
        assert load_bench_artifact(str(path)) == self.MATRIX

    def test_appendix_renders_present_and_missing(self):
        text = render_bench_appendix(
            {"BENCH_switch.json": self.MATRIX, "BENCH_combining.json": None}
        )
        assert "Appendix" in text
        assert "| jacobi | 61.3 | 63.9 |" in text
        assert "`BENCH_combining.json`: not found" in text
        for line in text.splitlines():
            if line.startswith("|"):
                assert line.endswith("|"), line

    def test_all_artifact_names_registered(self):
        assert set(BENCH_ARTIFACTS) == {
            "BENCH_combining.json", "BENCH_switch.json",
            "BENCH_partition.json", "BENCH_recovery.json",
            "BENCH_obs.json", "BENCH_engine.json", "BENCH_serve.json",
        }

    def test_serve_artifact_renders_provenance(self):
        serve = {
            "schema": "serve/1", "scale": "default", "n_cells": 8,
            "jobs": 4, "cpus": 4, "serial_s": 6.0, "parallel_s": 2.0,
            "warm_s": 0.05, "speedup": 3.0, "warm_fraction": 0.008,
            "warm_hit_rate": 1.0,
            "provenance": {
                "serial": {"computed": 8, "pool": 0, "cache_hits": 0,
                           "deduped": 0, "plans_built": 2},
                "warm": {"computed": 0, "pool": 0, "cache_hits": 8,
                         "deduped": 0, "plans_built": 0},
            },
        }
        text = render_bench_appendix({"BENCH_serve.json": serve})
        assert "serve layer: 8 cells" in text
        assert "3.00x vs serial" in text
        assert "hit rate 100%" in text
        assert "cache provenance" in text
        assert "8 cached" in text

    def test_engine_artifact_renders_speedups(self):
        engine = {
            "schema": "engine-speed/1", "baseline_commit": "bfcfe3e",
            "geomean_speedup": 1.61, "n_nodes": 8, "repeats": 3,
            "apps": {"jacobi": {"default": {"speedup": 1.37},
                                "paper": {"speedup": 3.12}}},
        }
        text = render_bench_appendix({"BENCH_engine.json": engine})
        assert "`bfcfe3e`" in text
        assert "geomean 1.61x" in text
        assert "| jacobi | 1.37x | 3.12x |" in text
        assert "build cells" not in text  # pre-build-cell artifacts still render

    def test_engine_artifact_renders_build_cells(self):
        engine = {
            "schema": "engine-speed/1", "apps": {}, "calibration_s": 0.0826,
            "build_cells": {"lu": 0.1234, "jacobi": 0.0151},
        }
        text = render_bench_appendix({"BENCH_engine.json": engine})
        assert "jacobi 0.015 s, lu 0.123 s at calibration 0.0826 s" in text


class TestMain:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        rc = main(["--apps", "grav", "--nodes", "4", "-o", str(out)])
        assert rc == 0
        assert "Table 3" in out.read_text()

    def test_unknown_app(self, capsys):
        assert main(["--apps", "hpl"]) == 2
        assert "unknown apps" in capsys.readouterr().err

    def test_a_refused_node_count_is_a_usage_error_naming_its_flag(self, capsys):
        """``--nodes 0`` reaches no evaluation: the config's refusal is
        mapped to the flag that set its field, as ``repro APP`` does."""
        with pytest.raises(SystemExit) as e:
            main(["--nodes", "0", "--apps", "jacobi"])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            "repro.report: error: --nodes: n_nodes must be >= 1; got 0")
        assert "evaluating" not in captured.err
        assert captured.out == ""

    def test_bench_dir_with_no_artifacts_still_succeeds(self, tmp_path):
        # The tolerant loaders: an empty bench dir must produce a report
        # that *says* the artifacts are missing, not a traceback.
        out = tmp_path / "r.md"
        rc = main(["--apps", "grav", "--nodes", "4", "-o", str(out),
                   "--bench-dir", str(tmp_path)])
        assert rc == 0
        text = out.read_text()
        assert "`BENCH_switch.json`: not found" in text
        assert "`BENCH_combining.json`: not found" in text
