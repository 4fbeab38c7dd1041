"""Tests for the evaluation-report generator."""

import json

import pytest

from repro.report import (
    BENCH_ARTIFACTS,
    AppEvaluation,
    evaluate_app,
    load_bench_artifact,
    main,
    render_bench_appendix,
    render_report,
)


@pytest.fixture(scope="module")
def grav_eval():
    # Tiny override keeps the full matrix cheap.
    return evaluate_app("grav", n_nodes=4, n=33, iters=1)


class TestEvaluateApp:
    def test_matrix_complete(self, grav_eval):
        assert grav_eval.app == "grav"
        assert grav_eval.uni.backend == "uniproc"
        assert grav_eval.msgpass.backend == "msgpass"
        assert grav_eval.opt_dual.extra["rt_elim"] is True

    def test_derived_metrics_sensible(self, grav_eval):
        assert 0 < grav_eval.miss_reduction <= 100
        assert grav_eval.comm_reduction_dual > 0
        assert grav_eval.speedup(grav_eval.opt_dual) > grav_eval.speedup(
            grav_eval.unopt_dual
        )

    def test_cg_disables_rt_elim(self):
        e = evaluate_app("cg", n_nodes=4, rows=24, cols=48, iters=2)
        assert e.opt_dual.extra["rt_elim"] is False


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
        for line in text.splitlines():
            if line.startswith("|"):
                assert line.endswith("|"), line


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
