"""``repro sweep`` CLI: table/JSON output, exit codes, cache assertions.

Each sweep here is tiny (one app, 4 nodes, 1-2 cells) so the whole file
stays in the tier-1 budget; the CLI's exit-code contract is the subject:
0 ok, 2 usage, 3 hit rate below --min-hit-rate, 4 degraded cells,
5 --check-serial mismatch.
"""

import json

import pytest

import repro.serve.cli as sweep_cli
from repro.runtime.results import RunResult
from repro.serve.cli import sweep_main
from repro.serve.request import RunRequest
from repro.tempest.config import ClusterConfig
from repro.tempest.faults import FaultConfig, PartitionScenario

_US = 1_000


def _sweep(*extra):
    """A 2-cell jacobi sweep (optimize off/on) on a 4-node cluster."""
    return ["jacobi", "--nodes", "4", "--axis", "optimize=off,on", *extra]


class TestUsageErrors:
    def test_unknown_axis_exits_2(self, capsys, monkeypatch):
        """A bad axis or axis value is named and rejected while the matrix
        is expanded — before a session exists to submit any cell to."""
        def no_session(*_a, **_k):
            raise AssertionError("a cell was about to be submitted")

        monkeypatch.setattr(sweep_cli, "ServeSession", no_session)
        for argv, named in [
            (["--axis", "bogus=1,2"], "unknown axis 'bogus'"),
            (["--axis", "nodes=4,0"], "nodes=0"),
            (["--axis", "protocol=invalidate,bogus", "--jobs", "2"], "protocol=bogus"),
            (["--axis", "drop=abc"], "drop=abc"),
            (["--nodes", "0"], "--nodes: n_nodes must be >= 1"),
        ]:
            with pytest.raises(SystemExit) as e:
                sweep_main(["jacobi", *argv])
            assert e.value.code == 2, argv
            assert named in capsys.readouterr().err.splitlines()[-1], argv

    def test_invalid_option_combination_exits_2(self, capsys):
        """A cell the run would refuse is a usage error naming the cell,
        not a traceback out of the worker that ran it."""
        with pytest.raises(SystemExit) as e:
            sweep_main([
                "jacobi", "--no-cache",
                "--axis", "optimize=off,on", "--axis", "rt_elim=off,on",
            ])
        assert e.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert "cell optimize=off,rt_elim=on: " in err
        assert "optimizer options" in err

    def test_axis_without_values_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            sweep_main(["jacobi", "--axis", "combine="])
        assert e.value.code == 2
        assert "needs =v1,v2" in capsys.readouterr().err

    def test_unknown_app_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            sweep_main(["hpl"])
        assert e.value.code == 2


class TestHappyPath:
    def test_table_json_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = sweep_main(_sweep("--json", str(out)))
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 cells" in text
        assert "unopt n=4" in text and "opt n=4" in text
        assert "served 2 requests" in text
        payload = json.loads(out.read_text())
        assert len(payload["cells"]) == 2
        assert payload["stats"]["requests"] == 2
        assert payload["mismatches"] == 0
        assert all(c["completed"] for c in payload["cells"])
        assert all(len(c["key"]) == 64 for c in payload["cells"])

    def test_check_serial_clean(self, capsys):
        rc = sweep_main(_sweep("--check-serial"))
        assert rc == 0
        assert "check-serial: all 2 cells exactly equal" in capsys.readouterr().out


class TestCacheAssertions:
    def test_cold_run_below_min_hit_rate_exits_3(self, capsys):
        rc = sweep_main(_sweep("--min-hit-rate", "0.9"))
        assert rc == 3
        assert "below required" in capsys.readouterr().err

    def test_warm_rerun_meets_min_hit_rate(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert sweep_main(_sweep("--cache-dir", cache)) == 0
        rc = sweep_main(_sweep("--cache-dir", cache, "--min-hit-rate", "1.0"))
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 cached, 0 computed" in text
        assert "hit rate 100%" in text

    def test_no_cache_ignores_cache_dir(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert sweep_main(_sweep("--cache-dir", cache)) == 0
        rc = sweep_main(
            _sweep("--cache-dir", cache, "--no-cache", "--min-hit-rate", "0.5")
        )
        assert rc == 3  # everything recomputed: the cache was bypassed


class TestFailureExitCodes:
    def test_degraded_cell_exits_4(self, monkeypatch, capsys):
        # The axes cannot spell a partition, so substitute the expansion:
        # one never-healing cut, which parks degraded deterministically.
        cut = ClusterConfig(n_nodes=4).scaled(
            faults=FaultConfig(
                partitions=(
                    PartitionScenario(
                        "cut", frozenset({1}), t_start_ns=200 * _US,
                        duration_ns=None,
                    ),
                ),
                max_retries=3,
            )
        )
        req = RunRequest(app="jacobi", params={"n": 32, "iters": 2}, config=cut)
        monkeypatch.setattr(
            sweep_cli, "expand_matrix", lambda *a, **kw: [req]
        )
        rc = sweep_main(["jacobi"])
        assert rc == 4
        assert "DEGRADED" in capsys.readouterr().out

    def test_check_serial_mismatch_exits_5(self, monkeypatch, capsys):
        monkeypatch.setattr(RunResult, "exact_equal", lambda a, b: False)
        rc = sweep_main(_sweep("--check-serial"))
        assert rc == 5
        assert "MISMATCH" in capsys.readouterr().err


class TestProgressLine:
    def test_progress_line_tracks_completion(self, capsys):
        rc = sweep_main(_sweep())
        assert rc == 0
        err = capsys.readouterr().err
        # The line rewrites in place; the final state shows all cells done.
        assert "\r" in err
        assert "2/2 done, 0 in flight" in err
        assert "2 computed" in err and "0 degraded" in err

    def test_quiet_suppresses_progress(self, capsys):
        rc = sweep_main(_sweep("--quiet"))
        assert rc == 0
        captured = capsys.readouterr()
        assert "done," not in captured.err
        assert "served 2 requests" in captured.out
