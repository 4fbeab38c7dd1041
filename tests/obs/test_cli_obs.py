"""CLI observability flags: --trace-out, --profile-phases, --trace-messages."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import validate_chrome_trace

SMALL = ["jacobi", "--nodes", "4", "--param", "n=32", "--param", "iters=1"]


class TestParser:
    def test_obs_flags_parse(self):
        args = build_parser().parse_args(
            SMALL + ["--trace-out", "t.json", "--trace-kinds", "miss,barrier",
                     "--trace-cap", "5000", "--profile-phases"]
        )
        assert args.trace_out == "t.json"
        assert args.trace_kinds == "miss,barrier"
        assert args.trace_cap == 5000
        assert args.profile_phases

    def test_trace_messages_optional_value(self):
        assert build_parser().parse_args(SMALL).trace_messages is None
        assert build_parser().parse_args(
            SMALL + ["--trace-messages"]).trace_messages == "all"
        assert build_parser().parse_args(
            SMALL + ["--trace-messages", "read_req"]).trace_messages == "read_req"


class TestMain:
    def test_trace_out_writes_valid_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        rc = main(SMALL + ["--trace-out", str(path)])
        assert rc == 0
        data = json.loads(path.read_text())
        assert validate_chrome_trace(data) == []
        assert "trace:" in capsys.readouterr().out

    def test_trace_kinds_filters(self, tmp_path):
        path = tmp_path / "trace.json"
        rc = main(SMALL + ["--trace-out", str(path), "--trace-kinds", "barrier"])
        assert rc == 0
        data = json.loads(path.read_text())
        kinds = {r["args"]["kind"] for r in data["traceEvents"]
                 if r["ph"] not in ("M", "s", "f")}
        assert kinds == {"barrier", "barrier.arrive", "barrier.release"}

    def test_profile_phases_prints_breakdown(self, capsys):
        rc = main(SMALL + ["--profile-phases"])
        assert rc == 0
        out = capsys.readouterr().out
        # total_ms adds every node's time: the heading must say so (it used
        # to claim a per-node average above a 4x-elapsed total).
        assert "per-phase time breakdown (summed over nodes):" in out
        assert "average" not in out
        assert "all phases" in out
        assert "read_miss" in out

    def test_trace_messages_prints_chart(self, capsys):
        rc = main(SMALL + ["--trace-messages", "read_req,read_resp"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "message trace:" in out
        assert "read_req" in out

    def test_bad_message_kind_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(SMALL + ["--trace-messages", "bogus_kind"])

    def test_obs_flags_rejected_on_msgpass(self, capsys):
        with pytest.raises(SystemExit):
            main(SMALL + ["--backend", "msgpass", "--profile-phases"])

    def test_trace_out_in_missing_directory_rejected_up_front(self, tmp_path, capsys):
        path = tmp_path / "no" / "such" / "dir" / "t.json"
        with pytest.raises(SystemExit) as exc:
            main(SMALL + ["--trace-out", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--trace-out" in captured.err and "no directory" in captured.err
        assert captured.out == ""  # rejected before anything ran

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_trace_cap_below_one_is_a_usage_error(self, tmp_path, capsys, cap):
        path = tmp_path / "t.json"
        with pytest.raises(SystemExit) as exc:
            main(SMALL + ["--trace-out", str(path), "--trace-cap", cap])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--trace-cap" in captured.err and "max_events" in captured.err
        assert captured.out == "" and not path.exists()

    def test_trace_out_naming_a_directory_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(SMALL + ["--trace-out", str(tmp_path)])
        assert exc.value.code == 2

    def test_numerics_mismatch_still_leaves_the_trace(self, tmp_path, monkeypatch):
        from repro.runtime.results import RunResult

        def mismatch(self, other, rtol=1e-10):
            raise AssertionError("arrays diverge")

        monkeypatch.setattr(RunResult, "assert_same_numerics", mismatch)
        path = tmp_path / "trace.json"
        with pytest.raises(AssertionError, match="arrays diverge"):
            main(SMALL + ["--trace-out", str(path)])
        assert validate_chrome_trace(json.loads(path.read_text())) == []
