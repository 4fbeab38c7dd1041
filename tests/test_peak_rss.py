"""``tests/peak_rss.py`` (CI's paper-scale memory bound) fails a command
whose peak RSS exceeds the bound and passes its exit status through."""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: a child that touches about 64 MB
TOUCH_64MB = [sys.executable, "-c", "b = b'x' * (64 << 20)"]


def bound(limit_mb, cmd):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "peak_rss.py"), str(limit_mb), "--", *cmd],
        capture_output=True, text=True,
    )


def test_within_the_bound_passes():
    proc = bound(1000, TOUCH_64MB)
    assert proc.returncode == 0, proc.stderr
    assert "within the 1000 MB bound" in proc.stderr


def test_over_the_bound_fails():
    proc = bound(40, TOUCH_64MB)
    assert proc.returncode == 1
    assert "over the 40 MB bound" in proc.stderr


def test_the_command_status_passes_through():
    assert bound(1000, [sys.executable, "-c", "raise SystemExit(3)"]).returncode == 3


def test_usage_error():
    assert bound(100, []).returncode == 2
