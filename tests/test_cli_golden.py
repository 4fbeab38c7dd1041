"""``repro APP`` stdout, byte for byte, on six small runs.

Each run's stdout and exit code are pinned in ``tests/cli_golden/``.  The
table below is the one place the runs are named; to re-record after a
deliberate output change::

    PYTHONPATH=src python -m tests.test_cli_golden
"""

import contextlib
import io
import pathlib

import pytest

from repro.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden")

_GRAV = ["grav", "--nodes", "4", "--param", "n=17", "--param", "iters=1"]
_JACOBI = ["jacobi", "--param", "n=32", "--param", "iters=2"]

#: run name -> (argv, exit code)
RUNS = {
    "clean": (_GRAV, 0),
    "drops": (_GRAV + ["--fault-drop", "0.05"], 0),
    "crash_rollback": (
        _JACOBI + ["--fault-crash", "2:3000:500", "--checkpoint-every", "1"], 0
    ),
    "degraded": (_JACOBI + ["--fault-crash", "2:3000:500"], 4),
    "msgpass": (
        ["jacobi", "--nodes", "4", "--backend", "msgpass",
         "--param", "n=32", "--param", "iters=1"], 0,
    ),
    "instrumented": (_GRAV + ["--profile-phases", "--critical-path"], 0),
}


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    return rc, out.getvalue()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_is_byte_identical(name):
    argv, code = RUNS[name]
    rc, out = run(argv)
    assert rc == code
    assert out == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, code) in RUNS.items():
        rc, out = run(argv)
        assert rc == code, (name, rc)
        (GOLDEN / f"{name}.txt").write_text(out)
        print(f"{name}: {len(out)} bytes")
