"""``repro APP`` stdout, byte for byte, on six small runs.

Each run's stdout is pinned in ``tests/cli_golden/``, the ``cli`` table
of :mod:`tests.pins`; the table below is the one place the runs and
their exit codes are named.
"""

import contextlib
import io

import pytest

from repro.cli import main
from tests import pins

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


def stdout(name: str) -> str:
    argv, code = RUNS[name]
    rc, out = run(argv)
    assert rc == code, (name, rc)
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_is_byte_identical(name):
    assert stdout(name) == pins.stored("cli")[name]
