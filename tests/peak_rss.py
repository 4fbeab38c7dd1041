"""Run a command and fail if its peak resident set exceeds a bound.

    python tests/peak_rss.py LIMIT_MB -- CMD [ARG ...]

The command runs as a child process; its peak is the largest
``ru_maxrss`` among the children this process waited for (KiB on Linux,
reported here in MB of 1024 KiB).  Exits with the command's own status if
that is nonzero, 1 if the peak exceeds ``LIMIT_MB``, else 0.  The measured
peak is printed to stderr either way.
"""

from __future__ import annotations

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: python tests/peak_rss.py LIMIT_MB -- CMD [ARG ...]", file=sys.stderr)
        return 2
    limit = float(argv[0])
    status = subprocess.run(argv[2:]).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    verdict = "over" if peak > limit else "within"
    print(f"peak RSS {peak:.1f} MB, {verdict} the {limit:g} MB bound", file=sys.stderr)
    if status:
        return status
    return 1 if peak > limit else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
