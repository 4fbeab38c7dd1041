"""``python -m tests.pins print [TABLE]`` and ``compare REV [--allow FIELD,...]``.

Run from the repository root.  ``print`` needs ``PYTHONPATH=src:.``;
``compare`` puts each side's ``src/`` on the path of the process it
starts (REV's is exported with ``git archive`` into a temporary
directory, so no worktree is left behind).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tests.pins import DATA, ROOT, dumps, ledger, tables


def compute(names) -> dict:
    out = {}
    for name in names:
        table = tables()[name]
        out[name] = {}
        for cell in table.cells:
            record = table.record(cell)
            out[name][cell] = (record, table.encode(record))
    return out


def records(src: str, path: str) -> int:
    """Compute every table over ``src`` (which must be the ``repro`` this
    process imports) and pickle the records to ``path``."""
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"imported {repro.__file__}, not the repro under {src}")
    with open(path, "wb") as fh:
        pickle.dump(compute(tables()), fh)
    return 0


def _side(src: str, path: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(ROOT)]))
    subprocess.run(
        [sys.executable, "-m", "tests.pins", "records", src, path],
        cwd=ROOT, env=env, check=True,
    )


def compare(rev: str, allow: set[str] | None) -> int:
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.Popen(["git", "archive", sha, "src"], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait():
            sys.exit(f"git archive {sha} src failed")
        sides = [(os.path.join(tmp, "src"), os.path.join(tmp, "old.pkl")),
                 (str(ROOT / "src"), os.path.join(tmp, "new.pkl"))]
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            for done in [pool.submit(_side, *side) for side in sides]:
                done.result()
        old, new = (pickle.loads(Path(path).read_bytes()) for _, path in sides)
    print(f"records computed in {time.perf_counter() - start:.1f} s")
    return ledger(old, new, allow, against=sha[:12])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.pins", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    show = sub.add_parser("print", help="print the values every cell computes now")
    show.add_argument("table", nargs="?", choices=sorted(p.stem for p in DATA.glob("*.json")))
    cmp = sub.add_parser("compare", help="name the record fields that moved since REV")
    cmp.add_argument("rev")
    cmp.add_argument("--allow", type=lambda s: set(s.split(",")),
                     help="re-record the moved cells if only these fields moved")
    rec = sub.add_parser("records")  # one side of compare
    rec.add_argument("src")
    rec.add_argument("path")
    args = parser.parse_args(argv)
    if args.command == "print":
        names = [args.table] if args.table else list(tables())
        values = {name: {cell: value for cell, (_, value) in cells.items()}
                  for name, cells in compute(names).items()}
        print(dumps(values), end="")
        return 0
    if args.command == "records":
        return records(args.src, args.path)
    return compare(args.rev, args.allow)


if __name__ == "__main__":
    sys.exit(main())
