"""One-line semantic mutants of ``src/``, each of which a named tier-1
subset must kill.

    PYTHONPATH=src:. python -m tests.mutation_smoke [NAME ...]

Each mutant replaces one line of one file in a temporary copy of ``src/``
and runs its tests with that copy first on ``PYTHONPATH``.  A mutant whose
tests still pass has survived: the script prints its diff and exits 1.
Before any mutant runs, the unmutated copy must pass every named test (or
a kill would prove nothing) and must be the ``repro`` the tests import.
"""

from __future__ import annotations

import difflib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: per pytest run; a mutant that hangs its tests counts as killed
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str  # under src/repro
    old: str  # occurs exactly once in ``path``
    new: str  # ``old`` with one line changed
    tests: tuple[str, ...]


#: the engine's unit tests, its property test against the heap oracle and
#: the cluster-level differential against that oracle
ENGINE_TESTS = (
    "tests/sim/test_engine.py",
    "tests/sim/test_engine_oracle.py",
    "tests/test_engine_differential.py",
)

MUTANTS = (
    Mutant(
        "a future instant's FIFO takes new entries at the front", "sim/engine.py",
        "            fifo.append((fn, args))\n",
        "            fifo.insert(0, (fn, args))\n",
        ENGINE_TESTS,
    ),
    Mutant(
        "a chain's first slot is not counted", "sim/engine.py",
        "                        dispatched += 1\n"
        "                        today.append(args)\n",
        "                        pass\n"
        "                        today.append(args)\n",
        ENGINE_TESTS,
    ),
    Mutant(
        "bus folds a chunk one record late", "obs/bus.py",
        "        if len(pending) >= CHUNK:\n",
        "        if len(pending) > CHUNK:\n",
        ("tests/obs/test_bus.py", "tests/obs/test_chunks.py"),
    ),
    Mutant(
        "a run ends without flushing the bus", "tempest/cluster.py",
        "                self.obs.flush()\n",
        "                pass\n",
        ("tests/obs/test_chunks.py",),
    ),
    Mutant(
        "the registry ignores list-valued keys", "obs/metrics.py",
        "                        col[node].update(key)\n",
        "                        pass\n",
        ("tests/obs/test_metrics.py",),
    ),
    Mutant(
        "the timeline never marks REDO", "obs/profile.py",
        "                    op = REDO\n",
        "                    pass\n",
        ("tests/obs/test_profile.py",),
    ),
    Mutant(
        "the ring miscounts what it evicted", "obs/chrome.py",
        "            seen = self.events[-1][6] + 1 - self._first_seq\n",
        "            seen = self.events[-1][6] - self._first_seq\n",
        ("tests/obs/test_chrome.py",),
    ),
    Mutant(
        "a filtered exporter keeps every kind", "obs/chrome.py",
        "        kept = [rec for rec in records if info(rec[0])[0]]\n",
        "        kept = list(records)\n",
        ("tests/obs/test_chrome.py",),
    ),
    Mutant(
        "a shared grant leaves the home writable", "tempest/protocol.py",
        "            self.access.set(home, block, AccessTag.READONLY)\n"
        "        d.add_sharer(block, home)\n",
        "            pass\n"
        "        d.add_sharer(block, home)\n",
        ("tests/tempest/test_protocol_races.py",),
    ),
    Mutant(
        "msg.send drops the wire latency", "tempest/network.py",
        "                    int(self.config.transfer_ns(size)) + self.config.wire_latency_ns\n",
        "                    int(self.config.transfer_ns(size))\n",
        ("tests/obs/test_critical.py", "tests/obs/test_attribution.py"),
    ),
    Mutant(
        "strided intervals lose their last element", "core/sections.py",
        "        return (self.hi - self.lo) // self.step + 1\n",
        "        return (self.hi - self.lo) // self.step\n",
        ("tests/core/test_sections.py",),
    ),
    Mutant(
        "probing ignores dead nodes cut off for good", "tempest/recovery.py",
        "            or not any(transport.reachable(n, d) for n in live)\n",
        "            or False\n",
        ("tests/integration/test_failure_injection.py",),
    ),
    Mutant(
        "a stuck run with only dead nodes is raised as a deadlock", "tempest/cluster.py",
        "            if not (self.stats.total_gave_up or crashed):\n",
        "            if not self.stats.total_gave_up:\n",
        ("tests/integration/test_failure_injection.py",),
    ),
    Mutant(
        "rollback forgets copy_version", "tempest/directory.py",
        "        for name, saved in cut.items():\n",
        "        for name, saved in list(cut.items())[:-1]:\n",
        ("tests/tempest/test_checkpoint_cut.py",),
    ),
    Mutant(
        "the directory's cut drops a field", "tempest/directory.py",
        '            "prev_version": self.prev_version.copy(),\n',
        "            # prev_version left out of the cut\n",
        ("tests/test_reach_table.py",),
    ),
    Mutant(
        "replay swaps read's phase and context", "runtime/traces.py",
        "            yield from cluster.read_blocks(node, op[1], context=op[3], phase=op[2])\n",
        "            yield from cluster.read_blocks(node, op[1], context=op[2], phase=op[3])\n",
        ("tests/runtime/test_traces_results.py",),
    ),
    # While op i runs, a cursor recorded after each op still names op i - 1,
    # so a rollback re-enters the checkpoint's barrier.
    Mutant(
        "replay records its cursor after the op instead of before", "runtime/traces.py",
        "            cursor[node] = i\n",
        "            cursor[node] = i - 1\n",
        ("tests/tempest/test_crash.py", "tests/obs/test_trace_bytes.py"),
    ),
    Mutant(
        "a result reports completion whatever its stats say", "runtime/results.py",
        "        return self.stats is None or self.stats.completed\n",
        "        return True\n",
        ("tests/runtime/test_backends.py",),
    ),
    Mutant(
        "execute hands the plan's numerics out writable", "runtime/shmem.py",
        "    view.flags.writeable = False\n",
        "    view.flags.writeable = True\n",
        ("tests/runtime/test_backends.py",),
    ),
    Mutant(
        "a program is evaluated on every use", "runtime/phases.py",
        "    if found is not None and found[0] == inputs:\n",
        "    if False:\n",
        ("tests/runtime/test_plan_digest.py",),
    ),
    Mutant(
        "the numerics record stays writable", "runtime/phases.py",
        "        arr.flags.writeable = False\n",
        "        arr.flags.writeable = True\n",
        ("tests/runtime/test_backends.py",),
    ),
    Mutant(
        "the evaluator adds by subtracting", "hpf/eval.py",
        '    "+": (operator.add, np.add),\n',
        '    "+": (operator.add, np.subtract),\n',
        ("tests/integration/test_random_programs.py",),
    ),
    Mutant(
        "an inline batch builds a program per cell", "serve/runner.py",
        "        programs[spec] = request.build_program()\n",
        "        return request.build_program()\n",
        ("tests/test_report.py",),
    ),
    Mutant(
        "a plan is keyed by a field the build never reads", "runtime/shmem.py",
        '            "n_nodes", "block_size", "page_size", "compute_ns_per_unit",\n',
        '            "n_nodes", "block_size", "page_size", "compute_ns_per_unit", "dual_cpu",\n',
        ("tests/runtime/test_plan_digest.py",),
    ),
    Mutant(
        "numerics_key drops the program fingerprint", "serve/keys.py",
        '        "schema": "numerics",\n'
        '        "salt": CODE_VERSION,\n'
        '        "program": request.resolved_fingerprint(),\n',
        '        "schema": "numerics",\n'
        '        "salt": CODE_VERSION,\n'
        '        "program": "",\n',
        ("tests/serve/test_numerics_store.py",),
    ),
    Mutant(
        "a writable reference is lent the shared buffer", "serve/store.py",
        "        buffers = [self._get_blob(digest, readonly) for digest, readonly in table]\n",
        "        buffers = [self._get_blob(digest, True) for digest, readonly in table]\n",
        ("tests/serve/test_store.py",),
    ),
    Mutant(
        "a forked worker keeps the lending lock its parent held", "serve/store.py",
        "os.register_at_fork(after_in_child=_fresh_lock)\n",
        "pass\n",
        ("tests/serve/test_store.py",),
    ),
    Mutant(
        "put records every buffer writable", "serve/store.py",
        "            blobs.append(self._put_blob(raw) + bytes([raw.readonly]))\n",
        "            blobs.append(self._put_blob(raw) + bytes([False]))\n",
        ("tests/runtime/test_backends.py",),
    ),
    Mutant(
        "the exact-equal shortcut breaks instead of continuing", "runtime/results.py",
        "            if _equal_with_nan(a, b):\n"
        "                continue\n",
        "            if _equal_with_nan(a, b):\n"
        "                break\n",
        ("tests/runtime/test_traces_results.py",),
    ),
    Mutant(
        "a uniproc or msgpass request keeps its shmem options", "serve/request.py",
        '        Rule(_SHMEM_ONLY, lambda r: r.backend == "shmem" or not changed(r, _SHMEM_ONLY),\n',
        '        Rule(_SHMEM_ONLY, lambda r: True,\n',
        ("tests/serve/test_runner.py",),
    ),
    Mutant(
        "the adaptive RTO is accepted without fault injection", "tempest/faults.py",
        '        _tunes("adaptive_rto", "the retransmit timer", _INJECTED, lambda c: c.enabled),\n',
        '        _tunes("adaptive_rto", "the retransmit timer", _INJECTED, lambda c: True),\n',
        ("tests/tempest/test_adaptive_rto.py",),
    ),
    Mutant(
        "a retransmit budget is accepted without fault injection", "tempest/faults.py",
        '        _tunes("max_retries", "the retransmit budget", _INJECTED, lambda c: c.enabled),\n',
        '        _tunes("max_retries", "the retransmit budget", _INJECTED, lambda c: True),\n',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "crash detection is tuned under fault injection without a crash", "tempest/faults.py",
        '        _tunes("heartbeat_interval_ns", "crash detection", _CRASH, lambda c: c.crashes),\n',
        '        _tunes("heartbeat_interval_ns", "crash detection", _CRASH, lambda c: c.enabled),\n',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "a retransmit ceiling below the initial timeout is accepted", "tempest/faults.py",
        "             lambda c: c.rto_max_ns >= c.retransmit_timeout_ns,\n",
        "             lambda c: True,\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "optimized code is accepted under the update protocol", "runtime/shmem.py",
        '    Rule(("optimize", "protocol"), lambda o: not o.optimize or o.protocol == "invalidate",\n',
        '    Rule(("optimize", "protocol"), lambda o: True,\n',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "jacobi accepts zero iterations", "apps/jacobi.py",
        "    if iters < 1:\n",
        "    if iters < 0:\n",
        ("tests/test_cli.py",),
    ),    Mutant(
        "the numerics check compares whole arrays again", "runtime/results.py",
        "            if _equal_with_nan(a, b):\n",
        "            if np.array_equal(a, b, equal_nan=True):\n",
        ("tests/test_run_memory.py",),
    ),
    Mutant(
        "the audit scans the whole segment in one chunk", "tempest/audit.py",
        "    step = max(1, _CHUNK_CELLS // n_nodes)\n",
        "    step = max(1, directory.n_blocks)\n",
        ("tests/test_run_memory.py",),
    ),
    Mutant(
        "the audit reads every node's sharer bit from the first word", "tempest/audit.py",
        "    for w, word in enumerate(sharers):\n",
        "    for w, word in enumerate(sharers[[0] * len(sharers)]):\n",
        ("tests/tempest/test_audit.py",),
    ),
    Mutant(
        "the audit lists a per-node invariant's sites block by block", "tempest/audit.py",
        "        sites = [site for row in self.rows for site in row][:_MAX_SITES]\n",
        "        sites = sorted((s for r in self.rows for s in r), key=lambda s: s[-1])[:_MAX_SITES]\n",
        ("tests/tempest/test_audit_differential.py",),
    ),
)


def mutate(src: str, mutant: Mutant) -> list[str]:
    """Apply ``mutant`` under the ``src`` copy; return its unified diff."""
    path = os.path.join(src, "repro", mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the mutated text must occur once in {mutant.path}")
    changed = [
        line for line in difflib.ndiff(mutant.old.splitlines(), mutant.new.splitlines())
        if line[0] in "+-"
    ]
    if len(changed) != 2:
        raise ValueError(f"{mutant.name}: a mutant changes exactly one line")
    mutated = text.replace(mutant.old, mutant.new)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mutated)
    name = f"src/repro/{mutant.path}"
    return list(difflib.unified_diff(
        text.splitlines(keepends=True), mutated.splitlines(keepends=True), name, name,
    ))


def run_tests(src: str, tests) -> str:
    """``passed``, ``failed`` or ``timeout`` for ``tests`` over ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, ROOT]))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def fresh_copy(tmp: str) -> str:
    src = os.path.join(tmp, "src")
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        src = fresh_copy(tmp)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, ROOT]))
        where = subprocess.run(
            [sys.executable, "-c", "import repro; print(repro.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not where.startswith(src):
            print(f"the tests would import {where}, not the copy under {src}")
            return 2
        tests = sorted({t for m in mutants for t in m.tests})
        if run_tests(src, tests) != "passed":
            print(f"the unmutated tree fails {' '.join(tests)}")
            return 2
        for mutant in mutants:
            src = fresh_copy(tmp)
            diff = mutate(src, mutant)
            t0 = time.perf_counter()
            outcome = run_tests(src, mutant.tests)
            verdict = "SURVIVED" if outcome == "passed" else f"killed ({outcome})"
            print(f"{verdict:18} {time.perf_counter() - t0:6.1f}s  {mutant.name}",
                  flush=True)
            if outcome == "passed":
                survivors.append(mutant)
                sys.stdout.writelines(diff)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
