"""The benches' shared fetch helper checks what it claims to check
(results are monkeypatched in: nothing is simulated)."""

import numpy as np
import pytest

from benchmarks import conftest as bench
from repro.runtime.results import RunResult
from repro.tempest.config import ClusterConfig
from repro.tempest.stats import ClusterStats


def fake_result(value: float, completed: bool = True) -> RunResult:
    stats = ClusterStats.for_nodes(4)
    stats.completed = completed
    return RunResult("jacobi", "shmem", 1_000, stats, {"a": np.full(4, value)}, {})


def serve_fakes(monkeypatch, results: dict):
    """``run_cells`` hands back ``results[variant]`` (the reference is the
    cell keyed by app alone) and records the requests it was given."""
    seen = {}

    def run_cells(cells):
        seen.update(cells)
        return {
            key: results[key[1] if isinstance(key, tuple) else "uni"]
            for key in cells
        }

    monkeypatch.setattr(bench, "run_cells", run_cells)
    return seen


VARIANTS = {"plain": None, "wide": ClusterConfig(n_nodes=4, block_size=256)}


def test_run_matrix_batches_the_reference_with_the_cells(monkeypatch):
    seen = serve_fakes(monkeypatch, {k: fake_result(1.0) for k in ("uni", "plain", "wide")})
    matrix = bench.run_matrix(["jacobi"], VARIANTS, 4, optimize=True)
    assert list(matrix["jacobi"]) == ["plain", "wide"]
    assert seen["jacobi"].backend == "uniproc"
    assert seen["jacobi", "plain"].config == seen["jacobi"].config == ClusterConfig(n_nodes=4)
    assert seen["jacobi", "wide"].config is VARIANTS["wide"]
    assert seen["jacobi", "wide"].optimize


def test_run_matrix_raises_on_a_completed_cell_that_disagrees(monkeypatch):
    serve_fakes(monkeypatch, {
        "uni": fake_result(1.0), "plain": fake_result(1.0), "wide": fake_result(2.0),
    })
    with pytest.raises(AssertionError, match="array 'a'"):
        bench.run_matrix(["jacobi"], VARIANTS, 4)


def test_run_matrix_skips_the_check_for_a_degraded_cell(monkeypatch):
    serve_fakes(monkeypatch, {
        "uni": fake_result(1.0), "plain": fake_result(1.0),
        "wide": fake_result(2.0, completed=False),
    })
    matrix = bench.run_matrix(["jacobi"], VARIANTS, 4)
    assert not matrix["jacobi"]["wide"].completed
