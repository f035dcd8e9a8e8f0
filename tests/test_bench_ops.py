"""The benchmark's own ops, run through the CLI and judged by its checker.

Every seed-1 op of the three workloads in bench/workloads.py runs through
cli.main with warnings shown, not raised, as a benchmark pass runs it, and
bench/check.py must pass its artifacts.  An op with a known_defect entry
is held to the same rule: each of them passes today, so a failure here is
an outputs_incorrect or run_failed verdict the benchmark would give.
"""

import importlib.util
from pathlib import Path

import pytest

from stokespace.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    """bench/<name>.py as a module, loaded by file path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
check = _load("check")
OPS = {f"{name}/{op['id']}": op for name in workloads.WORKLOADS
       for op in workloads.generate(name, 1)}


@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("op", OPS.values(), ids=OPS.keys())
def test_bench_op_runs_and_passes_its_check(op, tmp_path):
    out = tmp_path / op["id"]
    assert main(op["argv"] + ["--out", str(out), "--no-timestamp"]) == 0
    verdict = check.check_op(op, out)
    assert verdict["ok"], verdict["detail"]
