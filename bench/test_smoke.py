"""Smoke test of the benchmark: each workload (``eval`` too, which
BENCHMARK.json leaves out) at toy size, untraced and traced, passes its checks
and emits exactly the metrics BENCHMARK.json names, plus the workload's own
figures.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_FIGURES = {
    "profile": {"plan_s", "em_taq", "f1_taq", "cost_frac_taq", "fail_frac"},
    "eval": {"items_per_s", "em_fp", "em_u8", "em_u4", "f1_u4", "fail_frac"},
    "train": {"steps_per_s", "final_loss", "fail_frac"},
}


def run_bench(cwd: Path, workload: str, trace: int, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "toy", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=150)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["profile", "eval", "train"])
def test_workload_emits_every_metric(workload, trace, tmp_path):
    proc = run_bench(ROOT, workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    printed = {ln.split()[1] for ln in lines if ln.startswith("metric ")}
    assert {m["name"] for m in expected} <= printed
    if not trace:
        assert all(v["value"] != 0 for v in result["metrics"].values())
        assert WORKLOAD_FIGURES[workload] <= printed
    report = json.loads((tmp_path / f"report-{workload}-seed3-trace{trace}.json").read_text())
    assert report["context"]["blas"]["threads_pinned"] >= 1
    if trace:
        assert (tmp_path / f"spans-{workload}-seed3-trace1.json").is_file()


@pytest.mark.parametrize("patch", [
    # A failed output check: every plan reads as not monotone.
    "run.check_monotone = lambda plan, rel: False",
    # A raised TaqError: allocation fails and stops the round.
    "from taq.errors import TaqError\n"
    "def boom(*a, **k): raise TaqError('injected')\n"
    "run.allocate_rank = boom",
])
def test_failure_exits_nonzero(patch, tmp_path):
    """A failed check or a raised TaqError makes the run exit 1 with
    ``correct`` false, so it cannot pass as a result."""
    script = (f"import sys\nsys.path.insert(0, {str(BENCH)!r})\nimport run\n{patch}\n"
              "sys.exit(run.main(['--workload', 'profile', '--seed', '3', '--seconds', '1', "
              f"'--trace', '0', '--size', 'toy', '--out', {str(tmp_path)!r}]))")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=150)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the run
    exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "profile", 0, tmp_path / "out")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
