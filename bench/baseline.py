"""Run every workload over several seeds and record the medians and spreads.

    python3 bench/baseline.py [--seeds 1 2 ... 10] [--workloads ...] [--output PATH]

Each (workload, seed) is one untraced ``run.py`` process of ``run_seconds``
from BENCHMARK.json, run one after the other; then one traced run per
workload, on the first seed. For each end-to-end metric the file holds the ten values, their
median and their spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles). Ten seeds take
about 11 x run_seconds per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's result line and its report."""
    out = BENCH / "out"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((out / f"report-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, report


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--workloads", nargs="+", help="default: those in BENCHMARK.json")
    ap.add_argument("--output", default=str(BENCH / "BENCH_baseline.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc: dict = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in args.workloads or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(name, seed, seconds, 0) for seed in args.seeds]
        doc["context"] = runs[0][1]["context"]
        traced, _ = run_once(name, args.seeds[0], seconds, 1)
        doc["workloads"][name] = {
            "all_correct": all(r["correct"] for r, _ in runs) and traced["correct"],
            "failed": sum(r["failed"] for r, _ in runs) + traced["failed"],
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r, _ in runs])
                           for m in spec["end_to_end"]},
            "workload_figures": {
                k: summary([rep["workload_metrics"][k]["value"] for _, rep in runs])
                for k in runs[0][1]["workload_metrics"]},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_seed": args.seeds[0],
        }
        print(name, json.dumps({k: round(v["median"], 4) for k, v in
                                doc["workloads"][name]["end_to_end"].items()}), flush=True)
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
