"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json
    python3 perfbench/baseline.py --runs 5 --workload lossy_sessions

Each run is one ``run.py`` process with its own seed (0, 1, ...). For every
metric the summary holds the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread (quartile
distance over the median) and the sample count; for end-to-end metrics it
also says whether the spread is within a third of the metric's bound.
``--trace 1`` runs are summarised the same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med, "q1": q1, "q3": q3, "n": len(values),
        "spread": (q3 - q1) / abs(med) if med else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="multi-seed summary of perfbench runs")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    summary: dict = {}
    for name in workloads:
        samples: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                samples.setdefault(metric, []).append(m["value"])
            print(f"{name} seed={seed} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if k in bounds
            ), flush=True)
        rows = {}
        for metric, values in samples.items():
            row = summarise(values)
            if metric in bounds:
                row["steady"] = row["spread"] < bounds[metric] / 3
            rows[metric] = row
        summary[name] = {"attempted": attempted, "failed": failed, "metrics": rows}
        for metric, row in rows.items():
            flag = {True: "steady", False: "UNSTEADY"}.get(row.get("steady"), "")
            print(f"  {metric:32s} median={row['median']:.6g} q1={row['q1']:.6g} "
                  f"q3={row['q3']:.6g} spread={row['spread']:.4f} n={row['n']} {flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
