"""Compare two git revisions on one perfbench workload, in alternating pairs of runs.

    python3 tools/bench_pairs.py BASE CHANGE [--workload W] [--pairs N] [--seed S]

Each revision is exported with git archive into a fresh temporary tree, so
neither side sees the working tree, its bytecode or the other's outputs.
Pair i runs

    python3 perfbench/run.py --workload W --seed S+i --seconds 30 --trace 0

in both trees, BASE first in even pairs and CHANGE first in odd ones, with
PYTHONDONTWRITEBYTECODE=1 and OPENBLAS_NUM_THREADS=1. Each run's end-to-end
metrics are printed as it ends. Then, for each metric, the table gives
BASE's median and interquartile range, CHANGE's median, and in how many
pairs CHANGE read lower; it also says whether both sides gave the same
output digest in every pair. It stops, exiting 1, at the first run that
exits non-zero. It is run by hand, not by tier-1: on a 2-vCPU host ten pairs
took ~20 s of reference_week and ~75 s of lossy_sessions, and four pairs of
corpus_train ~10 s.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, tree: Path) -> Path:
    """Extract the files of git revision rev into the new directory tree."""
    tree.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", f"{rev}^{{commit}}"], stdout=subprocess.PIPE)
    extract = subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or extract.returncode:
        raise SystemExit(f"cannot export {rev}")
    return tree


def run(tree: Path, workload: str, seed: int) -> tuple[dict, str]:
    """One perfbench run in tree: its end-to-end metric values and the output digest line it printed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", "30", "--trace", "0"], cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{tree.name} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    summary = json.loads(lines[-1])
    digest = next((line.split(": ", 1)[1] for line in lines if "_sha256: " in line), "")
    return {name: m["value"] for name, m in summary["metrics"].items()}, digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the revision compared against, e.g. HEAD~1")
    parser.add_argument("change", help="the revision measured, e.g. HEAD")
    parser.add_argument("--workload", default="reference_week", help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="pair i runs seed S+i on both sides")
    args = parser.parse_args()
    if args.pairs < 2 or args.seed < 0:
        parser.error("--pairs must be >= 2 (a spread needs two runs) and --seed >= 0")

    runs = {"base": [], "change": []}
    same_digest = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": export(args.base, Path(tmp) / "base"), "change": export(args.change, Path(tmp) / "change")}
        for i in range(args.pairs):
            seed, digests = args.seed + i, {}
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                values, digests[side] = run(trees[side], args.workload, seed)
                runs[side].append(values)
                print(f"pair {i} seed {seed} {side:6s} " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                      flush=True)
            same_digest &= digests["base"] == digests["change"]

    last = args.seed + args.pairs - 1
    print(f"\n{args.workload}: {args.pairs} pairs, {args.base} -> {args.change}, seeds {args.seed}-{last}")
    print(f"{'metric':12s} {'base median':>12s} {'base IQR':>10s} {'change median':>14s} {'change lower':>13s}")
    for name in runs["base"][0]:
        base = [values[name] for values in runs["base"]]
        change = [values[name] for values in runs["change"]]
        q1, _, q3 = statistics.quantiles(base, n=4)
        lower = sum(c < b for b, c in zip(base, change))
        print(f"{name:12s} {statistics.median(base):12.6g} {q3 - q1:10.4g} {statistics.median(change):14.6g} "
              f"{lower:>7d} of {args.pairs}")
    print("output digests: " + ("equal in every pair" if same_digest else "DIFFER in some pair"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
