"""Benchmark entry point for openhealth-sim; see perfbench/README.md.

    python3 perfbench/run.py --workload reference_week --seed 0 --seconds 40 --trace 0

Run from anywhere inside a checkout holding ``src/openhealth`` and
``configs/reference.json``; nothing is installed. Each workload runs in
fresh worker processes: the set-up ``SETUP_REPEATS`` times (its median is
``setup_s``), then one process for the timed rounds. ``--trace 0`` prints
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("reference_week", "corpus_train", "lossy_sessions")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170  # every run must end within 180 s
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many samples above it


class BenchError(Exception):
    pass


def machine() -> str:
    versions = " ".join(f"{pkg}={metadata.version(pkg)}" for pkg in ("numpy", "cryptography"))
    return f"nproc={os.cpu_count()} python={sys.version.split()[0]} {versions}"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("OPENHEALTH_SIM_SEED", None)
    # One thread per process: the benchmark measures single-core cost.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], work: Path, deadline: float) -> float:
    """Run one worker process to completion; returns its wall time."""
    log = work / "worker.log"
    start = time.perf_counter()
    with log.open("ab") as out:
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), *args],
                cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args[0]} did not finish in time") from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-4000:]
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{tail}")
    return elapsed


def tail_value(values: list[float]) -> tuple[float, str]:
    """Highest whole percentile with TAIL_BEYOND samples above it (nearest rank).

    With fewer than 2 * TAIL_BEYOND samples that percentile would lie below
    the median, so the maximum stands in for it.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], "max"
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, math.ceil(pct * n / 100))
    return xs[rank - 1], f"p{pct}"


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    work = OUT_DIR / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", name, "--seed", str(seed), "--work", str(work)]
    result_path = work / "result.json"
    try:
        setup_times = []
        if not trace:
            for _ in range(SETUP_REPEATS):
                setup_times.append(run_worker(["setup", *common], work, deadline))
        run_args = ["run", *common, "--seconds", str(seconds), "--trace", str(int(trace)),
                    "--result", str(result_path)]
        if trace:
            run_args += ["--spans", str(OUT_DIR / f"spans-{name}.npz")]
        run_worker(run_args, work, deadline)
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_times"] = setup_times
    return result


def end_to_end(result: dict) -> tuple[dict, dict]:
    """End-to-end metric values and, per metric, a note on its samples."""
    ops = result["ops"]
    done = [op for op in ops if op["ok"]]
    times = [op["seconds"] for op in done]
    tail, pct = tail_value(times) if times else (0.0, "none")
    values = {
        "setup_s": statistics.median(result["setup_times"]),
        "wall_s": statistics.fmean(result["round_seconds"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_share": len(done) / len(ops),
        "op_p50_s": statistics.median(times) if times else 0.0,
        "op_tail_s": tail,
        "output_mb": statistics.median(op["out_bytes"] for op in done) / 1e6 if done else 0.0,
    }
    notes = {
        "setup_s": f"median of {len(result['setup_times'])} set-up processes",
        "wall_s": f"mean of {len(result['round_seconds'])} rounds",
        "peak_rss_mb": "one process",
        "ok_share": f"{len(done)} of {len(ops)} operations",
        "op_p50_s": f"n={len(times)}",
        "op_tail_s": f"{pct}, n={len(times)}",
        "output_mb": f"median of {len(done)} operations",
    }
    return values, notes


def report(name: str, seed: int, result: dict, declared: dict, trace: bool) -> dict:
    """Print the human-readable lines of one workload; return its metrics."""
    ops = result["ops"]
    done = [op for op in ops if op["ok"]]
    print(f"== {name} seed={seed} trace={int(trace)} rounds={result['rounds']} "
          f"operations={len(ops)} failed={len(ops) - len(done)}")
    print(f"machine: {machine()}")
    digests = [op["digest"] for op in done]
    label = f"{result['digest_of']}_sha256"
    if len(digests) == 1:
        print(f"{label}: {digests[0]}")
    elif digests:
        combined = hashlib.sha256("\n".join(digests).encode()).hexdigest()
        print(f"{label}: {combined} (over {len(digests)} operations in order)")
    sim = result["sim"]
    print("sim: " + " ".join(
        f"{k}={sim[k]:.6g}" for k in ("frames_tx", "host_rx_ratio", "alert_attempts_per_delivery",
                                      "alert_latency_p50_ms", "battery_end_min_mwh")
    ))
    for op in ops:
        if op["error"]:
            print(f"failed operation: seed={op['seed']} error={op['error']}")
        for problem in op["check_failures"]:
            print(f"incorrect output: seed={op['seed']} {problem}")
    for problem in result["setup_failures"]:
        print(f"incorrect output: {problem}")

    if trace:
        values, notes = result["layers"], {}
    else:
        values, notes = end_to_end(result)
    if set(values) != set(declared):
        raise BenchError(f"{name}: measured {sorted(values)} but BENCHMARK.json declares {sorted(declared)}")
    metrics = {}
    for metric, unit in declared.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{metric:34s} {values[metric]:14.6g} {unit}{note}")
        metrics[metric] = {"value": values[metric], "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="openhealth-sim benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    missing = [p for p in ("src/openhealth/__init__.py", "configs/reference.json", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an openhealth-sim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # running worker and the work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            metrics = report(name, args.seed, result, declared, bool(args.trace))
            ops = result["ops"]
            summary["attempted"] += len(ops)
            summary["failed"] += sum(not op["ok"] for op in ops)
            # An operation whose output fails a check is a failed operation;
            # a failed check on the set-up's output invalidates the whole run.
            summary["correct"] &= not result["setup_failures"]
            prefix = f"{name}." if len(names) > 1 else ""
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
