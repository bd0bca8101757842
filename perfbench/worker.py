"""One workload process: set up, or run timed rounds and check every output.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; never imported by the program under test. Two modes:

    worker.py setup --workload W --seed N --work DIR
    worker.py run   --workload W --seed N --work DIR --seconds S --trace 0|1
                    --result FILE [--spans FILE]

A *round* is one pass over the whole workload; an *operation* is the unit
that can fail on its own (the whole round for ``reference_week`` and
``corpus_train``, one session for ``lossy_sessions``). The number of rounds
is ``--seconds`` over the workload's nominal round time (``round_s``), at
least one: it never depends on how fast the machine runs, so two runs with
the same seed attempt the same operations and fail the same ones. Inputs
are derived from the seed, the round and the operation index only.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

# Calls go through the module attributes so that the tracer's wrappers see them.
from openhealth import classifier, cli, config, simengine

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "configs" / "reference.json"
ACCURACY_BOUND = 0.90  # acceptance C01: per-class held-out accuracy
SESSION_MS = 300_000
SESSIONS_PER_ROUND = 16
TRAIN_REPEAT = 2  # tiles of the har schedule in the lossy_sessions training corpus


def derive(*keys: int) -> int:
    """A 32-bit seed that depends only on the given integers."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def canonical(obj) -> object:
    """The value as it reads back from the program's own JSON output."""
    return json.loads(json.dumps(obj, sort_keys=True))


def sim_stats(metrics: dict, lines: int) -> dict:
    """Simulated-behaviour counts of one scenario, taken from its metrics."""
    devices = metrics["devices"].values()
    alerts = [d["alerts"] for d in devices]
    return {
        "trace_lines": lines,
        "classify": sum(sum(d["classifications"].values()) for d in devices),
        "frames_tx": metrics["channel"]["transmitted"],
        "frames_sent": sum(d["frames_sent"] for d in devices),
        "host_rx": metrics["host"]["frames_received"],
        "alert_attempts": sum(sum(a["attempts"].values()) for a in alerts),
        "alerts_delivered": sum(a["delivered"] for a in alerts),
        "alert_latencies_ms": [v for a in alerts for v in a["latency_ms"].values()],
        "battery_end_mwh": [d["battery_mwh"]["end"] for d in devices],
    }


def check_trace(op: "Op", trace_path: Path, metrics: dict) -> None:
    """Replay the written trace and recompute its metrics from the file."""
    lines = simengine.read_trace(trace_path)
    report = simengine.replay(lines)
    if not report.passed:
        op.check_failures.append(f"replay failed: {report.failures[:3]}")
    if canonical(simengine.trace_metrics(lines)) != canonical(metrics):
        op.check_failures.append("metrics recomputed from the trace file differ from the in-memory metrics")
    op.digest = sha256_file(trace_path)
    op.stats = sim_stats(metrics, len(lines))


def run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"openhealth {argv[0]} exited {code}")


class Op:
    """Outcome of one operation."""

    def __init__(self, seed: int):
        self.seed = seed
        self.seconds = 0.0
        self.error: str | None = None
        self.check_failures: list[str] = []
        self.out_bytes = 0
        self.digest = ""
        self.stats: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.check_failures

    def to_dict(self) -> dict:
        return dict(vars(self), ok=self.ok)


def timed(op: Op, span, fn) -> bool:
    """Run fn as the timed part of op; False when it raised."""
    start = time.perf_counter()
    try:
        with span("bench.op"):
            fn()
    except Exception as exc:  # a failed operation is recorded, the run goes on
        op.error = f"{type(exc).__name__}: {exc}"
        return False
    finally:
        op.seconds = time.perf_counter() - start
    return True


def checked(op: Op, span, fn) -> None:
    """Run fn as op's output checks; a check that raises fails the operation."""
    with span("bench.check"):
        try:
            fn()
        except Exception as exc:  # recorded like any other failed check
            op.check_failures.append(f"check raised {type(exc).__name__}: {exc}")


class Workload:
    """Shared state; subclasses define ``round`` and may define ``setup``."""

    name = ""
    digest_of = "trace"  # the output whose SHA-256 each run prints
    round_s = 1.0  # nominal seconds of one round on a 2-vCPU 2.0 GHz VM

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.csv_bytes = 0  # dataset CSV written by rounds
        self.setup_csv_bytes = 0  # dataset CSV written by one set-up

    def rounds_for(self, seconds: float) -> int:
        """Rounds that nominally fill ``seconds``; a constant, not a timer."""
        return max(1, int(seconds // self.round_s))

    def setup(self) -> None:
        """Work done once before the timed rounds; timed as ``setup_s``."""

    def prepare(self) -> list[str]:
        """Checks on the set-up's outputs; returns the failures."""
        return []


class ReferenceWeek(Workload):
    """``openhealth simulate`` on the unmodified 7-day reference config."""

    name = "reference_week"
    round_s = 25.0

    def round(self, r: int, span) -> list[Op]:
        op = Op(derive(self.seed, r))
        trace = self.work / "ref.trace"
        metrics_path = self.work / "ref_metrics.json"
        obs_path = self.work / "ref_observations.csv"
        argv = ["simulate", "--config", str(REFERENCE), "--seed", str(op.seed), "--trace", str(trace)]

        def check() -> None:
            op.out_bytes = sum(p.stat().st_size for p in (trace, metrics_path, obs_path))
            check_trace(op, trace, json.loads(metrics_path.read_text(encoding="utf-8")))

        if timed(op, span, lambda: run_cli(argv)):
            checked(op, span, check)
        return [op]


class CorpusTrain(Workload):
    """The README path: datagen, train, datagen on a held-out seed, eval."""

    name = "corpus_train"
    digest_of = "model"
    round_s = 17.0

    def round(self, r: int, span) -> list[Op]:
        op = Op(derive(self.seed, r))
        w = self.work
        train_csv, held_csv, model, report = w / "har.csv", w / "held_out.csv", w / "har.ohm", w / "report.json"
        ref = str(REFERENCE)

        def chain() -> None:
            run_cli(["datagen", "--config", ref, "--out", str(train_csv), "--seed", str(derive(op.seed, 0))])
            run_cli(["train", "--data", str(train_csv), "--out", str(model), "--config", ref])
            run_cli(["datagen", "--config", ref, "--out", str(held_csv), "--seed", str(derive(op.seed, 1))])
            run_cli(["eval", "--data", str(held_csv), "--model", str(model), "--config", ref, "--json", str(report)])

        def check() -> None:
            csv = train_csv.stat().st_size + held_csv.stat().st_size
            self.csv_bytes += csv
            op.out_bytes = csv + model.stat().st_size + report.stat().st_size
            op.digest = sha256_file(model)
            classes = json.loads(report.read_text(encoding="utf-8"))["classes"]
            for label, row in classes.items():
                if row["total"] and row["correct"] / row["total"] < ACCURACY_BOUND:
                    op.check_failures.append(f"held-out accuracy of {label} is {row['correct']}/{row['total']}")
            op.check_failures += check_model_blob(model)

        if timed(op, span, chain):
            checked(op, span, check)
        return [op]


def check_model_blob(path: Path) -> list[str]:
    blob = path.read_bytes()
    try:
        reloaded = classifier.model_to_bytes(classifier.load_model(path))
    except ValueError as exc:
        return [f"OHM1 blob {path.name} does not reload: {exc}"]
    return [] if reloaded == blob else [f"OHM1 blob {path.name} changes on reload"]


class LossySessions(Workload):
    """Short two-device sessions over a lossy, corrupting channel, model-driven."""

    name = "lossy_sessions"
    round_s = 3.7

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.model = work / "session.ohm"
        self.base = json.loads(REFERENCE.read_text(encoding="utf-8"))

    def setup(self) -> None:
        """Train the sessions' OHM1 model through the CLI on a shorter corpus."""
        raw = copy.deepcopy(self.base)
        raw["synthetic_models"]["har"]["repeat"] = TRAIN_REPEAT
        cfg = self.work / "train_config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        csv = self.work / "train.csv"
        run_cli(["datagen", "--config", str(cfg), "--out", str(csv), "--seed", str(derive(self.seed))])
        run_cli(["train", "--data", str(csv), "--out", str(self.model), "--config", str(cfg)])
        self.setup_csv_bytes += csv.stat().st_size

    def prepare(self) -> list[str]:
        return check_model_blob(self.model)

    def session_config(self, rng: np.random.Generator) -> dict:
        raw = copy.deepcopy(self.base)
        labels = list(raw["synthetic_models"]["har"]["labels"])
        raw["channel"] = {"latency_ms": [10, 40], "loss_probability": 0.1, "corruption_probability": 0.02}
        scenario = raw["scenario"]
        scenario.update(
            duration_ms=SESSION_MS, report_every_n_windows=1, alert_labels=["Jump"],
            use_duty_plan=False, model_path=str(self.model),
        )
        # Every label for an equal share in a random order, so that sessions
        # differ in order, offsets and noise but not in how much motion they hold.
        block_ms = SESSION_MS // len(labels)
        for device in scenario["devices"]:
            device["schedule"] = [[labels[i], block_ms] for i in rng.permutation(len(labels))]
            device["clock_offset_ms"] = int(rng.integers(-1000, 1001))
            device["alert_schedule"] = [[int(rng.integers(0, SESSION_MS)), "Jump"]]
        return raw

    def round(self, r: int, span) -> list[Op]:
        ops = []
        cfg_path = self.work / "session.json"
        trace_path = self.work / "session.trace"
        for i in range(SESSIONS_PER_ROUND):
            index = r * SESSIONS_PER_ROUND + i
            op = Op(derive(self.seed, index))
            cfg_path.write_text(json.dumps(self.session_config(np.random.default_rng([self.seed, index]))), encoding="utf-8")
            result = {}

            def session() -> None:
                result["trace"] = simengine.run_scenario(config.load_config(cfg_path), op.seed)
                simengine.write_trace(result["trace"], trace_path)

            def check() -> None:
                op.out_bytes = trace_path.stat().st_size
                check_trace(op, trace_path, result["trace"].metrics)

            if timed(op, span, session):
                checked(op, span, check)
            ops.append(op)
        return ops


WORKLOADS = {w.name: w for w in (ReferenceWeek, CorpusTrain, LossySessions)}


def run_rounds(workload: "Workload", span, rounds: int) -> tuple[list[Op], list[float]]:
    """Rounds 0 .. rounds-1. Returns the operations and, per round, the
    time of its timed operations."""
    ops: list[Op] = []
    round_seconds: list[float] = []
    for r in range(rounds):
        done = workload.round(r, span)
        ops += done
        round_seconds.append(sum(op.seconds for op in done))
    return ops, round_seconds


def layer_metrics(table: tracing.SpanTable, rounds: int, ops: list[Op], workload: Workload) -> dict:
    """Per-layer figures of the traced rounds, per round (set-up counted once).

    Only calls made inside operations and the set-up count, not those of
    the benchmark's checks, except for ``simengine.replay_s``.
    """
    run = ("bench.op",)
    setup = ("bench.setup",)

    def per_round(query, name, roots=None):
        if roots is not None:
            return query(name, roots) / rounds
        return query(name, run) / rounds + query(name, setup)

    def secs(name, roots=None):
        return per_round(table.seconds, name, roots)

    def calls(name, roots=None):
        return per_round(table.calls, name, roots)

    stats = merged_stats(ops)
    events = table.counts.get("simengine.Simulator.schedule", 0) / rounds
    run_s = secs("simengine.Simulator.run")
    synth_calls = calls("dataio.synthesize_signal")
    out = {
        "dataio.synth_calls": synth_calls,
        "dataio.synth_s": secs("dataio.synthesize_signal"),
        "firmware.account_calls": calls("firmware.account_energy"),
        "firmware.account_s": secs("firmware.account_energy"),
        "firmware.step_calls": calls("firmware.step_state_machine"),
        "firmware.step_s": secs("firmware.step_state_machine"),
        "simengine.events": events,
        "simengine.run_s": run_s,
        "simengine.self_s": per_round(table.self_seconds, "simengine.Simulator.run"),
        "simengine.us_per_event": run_s * 1e6 / events if events else 0.0,
        "simengine.synth_useful_ratio": stats["classify"] / rounds / synth_calls if synth_calls else 0.0,
        "simengine.trace_lines": stats["trace_lines"] / rounds,
        "simengine.metrics_s": secs("simengine.trace_metrics"),
        "simengine.replay_s": secs("simengine.replay", ("bench.check",)),
        "cli.output_s": sum(
            secs(name)
            for name in ("simengine.write_trace", "simengine.write_metrics", "netproto.write_observation_log")
        ),
        "dataio.generate_s": secs("dataio.generate_synthetic"),
        "dataio.write_s": secs("dataio.write_dataset"),
        "dataio.read_s": secs("dataio.read_dataset"),
        "dataio.csv_mb": (workload.csv_bytes / rounds + workload.setup_csv_bytes) / 1e6,
        "pipeline.segment_s": secs("pipeline.segment"),
        "pipeline.stack_s": secs("pipeline.windows_to_matrix"),
        "pipeline.features_s": secs("pipeline.extract_feature_matrix"),
        "pipeline.feature_calls": calls("pipeline.extract_feature_matrix"),
        "pipeline.normalize_s": secs("pipeline.normalize_features"),
        "classifier.train_s": secs("classifier.train"),
        "classifier.train_batches": calls("classifier.loss_and_grad"),
        "classifier.eval_s": secs("classifier.evaluate"),
        "classifier.forward_calls": calls("classifier.forward"),
        "classifier.forward_s": secs("classifier.forward"),
        "classifier.load_s": secs("classifier.load_model"),
        "netproto.encode_calls": calls("netproto.encode_frame"),
        "netproto.encode_s": secs("netproto.encode_frame"),
        "netproto.decode_calls": calls("netproto.decode_frame"),
        "netproto.decode_s": secs("netproto.decode_frame"),
        "netproto.decode_rejects": per_round(table.raised, "netproto.decode_frame"),
        "netproto.gateway_calls": calls("netproto.HostGateway.step"),
        "netproto.gateway_self_s": per_round(table.self_seconds, "netproto.HostGateway.step"),
        "config.parse_s": secs("config.load_config"),
    }
    out.update(
        {
            "sim.frames_tx": stats["frames_tx"] / rounds,
            "sim.host_rx_ratio": stats["host_rx_ratio"],
            "sim.alert_attempts_per_delivery": stats["alert_attempts_per_delivery"],
            "sim.alert_latency_p50_ms": stats["alert_latency_p50_ms"],
            "sim.battery_end_min_mwh": stats["battery_end_min_mwh"],
        }
    )
    return out


def merged_stats(ops: list[Op]) -> dict:
    """Simulated-behaviour counts summed over the completed operations."""
    done = [op.stats for op in ops if op.ok and op.stats]
    counted = ("trace_lines", "classify", "frames_tx", "frames_sent", "host_rx", "alert_attempts", "alerts_delivered")
    total = {k: sum(s[k] for s in done) for k in counted}
    latencies = [v for s in done for v in s["alert_latencies_ms"]]
    batteries = [v for s in done for v in s["battery_end_mwh"]]
    total.update(
        host_rx_ratio=total["host_rx"] / total["frames_sent"] if total["frames_sent"] else 0.0,
        alert_attempts_per_delivery=(
            total["alert_attempts"] / total["alerts_delivered"] if total["alerts_delivered"] else 0.0
        ),
        alert_latency_p50_ms=float(statistics.median(latencies)) if latencies else 0.0,
        battery_end_min_mwh=min(batteries) if batteries else 0.0,
    )
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.work)
    if args.mode == "setup":
        workload.setup()
        return 0

    tracing.assert_clean()
    result: dict = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        with tracer.span("bench.setup"):
            workload.setup()
        setup_failures = workload.prepare()
        traced_ops, traced_rounds = run_rounds(workload, tracer.span, workload.rounds_for(args.seconds / 2))
        tracer.remove()  # raises if any wrapper survives
        layers = layer_metrics(tracing.SpanTable(tracer), len(traced_rounds), traced_ops, workload)
        untraced_ops, untraced_rounds = run_rounds(workload, nullcontext_span, len(traced_rounds))
        ops = traced_ops + untraced_ops
        traced_wall = statistics.fmean(traced_rounds)
        untraced_wall = statistics.fmean(untraced_rounds)
        layers.update(
            {
                "bench.traced_wall_s": traced_wall,
                "bench.untraced_wall_s": untraced_wall,
                "bench.trace_overhead_s": traced_wall - untraced_wall,
            }
        )
        result["layers"] = layers
        result["rounds"] = len(traced_rounds)
        if args.spans is not None:
            tracer.save(args.spans)
    else:
        setup_failures = workload.prepare()
        ops, round_seconds = run_rounds(workload, nullcontext_span, workload.rounds_for(args.seconds))
        result["round_seconds"] = round_seconds
        result["rounds"] = len(round_seconds)
    result.update(
        ops=[op.to_dict() for op in ops],
        setup_failures=setup_failures,
        digest_of=workload.digest_of,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        sim=merged_stats(ops),
    )
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


def nullcontext_span(name: str):
    return nullcontext()


if __name__ == "__main__":
    sys.exit(main())
