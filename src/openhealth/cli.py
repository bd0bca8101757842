"""Command-line entry point: datagen, train, eval, budget, simulate.

Exit codes: 0 success, 2 configuration/usage error, 3 data/validation
error. All commands are pure functions of their arguments and input files.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

from .classifier import (
    DegenerateDatasetError,
    ModelFitError,
    ModelFormatError,
    check_fit,
    evaluate,
    init_model,
    load_model,
    quantize_model,
    render_report,
    save_model,
    split_dataset,
    train,
)
from .config import Config, ConfigError, load_config
from .core import ALL_CHANNELS, APPS, ActivityLabel
from .dataio import (
    DatasetFormatError,
    channel_count,
    generate_blocks,
    read_blocks,
    storage_budget,
    write_dataset,
)
from .firmware import BudgetError, memory_footprint, plan_duty_cycle
from .netproto import OBSERVATION_HEADER
from .pipeline import FEATURES_PER_CHANNEL, Windows, normalize_features, scan_windows
from .simengine import observation_line_row, scenario_lines, trace_metrics, write_metrics

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _resolve_seed(arg_seed: int | None, default: int = 0) -> int:
    if arg_seed is None:
        return default
    if arg_seed < 0:
        raise CliError(f"--seed must be >= 0, got {arg_seed}", EXIT_CONFIG)
    return arg_seed


def _config_error(exc: ConfigError) -> CliError:
    return CliError("\n".join(f"config error: {e}" for e in exc.errors), EXIT_CONFIG)


def _load_config(path: str) -> Config:
    try:
        return load_config(path)
    except ConfigError as exc:
        raise _config_error(exc) from None


@contextmanager
def _writing():
    """An output file that cannot be written is a usage error."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"output error: {exc}", EXIT_CONFIG) from None


def _check_output(path: str) -> None:
    """Raise the OSError that writing path would raise, where it is known
    before writing: path names a directory, or its parent is not one."""
    out = Path(path)
    if out.is_dir():
        code = errno.EISDIR
    elif not out.parent.is_dir():
        code = errno.ENOTDIR if out.parent.exists() else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _scan(path: str, config: Config) -> Windows:
    """The dataset's windows and their features, read and scanned a block at a time."""
    try:
        return scan_windows(read_blocks(path), config.pipeline.window, config.pipeline.overlap)
    except (DatasetFormatError, OSError) as exc:
        raise CliError(f"data error: {exc}", EXIT_DATA) from None


def _labeled_features(windows: Windows, app: str):
    """Features and label codes of the windows that have a label."""
    if windows.label_set not in (None, APPS[app]):
        raise CliError(
            f"dataset labels do not belong to the {app!r} label set", EXIT_DATA
        )
    labeled = windows.codes >= 0
    if not labeled.any():
        raise CliError("dataset yields no labeled windows", EXIT_DATA)
    labeled = slice(None) if labeled.all() else labeled  # a view, not a copy, when every window has a label
    return windows.features[labeled], windows.codes[labeled]


def cmd_datagen(args) -> int:
    config = _load_config(args.config)
    spec = config.synthetic.get(args.app)
    if spec is None:
        raise CliError(f"config has no synthetic_models.{args.app} section", EXIT_CONFIG)
    seed = _resolve_seed(args.seed)
    blocks = generate_blocks(spec.signals, spec.full_schedule(), config.profile.sample_rate_hz, seed)
    with _writing():
        samples, annotations = write_dataset(blocks, args.out)
    print(f"wrote {args.out}: {samples} samples, {annotations} annotations, seed {seed}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args.config) if args.config else Config()
    seed = _resolve_seed(args.seed, default=config.train.seed)
    with _writing():  # before any training time is spent; the save below is guarded too
        _check_output(args.out)
    feats, labels = _labeled_features(_scan(args.data, config), args.app)

    train_idx, test_idx = split_dataset(len(labels), config.train.split_fraction, seed)
    if not len(train_idx):
        raise CliError(
            f"train.split_fraction {config.train.split_fraction} leaves no training windows of {len(labels)}", EXIT_DATA
        )
    x_train, stats = normalize_features(feats[train_idx])
    label_set = APPS[args.app]
    layer_sizes = (feats.shape[1], config.train.hidden, len(label_set))
    model = init_model(layer_sizes, seed=seed)
    model.stats = stats
    try:
        trained, history = train(model, x_train, labels[train_idx])
    except DegenerateDatasetError as exc:
        raise CliError(f"degenerate dataset: {exc}", EXIT_DATA) from None

    step = max(1, len(history) // 10)
    for i in range(0, len(history), step):
        print(f"iter {i:4d}  loss {history[i]:.6f}")
    if (len(history) - 1) % step != 0:
        print(f"iter {len(history) - 1:4d}  loss {history[-1]:.6f}")

    with _writing():
        save_model(trained, args.out)
    print(f"wrote {args.out}: layers {list(layer_sizes)}, {trained.n_params} parameters")

    if len(test_idx):
        x_test, _ = normalize_features(feats[test_idx], stats)
        report = evaluate(trained, x_test, labels[test_idx], label_set)
        print()
        print(render_report(report), end="")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        model = load_model(args.model)
    except (OSError, ModelFormatError) as exc:
        raise CliError(f"model error: {exc}", EXIT_DATA) from None

    n_classes = model.layer_sizes[2]
    apps = {len(label_set): name for name, label_set in APPS.items()}
    if n_classes not in apps:
        expected = " or ".join(f"{n} ({name})" for n, name in apps.items())
        raise CliError(f"model error: model has {n_classes} classes; expected {expected}", EXIT_DATA)
    app = apps[n_classes]
    config = _load_config(args.config) if args.config else Config()
    windows = _scan(args.data, config)
    try:
        check_fit(model, windows.channels, app)
    except ModelFitError as exc:
        raise CliError(f"model error: {exc}", EXIT_DATA) from None
    feats, labels = _labeled_features(windows, app)
    normed, _ = normalize_features(feats, model.stats)
    report = evaluate(model, normed, labels, APPS[app])
    print(render_report(report), end="")

    json_path = args.json or (str(Path(args.data).with_suffix("")) + "_report.json")
    with _writing():
        Path(json_path).write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {json_path}")
    return EXIT_OK


def cmd_budget(args) -> int:
    config = _load_config(args.config)
    profile = config.profile
    w = config.pipeline.window
    har = config.synthetic.get("har")
    channels = channel_count(har.signals) if har else len(ALL_CHANNELS)
    hidden = config.train.hidden
    d = channels * FEATURES_PER_CHANNEL
    layer_sizes = (d, hidden, len(ActivityLabel))
    qm = quantize_model(init_model(layer_sizes, seed=0))
    try:
        ledger = memory_footprint(w, channels, layer_sizes, qm.flash_bytes, profile)
    except BudgetError as exc:
        raise CliError(f"budget error: {exc}", EXIT_CONFIG) from None

    rate = profile.sample_rate_hz
    accel_hourly = storage_budget(rate, 3, 2, 3600)
    all_hourly = storage_budget(rate, channels, 2, 3600)

    print(f"Model: layers {list(layer_sizes)}, quantized image {qm.flash_bytes} B")
    print(
        f"SRAM:  {ledger.sram_used_bytes} / {ledger.sram_budget_bytes} B "
        f"(headroom {ledger.sram_headroom} B)"
    )
    print(
        f"Flash: {ledger.flash_used_bytes} / {ledger.flash_budget_bytes} B "
        f"(headroom {ledger.flash_headroom} B)"
    )
    print(
        f"Raw accelerometer storage: {accel_hourly:,.0f} bytes/hour "
        f"({rate:g} Hz x 3 channels x 2 B int16)"
    )
    print(
        f"Raw all-channel storage:   {all_hourly:,.0f} bytes/hour "
        f"({rate:g} Hz x {channels} channels x 2 B int16)"
    )

    e = config.energy
    plan = plan_duty_cycle(profile, "har", e)
    harvest_day = sum(e.harvest_profile_mw) * e.mppt_efficiency
    sleep_floor = profile.p_sleep_mw * 24
    print(
        f"Daily energy: harvest {harvest_day:.1f} mWh, sleep floor {sleep_floor:.1f} mWh, "
        f"planned active {plan.planned_active_mwh:.1f} mWh "
        f"(mean duty {sum(plan.fractions) / 24:.1%})"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args.seed)
    stem = str(Path(args.trace).with_suffix(""))
    metrics_path = args.metrics or stem + "_metrics.json"
    log_path = args.observations or stem + "_observations.csv"
    outputs = {"--trace": args.trace, "--metrics": metrics_path, "--observations": log_path}
    with _writing():  # before the scenario runs; the writes below are guarded too
        for path in outputs.values():
            _check_output(path)
    for (flag, path), (other, other_path) in combinations(outputs.items(), 2):  # a later write would replace one
        both = os.path.exists(path) and os.path.exists(other_path)  # then os.path.samefile sees hard links too
        if os.path.realpath(path) == os.path.realpath(other_path) or both and os.path.samefile(path, other_path):
            raise CliError(f"output error: {flag} and {other} name the same file: {other_path}", EXIT_CONFIG)
    try:
        run = scenario_lines(config, seed)
    except ConfigError as exc:  # no scenario section, or a device app without synthetic_models
        raise _config_error(exc) from None
    except (OSError, ModelFormatError, ModelFitError) as exc:  # scenario.model_path
        raise CliError(f"model error: {exc}", EXIT_DATA) from None

    with _writing(), run as lines, open(args.trace, "w", encoding="utf-8") as trace, \
            open(log_path, "w", encoding="utf-8") as log:
        log.write(OBSERVATION_HEADER + "\n")
        events = 0

        def written():  # one pass: each line to the trace, its row, if it has one, to the log, then to the fold
            nonlocal events
            for events, line in enumerate(lines, start=1):
                trace.write(line)
                log.write(observation_line_row(line))
                yield line

        m = trace_metrics(written())
        write_metrics(m, metrics_path)

    print(f"wrote {args.trace} ({events} events), {metrics_path} and {log_path}")
    print(
        f"host: {m['host']['frames_received']} frames received, "
        f"{sum(m['host']['frames_rejected'].values())} rejected, "
        f"{m['host']['alerts_notified']} alerts notified"
    )
    for name, d in m["devices"].items():
        batt = d["battery_mwh"]
        print(
            f"{name}: {d['frames_sent']} frames sent, battery "
            f"{batt.get('start', 0):.3f} -> {batt.get('end', 0):.3f} mWh"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openhealth",
        description="Wearable health-monitoring platform: data, training, budgets, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic dataset CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--app", choices=tuple(APPS), default="har")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_datagen)

    p = sub.add_parser("train", help="train a classifier on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--app", choices=tuple(APPS), default="har")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--config")
    p.add_argument("--json", help="JSON report path (default: alongside the data)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("budget", help="memory, storage and daily-energy report")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_budget)

    p = sub.add_parser("simulate", help="run a deterministic end-to-end scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--trace", required=True)
    p.add_argument("--metrics", help="metrics JSON path (default: alongside the trace)")
    p.add_argument("--observations", help="host observation CSV path (default: alongside the trace)")
    p.set_defaults(fn=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
