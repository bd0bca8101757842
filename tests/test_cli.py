from __future__ import annotations

import hashlib
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from openhealth import cli
from openhealth.cli import main
from openhealth.dataio import read_dataset
from openhealth.pipeline import MIN_WINDOW
from openhealth.simengine import replay

REFERENCE = Path("configs/reference.json")
# SHA-256 of the `datagen --seed 7` CSV for the small config below.
DATAGEN_SEED7_SHA256 = "ec268ec3af793c16c78f9ea310dff17e796ceffef2f7f94ebefc4869b5e44978"


def write_config(tmp_path, mutate=None, name="config.json"):
    raw = json.loads(REFERENCE.read_text())
    # small corpora for CLI tests
    raw["synthetic_models"]["har"]["repeat"] = 2
    raw["synthetic_models"]["gesture"]["repeat"] = 3
    if mutate:
        mutate(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_datagen_output_is_readable_and_deterministic(tmp_path, capsys):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["datagen", "--config", str(config), "--out", str(out1), "--seed", "7"]) == 0
    assert main(["datagen", "--config", str(config), "--out", str(out2), "--seed", "7"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert hashlib.sha256(out1.read_bytes()).hexdigest() == DATAGEN_SEED7_SHA256
    rec = read_dataset(out1)
    assert len(rec) > 0
    assert rec.has_stretch


def test_datagen_seed_comes_from_argv_alone(tmp_path, monkeypatch):
    """The environment sets no seed: without --seed, datagen uses seed 0."""
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("OPENHEALTH_SIM_SEED", "41")
    assert main(["datagen", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["datagen", "--config", str(config), "--out", str(out2), "--seed", "0"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", ["datagen", "train", "simulate"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    config = write_config(tmp_path)
    data = tmp_path / "data.csv"
    assert main(["datagen", "--config", str(config), "--out", str(data), "--seed", "1"]) == 0
    argv = {
        "datagen": ["datagen", "--config", str(config), "--out", str(tmp_path / "x.csv")],
        "train": ["train", "--data", str(data), "--out", str(tmp_path / "x.ohm"), "--config", str(config)],
        "simulate": ["simulate", "--config", str(config), "--trace", str(tmp_path / "x.trace")],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err.strip() == "--seed must be >= 0, got -1"
    assert not list(tmp_path.glob("x.*"))


def test_datagen_app_without_synthetic_models_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, mutate=lambda raw: raw["synthetic_models"].pop("gesture"))
    assert main(["datagen", "--config", str(config), "--app", "gesture", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.strip() == "config has no synthetic_models.gesture section"
    assert not (tmp_path / "x.csv").exists()


def test_datagen_unknown_key_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, mutate=lambda raw: raw.update({"pipelinez": {}}))
    code = main(["datagen", "--config", str(config), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "pipelinez" in capsys.readouterr().err


def test_train_eval_round_trip_har(tmp_path, capsys):
    config = write_config(tmp_path)
    data = tmp_path / "har.csv"
    model = tmp_path / "har.ohm"
    assert main(["datagen", "--config", str(config), "--out", str(data), "--seed", "7"]) == 0
    assert main([
        "train", "--data", str(data), "--app", "har",
        "--out", str(model), "--config", str(config), "--seed", "0",
    ]) == 0
    out = capsys.readouterr().out
    assert "loss" in out
    assert "[84, 16, 7]" in out
    assert model.exists() and model.read_bytes()[:4] == b"OHM1"

    json_out = tmp_path / "report.json"
    assert main([
        "eval", "--data", str(data), "--model", str(model),
        "--config", str(config), "--json", str(json_out),
    ]) == 0
    out = capsys.readouterr().out
    assert "Activity" in out and "Overall" in out
    report = json.loads(json_out.read_text())
    assert set(report["classes"]) == {
        "Drive", "Jump", "LieDown", "Sit", "Stand", "Walk", "Transition",
    }
    assert report["overall"]["total"] > 0


def test_train_gesture_model_shape(tmp_path, capsys):
    config = write_config(tmp_path)
    data = tmp_path / "gesture.csv"
    model = tmp_path / "gesture.ohm"
    assert main([
        "datagen", "--config", str(config), "--app", "gesture",
        "--out", str(data), "--seed", "3",
    ]) == 0
    assert main([
        "train", "--data", str(data), "--app", "gesture",
        "--out", str(model), "--config", str(config), "--seed", "0",
    ]) == 0
    assert "[72, 16, 4]" in capsys.readouterr().out


def test_train_on_a_corpus_of_another_app_exits_3(tmp_path, capsys):
    config = write_config(tmp_path)
    data = tmp_path / "har.csv"
    assert main(["datagen", "--config", str(config), "--out", str(data), "--seed", "7"]) == 0
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--app", "gesture", "--out", str(tmp_path / "m.ohm"), "--config", str(config)])
    assert code == 3
    assert capsys.readouterr().err.strip() == "dataset labels do not belong to the 'gesture' label set"
    assert not (tmp_path / "m.ohm").exists()


def test_train_single_class_exits_3(tmp_path, capsys):
    def one_label(raw):
        raw["synthetic_models"]["har"]["schedule"] = [["Walk", 120000]]

    config = write_config(tmp_path, mutate=one_label)
    data = tmp_path / "flat.csv"
    assert main(["datagen", "--config", str(config), "--out", str(data), "--seed", "1"]) == 0
    code = main([
        "train", "--data", str(data), "--app", "har",
        "--out", str(tmp_path / "m.ohm"), "--config", str(config),
    ])
    assert code == 3
    assert "degenerate" in capsys.readouterr().err.lower()


def test_train_out_of_range_row_exits_3(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text(
        "t_ms,ax,ay,az,gx,gy,gz,stretch,label\n"
        "0,0.0,0.0,1.0,0.0,0.0,0.0,0.5,Walk\n"
        "10,20.0,0.0,1.0,0.0,0.0,0.0,0.5,Walk\n"
    )
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.ohm")])
    assert code == 3
    assert "line 3" in capsys.readouterr().err
    assert not (tmp_path / "m.ohm").exists()


def test_train_split_leaving_no_training_windows_exits_3(tmp_path, capsys):
    """Two labeled windows at split_fraction 0.2 round to no training window;
    this used to end in a traceback from normalize_features."""
    config = write_config(tmp_path, mutate=lambda raw: raw["train"].update(split_fraction=0.2))
    data, short = tmp_path / "har.csv", tmp_path / "short.csv"
    assert main(["datagen", "--config", str(config), "--out", str(data), "--seed", "7"]) == 0
    short.write_text("".join(data.read_text().splitlines(keepends=True)[:193]))  # the header and 192 rows
    code = main(["train", "--data", str(short), "--out", str(tmp_path / "m.ohm"), "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.strip() == "train.split_fraction 0.2 leaves no training windows of 2"
    assert not (tmp_path / "m.ohm").exists()


def test_eval_unlabeled_data_exits_3(tmp_path, capsys):
    config = write_config(tmp_path)
    data = tmp_path / "har.csv"
    model = tmp_path / "har.ohm"
    main(["datagen", "--config", str(config), "--out", str(data), "--seed", "7"])
    main(["train", "--data", str(data), "--app", "har", "--out", str(model),
          "--config", str(config)])
    capsys.readouterr()

    bare = tmp_path / "bare.csv"
    lines = data.read_text().splitlines()
    stripped = [lines[0]] + [",".join(l.split(",")[:8]) + "," for l in lines[1:200]]
    bare.write_text("\n".join(stripped) + "\n")
    code = main(["eval", "--data", str(bare), "--model", str(model)])
    assert code == 3
    assert "labeled" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_no_labeled_windows_exits_3(tmp_path, capsys, command):
    from openhealth.classifier import init_model, save_model
    from openhealth.core import LabeledRecording
    from openhealth.dataio import write_dataset
    from openhealth.pipeline import FeatureStats

    from conftest import make_values

    data = tmp_path / "bare.csv"
    write_dataset(LabeledRecording(np.arange(600) * 10, make_values(600)), data)
    model = init_model((84, 16, 7), seed=0)
    model.stats = FeatureStats(np.zeros(84), np.ones(84))
    save_model(model, tmp_path / "m.ohm")
    argv = {
        "train": ["train", "--data", str(data), "--out", str(tmp_path / "new.ohm")],
        "eval": ["eval", "--data", str(data), "--model", str(tmp_path / "m.ohm"), "--json", str(tmp_path / "r.json")],
    }[command]
    assert main(argv) == 3
    assert capsys.readouterr().err.strip() == "dataset yields no labeled windows"
    assert not (tmp_path / "new.ohm").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("cut", [10, -1])  # inside the layer sizes; at the stats flag
def test_eval_truncated_model_exits_3(tmp_path, capsys, cut):
    from openhealth.classifier import init_model, model_to_bytes

    blob = model_to_bytes(init_model((84, 16, 7), seed=0))
    model = tmp_path / "cut.ohm"
    model.write_bytes(blob[:cut])
    code = main(["eval", "--data", str(tmp_path / "unused.csv"), "--model", str(model)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("model error: byte ") and "blob ends inside" in err


def test_eval_model_blob_of_another_version_exits_3(tmp_path, capsys):
    from openhealth.classifier import init_model, model_to_bytes

    blob = bytearray(model_to_bytes(init_model((84, 16, 7), seed=0)))
    blob[4] = 2  # the version byte, after the 4-byte magic
    model = tmp_path / "v2.ohm"
    model.write_bytes(bytes(blob))
    code = main(["eval", "--data", str(tmp_path / "unused.csv"), "--model", str(model)])
    assert code == 3
    assert capsys.readouterr().err.strip() == "model error: byte 4: unsupported model blob version 2"


@pytest.mark.parametrize("blob", [b"OHM1\x01\x03\x00", None])  # truncated; missing file
def test_simulate_bad_model_path_exits_3(tmp_path, capsys, blob):
    model = tmp_path / "scenario.ohm"
    if blob is not None:
        model.write_bytes(blob)

    def use_model(raw):
        raw["scenario"].update(duration_ms=60_000, model_path=str(model))

    config = write_config(tmp_path, mutate=use_model)
    code = main(["simulate", "--config", str(config), "--trace", str(tmp_path / "t.trace")])
    assert code == 3
    assert capsys.readouterr().err.startswith("model error: ")
    assert not (tmp_path / "t.trace").exists()


@pytest.mark.parametrize(
    "command, app, layer_sizes, stats, problem",
    [
        ("simulate", "har", (72, 16, 7), True, "model input 72 != 7 channels x 12 features"),
        ("simulate", "gesture", (72, 16, 7), True, "model has 7 classes, the gesture app has 4 labels"),
        ("simulate", "har", (84, 16, 4), True, "model has 4 classes, the har app has 7 labels"),
        ("simulate", "har", (84, 16, 7), False, "model has no feature stats"),
        ("eval", "har", (72, 16, 7), True, "model input 72 != 7 channels x 12 features"),
        ("eval", "har", (84, 16, 5), True, "model has 5 classes; expected 7 (har) or 4 (gesture)"),
        ("eval", "har", (84, 16, 7), False, "model has no feature stats"),
    ],
    ids=["har-input", "gesture-classes", "har-classes", "no-stats", "eval-input", "eval-classes", "eval-no-stats"],
)
def test_simulate_model_that_does_not_fit_a_device_exits_3(
    tmp_path, capsys, command, app, layer_sizes, stats, problem
):
    """simulate checks the model against each device; eval against the app
    its class count names and the data's channels."""
    from openhealth.classifier import init_model, save_model
    from openhealth.pipeline import FeatureStats

    model = init_model(layer_sizes, seed=0)
    if stats:
        model.stats = FeatureStats(mean=np.zeros(layer_sizes[0]), std=np.ones(layer_sizes[0]))
    save_model(model, tmp_path / "m.ohm")

    def use_model(raw):
        label = "Up" if app == "gesture" else "Walk"
        raw["scenario"].update(duration_ms=60_000, model_path=str(tmp_path / "m.ohm"))
        raw["scenario"]["devices"] = [{"id": 1, "app": app, "schedule": [[label, 60_000]]}]

    config = write_config(tmp_path, mutate=use_model)
    if command == "simulate":
        prefix = "device 1: "
        code = main(["simulate", "--config", str(config), "--trace", str(tmp_path / "t.trace")])
    else:
        prefix = ""
        data = tmp_path / "d.csv"
        assert main(["datagen", "--config", str(config), "--app", app, "--out", str(data), "--seed", "7"]) == 0
        capsys.readouterr()
        code = main(["eval", "--data", str(data), "--model", str(tmp_path / "m.ohm")])
    assert code == 3
    assert capsys.readouterr().err.strip() == f"model error: {prefix}{problem}"
    assert not (tmp_path / "t.trace").exists()
    assert not (tmp_path / "d_report.json").exists()


def test_simulate_device_app_without_synthetic_models_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": {"duration_ms": 60_000, "devices": [{"schedule": [["Walk", 1000]]}]}}))
    code = main(["simulate", "--config", str(config), "--trace", str(tmp_path / "t.trace")])
    assert code == 2
    assert capsys.readouterr().err.strip() == (
        "config error: scenario.devices[0].app: no synthetic_models.har section to synthesize its signals from"
    )


def test_simulate_device_label_without_signal_model_exits_2(tmp_path, capsys):
    def drop_walk(raw):
        har = raw["synthetic_models"]["har"]
        del har["labels"]["Walk"]
        har["schedule"] = [entry for entry in har["schedule"] if entry[0] != "Walk"]
        raw["scenario"]["devices"][0]["schedule"] = [["Walk", 60_000]]
        raw["scenario"]["devices"][1]["schedule"] = [["Sit", 60_000]]

    config = write_config(tmp_path, mutate=drop_walk)
    code = main(["simulate", "--config", str(config), "--trace", str(tmp_path / "t.trace")])
    assert code == 2
    assert capsys.readouterr().err.strip() == (
        "config error: scenario.devices[0].schedule: labels without signal models: ['Walk']"
    )
    assert list(tmp_path.iterdir()) == [config]


def test_budget_default_and_storage_claim(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["budget", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "SRAM:  6744 / 20480" in out
    assert "Flash:" in out and "/ 131072" in out
    assert "2,160,000 bytes/hour" in out  # 100 Hz x 3 channels x 2 B

    config250 = write_config(
        tmp_path, mutate=lambda raw: raw["device_profile"].update({"sample_rate_hz": 250}),
        name="c250.json",
    )
    assert main(["budget", "--config", str(config250)]) == 0
    out = capsys.readouterr().out
    assert "5,400,000 bytes/hour" in out


@pytest.mark.parametrize(
    "har, layers",
    [("stretch", "[84, 16, 7]"), ("no stretch", "[72, 16, 7]"), ("absent", "[84, 16, 7]")],
)
def test_budget_channels_follow_the_har_model(tmp_path, capsys, har, layers):
    def edit(raw):
        if har == "absent":
            del raw["synthetic_models"]["har"]
            del raw["scenario"]
        elif har == "no stretch":
            for params in raw["synthetic_models"]["har"]["labels"].values():
                params["stretch_base"] = None

    assert main(["budget", "--config", str(write_config(tmp_path, mutate=edit))]) == 0
    assert f"Model: layers {layers}," in capsys.readouterr().out


def test_budget_sram_overflow_exits_2(tmp_path, capsys):
    config = write_config(
        tmp_path, mutate=lambda raw: raw["pipeline"].update({"window": 4096})
    )
    assert main(["budget", "--config", str(config)]) == 2
    assert "SRAM" in capsys.readouterr().err


def test_simulate_writes_trace_and_metrics(tmp_path, capsys):
    def small(raw):
        raw["scenario"]["duration_ms"] = 300_000
        raw["scenario"]["devices"] = [
            {"id": 1, "app": "har", "clock_offset_ms": 100,
             "schedule": [["Walk", 60000], ["LieDown", 120000]],
             "alert_schedule": [[30000, "Jump"]]},
        ]
        raw["scenario"]["use_duty_plan"] = False

    config = write_config(tmp_path, mutate=small)
    trace1 = tmp_path / "t1.trace"
    trace2 = tmp_path / "t2.trace"
    metrics = tmp_path / "m.json"
    observations = tmp_path / "obs.csv"
    assert main(["simulate", "--config", str(config), "--seed", "5",
                 "--trace", str(trace1), "--metrics", str(metrics),
                 "--observations", str(observations)]) == 0
    assert main(["simulate", "--config", str(config), "--seed", "5",
                 "--trace", str(trace2)]) == 0
    assert trace1.read_bytes() == trace2.read_bytes()
    m = json.loads(metrics.read_text())
    assert "alerts_notified" in m["host"]
    assert m["devices"]["dev1"]["battery_mwh"]["end"] > 0
    assert m["channel"]["transmitted"] > 0
    obs_lines = observations.read_text().splitlines()
    assert obs_lines[0] == "device_id,corrected_t_ms,app_id,label,confidence"
    assert len(obs_lines) - 1 == m["host"]["observations"]["1"]


def test_the_shortest_window_runs_every_command(tmp_path, capsys):
    """At pipeline.window = MIN_WINDOW, datagen, train and eval run, and so does simulate, with a
    device without a model and with one that runs the model trained on those windows."""
    config = write_config(tmp_path, mutate=lambda raw: raw["pipeline"].update(window=MIN_WINDOW))
    data, model = tmp_path / "har.csv", tmp_path / "har.ohm"
    assert main(["datagen", "--config", str(config), "--out", str(data), "--seed", "7"]) == 0
    assert main(["train", "--data", str(data), "--out", str(model), "--config", str(config)]) == 0
    assert main(["eval", "--data", str(data), "--model", str(model), "--config", str(config)]) == 0
    assert json.loads((tmp_path / "har_report.json").read_text())["overall"]["total"] > 0

    def scenario(raw, model_path):
        raw["pipeline"]["window"] = MIN_WINDOW
        raw["scenario"].update(duration_ms=120_000, model_path=model_path)
        raw["scenario"]["devices"] = [{"id": 1, "schedule": [["Walk", 60_000], ["LieDown", 60_000]]}]

    for model_path in (None, str(model)):
        config = write_config(tmp_path, mutate=lambda raw: scenario(raw, model_path), name="sim.json")
        assert main(["simulate", "--config", str(config), "--trace", str(tmp_path / "t.trace")]) == 0
        assert replay((tmp_path / "t.trace").read_text().splitlines()).passed
        assert sum(json.loads((tmp_path / "t_metrics.json").read_text())["devices"]["dev1"]["classifications"].values())


@pytest.mark.parametrize("command", ["datagen", "train", "eval", "budget", "simulate"])
def test_a_window_below_min_window_exits_2(tmp_path, capsys, command):
    from openhealth.classifier import init_model, save_model
    from openhealth.pipeline import FeatureStats

    model = init_model((84, 16, 7), seed=0)
    model.stats = FeatureStats(mean=np.zeros(84), std=np.ones(84))
    save_model(model, tmp_path / "m.ohm")
    config = write_config(tmp_path, mutate=lambda raw: raw["pipeline"].update(window=MIN_WINDOW - 1))
    argv = {
        "datagen": ["datagen", "--out", str(tmp_path / "x.csv")],
        "train": ["train", "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "x.ohm")],
        "eval": ["eval", "--data", str(tmp_path / "d.csv"), "--model", str(tmp_path / "m.ohm")],
        "budget": ["budget"],
        "simulate": ["simulate", "--trace", str(tmp_path / "x.trace")],
    }[command]
    assert main(argv + ["--config", str(config)]) == 2
    assert capsys.readouterr().err.strip() == f"config error: pipeline.window: must be >= {MIN_WINDOW}"
    assert not list(tmp_path.glob("x.*"))


def test_simulate_missing_config_exits_2(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--trace", str(tmp_path / "t.trace")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_train_data_directory_exits_3(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.ohm")])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error: [Errno 21] Is a directory")
    assert not (tmp_path / "m.ohm").exists()


def test_eval_model_directory_exits_3(tmp_path, capsys):
    code = main(["eval", "--data", str(tmp_path / "unused.csv"), "--model", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("model error: [Errno 21] Is a directory")


def test_budget_config_directory_exits_2(tmp_path, capsys):
    code = main(["budget", "--config", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.strip() == f"config error: cannot read config file {tmp_path}: Is a directory"


def test_budget_config_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"profile": "\xff"}')
    code = main(["budget", "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err.strip() == f"config error: config file {config} is not UTF-8 text (byte 13)"


def test_datagen_unwritable_out_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "missing" / "x.csv"
    code = main(["datagen", "--config", str(config), "--out", str(out), "--seed", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("output error: [Errno 2] No such file or directory")


def test_train_unwritable_out_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    data = tmp_path / "har.csv"
    assert main(["datagen", "--config", str(config), "--out", str(data), "--seed", "1"]) == 0
    capsys.readouterr()
    out = tmp_path / "missing" / "x.ohm"
    code = main(["train", "--data", str(data), "--out", str(out), "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err.startswith("output error: [Errno 2] No such file or directory")


def test_train_config_naming_epochs_exits_2(tmp_path, capsys):
    """train.epochs left with SGD: a config that still names it is refused before any work."""
    config = write_config(tmp_path, mutate=lambda raw: raw["train"].update(epochs=200))
    code = main(["train", "--data", str(tmp_path / "har.csv"), "--out", str(tmp_path / "x.ohm"), "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err.strip() == "config error: train.epochs: unknown key"


def test_simulate_config_naming_retired_keys_exits_2(tmp_path, capsys):
    """device_profile.cpu_mhz had no reader and scenario.local_processing no value but true."""

    def mutate(raw):
        raw["device_profile"]["cpu_mhz"] = 47
        raw["scenario"]["local_processing"] = True

    config = write_config(tmp_path, mutate=mutate)
    assert main(["simulate", "--config", str(config), "--trace", str(tmp_path / "x.trace")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: device_profile.cpu_mhz: unknown key",
        "config error: scenario.local_processing: unknown key",
    ]
    assert not (tmp_path / "x.trace").exists()


@pytest.mark.parametrize(
    "out, reason",
    [("missing/x.ohm", "No such file or directory"), (".", "Is a directory"), ("har.csv/x.ohm", "Not a directory")],
    ids=["no-parent", "directory", "file-parent"],
)
def test_train_unwritable_out_exits_2_before_training(tmp_path, capsys, monkeypatch, out, reason):
    config = write_config(tmp_path)
    data = tmp_path / "har.csv"
    assert main(["datagen", "--config", str(config), "--out", str(data), "--seed", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("train ran before --out was checked"))
    code = main(["train", "--data", str(data), "--out", str(tmp_path / out), "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("output error: [Errno ") and err.endswith(f"] {reason}: {str(tmp_path / out)!r}")


@pytest.mark.parametrize("flag", ["--trace", "--metrics", "--observations"])
@pytest.mark.parametrize(
    "out, reason",
    [("missing/x.out", "No such file or directory"), (".", "Is a directory"), ("config.json/x.out", "Not a directory")],
    ids=["no-parent", "directory", "file-parent"],
)
def test_simulate_unwritable_output_exits_2_before_the_scenario_runs(tmp_path, capsys, monkeypatch, flag, out, reason):
    config = write_config(tmp_path)
    monkeypatch.setattr(cli, "scenario_lines", lambda *args: pytest.fail("the scenario ran before its outputs were checked"))
    paths = {"--trace": tmp_path / "t.trace", "--metrics": tmp_path / "m.json", "--observations": tmp_path / "o.csv"}
    paths[flag] = tmp_path / out
    before = sorted(tmp_path.rglob("*"))
    assert main(["simulate", "--config", str(config), *(arg for item in paths.items() for arg in map(str, item))]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("output error: [Errno ") and err.endswith(f"] {reason}: {str(tmp_path / out)!r}")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("flags", [("--trace", "--metrics"), ("--trace", "--observations"), ("--metrics", "--observations")])
@pytest.mark.parametrize("spelling", ["same", "dot-slash", "hard-link"])
def test_simulate_refuses_two_outputs_that_name_one_file(tmp_path, capsys, monkeypatch, flags, spelling):
    """The later of two outputs that name one file would replace the earlier, so the run is refused
    before it starts: by the resolved path, or by os.path.samefile where both files exist."""
    config = write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "scenario_lines", lambda *args: pytest.fail("the scenario ran before its outputs were checked"))
    paths = {"--trace": "t.trace", "--metrics": "m.json", "--observations": "o.csv"}
    first, second = flags
    paths[first], paths[second] = "x", {"same": "x", "dot-slash": "./x", "hard-link": "y"}[spelling]
    if spelling == "hard-link":
        Path("x").write_text("kept\n")
        os.link("x", "y")
    before = {path: path.read_bytes() for path in tmp_path.rglob("*")}
    assert main(["simulate", "--config", str(config), *(arg for item in paths.items() for arg in item)]) == 2
    assert capsys.readouterr().err.strip() == f"output error: {first} and {second} name the same file: {paths[second]}"
    assert {path: path.read_bytes() for path in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("command", ["budget", "simulate"])
def test_sleep_power_not_below_transmit_power_exits_2(tmp_path, capsys, command):
    """The parser used to accept it, and the duty planner of budget and of a
    duty-planned simulate then ended in a traceback."""
    config = write_config(tmp_path, mutate=lambda raw: raw["device_profile"].update(p_sleep_mw=20))
    argv = {
        "budget": ["budget", "--config", str(config)],
        "simulate": ["simulate", "--config", str(config), "--trace", str(tmp_path / "t")],
    }[command]
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.strip() == "config error: device_profile.p_sleep_mw: must be below p_tx_mw"
    assert not (tmp_path / "t").exists()


def test_simulate_config_without_scenario_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, mutate=lambda raw: raw.pop("scenario"))
    code = main(["simulate", "--config", str(config), "--trace", str(tmp_path / "t")])
    assert code == 2
    assert "scenario" in capsys.readouterr().err


def test_simulate_non_finite_setting_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, mutate=lambda raw: raw["scenario"].update(tx_bitrate_kbps=float("nan")))
    code = main(["simulate", "--config", str(config), "--trace", str(tmp_path / "t")])
    assert code == 2
    assert "config error: scenario.tx_bitrate_kbps: expected a finite number" in capsys.readouterr().err


def test_simulate_clock_offset_beyond_the_64_bit_device_clock_exits_2(tmp_path, capsys):
    """The device clock goes into unsigned 64-bit frame timestamps; an offset past them is a config error."""
    config = write_config(tmp_path, mutate=lambda raw: raw["scenario"]["devices"][0].update(clock_offset_ms=2**64))
    code = main(["simulate", "--config", str(config), "--trace", str(tmp_path / "t")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip() == "config error: scenario.devices[0].clock_offset_ms: must be <= 9223372036854775807"
    assert "Traceback" not in err
    assert not (tmp_path / "t").exists()


def _latency_past_int64(raw):
    raw["channel"]["latency_ms"] = [0, 2**64]
    raw["scenario"]["duration_ms"] = 60_000


def _sync_timeout_past_u32_rtt(raw):
    """60 days of one LieDown device, whose one sync round trip, 2 * 2147484648 ms, beats the timeout."""
    raw["channel"]["latency_ms"] = 2147484648
    raw["protocol"].update(sync_timeout_ms=2**33, sync_interval_ms=0)
    raw["scenario"]["duration_ms"] = 60 * 86_400_000
    raw["scenario"]["devices"] = [{"id": 1, "app": "har", "schedule": [["LieDown", 60 * 86_400_000]]}]


@pytest.mark.parametrize(
    "mutate, error",
    [
        (_latency_past_int64, "channel.latency_ms: must be <= 9223372036854775807"),
        (_sync_timeout_past_u32_rtt, "protocol.sync_timeout_ms: must be <= 4294967295"),
    ],
    ids=["latency-past-int64", "sync-timeout-past-u32-rtt"],
)
def test_simulate_setting_past_what_the_run_can_hold_exits_2(tmp_path, capsys, mutate, error):
    """Each used to crash the run: numpy's int64 latency draw, or packing the sync report's u32 rtt_ms."""
    config = write_config(tmp_path, mutate=mutate)
    code = main(["simulate", "--config", str(config), "--trace", str(tmp_path / "t")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip() == f"config error: {error}"
    assert "Traceback" not in err
    assert not (tmp_path / "t").exists()


def _command_peaks(tmp_path, repeat: int) -> tuple[list[int], int]:
    """tracemalloc peaks of datagen, train and eval on the reference har
    corpus tiled repeat times, and the corpus's row count."""
    raw = json.loads(REFERENCE.read_text())
    raw["synthetic_models"]["har"]["repeat"] = repeat
    config, data, model = tmp_path / f"c{repeat}.json", tmp_path / f"d{repeat}.csv", tmp_path / f"m{repeat}.ohm"
    config.write_text(json.dumps(raw))
    argvs = [
        ["datagen", "--config", str(config), "--out", str(data), "--seed", "3"],
        ["train", "--data", str(data), "--out", str(model), "--config", str(config)],
        ["eval", "--data", str(data), "--model", str(model), "--config", str(config), "--json", str(tmp_path / "r")],
    ]
    peaks = []
    for argv in argvs:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    with open(data, "rb") as f:
        return peaks, sum(1 for _ in f) - 1


def test_corpus_commands_hold_a_block_not_the_recording(tmp_path, capsys):
    """Doubling the corpus leaves datagen's peak where it was, and grows the
    peaks of train and eval by less than 60% of the rows added (72 bytes a
    row with stretch: the time, seven values and the label code). What grows
    there is one feature row per window."""
    (datagen, train, evaluate), rows = _command_peaks(tmp_path, 11)
    (datagen2, train2, evaluate2), rows2 = _command_peaks(tmp_path, 22)
    added = 72 * (rows2 - rows)
    assert rows2 == 2 * rows
    assert datagen2 <= datagen + 64 * 1024
    assert train2 - train < 0.6 * added
    assert evaluate2 - evaluate < 0.6 * added


def test_golden_eval_rendering():
    import numpy as np

    from openhealth.classifier import EvalReport, render_report
    from openhealth.core import ActivityLabel

    counts = {
        ActivityLabel.Drive: (154, 155),
        ActivityLabel.Jump: (169, 181),
        ActivityLabel.LieDown: (204, 204),
        ActivityLabel.Sit: (385, 394),
        ActivityLabel.Stand: (345, 350),
        ActivityLabel.Walk: (794, 806),
        ActivityLabel.Transition: (115, 127),
    }
    confusion = np.zeros((7, 7), dtype=np.int64)
    for label, (correct, total) in counts.items():
        confusion[label.value, label.value] = correct
        confusion[label.value, (label.value + 1) % 7] = total - correct
    text = render_report(EvalReport(label_set=ActivityLabel, confusion=confusion))
    golden = Path("docs/formats/eval_table.golden").read_text()
    assert text == golden
