from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from openhealth.classifier import TrainConfig
from openhealth.config import ConfigError, DeviceSpec, PipelineSettings, ProtocolSettings, ScenarioSettings
from openhealth.config import SyntheticSpec, load_config, parse_config
from openhealth.core import APPS, ActivityLabel, DeviceProfile, FieldError, GestureLabel
from openhealth.dataio import LabelSignalModel, generate_synthetic
from openhealth.firmware import EnergySettings
from openhealth.netproto import ChannelModel, RetryPolicy

REFERENCE = "configs/reference.json"


def reference_raw():
    with open(REFERENCE) as f:
        return json.load(f)


def test_reference_config_loads():
    config = load_config(REFERENCE)
    assert config.pipeline.window == 128
    assert set(config.synthetic) == {"har", "gesture"}
    assert config.scenario is not None
    assert len(config.scenario.devices) == 2
    assert config.scenario.use_duty_plan


def test_unknown_top_level_key_rejected():
    raw = reference_raw()
    raw["devicez"] = {}
    with pytest.raises(ConfigError, match="devicez"):
        parse_config(raw)


def test_unknown_nested_key_rejected():
    raw = reference_raw()
    raw["train"]["learning_rat"] = 0.1
    with pytest.raises(ConfigError, match="train.learning_rat"):
        parse_config(raw)


def test_all_violations_reported():
    raw = reference_raw()
    raw["train"]["hidden"] = -5
    raw["channel"]["loss_probability"] = 2.0
    raw["bogus"] = 1
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    text = str(exc.value)
    assert "train.hidden" in text
    assert "channel.loss_probability" in text
    assert "bogus" in text
    assert len(exc.value.errors) >= 3


def test_bad_label_name_in_schedule():
    raw = reference_raw()
    raw["synthetic_models"]["har"]["schedule"][0][0] = "Flying"
    with pytest.raises(ConfigError, match="Flying"):
        parse_config(raw)


def test_duplicate_device_ids_rejected():
    raw = reference_raw()
    raw["scenario"]["devices"][1]["id"] = raw["scenario"]["devices"][0]["id"]
    with pytest.raises(ConfigError, match="duplicate device id"):
        parse_config(raw)


def test_key_hex_must_be_16_bytes():
    raw = reference_raw()
    raw["protocol"]["key_hex"] = "deadbeef"
    with pytest.raises(ConfigError, match="16 bytes"):
        parse_config(raw)


def test_harvest_profile_needs_24_slots():
    raw = reference_raw()
    raw["energy"]["harvest_profile_mw"] = [1.0] * 23
    with pytest.raises(ConfigError, match="24"):
        parse_config(raw)


def test_device_falls_back_to_synthetic_schedule():
    raw = reference_raw()
    del raw["scenario"]["devices"][0]["schedule"]
    config = parse_config(raw)
    assert len(config.scenario.devices[0].schedule) == len(config.synthetic["har"].full_schedule())


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("does/not/exist.json")


def test_invalid_json_reported(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)


@pytest.mark.parametrize("root", [[], "config", None])
def test_config_root_must_be_an_object(tmp_path, root):
    path = tmp_path / "root.json"
    path.write_text(json.dumps(root))
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.errors == ["config root must be a JSON object"]


def test_scenario_optional():
    raw = reference_raw()
    del raw["scenario"]
    config = parse_config(raw)
    assert config.scenario is None


# --- pinned parse behaviour --------------------------------------------------

_DELETE = object()
_HAR = ("synthetic_models", "har")
_WALK = _HAR + ("labels", "Walk")
_DEV = ("scenario", "devices", 0)

# Optimizer settings that are now classifier constants or gone with SGD; a document naming one is refused.
RETIRED_TRAIN_KEYS = {"learning_rate": 0.05, "momentum": 0.9, "batch_size": 32, "patience": None, "epochs": 200}

# Each case: edits to the reference document, then the exact sorted error list.
MALFORMED = [
    ([(("devicez",), {})], ["devicez: unknown key"]),
    ([(("train",), [])], ["train: expected an object"]),
    ([(("device_profile", "cpu_ghz"), 1)], ["device_profile.cpu_ghz: unknown key"]),
    ([(("device_profile", "cpu_mhz"), 47)], ["device_profile.cpu_mhz: unknown key"]),
    ([(("device_profile", "sram_bytes"), "20K")], ["device_profile.sram_bytes: expected a number, got str"]),
    ([(("device_profile", "flash_bytes"), 1.5)], ["device_profile.flash_bytes: expected an integer"]),
    ([(("device_profile", "p_sleep_mw"), 0)], ["device_profile.p_sleep_mw: must be >= 1e-09"]),
    ([(("device_profile", "p_sleep_mw"), 15.0)], ["device_profile.p_sleep_mw: must be below p_tx_mw"]),
    ([(("pipeline", "stride"), 64)], ["pipeline.stride: unknown key"]),
    ([(("pipeline", "channels"), "ax")], ["pipeline.channels: unknown key"]),
    ([(("pipeline", "window"), None)], ["pipeline.window: expected a number, got NoneType"]),
    ([(("pipeline", "window"), 8)], ["pipeline.window: must be >= 16"]),
    ([(("pipeline", "overlap"), 1.0)], ["pipeline.overlap: must be <= 0.999"]),
    ([(("train", "learning_rat"), 0.1)], ["train.learning_rat: unknown key"]),
    *(([(("train", key), value)], [f"train.{key}: unknown key"]) for key, value in RETIRED_TRAIN_KEYS.items()),
    ([(("train", "split_fraction"), 1.0)], ["train.split_fraction: must be <= 0.99"]),
    ([(("train", "hidden"), 0)], ["train.hidden: must be >= 1"]),
    ([(("synthetic_models", "ecg"), {})], ["synthetic_models.ecg: unknown key"]),
    ([(_HAR, "har")], ["synthetic_models.har: expected an object"]),
    ([(_HAR + ("labelz",), {})], ["synthetic_models.har.labelz: unknown key"]),
    ([(_HAR + ("labels",), _DELETE)], ["synthetic_models.har.labels: expected a non-empty label map"]),
    (
        [(_HAR + ("labels", "Flying"), {})],
        ["synthetic_models.har.labels.Flying: unknown label 'Flying' for this application"],
    ),
    (
        [(_WALK, 2.0)],
        [
            "synthetic_models.har.labels.Walk: expected a parameter object",
            "synthetic_models.har.schedule: labels without signal models: ['Walk']",
        ],
    ),
    ([(_HAR + ("repeat",), "11")], ["synthetic_models.har.repeat: expected a number, got str"]),
    ([(_HAR + ("repeat",), 0)], ["synthetic_models.har.repeat: must be >= 1"]),
    (
        [(_HAR + ("schedule", 0, 1), 0)],
        ["synthetic_models.har.schedule[0]: duration_ms must be a positive integer"],
    ),
    ([(_HAR + ("schedule", 0), ["Walk"])], ["synthetic_models.har.schedule[0]: expected [label, duration_ms]"]),
    ([(_HAR + ("schedule",), [])], ["synthetic_models.har.schedule: expected a non-empty list of [label, duration_ms] pairs"]),
    ([(_DEV + ("schedule",), "Walk")], ["scenario.devices[0].schedule: expected a non-empty list of [label, duration_ms] pairs"]),
    (
        [(_HAR, _DELETE), (("scenario", "devices"), [{}])],
        ["scenario.devices[0].schedule: no schedule given and no synthetic_models.har to fall back on"],
    ),
    ([(_WALK + ("phase",), 0.0)], ["synthetic_models.har.labels.Walk.phase: unknown key"]),
    ([(_WALK + ("orientation",), [0, 1])], ["synthetic_models.har.labels.Walk.orientation: expected a 3-number list"]),
    ([(_WALK + ("orientation",), _DELETE)], ["synthetic_models.har.labels.Walk.orientation: expected a 3-number list"]),
    ([(_WALK + ("freq_hz",), -1)], ["synthetic_models.har.labels.Walk.freq_hz: must be >= 0.0"]),
    ([(_WALK + ("amp_g",), "big")], ["synthetic_models.har.labels.Walk.amp_g: expected a number, got str"]),
    (
        [(_WALK + ("stretch_base",), 1.5)],
        [
            "synthetic_models.har.labels.Walk.stretch_base: must be <= 1.0",
            "synthetic_models.har.labels: stretch channel must be present for all labels or none",
        ],
    ),
    (
        [(_WALK + ("orientation",), [0, 0, 1]), (_WALK + ("freq_hz",), 3.9), (_WALK + ("amp_g",), 0.8)],
        ["synthetic_models.har.labels: labels Jump and Walk share signal signature (3.9, 0.8, (0.0, 0.0, 1.0))"],
    ),
    (  # invalid values fall back to the defaults, which then collide with Sit
        [(_WALK + ("orientation",), [0.35, 0.1, 0.93]), (_WALK + ("freq_hz",), -1), (_WALK + ("amp_g",), "x")],
        [
            "synthetic_models.har.labels.Walk.amp_g: expected a number, got str",
            "synthetic_models.har.labels.Walk.freq_hz: must be >= 0.0",
            "synthetic_models.har.labels: labels Sit and Walk share signal signature (0.0, 0.0, (0.35, 0.1, 0.93))",
        ],
    ),
    ([(("energy", "battery_voltage"), 3.7)], ["energy.battery_voltage: unknown key"]),
    ([(("energy", "mppt_efficiency"), "high")], ["energy.mppt_efficiency: expected a number, got str"]),
    ([(("energy", "charge_efficiency"), 0)], ["energy.charge_efficiency: must be >= 1e-09"]),
    ([(("energy", "reserve_fraction"), 0.95)], ["energy.reserve_fraction: must be <= 0.9"]),
    ([(("energy", "battery_initial_mwh"), 50.0)], ["energy.battery_initial_mwh: must not exceed battery_capacity_mwh"]),
    (  # an invalid capacity falls back to its default of 40
        [(("energy", "battery_capacity_mwh"), 0), (("energy", "battery_initial_mwh"), 41)],
        [
            "energy.battery_capacity_mwh: must be >= 1e-09",
            "energy.battery_initial_mwh: must not exceed battery_capacity_mwh",
        ],
    ),
    ([(("energy", "harvest_profile_mw"), [1.0] * 23)], ["energy.harvest_profile_mw: expected 24 nonnegative numbers"]),
    ([(("energy", "harvest_profile_mw", 3), -1.0)], ["energy.harvest_profile_mw: expected 24 nonnegative numbers"]),
    ([(("energy", "harvest_profile_mw"), None)], ["energy.harvest_profile_mw: expected 24 nonnegative numbers"]),
    ([(("channel", "jitter_ms"), 5)], ["channel.jitter_ms: unknown key"]),
    ([(("channel", "latency_ms"), "20")], ["channel.latency_ms: expected a nonnegative integer or [lo, hi] range"]),
    ([(("channel", "latency_ms"), [40, 10])], ["channel.latency_ms: expected a nonnegative integer or [lo, hi] range"]),
    ([(("channel", "latency_ms"), [0, 2**64])], ["channel.latency_ms: must be <= 9223372036854775807"]),
    ([(("channel", "latency_ms"), 2**63)], ["channel.latency_ms: must be <= 9223372036854775807"]),
    ([(("channel", "latency_ms"), None)], ["channel.latency_ms: expected a nonnegative integer or [lo, hi] range"]),
    ([(("channel", "loss_probability"), 2.0)], ["channel.loss_probability: must be <= 1.0"]),
    ([(("channel", "corruption_probability"), 1.0)], ["channel.corruption_probability: must be <= 0.999"]),
    ([(("protocol", "cipher"), "aes")], ["protocol.cipher: unknown key"]),
    ([(("protocol", "key_hex"), 16)], ["protocol.key_hex: expected a hex string"]),
    ([(("protocol", "key_hex"), "zz")], ["protocol.key_hex: not valid hex"]),
    ([(("protocol", "key_hex"), "deadbeef")], ["protocol.key_hex: must encode exactly 16 bytes"]),
    ([(("protocol", "key_hex"), None)], ["protocol.key_hex: expected a hex string"]),
    ([(("protocol", "retry"), 3)], ["protocol.retry: expected an object"]),
    ([(("protocol", "retry", "backoff"), 2)], ["protocol.retry.backoff: unknown key"]),
    ([(("protocol", "retry", "max_attempts"), 0)], ["protocol.retry.max_attempts: must be >= 1"]),
    ([(("protocol", "sync_timeout_ms"), 0)], ["protocol.sync_timeout_ms: must be >= 1"]),
    ([(("protocol", "sync_timeout_ms"), 2**32)], ["protocol.sync_timeout_ms: must be <= 4294967295"]),
    ([(("scenario", "speed"), 1)], ["scenario.speed: unknown key"]),
    ([(("scenario", "use_duty_plan"), 1)], ["scenario.use_duty_plan: expected true/false"]),
    ([(("scenario", "model_path"), 5)], ["scenario.model_path: expected a string"]),
    ([(("scenario", "alert_labels"), "Jump")], ["scenario.alert_labels: expected a list of label names"]),
    ([(("scenario", "duration_ms"), 0)], ["scenario.duration_ms: must be >= 1"]),
    ([(("scenario", "tx_bitrate_kbps"), 0)], ["scenario.tx_bitrate_kbps: must be >= 1e-09"]),
    ([(("scenario", "local_processing"), True)], ["scenario.local_processing: unknown key"]),
    ([(("scenario", "devices"), [])], ["scenario.devices: expected a non-empty device list"]),
    ([(("scenario", "devices", 1), "dev2")], ["scenario.devices[1]: expected an object"]),
    ([(_DEV + ("name",), "wrist")], ["scenario.devices[0].name: unknown key"]),
    ([(_DEV + ("app",), "ecg")], ["scenario.devices[0].app: must be one of ['gesture', 'har']"]),
    ([(_DEV + ("id",), 70000)], ["scenario.devices[0].id: must be <= 65535"]),
    ([(_DEV + ("id",), 2)], ["scenario.devices[1].id: duplicate device id 2"]),
    ([(_DEV + ("clock_offset_ms",), 0.5)], ["scenario.devices[0].clock_offset_ms: expected an integer"]),
    (
        [(_DEV + ("schedule", 0, 0), "Flying")],
        ["scenario.devices[0].schedule[0]: unknown label 'Flying' for this application"],
    ),
    ([(_DEV + ("alert_schedule",), {})], ["scenario.devices[0].alert_schedule: expected a list of [t_ms, label] pairs"]),
    ([(_DEV + ("alert_schedule", 0), ["Jump", 5])], ["scenario.devices[0].alert_schedule[0]: expected [t_ms, label]"]),
    (
        [(_DEV + ("alert_schedule", 0, 1), "Up")],
        ["scenario.devices[0].alert_schedule[0]: unknown label 'Up' for this application"],
    ),
    ([(("scenario", "alert_labels"), ["Jump", "Jmup"])], ["scenario.alert_labels: unknown label name 'Jmup'"]),
    (
        [(_DEV + ("clock_offset_ms",), 2**64)],
        ["scenario.devices[0].clock_offset_ms: must be <= 9223372036854775807"],
    ),
    ([(("scenario", "duration_ms"), 2**63)], ["scenario.duration_ms: must be <= 9223372036854775807"]),
]


def apply_edits(raw, edits):
    for path, value in edits:
        obj = raw
        for key in path[:-1]:
            obj = obj[key]
        if value is _DELETE:
            del obj[path[-1]]
        else:
            obj[path[-1]] = value
    return raw


@pytest.mark.parametrize(
    "edits,expected", MALFORMED, ids=[".".join(map(str, edits[0][0])) for edits, _ in MALFORMED]
)
def test_malformed_reference_variants_report_exact_errors(edits, expected):
    with pytest.raises(ConfigError) as exc:
        parse_config(apply_edits(reference_raw(), edits))
    assert sorted(exc.value.errors) == expected


def test_minimal_document_yields_documented_defaults():
    """Every default that docs/formats/config.md lists, from an almost empty document."""
    config = parse_config({"scenario": {"devices": [{"schedule": [["Walk", 1000]]}]}})
    p = config.profile
    assert (p.sram_bytes, p.flash_bytes) == (20480, 131072)
    assert (p.p_active_har_mw, p.p_active_gesture_mw, p.p_sleep_mw, p.p_tx_mw) == (12.5, 10.0, 0.3, 15.0)
    assert p.sample_rate_hz == 100
    assert (config.pipeline.window, config.pipeline.overlap) == (128, 0.5)
    t = config.train
    assert (t.seed, t.split_fraction, t.hidden) == (0, 0.8, 16)
    assert config.synthetic == {}
    e = config.energy
    assert (e.battery_capacity_mwh, e.battery_initial_mwh) == (40, 8)
    assert e.harvest_profile_mw == (0.0,) * 24
    assert (e.mppt_efficiency, e.charge_efficiency, e.reserve_fraction) == (0.95, 1.0, 0.2)
    c = config.channel
    assert (c.latency_ms, c.loss_probability, c.corruption_probability) == (20, 0.0, 0.0)
    pr = config.protocol
    assert pr.key == bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    assert (pr.retry.interval_ms, pr.retry.max_attempts) == (200, 10)
    assert (pr.sync_interval_ms, pr.sync_timeout_ms, pr.sync_retries) == (21600000, 1000, 3)
    s = config.scenario
    assert (s.duration_ms, s.report_every_n_windows, s.idle_timeout_ms) == (3600000, 1, 3000)
    assert (s.inference_latency_ms, s.tx_bitrate_kbps, s.alert_labels) == (5, 250, ())
    assert (s.use_duty_plan, s.energy_log_interval_ms, s.model_path) == (False, 3600000, None)
    (device,) = s.devices
    assert (device.device_id, device.app, device.clock_offset_ms, device.alert_schedule) == (1, "har", 0, ())


# --- values that used to parse and then crash later ------------------------

CRASHED_LATER = [
    ([(("scenario", "tx_bitrate_kbps"), math.nan)], ["scenario.tx_bitrate_kbps: expected a finite number"]),
    ([(("energy", "battery_capacity_mwh"), math.nan)], ["energy.battery_capacity_mwh: expected a finite number"]),
    ([(("device_profile", "sample_rate_hz"), math.inf)], ["device_profile.sample_rate_hz: expected a finite number"]),
    ([(_DEV + ("alert_schedule",), [[-5, "Jump"]])], ["scenario.devices[0].alert_schedule[0]: t_ms must be >= 0"]),
    ([(_DEV + ("alert_schedule",), [[True, "Jump"]])], ["scenario.devices[0].alert_schedule[0]: expected [t_ms, label]"]),
    (
        [(_DEV + ("schedule", 0, 1), True)],
        ["scenario.devices[0].schedule[0]: duration_ms must be a positive integer"],
    ),
    (
        [(_HAR + ("schedule", 0, 1), True)],
        ["synthetic_models.har.schedule[0]: duration_ms must be a positive integer"],
    ),
    (
        [(_WALK + ("orientation",), [math.nan, 0.0, 1.0])],
        ["synthetic_models.har.labels.Walk.orientation: expected a 3-number list"],
    ),
    (
        [(_WALK + ("orientation",), [10**400, 0, 1])],
        ["synthetic_models.har.labels.Walk.orientation: expected a 3-number list"],
    ),
    ([(("energy", "harvest_profile_mw", 3), math.inf)], ["energy.harvest_profile_mw: expected 24 nonnegative numbers"]),
    ([(("train", "seed"), -1)], ["train.seed: must be >= 0"]),
    (
        [(("synthetic_models", "gesture"), _DELETE), (_DEV, {"app": "gesture", "schedule": [["Up", 60_000]]})],
        ["scenario.devices[0].app: no synthetic_models.gesture section to synthesize its signals from"],
    ),
    (
        [
            (_WALK, _DELETE),
            (_HAR + ("schedule",), [["Sit", 60_000], ["Jump", 60_000]]),
            (("scenario", "devices"), [{"schedule": [["Walk", 60_000], ["Sit", 60_000]]}, {"id": 2}]),
        ],
        ["scenario.devices[0].schedule: labels without signal models: ['Walk']"],
    ),
]


@pytest.mark.parametrize(
    "edits,expected", CRASHED_LATER, ids=[".".join(map(str, edits[0][0])) for edits, _ in CRASHED_LATER]
)
def test_values_that_crash_later_are_config_errors(edits, expected):
    with pytest.raises(ConfigError) as exc:
        parse_config(apply_edits(reference_raw(), edits))
    assert sorted(exc.value.errors) == expected


_WALK_1HZ = LabelSignalModel(orientation=(0, 0, 1), freq_hz=1.0, amp_g=0.2)
_SIT_STRETCH = LabelSignalModel(orientation=(0, 1, 0), stretch_base=0.7)

# Direct construction enforces the parser's ranges, with the parser's reasons.
CONSTRUCTED = [
    (DeviceProfile, "p_active_har_mw", 1e-10, "must be >= 1e-09"),
    (DeviceProfile, "sample_rate_hz", math.nan, "expected a finite number"),
    (DeviceProfile, "sample_rate_hz", 0.0, "must be >= 1e-09"),
    (DeviceProfile, "sram_bytes", 1.5, "expected an integer"),
    (TrainConfig, "seed", -1, "must be >= 0"),
    (TrainConfig, "split_fraction", 0.995, "must be <= 0.99"),
    (PipelineSettings, "window", 0, "must be >= 16"),
    (SyntheticSpec, "repeat", 0, "must be >= 1"),
    (SyntheticSpec, "schedule", (), "expected a non-empty list of [label, duration_ms] pairs"),
    (SyntheticSpec, "signals", {}, "synthetic model needs at least one label"),
    (
        SyntheticSpec,
        "signals",
        {ActivityLabel.Walk: _WALK_1HZ, ActivityLabel.Jump: _WALK_1HZ},
        "labels Walk and Jump share signal signature (1.0, 0.2, (0.0, 0.0, 1.0))",
    ),
    (
        SyntheticSpec,
        "signals",
        {ActivityLabel.Walk: _WALK_1HZ, ActivityLabel.Sit: _SIT_STRETCH},
        "stretch channel must be present for all labels or none",
    ),
    (LabelSignalModel, "noise_sigma", -1.0, "must be >= 0.0"),
    (RetryPolicy, "max_attempts", 0, "must be >= 1"),
    (ProtocolSettings, "key", b"abc", "must encode exactly 16 bytes"),
    (ChannelModel, "corruption_probability", 0.9995, "must be <= 0.999"),
    (ChannelModel, "latency_ms", (40, 10), "expected a nonnegative integer or [lo, hi] range"),
    (ChannelModel, "latency_ms", (0, 2**64), "must be <= 9223372036854775807"),
    (ChannelModel, "latency_ms", 2**63, "must be <= 9223372036854775807"),
    (EnergySettings, "reserve_fraction", 0.95, "must be <= 0.9"),
    (EnergySettings, "mppt_efficiency", math.nan, "expected a finite number"),
    (EnergySettings, "battery_initial_mwh", 50.0, "must not exceed battery_capacity_mwh"),
    (ScenarioSettings, "tx_bitrate_kbps", 0.0, "must be >= 1e-09"),
    (ScenarioSettings, "tx_bitrate_kbps", -250.0, "must be >= 1e-09"),
    (ScenarioSettings, "report_every_n_windows", 0, "must be >= 1"),
    (ScenarioSettings, "report_every_n_windows", 2.5, "expected an integer"),
    (ScenarioSettings, "energy_log_interval_ms", 0, "must be >= 1"),
    (ScenarioSettings, "duration_ms", -5, "must be >= 1"),
    (ScenarioSettings, "inference_latency_ms", -3, "must be >= 1"),
    (ScenarioSettings, "idle_timeout_ms", -1, "must be >= 0"),
    (ScenarioSettings, "alert_labels", ("Jmup",), "unknown label name 'Jmup'"),
    (ScenarioSettings, "use_duty_plan", 1, "expected true/false"),
]


# The fields without a default, for the classes that have some.
REQUIRED = {SyntheticSpec: {"app": "har", "signals": {}, "schedule": ((ActivityLabel.Walk, 1000),)}}


@pytest.mark.parametrize(
    "cls,name,value,reason", CONSTRUCTED, ids=[f"{c.__name__}.{n}" for c, n, _, _ in CONSTRUCTED]
)
def test_direct_construction_enforces_parser_ranges(cls, name, value, reason):
    with pytest.raises(FieldError) as exc:
        cls(**{**REQUIRED.get(cls, {}), name: value})
    assert (exc.value.field, exc.value.reason) == (name, reason)


# Direct construction stores the value the rule returns, as the parser does.
NORMALIZED = [
    (LabelSignalModel, "orientation", [0, 0, 1], (0.0, 0.0, 1.0)),
    (ChannelModel, "latency_ms", [5, 40], (5, 40)),
    (EnergySettings, "harvest_profile_mw", [1] * 24, (1.0,) * 24),
    (ScenarioSettings, "alert_labels", ["Jump"], ("Jump",)),
]


@pytest.mark.parametrize(
    "cls,name,value,want", NORMALIZED, ids=[f"{c.__name__}.{n}" for c, n, _, _ in NORMALIZED]
)
def test_direct_construction_stores_the_rule_value(cls, name, value, want):
    got = getattr(cls(**REQUIRED.get(cls, {}), **{name: value}), name)
    assert repr(got) == repr(want)  # the type of each element too


def test_signal_model_built_with_a_list_orientation_synthesizes():
    walk = LabelSignalModel(orientation=[0, 0, 1], freq_hz=1.0)
    spec = SyntheticSpec("har", {ActivityLabel.Walk: walk}, ((ActivityLabel.Walk, 1000),))  # hashes each signature
    assert (generate_synthetic(spec.signals, spec.full_schedule(), 100.0, 0).codes == ActivityLabel.Walk.value).all()


WALK_1S = ((ActivityLabel.Walk, 1000),)
# A device built in code: its fields beside device_id 1 and schedule WALK_1S, then the field and
# reason the parser reports.
DEVICE_CONSTRUCTED = {
    "id-above-65535": ({"device_id": 70000}, "device_id", "must be <= 65535"),
    "negative-id": ({"device_id": -1}, "device_id", "must be >= 0"),
    "unknown-app": ({"app": "ecg"}, "app", "must be one of ['gesture', 'har']"),
    "fractional-clock-offset": ({"clock_offset_ms": 0.5}, "clock_offset_ms", "expected an integer"),
    "gesture-label-in-har-schedule": (
        {"schedule": ((GestureLabel.Up, 1000),)}, "schedule[0]", "unknown label 'Up' for this application"
    ),
    "bool-block": (
        {"schedule": WALK_1S * 2 + ((ActivityLabel.Sit, True),)},
        "schedule[2]",
        "duration_ms must be a positive integer",
    ),
    "alert-before-0": ({"alert_schedule": ((-5, ActivityLabel.Walk),)}, "alert_schedule[0]", "t_ms must be >= 0"),
    "fractional-alert-time": (
        {"alert_schedule": ((0, ActivityLabel.Walk), (1.5, ActivityLabel.Walk))},
        "alert_schedule[1]",
        "expected [t_ms, label]",
    ),
    "har-label-in-gesture-alert": (
        {"app": "gesture", "schedule": ((GestureLabel.Up, 640),), "alert_schedule": ((0, ActivityLabel.Jump),)},
        "alert_schedule[0]",
        "unknown label 'Jump' for this application",
    ),
}


@pytest.mark.parametrize("kwargs,name,reason", DEVICE_CONSTRUCTED.values(), ids=DEVICE_CONSTRUCTED.keys())
def test_device_spec_construction_enforces_parser_rules(kwargs, name, reason):
    with pytest.raises(FieldError) as exc:
        DeviceSpec(**{"device_id": 1, "schedule": WALK_1S, **kwargs})
    assert (exc.value.field, exc.value.reason) == (name, reason)


_UP = LabelSignalModel(orientation=(0, 1, 0), freq_hz=1.0, amp_g=0.2)
# A synthetic spec built in code: its fields beside a har spec that models Walk for WALK_1S, then the
# field and reason. The parser refuses the same schedules, at synthetic_models.<app>.schedule.
SYNTHETIC_CONSTRUCTED = {
    "unknown-app": ({"app": "ecg"}, "app", "must be one of ['gesture', 'har']"),
    "zero-ms-block": (
        {"schedule": WALK_1S + ((ActivityLabel.Walk, 0),)}, "schedule[1]", "duration_ms must be a positive integer"
    ),
    "gesture-label-in-har-schedule": (
        {"schedule": WALK_1S + ((GestureLabel.Up, 1000),)}, "schedule[1]", "unknown label 'Up' for this application"
    ),
    "unmodeled-label": (
        {"schedule": WALK_1S + ((ActivityLabel.Sit, 1000), (ActivityLabel.Jump, 500))},
        "schedule",
        "labels without signal models: ['Jump', 'Sit']",
    ),
    "gesture-label-in-har-signals": (
        {"signals": {ActivityLabel.Walk: _WALK_1HZ, GestureLabel.Up: _UP}},
        "signals",
        "unknown label 'Up' for this application",
    ),
}


@pytest.mark.parametrize("kwargs,name,reason", SYNTHETIC_CONSTRUCTED.values(), ids=SYNTHETIC_CONSTRUCTED.keys())
def test_synthetic_spec_construction_enforces_parser_rules(kwargs, name, reason):
    with pytest.raises(FieldError) as exc:
        SyntheticSpec(**{"app": "har", "signals": {ActivityLabel.Walk: _WALK_1HZ}, "schedule": WALK_1S, **kwargs})
    assert (exc.value.field, exc.value.reason) == (name, reason)


def test_scenario_settings_refuse_two_devices_with_one_id():
    devices = (DeviceSpec(1, WALK_1S), DeviceSpec(2, WALK_1S), DeviceSpec(1, WALK_1S))
    with pytest.raises(FieldError) as exc:
        ScenarioSettings(devices=devices)
    assert (exc.value.field, exc.value.reason) == ("devices[2].id", "duplicate device id 1")


def test_reference_config_spells_out_every_rule_key():
    """The reference config lists every key of every section's rule table."""
    raw = reference_raw()
    synthetic = raw["synthetic_models"]
    device_keys = ["id" if key == "device_id" else key for key in DeviceSpec.RULES]
    protocol_keys = ["key_hex" if key == "key" else key for key in ProtocolSettings.RULES]
    synthetic_keys = [key for key in SyntheticSpec.RULES if key != "app"]  # the app is the section's key
    sections = [
        ("device_profile", raw["device_profile"], DeviceProfile.RULES),
        ("pipeline", raw["pipeline"], PipelineSettings.RULES),
        ("train", raw["train"], TrainConfig.RULES),
        ("energy", raw["energy"], EnergySettings.RULES),
        ("channel", raw["channel"], ChannelModel.RULES),
        ("protocol", raw["protocol"], protocol_keys),
        ("protocol.retry", raw["protocol"]["retry"], RetryPolicy.RULES),
        ("scenario", raw["scenario"], ScenarioSettings.RULES),
        *((f"scenario.devices[{i}]", d, device_keys) for i, d in enumerate(raw["scenario"]["devices"])),
        *((f"synthetic_models.{app}", synthetic[app], synthetic_keys) for app in APPS),
        *(
            (f"synthetic_models.{app}.labels.{name}", params, LabelSignalModel.RULES)
            for app in APPS
            for name, params in synthetic[app]["labels"].items()
        ),
    ]
    missing = {path: sorted(set(keys) - set(obj)) for path, obj, keys in sections if set(keys) - set(obj)}
    assert missing == {}


def _node_paths(obj, path=()):
    if path:
        yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _node_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _node_paths(value, path + (i,))


NODE_PATHS = list(_node_paths(reference_raw()))
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(10**400)]) | st.floats()
    | st.text(max_size=8)
)
JSON_VALUES = (
    JSON_LEAVES | st.lists(JSON_LEAVES, max_size=4) | st.dictionaries(st.text(max_size=8), JSON_LEAVES, max_size=3)
)


@settings(max_examples=300, deadline=None)
@given(
    path=st.sampled_from(NODE_PATHS),
    kind=st.sampled_from(["replace", "delete", "sibling"]),
    value=JSON_VALUES,
)
def test_single_node_mutations_parse_or_raise_config_error(path, kind, value):
    raw = reference_raw()
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "replace":
        parent[path[-1]] = value
    elif isinstance(parent, dict):
        parent["zz_unknown"] = value
    else:
        parent.append(value)
    try:
        parse_config(raw)
    except ConfigError:
        pass
