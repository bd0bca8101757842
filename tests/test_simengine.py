from __future__ import annotations

import gc
import hashlib
import heapq
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import Phase, given, note, seed as hypothesis_seed, settings, strategies as st

from openhealth import simengine
from openhealth.classifier import forward, load_model
from openhealth.cli import main
from openhealth.config import Config, ConfigError, DeviceSpec, load_config, parse_config
from openhealth.core import MAX_MS, ActivityLabel, FieldError
from openhealth.firmware import SLOT_MS, PowerState, account_energy, energy_piece, motion_detector, plan_duty_cycle
from openhealth.netproto import (
    CONFIDENCE_SCALE, OBSERVATION_HEADER, AppId, frame_nonce, peek_header, write_observation_log,
)
from openhealth.pipeline import extract_feature_matrix, normalize_features
from openhealth.simengine import (
    DAY_MS,
    TRACE_LINES,
    TRACE_VERSION,
    SimChannel,
    SimDevice,
    Simulator,
    TraceFormatError,
    VersionMismatch,
    replay,
    run_scenario,
    trace_metrics,
    trace_observations,
    trace_records,
    write_metrics,
    write_trace,
)

from conftest import classified_windows, one_line_a_window

REFERENCE = "configs/reference.json"


def small_raw(duration_ms=600_000, **scenario_overrides):
    with open(REFERENCE) as f:
        raw = json.load(f)
    raw["scenario"]["duration_ms"] = duration_ms
    raw["scenario"]["devices"] = [
        {
            "id": 1,
            "app": "har",
            "clock_offset_ms": 500,
            "schedule": [["Walk", 60000], ["Sit", 120000], ["Jump", 30000], ["LieDown", 120000]],
            "alert_schedule": [[200000, "Jump"]],
        }
    ]
    raw["scenario"]["report_every_n_windows"] = 1
    raw["scenario"]["use_duty_plan"] = False
    raw["scenario"].update(scenario_overrides)
    return raw


def small_config(**overrides):
    return parse_config(small_raw(**overrides))


@pytest.fixture(scope="module")
def small_trace():
    return run_scenario(small_config(), seed=11)


def test_same_seed_identical_traces(small_trace):
    again = run_scenario(small_config(), seed=11)
    assert small_trace.lines == again.lines
    assert small_trace.metrics == again.metrics


def test_different_seed_differs():
    raw = small_raw()
    raw["channel"]["latency_ms"] = [10, 50]
    a = run_scenario(parse_config(raw), seed=1)
    b = run_scenario(parse_config(raw), seed=2)
    assert a.lines != b.lines


def test_lossless_channel_no_rejections(small_trace):
    m = small_trace.metrics
    sent = m["devices"]["dev1"]["frames_sent"]
    host_received = m["host"]["frames_received"]
    acks = sum(1 for l in small_trace.lines if l.split("\t")[1] == "frame_tx" and l.split("\t")[2] == "host")
    assert m["host"]["frames_rejected"] == {}
    assert m["channel"]["lost"] == 0
    assert host_received == sent
    assert m["channel"]["transmitted"] == sent + acks


def test_event_causality_no_rx_before_tx(small_trace):
    assert replay(small_trace.lines).passed


def test_sync_exact_under_symmetric_latency(small_trace):
    # device clock leads the host by 500 ms; symmetric 20 ms link
    assert small_trace.metrics["devices"]["dev1"]["sync"]["offset_est_ms"] == -500.0


def test_sync_error_half_asymmetry_in_sim():
    # replies see 30 ms, requests 10 ms: estimate off by exactly 10 ms
    raw = small_raw(duration_ms=60_000)
    cfg = parse_config(raw)
    trace = run_scenario(cfg, seed=3)
    est = trace.metrics["devices"]["dev1"]["sync"]["offset_est_ms"]
    assert est == -500.0  # symmetric baseline for contrast

    # estimate_offset algebra is covered in netproto tests; here assert the
    # stored host correction tracks the device estimate
    obs_lines = [l for l in trace.lines if l.split("\t")[1] == "observation"]
    assert obs_lines, "scenario produced no observations"


def test_observation_timestamps_offset_corrected(small_trace):
    # device clock = sim + 500; estimated offset -500 puts observations back
    # on host time: corrected ts == classify-time sim clock
    obs = [l.split("\t") for l in small_trace.lines if l.split("\t")[1] == "observation"]
    assert obs
    for parts in obs:
        t_host = int(parts[0])
        corrected = int(parts[4])
        # corrected timestamp = tx-time sim clock; host stores it at tx + latency
        assert 0 <= t_host - corrected <= 100


def test_alert_delivered_first_attempt_zero_loss(small_trace):
    alerts = small_trace.metrics["devices"]["dev1"]["alerts"]
    assert alerts["sent"] == 1
    assert alerts["delivered"] == 1
    (latency,) = alerts["latency_ms"].values()
    assert latency == 40  # exactly 2x the fixed 20 ms channel latency


def test_alert_undelivered_after_exactly_max_attempts():
    raw = small_raw(duration_ms=120_000)
    raw["channel"]["loss_probability"] = 1.0
    raw["scenario"]["devices"][0]["alert_schedule"] = [[10_000, "Jump"]]
    raw["scenario"]["devices"][0]["schedule"] = [["LieDown", 120_000]]
    cfg = parse_config(raw)
    trace = run_scenario(cfg, seed=5)
    alerts = trace.metrics["devices"]["dev1"]["alerts"]
    assert alerts["undelivered"] == 1 and alerts["delivered"] == 0
    assert list(alerts["attempts"].values()) == [10]
    assert trace.metrics["host"]["frames_received"] == 0


def test_queued_alert_takes_its_seq_when_first_sent():
    # The second alert waits behind the first for all ten attempts, while
    # data frames go out every window; its frame must not number below theirs.
    raw = small_raw(duration_ms=120_000)
    raw["channel"]["loss_probability"] = 1.0
    device = raw["scenario"]["devices"][0]
    device["schedule"] = [["Walk", 120_000]]
    device["alert_schedule"] = [[10_000, "Jump"], [10_050, "Jump"]]
    trace = run_scenario(parse_config(raw), seed=5)
    report = replay(trace.lines)
    assert report.passed, report.failures
    assert trace.metrics["devices"]["dev1"]["alerts"]["undelivered"] == 2


def test_alert_attempts_reproducible_at_half_loss():
    raw = small_raw(duration_ms=120_000)
    raw["channel"]["loss_probability"] = 0.5
    raw["scenario"]["devices"][0]["alert_schedule"] = [[10_000, "Jump"]]
    cfg = parse_config(raw)
    a = run_scenario(cfg, seed=21)
    b = run_scenario(cfg, seed=21)
    assert a.metrics["devices"]["dev1"]["alerts"] == b.metrics["devices"]["dev1"]["alerts"]
    attempts = list(a.metrics["devices"]["dev1"]["alerts"]["attempts"].values())[0]
    assert 1 <= attempts <= 10


def test_corruption_rejected_not_stored():
    raw = small_raw(duration_ms=300_000)
    raw["channel"]["corruption_probability"] = 0.3
    cfg = parse_config(raw)
    trace = run_scenario(cfg, seed=9)
    m = trace.metrics
    assert m["channel"]["corrupted"] > 0
    # a flipped bit may land anywhere (tag, header, version); every corrupted
    # frame is rejected with some code, on whichever side received it
    rejects = sum(1 for l in trace.lines if l.split("\t")[1] == "frame_reject")
    assert rejects == m["channel"]["corrupted"]
    assert m["host"]["frames_rejected"].get("auth_failure", 0) > 0
    assert replay(trace.lines).passed


def test_nonce_uniqueness_across_trace(small_trace):
    seen: dict[bytes, str] = {}
    for line in small_trace.lines:
        parts = line.split("\t")
        if parts[1] != "frame_tx":
            continue
        frame = bytes.fromhex(parts[7])
        _, type_value, device_id, seq, _ = peek_header(frame)
        direction = 1 if parts[2] == "host" else 0
        nonce = frame_nonce(device_id, seq, direction)
        hexes = parts[7]
        if nonce in seen:
            assert seen[nonce] == hexes, "same nonce for different frame bytes"
        seen[nonce] = hexes
    assert len(seen) > 10


def test_battery_depletes_and_recovers():
    raw = small_raw(duration_ms=14_400_000)  # 4 h
    raw["energy"]["battery_capacity_mwh"] = 5.0
    raw["energy"]["battery_initial_mwh"] = 1.0
    # harvest only from hour 2 onward
    raw["energy"]["harvest_profile_mw"] = [0.0, 0.0] + [30.0] * 22
    raw["scenario"]["devices"][0]["schedule"] = [["Walk", 3_600_000], ["LieDown", 10_800_000]]
    raw["scenario"]["devices"][0]["alert_schedule"] = []
    cfg = parse_config(raw)
    trace = run_scenario(cfg, seed=4)
    kinds = [l.split("\t")[1] for l in trace.lines]
    assert "battery_depleted" in kinds
    assert "battery_recovered" in kinds
    assert replay(trace.lines).passed
    d = trace.metrics["devices"]["dev1"]
    assert d["battery_mwh"]["min"] == 0.0
    assert d["battery_mwh"]["end"] > 0.0



def test_simulator_reads_the_harvest_of_its_hour_slot():
    # 25.5 h: every slot once, then slot 0 again and half of slot 1.
    duration_ms = 25 * 3_600_000 + 1_800_000
    raw = small_raw(duration_ms=duration_ms)
    raw["energy"]["harvest_profile_mw"] = [float(slot + 1) for slot in range(24)]
    raw["energy"]["mppt_efficiency"] = 0.5
    raw["scenario"]["devices"][0]["schedule"] = [["LieDown", duration_ms]]
    raw["scenario"]["devices"][0]["alert_schedule"] = []
    trace = run_scenario(parse_config(raw), seed=3)
    harvested = trace.metrics["devices"]["dev1"]["energy_mwh"]["harvested"]
    assert harvested == pytest.approx(0.5 * (sum(range(1, 25)) + 1.0 + 2.0 * 0.5), abs=1e-6)

def test_duty_plan_limits_activity():
    raw = small_raw(duration_ms=7_200_000)  # 2 h of continuous walking
    raw["scenario"]["devices"][0]["schedule"] = [["Walk", 7_200_000]]
    raw["scenario"]["devices"][0]["alert_schedule"] = []
    raw["scenario"]["use_duty_plan"] = True
    raw["energy"]["battery_initial_mwh"] = 8.0  # exactly the 20% reserve
    raw["energy"]["harvest_profile_mw"] = [6.0] * 24
    cfg = parse_config(raw)
    gated = run_scenario(cfg, seed=6)
    raw["scenario"]["use_duty_plan"] = False
    free = run_scenario(parse_config(raw), seed=6)
    gated_windows = sum(gated.metrics["devices"]["dev1"]["classifications"].values())
    free_windows = sum(free.metrics["devices"]["dev1"]["classifications"].values())
    assert 0 < gated_windows < free_windows
    # per-slot harvest covers planned consumption: battery never dips below start
    d = gated.metrics["devices"]["dev1"]
    assert d["battery_mwh"]["min"] >= d["battery_mwh"]["start"] - 1e-6
    # Each hour slot's active ms, the difference of the hourly energy lines' non-sleep dwell, is within that
    # slot's budget on the duty_plan line, the plan's own in integer ms.
    rows = [line.split("\t") for line in gated.lines]
    budgets = [int(ms) for ms in next(parts[3] for parts in rows if parts[1] == "duty_plan").split(",")]
    assert budgets == [math.floor(f * SLOT_MS) for f in plan_duty_cycle(cfg.profile, "har", cfg.energy).fractions]
    active = {int(parts[0]): _active_ms(parts) for parts in rows if parts[1] == "energy"}
    for start in range(0, 7_200_000, SLOT_MS):
        assert active[start + SLOT_MS] - active[start] <= budgets[start // SLOT_MS]


def test_model_driven_classification(tmp_path):
    # train a tiny model on the reference corpus, then drive the sim with it
    from openhealth.classifier import init_model, save_model, train
    from openhealth.dataio import generate_synthetic
    from openhealth.pipeline import extract_feature_matrix, normalize_features, segment, windows_to_matrix

    cfg = load_config(REFERENCE)
    spec = cfg.synthetic["har"]
    rec = generate_synthetic(spec.signals, spec.full_schedule()[:12], 100.0, 3)
    starts, codes = segment(rec, 128, 0.5)
    labeled = codes >= 0
    feats = extract_feature_matrix(windows_to_matrix(rec, starts[labeled], 128))
    labels = codes[labeled]
    x, stats = normalize_features(feats)
    model = init_model((feats.shape[1], 16, 7), seed=0)
    model.stats = stats
    trained, _ = train(model, x, labels)
    model_path = tmp_path / "har.ohm"
    save_model(trained, model_path)

    raw = small_raw(duration_ms=120_000)
    raw["scenario"]["model_path"] = str(model_path)
    trace = run_scenario(parse_config(raw), seed=2)
    classifications = trace.metrics["devices"]["dev1"]["classifications"]
    assert classifications.get("Walk", 0) > 0


def test_gesture_app_scenario():
    raw = small_raw(duration_ms=120_000)
    raw["scenario"]["devices"] = [
        {"id": 3, "app": "gesture", "clock_offset_ms": 0,
         "schedule": [["Up", 30000], ["Down", 30000], ["Left", 30000], ["Right", 30000]],
         "alert_schedule": []},
    ]
    trace = run_scenario(parse_config(raw), seed=14)
    classifications = trace.metrics["devices"]["dev3"]["classifications"]
    assert set(classifications) <= {"Up", "Down", "Left", "Right"}
    assert sum(classifications.values()) > 0
    assert replay(trace.lines).passed


def test_oracle_names_top_label_for_gesture_window_without_majority():
    from openhealth.core import GestureLabel
    from openhealth.pipeline import majority_label
    from openhealth.simengine import SimChannel, SimDevice

    raw = small_raw(duration_ms=60_000)
    raw["scenario"]["devices"] = [
        {"id": 3, "app": "gesture", "clock_offset_ms": 0,
         "schedule": [["Down", 640], ["Up", 640]], "alert_schedule": []},
    ]
    config = parse_config(raw)
    sim = Simulator(seed=0, out=io.StringIO())
    device = SimDevice(sim, config.scenario.devices[0], config, SimChannel(sim, config.channel, 3), None)
    (matrix,), counts = device._window_samples([0])  # 64 Down samples, then 64 Up
    assert matrix.shape[0] == 128
    assert counts == [64, 64, 0, 0, 0]  # per code (Up, Down, Left, Right), unlabeled last
    # No 75% majority: training and evaluation drop such a window ...
    assert majority_label(counts, GestureLabel) is None
    # ... but the oracle must name one: the top count, the lowest code on ties.
    assert device._oracle(counts) == (GestureLabel.Up.value, 0.5)


@pytest.mark.parametrize("type_byte", [0x83, 0x06], ids=["flipped-bit", "six"])
def test_host_rejects_unassigned_frame_type_without_raising(type_byte):
    from openhealth.netproto import FrameType, HostGateway, encode_frame
    from openhealth.simengine import SimChannel, SimDevice, SimHost

    config = small_config()
    key = config.protocol.key
    sim = Simulator(seed=0, out=io.StringIO())
    sim.emit("trace_version", "sim", TRACE_VERSION)
    gateway = HostGateway({1: key})
    channel = SimChannel(sim, config.channel, 1)
    host = SimHost(sim, gateway, channel, SimDevice(sim, config.scenario.devices[0], config, channel, None))
    frame = bytearray(encode_frame(FrameType.DATA, 1, 1, b"\x00" * 12, key))
    frame[1] = type_byte  # DATA's 0x03 with a flipped bit, or 6: no FrameType has this value
    result = gateway.step(sim.now, bytes(frame))
    assert (result.device_id, result.reject, result.frame, result.ack) == (1, "auth_failure", None, None)
    host.receive(bytes(frame))
    lines = sim.out.getvalue().splitlines()
    assert lines[1].split("\t")[1:5] == ["frame_reject", "host", "1", "auth_failure"]
    assert len(lines) == 2
    assert replay(lines).passed


@pytest.mark.parametrize("acked", ["sync", "alert_delivered"])
def test_device_rejects_a_replayed_ack(acked):
    """A host ACK heard twice acts once: the second is a replay, logged and dropped."""
    from openhealth.netproto import FrameType, encode_frame, pack_ack, pack_sync_reply

    device = _window_device([["Walk", 60_000]], 60_000)
    device._start_sync(attempt=1)  # seq 1
    device._trigger_alert(ActivityLabel.Jump.value)  # seq 2
    acked_seq, data = (1, pack_sync_reply(0, 0, 0)) if acked == "sync" else (2, b"")
    ack = encode_frame(FrameType.ACK, 1, 1, pack_ack(acked_seq, data), device.key)
    device.receive(ack)
    heard_once = len(device.sim.out.getvalue().splitlines())
    device.receive(ack)
    lines = device.sim.out.getvalue().splitlines()
    assert [line.split("\t")[1:] for line in lines[heard_once:]] == [["frame_reject", "dev1", "1", "replay"]]
    kinds = Counter(line.split("\t")[1] for line in lines)
    assert (kinds["frame_rx"], kinds[acked]) == (1, 1)


def _window_device(schedule, duration_ms, rate_hz=100, seed=5, device_id=1, model=None, labels=None, app="har"):
    from openhealth.simengine import SimChannel, SimDevice

    raw = small_raw(duration_ms=duration_ms)
    raw["synthetic_models"][app]["labels"].update(labels or {})
    raw["device_profile"]["sample_rate_hz"] = rate_hz
    raw["scenario"]["devices"][0].update(id=device_id, app=app, schedule=schedule, alert_schedule=[])
    config = parse_config(raw)
    sim = Simulator(seed=seed, out=io.StringIO())
    channel = SimChannel(sim, config.channel, device_id)
    return SimDevice(sim, config.scenario.devices[0], config, channel, model)


def test_a_still_wake_probe_is_labelled_only_when_its_label_is_read(trained_model_path, monkeypatch):
    """A wake's probe reads the window's motion flag alone, so a model device
    leaves a lone still window unclassified; a labelled read of it later
    classifies it then, to the same label and confidence."""
    device = _window_device([["LieDown", 60_000]], 60_000, model=load_model(trained_model_path))
    classified = []
    real_classify = SimDevice._classify
    monkeypatch.setattr(
        SimDevice, "_classify", lambda self, matrix: classified.append(len(matrix)) or real_classify(self, matrix)
    )
    assert _looked_up(device, 0, labelled=False) == (False, (-1, 0))
    assert classified == []
    moving, label = _looked_up(device, 0)
    assert (moving, classified) == (False, [1])
    assert label == _fixed_point(real_classify(device, device._window_samples([0])[0])[0])
    assert _looked_up(device, 0) == (False, label) and classified == [1]


def _scalar_block_runs(device, start_ms):
    """The per-sample scan that _block_runs replaces, kept as its reference."""
    t_ms = start_ms + np.arange(device.window) * device.period_ms
    runs, i = [], 0
    while i < device.window:
        block = [b for b in device.blocks if b[0] <= int(t_ms[i])][-1]
        j = i
        while j < device.window and int(t_ms[j]) < block[1]:
            j += 1
        j = max(j, i + 1)
        runs.append((i, j, block[2]))
        i = j
    return runs


@pytest.mark.parametrize("rate_hz", [100, 30])  # 30 Hz: a non-integer sample period
def test_block_runs_and_counts_match_scalar_scan(rate_hz):
    schedule = [["Walk", 1_000], ["Sit", 2_500], ["Jump", 700], ["Walk", 3_000], ["LieDown", 2_800]]
    device = _window_device(schedule, 15_000, rate_hz)
    straddled = {"boundary": 0, "end": 0}
    for start_ms in range(0, 15_000 - device.window_ms, 97):  # each window ends before the scenario end
        t_ms = start_ms + np.arange(device.window) * device.period_ms
        expected = _scalar_block_runs(device, start_ms)
        assert device._block_runs(t_ms) == expected, start_ms
        counts = [0] * (len(device.label_set) + 1)
        for i, j, label in expected:
            counts[label.value] += j - i
        assert device._window_samples([start_ms], columns=3)[1] == counts
        straddled["boundary"] += len({label for _, _, label in expected}) > 1
        straddled["end"] += t_ms[-1] >= device.blocks[-1][0]  # in the last block, which the scenario end cuts
    assert straddled["boundary"] > 10 and straddled["end"] > 5


# (window start, block runs): single-run windows, one spanning three blocks,
# and one whose window ends at the scenario end.
@pytest.mark.parametrize("start_ms, n_runs", [(0, 1), (5_000, 1), (9_900, 3), (18_720, 1)])
def test_accel_only_window_matches_full_synthesis(start_ms, n_runs):
    device = _window_device([["Walk", 10_000], ["Jump", 500], ["Sit", 9_500]], 20_000)
    assert len(device._block_runs(start_ms + device.sample_offsets_ms)) == n_runs
    (full,), full_counts = device._window_samples([start_ms])
    (accel,), counts = device._window_samples([start_ms], columns=3)
    assert full.shape == (128, 7) and accel.shape == (128, 3)
    assert accel.tobytes() == np.ascontiguousarray(full[:, :3]).tobytes()
    assert counts == full_counts


NOISE_SCHEDULE = [["Walk", 10_000], ["Jump", 500], ["Sit", 9_500]]
_starts = st.integers(0, 20_000 - 1_280)  # windows that end before the scenario end


@pytest.fixture(scope="module")
def noise_device():
    """Shared by every example, so each finds its stream where the last left it."""
    return _window_device(NOISE_SCHEDULE, 20_000)


@hypothesis_seed(20261018)
@settings(max_examples=40, deadline=None)
@given(start_ms=_starts, others=st.lists(_starts, max_size=4), probe=_starts, data=st.data())
def test_window_samples_depend_only_on_seed_device_and_start(noise_device, start_ms, others, probe, data):
    # Windows of one block and of three alike.
    device = noise_device
    drawn_first = _window_device(NOISE_SCHEDULE, 20_000)._window_samples([start_ms])[0].tobytes()
    seen = {}
    for order in (others, data.draw(st.permutations(others))):
        for other in order:
            samples = device._window_samples([other])[0].tobytes()
            assert seen.setdefault(other, samples) == samples
        assert device._window_samples([start_ms])[0].tobytes() == drawn_first
    device._window_samples([probe], columns=3)  # stops part-way through the stream
    assert device._window_samples([start_ms])[0].tobytes() == drawn_first
    for other_seed, other_device in ((6, 1), (5, 2)):
        other = _window_device(NOISE_SCHEDULE, 20_000, seed=other_seed, device_id=other_device)
        assert other._window_samples([start_ms])[0].tobytes() != drawn_first


def test_seed_beyond_64_bits_runs_reproducibly():
    first = run_scenario(small_config(), seed=2**70)
    assert first.lines == run_scenario(small_config(), seed=2**70).lines
    assert replay(first.lines).passed
    assert first.lines[1].split("\t")[5] == str(2**70)
    # A key cut to 64 bits would give seed 0's noise (2**70 mod 2**64).
    wide, zero = (_window_device(NOISE_SCHEDULE, 20_000, seed=s)._window_samples([0])[0] for s in (2**70, 0))
    assert wide.tobytes() != zero.tobytes()


def test_run_seeds_one_generator_per_entity(monkeypatch):
    # Seeding a generator per window cost more than the window's draws.
    seeded = Counter()

    def counted(real):
        def seed(*args, **kwargs):
            seeded[real.__name__] += 1
            return real(*args, **kwargs)
        return seed

    for name in ("SeedSequence", "default_rng"):
        monkeypatch.setattr(np.random, name, counted(getattr(np.random, name)))
    raw = small_raw(duration_ms=120_000)
    raw["scenario"]["devices"].append(dict(raw["scenario"]["devices"][0], id=2, alert_schedule=[]))
    _on_cpus(monkeypatch, 1)  # every shard seeds in this process, where the counter sees it
    trace = run_scenario(parse_config(raw), seed=3)
    assert len(classified_windows(trace.lines)) > 50
    assert sum(seeded.values()) <= 4, seeded  # each of the two devices' noise and channel streams


def _window_drawn_alone(device, start_ms, columns):
    """The per-window rule that windows synthesized ahead must reproduce: a
    fresh Philox at counter (0, start, 0, 0), then Generator.normal draws run
    by run and channel group by channel group, each clipped after its noise."""
    from openhealth.dataio import _GYRO_AXIS_WEIGHTS, _GYRO_NOISE_SCALE

    key = np.random.SeedSequence([device.sim.seed, device.spec.device_id]).generate_state(2, np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key, counter=[0, start_ms, 0, 0]))
    t_ms = start_ms + device.sample_offsets_ms
    t_s = t_ms / 1000.0
    runs = device._block_runs(t_ms)
    matrix = np.empty((device.window, device.channels))
    for k, (i, j, label) in enumerate(runs):
        sig = device.signals[label]
        orient, omega, swing_amp = sig.waveform
        phase = omega * t_s[i:j]
        groups = [
            (orient * (1.0 + sig.amp_g * np.sin(phase))[:, None], sig.noise_sigma, -16.0, 16.0),
            ((swing_amp * np.cos(phase))[:, None] * _GYRO_AXIS_WEIGHTS, _GYRO_NOISE_SCALE * sig.noise_sigma, -2000.0, 2000.0),
        ]
        if sig.stretch_base is not None:
            stretch = sig.stretch_base + sig.stretch_amp * np.sin(phase + np.pi / 4)
            groups.append((stretch[:, None], sig.noise_sigma / 2.0, 0.0, 1.0))
        width = columns if k == len(runs) - 1 else device.channels
        for column, (clean, sigma, lo, hi) in zip(range(0, width, 3), groups):
            noisy = clean + rng.normal(0.0, sigma, clean.shape)
            matrix[i:j, column : column + clean.shape[1]] = np.clip(noisy, lo, hi)
    return matrix[:, :columns]


def _looked_up(device, start_ms, labelled=True):
    """The motion flag and (label code, fixed-point confidence) of the window at start_ms, which
    _window finds or synthesizes in the look-ahead batch."""
    i = device._window(start_ms, labelled)
    return bool(device.ahead_moving[i]), device.ahead_labels[i]


def _fixed_point(label):
    """(code, confidence) with the confidence rounded to CONFIDENCE_SCALE, as payloads carry it."""
    code, confidence = label
    return code, min(CONFIDENCE_SCALE, round(confidence * CONFIDENCE_SCALE))


def _classified_alone(device, samples):
    """The per-window rule that a batch classified at once must reproduce:
    the one window alone through features, normalization and forward."""
    normed, _ = normalize_features(extract_feature_matrix(samples[None, :, :]), device.model.stats)
    probs = forward(device.model, normed)[0]
    idx = int(np.argmax(probs))
    return idx, float(probs[idx])


AHEAD_SCHEDULE = [["Walk", 30_000], ["Jump", 700], ["Sit", 19_300]]
# A Walk that swings past every sensor bound, so that clipping shows in the samples.
FULL_SCALE_WALK = {
    "Walk": {"orientation": [0.0, 0.0, 1.0], "freq_hz": 2.0, "amp_g": 16.0,
             "noise_sigma": 0.5, "stretch_base": 0.9, "stretch_amp": 0.3},
}


@hypothesis_seed(20261019)
@settings(max_examples=30, deadline=None)
@given(
    rate_hz=st.sampled_from([100, 30]),  # 30 Hz: a non-integer sample period
    use_model=st.booleans(),
    origin=st.integers(0, 50_000),
    steps=st.integers(1, 12),
    wrong_ms=st.integers(1, 900),
    data=st.data(),
)
def test_windows_synthesized_ahead_equal_the_window_drawn_alone(
    trained_model_path, rate_hz, use_model, origin, steps, wrong_ms, data
):
    # Along the predicted grid the batches grow; an off-grid start is a miss
    # after a wrong prediction. The first fixed starts span three blocks, span
    # the schedule's repeat, and end at the scenario end; every start ends
    # before it. The last three are predicted in a row, and at 100 Hz the
    # third's last sample falls on the Walk block's end, 30,000 ms, which Jump
    # holds: the batch that the second grows must stop before it.
    model = load_model(trained_model_path) if use_model else None
    device = _window_device(AHEAD_SCHEDULE, 200_000, rate_hz, model=model, labels=FULL_SCALE_WALK)
    cycle = device.cycle_ms
    grid = [origin + k * cycle for k in range(steps)]
    off_grid = grid[-1] + cycle + wrong_ms
    on_end = 30_000 - round(device.sample_offsets_ms[-1])
    fixed = [29_900, 49_400, 200_000 - device.window_ms, on_end - 2 * cycle, on_end - cycle, on_end]
    requests = grid + [off_grid + k * cycle for k in range(steps)] + fixed
    columns = device.channels if use_model else 3
    expected = {start: _window_drawn_alone(device, start, columns) for start in requests}
    # The samples each start was last synthesized with: those its cached entry was labelled from.
    drawn, real = {}, device._window_samples

    def recorded(starts, columns=None, samples=None):
        matrix, counts = real(starts, columns, samples)
        drawn.update(zip(starts, matrix))
        return matrix, counts

    device._window_samples = recorded
    for order in (requests, data.draw(st.permutations(requests))):
        for start in order:
            moving, labelled = _looked_up(device, start)
            alone = expected[start]
            # The whole window, or, on the oracle, a prefix that alone shows motion.
            assert drawn[start].tobytes() == alone[: len(drawn[start])].tobytes(), start
            assert len(drawn[start]) == device.window or (not use_model and motion_detector(drawn[start])), start
            assert moving == motion_detector(alone), start
            if use_model:
                assert labelled == _fixed_point(_classified_alone(device, alone)), start
            else:
                assert labelled == _fixed_point(device._oracle(real([start], columns)[1])), start
    # A batch holds only windows of one block, each drawn from its own reset.
    inside = [start for start in grid if start + device.sample_offsets_ms[-1] < 30_000]
    if len(inside) > 1:
        batch, _ = real(inside, columns)
        for start, samples in zip(inside, batch):
            assert samples.tobytes() == expected[start].tobytes(), start


@pytest.mark.parametrize("use_model", [False, True], ids=["oracle", "model"])
def test_each_window_start_is_synthesized_once(monkeypatch, trained_model_path, use_model):
    """A wake's probe window is its first window: no start is drawn twice on
    one path, whole or as the oracle's prefix. A model device featurizes each
    batch in one call as it draws it, so no window is featurized twice either."""
    from openhealth import simengine
    from openhealth.simengine import SimDevice

    drawn, batches, featurized = Counter(), [], []
    real = SimDevice._window_samples
    real_features = simengine.extract_feature_matrix

    def counted(self, starts, columns=None, samples=None):
        drawn.update((self.name, start, samples) for start in starts)
        batches.append(len(starts))
        return real(self, starts, columns, samples)

    def counted_features(windows):
        featurized.append(len(windows))
        return real_features(windows)

    monkeypatch.setattr(SimDevice, "_window_samples", counted)
    monkeypatch.setattr(simengine, "extract_feature_matrix", counted_features)
    raw = small_raw()
    if use_model:
        raw["scenario"]["model_path"] = str(trained_model_path)
    trace = run_scenario(parse_config(raw), seed=11)
    classified = len(classified_windows(trace.lines))
    assert classified > 50
    assert max(drawn.values()) == 1
    assert max(batches) > 1  # windows were synthesized ahead
    starts = {(name, start) for name, start, _ in drawn}
    assert classified <= len(starts) < 1.25 * classified
    prefixed = sum(samples == simengine.PREFIX for _, _, samples in drawn)
    assert featurized == (batches if use_model else [])
    redrawn = len(drawn) - len(starts)  # the oracle's undecided windows, drawn whole after their prefix
    assert (prefixed, redrawn) == (0, 0) if use_model else 0 < redrawn < prefixed / 4


def _count_batches(monkeypatch, raw):
    """Run raw with seed 11; returns the trace, the size of each batch that a
    window miss passed to _window_samples (drawn whole, or each window's prefix
    on the oracle) and the size of each batch of a prefix's undecided windows,
    drawn whole after it."""
    from openhealth.simengine import PREFIX, SimDevice

    batches, undecided, prefixed = [], [], {}
    real = SimDevice._window_samples

    def counted(self, starts, columns=None, samples=None):
        if samples is None and set(starts) <= prefixed.get(self.name, set()):
            undecided.append(len(starts))
        else:
            batches.append(len(starts))
        prefixed[self.name] = set(starts) if samples == PREFIX else set()
        return real(self, starts, columns, samples)

    monkeypatch.setattr(SimDevice, "_window_samples", counted)
    return run_scenario(parse_config(raw), seed=11), batches, undecided


def _motion_raw(**scenario_overrides):
    """Two minutes of unbroken motion."""
    raw = small_raw(duration_ms=120_000, **scenario_overrides)
    raw["scenario"]["devices"][0]["schedule"] = [["Walk", 60_000], ["Jump", 30_000]]
    return raw


# Unbroken motion, and the still blocks of small_raw, where a wake ends within idle_timeout_ms.
@pytest.mark.parametrize("make_raw", [_motion_raw, small_raw], ids=["motion", "blocks"])
def test_next_window_start_is_predicted_exactly(monkeypatch, make_raw):
    """Only a reporting window's cycle sends a data frame, and a batch predicts
    no start past its own block; the look-ahead must follow both, so every
    window synthesized is classified. At 2 kbps a data frame is on the air
    ~150 ms, so a cycle that reports is that much longer."""
    trace, batches, undecided = _count_batches(monkeypatch, make_raw(tx_bitrate_kbps=2, report_every_n_windows=3))
    classified = len(classified_windows(trace.lines))
    assert classified > 50 and max(batches) > 1
    assert sum(batches) == classified
    # Unbroken motion shows in every prefix; the still blocks' windows are drawn whole too.
    assert bool(undecided) == (make_raw is small_raw)


def test_oracle_labels_each_batch_once(monkeypatch):
    from openhealth import simengine

    calls = []
    real = simengine.majority_label

    def counted(counts, label_set):
        calls.append(counts)
        return real(counts, label_set)

    monkeypatch.setattr(simengine, "majority_label", counted)
    trace, batches, _ = _count_batches(monkeypatch, _motion_raw())
    assert max(batches) > 1
    assert len(calls) == len(batches) < len(classified_windows(trace.lines))


# Moving and still labels of both apps; the scenario ends at 10 s. A still pose
# with noise_sigma 0.02 (har's Sit, gesture's Up) crosses the 0.05 g motion
# threshold in most whole windows but in few 4-sample prefixes.
ORACLE_SCHEDULES = {
    "har": [["Walk", 3_000], ["Sit", 2_000], ["Jump", 700], ["LieDown", 1_300], ["Drive", 2_000]],
    "gesture": [["Up", 2_000], ["Left", 1_500], ["Down", 700], ["Right", 1_800], ["Up", 4_000]],
}
NOISY_STILL = {
    "har": {"Sit": {"orientation": [0.35, 0.1, 0.93], "freq_hz": 0.0, "amp_g": 0.0, "noise_sigma": 0.02,
                    "stretch_base": 0.72, "stretch_amp": 0.0}},
    "gesture": {"Up": {"orientation": [0.0, 0.3, 0.95], "freq_hz": 0.0, "amp_g": 0.0, "noise_sigma": 0.02,
                       "stretch_base": None, "stretch_amp": 0.0}},
}


@hypothesis_seed(20261020)
@settings(max_examples=30, deadline=None)
@given(
    app=st.sampled_from(["har", "gesture"]),
    rate_hz=st.sampled_from([100, 30, 2_000, 10]),  # 2 kHz: a 64 ms window; 10 Hz: 12.8 s, longer than every block
    origin=st.integers(0, 10_000),
    steps=st.integers(1, 12),
    data=st.data(),
)
def test_an_oracle_flag_is_motion_anywhere_in_the_whole_window(app, rate_hz, origin, steps, data):
    """Along the predicted grid (batches of prefixes), across block ends and at
    the scenario end, the flag is motion_detector's over the whole window drawn
    alone, and a one-block window's prefix is its first PREFIX samples. Every
    window ends before the scenario end."""
    from openhealth.simengine import PREFIX

    schedule, end = ORACLE_SCHEDULES[app], 200_000
    device = _window_device(schedule, end, rate_hz, labels=NOISY_STILL[app], app=app)
    block_ends = np.cumsum([ms for _, ms in schedule]).tolist()
    spanning = st.builds(lambda end, back: max(0, end - back), st.sampled_from(block_ends), st.integers(1, device.window_ms))
    requests = [origin + k * device.cycle_ms for k in range(steps)]
    at_end = st.integers(end - device.window_ms - 1_500, end - device.window_ms - 1)
    requests += data.draw(st.lists(spanning, max_size=4)) + data.draw(st.lists(at_end, max_size=3))
    for start in data.draw(st.permutations(requests)) if data.draw(st.booleans()) else requests:
        moving, _ = _looked_up(device, start)
        alone = _window_drawn_alone(device, start, 3)
        assert moving == motion_detector(alone), start
        if len(device._block_runs(start + device.sample_offsets_ms)) == 1:
            assert device._window_samples([start], 3, PREFIX)[0][0].tobytes() == alone[:PREFIX].tobytes(), start


def test_advance_to_runs_each_entry_due_first_in_place_at_its_own_time():
    """advance_to(t) moves the clock as an entry queued now for t would run: each queued entry
    that would run first, one due at t among them, runs in place at its own time; one queued
    later for t runs after it."""
    sim, ran = Simulator(seed=0, out=io.StringIO()), []

    def first():
        ran.append(("first", sim.now))
        sim.advance_to(200)
        assert sim.now == 200
        assert ran == [("first", 100), ("second", 150), ("queued before", 200)]

    def second():
        ran.append(("second", sim.now))
        # Queued after the entry for 200 that first's advance_to stands for.
        sim.schedule(200, lambda: ran.append(("queued later", sim.now)))

    sim.schedule(100, first)
    sim.schedule(150, second)
    sim.schedule(200, lambda: ran.append(("queued before", sim.now)))
    sim.run(1_000)
    assert ran[3:] == [("queued later", 200)]


def _queued_only():
    """A patch under which every dwell end is a queued entry: the run that the cycle loop's bytes are
    compared with. A stretch then ends where it starts, at last_account_ms, which is the clock at the
    loop's start: every dwell of the loop ends at or past stretch_stop, so the loop queues its end
    through the same path that queues a dwell's end past a real stretch. The tests and
    tools/fuzz_sweep.py all take the hook from here."""
    return patch.object(SimDevice, "_stretch_end", lambda self, t: t)


BOUNDARY_CYCLE_MS = 1_437  # a reference cycle that reports at 2 kbps: 1,280 + 5 + 152 ms on the air


@pytest.mark.parametrize("slack", [0, -1])
def test_a_cycle_that_ends_at_the_scenario_end_runs_in_place_and_one_past_it_sleeps(monkeypatch, slack):
    """Budget: ~0.02 s of tier-1 per case (0.01-0.02 s on a 2-vCPU host), measured after the last
    edit. Unbroken walk, a report every window at 2 kbps: every cycle sends a data frame whose receipt
    falls due 20 ms into its 152 ms transmit dwell, so each such dwell's end is an advance_to target.
    The scenario ends 20 cycles plus slack ms after the first wake, so the 20th cycle begins with
    _slack_ms equal to slack. At 0 it runs, and its transmit dwell moves the clock in place to the
    scenario's end exactly; at -1 the device sleeps at its start instead. No target passes the end,
    and the trace is its queued-only twin's: the kernel needs no bound of its own on the run's end."""
    raw = small_raw(duration_ms=20 * BOUNDARY_CYCLE_MS + slack, tx_bitrate_kbps=2)
    raw["scenario"]["devices"][0].update(schedule=[["Walk", 600_000]], alert_schedule=[])
    targets, advance_to = [], Simulator.advance_to
    monkeypatch.setattr(Simulator, "advance_to", lambda self, t_ms: targets.append(t_ms) or advance_to(self, t_ms))
    lines = run_scenario(parse_config(raw), 11).lines
    assert next(line for line in lines if "\tdevice_init\t" in line).endswith(f"\t{BOUNDARY_CYCLE_MS}")
    last = 20 * BOUNDARY_CYCLE_MS if slack == 0 else 19 * BOUNDARY_CYCLE_MS  # the last cycle's end
    run = [line.split("\t") for line in lines if "\tclassify_run\t" in line]
    assert (len(classified_windows(lines)), max(targets), run[-1][0]) == (last // BOUNDARY_CYCLE_MS, last, str(last))
    with _queued_only():
        assert run_scenario(parse_config(raw), 11).lines == lines


def test_a_run_of_cycles_stops_before_an_entry_due_at_its_dwell_end(monkeypatch):
    """An alert due when a window's dwell ends was queued first, so it is sent
    before that window is classified, as on the queued path. The window is
    mid-run: no frame of the run's last report is still on its way."""
    raw = _motion_raw(report_every_n_windows=15)
    raw["scenario"]["devices"][0]["alert_schedule"] = []
    classified = classified_windows(run_scenario(parse_config(raw), 11).lines)
    due_ms = next(t_ms for t_ms, _, index, _, _ in classified if index % 15 == 7 and t_ms > 30_000)
    raw["scenario"]["devices"][0]["alert_schedule"] = [[due_ms, "Jump"]]
    # (t_ms, kind) of each line emitted and each window classified, in call order: a run's line comes later.
    logged, emit, classify = [], Simulator.emit, Simulator.classify
    monkeypatch.setattr(Simulator, "emit", lambda self, kind, *a: logged.append((self.now, kind)) or emit(self, kind, *a))
    monkeypatch.setattr(Simulator, "classify", lambda self, t, *a: logged.append((t, "window")) or classify(self, t, *a))
    lines = run_scenario(parse_config(raw), 11).lines
    at_due = [kind for t_ms, kind in logged if t_ms == due_ms]
    assert at_due[0] == "alert_sent" and "window" in at_due
    with _queued_only():
        assert run_scenario(parse_config(raw), 11).lines == lines


def _quiet_runs(monkeypatch):
    """Record each run of the cycle loop (SimDevice._run_cycles) as (start ms, end ms, windows it
    took past their Processing end, whether the wake went on)."""
    runs = []
    real = SimDevice._run_cycles

    def recorded(self, entered=None):
        start, first = self.sim.now, self.window_index
        real(self, entered)
        runs.append((start, self.sim.now, self.window_index - first, self.state is not PowerState.Sleep))

    monkeypatch.setattr(SimDevice, "_run_cycles", recorded)
    return runs


def _quiet_lines(monkeypatch, raw, seed=11):
    """The trace lines of raw and its runs of the cycle loop (_quiet_runs), which took at
    least one window; the same lines as with every dwell end queued."""
    runs = _quiet_runs(monkeypatch)
    lines = run_scenario(parse_config(raw), seed).lines
    runs = list(runs)  # not those of the queued run
    assert sum(taken for _, _, taken, _ in runs) > 0
    with _queued_only():
        assert run_scenario(parse_config(raw), seed).lines == lines
    return lines, runs


QUIET_MS = 1_286  # a reference quiet cycle: a 1,280 ms window, 5 ms of inference and 1 ms on the air


def test_a_battery_that_empties_mid_run_ends_it_as_the_queued_path_does(monkeypatch):
    """Unbroken motion on 0.01 mWh and no harvest: each stretch of the cycle loop
    ends where the highest state power would have drawn half the battery, so the
    run before the dwell that empties it stops short of that dwell, which is a
    queued entry, booked alone at its own end. No window past it is looked up."""
    raw = _motion_raw(report_every_n_windows=15)
    raw["scenario"]["devices"][0]["alert_schedule"] = []
    raw["energy"].update(battery_initial_mwh=0.01, harvest_profile_mw=[0.0] * 24)
    queued, looked_up = [], []
    schedule, window = Simulator.schedule, SimDevice._window
    monkeypatch.setattr(Simulator, "schedule", lambda self, t_ms, fn: queued.append(t_ms) or schedule(self, t_ms, fn))
    monkeypatch.setattr(SimDevice, "_window", lambda self, *args, **kw: looked_up.append(args) or window(self, *args, **kw))
    runs = _quiet_runs(monkeypatch)
    lines = run_scenario(parse_config(raw), 11).lines
    kinds = [line.split("\t")[1] for line in lines]
    depleted_ms = int(lines[kinds.index("battery_depleted")].split("\t")[0])
    assert len(classified_windows(lines)) == 2 and not classified_windows(lines[kinds.index("battery_depleted"):])
    assert (depleted_ms - QUIET_MS, depleted_ms - 1_280, 1, True) in runs and depleted_ms in queued
    assert (depleted_ms, depleted_ms, 0, False) in runs
    assert len(looked_up) <= 3
    with _queued_only():
        assert run_scenario(parse_config(raw), 11).lines == lines


def test_an_alert_burst_bounds_the_stretch_after_it(monkeypatch):
    """A 15 mW radio at 0.0553 kbps: the alert of the first Jump window, sent at
    its Processing end at 11,285 ms, is 5.5 s on the air and leaves less than the
    next Sampling dwell draws. The stretch after it is bounded by what the burst
    left, so that dwell is a queued entry and empties the battery at its own end."""
    raw = small_raw(duration_ms=60_000, alert_labels=["Jump"], report_every_n_windows=1_000, tx_bitrate_kbps=0.0553)
    raw["channel"]["loss_probability"] = 1.0
    raw["protocol"].update(sync_timeout_ms=100_000)  # no sync retry burst in the run
    raw["protocol"]["retry"]["interval_ms"] = 50_000  # and no alert retry before the battery empties
    raw["device_profile"]["p_tx_mw"] = 15.0
    raw["energy"].update(battery_initial_mwh=0.0676, harvest_profile_mw=[0.0] * 24)
    raw["scenario"]["devices"][0].update(schedule=[["Sit", 10_000], ["Jump", 50_000]], alert_schedule=[])
    lines, _ = _quiet_lines(monkeypatch, raw)
    events = sorted([(t_ms, "classify") for t_ms, *_ in classified_windows(lines)] + [
        (int(parts[0]), parts[1]) for parts in (line.split("\t") for line in lines)
        if parts[1] in ("alert_sent", "battery_depleted")])
    assert events == [(11_280, "classify"), (11_285, "alert_sent"), (12_566, "battery_depleted")]
    assert replay(lines).passed


@pytest.mark.parametrize(
    "battery_mwh, due_ms, depleted_ms", [(0.065, 5_000, 5_000), (0.069, 3_000, 3_852), (0.066, 100, 2_566)],
    ids=["burst", "dwell-after", "stretch-after"],
)
def test_an_alert_sent_in_place_empties_the_battery_where_the_queued_path_does(
    monkeypatch, battery_mwh, due_ms, depleted_ms
):
    """A walk with no harvest, on a 15 mW radio at 0.0553 kbps: an alert frame is ~5.5 s on the air.
    The alert, due inside a run, is sent in place. Its burst empties the battery, which cuts the run
    short; or it leaves less than the rest of that Sampling dwell draws, so the run books the dwell to
    its end, as its queued end would, and the battery empties there; or it leaves more, and the stretch
    the run reads again after it ends before the next Sampling dwell's end, where the battery empties."""
    raw = small_raw(duration_ms=60_000, report_every_n_windows=1_000, tx_bitrate_kbps=0.0553)
    raw["channel"]["loss_probability"] = 1.0
    raw["protocol"].update(sync_timeout_ms=100_000)
    raw["protocol"]["retry"]["interval_ms"] = 50_000
    raw["energy"].update(battery_initial_mwh=battery_mwh, harvest_profile_mw=[0.0] * 24)
    raw["scenario"]["devices"][0].update(schedule=[["Walk", 60_000]], alert_schedule=[[due_ms, "Jump"]])
    lines, runs = _quiet_lines(monkeypatch, raw)
    events = [(int(parts[0]), parts[1]) for parts in (line.split("\t") for line in lines)
              if parts[1] in ("alert_sent", "battery_depleted")]
    assert events == [(due_ms, "alert_sent"), (depleted_ms, "battery_depleted")]
    assert any(start < due_ms < end for start, end, _, _ in runs)  # sent by a run in progress


def test_an_energy_tick_due_inside_a_run_books_in_place_and_the_run_goes_on(monkeypatch):
    """Energy lines every 50 s during unbroken motion: each tick falls inside a run, which books
    its stretch and the dwell in progress up to the tick, as the queued path does, and goes on."""
    raw = _motion_raw(report_every_n_windows=15, energy_log_interval_ms=50_000)
    raw["scenario"]["devices"][0]["alert_schedule"] = []
    lines, runs = _quiet_lines(monkeypatch, raw)
    ticks = [int(line.split("\t")[0]) for line in lines if "\tenergy\t" in line]
    assert ticks == [0, 50_000, 100_000, 120_000]
    assert all(any(start < tick < end for start, end, n, _ in runs if n) for tick in ticks[1:3])


@hypothesis_seed(20261026)
@settings(max_examples=100, deadline=None)
@given(
    level=st.floats(1e-9, 40.0),
    harvest_mw=st.floats(0.0, 50.0),
    p_tx_mw=st.floats(15.0, 400.0),
    t=st.integers(0, 2 * SLOT_MS),
    data=st.data(),
)
def test_no_stretch_of_the_cycle_loop_can_empty_the_battery(level, harvest_mw, p_tx_mw, t, data):
    """Budget: ~0.6 s of tier-1 for 100 examples (0.55-0.64 s on a 2-vCPU host), measured after the last
    edit. Dwells of any states that end before _stretch_end(t), and the last of them 1 ms before it,
    booked from any level of a 40 mWh battery with any harvest, leave the level above 0: the float margin
    of the half-battery bound."""
    raw = small_raw()
    raw["device_profile"]["p_tx_mw"] = p_tx_mw
    config = parse_config(raw)
    sim = Simulator(seed=0, out=io.StringIO())
    device = SimDevice(sim, config.scenario.devices[0], config, SimChannel(sim, config.channel, 1), None)
    device.ledger = (level, 0.0, 0.0, 0.0, 0.0, 0.0)
    span = device._stretch_end(t) - t
    ends = sorted({*data.draw(st.lists(st.integers(1, span - 1), max_size=30)), span - 1}) if span > 1 else []
    states = data.draw(st.lists(st.sampled_from(list(PowerState)), min_size=len(ends), max_size=len(ends)))
    pieces = [energy_piece(harvest_mw, device.power_mw[state], device.charge_efficiency, end - start)
              for state, start, end in zip(states, [0, *ends], ends)]
    assert account_energy(device.ledger, device.capacity_mwh, pieces)[0] > 0.0


def test_a_quiet_run_stops_at_the_end_of_its_hour_slot(monkeypatch):
    """Motion from 3,500 s across the slot boundary at 3,600,000 ms: quiet runs
    take cycles in both slots, and none ends past the boundary."""
    raw = small_raw(duration_ms=3_660_000, report_every_n_windows=15)
    raw["scenario"]["devices"][0].update(schedule=[["Sit", 3_500_000], ["Walk", 160_000]], alert_schedule=[])
    # With nothing queued at the boundary, a run still books no dwell that ends at or past it: it
    # queues the end of the tenth cycle's transmit dwell, there.
    config = parse_config(raw)
    sim = Simulator(seed=11, out=io.StringIO())
    device = SimDevice(sim, config.scenario.devices[0], config, SimChannel(sim, config.channel, 1), None)
    sim.now = device.last_account_ms = 3_600_000 - 10 * QUIET_MS
    device.stretch_stop = device._stretch_end(device.last_account_ms)  # as a booking up to then would set it
    device._run_cycles()
    assert (sim.now, device.window_index, sim.horizon(3_660_000)) == (3_600_000 - 1, 10, 3_600_000 - 1)
    _, runs = _quiet_lines(monkeypatch, raw)
    taken = [(start, end) for start, end, n, _ in runs if n]
    assert {start // 3_600_000 for start, _ in taken} == {0, 1}
    assert all((end - 1) // 3_600_000 == start // 3_600_000 for start, end in taken)


def test_a_quiet_run_stops_where_the_duty_budget_is_used_up(monkeypatch):
    """Unbroken motion on a plan that funds ~43 s of each slot: a quiet cycle's
    end check finds no budget left, and the device sleeps mid-motion."""
    raw = _motion_raw(report_every_n_windows=15, use_duty_plan=True)
    raw["scenario"]["devices"][0]["alert_schedule"] = []
    raw["energy"]["harvest_profile_mw"] = [0.5] * 24
    lines, runs = _quiet_lines(monkeypatch, raw)
    assert any(n and not goes_on for _, _, n, goes_on in runs)
    assert max(t_ms for t_ms, *_ in classified_windows(lines)) < 45_000


def test_a_quiet_run_stops_at_the_idle_timeout(monkeypatch):
    """A walk into a still block: a quiet cycle ends the wake idle_timeout_ms
    after the last motion, long before the scenario ends."""
    raw = small_raw(report_every_n_windows=15)
    raw["scenario"]["devices"][0]["alert_schedule"] = []
    _, runs = _quiet_lines(monkeypatch, raw)
    assert any(n and not goes_on and start + n * QUIET_MS < 500_000 for start, _, n, goes_on in runs)


def test_a_quiet_run_stops_at_an_idle_timeout_on_the_cycle_grid(monkeypatch):
    """An idle timeout of three quiet cycles less a window: a transmit dwell ends exactly idle_timeout_ms
    after a Sampling end, so the wake ends there, inside a look-ahead batch as on the queued path."""
    raw = small_raw(report_every_n_windows=1_000, idle_timeout_ms=3 * QUIET_MS - 1_280)
    raw["scenario"]["devices"][0]["alert_schedule"] = []
    _quiet_lines(monkeypatch, raw)


def test_a_quiet_run_stops_at_the_idle_timeout_inside_a_batch(monkeypatch):
    """A walk into a noisy sit, whose windows move or not at random: the wake goes on into the sit, and
    a still streak that reaches the idle timeout inside a look-ahead batch ends it there."""
    raw = small_raw(report_every_n_windows=1_000)
    raw["synthetic_models"]["har"]["labels"].update(NOISY_STILL["har"])
    raw["scenario"]["devices"][0].update(schedule=[["Walk", 10_000], ["Sit", 590_000]], alert_schedule=[])
    lines, runs = _quiet_lines(monkeypatch, raw)
    last = max(t_ms for t_ms, *_ in classified_windows(lines))
    assert 20_000 < last < 500_000 and not runs[-1][3]


def test_a_quiet_run_stops_at_the_scenario_end(monkeypatch):
    """Unbroken motion to the end: the last quiet cycle leaves no room for another, and ends the wake."""
    raw = _motion_raw(report_every_n_windows=20)
    raw["scenario"]["devices"][0]["alert_schedule"] = []
    _, runs = _quiet_lines(monkeypatch, raw)
    start, _, n, goes_on = runs[-1]
    assert n and not goes_on and start + (n + 1) * QUIET_MS > 120_000


def test_a_run_sends_an_alert_due_at_a_dwell_end_in_place_before_that_end(monkeypatch):
    """An alert due when a quiet cycle's transmit dwell ends was queued first:
    the run sends it in place before that dwell end, its burst books the
    stretch first, and the run goes on from the dwell end."""
    raw = _motion_raw(report_every_n_windows=15)
    raw["scenario"]["devices"][0]["alert_schedule"] = []
    classified = classified_windows(run_scenario(parse_config(raw), 11).lines)
    sampled_ms = next(t_ms for t_ms, _, index, _, _ in classified if index % 15 == 9 and t_ms > 30_000)
    due_ms = sampled_ms + QUIET_MS - 1_280  # its transmit dwell's end
    raw["scenario"]["devices"][0]["alert_schedule"] = [[due_ms, "Jump"]]
    lines, runs = _quiet_lines(monkeypatch, raw)
    assert any(start < due_ms < end for start, end, n, _ in runs if n)
    assert [line.split("\t")[1] for line in lines if line.startswith(f"{due_ms}\t")][0] == "alert_sent"


def test_a_frame_sent_at_a_processing_end_goes_before_an_entry_queued_in_that_dwell():
    """Over a 1 ms link, dev6's alert retry at 90,031 ms reaches the host at 90,032 ms, queued during
    the Processing dwell that ends then. That end sends a DATA frame, and its queued twin was queued
    when the dwell began, so the frame goes on the air before the host's receipt, in place as queued.
    A hypothesis seed-77 search of shard_configs (150 examples, no shrinking) found the config."""
    raw = small_raw(540_000, alert_labels=["Jump", "Up"], report_every_n_windows=5, use_duty_plan=True,
                    tx_bitrate_kbps=133)
    raw["channel"] = {"latency_ms": [1, 1], "loss_probability": 0.4018264809470782,
                      "corruption_probability": 0.4018264809470782}
    raw["scenario"]["devices"] = [{"id": 6, "app": "har", "clock_offset_ms": -752, "schedule": [["Jump", 68978]],
                                   "alert_schedule": [[8825, "Jump"]]}]
    lines = _body(raw, 126)
    at = [line.split("\t")[1:4] for line in lines if line.startswith("90032\t")]
    assert at.index(["frame_tx", "dev6", "DATA"]) < at.index(["frame_reject", "host", "6"])
    with _queued_only():
        assert _body(raw, 126) == lines


def test_a_run_goes_on_past_an_alert_label_window(monkeypatch):
    """Each Jump window raises an alert at its Processing end. Its burst books the
    stretch, and the alert's receipt at the host and the ACK's at the device run in
    place, so a run takes cycles past one."""
    raw = _motion_raw(report_every_n_windows=15, alert_labels=["Jump"])
    raw["scenario"]["devices"][0]["alert_schedule"] = []
    lines, runs = _quiet_lines(monkeypatch, raw)
    jumps = [t_ms for t_ms, _, _, label, _ in classified_windows(lines) if label == "Jump"]
    assert jumps and "alert_sent" in {line.split("\t")[1] for line in lines}
    assert any(start <= t1 <= end - QUIET_MS for start, end, _, _ in runs for t1 in jumps)


def test_a_model_device_takes_quiet_cycles(monkeypatch, trained_model_path):
    raw = small_raw(report_every_n_windows=15, model_path=str(trained_model_path))
    _quiet_lines(monkeypatch, raw)


def test_a_scenario_schedules_fewer_events_than_it_classifies_windows(monkeypatch):
    scheduled = []
    real = Simulator.schedule
    monkeypatch.setattr(Simulator, "schedule", lambda self, t_ms, fn: scheduled.append(t_ms) or real(self, t_ms, fn))
    trace = run_scenario(small_config(report_every_n_windows=15), seed=11)  # one device: its shard runs here
    classified = len(classified_windows(trace.lines))
    assert 0 < len(scheduled) < classified


def test_the_first_reference_day_keeps_its_run_structure(monkeypatch):
    """Budget: ~0.2 s of tier-1 (0.13-0.23 s on a 2-vCPU host), within 0.5 s. The first day of the
    reference config at seed 0, in one process: a run goes on through the host's receipts and takes
    a batch's quiet cycles in one step, and a classify run stays open across the shard's other lines,
    so a change that cuts either again moves these counts; the `_window` count is the loop's
    look-ups outside its batch, which fewer, larger batches cut. The `_stretch_end` count is
    what the stretch's end costs: one read at each booking (124) and one at each device's set-up
    (2), as only a booking moves it; reading it again at each start of the cycle loop too would
    make it 180, and at each use in the loop ~2,000. The parent
    merges the shards' spool files without parsing a line."""
    counts = Counter()

    def counted(owner, name, key, when=lambda *args, **kw: True):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kw: counts.update([key] * when(*args, **kw)) or real(*args, **kw))

    counted(simengine, "account_energy", "account_energy")
    counted(SimDevice, "_run_cycles", "queued dwell ends", lambda self, entered=None: entered is not None)
    counted(Simulator, "emit", "emit")
    counted(SimDevice, "_window", "_window")
    counted(SimDevice, "_stretch_end", "_stretch_end")
    _on_cpus(monkeypatch, 1)
    with simengine.scenario_lines(parse_config(_reference_day_raw()), seed=0) as lines:
        assert counts == {"account_energy": 124, "queued dwell ends": 4, "emit": 1_908, "_window": 370, "_stretch_end": 126}
        monkeypatch.setattr(simengine, "trace_records", lambda *args: pytest.fail("the parent parsed a line"))
        lines = list(lines)
        runs = [line for line in lines if "\tclassify_run\t" in line]
        assert (len(lines), len(runs)) == (1_943, 32)
        assert len(lines) - len(runs) + len(classified_windows(runs)) == 10_803  # the lines of a window each
        rows = [OBSERVATION_HEADER + "\n", *filter(None, map(simengine.observation_line_row, lines))]
        assert len(rows) == 1 + 592  # the header and a row per observation line


def test_sync_times_out_after_three_attempts():
    raw = small_raw(duration_ms=60_000)
    raw["channel"]["loss_probability"] = 1.0
    raw["scenario"]["devices"][0]["alert_schedule"] = []
    raw["scenario"]["devices"][0]["schedule"] = [["LieDown", 60_000]]
    trace = run_scenario(parse_config(raw), seed=8)
    timeout_lines = [l for l in trace.lines if l.split("\t")[1] == "sync_timeout"]
    assert len(timeout_lines) == 1
    assert timeout_lines[0].split("\t")[3] == "3"  # retry budget exhausted
    sync_requests = [
        l for l in trace.lines
        if l.split("\t")[1] == "frame_tx" and l.split("\t")[3] == "TIME_SYNC"
    ]
    assert len(sync_requests) == 3
    assert trace.metrics["devices"]["dev1"]["sync"]["offset_est_ms"] is None


def test_a_sync_retry_due_at_the_end_of_the_run_is_not_sent():
    raw = small_raw(duration_ms=1000)
    raw["channel"]["loss_probability"] = 1.0
    raw["protocol"]["sync_timeout_ms"] = 1000
    raw["scenario"]["devices"][0].update(alert_schedule=[], schedule=[["LieDown", 1000]])
    trace = run_scenario(parse_config(raw), seed=8)
    sync_requests = [line.split("\t") for line in trace.lines if "\tframe_tx\t" in line and "\tTIME_SYNC\t" in line]
    assert len(sync_requests) == 1 and int(sync_requests[0][0]) < 1000


def test_run_scenario_refuses_a_config_without_scenario():
    with pytest.raises(ConfigError) as exc:
        run_scenario(Config())
    assert exc.value.errors == ["config has no scenario section"]


def test_run_scenario_refuses_a_device_label_without_a_signal_model():
    config = small_config()
    har = config.synthetic["har"]
    signals = {label: model for label, model in har.signals.items() if label is not ActivityLabel.Walk}
    schedule = tuple(entry for entry in har.schedule if entry[0] is not ActivityLabel.Walk)
    config = replace(config, synthetic={"har": replace(har, signals=signals, schedule=schedule)})
    with pytest.raises(ConfigError) as exc:
        simengine.scenario_lines(config)
    assert exc.value.errors == ["scenario.devices[0].schedule: labels without signal models: ['Walk']"]


@pytest.mark.parametrize(
    "schedule, field, reason",
    [
        ((), "schedule", "expected a non-empty list of [label, duration_ms] pairs"),
        (
            ((ActivityLabel.Walk, 1000), (ActivityLabel.Sit, 0)),
            "schedule[1]",
            "duration_ms must be a positive integer",
        ),
        (((ActivityLabel.Walk, -5),), "schedule[0]", "duration_ms must be a positive integer"),
    ],
    ids=["empty", "zero-block", "negative-block"],
)
def test_run_scenario_refuses_a_schedule_built_in_code(schedule, field, reason):
    """The parser never builds these schedules; built in code, DeviceSpec refuses them with the parser's reason."""
    with pytest.raises(FieldError) as exc:
        DeviceSpec(2, schedule=schedule)
    assert (exc.value.field, exc.value.reason) == (field, reason)


def test_replay_version_mismatch():
    with pytest.raises(VersionMismatch):
        replay(["0\ttrace_version\tsim\t99"])
    with pytest.raises(VersionMismatch):
        replay(["0\tscenario\tsim\t1\t1\t0"])


@pytest.mark.parametrize("reader", [replay, trace_metrics, trace_observations])
@pytest.mark.parametrize(
    "first, detail",
    [("0\ttrace_version\tsim\t2", "trace version 2 != supported 6"), (None, "trace has no version line")],
    ids=["version-2", "no-version-line"],
)
def test_trace_readers_refuse_another_version(small_trace, reader, first, detail):
    lines = list(small_trace.lines)
    if first is None:
        del lines[0]
    else:
        lines[0] = first
    with pytest.raises(VersionMismatch, match=f"^line 1: {re.escape(detail)}$"):
        reader(lines)


def test_trace_readers_on_empty_input():
    assert replay([]).passed
    assert trace_observations([]) == []
    assert trace_metrics([]) == {
        "trace_version": TRACE_VERSION,
        "duration_ms": 0,
        "seed": None,
        "devices": {},
        "host": {"frames_received": 0, "frames_rejected": {}, "observations": {}, "alerts_notified": 0},
        "channel": {"transmitted": 0, "lost": 0, "corrupted": 0},
    }


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_trace_readers_raise_only_format_errors(small_trace, data):
    """Each trace reader on one truncated or garbled line: a result or a TraceFormatError naming it."""
    lines = list(small_trace.lines)
    index = data.draw(st.integers(0, len(lines) - 1))
    line = lines[index]
    if data.draw(st.booleans()):
        lines[index] = line[: data.draw(st.integers(0, len(line)))]
    else:
        parts = line.split("\t")
        k = data.draw(st.integers(0, len(parts) - 1))
        parts[k] = data.draw(st.text(alphabet="0123456789abcdef-.xnaN\t ", max_size=12))
        lines[index] = "\t".join(parts)
    for reader in (replay, trace_metrics, trace_observations):
        try:
            reader(lines)
        except TraceFormatError as exc:
            assert exc.line == index + 1
            assert str(exc).startswith(f"line {index + 1}: ")


def test_truncated_line_names_its_line(small_trace):
    for reader, kind in ((replay, "energy"), (trace_metrics, "energy"), (trace_observations, "observation")):
        lines = list(small_trace.lines)
        index = next(i for i, line in enumerate(lines) if line.split("\t")[1] == kind)
        lines[index] = lines[index].rsplit("\t", 3)[0]
        with pytest.raises(TraceFormatError, match=f"^line {index + 1}: {kind} line has \\d+ details, not \\d+$"):
            reader(lines)


def test_unknown_app_id_is_format_error(small_trace):
    lines = list(small_trace.lines)
    index = next(i for i, line in enumerate(lines) if line.split("\t")[1] == "observation")
    parts = lines[index].split("\t")
    parts[5] = "9"
    lines[index] = "\t".join(parts)
    with pytest.raises(TraceFormatError, match=f"^line {index + 1}: cannot parse \\(ValueError: 9 is not a valid AppId"):
        trace_observations(lines)



def test_trace_observations_recover_the_host_log(small_trace):
    obs = trace_observations(small_trace.lines)
    m = small_trace.metrics
    assert len(obs) == m["host"]["observations"]["1"] > 0
    assert {(o.device_id, o.app_id) for o in obs} == {(1, AppId.HAR)}
    # Lossless channel, one window per report: every classification arrives.
    by_label = Counter(ActivityLabel(o.label_index).name for o in obs)
    assert by_label == Counter(m["devices"]["dev1"]["classifications"])

def test_replay_empty_trace_vacuous():
    report = replay([])
    assert report.passed
    assert report.warnings


def test_replay_of_a_trace_without_events_warns():
    report = replay([f"0\ttrace_version\tsim\t{TRACE_VERSION}", "0\tscenario\tsim\t1000\t0\t0", "1000\tscenario_end\tsim"])
    assert report.passed
    assert report.warnings == ["trace has no events: vacuous pass"]


def test_replay_reads_any_iterable_of_lines_once(fixture_traces, tmp_path):
    """A generator and an open trace file give the report of the list, for each fixture trace and for
    the empty and the event-less trace that warn."""
    no_events = [f"0\ttrace_version\tsim\t{TRACE_VERSION}", "0\tscenario\tsim\t1000\t0\t0", "1000\tscenario_end\tsim"]
    path = tmp_path / "t.trace"
    for lines in [trace.lines for trace in fixture_traces] + [[], no_events]:
        want = replay(lines)
        assert replay(line for line in lines) == want
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with open(path, encoding="utf-8") as f:
            assert replay(f) == want
    assert [replay(lines).warnings for lines in ([], no_events)] == [
        ["empty trace: vacuous pass"], ["trace has no events: vacuous pass"]
    ]


def test_metrics_and_observations_read_an_open_trace_file(fixture_traces, tmp_path):
    """Lines that keep their line ends, as an open trace file yields them, give the
    metrics and observations of the list, for each fixture trace and the event-less one."""
    no_events = [f"0\ttrace_version\tsim\t{TRACE_VERSION}", "0\tscenario\tsim\t1000\t0\t0", "1000\tscenario_end\tsim"]
    path = tmp_path / "t.trace"
    for lines in [trace.lines for trace in fixture_traces] + [no_events]:
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        for reader in (trace_metrics, trace_observations):
            with open(path, encoding="utf-8") as f:
                assert reader(f) == reader(lines)


def test_the_last_energy_line_at_a_day_boundary_counts():
    def energy(t_ms, battery):
        return f"{t_ms}\tenergy\tdev1\t{battery}" + "\t0.0" * 5 + "\t0" * 4

    metrics = trace_metrics([
        f"0\ttrace_version\tsim\t{TRACE_VERSION}",
        f"0\tscenario\tsim\t{2 * DAY_MS}\t1\t0",
        "0\tdevice_init\tdev1\thar\t8.0\t40.0\t0\t1286\t1286",
        energy(DAY_MS, 7.5),
        energy(DAY_MS, 7.25),
        energy(2 * DAY_MS, 7.0),
        f"{2 * DAY_MS}\tscenario_end\tsim",
    ])
    assert metrics["devices"]["dev1"]["battery_daily"] == [[1, 7.25], [2, 7.0]]


def test_replay_detects_corrupted_battery_line(small_trace):
    lines = list(small_trace.lines)
    for i, line in enumerate(lines):
        parts = line.split("\t")
        if parts[1] == "energy" and float(parts[3]) > 0:
            parts[3] = f"{float(parts[3]) + 0.5:.9f}"
            lines[i] = "\t".join(parts)
            broken_line = i + 1
            break
    report = replay(lines)
    assert not report.passed
    assert any(f"line {broken_line}" in f for f in report.failures)


def test_replay_rejects_energy_without_device_init(small_trace):
    lines = [line for line in small_trace.lines if line.split("\t")[1] != "device_init"]
    first = next(i for i, line in enumerate(lines) if line.split("\t")[1] == "energy")
    report = replay(lines)
    assert not report.passed
    assert report.failures[0] == f"line {first + 1}: energy line for dev1 before its device_init"


def test_replay_detects_lines_out_of_time_order(small_trace):
    lines = list(small_trace.lines)
    first, second = [i for i, line in enumerate(lines) if line.split("\t")[1:3] == ["energy", "dev1"]][:2]
    lines[first], lines[second] = lines[second], lines[first]
    t_ms = [int(line.split("\t")[0]) for line in lines]
    report = replay(lines)
    assert report.failures == [
        f"line {first + 2}: t_ms {t_ms[first + 1]} before the previous line's {t_ms[first]}",
        f"line {second + 1}: t_ms {t_ms[second]} before the previous line's {t_ms[second - 1]}",
    ]


def test_replay_detects_rx_without_tx(small_trace):
    lines = list(small_trace.lines)
    lines.append("999999\tframe_rx\thost\tDATA\t1\t424242")
    report = replay(lines)
    assert not report.passed
    assert any("never transmitted" in f for f in report.failures)


def _edited(lines, index, **fields):
    """lines with the fields of line index that TRACE_LINES names replaced by str(value)."""
    parts = lines[index].split("\t")
    for name, value in fields.items():
        parts[3 + TRACE_LINES[parts[1]][1].index(name)] = str(value)
    return [*lines[:index], "\t".join(parts), *lines[index + 1 :]]


def _device_frames(lines):
    """Indices of the device's own frame_tx lines, whose seq rises by one a frame."""
    return [i for i, line in enumerate(lines) if line.split("\t")[1:3] == ["frame_tx", "dev1"]]


@pytest.mark.parametrize("battery", [40.5, -0.5])  # the capacity is 40 mWh
def test_replay_detects_a_battery_outside_the_capacity(small_trace, battery):
    """The net figure moves with the battery, so that the ledger holds and
    the range rule alone fails."""
    lines = list(small_trace.lines)
    index = [i for i, line in enumerate(lines) if line.split("\t")[1] == "energy"][-1]
    old_battery, old_net = (float(v) for v in lines[index].split("\t")[3:5])
    lines = _edited(lines, index, battery=f"{battery:.9f}", net=f"{old_net + battery - old_battery:.9f}")
    assert replay(lines).failures == [f"line {index + 1}: battery {battery} outside [0, capacity]"]


def test_replay_detects_a_seq_reused_for_other_bytes(small_trace):
    first, later = _device_frames(small_trace.lines)[1:3]
    seq = small_trace.lines[first].split("\t")[5]
    lines = _edited(small_trace.lines, later, seq=seq)
    assert f"line {later + 1}: device dev1 reused seq {seq} for different bytes" in replay(lines).failures


def test_replay_detects_a_seq_not_above_the_last(small_trace):
    index = _device_frames(small_trace.lines)[3]
    top = int(small_trace.lines[index].split("\t")[5]) - 1
    lines = _edited(small_trace.lines, index, seq="0")  # seqs count from 1, so 0 is new
    assert f"line {index + 1}: device dev1 seq 0 not above {top}" in replay(lines).failures


def test_replay_detects_canary_bytes_on_the_air(small_trace):
    canary = bytes(range(0xA0, 0xA8))
    index = next(i for i in _device_frames(small_trace.lines) if small_trace.lines[i].split("\t")[3] == "DATA")
    frame = bytes.fromhex(small_trace.lines[index].split("\t")[7])
    lines = _edited(small_trace.lines, index, frame=(frame[:12] + canary + frame[20:]).hex())
    assert replay(small_trace.lines, canaries=(canary,)).passed
    failures = replay(lines, canaries=(canary,)).failures
    assert failures == [f"line {index + 1}: canary bytes {canary.hex()} leaked on the air"]


def test_retried_alerts_count_each_alert_once(depletion_trace):
    """The depletion pin's alerts are retried over a lossy link: an alert counts as sent at its first
    attempt, and its attempts are its alert_sent lines."""
    alerts = depletion_trace.metrics["devices"]["dev1"]["alerts"]
    assert (alerts["sent"], alerts["delivered"], alerts["undelivered"]) == (526, 467, 59)
    assert sorted(Counter(alerts["attempts"].values()).items()) == [
        (1, 115), (2, 99), (3, 62), (4, 49), (5, 56), (6, 23), (7, 22), (8, 11), (9, 14), (10, 75)
    ]
    assert sum(alerts["attempts"].values()) == sum("\talert_sent\t" in line for line in depletion_trace.lines) == 2_231


def test_metrics_rederivable_from_trace(fixture_traces):
    """run_scenario's metrics are those trace_metrics derives from its lines."""
    for trace in fixture_traces:
        assert trace_metrics(trace.lines) == trace.metrics


def _run_lines(lines):
    """Indices of the classify_run lines."""
    return [i for i, line in enumerate(lines) if "\tclassify_run\t" in line]


def test_replay_detects_a_run_that_starts_before_the_last_run_closed(runs_trace):
    """A run's first window one ms before the stamp of the device's run before it, which that line closed."""
    before, index = _run_lines(runs_trace.lines)[:2]
    closed = int(runs_trace.lines[before].split("\t")[0])
    lines = _edited(runs_trace.lines, index, first_t_ms=closed - 1)
    assert replay(lines).failures == [
        f"line {index + 1}: dev1's run starts at {closed - 1} ms, before {closed} (line {before + 1})"]


def test_replay_detects_a_run_that_starts_at_a_battery_recovery(depletion_trace):
    """The first run after the battery recovers starts at the recovery's own time: a run starts after it."""
    kinds = [line.split("\t")[1] for line in depletion_trace.lines]
    up = kinds.index("battery_recovered")
    index = kinds.index("classify_run", up)
    recovered = int(depletion_trace.lines[up].split("\t")[0])
    lines = _edited(depletion_trace.lines, index, first_t_ms=recovered)
    assert replay(lines).failures == [
        f"line {index + 1}: dev1's run starts at {recovered} ms, before {recovered + 1} (line {up + 1})"]


def test_replay_detects_a_run_that_ends_after_its_close(runs_trace):
    """A run moved later, so that its last window is one ms past its own stamp."""
    index = _run_lines(runs_trace.lines)[0]
    parts = runs_trace.lines[index].split("\t")
    closed, n, spacing = int(parts[0]), int(parts[5]), int(parts[6])
    lines = _edited(runs_trace.lines, index, first_t_ms=closed + 1 - (n - 1) * spacing)
    assert replay(lines).failures == [f"line {index + 1}: dev1's run ends at {closed + 1} ms, after its close"]


def test_replay_detects_a_run_off_its_cycle_grid(runs_trace):
    """A run of several windows spaced 1 ms closer than any cycle that device_init gives."""
    index = next(i for i in _run_lines(runs_trace.lines) if int(runs_trace.lines[i].split("\t")[5]) > 1)
    spacing = int(runs_trace.lines[index].split("\t")[6]) - 1
    lines = _edited(runs_trace.lines, index, spacing_ms=spacing)
    assert replay(lines).failures == [f"line {index + 1}: dev1's run spacing {spacing} ms is off its cycle grid"]


def test_replay_detects_a_run_that_repeats_a_window(runs_trace):
    """A run whose first index is the previous run's last window."""
    index = _run_lines(runs_trace.lines)[1]
    repeated = int(runs_trace.lines[index].split("\t")[4]) - 1
    lines = _edited(runs_trace.lines, index, first_index=repeated)
    assert replay(lines).failures == [f"line {index + 1}: dev1 window {repeated} not above {repeated}"]


def test_a_run_holds_windows_of_one_label_confidence_and_spacing_until_its_own_rules_close_it():
    """Another line of the shard leaves the run open; a window that does not continue it closes it at that
    window's time, and close_run (a sleep, a forced sleep, the shard's end) at the time it is given."""
    windows = [
        (10, "dev1", 0, "Walk", 9_000), (20, "dev1", 1, "Walk", 9_000), (30, "dev1", 2, "Walk", 9_000),
        (40, "dev1", 3, "Sit", 9_000),  # another label
        (50, "dev1", 4, "Sit", 8_000), (65, "dev1", 5, "Sit", 8_000), (80, "dev1", 6, "Sit", 8_000),  # another confidence
        (90, "dev1", 7, "Sit", 8_000),  # another spacing
        (100, "dev1", 9, "Sit", 8_000), (110, "dev1", 10, "Sit", 8_000),  # an index gap
        (120, "dev1", 11, "Sit", 8_000),  # after another line, which leaves the run open
        (140, "dev1", 12, "Sit", 8_000),  # after a close
    ]
    sim = Simulator(seed=0, out=io.StringIO())
    for window in windows:
        if window[0] == 120:
            sim.now = 115
            sim.emit("sync_timeout", "dev1", 3)
        if window[0] == 140:
            sim.close_run(135)
        sim.classify(*window)
    sim.close_run(150)
    lines = sim.out.getvalue().splitlines()
    assert lines == [
        "40\tclassify_run\tdev1\t10\t0\t3\t10\tWalk\t9000", "50\tclassify_run\tdev1\t40\t3\t1\t0\tSit\t9000",
        "90\tclassify_run\tdev1\t50\t4\t3\t15\tSit\t8000", "100\tclassify_run\tdev1\t90\t7\t1\t0\tSit\t8000",
        "115\tsync_timeout\tdev1\t3", "135\tclassify_run\tdev1\t100\t9\t3\t10\tSit\t8000",
        "150\tclassify_run\tdev1\t140\t12\t1\t0\tSit\t8000",
    ]
    assert classified_windows(lines) == windows


def test_simulator_rejects_past_events():
    sim = Simulator(seed=0, out=io.StringIO())
    sim.now = 100
    with pytest.raises(ValueError, match="past"):
        sim.schedule(50, lambda: None)


def test_state_machine_cycle_appears_in_trace(small_trace):
    # Each classified window spends inference_latency_ms in Processing, then
    # one DATA frame's air time in Transmitting: 38 bytes at 250 kbit/s is 1 ms.
    dwell = small_trace.metrics["devices"]["dev1"]["dwell_ms"]
    windows = len(classified_windows(small_trace.lines))
    assert list(dwell) == ["Sleep", "Sampling", "Processing", "Transmitting"]
    assert all(ms > 0 for ms in dwell.values())
    assert dwell["Processing"] == small_config().scenario.inference_latency_ms * windows
    assert dwell["Transmitting"] == windows


@pytest.mark.parametrize("field", [9, 10, 11, 12])
def test_replay_detects_a_changed_dwell_figure(small_trace, field):
    lines = list(small_trace.lines)
    index = [i for i, line in enumerate(lines) if line.split("\t")[1] == "energy"][-1]
    parts = lines[index].split("\t")
    parts[field] = str(int(parts[field]) + 1)
    lines[index] = "\t".join(parts)
    report = replay(lines)
    assert report.failures == [f"line {index + 1}: dev1 dwell sums to {int(parts[0]) + 1} ms, not t_ms"]


# SHA-256 of the seed-0 trace of lossy_model_raw() below, driven by the model
# that trained_model_path trains. A deliberate change to the trace format bumps
# TRACE_VERSION and re-pins this digest in the same change; a deliberate change
# to the trained model re-pins it and LOSSY_MODEL_SHA256 without a bump.
LOSSY_MODEL_TRACE_SHA256 = "7e08ad6886233e42d381c2f53cf5b198823f6cf95e387ebc21144dea703b97c1"
LOSSY_MODEL_SHA256 = "a68fb73d46ee797cb591ddc6b82a5e36c6b926b03d0338295a793780c6274d9d"


@pytest.fixture(scope="module")
def trained_model_path(tmp_path_factory):
    """An OHM1 model trained on 12 blocks of the reference corpus."""
    from openhealth.classifier import init_model, save_model, train
    from openhealth.dataio import generate_synthetic
    from openhealth.pipeline import extract_feature_matrix, normalize_features, segment, windows_to_matrix

    cfg = load_config(REFERENCE)
    spec = cfg.synthetic["har"]
    rec = generate_synthetic(spec.signals, spec.full_schedule()[:12], 100.0, 3)
    starts, codes = segment(rec, 128, 0.5)
    labeled = codes >= 0
    feats = extract_feature_matrix(windows_to_matrix(rec, starts[labeled], 128))
    x, stats = normalize_features(feats)
    model = init_model((feats.shape[1], 16, 7), seed=0)
    model.stats = stats
    trained, _ = train(model, x, codes[labeled])
    path = tmp_path_factory.mktemp("model") / "har.ohm"
    save_model(trained, path)
    return path


def lossy_model_raw(model_path):
    """Two model-driven devices for two minutes on a lossy, corrupting link."""
    with open(REFERENCE) as f:
        raw = json.load(f)
    raw["channel"] = {"latency_ms": [10, 40], "loss_probability": 0.1, "corruption_probability": 0.05}
    raw["scenario"].update(
        duration_ms=120_000, report_every_n_windows=1, alert_labels=["Jump"],
        use_duty_plan=False, model_path=str(model_path),
    )
    for device in raw["scenario"]["devices"]:
        device["schedule"] = [["Walk", 20_000], ["Jump", 15_000], ["Sit", 15_000], ["Stand", 15_000]]
    return raw


@pytest.fixture(scope="module")
def lossy_model_trace(trained_model_path):
    return run_scenario(parse_config(lossy_model_raw(trained_model_path)), seed=0)


def test_lossy_model_trace_digest_pinned(trained_model_path, lossy_model_trace):
    assert TRACE_VERSION == 6
    model_digest = hashlib.sha256(trained_model_path.read_bytes()).hexdigest()
    assert model_digest == LOSSY_MODEL_SHA256, "trained model bytes changed"
    trace = lossy_model_trace
    kinds = [line.split("\t")[1] for line in trace.lines]
    for kind in ("frame_lost", "frame_corrupt", "frame_reject", "classify_run", "alert_sent"):
        assert kind in kinds, f"scenario no longer exercises {kind}"
    assert replay(trace.lines).passed
    digest = hashlib.sha256(trace.text().encode("utf-8")).hexdigest()
    assert digest == LOSSY_MODEL_TRACE_SHA256, "model-driven lossy trace bytes changed"


def test_a_model_device_draws_only_the_windows_it_classifies_and_its_still_probes(
    monkeypatch, trained_model_path, lossy_model_trace
):
    """Budget: ~0.05 s of tier-1, past the module's trained model. A batch that moved in every window is
    followed by one that takes the rest of its block, which the doubling reached in more batches; it still
    draws no window twice, and none that is not classified but a wake's still probe, drawn alone. The
    trace is the pinned one."""
    batches, moving, drawn_once = [], {}, _drawn_once(SimDevice._window_samples)

    def counted(device, starts, columns=None, samples=None):
        matrix, counts = drawn_once(device, starts, columns, samples)
        batches.append(len(starts))
        ends = [(device.name, start + device.window_ms) for start in starts]  # each window's Sampling end
        moving.update(zip(ends, motion_detector(matrix).tolist()))
        return matrix, counts

    monkeypatch.setattr(SimDevice, "_window_samples", counted)
    _on_cpus(monkeypatch, 1)
    trace = run_scenario(parse_config(lossy_model_raw(trained_model_path)), seed=0)
    assert trace.lines == lossy_model_trace.lines
    classified = [(entity, t_ms) for t_ms, entity, *_ in classified_windows(trace.lines)]
    assert len(set(classified)) == len(classified) == 124 and set(classified) <= moving.keys()
    probes = moving.keys() - set(classified)
    assert len(probes) == 4 and not any(moving[probe] for probe in probes)
    assert (len(batches), sum(batches)) == (36, 128)  # doubling took 52 batches


# SHA-256 of the seed-0 trace of depletion_raw() below. A deliberate change to
# the trace bytes bumps TRACE_VERSION and re-pins this digest in the same change.
DEPLETION_TRACE_SHA256 = "d955bf99328ae2cc64487e61e29bcd05d4b66c35b1d34450d92fc89f335c9248"


def depletion_raw():
    """One device for an hour on a near-empty battery, alerting on every Walk
    and Jump window over a lossy, corrupting link: it depletes and recovers."""
    with open(REFERENCE) as f:
        raw = json.load(f)
    raw["channel"].update(loss_probability=0.5, corruption_probability=0.05)
    raw["energy"]["battery_initial_mwh"] = 0.05
    raw["energy"]["harvest_profile_mw"] = [3.0, 0.0, 20.0] * 8
    raw["scenario"].update(
        duration_ms=3_600_000, report_every_n_windows=1, alert_labels=["Walk", "Jump"],
        use_duty_plan=False,
    )
    raw["scenario"]["devices"] = [
        {"id": 1, "app": "har", "clock_offset_ms": 500,
         "schedule": [["Walk", 600_000], ["Jump", 60_000], ["Sit", 60_000]], "alert_schedule": []},
    ]
    return raw


@pytest.fixture(scope="module")
def depletion_trace():
    return run_scenario(parse_config(depletion_raw()), seed=0)


def test_depletion_trace_digest_pinned(depletion_trace):
    assert TRACE_VERSION == 6
    trace = depletion_trace
    kinds = [line.split("\t")[1] for line in trace.lines]
    for kind in ("battery_depleted", "battery_recovered", "alert_sent"):
        assert kind in kinds, f"scenario no longer exercises {kind}"
    assert replay(trace.lines).passed
    digest = hashlib.sha256(trace.text().encode("utf-8")).hexdigest()
    assert digest == DEPLETION_TRACE_SHA256, "depletion trace bytes changed"


def test_trace_doc_names_every_kind_and_the_version():
    doc = Path("docs/formats/trace.md").read_text(encoding="utf-8")
    assert re.search(r"^# .*\(version (\d+)\)$", doc, re.M).group(1) == str(TRACE_VERSION)
    assert re.findall(r"`0  trace_version  sim  (\d+)`", doc) == [str(TRACE_VERSION)]
    # The doc's table, row by row: kind, entity column and the number of details
    # (a parenthesis only explains the detail before it).
    rows = re.findall(r"^\| (\w+) +\| ([\w/]+) *\| (.*?) *\|$", doc, re.M)[1:]
    documented = [
        (kind, entity, len([d for d in re.sub(r"\(.*?\)", "", details).split(",") if d.strip()]))
        for kind, entity, details in rows
    ]
    assert documented == [(kind, entity, len(names)) for kind, (entity, names, _) in TRACE_LINES.items()]


def dead_link_raw():
    """The small scenario with a duty plan, on a link that loses every frame."""
    raw = small_raw(use_duty_plan=True)
    raw["channel"]["loss_probability"] = 1.0
    return raw


@pytest.fixture(scope="module")
def dead_link_trace():
    return run_scenario(parse_config(dead_link_raw()), seed=0)


@pytest.fixture(scope="module")
def runs_trace():
    """The small scenario reporting every 15th window, so that runs of quiet windows share a line."""
    return run_scenario(small_config(report_every_n_windows=15), seed=0)


@pytest.fixture(scope="module")
def fixture_traces(small_trace, lossy_model_trace, depletion_trace, dead_link_trace, runs_trace):
    return small_trace, lossy_model_trace, depletion_trace, dead_link_trace, runs_trace


def test_every_kind_is_written_by_a_fixture_trace_and_read_back(fixture_traces):
    kinds = set()
    for trace in fixture_traces:
        assert replay(trace.lines).passed
        records = list(trace_records(trace.lines))  # every detail of every line parsed
        assert [lineno for lineno, *_ in records] == list(range(1, len(trace.lines) + 1))
        kinds |= {kind for _, _, kind, _, _ in records}
    assert kinds == set(TRACE_LINES)


def _readers_refuse_line(lines, index, detail):
    for reader in (replay, trace_metrics, trace_observations):
        with pytest.raises(TraceFormatError, match=f"^line {index + 1}: {re.escape(detail)}$"):
            reader(lines)


@pytest.mark.parametrize("kind", list(TRACE_LINES))
@pytest.mark.parametrize("change", [+1, -1], ids=["field-added", "field-dropped"])
def test_a_line_with_a_field_added_or_dropped_is_refused_at_that_line(fixture_traces, kind, change):
    """A copy of the kind's first line, one field longer or shorter, follows it."""
    lines = next(list(t.lines) for t in fixture_traces if any(line.split("\t")[1] == kind for line in t.lines))
    index = 1 + next(i for i, line in enumerate(lines) if line.split("\t")[1] == kind)
    line = lines[index - 1]
    lines.insert(index, line + "\t0" if change > 0 else line.rsplit("\t", 1)[0])
    count = len(TRACE_LINES[kind][1])
    if count + change < 0:  # a kind without details loses its entity
        _readers_refuse_line(lines, index, "no kind and entity")
    else:
        _readers_refuse_line(lines, index, f"{kind} line has {count + change} details, not {count}")


@pytest.mark.parametrize(
    "line, detail",
    [
        ("{t}\tclassify_all\tdev1\t1\tWalk\t10000", "unknown kind 'classify_all'"),
        ("{t}\tclassify\tdev1\t1\tWalk\t10000", "unknown kind 'classify'"),
        ("{t}\tclassify_run\thost\t{t}\t1\t2\t1286\tWalk\t10000", "entity 'host' does not log classify_run lines"),
        ("{t}\tclassify_run\tdev1\t1\t2\t1286\tWalk\t10000", "classify_run line has 5 details, not 6"),
        ("{t}\tobservation\tdev1\t1\t0\t1\t5\t10000", "entity 'dev1' does not log observation lines"),
        ("{t}\tframe_lost\tdevice1\tdev1\tDATA\t1\t0", "entity 'device1' does not log frame_lost lines"),
    ],
    ids=["unknown-kind", "classify-of-version-5", "classify-run-from-host", "classify-run-without-first-time",
         "observation-from-a-device", "no-such-entity"],
)
def test_an_unknown_kind_or_a_wrong_entity_is_refused_at_that_line(small_trace, line, detail):
    lines = list(small_trace.lines)
    index = next(i for i, text in enumerate(lines) if text.split("\t")[1] == "classify_run")
    lines.insert(index, line.format(t=lines[index].split("\t")[0]))
    _readers_refuse_line(lines, index, detail)


def test_trace_records_yield_and_parse_only_the_kinds_asked_for(small_trace):
    records = list(trace_records(small_trace.lines, parse=("observation",)))
    observations = [details for _, _, kind, _, details in records if kind == "observation"]
    assert observations and all(isinstance(app_id, AppId) for _, _, app_id, _, _ in observations)
    assert all(isinstance(field, str) for _, _, kind, _, details in records if kind != "observation" for field in details)
    unparsed = {kind: details for _, _, kind, _, details in trace_records(small_trace.lines, parse=())}
    assert unparsed.keys() == {line.split("\t")[1] for line in small_trace.lines}
    assert all(isinstance(field, str) for details in unparsed.values() for field in details)


def sync_bound_raw(latency_ms, sync_timeout_ms):
    """One LieDown device for 60 days that syncs once, over a link whose round trip is 2 * latency_ms."""
    raw = small_raw(duration_ms=60 * DAY_MS)
    raw["channel"]["latency_ms"] = latency_ms
    raw["protocol"].update(sync_timeout_ms=sync_timeout_ms, sync_interval_ms=0)
    raw["scenario"]["devices"][0].update(schedule=[["LieDown", 60 * DAY_MS]], alert_schedule=[])
    return raw


def test_a_sync_timeout_past_the_32_bit_round_trip_is_refused():
    # A reply counts only while its request is pending; with this timeout a
    # round trip of 2 * 2147484648 ms = 2^32 + 2000 ms would count, and its
    # rtt_ms does not fit the sync report's unsigned 32 bits.
    with pytest.raises(ConfigError) as exc:
        parse_config(sync_bound_raw(2147484648, 2**33))
    assert exc.value.errors == ["protocol.sync_timeout_ms: must be <= 4294967295"]


def test_a_sync_timeout_past_the_32_bit_round_trip_is_refused_in_code():
    protocol = parse_config(sync_bound_raw(2147484648, 2**32 - 1)).protocol
    with pytest.raises(FieldError) as exc:
        replace(protocol, sync_timeout_ms=2**33)
    assert (exc.value.field, exc.value.reason) == ("sync_timeout_ms", "must be <= 4294967295")


def test_a_sync_round_trip_just_inside_the_32_bit_timeout_is_reported():
    trace = run_scenario(parse_config(sync_bound_raw(2**31 - 1, 2**32 - 1)), seed=0)
    assert trace.metrics["devices"]["dev1"]["sync"]["rtt_ms"] == 2**32 - 2
    assert replay(trace.lines).passed


def test_a_latency_range_up_to_max_ms_runs():
    # Drawn with the upper end included, so hi + 1 never leaves int64.
    raw = small_raw(duration_ms=60_000)
    raw["channel"]["latency_ms"] = [0, MAX_MS]
    trace = run_scenario(parse_config(raw), seed=0)
    assert trace.metrics["devices"]["dev1"]["frames_sent"] > 0
    assert replay(trace.lines).passed


def _active_ms(energy_parts: list[str]) -> int:
    """Dwell outside Sleep on an energy line: Sampling + Processing + Transmitting."""
    return sum(int(field) for field in energy_parts[10:13])


def burst_cut_raw():
    """An alert burst on entering Transmitting empties the battery for good."""
    raw = small_raw(
        duration_ms=600_000, alert_labels=["Walk"], report_every_n_windows=1000, energy_log_interval_ms=1000,
    )
    raw["device_profile"]["p_tx_mw"] = 100_000.0
    raw["energy"]["battery_initial_mwh"] = 1.0
    raw["scenario"]["devices"][0].update(schedule=[["Walk", 600_000]], alert_schedule=[])
    return raw


def test_alert_burst_depleting_the_battery_ends_the_cycle():
    # The alert raised as the device enters Transmitting drains the battery:
    # the device sleeps at once, and the cycle's pending TxDone must not
    # move it on.
    trace = run_scenario(parse_config(burst_cut_raw()), seed=0)
    rows = [line.split("\t") for line in trace.lines]
    at = next(i for i, parts in enumerate(rows) if parts[1] == "battery_depleted")
    assert rows[at][0] == "20575"
    # The alert frame was on the air before its own burst emptied the battery, and the forced sleep closed the run.
    assert [parts[1] for parts in rows[at - 3:at]] == ["alert_sent", "frame_tx", "classify_run"]
    assert rows[at - 1][0] == "20575"
    assert not classified_windows(trace.lines[at:])
    active = {_active_ms(parts) for parts in rows[at:] if parts[1] == "energy"}
    assert len(active) == 1
    # The cut cycle entered Transmitting and left it in the same millisecond.
    windows = len(classified_windows(trace.lines))
    assert trace.metrics["devices"]["dev1"]["dwell_ms"]["Transmitting"] == windows - 1
    assert replay(trace.lines).passed


def test_depleted_device_hears_nothing():
    # The host acks the alert whose burst emptied the battery, but the ack
    # lands while the radio is off: the alert is never marked delivered.
    trace = run_scenario(parse_config(burst_cut_raw()), seed=0)
    rows = [line.split("\t") for line in trace.lines]
    at = next(i for i, parts in enumerate(rows) if parts[1] == "battery_depleted")
    assert not any(parts[1] == "battery_recovered" for parts in rows)
    assert any(parts[1:4] == ["frame_tx", "host", "ACK"] for parts in rows[at:])
    assert not any(parts[1] in ("frame_rx", "alert_delivered") and parts[2] == "dev1" for parts in rows[at:])
    assert replay(trace.lines).passed


@pytest.mark.parametrize("kind", ["frame_rx", "frame_reject", "alert_delivered", "sync", "classify_run"])
def test_replay_detects_a_device_hearing_while_depleted(depletion_trace, small_trace, runs_trace, kind):
    lines = list(depletion_trace.lines)
    kinds = [line.split("\t")[1] for line in lines]
    down = kinds.index("battery_depleted")
    # The depletion pin has no sync line; the small traces' are for dev1 too.
    heard = next(line for line in lines + small_trace.lines + runs_trace.lines if line.split("\t")[1:3] == [kind, "dev1"])
    # At the depletion's own time, so that the line is in time order and its only fault is being heard. A
    # run is one window 1 ms later, after the depletion, with the device's next window index, and the trace
    # ends with it: the device's later windows would repeat that index.
    parts = [lines[down].split("\t")[0], *heard.split("\t")[1:]]
    if kind == "classify_run":
        parts[0] = parts[3] = str(int(parts[0]) + 1)
        parts[4:7] = str(classified_windows(lines[:down])[-1][2] + 1), "1", "0"
        del lines[down + 1 :]
    lines.insert(down + 1, "\t".join(parts))
    report = replay(lines)
    assert report.failures == [f"line {down + 2}: device dev1 logged {kind} while depleted"]


def test_cycle_cut_short_stays_ended_after_the_battery_recovers():
    # At 0.05 kbit/s a 38-byte frame takes 6080 ms on the air. The alert
    # burst on entering Transmitting at 61285 ms empties the 0.1 mWh battery;
    # 40 mW of harvest recovers it by the 62000 ms energy tick, before the
    # cut cycle's TxDone falls due at 67365 ms. That TxDone must find a newer
    # cycle: the device stays asleep until the next wake check, at 120000 ms.
    raw = small_raw(
        duration_ms=130_000, alert_labels=["Walk"], report_every_n_windows=1,
        tx_bitrate_kbps=0.05, energy_log_interval_ms=500,
    )
    raw["device_profile"]["p_tx_mw"] = 100.0
    raw["energy"].update(battery_capacity_mwh=0.1, battery_initial_mwh=0.1, harvest_profile_mw=[40.0] * 24)
    raw["scenario"]["devices"][0].update(schedule=[["Walk", 60_000]], alert_schedule=[])
    trace = run_scenario(parse_config(raw), seed=0)
    rows = [line.split("\t") for line in trace.lines]
    events = [
        (int(parts[0]), parts[1])
        for parts in rows
        if parts[1] in ("battery_depleted", "battery_recovered") and 61_285 <= int(parts[0])
    ]
    assert events[:2] == [(61_285, "battery_depleted"), (62_000, "battery_recovered")]
    energy = [(int(parts[0]), int(parts[9]), _active_ms(parts)) for parts in rows if parts[1] == "energy"]
    t0, sleep0, active0 = next(e for e in energy if e[0] == 61_500)
    for t, sleep, active in energy:
        if t0 <= t <= 120_000:
            assert (sleep - sleep0, active) == (t - t0, active0), t
    assert next(active for t, _, active in energy if t > 120_000) > active0
    assert replay(trace.lines).passed


def test_depleted_device_sends_nothing_until_it_recovers(depletion_trace):
    # The battery empties while alert seq 30 awaits its 2nd attempt: the
    # attempts that fall due while depleted are not made, and recovery
    # resumes the alert with its 2nd.
    rows = [line.split("\t") for line in depletion_trace.lines]
    kinds = [parts[1] for parts in rows]
    down, up = kinds.index("battery_depleted"), kinds.index("battery_recovered")
    assert (rows[down][0], rows[up][0]) == ("19284", "2880000")
    assert not any(parts[1] == "frame_tx" and parts[2] == "dev1" for parts in rows[down:up])
    attempts = [(int(parts[0]), int(parts[4])) for parts in rows if parts[1] == "alert_sent" and parts[3] == "30"]
    assert attempts == [(19_143, 1), (2_880_000, 2)]
    # replay names a frame sent in between.
    lines = list(depletion_trace.lines)
    lines.insert(down + 1, next(line for line in lines[up:] if line.split("\t")[1:3] == ["frame_tx", "dev1"]))
    report = replay(lines)
    assert report.failures == [f"line {down + 2}: device dev1 transmitted while depleted"]


def test_recovery_within_a_retry_interval_resumes_one_retry_chain():
    # Sampling at 2 W empties the 0.02 mWh battery by the 50 ms energy tick,
    # 40 ms after the alert's first attempt. 57 mW of harvest recovers it at
    # 150 ms, before that attempt's retry falls due at 210 ms: recovery sends
    # attempt 2 at once, and the stale retry at 210 ms must not start a second
    # chain. The link loses every frame, so the alert runs all ten attempts.
    raw = small_raw(duration_ms=300_000, energy_log_interval_ms=50)
    raw["channel"]["loss_probability"] = 1.0
    raw["device_profile"]["p_active_har_mw"] = 2000.0
    raw["energy"].update(battery_capacity_mwh=0.02, battery_initial_mwh=0.02, harvest_profile_mw=[60.0] * 24)
    raw["scenario"]["devices"][0].update(schedule=[["Walk", 300_000]], alert_schedule=[[10, "Jump"]])
    trace = run_scenario(parse_config(raw), seed=0)
    rows = [line.split("\t") for line in trace.lines]
    events = [(int(parts[0]), parts[1]) for parts in rows if parts[1] in ("battery_depleted", "battery_recovered")]
    assert events == [(50, "battery_depleted"), (150, "battery_recovered")]
    attempts = [(int(parts[0]), int(parts[4])) for parts in rows if parts[1] == "alert_sent"]
    assert attempts == [(10, 1)] + [(150 + 200 * k, k + 2) for k in range(9)]
    assert replay(trace.lines).passed


def test_depleted_device_skips_its_sync_rounds():
    # Sampling at 2 W empties the battery as the first window ends at 1280 ms,
    # and hour 0 has no harvest. The sync reply, 2 s each way, arrives at
    # 4000 ms, while the radio is off: the device never hears it, so the
    # request times out at 5000 ms and its retry, being due while depleted,
    # skips the round. The rounds due every 400 s while it is depleted are
    # skipped, not made up at the recovery at 3660000 ms: the next request
    # goes out at 4005000 ms.
    raw = small_raw(duration_ms=4_200_000, energy_log_interval_ms=60_000)
    raw["channel"]["latency_ms"] = 2_000
    raw["protocol"].update(sync_interval_ms=400_000, sync_timeout_ms=5_000)
    raw["device_profile"]["p_active_har_mw"] = 2000.0
    raw["energy"].update(battery_capacity_mwh=0.02, battery_initial_mwh=0.02, harvest_profile_mw=[0.0] + [60.0] * 23)
    raw["scenario"]["devices"][0].update(schedule=[["Walk", 4_200_000]], alert_schedule=[])
    trace = run_scenario(parse_config(raw), seed=0)
    rows = [line.split("\t") for line in trace.lines]
    events = [(int(parts[0]), parts[1]) for parts in rows if parts[1] in ("battery_depleted", "battery_recovered", "sync")]
    assert events == [(1_280, "battery_depleted"), (3_660_000, "battery_recovered"), (4_009_000, "sync")]
    sent = [int(parts[0]) for parts in rows if parts[1:4] == ["frame_tx", "dev1", "TIME_SYNC"]]
    assert sent == [0, 4_005_000, 4_009_000]
    # The host's reply went out at 2000 ms; nothing is logged when it lands.
    assert ["2000", "frame_tx", "host", "ACK"] in [parts[:4] for parts in rows]
    assert not any(2_000 < int(parts[0]) < 60_000 for parts in rows)
    assert replay(trace.lines).passed


def test_a_dwell_end_queued_before_a_forced_sleep_is_stale_after_the_next_wake():
    """A 30 W radio: the alert burst at 100 ms empties the battery in the first
    window's Sampling dwell, whose end is queued for 1,280 ms. 60 mW of harvest
    recovers it by the wake check at the block start at 300 ms, and the device
    samples again. The stale dwell end finds a newer cycle and does nothing, so
    the windows are classified at 1,580 ms and every 1,286 ms after."""
    raw = small_raw(duration_ms=5_000)
    raw["channel"]["loss_probability"] = 1.0
    raw["protocol"].update(retry={"interval_ms": 200, "max_attempts": 1}, sync_timeout_ms=10_000)
    raw["device_profile"]["p_tx_mw"] = 30_000.0
    raw["energy"].update(battery_capacity_mwh=0.02, battery_initial_mwh=0.02, harvest_profile_mw=[60.0] * 24)
    raw["scenario"]["devices"][0].update(schedule=[["Walk", 300], ["Walk", 4_700]], alert_schedule=[[100, "Jump"]])
    trace = run_scenario(parse_config(raw), seed=0)
    rows = [line.split("\t") for line in trace.lines]
    events = [(int(parts[0]), parts[1]) for parts in rows if parts[1] in ("battery_depleted", "battery_recovered")]
    assert events == [(100, "battery_depleted"), (300, "battery_recovered")]
    assert [t_ms for t_ms, *_ in classified_windows(trace.lines)] == [1_580, 2_866, 4_152]
    assert replay(trace.lines).passed


def test_a_forced_sleep_inside_a_processing_dwell_does_not_repeat_its_window_index():
    """A shard-fuzzer example (hypothesis seed 991, scenario seed 3709): a gesture device on a small
    battery that a 1.9 mW harvest refills, whose 374 mW radio empties it while a window classified at
    its Sampling end is in Processing. The next wake's first window takes the next index; when the index
    advanced only at the Processing end it took the same one, and replay failed `dev8 window 26 not above
    26`."""
    raw = small_raw(duration_ms=240_000, report_every_n_windows=16, tx_bitrate_kbps=120, idle_timeout_ms=3_000,
                    inference_latency_ms=5, energy_log_interval_ms=3_600_000)
    raw["scenario"]["devices"] = [{"id": 8, "app": "gesture", "clock_offset_ms": 531,
                                   "schedule": [["Down", 4_852]], "alert_schedule": [[4_216, "Up"]]}]
    raw["energy"].update(battery_capacity_mwh=0.2913721228587172, battery_initial_mwh=0.03978060048421983,
                         harvest_profile_mw=[1.9] * 24, charge_efficiency=1.0)
    raw["device_profile"]["p_tx_mw"] = 374.4647313050333
    raw["channel"] = {"latency_ms": [16, 57], "loss_probability": 0.0, "corruption_probability": 0.10700563245144779}
    lines = run_scenario(parse_config(raw), seed=3709).lines
    assert "battery_depleted" in "".join(lines)
    indices = [index for _, _, index, *_ in classified_windows(lines)]
    assert indices == list(range(len(indices)))
    assert replay(lines).passed


# -- shards ----------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")


def _on_cpus(monkeypatch, cpus: int) -> None:
    """Make run_scenario see `cpus` usable CPUs (never more than 4 here)."""
    assert 1 <= cpus <= 4
    monkeypatch.setattr(simengine, "_usable_cpus", lambda: cpus)


def _count_forks(monkeypatch) -> list:
    """The processes run_scenario forks from now on, each still started."""
    import multiprocessing.context

    started = []
    real_start = multiprocessing.context.ForkProcess.start
    monkeypatch.setattr(
        multiprocessing.context.ForkProcess, "start", lambda process: (started.append(process), real_start(process))[1]
    )
    return started


def _forked_and_in_process(monkeypatch, config, seed, cpus):
    """The trace text of config forked over `cpus` CPUs, and run in one process."""
    started = _count_forks(monkeypatch)
    _on_cpus(monkeypatch, cpus)
    forked = run_scenario(config, seed).text()
    assert len(started) == min(cpus, len(config.scenario.devices)) - 1
    _on_cpus(monkeypatch, 1)
    return forked, run_scenario(config, seed).text()


def three_device_raw():
    """The reference devices for an hour, and a third with its own schedule, on a lossy link."""
    raw = small_raw(duration_ms=3_600_000, alert_labels=["Jump"])
    raw["channel"] = {"latency_ms": [5, 60], "loss_probability": 0.2, "corruption_probability": 0.1}
    with open(REFERENCE) as f:
        raw["scenario"]["devices"] = json.load(f)["scenario"]["devices"]
    raw["scenario"]["devices"].append(
        {"id": 7, "app": "har", "clock_offset_ms": 90,
         "schedule": [["Jump", 30_000], ["Walk", 90_000], ["Sit", 60_000]], "alert_schedule": [[1_000, "Walk"]]},
    )
    return raw


@needs_fork
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forked_reference_day_equals_the_in_process_run(monkeypatch, seed):
    with open(REFERENCE) as f:
        raw = json.load(f)
    raw["scenario"]["duration_ms"] = DAY_MS
    forked, alone = _forked_and_in_process(monkeypatch, parse_config(raw), seed, cpus=2)
    assert forked == alone


@needs_fork
def test_forked_lossy_model_run_equals_the_in_process_run(monkeypatch, trained_model_path, lossy_model_trace):
    forked, alone = _forked_and_in_process(monkeypatch, parse_config(lossy_model_raw(trained_model_path)), 0, cpus=2)
    assert forked == alone == lossy_model_trace.text()


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_forked_three_device_run_equals_the_in_process_run(monkeypatch, cpus):
    forked, alone = _forked_and_in_process(monkeypatch, parse_config(three_device_raw()), 4, cpus)
    assert forked == alone
    kinds = {line.split("\t")[1] for line in alone.splitlines()}
    assert {"frame_lost", "frame_corrupt", "alert_delivered"} <= kinds


def _reference_hour():
    with open(REFERENCE) as f:
        raw = json.load(f)
    raw["scenario"]["duration_ms"] = 3_600_000
    return parse_config(raw)


@needs_fork
@pytest.mark.parametrize("failing", [2, 1], ids=["in-child", "in-parent"])
def test_a_failing_shard_raises_its_error_and_leaves_no_child(monkeypatch, capfd, failing):
    import multiprocessing

    real_start = SimDevice.start

    def start(device):
        if device.spec.device_id == failing:
            raise ValueError(f"device {failing} cannot start")
        real_start(device)

    monkeypatch.setattr(SimDevice, "start", start)
    _on_cpus(monkeypatch, 2)  # the parent runs device 1's shard, one child device 2's
    with pytest.raises(ValueError, match=f"^device {failing} cannot start$"):
        run_scenario(_reference_hour(), seed=0)
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""


@needs_fork
def test_a_child_that_dies_unheard_is_an_error(monkeypatch):
    import multiprocessing

    parent, real_start = os.getpid(), SimDevice.start

    def start(device):
        if device.spec.device_id == 2 and os.getpid() != parent:
            os._exit(3)
        real_start(device)

    monkeypatch.setattr(SimDevice, "start", start)
    _on_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^shard process exited with code 3 and sent no result$"):
        run_scenario(_reference_hour(), seed=0)
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize(
    "devices, cpus, can_fork, children",
    [(1, 4, True, 0), (2, 4, True, 1), (3, 2, True, 1), (3, 4, True, 2), (3, 4, False, 0)],
)
def test_processes_are_at_most_devices_and_cpus(monkeypatch, devices, cpus, can_fork, children):
    """The parent and its children number min(devices, CPUs), or one where the platform cannot fork."""
    raw = three_device_raw()
    raw["scenario"].update(duration_ms=60_000, devices=raw["scenario"]["devices"][:devices])
    config = parse_config(raw)
    expected = run_scenario(config, seed=0).text()
    started = _count_forks(monkeypatch)
    _on_cpus(monkeypatch, cpus)
    if not can_fork:
        monkeypatch.delattr(os, "fork")
    assert run_scenario(config, seed=0).text() == expected
    assert len(started) == children


_WRITTEN = (".trace", "_metrics.json", "_observations.csv")  # the files simulate writes, after the trace's stem


def _simulate(tmp_path, raw: dict, name: str, seed: int = 0) -> None:
    """Run openhealth simulate on raw at seed, writing tmp_path/name + each suffix of _WRITTEN."""
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["simulate", "--config", str(config), "--seed", str(seed), "--trace", str(tmp_path / f"{name}.trace")]) == 0


def _reference_day_raw():
    with open(REFERENCE) as f:
        raw = json.load(f)
    raw["scenario"]["duration_ms"] = DAY_MS
    return raw


@pytest.fixture(scope="module")
def reference_day_trace():
    return run_scenario(parse_config(_reference_day_raw()), seed=0)


@needs_fork
@pytest.mark.parametrize(
    "case, cpus",
    [("reference_day", 2), ("reference_day", 1), ("lossy_model", 2), ("lossy_model", 1), ("depletion", 1)],
)
def test_simulate_writes_the_files_of_run_scenario_and_the_writers(monkeypatch, request, tmp_path, capsys, case, cpus):
    """The one streaming pass writes, byte for byte, what the whole-trace
    path writes: run_scenario, then write_trace, write_metrics and
    write_observation_log, forked and in process."""
    trace = request.getfixturevalue(f"{case}_trace")
    raw = {
        "reference_day": _reference_day_raw,
        "lossy_model": lambda: lossy_model_raw(request.getfixturevalue("trained_model_path")),
        "depletion": depletion_raw,
    }[case]()
    write_trace(trace, tmp_path / "whole.trace")
    write_metrics(trace.metrics, tmp_path / "whole_metrics.json")
    write_observation_log(trace_observations(trace.lines), tmp_path / "whole_observations.csv")
    _on_cpus(monkeypatch, cpus)
    _simulate(tmp_path, raw, "streamed")
    for suffix in _WRITTEN:
        assert (tmp_path / f"streamed{suffix}").read_bytes() == (tmp_path / f"whole{suffix}").read_bytes(), suffix
    assert f"({len(trace.lines)} events)" in capsys.readouterr().out


def _simulate_peak(tmp_path, raw: dict) -> tuple[int, int]:
    """simulate's tracemalloc peak on raw, and the bytes of the trace it wrote with each run written out
    one classify line a window: what the run classified, which the trace's own bytes no longer follow. A full
    collection first empties the interpreter's free lists, so that the peak counts every block the run takes,
    whatever ran before it."""
    gc.collect()
    tracemalloc.start()
    try:
        _simulate(tmp_path, raw, "peak")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = one_line_a_window((tmp_path / "peak.trace").read_text(encoding="utf-8").splitlines())
    return peak, sum(len(line) + 1 for line in lines)


def _steady_walk_raw(duration_ms: int) -> dict:
    """The reference config with both devices walking all the time on a battery that does not empty, no
    duty plan and a report every 1,000 windows: a run of the cycle loop takes up to an hour slot's windows,
    ~2,700, and one classify run holds up to 1,000 windows."""
    raw = _reference_day_raw()
    raw["energy"].update(battery_capacity_mwh=10_000.0, battery_initial_mwh=10_000.0)
    raw["scenario"].update(duration_ms=duration_ms, report_every_n_windows=1000, use_duty_plan=False)
    for device in raw["scenario"]["devices"]:
        device.update(schedule=[["Walk", duration_ms]], alert_schedule=[])
    return raw


def _reference_raw(duration_ms: int) -> dict:
    raw = _reference_day_raw()
    raw["scenario"]["duration_ms"] = duration_ms
    return raw


@pytest.mark.parametrize(
    "make_raw, duration_ms",
    [(_reference_raw, 2 * DAY_MS), (_steady_walk_raw, 2 * 3_600_000)],
    ids=["reference-day", "steady-walk-rare-reports"],
)
def test_simulate_memory_does_not_grow_with_the_run(monkeypatch, tmp_path, make_raw, duration_ms):
    """Doubling the run grows simulate's peak by less than 5% of the trace
    bytes it adds, written one line a window (_simulate_peak): the shards
    spool to files a bounded number of lines at a time, however those lines
    were written, a classify run holds nothing per window, and the merge, the
    writers and the metrics fold hold a line at a time, never the trace. The
    reference run starts at two days, where each shard's spool file is about
    twenty times the buffers that read and write it."""
    _on_cpus(monkeypatch, 2)  # the parent runs one shard, merges both and writes everything
    _simulate_peak(tmp_path, make_raw(duration_ms // 100))  # first-call allocations
    once, once_bytes = _simulate_peak(tmp_path, make_raw(duration_ms))
    twice, twice_bytes = _simulate_peak(tmp_path, make_raw(2 * duration_ms))
    added = twice_bytes - once_bytes
    assert added > 400_000
    assert twice - once < 0.05 * added


@pytest.fixture
def spool_dir(monkeypatch, tmp_path):
    """The directory where tempfile makes the shards' spool files, for this test alone."""
    spool = tmp_path / "spool"
    spool.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spool))
    return spool


@needs_fork
@pytest.mark.parametrize("failing", [None, 2, 1, "dies"], ids=["none", "in-child", "in-parent", "child-dies"])
def test_no_spool_file_is_left_behind(monkeypatch, spool_dir, failing):
    """Neither a spool file nor its descriptor outlives the run, however it ends; a run makes one spool file
    per device."""
    parent, real_start, real_file = os.getpid(), SimDevice.start, tempfile.TemporaryFile
    open_fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    made = []
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda *args, **kw: made.append(args) or real_file(*args, **kw))

    def start(device):
        if failing == "dies" and device.spec.device_id == 2 and os.getpid() != parent:
            os._exit(3)
        if device.spec.device_id == failing:
            raise ValueError(f"device {failing} cannot start")
        real_start(device)

    monkeypatch.setattr(SimDevice, "start", start)
    _on_cpus(monkeypatch, 2)
    config = _reference_hour()
    if failing is None:
        assert run_scenario(config, seed=0).lines[-1] == "3600000\tscenario_end\tsim"
    else:
        with pytest.raises((ValueError, RuntimeError)):
            run_scenario(config, seed=0)
    assert len(made) == len(config.scenario.devices) == 2
    assert list(spool_dir.iterdir()) == []
    if open_fds is not None:
        assert set(os.listdir("/proc/self/fd")) <= open_fds


def test_a_shard_spools_flushed_lines_and_a_child_sends_none_or_its_error(small_trace):
    """_shard_child, run here: the shard's lines, its host's observation lines
    among them, are in its one file, flushed (a fork child leaves through
    os._exit), before the child reports; what it sends is None, or the
    exception a shard raised, never lines or metrics."""
    import multiprocessing

    config = small_config()
    receiver, sender = multiprocessing.Pipe(duplex=False)
    with tempfile.TemporaryFile("w+", encoding="utf-8") as out:
        simengine._shard_child(sender, lambda index: simengine._shard_lines(config, None, 11, index, out), range(1))
        assert receiver.recv() is None
        spooled = os.pread(out.fileno(), 1 << 20, 0).decode("utf-8")
    assert spooled == "".join(line + "\n" for line in small_trace.lines[2:-1])
    observed = [parts for parts in map(lambda line: line.split("\t"), small_trace.lines) if parts[1] == "observation"]
    spooled_rows = "".join(map(simengine.observation_line_row, spooled.splitlines(keepends=True)))
    assert observed and spooled_rows == "".join(f"{','.join(parts[3:])}\n" for parts in observed)

    def failing(index):
        raise ValueError(f"shard {index} cannot run")

    receiver, sender = multiprocessing.Pipe(duplex=False)
    simengine._shard_child(sender, failing, range(3, 4))
    error = receiver.recv()
    assert isinstance(error, ValueError) and str(error) == "shard 3 cannot run"


def test_simulate_parses_each_line_once_in_the_parent(monkeypatch, tmp_path):
    """In one process, simulate's one pass over the merged trace is the only one that parses it: trace_records
    reads every line of the trace file once, in order, and no shard reads its spool file back."""
    real, parsed = simengine.trace_records, []

    def trace_records(lines, *args, **kw):
        for record in real(lines, *args, **kw):
            parsed.append(record[0])
            yield record

    monkeypatch.setattr(simengine, "trace_records", trace_records)
    _on_cpus(monkeypatch, 1)
    _simulate(tmp_path, small_raw(duration_ms=60_000), "once")
    lines = (tmp_path / "once.trace").read_text(encoding="utf-8").splitlines()
    assert parsed == list(range(1, len(lines) + 1))


def test_a_shard_is_freed_as_it_returns(monkeypatch):
    """With the cyclic collector off, a shard's device is gone once _shard_lines returns: no reference cycle
    (its device and host, or the closures of the alert's receipt and retry, still queued past the end,
    which an alert 1 ms before the end leaves) keeps the shard alive."""
    raw = small_raw(duration_ms=60_000)
    raw["scenario"]["devices"][0]["alert_schedule"] = [[59_999, "Jump"]]
    devices, real_start = [], SimDevice.start
    monkeypatch.setattr(SimDevice, "start", lambda device: devices.append(weakref.ref(device)) or real_start(device))
    gc.disable()
    try:
        with tempfile.TemporaryFile("w+", encoding="utf-8") as out:
            simengine._shard_lines(parse_config(raw), None, 11, 0, out)
        assert len(devices) == 1 and devices[0]() is None
    finally:
        gc.enable()


# Each app's schedule labels; the first is the one its alerts name.
_APP_LABELS = {"har": ["Jump", "Walk", "Sit", "LieDown", "Stand", "Drive"], "gesture": ["Up", "Down", "Left", "Right"]}


@st.composite
def shard_configs(draw):
    """1-3 oracle devices, each `har` or `gesture`, for 1-10 minutes on a lossy, corrupting link
    with a latency range, a report every 1-20 windows at 2-250 kbps, and the duty plan on or off;
    or, without a duty plan, which would fund no cycle, a battery of 0.005-0.05 mWh that nothing
    recharges, or a 0.05-0.5 mWh one that a harvest below the active power refills while the
    device sleeps, so that it empties and recovers inside the run. Each must give the same bytes
    when every dwell end is a queued entry."""
    duration_ms = draw(st.integers(1, 10)) * 60_000
    near_empty = draw(st.booleans())
    raw = small_raw(
        duration_ms=duration_ms, alert_labels=draw(st.sampled_from([[], ["Jump", "Up"]])),
        report_every_n_windows=draw(st.integers(1, 20)), use_duty_plan=not near_empty and draw(st.booleans()),
        tx_bitrate_kbps=draw(st.integers(2, 250)),
    )
    if near_empty:  # a radio of up to 400 mW, so that a transmit dwell or burst may empty it too
        raw["energy"].update(battery_initial_mwh=draw(st.floats(0.005, 0.05)), harvest_profile_mw=[0.0] * 24)
        raw["device_profile"]["p_tx_mw"] = draw(st.floats(15.0, 400.0))
        if draw(st.booleans()):  # harvest below the active power refills a small battery while the device sleeps
            raw["energy"].update(battery_capacity_mwh=draw(st.floats(0.05, 0.5)),
                                 harvest_profile_mw=[draw(st.floats(1.0, 12.0))] * 24)
    low = draw(st.integers(1, 50))
    raw["channel"] = {
        "latency_ms": [low, draw(st.integers(low, 120))],
        "loss_probability": draw(st.floats(0.0, 0.5)),
        "corruption_probability": draw(st.floats(0.05, 0.5)),
    }
    ids = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
    apps = [draw(st.sampled_from(sorted(_APP_LABELS))) for _ in ids]
    raw["scenario"]["devices"] = [
        {
            "id": device_id, "app": app, "clock_offset_ms": draw(st.integers(-1_000, 1_000)),
            "schedule": draw(st.lists(st.tuples(st.sampled_from(_APP_LABELS[app]), st.integers(1_000, 90_000))
                                      .map(list), min_size=1, max_size=4)),
            "alert_schedule": [[draw(st.integers(0, duration_ms - 1)), _APP_LABELS[app][0]]],
        }
        for device_id, app in zip(ids, apps)
    ]
    return raw


def _body(raw, seed):
    """The trace lines between the scenario line and scenario_end, of a trace that replay passes."""
    lines = run_scenario(parse_config(raw), seed).lines
    assert replay(lines).passed
    return lines[2:-1]


def _merged_as_heard_by(shards, ids):
    """Shards, each run alone, merged in the canonical order and logged as a
    host that knows every id in ids logs them: a frame whose corrupted
    device-id byte names one of those ids fails authentication there, where
    the host of a device run alone knows no such device."""
    merged = []
    for line in heapq.merge(*shards, key=lambda line: int(line.split("\t")[0])):
        parts = line.split("\t")
        if parts[1:3] == ["frame_reject", "host"] and parts[4] == "unknown_device" and int(parts[3]) in ids:
            line = "\t".join([*parts[:4], "auth_failure"])
        merged.append(line)
    return merged


@hypothesis_seed(20261038)
@settings(max_examples=15, deadline=None, phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(raw=shard_configs(), seed=st.integers(0, 2**32), data=st.data())
def test_a_device_shard_is_the_same_alone_beside_others_and_renumbered(raw, seed, data):
    """Budget: ~4 s of tier-1 for 15 examples (3.0-5.0 s on a 2-vCPU host), measured after the last edit. The
    fixed seed keeps the examples, and so the time, across edits of this text. Its examples empty a battery
    at a queued dwell end, at a wake check, and in the burst of an alert cycle's alert, of an alert retry
    and of a sync request; and recover it at a wake check, where the loop runs on in stretches that a
    battery just above BATTERY_RECOVERY_FRACTION bounds. simulate writes the same files forked and in one
    process, and the trace file alone gives the metrics it wrote, and the observation log, cut by text
    and parsed. No in-process run draws a window twice. A failing example is
    not shrunk, which would rerun whole scenarios for minutes; its config is noted."""
    note(f"raw = {json.dumps(raw)}")
    with patch.object(SimDevice, "_window_samples", _drawn_once(SimDevice._window_samples)):
        _check_shards(raw, seed, data)


def _drawn_once(real):
    """SimDevice._window_samples, failing where one device draws a (start, columns, samples) window twice."""
    drawn = set()

    def window_samples(device, starts, columns=None, samples=None):
        for start in starts:
            key = device, start, columns, samples  # the device itself: each run has its own
            assert key not in drawn, f"{device.name} drew the window {key[1:]} twice"
            drawn.add(key)
        return real(device, starts, columns, samples)

    return window_samples


def _check_shards(raw, seed, data):
    devices = raw["scenario"]["devices"]
    ids = [device["id"] for device in devices]
    with tempfile.TemporaryDirectory() as tmp:
        written = []
        for cpus in (3, 1):
            with patch.object(simengine, "_usable_cpus", lambda: cpus):
                _simulate(Path(tmp), raw, f"cpus{cpus}", seed)
            written.append([(Path(tmp) / f"cpus{cpus}{suffix}").read_bytes() for suffix in _WRITTEN])
        trace_path = Path(tmp) / "cpus1.trace"
        with open(trace_path, encoding="utf-8") as trace:
            write_metrics(trace_metrics(trace), Path(tmp) / "m.json")
        with open(trace_path, encoding="utf-8") as trace:
            rows = list(map(simengine.observation_line_row, trace))
        write_observation_log(trace_observations(simengine.read_trace(trace_path)), Path(tmp) / "o.csv")
        assert written[0] == written[1]
        assert (Path(tmp) / "m.json").read_bytes() == written[1][1]
        assert (OBSERVATION_HEADER + "\n" + "".join(rows)).encode() == written[1][2]
        assert (Path(tmp) / "o.csv").read_bytes() == written[1][2]

    def alone(device):
        return _body(dict(raw, scenario=dict(raw["scenario"], devices=[device])), seed)

    end_ms, advance_to = raw["scenario"]["duration_ms"], Simulator.advance_to

    def bounded(sim, t_ms):  # the kernel holds no run end: every cycle ends by the scenario's (_slack_ms)
        assert t_ms <= end_ms, f"advance_to({t_ms}) past the scenario's end, {end_ms}"
        advance_to(sim, t_ms)

    with patch.object(Simulator, "advance_to", bounded):
        shards = [alone(device) for device in devices]
    body = _body(raw, seed)
    assert body == _merged_as_heard_by(shards, ids)
    # Each shard, in process, the same with every dwell end a queued entry.
    with _queued_only():
        assert [alone(device) for device in devices] == shards
    # Renumber every device but one; the one kept gives the same shard.
    kept = data.draw(st.integers(0, len(devices) - 1))
    free = st.integers(1, 12).filter(lambda i: i != ids[kept])
    new_ids = data.draw(st.lists(free, min_size=len(devices) - 1, max_size=len(devices) - 1, unique=True))
    renumbered = [dict(device, id=new_ids.pop()) if i != kept else device for i, device in enumerate(devices)]
    shards = [shard if i == kept else alone(device) for i, (shard, device) in enumerate(zip(shards, renumbered))]
    raw = dict(raw, scenario=dict(raw["scenario"], devices=renumbered))
    assert _body(raw, seed) == _merged_as_heard_by(shards, [device["id"] for device in renumbered])


def test_a_frame_corrupted_into_another_device_id_stays_in_its_sender_shard():
    """At seed 3, dev1's frame sent at 516429 ms has its id flipped from 1 to
    3. It stays in dev1's shard; the host, which knows dev3, logs an
    authentication failure, where dev1's host alone knows no device 3."""
    raw = small_raw(duration_ms=600_000)
    raw["channel"] = {"latency_ms": [5, 30], "loss_probability": 0.0, "corruption_probability": 0.5}
    dev1 = raw["scenario"]["devices"][0]
    raw["scenario"]["devices"] = [dev1, dict(dev1, id=3, alert_schedule=[])]
    dev1_alone = _body(dict(raw, scenario=dict(raw["scenario"], devices=[dev1])), 3)
    corrupt = next(line.split("\t") for line in dev1_alone if line.startswith("516429\tframe_corrupt\tchannel\tdev1"))
    assert peek_header(bytes.fromhex(corrupt[-1]))[2] == 3
    heard_alone = [line for line in dev1_alone if "\tframe_reject\thost\t3\t" in line]
    assert len(heard_alone) == 1 and heard_alone[0].endswith("\tunknown_device")
    dev3_alone = _body(dict(raw, scenario=dict(raw["scenario"], devices=raw["scenario"]["devices"][1:])), 3)
    both = _body(raw, 3)
    assert both == _merged_as_heard_by([dev1_alone, dev3_alone], [1, 3])
    assert heard_alone[0].replace("unknown_device", "auth_failure") in both


# SHA-256 of the float64 (label code, confidence) rows that SimDevice._classify
# returns, unrounded, for batches of the first lossy-model device's windows:
# each batch of CLASSIFY_BATCHES, then one batch of the windows at
# CLASSIFY_SPANNING_STARTS, which straddle a block boundary and are each
# synthesized alone. On those the model is unsure, so forward's last bits reach
# the confidence. The trace rounds confidence to CONFIDENCE_SCALE, so the trace
# pins cannot see a change in forward below that resolution; this pin can.
CLASSIFY_SHA256 = "bfcb5d5d72b0619bce8400ec46b62a61423588427dcd3d67c924e0650cd76de1"
CLASSIFY_BATCHES = (
    list(range(0, 16_000, 2_000)), list(range(20_000, 33_000, 2_600)),
    list(range(35_000, 48_000, 3_200)), list(range(50_000, 63_000, 1_600)),
)
CLASSIFY_SPANNING_STARTS = (18_900, 19_300, 19_700, 33_900, 34_300, 34_700, 48_800, 49_200, 49_600, 63_800)


def test_classify_confidences_pinned(trained_model_path):
    config = parse_config(lossy_model_raw(trained_model_path))
    spec = config.scenario.devices[0]
    sim = Simulator(seed=0, out=io.StringIO())
    channel = SimChannel(sim, config.channel, spec.device_id)
    device = SimDevice(sim, spec, config, channel, load_model(trained_model_path))
    batches = [device._window_samples(starts)[0] for starts in CLASSIFY_BATCHES]
    batches.append(np.concatenate([device._window_samples([start])[0] for start in CLASSIFY_SPANNING_STARTS]))
    rows = [row for batch in batches for row in device._classify(batch)]
    assert len({label for label, _ in rows}) >= 3
    assert min(confidence for _, confidence in rows) < 0.9
    digest = hashlib.sha256(np.array(rows, dtype=np.float64).tobytes()).hexdigest()
    assert digest == CLASSIFY_SHA256, "unrounded classify confidences changed"
