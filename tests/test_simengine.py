from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import re
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed as hypothesis_seed, settings, strategies as st

from openhealth import simengine
from openhealth.classifier import forward, load_model
from openhealth.cli import main
from openhealth.config import Config, ConfigError, DeviceSpec, load_config, parse_config
from openhealth.core import MAX_MS, ActivityLabel, FieldError
from openhealth.firmware import motion_detector
from openhealth.netproto import AppId, frame_nonce, peek_header, write_observation_log
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


def test_model_driven_classification(tmp_path):
    # train a tiny model on the reference corpus, then drive the sim with it
    from openhealth.classifier import init_model, save_model, train
    from openhealth.dataio import generate_synthetic
    from openhealth.pipeline import extract_feature_matrix, normalize_features, segment, windows_to_matrix

    cfg = load_config(REFERENCE)
    spec = cfg.synthetic["har"]
    rec = generate_synthetic(spec.make_model(3), spec.full_schedule()[:12], 100.0)
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
    sim = Simulator(seed=0)
    device = SimDevice(sim, config.scenario.devices[0], config, SimChannel(sim, config.channel, 3), None)
    (matrix,), counts = device._window_samples([0])  # 64 Down samples, then 64 Up
    assert matrix.shape[0] == 128
    assert counts == [64, 64, 0, 0, 0]  # per code (Up, Down, Left, Right), unlabeled last
    # No 75% majority: training and evaluation drop such a window ...
    assert majority_label(counts, GestureLabel) is None
    # ... but the oracle must name one: the top count, the lowest code on ties.
    assert device._oracle(counts) == (GestureLabel.Up, 0.5)


def test_host_rejects_unassigned_frame_type_without_raising():
    from openhealth.netproto import FrameType, HostGateway, encode_frame
    from openhealth.simengine import SimChannel, SimDevice, SimHost

    config = small_config()
    key = config.protocol.key
    sim = Simulator(seed=0)
    sim.emit("trace_version", "sim", TRACE_VERSION)
    gateway = HostGateway({1: key})
    channel = SimChannel(sim, config.channel, 1)
    host = SimHost(sim, gateway, channel, SimDevice(sim, config.scenario.devices[0], config, channel, None))
    frame = bytearray(encode_frame(FrameType.DATA, 1, 1, b"\x00" * 12, key))
    frame[1] = 0x03 ^ 0x80  # a flipped type bit: no FrameType has this value
    result = gateway.step(sim.now, bytes(frame))
    assert (result.device_id, result.reject, result.frame, result.ack) == (1, "auth_failure", None, None)
    host.receive(bytes(frame))
    assert sim.lines[1].split("\t")[1:5] == ["frame_reject", "host", "1", "auth_failure"]
    assert len(sim.lines) == 2
    assert replay(sim.lines).passed


@pytest.mark.parametrize("acked", ["sync", "alert_delivered"])
def test_device_rejects_a_replayed_ack(acked):
    """A host ACK heard twice acts once: the second is a replay, logged and dropped."""
    from openhealth.netproto import FrameType, encode_frame, pack_ack, pack_sync_reply

    device = _window_device([["Walk", 60_000]], 60_000)
    device._start_sync(attempt=1)  # seq 1
    device._trigger_alert(ActivityLabel.Jump)  # seq 2
    acked_seq, data = (1, pack_sync_reply(0, 0, 0)) if acked == "sync" else (2, b"")
    ack = encode_frame(FrameType.ACK, 1, 1, pack_ack(acked_seq, data), device.key)
    lines = device.sim.lines
    device.receive(ack)
    heard_once = len(lines)
    device.receive(ack)
    assert [line.split("\t")[1:] for line in lines[heard_once:]] == [["frame_reject", "dev1", "1", "replay"]]
    kinds = Counter(line.split("\t")[1] for line in lines)
    assert (kinds["frame_rx"], kinds[acked]) == (1, 1)


def _window_device(schedule, duration_ms, rate_hz=100, seed=5, device_id=1, model=None, labels=None):
    from openhealth.simengine import SimChannel, SimDevice

    raw = small_raw(duration_ms=duration_ms)
    raw["synthetic_models"]["har"]["labels"].update(labels or {})
    raw["device_profile"]["sample_rate_hz"] = rate_hz
    raw["scenario"]["devices"][0].update(id=device_id, schedule=schedule, alert_schedule=[])
    config = parse_config(raw)
    sim = Simulator(seed=seed)
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
    assert device._window(0, labelled=False) == (False, None)
    assert classified == []
    moving, label = device._window(0)
    assert (moving, classified) == (False, [1])
    assert label == real_classify(device, device._window_samples([0])[0])[0]
    assert device._window(0) == (False, label) and classified == [1]


def _scalar_block_runs(device, start_ms):
    """The per-sample scan that _block_runs replaces, kept as its reference."""
    t_ms = start_ms + np.arange(device.window) * device.period_ms
    last_ms = device.scenario.duration_ms - 1
    runs, i = [], 0
    while i < device.window:
        block = [b for b in device.blocks if b[0] <= min(int(t_ms[i]), last_ms)][-1]
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
    for start_ms in range(0, 15_000, 97):  # windows reach up to ~4 s past the scenario end
        t_ms = start_ms + np.arange(device.window) * device.period_ms
        expected = _scalar_block_runs(device, start_ms)
        assert device._block_runs(t_ms) == expected, start_ms
        counts = [0] * (len(device.label_set) + 1)
        for i, j, label in expected:
            counts[label.value] += j - i
        assert device._window_samples([start_ms], columns=3)[1] == counts
        straddled["boundary"] += len({label for _, _, label in expected}) > 1
        straddled["end"] += t_ms[-1] >= 15_000
    assert straddled["boundary"] > 10 and straddled["end"] > 10


# (window start, block runs): single-run windows, one spanning three blocks,
# and one whose last 68 samples lie past the scenario end (a run each).
@pytest.mark.parametrize("start_ms, n_runs", [(0, 1), (5_000, 1), (9_900, 3), (19_400, 69)])
def test_accel_only_window_matches_full_synthesis(start_ms, n_runs):
    device = _window_device([["Walk", 10_000], ["Jump", 500], ["Sit", 9_500]], 20_000)
    assert len(device._block_runs(start_ms + device.sample_offsets_ms)) == n_runs
    (full,), full_counts = device._window_samples([start_ms])
    (accel,), counts = device._window_samples([start_ms], columns=3)
    assert full.shape == (128, 7) and accel.shape == (128, 3)
    assert accel.tobytes() == np.ascontiguousarray(full[:, :3]).tobytes()
    assert counts == full_counts


NOISE_SCHEDULE = [["Walk", 10_000], ["Jump", 500], ["Sit", 9_500]]
_starts = st.integers(0, 20_000)


@pytest.fixture(scope="module")
def noise_device():
    """Shared by every example, so each finds its stream where the last left it."""
    return _window_device(NOISE_SCHEDULE, 20_000)


@hypothesis_seed(20261018)
@settings(max_examples=40, deadline=None)
@given(start_ms=_starts, others=st.lists(_starts, max_size=4), probe=_starts, data=st.data())
def test_window_samples_depend_only_on_seed_device_and_start(noise_device, start_ms, others, probe, data):
    # Windows of one block, of three, and past the scenario end alike.
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
    assert sum(line.split("\t")[1] == "classify" for line in trace.lines) > 50
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


def _classified_alone(device, samples):
    """The per-window rule that a batch classified at once must reproduce:
    the one window alone through features, normalization and forward."""
    normed, _ = normalize_features(extract_feature_matrix(samples[None, :, :]), device.model.stats)
    probs = forward(device.model, normed)[0]
    idx = int(np.argmax(probs))
    return device.label_set(idx), float(probs[idx])


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
    # after a wrong prediction. The fixed starts span three blocks, end at the
    # scenario end, and run past it.
    model = load_model(trained_model_path) if use_model else None
    device = _window_device(AHEAD_SCHEDULE, 50_000, rate_hz, model=model, labels=FULL_SCALE_WALK)
    cycle = device.cycle_ms
    grid = [origin + k * cycle for k in range(steps)]
    off_grid = grid[-1] + cycle + wrong_ms
    fixed = [29_900, 50_000 - device.window_ms, 49_400]
    requests = grid + [off_grid + k * cycle for k in range(steps)] + fixed
    columns = device.channels if use_model else 3
    expected = {start: _window_drawn_alone(device, start, columns) for start in requests}
    # The samples each start was last synthesized with: those its cached entry was labelled from.
    drawn, real = {}, device._window_samples

    def recorded(starts, columns=None):
        matrix, counts = real(starts, columns)
        drawn.update(zip(starts, matrix))
        return matrix, counts

    device._window_samples = recorded
    for order in (requests, data.draw(st.permutations(requests))):
        for start in order:
            moving, labelled = device._window(start)
            alone = expected[start]
            assert drawn[start].tobytes() == alone.tobytes(), start
            assert moving == motion_detector(alone), start
            if use_model:
                assert labelled == _classified_alone(device, alone), start
            else:
                assert labelled == device._oracle(real([start], columns)[1]), start
    # A batch holds only windows of one block, each drawn from its own reset.
    inside = [start for start in grid if start + device.sample_offsets_ms[-1] < 30_000]
    if len(inside) > 1:
        batch, _ = real(inside, columns)
        for start, samples in zip(inside, batch):
            assert samples.tobytes() == expected[start].tobytes(), start


@pytest.mark.parametrize("use_model", [False, True], ids=["oracle", "model"])
def test_each_window_start_is_synthesized_once(monkeypatch, trained_model_path, use_model):
    """A wake's probe window is its first window: no start is drawn twice. A
    model device featurizes each batch in one call as it draws it, so no
    window is featurized twice either."""
    from openhealth import simengine
    from openhealth.simengine import SimDevice

    drawn, batches, featurized = Counter(), [], []
    real = SimDevice._window_samples
    real_features = simengine.extract_feature_matrix

    def counted(self, starts, columns=None):
        drawn.update((self.name, start) for start in starts)
        batches.append(len(starts))
        return real(self, starts, columns)

    def counted_features(windows):
        featurized.append(len(windows))
        return real_features(windows)

    monkeypatch.setattr(SimDevice, "_window_samples", counted)
    monkeypatch.setattr(simengine, "extract_feature_matrix", counted_features)
    raw = small_raw()
    if use_model:
        raw["scenario"]["model_path"] = str(trained_model_path)
    trace = run_scenario(parse_config(raw), seed=11)
    classified = sum(line.split("\t")[1] == "classify" for line in trace.lines)
    assert classified > 50
    assert max(drawn.values()) == 1
    assert max(batches) > 1  # windows were synthesized ahead
    assert classified <= len(drawn) < 1.25 * classified
    assert featurized == (batches if use_model else [])


def _count_batches(monkeypatch, raw):
    """Run raw with seed 11; returns the trace and the size of each batch passed to _window_samples."""
    from openhealth.simengine import SimDevice

    batches = []
    real = SimDevice._window_samples

    def counted(self, starts, columns=None):
        batches.append(len(starts))
        return real(self, starts, columns)

    monkeypatch.setattr(SimDevice, "_window_samples", counted)
    return run_scenario(parse_config(raw), seed=11), batches


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
    trace, batches = _count_batches(monkeypatch, make_raw(tx_bitrate_kbps=2, report_every_n_windows=3))
    classified = sum(line.split("\t")[1] == "classify" for line in trace.lines)
    assert classified > 50 and max(batches) > 1
    assert sum(batches) == classified


def test_oracle_labels_each_batch_once(monkeypatch):
    from openhealth import simengine

    calls = []
    real = simengine.majority_label

    def counted(counts, label_set):
        calls.append(counts)
        return real(counts, label_set)

    monkeypatch.setattr(simengine, "majority_label", counted)
    trace, batches = _count_batches(monkeypatch, _motion_raw())
    assert max(batches) > 1
    assert len(calls) == len(batches) < sum(line.split("\t")[1] == "classify" for line in trace.lines)


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


def test_run_scenario_refuses_a_config_without_scenario():
    with pytest.raises(ConfigError) as exc:
        run_scenario(Config())
    assert exc.value.errors == ["config has no scenario section"]


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
    [("0\ttrace_version\tsim\t2", "trace version 2 != supported 4"), (None, "trace has no version line")],
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
    """lines with the named fields of line index replaced (battery and net
    of an energy line; seq and frame of a frame_tx line)."""
    names = {"energy": ("battery", "net"), "frame_tx": ("type", "device_id", "seq", "length", "frame")}
    parts = lines[index].split("\t")
    for name, value in fields.items():
        parts[3 + names[parts[1]].index(name)] = value
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


def test_metrics_rederivable_from_trace(small_trace):
    assert trace_metrics(small_trace.lines) == small_trace.metrics


def test_simulator_rejects_past_events():
    sim = Simulator(seed=0)
    sim.now = 100
    with pytest.raises(ValueError, match="past"):
        sim.schedule(50, lambda: None)


def test_state_machine_cycle_appears_in_trace(small_trace):
    # Each classified window spends inference_latency_ms in Processing, then
    # one DATA frame's air time in Transmitting: 38 bytes at 250 kbit/s is 1 ms.
    dwell = small_trace.metrics["devices"]["dev1"]["dwell_ms"]
    windows = sum(1 for line in small_trace.lines if line.split("\t")[1] == "classify")
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
LOSSY_MODEL_TRACE_SHA256 = "c1eaee0378ad2d32af761d878eab706cf6f634e42d0fa9a415f798258694682d"
LOSSY_MODEL_SHA256 = "a68fb73d46ee797cb591ddc6b82a5e36c6b926b03d0338295a793780c6274d9d"


@pytest.fixture(scope="module")
def trained_model_path(tmp_path_factory):
    """An OHM1 model trained on 12 blocks of the reference corpus."""
    from openhealth.classifier import init_model, save_model, train
    from openhealth.dataio import generate_synthetic
    from openhealth.pipeline import extract_feature_matrix, normalize_features, segment, windows_to_matrix

    cfg = load_config(REFERENCE)
    spec = cfg.synthetic["har"]
    rec = generate_synthetic(spec.make_model(3), spec.full_schedule()[:12], 100.0)
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
    assert TRACE_VERSION == 4
    model_digest = hashlib.sha256(trained_model_path.read_bytes()).hexdigest()
    assert model_digest == LOSSY_MODEL_SHA256, "trained model bytes changed"
    trace = lossy_model_trace
    kinds = [line.split("\t")[1] for line in trace.lines]
    for kind in ("frame_lost", "frame_corrupt", "frame_reject", "classify", "alert_sent"):
        assert kind in kinds, f"scenario no longer exercises {kind}"
    assert replay(trace.lines).passed
    digest = hashlib.sha256(trace.text().encode("utf-8")).hexdigest()
    assert digest == LOSSY_MODEL_TRACE_SHA256, "model-driven lossy trace bytes changed"


# SHA-256 of the seed-0 trace of depletion_raw() below. A deliberate change to
# the trace bytes bumps TRACE_VERSION and re-pins this digest in the same change.
DEPLETION_TRACE_SHA256 = "d8b87af691667419f8ac85dbf396cb5b4057ab9621565c100db40ea4a5209308"


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
    assert TRACE_VERSION == 4
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
def fixture_traces(small_trace, lossy_model_trace, depletion_trace, dead_link_trace):
    return small_trace, lossy_model_trace, depletion_trace, dead_link_trace


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
        ("{t}\tclassify\thost\t1\tWalk\t10000", "entity 'host' does not log classify lines"),
        ("{t}\tobservation\tdev1\t1\t0\t1\t5\t10000", "entity 'dev1' does not log observation lines"),
        ("{t}\tframe_lost\tdevice1\tdev1\tDATA\t1\t0", "entity 'device1' does not log frame_lost lines"),
    ],
    ids=["unknown-kind", "classify-from-host", "observation-from-a-device", "no-such-entity"],
)
def test_an_unknown_kind_or_a_wrong_entity_is_refused_at_that_line(small_trace, line, detail):
    lines = list(small_trace.lines)
    index = next(i for i, text in enumerate(lines) if text.split("\t")[1] == "classify")
    lines.insert(index, line.format(t=lines[index].split("\t")[0]))
    _readers_refuse_line(lines, index, detail)


def test_trace_records_yield_and_parse_only_the_kinds_asked_for(small_trace):
    observations = list(trace_records(small_trace.lines, ("observation",)))
    assert observations and {kind for _, _, kind, _, _ in observations} == {"observation"}
    assert all(isinstance(app_id, AppId) for *_, (_, _, app_id, _, _) in observations)
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
    # The alert frame was on the air before its own burst emptied the battery.
    assert [parts[1] for parts in rows[at - 2:at]] == ["alert_sent", "frame_tx"]
    assert not any(parts[1] == "classify" for parts in rows[at:])
    active = {_active_ms(parts) for parts in rows[at:] if parts[1] == "energy"}
    assert len(active) == 1
    # The cut cycle entered Transmitting and left it in the same millisecond.
    windows = sum(1 for parts in rows if parts[1] == "classify")
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


@pytest.mark.parametrize("kind", ["frame_rx", "frame_reject", "alert_delivered", "sync"])
def test_replay_detects_a_device_hearing_while_depleted(depletion_trace, small_trace, kind):
    lines = list(depletion_trace.lines)
    kinds = [line.split("\t")[1] for line in lines]
    down = kinds.index("battery_depleted")
    # The depletion pin has no sync line; the small trace's is for dev1 too.
    heard = next(line for line in lines + small_trace.lines if line.split("\t")[1:3] == [kind, "dev1"])
    # At the depletion's own time, so that the line is in time order and its only fault is being heard.
    lines.insert(down + 1, "\t".join([lines[down].split("\t")[0], *heard.split("\t")[1:]]))
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
    with pytest.raises(RuntimeError, match="^shard process exited with code 3 and sent no lines$"):
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


def _simulate(tmp_path, raw: dict, name: str) -> None:
    """Run openhealth simulate on raw at seed 0, writing tmp_path/name + each suffix of _WRITTEN."""
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["simulate", "--config", str(config), "--seed", "0", "--trace", str(tmp_path / f"{name}.trace")]) == 0


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


def _simulate_peak(tmp_path, days: float) -> tuple[int, int]:
    """simulate's tracemalloc peak on the reference config run for `days`
    days, and the bytes of the trace it wrote."""
    raw = _reference_day_raw()
    raw["scenario"]["duration_ms"] = round(days * DAY_MS)
    tracemalloc.start()
    try:
        _simulate(tmp_path, raw, "peak")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, (tmp_path / "peak.trace").stat().st_size


def test_simulate_memory_does_not_grow_with_the_run(monkeypatch, tmp_path):
    """Doubling the run grows simulate's peak by less than 5% of the trace
    bytes it adds: the shards spool to files, and the merge, the writers and
    the metrics fold hold a line at a time, never the trace."""
    _on_cpus(monkeypatch, 2)  # the parent runs one shard, merges both and writes everything
    _simulate_peak(tmp_path, 0.01)  # first-call allocations
    day, day_bytes = _simulate_peak(tmp_path, 1)
    two_days, two_days_bytes = _simulate_peak(tmp_path, 2)
    added = two_days_bytes - day_bytes
    assert added > 400_000
    assert two_days - day < 0.05 * added


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
    """Neither a spool file nor its descriptor outlives the run, however it ends."""
    parent, real_start = os.getpid(), SimDevice.start
    open_fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None

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
    assert list(spool_dir.iterdir()) == []
    if open_fds is not None:
        gc.collect()  # a raised error's traceback keeps the joined child's process object in a reference cycle
        assert set(os.listdir("/proc/self/fd")) <= open_fds


def test_a_shard_spools_flushed_lines_and_a_child_sends_only_its_error(small_trace):
    """_shard_child, run here: the shard's lines are in its file, flushed
    (a fork child leaves through os._exit), before the child reports; what
    it sends is None, or the exception a shard raised, never the lines."""
    import multiprocessing

    config = small_config()
    receiver, sender = multiprocessing.Pipe(duplex=False)
    with tempfile.TemporaryFile("w+", encoding="utf-8") as out:
        simengine._shard_child(sender, lambda index: simengine._shard_lines(config, None, 11, index, out), range(1))
        assert receiver.recv() is None
        spooled = os.pread(out.fileno(), 1 << 20, 0).decode("utf-8")
    assert spooled == "".join(line + "\n" for line in small_trace.lines[2:-1])

    def failing(index):
        raise ValueError(f"shard {index} cannot run")

    receiver, sender = multiprocessing.Pipe(duplex=False)
    simengine._shard_child(sender, failing, range(3, 4))
    error = receiver.recv()
    assert isinstance(error, ValueError) and str(error) == "shard 3 cannot run"


_HAR_LABELS = ["Walk", "Sit", "Jump", "LieDown", "Stand", "Drive"]


@st.composite
def shard_configs(draw):
    """1-3 oracle devices for 1-10 minutes on a lossy, corrupting link with a latency range."""
    duration_ms = draw(st.integers(1, 10)) * 60_000
    raw = small_raw(duration_ms=duration_ms, alert_labels=draw(st.sampled_from([[], ["Jump"]])))
    low = draw(st.integers(1, 50))
    raw["channel"] = {
        "latency_ms": [low, draw(st.integers(low, 120))],
        "loss_probability": draw(st.floats(0.0, 0.5)),
        "corruption_probability": draw(st.floats(0.05, 0.5)),
    }
    ids = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
    block = st.tuples(st.sampled_from(_HAR_LABELS), st.integers(1_000, 90_000)).map(list)
    raw["scenario"]["devices"] = [
        {
            "id": device_id, "app": "har", "clock_offset_ms": draw(st.integers(-1_000, 1_000)),
            "schedule": draw(st.lists(block, min_size=1, max_size=4)),
            "alert_schedule": [[draw(st.integers(0, duration_ms - 1)), "Jump"]],
        }
        for device_id in ids
    ]
    return raw


def _body(raw, seed):
    """The trace lines between the scenario line and scenario_end."""
    return run_scenario(parse_config(raw), seed).lines[2:-1]


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


@settings(max_examples=15, deadline=None)
@given(raw=shard_configs(), seed=st.integers(0, 2**32), data=st.data())
def test_a_device_shard_is_the_same_alone_beside_others_and_renumbered(raw, seed, data):
    devices = raw["scenario"]["devices"]
    ids = [device["id"] for device in devices]

    def alone(device):
        return _body(dict(raw, scenario=dict(raw["scenario"], devices=[device])), seed)

    shards = [alone(device) for device in devices]
    assert _body(raw, seed) == _merged_as_heard_by(shards, ids)
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
    sim = Simulator(seed=0)
    channel = SimChannel(sim, config.channel, spec.device_id)
    device = SimDevice(sim, spec, config, channel, load_model(trained_model_path))
    batches = [device._window_samples(starts)[0] for starts in CLASSIFY_BATCHES]
    batches.append(np.concatenate([device._window_samples([start])[0] for start in CLASSIFY_SPANNING_STARTS]))
    rows = [(label.value, confidence) for batch in batches for label, confidence in device._classify(batch)]
    assert len({label for label, _ in rows}) >= 3
    assert min(confidence for _, confidence in rows) < 0.9
    digest = hashlib.sha256(np.array(rows, dtype=np.float64).tobytes()).hexdigest()
    assert digest == CLASSIFY_SHA256, "unrounded classify confidences changed"
