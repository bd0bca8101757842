"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not deferred.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from openhealth.classifier import (
    EvalReport,
    TrainConfig,
    ablation_compare,
    evaluate,
    init_model,
    loss_and_grad,
    quantize_model,
    render_report,
    split_dataset,
    train,
)
from openhealth.cli import main
from openhealth.config import load_config, parse_config
from openhealth.core import ActivityLabel, DeviceProfile
from openhealth.dataio import generate_synthetic, storage_budget
from openhealth.firmware import (
    PowerState,
    account_energy,
    energy_piece,
    memory_footprint,
    state_power_mw,
)
from openhealth.netproto import (
    FrameType,
    ReplayRejected,
    ReplayWindow,
    decode_frame,
    encode_frame,
    estimate_offset,
    frame_nonce,
    peek_header,
)
from openhealth.pipeline import (
    extract_feature_matrix,
    normalize_features,
    segment,
    windows_to_matrix,
)
from openhealth.simengine import TRACE_VERSION, replay, run_scenario, write_metrics

from conftest import one_line_a_window

REFERENCE = Path("configs/reference.json")
# SHA-256 of the seed-0 reference trace text. A deliberate change to the
# trace bytes bumps TRACE_VERSION and re-pins this digest in the same change.
REFERENCE_TRACE_SHA256 = "362554cdb1d39b3fa3d3500e2fa9e0b8061d60e115183b4d2b11902373ce66ab"
# SHA-256 of the metrics file write_metrics writes for that trace.
REFERENCE_METRICS_SHA256 = "57904c05589588863306cd006a79b21a8101e886d2287479da2ee6a8bb64435a"
# SHA-256 of that trace's lines without its trace_version line, sorted, as
# trace version 3 wrote them. The reference link loses and corrupts nothing
# and has a fixed latency, so version 4 only reorders version 3's lines;
# version 6 writes the same lines with each run of windows in one line, and
# device_init and duty_plan lines that one_line_a_window writes as version 4's.
REFERENCE_SORTED_LINES_SHA256 = "2b7a51b98e8dce7185d15d662f93f7d8728bb0fcd90d9c5b9fbde2884fbe3ead"


def ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE C{criterion:02d} PASS: {message}")


@pytest.fixture(scope="module")
def reference_trace():
    """One 7-day reference run shared by the energy and protocol criteria."""
    config = load_config(REFERENCE)
    return run_scenario(config, seed=0)


def test_reference_trace_digest_pinned(reference_trace, tmp_path):
    assert TRACE_VERSION == 6
    kinds = [line.split("\t")[1] for line in reference_trace.lines]
    assert (kinds.count("classify_run"), len(kinds)) == (224, 13_493)  # the week's 62,247 windows in 224 runs
    digest = hashlib.sha256(reference_trace.text().encode("utf-8")).hexdigest()
    assert digest == REFERENCE_TRACE_SHA256, "reference trace bytes changed"
    write_metrics(reference_trace.metrics, tmp_path / "metrics.json")
    digest = hashlib.sha256((tmp_path / "metrics.json").read_bytes()).hexdigest()
    assert digest == REFERENCE_METRICS_SHA256, "reference metrics bytes changed"


def test_reference_trace_reorders_the_version_3_lines(reference_trace):
    """With each run written out as its windows' classify lines, the trace holds version 3's lines."""
    lines = sorted(line for line in one_line_a_window(reference_trace.lines) if line.split("\t")[1] != "trace_version")
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()
    assert digest == REFERENCE_SORTED_LINES_SHA256, "reference trace holds other lines than version 3's"


def test_c01_synthetic_corpus_accuracy_all_classes():
    t0 = time.perf_counter()
    config = load_config(REFERENCE)
    spec = config.synthetic["har"]
    recording = generate_synthetic(spec.signals, spec.full_schedule(), config.profile.sample_rate_hz, 7)
    w = config.pipeline.window
    starts, codes = segment(recording, w, config.pipeline.overlap)
    starts, labels = starts[codes >= 0], codes[codes >= 0]
    assert 2500 <= len(starts) <= 3500, "shipped corpus should be ~3000 windows"
    feats = extract_feature_matrix(windows_to_matrix(recording, starts, w))

    tc = config.train
    train_idx, test_idx = split_dataset(len(labels), tc.split_fraction, tc.seed)
    x_train, stats = normalize_features(feats[train_idx])
    x_test, _ = normalize_features(feats[test_idx], stats)
    model = init_model((feats.shape[1], config.train.hidden, 7), seed=tc.seed)
    trained, history = train(model, x_train, labels[train_idx])
    assert history[-1] <= history[0]

    report = evaluate(trained, x_test, labels[test_idx], ActivityLabel)
    per_class = {}
    for label in ActivityLabel:
        total = int(report.totals[label.value])
        acc = int(report.corrects[label.value]) / total if total else None
        assert acc is not None, f"{label.name} missing from the test split"
        assert acc >= 0.90, f"{label.name} accuracy {acc:.3f} below 0.90"
        per_class[label.name] = round(100 * acc, 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion must complete in <60 s, took {elapsed:.1f}"
    ok(1, f"{len(starts)} windows, per-class accuracy {per_class}, {elapsed:.1f}s")


def test_c02_report_formatting_golden():
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
    assert text == golden, "rendering must be byte-equal to the golden file"
    lines = {l.split()[0]: l for l in text.splitlines()[1:]}
    assert lines["Drive"].endswith("99.4")
    assert lines["Lie"].endswith("100")
    assert lines["Walk"].endswith("98.5")
    ok(2, "154/155 -> 99.4, 204/204 -> 100, 794/806 -> 98.5, byte-equal golden")


def test_c03_gradient_correctness():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        model = init_model((6, 4, 3), seed=seed)
        x = rng.normal(size=(8, 6))
        y = rng.integers(0, 3, size=8)
        _, grads = loss_and_grad(model, x, y)
        flat_analytic = np.concatenate([g.ravel() for g in (grads.w1, grads.b1, grads.w2, grads.b2)])
        tensors = model.tensors()
        sizes = np.cumsum([0] + [t.size for t in tensors])
        picks = rng.choice(flat_analytic.size, size=20, replace=False)
        for index in picks:
            ti = int(np.searchsorted(sizes, index, side="right")) - 1
            local = np.unravel_index(index - sizes[ti], tensors[ti].shape)
            orig = tensors[ti][local]
            h = 1e-4
            tensors[ti][local] = orig + h
            lp, _ = loss_and_grad(model, x, y)
            tensors[ti][local] = orig - h
            lm, _ = loss_and_grad(model, x, y)
            tensors[ti][local] = orig
            numeric = (lp - lm) / (2 * h)
            rel = abs(flat_analytic[index] - numeric) / max(
                abs(flat_analytic[index]), abs(numeric), 1e-8
            )
            worst = max(worst, rel)
            assert rel < 1e-5, f"seed {seed} param {index}: rel err {rel:.2e}"
    ok(3, f"10 seeds x 20 params, max relative error {worst:.2e} < 1e-5")


def test_c04_storage_claim(tmp_path, capsys):
    assert storage_budget(250, 3, 2, 3600) == 5_400_000
    assert 5_400_000 > 5 * 1024 * 1024

    raw = json.loads(REFERENCE.read_text())
    raw["device_profile"]["sample_rate_hz"] = 250
    config_path = tmp_path / "c250.json"
    config_path.write_text(json.dumps(raw))
    assert main(["budget", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "5,400,000 bytes/hour" in out
    ok(4, "250 Hz x 3 ch x int16 x 1 h = 5,400,000 bytes (> 5 MB), exact")


def test_c05_resource_budgets():
    profile = DeviceProfile()
    qm = quantize_model(init_model((84, 16, 7), seed=0))
    assert qm.flash_bytes < 2048, f"quantized model {qm.flash_bytes} B must be < 2 KB"
    ledger = memory_footprint(128, 7, (84, 16, 7), qm.flash_bytes, profile)
    assert ledger.sram_used_bytes == 6744 <= 20480
    assert ledger.flash_used_bytes == qm.flash_bytes + 32768 <= 131072
    ok(
        5,
        f"SRAM {ledger.sram_used_bytes}/20480 B, flash {ledger.flash_used_bytes}/131072 B, "
        f"quantized model {qm.flash_bytes} B < 2 KB",
    )


def test_c06_energy_neutrality(reference_trace):
    report = replay(reference_trace.lines)
    assert report.passed, f"energy ledger failures: {report.failures[:3]}"
    for name, dev in reference_trace.metrics["devices"].items():
        daily = dev["battery_daily"]
        assert len(daily) >= 8, f"{name}: expected 8 day-boundary levels, got {len(daily)}"
        for (day_a, batt_a), (day_b, batt_b) in zip(daily, daily[1:]):
            assert batt_b >= batt_a - 1e-9, (
                f"{name}: battery fell from {batt_a} to {batt_b} over day {day_a}"
            )
    ok(6, "7-day run: end-of-day battery >= start-of-day for every day and device; "
          "ledger conserved within 1e-6 mWh")


def test_c07_power_arithmetic():
    profile = DeviceProfile()
    har_mw = state_power_mw(profile, "har", PowerState.Processing)
    after_har = account_energy((100.0, 0.0, 0.0, 0.0, 0.0, 0.0), 200.0, [energy_piece(0.0, har_mw, 1.0, 3_600_000)])[0]
    assert after_har == pytest.approx(100.0 - 12.5, abs=0)
    gesture_mw = state_power_mw(profile, "gesture", PowerState.Processing)
    after_gesture = account_energy((100.0, 0.0, 0.0, 0.0, 0.0, 0.0), 200.0, [energy_piece(0.0, gesture_mw, 1.0, 3_600_000)])[0]
    assert after_gesture == pytest.approx(100.0 - 10.0, abs=0)
    ok(7, "1 h Processing drains exactly 12.5 mWh (HAR) and 10.0 mWh (gesture)")


def test_c08_protocol_suite(reference_trace):
    key = bytes(range(16))
    rng = np.random.default_rng(88)
    types = list(FrameType)
    for i in range(1000):
        ftype = types[int(rng.integers(len(types)))]
        device = int(rng.integers(0, 0xFFFF))
        seq = int(rng.integers(0, 0xFFFFFFFF))
        payload = rng.bytes(int(rng.integers(0, 64)))
        decoded = decode_frame(encode_frame(ftype, device, seq, payload, key), key)
        assert (decoded.frame_type, decoded.device_id, decoded.seq, decoded.payload) == (
            ftype, device, seq, payload,
        )

    frame = encode_frame(FrameType.DATA, 7, 99, b"tamper-check-payload", key)
    rejected = 0
    for _ in range(100):
        bit = int(rng.integers(len(frame) * 8))
        tampered = bytearray(frame)
        tampered[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(Exception) as exc:
            decode_frame(bytes(tampered), key)
        assert exc.type.__name__ in ("AuthFailure", "TruncatedFrame", "VersionError")
        rejected += 1
    assert rejected == 100

    window = ReplayWindow()
    decoded = decode_frame(frame, key)
    window.accept(decoded.direction, decoded.seq)
    replayed = decode_frame(frame, key)
    with pytest.raises(ReplayRejected):
        window.accept(replayed.direction, replayed.seq)

    nonces: dict[bytes, str] = {}
    frames_seen = 0
    for line in reference_trace.lines:
        parts = line.split("\t")
        if parts[1] != "frame_tx":
            continue
        frames_seen += 1
        _, type_value, device_id, seq, _ = peek_header(bytes.fromhex(parts[7]))
        direction = 1 if parts[2] == "host" else 0
        nonce = frame_nonce(device_id, seq, direction)
        if nonce in nonces:
            assert nonces[nonce] == parts[7], "nonce reused for different frame bytes"
        nonces[nonce] = parts[7]
    assert frames_seen > 1000
    ok(8, f"1000 round-trips, 100/100 tampers rejected, replay rejected, "
          f"{len(nonces)} unique nonces over {frames_seen} frames")


CANARY_STRETCH = 0.87654321
CANARIES = (
    struct.pack("<d", CANARY_STRETCH),
    struct.pack(">d", CANARY_STRETCH),
    struct.pack("<f", CANARY_STRETCH),
    struct.pack(">f", CANARY_STRETCH),
    f"{CANARY_STRETCH:.6f}".encode(),
)


@pytest.fixture(scope="module")
def canary_trace():
    """Two minutes of one Walk device whose stretch channel is the constant CANARY_STRETCH."""
    raw = json.loads(REFERENCE.read_text())
    raw["synthetic_models"]["har"]["labels"]["Walk"].update(
        {"noise_sigma": 0.0, "stretch_base": CANARY_STRETCH, "stretch_amp": 0.0}
    )
    raw["scenario"]["duration_ms"] = 120_000
    raw["scenario"]["devices"] = [
        {"id": 1, "app": "har", "clock_offset_ms": 0,
         "schedule": [["Walk", 120000]], "alert_schedule": [[40000, "Walk"]]},
    ]
    raw["scenario"]["report_every_n_windows"] = 1
    raw["scenario"]["use_duty_plan"] = False
    return run_scenario(parse_config(raw), seed=13)


def test_c09_privacy_canary(canary_trace):
    canary_stretch, canaries, trace = CANARY_STRETCH, CANARIES, canary_trace
    # positive control: the raw window matrices really do contain the pattern
    device_raw = np.full(8, canary_stretch).tobytes()
    assert canaries[0] in device_raw

    frames = [l for l in trace.lines if l.split("\t")[1] == "frame_tx"]
    assert len(frames) > 50, "scenario must actually transmit"
    hits = 0
    for line in frames:
        blob = bytes.fromhex(line.split("\t")[7])
        hits += sum(blob.count(c) for c in canaries)
    assert hits == 0, f"raw-sample canary leaked {hits} times"
    report = replay(trace.lines, canaries=canaries)
    assert report.passed
    ok(9, f"canary absent from all {len(frames)} transmitted frames (0 occurrences)")


@pytest.mark.parametrize("canary", range(len(CANARIES)))
def test_c09_catches_a_leaked_canary(canary_trace, canary):
    """The counterpart of C09: one DATA frame edited to carry a canary fails
    replay at that frame's line, and only there."""
    lines = list(canary_trace.lines)
    index = next(i for i, line in enumerate(lines) if line.split("\t")[1:4] == ["frame_tx", "dev1", "DATA"])
    parts = lines[index].split("\t")
    frame = bytes.fromhex(parts[7])
    leaked = CANARIES[canary]
    parts[7] = (frame[:12] + leaked + frame[12 + len(leaked) :]).hex()
    lines[index] = "\t".join(parts)
    report = replay(lines, canaries=CANARIES)
    assert report.failures == [f"line {index + 1}: canary bytes {leaked.hex()} leaked on the air"]


def test_c10_sync_accuracy(reference_trace):
    # symmetric latency: exact in the closed form and in the simulated runs
    offset, _ = estimate_offset(1500, 1020, 1020, 1540)
    assert offset == -500.0
    for name, expected in (("dev1", -500.0), ("dev2", 250.0)):
        est = reference_trace.metrics["devices"][name]["sync"]["offset_est_ms"]
        assert est == expected, f"{name}: estimate {est} != exact {expected}"
    # asymmetric latency: error is exactly half the asymmetry
    for up, down in ((10, 30), (0, 40), (25, 5)):
        t1, t2 = 0, up
        t3, t4 = t2, up + down
        est, _ = estimate_offset(t1, t2, t3, t4)
        assert est == (up - down) / 2.0, "true offset 0: error must be (up-down)/2"
    ok(10, "symmetric estimates exact (sim and algebra); asymmetric error = asymmetry/2")


def test_c11_alert_delivery():
    def scenario(loss, seed, duration=120_000):
        raw = json.loads(REFERENCE.read_text())
        raw["channel"]["loss_probability"] = loss
        raw["scenario"]["duration_ms"] = duration
        raw["scenario"]["devices"] = [
            {"id": 1, "app": "har", "clock_offset_ms": 0,
             "schedule": [["LieDown", duration]], "alert_schedule": [[10_000, "Jump"]]},
        ]
        raw["scenario"]["use_duty_plan"] = False
        return run_scenario(parse_config(raw), seed=seed)

    clean = scenario(0.0, seed=1).metrics["devices"]["dev1"]["alerts"]
    assert clean["delivered"] == 1 and list(clean["attempts"].values()) == [1]
    assert list(clean["latency_ms"].values()) == [40]  # 2x the 20 ms channel latency

    dead = scenario(1.0, seed=2).metrics["devices"]["dev1"]["alerts"]
    assert dead["undelivered"] == 1 and list(dead["attempts"].values()) == [10]

    a = scenario(0.5, seed=33).metrics["devices"]["dev1"]["alerts"]
    b = scenario(0.5, seed=33).metrics["devices"]["dev1"]["alerts"]
    assert a == b
    ok(11, f"loss 0: 1 attempt, 40 ms; loss 1: undelivered after exactly 10; "
           f"loss 0.5 reproducible ({list(a['attempts'].values())[0]} attempts)")


def test_c12_determinism(tmp_path):
    raw = json.loads(REFERENCE.read_text())
    raw["scenario"]["duration_ms"] = 600_000
    raw["scenario"]["devices"] = raw["scenario"]["devices"][:1]
    raw["channel"]["latency_ms"] = [5, 60]
    raw["channel"]["loss_probability"] = 0.1
    config = parse_config(raw)
    t1 = run_scenario(config, seed=42)
    t2 = run_scenario(config, seed=42)
    assert t1.lines == t2.lines, "traces must be byte-identical"

    raw_small = json.loads(REFERENCE.read_text())
    raw_small["synthetic_models"]["har"]["repeat"] = 1
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(raw_small))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["datagen", "--config", str(config_path), "--out", str(out1), "--seed", "9"]) == 0
    assert main(["datagen", "--config", str(config_path), "--out", str(out2), "--seed", "9"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    ok(12, "run_scenario and cmd_datagen byte-identical for fixed (config, seed)")


def test_c13_sensor_fusion_ordering():
    # Constructed corpus: Sit and Stand share the accel signal (orientation
    # delta far below the noise floor) and differ only in stretch level.
    from openhealth.dataio import LabelSignalModel

    base = dict(freq_hz=0.0, amp_g=0.0, noise_sigma=0.04)
    signals = {
        ActivityLabel.Sit: LabelSignalModel(
            orientation=(0.35, 0.1, 0.93), stretch_base=0.72, **base
        ),
        ActivityLabel.Stand: LabelSignalModel(
            orientation=(0.3501, 0.1, 0.93), stretch_base=0.08, **base
        ),
    }
    schedule = [(ActivityLabel.Sit, 20_000), (ActivityLabel.Stand, 20_000)] * 10
    recording = generate_synthetic(signals, schedule, 100.0, 5)
    starts, codes = segment(recording, 128, 0.5)
    keep = np.isin(codes, [ActivityLabel.Sit.value, ActivityLabel.Stand.value])
    matrix = windows_to_matrix(recording, starts[keep], 128)
    labels = (codes[keep] == ActivityLabel.Stand.value).astype(int)

    config = TrainConfig(seed=0)
    results = ablation_compare(
        matrix, labels,
        channel_names=("ax", "ay", "az", "gx", "gy", "gz", "stretch"),
        channel_subsets=[("accel",), ("accel", "stretch")],
        config=config,
    )
    accel_only = results[("accel",)]
    fused = results[("accel", "stretch")]
    assert fused > accel_only, f"fusion {fused:.3f} must beat accel-only {accel_only:.3f}"
    margin = 100 * (fused - accel_only)
    ok(13, f"accel+stretch {100 * fused:.1f}% > accel-only {100 * accel_only:.1f}% "
           f"(margin {margin:.1f} points, reported not asserted)")
