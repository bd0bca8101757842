from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from openhealth import pipeline
from openhealth.core import ActivityLabel, GestureLabel, LabeledRecording
from openhealth.pipeline import (
    FEATURES_PER_CHANNEL,
    FFT_BINS,
    MIN_WINDOW,
    FeatureStats,
    extract_feature_matrix,
    majority_label,
    normalize_features,
    scan_windows,
    segment,
    window_stride,
    windows_to_matrix,
)

from conftest import make_recording, make_values, sine_recording


def labeled(runs, label_set=ActivityLabel, stretch=0.5):
    """Recording at 10 ms whose label codes follow runs of (label or None, length)."""
    codes = np.concatenate([np.full(k, -1 if label is None else label.value) for label, k in runs])
    n = len(codes)
    return LabeledRecording(np.arange(n) * 10, make_values(n, stretch), codes, label_set)


def features_of(recording, w=128, overlap_fraction=0.5):
    starts, _ = segment(recording, w, overlap_fraction)
    return extract_feature_matrix(windows_to_matrix(recording, starts, w))


def test_segment_basic_arithmetic():
    rec = make_recording(256)
    starts, codes = segment(rec, w=128, overlap_fraction=0.5)
    assert len(starts) == 3
    assert rec.t_ms[starts].tolist() == [0, 640, 1280]
    assert windows_to_matrix(rec, starts, 128).shape == (3, 128, 7)
    assert codes.tolist() == [ActivityLabel.Walk.value] * 3


def test_segment_short_recording_empty():
    rec = make_recording(100)
    starts, codes = segment(rec, w=128)
    assert len(starts) == 0 and len(codes) == 0


def test_segment_count_formula():
    for n in (128, 200, 256, 300, 511):
        for overlap in (0.0, 0.25, 0.5, 0.75):
            rec = make_recording(n)
            stride = window_stride(128, overlap)
            expected = (n - 128) // stride + 1
            assert len(segment(rec, 128, overlap)[0]) == expected, (n, overlap)


def test_majority_label_threshold():
    # 60% Walk / 40% Sit within one window -> Transition (neither >= 75%)
    rec = labeled([(ActivityLabel.Walk, 77), (ActivityLabel.Sit, 51)])
    (_,), (code,) = segment(rec, w=128)
    assert code == ActivityLabel.Transition.value

    # 80% Walk / 20% Sit -> Walk
    rec = labeled([(ActivityLabel.Walk, 103), (ActivityLabel.Sit, 25)])
    (_,), (code,) = segment(rec, w=128)
    assert code == ActivityLabel.Walk.value

    # exactly 75% is a majority; the unlabeled count is the last entry
    assert majority_label([0, 0, 0, 0, 0, 96, 0, 32], ActivityLabel) is ActivityLabel.Walk
    assert majority_label([0, 0, 0, 0, 0, 95, 0, 33], ActivityLabel) is None


def test_majority_label_gesture_has_no_transition():
    rec = labeled([(GestureLabel.Up, 64), (GestureLabel.Down, 64)], GestureLabel, stretch=None)
    (_,), (code,) = segment(rec, w=128)
    assert code == -1
    assert majority_label([64, 64, 0, 0, 0], GestureLabel) is None


def test_partially_unlabeled_window_with_single_annotation():
    rec = labeled([(ActivityLabel.Walk, 64), (None, 64)])  # 50% covered
    (_,), (code,) = segment(rec, w=128)
    assert code == -1


def test_windows_with_time_gaps_are_dropped():
    t = np.concatenate([np.arange(128) * 10, 1270 + 500 + 10 * np.arange(128)])
    rec = LabeledRecording(t, make_values(256))
    starts, _ = segment(rec, w=128, overlap_fraction=0.5)
    # windows straddling the 500 ms gap vanish; clean ones on both sides stay
    windows_t = rec.t_ms[starts[:, None] + np.arange(128)]
    assert np.diff(windows_t, axis=1).max() <= 15
    assert len(starts) == 2


def test_features_constant_channel():
    (feats,) = features_of(make_recording(128))
    az = 2 * FEATURES_PER_CHANNEL  # channel order ax, ay, az
    assert feats[az + 0] == pytest.approx(1.0)  # mean
    assert feats[az + 1] == pytest.approx(0.0)  # std
    assert feats[az + 2] == pytest.approx(1.0)  # min
    assert feats[az + 3] == pytest.approx(1.0)  # max
    assert np.allclose(feats[az + 4 : az + 4 + FFT_BINS], 0.0)


def test_features_pure_sinusoid_bin3_closed_form():
    # Closed-form DFT oracle: x[n] = a*sin(2*pi*3*n/W) has |X_3| = a*W/2,
    # zero elsewhere; features scale by 2/W so feature bin 3 equals a.
    w, a = 128, 0.25
    (feats,) = features_of(sine_recording(w, freq_hz=3 * 100.0 / w, amp=a), w=w)
    az = 2 * FEATURES_PER_CHANNEL
    bins = feats[az + 4 : az + 4 + FFT_BINS]
    assert bins[2] == pytest.approx(a, abs=1e-9)
    for k, v in enumerate(bins):
        if k != 2:
            assert abs(v) < 1e-9


def test_features_deterministic_for_identical_windows():
    f1, _, f3 = features_of(make_recording(256), w=128, overlap_fraction=0.5)
    assert np.array_equal(f1, f3)


def test_features_translation_covariance():
    rng = np.random.default_rng(0)
    base = rng.normal(0, 0.3, (1, 128, 7))
    shifted = base.copy()
    shifted[:, :, 3] += 5.0
    f0 = extract_feature_matrix(base)[0]
    f1 = extract_feature_matrix(shifted)[0]
    ch = 3 * FEATURES_PER_CHANNEL
    assert f1[ch + 0] == pytest.approx(f0[ch + 0] + 5.0, abs=1e-9)
    assert f1[ch + 2] == pytest.approx(f0[ch + 2] + 5.0, abs=1e-9)
    assert f1[ch + 3] == pytest.approx(f0[ch + 3] + 5.0, abs=1e-9)
    mask = np.ones_like(f0, dtype=bool)
    mask[[ch, ch + 2, ch + 3]] = False
    assert np.allclose(f0[mask], f1[mask], atol=1e-9)


def test_features_never_read_outside_window():
    rec_a = make_recording(256)
    values_b = rec_a.values.copy()
    values_b[128:] = (0.3, 0.1, 0.9, 5.0, 0, 0, 0.2)
    rec_b = LabeledRecording(rec_a.t_ms, values_b)
    fa = features_of(rec_a, w=128, overlap_fraction=0.0)[0]
    fb = features_of(rec_b, w=128, overlap_fraction=0.0)[0]
    assert np.array_equal(fa, fb)


def test_feature_matrix_matches_single_window_path(tiny_har_model):
    from openhealth.dataio import generate_synthetic

    rec = generate_synthetic(tiny_har_model, [(ActivityLabel.Walk, 3000)], 100.0, 7)
    starts, _ = segment(rec, w=128, overlap_fraction=0.5)
    batch = extract_feature_matrix(windows_to_matrix(rec, starts, 128))
    singles = np.concatenate([extract_feature_matrix(windows_to_matrix(rec, [s], 128)) for s in starts])
    stacked = np.stack([rec.values[s : s + 128] for s in starts])
    assert np.array_equal(windows_to_matrix(rec, starts, 128), stacked)
    assert np.allclose(batch, singles, atol=0, rtol=0)


def _whole_segment(recording, w, overlap_fraction):
    """segment as one pass over a whole recording computes it: the gap rule
    from a prefix sum over the steps above 1.5 median periods, and the
    reference for scan_windows over blocks."""
    n = len(recording)
    starts = np.arange(0, max(n - w + 1, 0), window_stride(w, overlap_fraction))
    diffs = np.diff(recording.t_ms)
    period = float(np.median(diffs)) if diffs.size else 0.0
    gap_prefix = np.concatenate([[0], np.cumsum(diffs > pipeline.MAX_GAP_PERIODS * period)])
    starts = starts[gap_prefix[starts + w - 1] == gap_prefix[starts]]
    if recording.label_set is None:
        return starts, np.full(len(starts), -1, dtype=np.int64)
    return starts, _one_hot_segment_codes(recording, starts, w)


def _blocks(recording, cuts):
    """The recording cut at the given row indices into consecutive blocks (some may be empty)."""
    bounds = [0, *sorted(cuts), len(recording)]
    return [
        LabeledRecording(recording.t_ms[a:b], recording.values[a:b], recording.codes[a:b], recording.label_set)
        for a, b in zip(bounds, bounds[1:])
    ]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_scan_windows_over_blocks_equal_the_whole_recording(data):
    """Any cut into blocks gives the windows, codes and feature bytes of the
    whole recording: gaps, the median period, labels and a feature stack
    filled across blocks (4 windows a stack here) included."""
    label_set = data.draw(st.sampled_from([ActivityLabel, GestureLabel, None]))
    sizes = data.draw(st.lists(st.integers(1, 60), min_size=1, max_size=8))
    labels = [None] if label_set is None else [None, *label_set]
    runs = [(data.draw(st.sampled_from(labels)), k) for k in sizes]
    codes = np.concatenate([np.full(k, -1 if label is None else label.value) for label, k in runs])
    n = len(codes)
    # Mostly regular steps with jitter and gaps; or two steps about as common, whose median sits on the gap rule's edge.
    choices = data.draw(st.sampled_from([[10, 10, 10, 9, 11, 16, 40, 1], [10, 20], [10, 20, 31]]))
    steps = data.draw(st.lists(st.sampled_from(choices), min_size=n, max_size=n))
    rec = LabeledRecording(np.cumsum(steps), np.random.default_rng(n).uniform(0.0, 1.0, (n, 7)), codes, label_set)
    w = data.draw(st.sampled_from([8, 16, 32]))
    overlap = data.draw(st.sampled_from([0.0, 0.5, 0.75]))
    cuts = data.draw(st.lists(st.integers(0, n), max_size=6))
    blocks = _blocks(rec, cuts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "_FEATURE_WINDOWS", 4)
        windows = scan_windows(blocks, w, overlap, features=w >= 16)
    starts, expected_codes = _whole_segment(rec, w, overlap)
    assert windows.starts.tolist() == starts.tolist()
    assert windows.codes.tolist() == expected_codes.tolist()
    assert (windows.label_set, windows.channels) == (label_set, 7)
    if w >= 16 and len(starts):
        assert windows.features.tobytes() == extract_feature_matrix(windows_to_matrix(rec, starts, w)).tobytes()


def test_scan_windows_median_period_over_blocks():
    """Steps of 10 and 20 ms about equally common put the median on edge:
    10, 15 or 20 ms, which makes the 20 and 25 ms steps gaps or not. So the
    blocks' step histogram must count each step once, and take the mean of
    the middle two of an even count, as np.median does."""
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(20, 300))
        rec = LabeledRecording(np.cumsum(rng.choice([10, 20, 25], n, p=[0.45, 0.45, 0.1])), make_values(n))
        blocks = _blocks(rec, rng.integers(0, n, 6).tolist())
        assert scan_windows(blocks, 16, 0.5, features=False).starts.tolist() == _whole_segment(rec, 16, 0.5)[0].tolist()


def _one_hot_segment_codes(recording, starts, w):
    """Window codes from per-code counts read off one prefix sum of a one-hot
    matrix: the reference for segment's count per code."""
    label_set = recording.label_set
    prefix = np.zeros((len(recording) + 1, len(label_set) + 1), dtype=np.int64)
    np.cumsum(np.eye(len(label_set) + 1, dtype=np.int64)[recording.codes], axis=0, out=prefix[1:])
    labels = [majority_label(c, label_set) for c in (prefix[starts + w] - prefix[starts]).tolist()]
    return np.array([-1 if label is None else label.value for label in labels], dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_segment_codes_equal_the_one_hot_reference(data):
    label_set = data.draw(st.sampled_from([ActivityLabel, GestureLabel]))
    sizes = data.draw(st.lists(st.integers(1, 80), min_size=1, max_size=12))
    runs = [(data.draw(st.sampled_from([None, *label_set])), k) for k in sizes]
    rec = labeled(runs, label_set)
    w = data.draw(st.sampled_from([8, 16, 32]))
    overlap = data.draw(st.sampled_from([0.0, 0.5, 0.75]))
    starts, codes = segment(rec, w, overlap)
    assert codes.tolist() == _one_hot_segment_codes(rec, starts, w).tolist()


def _random_windows(data):
    """A (k, W, c) batch of 1-32 random windows, W in {16, 128}, c in {3, 7}:
    each channel noise about its own offset, at a scale from constant to
    gyro-sized."""
    k = data.draw(st.integers(1, 32), label="k")
    w = data.draw(st.sampled_from([16, 128]), label="W")
    c = data.draw(st.sampled_from([3, 7]), label="c")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    return rng.normal(rng.normal(0.0, 5.0, c), rng.choice([0.0, 0.01, 1.0, 300.0], c), (k, w, c))


def _features_by_channel_loop(windows):
    """The per-channel loop that extract_feature_matrix replaced, kept as its reference."""
    n, w, c = windows.shape
    mean = windows.mean(axis=1)
    std = windows.std(axis=1)
    mn = windows.min(axis=1)
    mx = windows.max(axis=1)
    centered = windows - mean[:, None, :]
    spectrum = np.abs(np.fft.rfft(centered, axis=1))[:, 1 : FFT_BINS + 1, :] * (2.0 / w)
    feats = np.empty((n, c * FEATURES_PER_CHANNEL), dtype=float)
    for ch in range(c):
        base = ch * FEATURES_PER_CHANNEL
        feats[:, base + 0] = mean[:, ch]
        feats[:, base + 1] = std[:, ch]
        feats[:, base + 2] = mn[:, ch]
        feats[:, base + 3] = mx[:, ch]
        feats[:, base + 4 : base + 4 + FFT_BINS] = spectrum[:, :, ch]
    return feats


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_feature_matrix_equals_the_per_channel_loop(data):
    windows = _random_windows(data)
    feats = extract_feature_matrix(windows)
    reference = _features_by_channel_loop(windows)
    assert feats.shape == reference.shape
    assert feats.tobytes() == reference.tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_normalized_features_equal_each_window_alone(data):
    """The simulator featurizes and normalizes a device's windows a batch at
    a time; each row must have the bytes its window gets alone."""
    windows = _random_windows(data)
    dim = windows.shape[2] * FEATURES_PER_CHANNEL
    rng = np.random.default_rng(windows.shape[0])
    stats = FeatureStats(mean=rng.normal(0.0, 3.0, dim), std=rng.uniform(1e-3, 50.0, dim))
    batch, _ = normalize_features(extract_feature_matrix(windows), stats)
    for window, row in zip(windows, batch):
        alone, _ = normalize_features(extract_feature_matrix(window[None, :, :]), stats)
        assert row.tobytes() == alone[0].tobytes()


def test_window_too_short_for_fft_bins():
    """PipelineSettings holds window >= MIN_WINDOW; a shorter stack has too few FFT bins to fill its rows."""
    for w in (1, 2, 8, MIN_WINDOW - 1):
        with pytest.raises(ValueError):
            extract_feature_matrix(np.zeros((1, w, 3)))
    assert extract_feature_matrix(np.zeros((1, MIN_WINDOW, 3))).shape == (1, 3 * FEATURES_PER_CHANNEL)


def test_normalize_zero_variance_floors_to_zero():
    vecs = np.ones((5, 4))
    normed, stats = normalize_features(vecs)
    assert np.allclose(normed, 0.0)
    assert stats.mean.shape == stats.std.shape == (4,)


def test_normalize_self_stats():
    rng = np.random.default_rng(1)
    vecs = rng.normal(3.0, 2.0, (200, 6))
    normed, stats = normalize_features(vecs)
    assert np.allclose(normed.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(normed.std(axis=0), 1.0, atol=1e-6)
    again, _ = normalize_features(vecs, stats)
    assert np.array_equal(normed, again)


def test_normalize_dimension_mismatch():
    _, stats = normalize_features(np.ones((3, 4)))
    with pytest.raises(ValueError, match="broadcast"):
        normalize_features(np.ones((2, 5)), stats)


def test_normalize_empty_without_stats():
    with pytest.raises(ValueError, match="empty"):
        normalize_features(np.empty((0, 4)))
