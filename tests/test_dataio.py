from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from openhealth.core import ActivityLabel, Annotation, InvalidSample
from openhealth.dataio import (
    DATASET_HEADER,
    DatasetFormatError,
    LabelSignalModel,
    SyntheticActivityModel,
    generate_synthetic,
    read_dataset,
    storage_budget,
    synthesize_signal,
    write_dataset,
)

from conftest import make_recording


def _round_trip(rec, tmp_path):
    """read(write(rec)), checked against rec; the CSV holds values to 6 decimals."""
    first, second = tmp_path / "d.csv", tmp_path / "again.csv"
    write_dataset(rec, first)
    back = read_dataset(first)
    write_dataset(back, second)
    assert second.read_bytes() == first.read_bytes()
    assert np.array_equal(back.t_ms, rec.t_ms)
    assert back.annotations == rec.annotations
    assert np.abs(back.values - rec.values).max() <= 5e-7
    return back, first


def test_round_trip_identity_with_stretch(tmp_path, tiny_har_model):
    schedule = [(ActivityLabel.Walk, 4000), (ActivityLabel.Sit, 3000), (ActivityLabel.Walk, 3000)]
    _round_trip(generate_synthetic(tiny_har_model, schedule, 100.0), tmp_path)


def test_round_trip_identity_without_stretch(tmp_path):
    back, path = _round_trip(make_recording(50, stretch=None), tmp_path)
    assert not back.has_stretch
    # stretch column stays empty on disk
    line = path.read_text().splitlines()[1]
    assert line.split(",")[7] == ""


def test_write_is_byte_deterministic(tmp_path, tiny_har_model):
    rec = generate_synthetic(tiny_har_model, [(ActivityLabel.Walk, 2000)], 100.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(rec, p1)
    write_dataset(rec, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_only_file_is_empty_recording(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(DATASET_HEADER + "\n")
    rec = read_dataset(path)
    assert len(rec) == 0
    assert rec.annotations == []


def test_label_runs_become_annotations(tmp_path):
    path = tmp_path / "runs.csv"
    rows = [
        DATASET_HEADER,
        "0,0.0,0.0,1.0,0.0,0.0,0.0,0.5,Walk",
        "10,0.0,0.0,1.0,0.0,0.0,0.0,0.5,Walk",
        "20,0.0,0.0,1.0,0.0,0.0,0.0,0.5,Sit",
    ]
    path.write_text("\n".join(rows) + "\n")
    rec = read_dataset(path)
    assert rec.annotations == [
        Annotation(0, 11, ActivityLabel.Walk),
        Annotation(20, 21, ActivityLabel.Sit),
    ]


def test_bad_header_names_line_one(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,ax\n")
    with pytest.raises(DatasetFormatError, match="line 1"):
        read_dataset(path)


def test_decreasing_timestamp_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [
        DATASET_HEADER,
        "0,0,0,1,0,0,0,,",
        "10,0,0,1,0,0,0,,",
        "5,0,0,1,0,0,0,,",
    ]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DatasetFormatError, match="line 4"):
        read_dataset(path)


def test_unparseable_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(DATASET_HEADER + "\n0,oops,0,1,0,0,0,,\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        read_dataset(path)


def test_wrong_column_count_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(DATASET_HEADER + "\n0,0,0\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        read_dataset(path)


def test_invalid_recording_rejected_before_write(tmp_path):
    rec = make_recording(20)
    rec.values[5, 0] = 20.0  # beyond accel full scale, set after construction
    with pytest.raises(InvalidSample, match="sample 5"):
        write_dataset(rec, tmp_path / "never.csv")
    assert not (tmp_path / "never.csv").exists()


GOOD_ROW = ["0", "0.0", "0.0", "1.0", "0.0", "0.0", "0.0", "0.5", "Walk"]


@pytest.mark.parametrize(
    "column, text",
    [
        (1, "nan"), (5, "inf"), (7, "nan"), (7, "-inf"),  # non-finite, stretch included
        (3, "16.5"), (4, "-2000.5"), (7, "1.5"), (7, "-0.1"),  # beyond full scale
        (8, "Fly"),  # unknown label name
        (8, "Up"),  # a gesture label among activity labels
        (7, ""),  # stretch missing from one row only
    ],
    ids=[
        "nan-accel", "inf-gyro", "nan-stretch", "inf-stretch",
        "accel-range", "gyro-range", "stretch-above-1", "stretch-below-0",
        "unknown-label", "mixed-label-sets", "partial-stretch",
    ],
)
def test_bad_row_names_line(tmp_path, column, text):
    rows = [DATASET_HEADER]
    for i in range(4):
        row = [str(10 * i)] + GOOD_ROW[1:]
        if i == 2:
            row[column] = text
        rows.append(",".join(row))
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DatasetFormatError, match="^line 4: "):
        read_dataset(path)


_FIELDS = st.sampled_from(
    ["", "0", "10", "-3", "1.5", "0.25", "nan", "inf", "1e400", "20.0", "9" * 25, "Walk", "Up", "Fly", " "]
)
_ROW = st.one_of(st.lists(_FIELDS, max_size=11), st.lists(_FIELDS, min_size=9, max_size=9))
_ROWS = st.lists(_ROW.map(",".join), max_size=6)
_FILES = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200).map(lambda text: text.encode("utf-8", "surrogatepass")),
    _ROWS.map(lambda rows: "\n".join([DATASET_HEADER, *rows]).encode("utf-8")),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_FILES)
def test_read_dataset_raises_only_format_errors(tmp_path, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    try:
        rec = read_dataset(path)
    except DatasetFormatError:
        return
    rec.validate()


@pytest.mark.parametrize("width", [3, 6])
def test_synthesize_signal_narrow_block_matches_leading_columns(tiny_har_model, width):
    sig = tiny_har_model.signals[ActivityLabel.Walk]
    t_s = np.arange(50) / 30.0
    z = np.random.default_rng(3).standard_normal(50 * 7)
    full = synthesize_signal(sig, t_s, z, np.empty((50, 7)))
    narrow = synthesize_signal(sig, t_s, z, np.empty((50, width)))
    assert narrow.tobytes() == np.ascontiguousarray(full[:, :width]).tobytes()


def test_synthesize_signal_stretch_column_needs_stretch_label():
    sig = LabelSignalModel(orientation=(0.0, 0.0, 1.0), freq_hz=1.0, amp_g=0.1, noise_sigma=0.01)
    with pytest.raises(ValueError, match="stretch"):
        synthesize_signal(sig, np.zeros(4), np.zeros(28), np.empty((4, 7)))


def test_generate_synthetic_is_deterministic(tiny_har_model):
    schedule = [(ActivityLabel.Walk, 3000), (ActivityLabel.LieDown, 2000)]
    a = generate_synthetic(tiny_har_model, schedule, 100.0)
    b = generate_synthetic(tiny_har_model, schedule, 100.0)
    assert np.array_equal(a.t_ms, b.t_ms)
    assert np.array_equal(a.values, b.values)
    assert a.annotations == b.annotations


def test_generate_degenerate_model_constant_gravity():
    model = SyntheticActivityModel(
        signals={
            ActivityLabel.LieDown: LabelSignalModel(
                orientation=(1.0, 0.0, 0.0), freq_hz=0.0, amp_g=0.0, noise_sigma=0.0,
                stretch_base=0.1,
            )
        },
        seed=3,
    )
    rec = generate_synthetic(model, [(ActivityLabel.LieDown, 1000)], 100.0)
    assert len(rec) == 100
    assert (rec.values[:, :3] == (1.0, 0.0, 0.0)).all()
    assert (rec.values[:, 3:6] == 0.0).all()


def test_generate_walk_fft_peak_at_model_frequency(tiny_har_model):
    # Independent oracle: FFT of |accel| over the generated 10 s window.
    rate = 100.0
    rec = generate_synthetic(tiny_har_model, [(ActivityLabel.Walk, 10_000)], rate)
    mag = np.linalg.norm(rec.values[:, :3], axis=1)
    spectrum = np.abs(np.fft.rfft(mag - mag.mean()))
    freqs = np.fft.rfftfreq(len(mag), d=1.0 / rate)
    peak = freqs[np.argmax(spectrum)]
    assert abs(peak - 2.0) <= 0.1


def test_model_rejects_duplicate_signatures():
    sig = LabelSignalModel(orientation=(0, 0, 1), freq_hz=1.0, amp_g=0.2, noise_sigma=0.01)
    with pytest.raises(ValueError, match="signature"):
        SyntheticActivityModel(signals={ActivityLabel.Walk: sig, ActivityLabel.Jump: sig}, seed=0)


def test_model_rejects_mixed_stretch_presence():
    with pytest.raises(ValueError, match="stretch"):
        SyntheticActivityModel(
            signals={
                ActivityLabel.Walk: LabelSignalModel((0, 0, 1), 2.0, 0.3, 0.01, stretch_base=0.4),
                ActivityLabel.Sit: LabelSignalModel((0, 1, 0), 0.0, 0.0, 0.01, stretch_base=None),
            },
            seed=0,
        )


def test_schedule_validation(tiny_har_model):
    with pytest.raises(ValueError, match="duration"):
        generate_synthetic(tiny_har_model, [(ActivityLabel.Walk, 0)], 100.0)
    with pytest.raises(ValueError, match="rate_hz"):
        generate_synthetic(tiny_har_model, [(ActivityLabel.Walk, 100)], 0.0)
    with pytest.raises(ValueError, match="signal model"):
        generate_synthetic(tiny_har_model, [(ActivityLabel.Jump, 100)], 100.0)


def test_storage_budget_examples():
    # Direct arithmetic oracle: 250 Hz * 3 channels * 2 B * 3600 s
    assert storage_budget(250, 3, 2, 3600) == 5_400_000
    assert storage_budget(250, 3, 2, 3600) > 5 * 1024 * 1024
    assert storage_budget(100, 3, 2, 3600) == 2_160_000
    assert storage_budget(1, 1, 1, 1) == 1


def test_storage_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        storage_budget(0, 3, 2, 3600)
    with pytest.raises(ValueError):
        storage_budget(100, 3, -2, 3600)


@given(
    st.integers(1, 1000), st.integers(1, 16), st.integers(1, 8), st.integers(1, 10_000),
    st.integers(0, 100), st.integers(0, 4), st.integers(0, 4), st.integers(0, 1000),
)
def test_storage_budget_monotone(r, c, b, d, dr, dc, db, dd):
    base = storage_budget(r, c, b, d)
    assert storage_budget(r + dr, c + dc, b + db, d + dd) >= base
