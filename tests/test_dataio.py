from __future__ import annotations

import tracemalloc
from itertools import repeat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from openhealth import dataio
from openhealth.core import ActivityLabel, GestureLabel, InvalidSample, LabeledRecording, parse_label
from openhealth.dataio import (
    DATASET_HEADER,
    DatasetFormatError,
    LabelSignalModel,
    SyntheticActivityModel,
    generate_blocks,
    generate_synthetic,
    read_blocks,
    read_dataset,
    storage_budget,
    synthesize_signal,
    write_dataset,
)

from conftest import make_recording, make_values


def _round_trip(rec, tmp_path):
    """read(write(rec)), checked against rec; the CSV holds values to 6 decimals."""
    first, second = tmp_path / "d.csv", tmp_path / "again.csv"
    write_dataset(rec, first)
    back = read_dataset(first)
    write_dataset(back, second)
    assert second.read_bytes() == first.read_bytes()
    assert np.array_equal(back.t_ms, rec.t_ms)
    assert np.array_equal(back.codes, rec.codes) and back.label_set == rec.label_set
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
    assert rec.label_set is None


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
    assert rec.codes.tolist() == [ActivityLabel.Walk.value] * 2 + [ActivityLabel.Sit.value]
    assert rec.label_set is ActivityLabel
    assert write_dataset(rec, tmp_path / "again.csv") == (3, 2)


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
    assert np.array_equal(a.codes, b.codes)


def test_generated_blocks_hold_whole_entries_and_the_bytes_of_one(tiny_har_model, tmp_path, monkeypatch):
    """Blocks of as many whole schedule entries as fit in 350 rows write the
    bytes of the recording made in one block; write_dataset counts its rows
    and its annotations (two Walk entries in a row are one)."""
    schedule = [(ActivityLabel.Walk, 3000), (ActivityLabel.Walk, 1000), (ActivityLabel.Sit, 2000),
                (ActivityLabel.LieDown, 4000), (ActivityLabel.Walk, 500)]
    whole = generate_synthetic(tiny_har_model, schedule, 100.0)
    monkeypatch.setattr(dataio, "_WRITE_ROWS", 350)
    blocks = list(generate_blocks(tiny_har_model, schedule, 100.0))
    assert [len(block) for block in blocks] == [300, 300, 400, 50]
    runs = 1 + np.count_nonzero(np.diff(whole.codes))
    assert write_dataset(whole, tmp_path / "whole.csv") == (1050, 4) == (len(whole), runs)
    assert write_dataset(iter(blocks), tmp_path / "blocks.csv") == (1050, 4)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda b: LabeledRecording(b.t_ms - 10, b.values, b.codes, b.label_set), "first t_ms"),
        (lambda b: LabeledRecording(b.t_ms + 1000, b.values[:, :6], b.codes, b.label_set), "channels"),
        (lambda b: LabeledRecording(b.t_ms + 1000, b.values, np.zeros(len(b), np.int64), GestureLabel), "label set"),
    ],
    ids=["overlapping-time", "other-channels", "other-label-set"],
)
def test_write_refuses_a_block_that_does_not_continue(tmp_path, edit, message):
    first = make_recording(20)
    with pytest.raises(ValueError, match=message):
        write_dataset([first, edit(first)], tmp_path / "bad.csv")
    assert not (tmp_path / "bad.csv").exists()


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


def test_model_needs_a_label():
    with pytest.raises(ValueError, match="at least one label"):
        SyntheticActivityModel(signals={})


def test_schedule_may_not_mix_label_sets():
    walk = LabelSignalModel((0, 0, 1), 2.0, 0.3, 0.01)
    up = LabelSignalModel((0, 1, 0), 1.0, 0.2, 0.01)
    model = SyntheticActivityModel({ActivityLabel.Walk: walk, GestureLabel.Up: up})
    with pytest.raises(ValueError, match="mixes activity and gesture"):
        generate_synthetic(model, [(ActivityLabel.Walk, 100), (GestureLabel.Up, 100)], 100.0)


def test_an_entry_shorter_than_half_a_sample_adds_no_rows(tiny_har_model):
    schedule = [(ActivityLabel.Walk, 1000), (ActivityLabel.Sit, 1), (ActivityLabel.Walk, 500)]
    rec = generate_synthetic(tiny_har_model, schedule, 100.0)
    assert len(rec) == 150
    assert (rec.codes == ActivityLabel.Walk.value).all()


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


# --- the writer against the per-row %-format it replaced -----------------------


def percent_format(rec) -> bytes:
    """The dataset CSV as the per-row ``%`` format writes it: the reference
    for write_dataset's vectorized rows."""
    field = ",%.6f"
    row = "%d" + field * 6 + (field if rec.has_stretch else ",") + ",%s"
    names = [label.name for label in rec.label_set or ()] + [""]
    rows = zip(rec.t_ms.tolist(), *rec.values.T.tolist(), map(names.__getitem__, rec.codes.tolist()))
    return ("\n".join([DATASET_HEADER, *map(row.__mod__, rows)]) + "\n").encode()


def full_scale_values(lo: float, hi: float):
    """Floats in [lo, hi]: the edges, signed zeros, the exact ties of %.6f
    (odd multiples of 1/128) and decimal near-ties (j + 0.5)/1e6."""
    special = [0.0, -0.0, lo, hi, 5e-7, -5e-7, 2.5e-6, 1e-300, -1e-300, 5e-324, -5e-324]
    return st.one_of(
        st.sampled_from([v for v in special if lo <= v <= hi]),
        st.floats(lo, hi),
        st.integers(int(lo * 128), int(hi * 128)).map(lambda k: k / 128),
        st.integers(int(lo * 1e6), int(hi * 1e6) - 1).map(lambda j: (j + 0.5) / 1e6),
    )


_CHANNEL_VALUES = [full_scale_values(-16.0, 16.0)] * 3 + [full_scale_values(-2000.0, 2000.0)] * 3 + [
    full_scale_values(0.0, 1.0)
]
_T_MS = st.one_of(st.sampled_from([-(2**63), 2**63 - 1, -1, 0, 10**18]), st.integers(-(2**63), 2**63 - 1))


@st.composite
def recordings(draw, max_rows: int = 12):
    """Recordings with 6 or 7 channels, activity, gesture or no labels."""
    n = draw(st.integers(0, max_rows))
    c = draw(st.sampled_from([6, 7]))
    t_ms = sorted(draw(st.lists(_T_MS, min_size=n, max_size=n, unique=True)))
    values = [[draw(_CHANNEL_VALUES[ch]) for ch in range(c)] for _ in range(n)]
    label_set = draw(st.sampled_from([ActivityLabel, GestureLabel, None]))
    top = len(label_set) - 1 if label_set else -1
    codes = draw(st.lists(st.integers(-1, top), min_size=n, max_size=n))
    return LabeledRecording(
        np.array(t_ms, dtype=np.int64), np.array(values).reshape(n, c), np.array(codes, dtype=np.int64), label_set
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rec=recordings())
def test_write_matches_percent_format(tmp_path, rec):
    path = tmp_path / "w.csv"
    write_dataset(rec, path)
    assert path.read_bytes() == percent_format(rec)


@pytest.mark.parametrize("c", [6, 7])
def test_write_matches_percent_format_across_chunks(tmp_path, c):
    """More rows than one formatting chunk (8,192), each kind of value on every column."""
    rng = np.random.default_rng(c)
    n = 40_000
    scale = np.array([16.0] * 3 + [2000.0] * 3 + [1.0])[:c]
    values = rng.uniform(-1.0, 1.0, (n, c)) * scale
    values[::7] = np.round(values[::7] * 128) / 128  # binary ties of %.6f
    values[1::7] = (np.round(values[1::7] * 1e6) + 0.5) / 1e6  # decimal near-ties
    values[2::7] = rng.choice([0.0, -0.0, 5e-7, -5e-7, 1e-300], (len(values[2::7]), c))
    values[:, 6:] = np.abs(values[:, 6:])
    values[3::11, 6:] = -0.0
    t_ms = np.cumsum(rng.integers(1, 10**14, n)) - 2**62
    codes = rng.integers(-1, len(ActivityLabel), n)
    rec = LabeledRecording(t_ms, values, codes, ActivityLabel)
    path = tmp_path / "big.csv"
    write_dataset(rec, path)
    assert path.read_bytes() == percent_format(rec)


# --- the reader against the exact field-by-field parser it replaced -----------

_CHUNK_ROWS = 8192  # rows split at once; bounds the transient field strings


def loadtxt_number(convert):
    """int or float, refusing the two spellings they accept and np.loadtxt
    does not: digit separators (``1_0``) and non-ASCII digits."""

    def parse(text: str):
        if "_" in text or any(ch.isdecimal() and not ch.isascii() for ch in text):
            raise ValueError(f"not a loadtxt number: {text!r}")
        return convert(text)

    return parse


def _column(fields, convert, dtype) -> np.ndarray:
    """Convert one column of field strings; a failure raises InvalidSample at its row."""
    try:
        return np.array(list(map(convert, fields)), dtype=dtype)
    except (ValueError, OverflowError):
        for k, text in enumerate(fields):
            try:
                np.array(convert(text), dtype=dtype)
            except (ValueError, OverflowError) as exc:
                raise InvalidSample(k, f"unparseable value {text!r} ({exc})") from None
        raise


def exact_parse_rows(lines: list[str], rows: list[str]) -> LabeledRecording:
    """The data rows parsed field by field with int() and float(), as the
    reader did before it had one parser; every DatasetFormatError names the
    line of the row that breaks a rule."""
    n = len(rows)
    t_ms = np.empty(n, dtype=np.int64)
    values = np.empty((n, 7))
    codes = np.empty(n, dtype=np.int64)
    lookup: dict[str, int] = {"": -1}
    label_set: type | None = None
    has_stretch = None
    for lo in range(0, n, _CHUNK_ROWS):
        chunk = rows[lo : lo + _CHUNK_ROWS]
        m = len(chunk)
        try:
            commas = list(map(str.count, chunk, repeat(",")))
            if commas.count(8) != m:
                k = next(k for k, c in enumerate(commas) if c != 8)
                raise InvalidSample(k, f"expected 9 columns, got {commas[k] + 1}")
            fields = ",".join(chunk).split(",")
            cols = [fields[j::9] for j in range(9)]
            if has_stretch is None:
                has_stretch = cols[7][0] != ""
            if cols[7].count("") != (0 if has_stretch else m):
                k = next(k for k, field in enumerate(cols[7]) if (field != "") != has_stretch)
                raise InvalidSample(k, "stretch present on only some rows")
            converters = [(loadtxt_number(int), np.int64)] + [(loadtxt_number(float), np.float64)] * (
                7 if has_stretch else 6
            )
            parsed = [_column(col, *conv) for col, conv in zip(cols, converters)]
            t_ms[lo : lo + m] = parsed[0]
            values[lo : lo + m, : len(parsed) - 1] = np.array(parsed[1:]).T
            names = cols[8]
            for name in sorted(set(names) - lookup.keys(), key=names.index):
                try:
                    label = parse_label(name)
                except ValueError:
                    raise InvalidSample(names.index(name), f"unknown label name {name!r}") from None
                if label_set is None:
                    label_set = type(label)
                elif not isinstance(label, label_set):
                    raise InvalidSample(
                        names.index(name), f"label {name!r} is not a {label_set.__name__}; labels mix label sets"
                    )
                lookup[name] = label.value
            codes[lo : lo + m] = np.fromiter(map(lookup.__getitem__, names), np.int64, m)
        except InvalidSample as exc:  # index counts from the chunk's first row
            raise DatasetFormatError(f"line {_line_number(lines, lo + exc.index)}: {exc.detail}") from None

    try:
        return LabeledRecording(
            t_ms=t_ms, values=values if has_stretch else values[:, :6], codes=codes, label_set=label_set
        )
    except InvalidSample as exc:
        raise DatasetFormatError(f"line {_line_number(lines, exc.index)}: {exc.detail}") from None


def _line_number(lines: list[str], row: int) -> int:
    """1-based file line of the row-th non-blank data row."""
    return [k for k in range(2, len(lines) + 1) if lines[k - 1].strip()][row]


# Fields that int()/float() and np.loadtxt judge differently, or that break
# a rule only the exact parser names; plus valid ones, so that edited rows
# also stay valid in new ways. The stretch and label columns get their own.
_NUMBER_EDITS = [
    "1_0", "１", " 1.5", "1.5 ", "\t2", "+5", "1.0", "nan", "-nan", "1e400", "1e-400", "0x1p3",
    "#", "#1", '"1"', "", " ", "\x1c", "\x00", "0.5", "-0.000000",
]
_STRETCH_EDITS = ["", " ", "0.5", "1_0", "nan"]
_LABEL_EDITS = ["", "Walk", "Sit", "Up", "Fly", " Walk", "Walk ", "Walk\0", "\0", "Transitions", '"Walk"']
_COLUMN_EDITS = [_NUMBER_EDITS] * 7 + [_STRETCH_EDITS, _LABEL_EDITS]


@st.composite
def dataset_texts(draw):
    """(text, edited): a written dataset CSV, with up to three rows edited:
    a field swapped, dropped (7 commas) or added (9 commas), or a blank line."""
    lines = percent_format(draw(recordings(max_rows=6))).decode().splitlines()
    edits = draw(st.integers(0, 3)) if len(lines) > 1 else 0
    for _ in range(edits):
        k = draw(st.integers(1, len(lines) - 1))
        fields = lines[k].split(",")
        column = draw(st.sampled_from([0, 1, 4, 7, 7, 8, 8, 8]))  # mostly stretch and label
        edit = draw(st.sampled_from(_COLUMN_EDITS[column]))
        column = min(column, len(fields) - 1)  # the row may have lost a field already
        action = draw(st.sampled_from(["swap", "swap", "swap", "drop", "add", "blank"]))
        if action == "swap":
            fields[column] = edit
        elif action == "drop":
            del fields[column]
        elif action == "add":
            fields.insert(column, edit)
        lines[k] = ",".join(fields)
        if action == "blank":
            lines.insert(k, draw(st.sampled_from(["", " ", "\t"])))
    return "\n".join(lines) + "\n", edits > 0


def read_outcome(read):
    """The recording's bytes and label set, or the DatasetFormatError's ``line N``."""
    try:
        rec = read()
    except DatasetFormatError as exc:
        return str(exc).split(":")[0]
    return rec.t_ms.tobytes(), rec.values.shape, rec.values.tobytes(), rec.codes.tobytes(), rec.label_set


def exact_outcome(text: str):
    """read_outcome of the exact parser at the first row in file order that
    breaks a rule: on the shortest prefix of the rows that it refuses, or on
    all of them. (On a whole file it checks one rule at a time, so it may
    name a later row.)"""
    lines = text.splitlines()
    rows = list(filter(str.strip, lines[1:]))
    for k in range(len(rows) + 1):
        outcome = read_outcome(lambda: exact_parse_rows(lines, rows[:k]))
        if isinstance(outcome, str):
            break
    return outcome


def assert_read_as_exact_parser(tmp_path, text: str) -> None:
    """read_dataset gives what the exact parser gives: the same recording bit
    for bit, or a DatasetFormatError at the same line."""
    path = tmp_path / "r.csv"
    path.write_bytes(text.encode("utf-8"))
    assert read_outcome(lambda: read_dataset(path)) == exact_outcome(text)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=dataset_texts())
def test_read_agrees_with_exact_parser(tmp_path, case):
    assert_read_as_exact_parser(tmp_path, case[0])


_ROW_EDITS = [(ActivityLabel.Walk, column, edit) for column in (0, 3, 7, 8) for edit in _COLUMN_EDITS[column]] + [
    (GestureLabel.Up, 8, edit) for edit in _LABEL_EDITS
]


@pytest.mark.parametrize("stretch", [0.5, None])
@pytest.mark.parametrize("label, column, edit", _ROW_EDITS)
@pytest.mark.parametrize("action", ["swap", "add"])
def test_read_edited_row_agrees_with_exact_parser(tmp_path, stretch, label, column, edit, action):
    """Each edit of the fuzz test to the time, an accel, the stretch or the
    label column, swapped in or added on the third row of a four-row file."""
    lines = percent_format(make_recording(4, label=label, stretch=stretch)).decode().splitlines()
    fields = lines[3].split(",")
    if action == "swap":
        fields[column] = edit
    else:  # 9 commas
        fields.insert(column, edit)
    lines[3] = ",".join(fields)
    assert_read_as_exact_parser(tmp_path, "\n".join(lines) + "\n")


# --- the reader a block at a time ---------------------------------------------

_SMALL_BLOCK = 150  # bytes: two or three rows a block
_WALK = [(ActivityLabel.Walk, 20)]


def small_block_text(runs, stretch=0.5, edits=()) -> str:
    """A dataset CSV whose rows carry the labels of runs (label or None, length),
    with each edit (row, column, field) swapped in, 1-based data row."""
    codes = np.concatenate([np.full(k, -1 if label is None else label.value) for label, k in runs])
    label_set = next((type(label) for label, _ in runs if label is not None), None)
    recording = LabeledRecording(np.arange(len(codes)) * 10, make_values(len(codes), stretch), codes, label_set)
    lines = percent_format(recording).decode().splitlines()
    for row, column, field in edits:
        fields = lines[row].split(",")
        fields[column] = field
        lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def read_blocks_outcome(path):
    """read_outcome of the blocks of read_blocks joined, and how many there were."""
    blocks = []

    def read():
        blocks.extend(read_blocks(path))
        return LabeledRecording.joined(blocks)

    return read_outcome(read), len(blocks)


@pytest.mark.parametrize(
    "text, message",
    [
        # a label run across several block boundaries
        (
            small_block_text([(ActivityLabel.Walk, 3), (ActivityLabel.Sit, 9), (None, 4), (ActivityLabel.Sit, 4)]),
            None,
        ),
        (small_block_text([(GestureLabel.Up, 20)], stretch=None), None),
        (small_block_text([(None, 20)]), None),
        # a bad row in a later block
        (small_block_text(_WALK, edits=[(15, 1, "abc")]), "line 16: could not convert string 'abc' to float64$"),
        (small_block_text(_WALK, edits=[(15, 0, "0")]), "line 16: t_ms 0 not strictly"),
        (small_block_text(_WALK, edits=[(15, 8, "Fly")]), "line 16: unknown label name 'Fly'"),
        (small_block_text(_WALK, edits=[(15, 8, "Walk,")]), "line 16: the dtype passed requires 9 columns but 10"),
        (small_block_text(_WALK, edits=[(15, 3, "20.0")]), "line 16: az value 20.0 outside"),
        # stretch present only from a later block, or missing from one
        (small_block_text(_WALK, stretch=None, edits=[(15, 7, "0.5")]), "line 16: stretch present"),
        (small_block_text(_WALK, edits=[(15, 7, "")]), "line 16: could not convert string '' to float64$"),
        # a second label set starting in a later block
        (small_block_text(_WALK, edits=[(15, 8, "Up")]), "line 16: label 'Up' is not a ActivityLabel"),
        (
            small_block_text([(None, 12), (GestureLabel.Up, 8)], edits=[(18, 8, "Walk")]),
            "line 19: label 'Walk' is not a GestureLabel",
        ),
        (
            small_block_text([(ActivityLabel.Sit, 5), (None, 15)], edits=[(20, 8, "Up")]),  # Sit's code is Right's
            "line 21: label 'Up' is not a ActivityLabel",
        ),
    ],
)
def test_read_in_small_blocks_agrees_with_exact_parser(tmp_path, monkeypatch, text, message):
    monkeypatch.setattr(dataio, "_READ_BYTES", _SMALL_BLOCK)
    path = tmp_path / "r.csv"
    path.write_text(text)
    assert read_blocks_outcome(path)[1] >= 5  # blocks read, before the error if there is one
    assert_read_as_exact_parser(tmp_path, text)
    if message is not None:
        with pytest.raises(DatasetFormatError, match=message):
            read_dataset(path)


@pytest.mark.parametrize(
    "text, blocks",
    [
        (small_block_text([(ActivityLabel.Walk, 3), (ActivityLabel.Sit, 9), (None, 4), (ActivityLabel.Sit, 4)]), 5),
        (small_block_text([(None, 12), (GestureLabel.Up, 8)]), 5),
        (small_block_text(_WALK, edits=[(15, 3, "1_0")]), 0),  # int() and float() accept it, loadtxt does not
        (small_block_text(_WALK, edits=[(1, 3, "1_0")]), 0),
        (DATASET_HEADER + "\n", 1),  # one empty block
        (small_block_text(_WALK, edits=[(15, 1, "abc")]), 0),
        (small_block_text(_WALK, edits=[(15, 0, "0")]), 0),
        (small_block_text(_WALK, edits=[(15, 8, "Up")]), 0),
        ("", 0),
    ],
    ids=["runs", "unlabeled-then-gesture", "late-1_0", "early-1_0", "header-only", "bad-value", "time-back",
         "second-label-set", "empty"],
)
@pytest.mark.parametrize("block_bytes", [32, _SMALL_BLOCK])
def test_read_blocks_join_to_read_dataset(tmp_path, monkeypatch, text, blocks, block_bytes):
    """Read a row or a few rows at a time, the blocks join to what
    read_dataset reads, or raise its DatasetFormatError after the blocks
    before the bad row."""
    monkeypatch.setattr(dataio, "_READ_BYTES", block_bytes)
    path = tmp_path / "r.csv"
    path.write_text(text)
    outcome, read = read_blocks_outcome(path)
    assert outcome == read_outcome(lambda: read_dataset(path))
    assert isinstance(outcome, str) == (blocks == 0)
    assert read >= blocks


@pytest.mark.parametrize("newline", ["\r\n", "\r", "\x1c", "\n\n"])
def test_read_in_small_blocks_keeps_every_line_break(tmp_path, monkeypatch, newline):
    """Rows broken by other line boundaries than a lone newline read as the
    exact parser reads them whole."""
    monkeypatch.setattr(dataio, "_READ_BYTES", _SMALL_BLOCK)
    text = small_block_text([(ActivityLabel.Walk, 7), (ActivityLabel.Sit, 13)])
    assert_read_as_exact_parser(tmp_path, text.replace("\n", newline))


@pytest.mark.parametrize("block_bytes", [dataio._READ_BYTES, 32])
def test_an_unknown_label_longer_than_every_label_is_named_whole(tmp_path, monkeypatch, block_bytes):
    """Labels are read into a field one wider than the longest label name;
    the error names the whole field, not what fits."""
    monkeypatch.setattr(dataio, "_READ_BYTES", block_bytes)
    path = tmp_path / "r.csv"
    path.write_text(small_block_text(_WALK, edits=[(2, 8, "Flyingsaucer")]))
    with pytest.raises(DatasetFormatError, match="^line 3: unknown label name 'Flyingsaucer'$"):
        read_dataset(path)


@pytest.mark.parametrize(
    "bad_line, message",
    [(5, "^line 3: unknown label name 'Nolabel'$"), (2, "^byte {}: not UTF-8 text$"), (1, "^byte 0: not UTF-8 text$")],
    ids=["row-before-byte", "byte-before-row", "byte-in-header"],
)
@pytest.mark.parametrize("block_bytes", [dataio._READ_BYTES, 32])
def test_a_byte_that_is_not_utf8_is_reported_in_file_order(tmp_path, monkeypatch, block_bytes, bad_line, message):
    """A file with an unknown label on line 3 and a byte that is not UTF-8
    on bad_line raises for whichever comes first, whatever the block size."""
    monkeypatch.setattr(dataio, "_READ_BYTES", block_bytes)
    lines = small_block_text(_WALK, edits=[(2, 8, "Nolabel")]).encode().split(b"\n")
    offset = sum(len(line) + 1 for line in lines[: bad_line - 1])
    lines[bad_line - 1] = b"\xff" + lines[bad_line - 1][1:]
    path = tmp_path / "r.csv"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(DatasetFormatError, match=message.format(offset)):
        read_dataset(path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=dataset_texts())
def test_read_in_row_sized_blocks_agrees_with_exact_parser(tmp_path, monkeypatch, case):
    """The fuzz cases again, with blocks shorter than one row."""
    monkeypatch.setattr(dataio, "_READ_BYTES", 32)
    assert_read_as_exact_parser(tmp_path, case[0])


def test_read_memory_stays_near_the_recording(tmp_path):
    """Reading holds no whole-file transients: the tracemalloc peak of a
    20,000-row read stays under 3x the recording it returns."""
    rng = np.random.default_rng(5)
    n = 20_000
    values = rng.uniform(-1.0, 1.0, (n, 7)) * ([16.0] * 3 + [2000.0] * 3 + [0.5])
    values[:, 6] += 0.5
    codes = np.repeat(rng.integers(-1, len(ActivityLabel), n // 500), 500)
    path = tmp_path / "big.csv"
    write_dataset(LabeledRecording(np.arange(n) * 10, values, codes, ActivityLabel), path)
    tracemalloc.start()
    try:
        back = read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.codes.tolist() == codes.tolist()
    assert peak < 3 * (back.t_ms.nbytes + back.values.nbytes + back.codes.nbytes)


@pytest.mark.parametrize(
    "bad, message",
    [
        (b"abc", "^line 19992: could not convert string 'abc"),
        (b"\xff", "^byte {}: not UTF-8 text$"),
        (b"\0", "^line 19992: NUL character$"),
    ],
    ids=["unparseable", "not-utf8", "nul"],
)
def test_a_bad_row_in_the_last_block_is_read_in_bounded_memory(tmp_path, monkeypatch, bad, message):
    """A bad field 10 rows from the end of a 20,000-row file of 32 KiB blocks
    raises at its line (a byte that is not UTF-8 at its offset in the file)
    after the blocks before it, with a tracemalloc peak of a few blocks, not
    the file."""
    monkeypatch.setattr(dataio, "_READ_BYTES", 1 << 15)
    n = 20_000
    values = np.random.default_rng(5).uniform(-1.0, 1.0, (n, 7)) * ([16.0] * 3 + [2000.0] * 3 + [0.5])
    values[:, 6] += 0.5
    codes = np.full(n, ActivityLabel.Walk.value)
    path = tmp_path / "big.csv"
    write_dataset(LabeledRecording(np.arange(n) * 10, values, codes, ActivityLabel), path)
    data = path.read_bytes()
    line = data.split(b"\n")[n - 10 + 1]  # the file's line 19992, row 19990
    offset = data.index(line) + line.index(b",") + 1  # the first value field
    path.write_bytes(data[:offset] + bad + data[offset:])
    assert offset > 50 * dataio._READ_BYTES
    rows = 0
    tracemalloc.start()
    try:
        with pytest.raises(DatasetFormatError, match=message.format(offset)):
            for block in read_blocks(path):
                rows += len(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < rows < n - 10
    assert peak < 10 * dataio._READ_BYTES
