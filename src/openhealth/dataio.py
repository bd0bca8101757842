"""Dataset CSV I/O, the synthetic recording generator, and raw-storage arithmetic.

Dataset files are plain CSV with the fixed header
``t_ms,ax,ay,az,gx,gy,gz,stretch,label``, one row per sample, floats
written with 6 fractional digits. The label column holds each row's label
name (empty = unlabeled); a recording's annotations are the contiguous
runs of equal labels, with the interval convention
[first_row_t, last_row_t + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import InvalidSample, Label, LabeledRecording, parse_label

DATASET_HEADER = "t_ms,ax,ay,az,gx,gy,gz,stretch,label"
FLOAT_DIGITS = 6

# Fixed mixing weights for the synthesized angular-rate channels: limb swing
# mostly about one axis, smaller components on the others.
_GYRO_AXIS_WEIGHTS = np.array([1.0, 0.4, 0.15])
_GYRO_SWING_DPS_PER_G_HZ = 90.0
_GYRO_NOISE_SCALE = 50.0


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


def write_dataset(recording: LabeledRecording, path: str | Path) -> None:
    """Write a recording as dataset CSV. Invariants are re-checked first."""
    recording.validate()
    field = f",%.{FLOAT_DIGITS}f"
    row = "%d" + field * 6 + (field if recording.has_stretch else ",") + ",%s"
    names = [label.name for label in recording.label_set or ()] + [""]  # code -1 is last
    rows = zip(
        recording.t_ms.tolist(),
        *recording.values.T.tolist(),
        map(names.__getitem__, recording.codes.tolist()),
    )
    body = "\n".join([DATASET_HEADER, *map(row.__mod__, rows)])
    Path(path).write_text(body + "\n", encoding="utf-8")


_CHUNK_ROWS = 8192  # rows split at once; bounds the transient field strings


def _column(fields: Sequence[str], convert, dtype) -> np.ndarray:
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


def read_dataset(path: str | Path) -> LabeledRecording:
    """Parse a dataset CSV back into a LabeledRecording.

    Raises DatasetFormatError naming the 1-based line number on a bad
    header, a wrong column count, an unparseable or out-of-range value,
    a stretch value on only some rows, an unknown label name, labels from
    both label sets, or non-increasing timestamps.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"byte {exc.start}: not UTF-8 text") from None
    lines = text.splitlines()
    if not lines or lines[0] != DATASET_HEADER:
        got = lines[0] if lines else "<empty file>"
        raise DatasetFormatError(f"line 1: bad header {got!r}, expected {DATASET_HEADER!r}")

    rows = list(filter(str.strip, lines[1:]))  # blank lines are skipped
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
            converters = [(int, np.int64)] + [(float, np.float64)] * (7 if has_stretch else 6)
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


@dataclass(frozen=True)
class LabelSignalModel:
    """Per-class signal generator parameters.

    The accelerometer rides a unit gravity vector modulated by one periodic
    component; angular rate follows the derivative of that swing with fixed
    axis weights; stretch is a biased sinusoid clipped to [0,1]. A label
    without a stretch channel sets stretch_base to None.
    """

    orientation: tuple[float, float, float] = (0.0, 0.0, 1.0)
    freq_hz: float = 0.0
    amp_g: float = 0.0
    noise_sigma: float = 0.0
    stretch_base: float | None = None
    stretch_amp: float = 0.0

    def signature(self) -> tuple:
        return (self.freq_hz, self.amp_g, self.orientation)

    @cached_property
    def waveform(self) -> tuple[np.ndarray, float, float]:
        """The per-label constants of synthesize_signal: unit orientation,
        angular frequency 2*pi*f, and the gyro swing amplitude."""
        orient = np.asarray(self.orientation, dtype=float)
        norm = np.linalg.norm(orient)
        if norm > 0:
            orient = orient / norm
        return orient, 2.0 * np.pi * self.freq_hz, _GYRO_SWING_DPS_PER_G_HZ * self.amp_g * self.freq_hz


@dataclass(frozen=True)
class SyntheticActivityModel:
    """Seeded family of per-label signal generators, separable by construction."""

    signals: Mapping[Label, LabelSignalModel]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.signals:
            raise ValueError("synthetic model needs at least one label")
        seen: dict[tuple, Label] = {}
        stretch_flags = set()
        for label, sig in self.signals.items():
            key = sig.signature()
            if key in seen:
                raise ValueError(
                    f"labels {seen[key].name} and {label.name} share signal signature {key}"
                )
            seen[key] = label
            stretch_flags.add(sig.stretch_base is not None)
        if len(stretch_flags) > 1:
            raise ValueError("stretch channel must be present for all labels or none")


def channel_count(signals: Mapping[Label, LabelSignalModel]) -> int:
    """Channels synthesized from these label models: 7 with stretch, 6 without."""
    return 6 if next(iter(signals.values())).stretch_base is None else 7


def synthesize_signal(sig: LabelSignalModel, t_s: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Evaluate one label's signal model at the given times (seconds) into out.

    t_s holds (..., n) times: any leading axes are a batch of windows, each
    evaluated alike. out is an (..., n, 3), (..., n, 6) or (..., n, 7) block,
    filled in place with the canonical channels it holds: accel (g), gyro
    (deg/s), stretch. z holds each window's standard-normal draws, (..., m)
    with m at least n times out's width, in the order the channels take them:
    accel noise (n, 3), gyro noise (n, 3), stretch noise (n,). A block of c
    columns reads only the first n*c draws, so a 3-column block uses accel
    noise alone and sees the same draws a full block would. Each draw is
    scaled as ``Generator.normal(0.0, sigma)`` scales it. A 7-column block
    needs a label with a stretch channel. Values are clipped to sensor full
    scale. Returns out.
    """
    # Each channel group is built in a contiguous temporary and copied in
    # once: arithmetic on column slices of a wide block is several times slower.
    n = t_s.shape[-1]
    orient, omega, swing_amp = sig.waveform
    phase = omega * t_s
    accel = orient * (1.0 + sig.amp_g * np.sin(phase))[..., None]
    accel += _normal(z[..., : 3 * n], sig.noise_sigma).reshape(accel.shape)
    out[..., :3] = _clip(accel, -16.0, 16.0)
    if out.shape[-1] == 3:
        return out

    gyro = (swing_amp * np.cos(phase))[..., None] * _GYRO_AXIS_WEIGHTS
    gyro += _normal(z[..., 3 * n : 6 * n], _GYRO_NOISE_SCALE * sig.noise_sigma).reshape(gyro.shape)
    out[..., 3:6] = _clip(gyro, -2000.0, 2000.0)
    if out.shape[-1] == 6:
        return out

    if sig.stretch_base is None:
        raise ValueError("a 7-column block needs a label with a stretch channel")
    stretch = sig.stretch_base + sig.stretch_amp * np.sin(phase + np.pi / 4)
    stretch += _normal(z[..., 6 * n : 7 * n], sig.noise_sigma / 2.0)
    out[..., 6] = _clip(stretch, 0.0, 1.0)
    return out


def _normal(z: np.ndarray, sigma: float) -> np.ndarray:
    """Standard-normal draws as Generator.normal(0.0, sigma) returns them:
    0.0 + sigma * z, so a -0.0 product reads +0.0, bit for bit."""
    noise = z * sigma
    noise += 0.0
    return noise


def _clip(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """np.clip(x, lo, hi) in place; returns x. Equal to it bit for bit on
    synthesized values: those are never NaN or -0.0 (noise is drawn as
    0.0 + sigma * z), the only inputs where maximum/minimum and clip differ."""
    np.maximum(x, lo, out=x)
    return np.minimum(x, hi, out=x)


def generate_synthetic(
    model: SyntheticActivityModel,
    schedule: Sequence[tuple[Label, int]],
    rate_hz: float,
) -> LabeledRecording:
    """Synthesize a labeled recording from a (label, duration_ms) schedule.

    Pure function of (model, schedule, rate_hz): the RNG is seeded from the
    model and consumed in a fixed per-block order, so equal inputs give
    bit-identical recordings.
    """
    if rate_hz <= 0:
        raise ValueError("rate_hz must be > 0")
    for label, duration_ms in schedule:
        if duration_ms <= 0:
            raise ValueError(f"schedule duration for {label.name} must be > 0")
        if label not in model.signals:
            raise ValueError(f"no signal model for label {label.name}")

    label_sets = {type(label) for label, _ in schedule}
    if len(label_sets) > 1:
        raise ValueError("schedule mixes activity and gesture labels")

    rng = np.random.default_rng(model.seed)
    width = channel_count(model.signals)
    sizes = [round(duration_ms * rate_hz / 1000.0) for _, duration_ms in schedule]
    k = np.arange(sum(sizes))
    values = np.empty((len(k), width))
    codes = np.empty(len(k), dtype=np.int64)
    index = 0
    for (label, _), n in zip(schedule, sizes):
        if n == 0:
            continue
        run = slice(index, index + n)
        synthesize_signal(model.signals[label], k[run] / rate_hz, rng.standard_normal(n * width), values[run])
        codes[run] = label.value
        index += n

    return LabeledRecording(
        t_ms=np.floor(k * 1000.0 / rate_hz).astype(np.int64),
        values=values,
        codes=codes,
        label_set=label_sets.pop() if label_sets else None,
    )


def storage_budget(rate_hz, channels, bytes_per_scalar, duration_s):
    """Raw-sample storage in bytes: rate * channels * bytes_per_scalar * duration."""
    for name, v in (
        ("rate_hz", rate_hz),
        ("channels", channels),
        ("bytes_per_scalar", bytes_per_scalar),
        ("duration_s", duration_s),
    ):
        if v <= 0:
            raise ValueError(f"{name} must be > 0")
    return rate_hz * channels * bytes_per_scalar * duration_s
