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
from functools import cache, cached_property
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import APPS, InvalidSample, Label, LabeledRecording, check_fields, finite, num, parse_label

DATASET_HEADER = "t_ms,ax,ay,az,gx,gy,gz,stretch,label"

# Fixed mixing weights for the synthesized angular-rate channels: limb swing
# mostly about one axis, smaller components on the others.
_GYRO_AXIS_WEIGHTS = np.array([1.0, 0.4, 0.15])
_GYRO_SWING_DPS_PER_G_HZ = 90.0
_GYRO_NOISE_SCALE = 50.0


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


def write_dataset(blocks: LabeledRecording | Iterable[LabeledRecording], path: str | Path) -> tuple[int, int]:
    """Write a recording, or its consecutive blocks one at a time, as dataset
    CSV; returns the number of rows and of annotations written. Each block's
    invariants are re-checked first, and so are the channels, label set and
    first t_ms that continue the blocks before it; a block that breaks them
    removes the file.

    Each row is byte for byte what ``"%d" + ",%.6f" * c + ",%s"`` formats
    (with an empty stretch field when c = 6). The rows are built a chunk at
    a time from digit bytes, not by one format call per row.
    """
    if isinstance(blocks, LabeledRecording):
        blocks.validate()  # before the file is opened, so an invalid recording leaves any old file as it was
        blocks = [blocks]
    rows = annotations = 0
    last = label_set = None  # the last non-empty block, and the label set of all
    with open(path, "wb") as f:
        try:
            f.write(DATASET_HEADER.encode() + b"\n")
            for block in blocks:
                block.validate()
                label_set = block.label_set if label_set is None else label_set
                if not len(block):
                    continue
                if last is not None and (
                    block.values.shape[1] != last.values.shape[1]
                    or block.label_set not in (None, label_set)
                    or block.t_ms[0] <= last.t_ms[-1]
                ):
                    raise ValueError("a block's channels, label set or first t_ms do not continue the blocks before")
                codes = block.codes
                runs = np.flatnonzero(np.diff(codes, prepend=codes[0] - 1 if last is None else last.codes[-1]))
                annotations += int((codes[runs] >= 0).sum())
                names = [label.name for label in label_set or ()] + [""]  # code -1 is last
                stretch = b"" if block.has_stretch else b","  # the empty stretch field
                tails = [stretch + b"," + name.encode() + b"\n" for name in names]
                tail_table = np.array([list(tail.ljust(max(map(len, tails)), b"\0")) for tail in tails], np.uint8)
                for lo in range(0, len(block), _WRITE_ROWS):
                    chunk = slice(lo, lo + _WRITE_ROWS)
                    fields = [_int_fields(block.t_ms[chunk]), _fixed6_fields(block.values[chunk])]
                    buf = np.concatenate([*fields, tail_table[codes[chunk]]], axis=1)
                    f.write(buf[buf != 0].tobytes())  # 0 bytes are padding
                rows, last = rows + len(block), block
        except ValueError:
            f.close()
            Path(path).unlink()
            raise
    return rows, annotations


_WRITE_ROWS = 8192  # rows formatted at once; bounds the transient byte buffers
_DIGITS3 = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")).astype(np.uint8)  # "000".."999"


def _int_fields(t: np.ndarray) -> np.ndarray:
    """(n, k) bytes of each int64 as ``%d`` formats it, padded with 0 bytes."""
    u = t.view(np.uint64)
    u = np.where(t < 0, -u, u)  # modulo 2**64, so int64 min gives 2**63
    groups = []  # base-1000 digits, least significant first
    while True:
        high = u // 1000
        groups.append(u - high * 1000)
        if not high.any():
            break
        u = high
    digits = _DIGITS3.take(np.stack(groups[::-1], axis=1), axis=0).reshape(len(t), -1)
    lead = np.logical_and.accumulate(digits == ord("0"), axis=1)
    lead[:, -1] = False  # zero itself keeps its one digit
    digits[lead] = 0
    return np.concatenate([((t < 0) * np.uint8(ord("-")))[:, None], digits], axis=1)


# A ",%.6f" field: comma, sign and integer digits ("head", padded with 0
# bytes), then the fraction digits in two groups of three.
_FIXED6 = np.dtype([("head", "V7"), ("high", "V3"), ("low", "V3")])
_HEAD_RANGE = 10_000  # integer parts the head table holds
_TRIPLES = _DIGITS3.view("V3").ravel()


@cache
def _head_table() -> np.ndarray:
    """The head bytes of integer part q at q (positive) and q + _HEAD_RANGE
    (negative). Built on first use, not at import."""
    digits = _int_fields(np.arange(_HEAD_RANGE))[:, -4:]  # q >= 0 has no sign byte
    heads = np.empty((2, _HEAD_RANGE, 7), np.uint8)
    heads[..., 0] = ord(",")
    heads[..., 1] = [[0], [ord("-")]]
    heads[..., 2:6] = digits
    heads[..., 6] = ord(".")
    heads.flags.writeable = False  # shared by every caller
    return heads.reshape(-1, 7).view("V7").ravel()


def _fixed6_fields(x: np.ndarray) -> np.ndarray:
    """(n, 13 * c) bytes of an (n, c) block as ``",%.6f" * c`` formats it,
    padded with 0 bytes. Every value must be finite with |x| < 10000.

    ``%.6f`` rounds the exact binary value half to even, and keeps the
    sign of a negative value that rounds to zero (``-0.000000``).
    """
    r = _round6(np.abs(x))
    q = r // 1_000_000
    frac = r - q * 1_000_000
    high = frac // 1000
    out = np.empty(x.shape, _FIXED6)
    out["head"] = _head_table().take(q + np.signbit(x) * _HEAD_RANGE)
    out["high"] = _TRIPLES.take(high)
    out["low"] = _TRIPLES.take(frac - high * 1000)
    return out.view(np.uint8)


def _round6(a: np.ndarray) -> np.ndarray:
    """a * 10**6 rounded half to even on the exact product, for finite a >= 0.

    rint rounds the float product p, which differs from the exact product
    by its rounding error e. The two round alike except where p is a tie
    (p - rint(p) = +-0.5); there e breaks the tie toward its own sign. e is
    computed exactly by Dekker's TwoProduct with a Veltkamp split of a
    (10**6 has 14 significant bits, so it splits as itself).
    """
    p = a * 1e6
    r = np.rint(p)
    d = p - r
    tie = np.abs(d) == 0.5
    if tie.any():
        at, pt, dt = a[tie], p[tie], d[tie]
        split = at * 134217729.0  # 2**27 + 1
        hi = split - (split - at)
        e = (hi * 1e6 - pt) + (at - hi) * 1e6
        r[tie] += np.where(np.sign(e) == np.sign(dt), 2.0 * dt, 0.0)
    return r.astype(np.int64)


def read_dataset(path: str | Path) -> LabeledRecording:
    """The blocks of read_blocks joined into one LabeledRecording."""
    return LabeledRecording.joined(list(read_blocks(path)))


_READ_BYTES = 1 << 18  # bytes parsed at once; bounds the transient lines and table
# A label field wider than every label name cannot be cut down to one.
_LABEL_FIELD = f"U{1 + max(len(label.name) for labels in APPS.values() for label in labels)}"


def read_blocks(path: str | Path) -> Iterator[LabeledRecording]:
    """The rows of a dataset CSV as consecutive blocks of about _READ_BYTES of
    text, at least one (empty for a file without rows).

    Raises DatasetFormatError at the first line in file order that breaks a
    rule, naming its 1-based line number: a wrong column count, an
    unparseable or out-of-range value, a stretch value on only some rows, an
    unknown label name, labels from both label sets, non-increasing
    timestamps or a NUL character; a bad header (line 1); or a byte that is
    not UTF-8, named by its offset in the file. The error comes before any
    block holding that line is yielded.
    """
    prev = None  # the last block yielded
    lines_before, bytes_before = 1, 0  # the header is line 1
    with open(path, "rb") as f:
        # Each block ends right after a newline, so it splits into the lines the whole text would.
        for raw in iter(lambda: f.read(_READ_BYTES) + f.readline(), b""):
            try:
                lines, bad = raw.decode("utf-8").splitlines(), None
            except UnicodeDecodeError as exc:  # the lines before the bad byte's are judged first
                bad = DatasetFormatError(f"byte {bytes_before + exc.start}: not UTF-8 text")
                raw = raw[: raw.rfind(b"\n", 0, exc.start) + 1]
                lines = raw.decode("utf-8").splitlines()
            if not bytes_before and lines:
                _check_header(lines.pop(0))
            rows = list(filter(str.strip, lines))  # blank lines are skipped
            if rows:
                try:
                    if b"\0" in raw:  # loadtxt drops a NUL from the end of a string field
                        raise ValueError
                    prev = _parsed_rows(rows, prev)
                except ValueError:
                    raise _first_refusal(rows, lines, lines_before, prev) from None
            if bad:
                raise bad
            if rows:
                yield prev
            bytes_before += len(raw)
            lines_before += len(lines)
    if not bytes_before:
        _check_header("<empty file>")
    if prev is None:
        yield LabeledRecording(np.empty(0, np.int64), np.empty((0, 6)))


def _check_header(line: str) -> None:
    if line != DATASET_HEADER:
        raise DatasetFormatError(f"line 1: bad header {line!r}, expected {DATASET_HEADER!r}")


def _parsed_rows(rows: list[str], prev: LabeledRecording | None) -> LabeledRecording:
    """Data rows parsed by np.loadtxt's C parser as the block after prev (None
    for the first): its label set, stretch channel and last t_ms continue.
    Raises ValueError where a row breaks a rule."""
    has_stretch = rows[0].split(",")[7:8] != [""] if prev is None else prev.has_stretch
    label_set = None if prev is None else prev.label_set
    fields = [("t", np.int64), ("v", np.float64, (7 if has_stretch else 6,))]
    fields += [("stretch", "U1")] * (not has_stretch) + [("label", _LABEL_FIELD)]
    try:
        table = np.loadtxt(rows, dtype=fields, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:  # cut the row loadtxt names, counted among these rows
        raise ValueError(str(exc).rsplit(" at row ", 1)[0]) from None
    if not has_stretch and (table["stretch"] != "").any():
        raise ValueError("stretch present on only some rows")
    label_column = table["label"]
    starts = np.flatnonzero(np.append(True, label_column[1:] != label_column[:-1]))
    names = label_column[starts].tolist()  # one per run of equal labels
    lookup = {"": -1}
    for name in set(names) - lookup.keys():
        label = parse_label(rows[starts[names.index(name)]].rsplit(",", 1)[1])  # the whole field, not name cut to fit
        if label_set is None:
            label_set = type(label)
        elif not isinstance(label, label_set):
            raise ValueError(f"label {name!r} is not a {label_set.__name__}; labels mix label sets")
        lookup[name] = label.value
    codes = np.repeat([lookup[name] for name in names], np.diff(np.append(starts, len(rows))))
    block = LabeledRecording(table["t"].copy(), table["v"], codes, label_set)
    if prev is not None and block.t_ms[0] <= prev.t_ms[-1]:
        raise ValueError(f"t_ms {block.t_ms[0]} not strictly increasing after {prev.t_ms[-1]}")
    return block


def _first_refusal(
    rows: list[str], lines: list[str], lines_before: int, prev: LabeledRecording | None
) -> DatasetFormatError:
    """The error of the first of a refused block's rows, parsed again one at a
    time after prev. A block is refused only where one of its rows is, so
    there is always one. lines are the block's, blank ones included."""
    for k, row in enumerate(rows):
        try:
            if "\0" in row:
                raise ValueError("NUL character")
            prev = _parsed_rows([row], prev)
        except ValueError as exc:
            line = lines_before + [j for j, text in enumerate(lines, 1) if text.strip()][k]
            reason = exc.detail if isinstance(exc, InvalidSample) else str(exc)
            return DatasetFormatError(f"line {line}: {reason}")


def _vec3(v):
    if isinstance(v, (list, tuple)) and len(v) == 3 and all(finite(x) for x in v):
        return (float(v[0]), float(v[1]), float(v[2]))
    raise ValueError("expected a 3-number list")


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

    RULES = {
        "orientation": _vec3,
        "freq_hz": num(lo=0.0),
        "amp_g": num(lo=0.0),
        "noise_sigma": num(lo=0.0),
        "stretch_base": num(lo=0.0, hi=1.0),
        "stretch_amp": num(lo=0.0),
    }

    def __post_init__(self) -> None:
        check_fields(self)

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
    model: SyntheticActivityModel, schedule: Sequence[tuple[Label, int]], rate_hz: float
) -> LabeledRecording:
    """The blocks of generate_blocks joined into one LabeledRecording."""
    empty = LabeledRecording(np.empty(0, np.int64), np.empty((0, channel_count(model.signals))))
    return LabeledRecording.joined([empty, *generate_blocks(model, schedule, rate_hz)])


def generate_blocks(
    model: SyntheticActivityModel, schedule: Sequence[tuple[Label, int]], rate_hz: float
) -> Iterator[LabeledRecording]:
    """Synthesize a labeled recording from a (label, duration_ms) schedule, in blocks of as many
    whole entries as fit in _WRITE_ROWS rows (an entry longer than that is a block of its own).

    Pure function of (model, schedule, rate_hz): the RNG is seeded from the
    model and consumed in a fixed per-entry order, so equal inputs give
    bit-identical blocks.
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

    label_set = label_sets.pop() if label_sets else None
    rng = np.random.default_rng(model.seed)
    width = channel_count(model.signals)
    sizes = [round(duration_ms * rate_hz / 1000.0) for _, duration_ms in schedule]
    start = first = 0  # the block's first sample index and first schedule entry
    for last, end in enumerate(accumulate(sizes)):
        if last + 1 < len(schedule) and end + sizes[last + 1] - start <= _WRITE_ROWS:
            continue  # the next entry fits in this block too
        k = np.arange(start, end)
        values = np.empty((len(k), width))
        codes = np.empty(len(k), dtype=np.int64)
        index = 0
        for (label, _), n in zip(schedule[first : last + 1], sizes[first : last + 1]):
            if n == 0:
                continue
            run = slice(index, index + n)
            synthesize_signal(model.signals[label], k[run] / rate_hz, rng.standard_normal(n * width), values[run])
            codes[run] = label.value
            index += n
        if len(k):
            yield LabeledRecording(np.floor(k * 1000.0 / rate_hz).astype(np.int64), values, codes, label_set)
        start, first = end, last + 1


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
