"""Shared domain types: label sets, column-stored recordings, and the hardware profile."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Any, Callable, Union

import numpy as np

ACCEL_FULL_SCALE_G = 16.0
GYRO_FULL_SCALE_DPS = 2000.0

# Canonical channel order used by the CSV format and the feature pipeline.
ACCEL_CHANNELS = ("ax", "ay", "az")
GYRO_CHANNELS = ("gx", "gy", "gz")
STRETCH_CHANNEL = ("stretch",)
ALL_CHANNELS = ACCEL_CHANNELS + GYRO_CHANNELS + STRETCH_CHANNEL


class ActivityLabel(Enum):
    """Activity classes, in stable declaration order (integer codes 0..6)."""

    Drive = 0
    Jump = 1
    LieDown = 2
    Sit = 3
    Stand = 4
    Walk = 5
    Transition = 6

    @property
    def display_name(self) -> str:
        return _ACTIVITY_DISPLAY[self]


_ACTIVITY_DISPLAY = {
    ActivityLabel.Drive: "Drive",
    ActivityLabel.Jump: "Jump",
    ActivityLabel.LieDown: "Lie Down",
    ActivityLabel.Sit: "Sit",
    ActivityLabel.Stand: "Stand",
    ActivityLabel.Walk: "Walk",
    ActivityLabel.Transition: "Transitions",
}


class GestureLabel(Enum):
    """Gesture classes, in stable declaration order (integer codes 0..3)."""

    Up = 0
    Down = 1
    Left = 2
    Right = 3

    @property
    def display_name(self) -> str:
        return self.name


Label = Union[ActivityLabel, GestureLabel]


APPS = {"har": ActivityLabel, "gesture": GestureLabel}  # application name -> its label set


def parse_label(text: str) -> Label:
    """Resolve a label name from any application's label set."""
    for label_set in APPS.values():
        try:
            return label_set[text]
        except KeyError:
            continue
    raise ValueError(f"unknown label name {text!r}")


# A rule takes a setting's value and returns the value to store, or raises
# ValueError saying what is wrong with it. A settings dataclass lists its
# rules in a RULES table (field -> rule) that __post_init__ runs through
# check_fields; the config parser runs the same table key by key, so that
# each error names the offending key.
Rule = Callable[[Any], Any]


def is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def finite(v: Any) -> bool:
    """A number (not a bool) that converts to a finite float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def num(lo: float | None = None, hi: float | None = None, integer: bool = False) -> Rule:
    """Rule for a number within [lo, hi]: an integer if integer is set, else any finite number."""
    def check(v):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"expected a number, got {type(v).__name__}")
        if integer and not isinstance(v, int):
            raise ValueError("expected an integer")
        if not integer and not finite(v):
            raise ValueError("expected a finite number")
        if lo is not None and v < lo:
            raise ValueError(f"must be >= {lo}")
        if hi is not None and v > hi:
            raise ValueError(f"must be <= {hi}")
        return v

    return check


POSITIVE = num(lo=1e-9)
COUNT = num(lo=1, integer=True)
FRACTION = num(lo=1e-9, hi=1.0)
# The bound of duration_ms, clock_offset_ms and channel.latency_ms: the device clock t + clock_offset_ms,
# t <= duration_ms, then fits the unsigned 64-bit timestamps of the data and sync frames, and a
# latency range fits the channel's int64 draws.
MAX_MS = 2**63 - 1


class FieldError(ValueError):
    """A settings field breaks a rule; .field names it and .reason says why."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


def check_fields(settings) -> None:
    """Run a settings dataclass's RULES and store the value each returns;
    FieldError at the first break (None passes where it is the default)."""
    for f in fields(settings):
        rule = settings.RULES.get(f.name)
        value = getattr(settings, f.name)
        if rule is None or (value is None and f.default is None):
            continue
        try:
            object.__setattr__(settings, f.name, rule(value))  # the settings classes are frozen
        except ValueError as exc:
            raise FieldError(f.name, str(exc)) from None


@dataclass(frozen=True)
class DeviceProfile:
    """Hardware budget constants for the wearable node.

    The default SRAM, flash and active-power numbers model the shipped
    47 MHz Cortex-M3 part with 20 KB SRAM / 128 KB flash; sleep and transmit
    power are order-of-magnitude defaults for that MCU class and are meant
    to be overridden from config when better numbers are known.
    """

    sram_bytes: int = 20480
    flash_bytes: int = 131072
    p_active_har_mw: float = 12.5
    p_active_gesture_mw: float = 10.0
    p_sleep_mw: float = 0.3
    p_tx_mw: float = 15.0
    sample_rate_hz: float = 100.0

    RULES = {
        "sram_bytes": COUNT,
        "flash_bytes": COUNT,
        "p_active_har_mw": POSITIVE,
        "p_active_gesture_mw": POSITIVE,
        "p_sleep_mw": POSITIVE,
        "p_tx_mw": POSITIVE,
        "sample_rate_hz": POSITIVE,
    }

    def __post_init__(self) -> None:
        check_fields(self)
        if self.p_sleep_mw >= self.p_tx_mw:  # so every app's worst-case active power exceeds sleep power
            raise FieldError("p_sleep_mw", "must be below p_tx_mw")

    def active_power_mw(self, app: str) -> float:
        """The active power of app, a key of APPS."""
        return self.p_active_har_mw if app == "har" else self.p_active_gesture_mw


class InvalidSample(ValueError):
    """A recording row breaks an invariant; ``index`` is its 0-based position."""

    def __init__(self, index: int, detail: str):
        super().__init__(f"sample {index}: {detail}")
        self.index = index
        self.detail = detail


# Inclusive per-channel bounds, in canonical channel order.
_LOWER = np.array([-ACCEL_FULL_SCALE_G] * 3 + [-GYRO_FULL_SCALE_DPS] * 3 + [0.0])
_UPPER = np.array([ACCEL_FULL_SCALE_G] * 3 + [GYRO_FULL_SCALE_DPS] * 3 + [1.0])


@dataclass
class LabeledRecording:
    """A sensor recording stored as columns.

    t_ms is an (N,) int64 array of strictly increasing timestamps; values an
    (N, C) float64 matrix in canonical channel order, C = 6 without the
    stretch channel and 7 with it; codes an (N,) int64 array of label codes
    of label_set, -1 for unlabeled samples (all -1 when codes is omitted).
    label_set is ActivityLabel, GestureLabel, or None for a recording with
    no labels.
    """

    t_ms: np.ndarray
    values: np.ndarray
    codes: np.ndarray | None = None
    label_set: type | None = None

    def __post_init__(self) -> None:
        self.t_ms = np.asarray(self.t_ms, dtype=np.int64)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.codes is None:
            self.codes = np.full(len(self.t_ms), -1, dtype=np.int64)
        self.codes = np.asarray(self.codes, dtype=np.int64)
        self.validate()

    def validate(self) -> None:
        """Raise InvalidSample at the first row that breaks an invariant.

        Timestamps increase strictly, every value is finite and within
        sensor full scale (stretch within [0, 1]), and every code names a
        member of label_set or is -1. Shape errors raise ValueError.
        """
        t, values, codes = self.t_ms, self.values, self.codes
        n = len(t)
        if t.ndim != 1 or codes.shape != (n,):
            raise ValueError("t_ms and codes must be (N,) arrays of equal length")
        if values.ndim != 2 or values.shape[0] != n or values.shape[1] not in (6, 7):
            raise ValueError("values must be (N, 6) without stretch or (N, 7) with stretch")
        steps = np.flatnonzero(t[1:] <= t[:-1])  # np.diff would wrap across the int64 range
        if steps.size:
            i = int(steps[0]) + 1
            raise InvalidSample(i, f"t_ms {t[i]} not strictly increasing after {t[i - 1]}")
        c = values.shape[1]
        lower, upper = _LOWER[:c], _UPPER[:c]
        bad = np.argwhere(~((values >= lower) & (values <= upper)))  # NaN fails both
        if bad.size:
            i, ch = (int(v) for v in bad[0])
            raise InvalidSample(
                i, f"{ALL_CHANNELS[ch]} value {values[i, ch]} outside [{lower[ch]:g}, {upper[ch]:g}]"
            )
        n_codes = len(self.label_set) if self.label_set is not None else 0
        wrong = np.flatnonzero((codes < -1) | (codes >= n_codes))
        if wrong.size:
            i = int(wrong[0])
            kind = self.label_set.__name__ if self.label_set is not None else "an unlabeled recording"
            raise InvalidSample(i, f"label code {codes[i]} is not in {kind}")

    @classmethod
    def joined(cls, blocks: list[LabeledRecording]) -> LabeledRecording:
        """One recording of one or more consecutive blocks, with the one label set they name (or None)."""
        columns = (np.concatenate([getattr(block, name) for block in blocks]) for name in ("t_ms", "values", "codes"))
        return cls(*columns, next((block.label_set for block in blocks if block.label_set is not None), None))

    def __len__(self) -> int:
        return len(self.t_ms)

    @property
    def has_stretch(self) -> bool:
        return self.values.shape[1] == 7
