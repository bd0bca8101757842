from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from openhealth.core import ActivityLabel, LabeledRecording
from openhealth.dataio import LabelSignalModel
from openhealth.firmware import SLOT_MS

# Every @given test draws the same examples on every run, and no example
# database is written; each test's own max_examples still applies.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def make_values(n: int, stretch: float | None = 0.5) -> np.ndarray:
    """Constant 1 g gravity along z, zero gyro, constant stretch (or no stretch column)."""
    values = np.zeros((n, 6 if stretch is None else 7))
    values[:, 2] = 1.0
    if stretch is not None:
        values[:, 6] = stretch
    return values


def make_recording(n: int = 256, period_ms: int = 10, label=ActivityLabel.Walk, stretch=0.5):
    """make_values at a fixed period, every sample labeled `label` (None: unlabeled)."""
    codes = np.full(n, -1 if label is None else label.value)
    label_set = None if label is None else type(label)
    return LabeledRecording(np.arange(n) * period_ms, make_values(n, stretch), codes, label_set)


def sine_recording(n: int, freq_hz: float, amp: float, rate_hz: float = 100.0, axis: int = 2):
    """Unlabeled recording with a sinusoid of amplitude amp about 1 g on one accel axis."""
    values = np.zeros((n, 6))
    values[:, axis] = 1.0 + amp * np.sin(2.0 * np.pi * freq_hz * (np.arange(n) / rate_hz))
    return LabeledRecording(np.round(np.arange(n) * 1000 / rate_hz).astype(np.int64), values)


@pytest.fixture
def tiny_har_model():
    """Three-class synthetic label models, cheap enough for per-test generation."""
    return {
        ActivityLabel.Walk: LabelSignalModel(
            orientation=(0.0, 0.0, 1.0), freq_hz=2.0, amp_g=0.35,
            noise_sigma=0.02, stretch_base=0.4, stretch_amp=0.25,
        ),
        ActivityLabel.Sit: LabelSignalModel(
            orientation=(0.15, 0.0, 0.99), freq_hz=0.0, amp_g=0.0,
            noise_sigma=0.01, stretch_base=0.7, stretch_amp=0.0,
        ),
        ActivityLabel.LieDown: LabelSignalModel(
            orientation=(1.0, 0.0, 0.0), freq_hz=0.0, amp_g=0.0,
            noise_sigma=0.01, stretch_base=0.05, stretch_amp=0.0,
        ),
    }


def classified_windows(lines) -> list[tuple[int, str, int, str, int]]:
    """(t_ms, entity, window index, label, confidence) of each window that a trace's classify_run lines
    hold, in line order: a run of n windows from first_t_ms and index i, spacing s ms apart, holds window
    i + j at first_t_ms + j * s for j < n."""
    windows = []
    for line in lines:
        _, kind, entity, *details = line.rstrip("\n").split("\t")
        if kind == "classify_run":
            first, index, n, spacing, label, confidence = details
            windows += [(int(first) + j * int(spacing), entity, int(index) + j, label, int(confidence))
                        for j in range(int(n))]
    return windows


def one_line_a_window(lines) -> list[str]:
    """A trace's lines as trace version 4 wrote them, in another order: the other lines, with device_init
    less its cycle grid and duty_plan giving each slot's budget as its share of the hour to 4 decimals, then
    each classify_run line written out as its windows' classify lines."""
    kept = []
    for line in lines:
        parts = line.rstrip("\n").split("\t")
        if parts[1] == "device_init":
            del parts[-2:]
        elif parts[1] == "duty_plan":
            parts[3] = ",".join(f"{int(ms) / SLOT_MS:.4f}" for ms in parts[3].split(","))
        if parts[1] != "classify_run":
            kept.append("\t".join(parts))
    runs = classified_windows(line for line in lines if "\tclassify_run\t" in line)
    return kept + ["\t".join(map(str, (t_ms, "classify", *rest))) for t_ms, *rest in runs]
