from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from openhealth.core import ActivityLabel, LabeledRecording
from openhealth.dataio import LabelSignalModel

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
    """(t_ms, entity, window index, label, confidence) of each window that a trace's classify and
    classify_run lines hold, in line order: a run of n windows at t_ms from index i, spacing s ms apart,
    holds window i + j at t_ms + j * s for j < n."""
    windows = []
    for line in lines:
        t_ms, kind, entity, *details = line.rstrip("\n").split("\t")
        if kind == "classify":
            index, label, confidence = details
            windows.append((int(t_ms), entity, int(index), label, int(confidence)))
        elif kind == "classify_run":
            index, n, spacing, label, confidence = details
            first, spacing = int(t_ms), int(spacing)
            windows += [(first + j * spacing, entity, int(index) + j, label, int(confidence)) for j in range(int(n))]
    return windows


def one_line_a_window(lines) -> list[str]:
    """A trace's lines with each classify_run line written out as its windows' classify lines, after the
    other lines: the lines of trace version 4, in another order."""
    kept = [line.rstrip("\n") for line in lines if "\tclassify_run\t" not in line]
    runs = classified_windows(line for line in lines if "\tclassify_run\t" in line)
    return kept + ["\t".join(map(str, (t_ms, "classify", *rest))) for t_ms, *rest in runs]
