"""Windowing and feature extraction: raw recordings to classifier inputs.

Feature layout, per channel, in canonical channel order:
    [mean, std, min, max, |F1|..|F8|]
where Fk is the k-th nonzero-frequency coefficient of the W-point FFT of
the mean-removed channel, scaled by 2/W so a pure sinusoid of amplitude a
at bin k yields feature value a. Dimension D = channels * 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ActivityLabel, Label, LabeledRecording

FFT_BINS = 8
FEATURES_PER_CHANNEL = 4 + FFT_BINS
MIN_WINDOW = 2 * FFT_BINS  # need 8 nonzero rfft bins
MAJORITY_THRESHOLD = 0.75
MAX_GAP_PERIODS = 1.5
STD_FLOOR = 1e-8


@dataclass(frozen=True)
class FeatureStats:
    """Per-dimension z-score statistics, reusable at inference time."""

    mean: np.ndarray
    std: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.mean.shape[0])


def window_stride(w: int, overlap_fraction: float) -> int:
    return max(1, round(w * (1.0 - overlap_fraction)))


def majority_label(counts: Sequence[int], label_set: type) -> Label | None:
    """Label of one window from its per-code sample counts.

    counts[c] is the number of window samples with label code c, so the
    count of unlabeled samples (code -1) is the last entry. The label
    covering at least 75% of the window wins; an activity window holding
    two or more labels and no such majority is Transition; any other
    window has no label (None), and training and evaluation drop it.
    """
    labeled = list(counts[:-1])
    top = max(labeled)
    if top >= MAJORITY_THRESHOLD * sum(counts):
        return label_set(labeled.index(top))
    if label_set is ActivityLabel and sum(1 for c in labeled if c > 0) >= 2:
        return ActivityLabel.Transition
    return None


def segment(
    recording: LabeledRecording, w: int = 128, overlap_fraction: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Cut a recording into fixed-length windows with majority labels.

    Returns (starts, codes): the first sample index of each window and the
    code of its majority_label, -1 for a window without one. Windows
    containing a timing gap larger than 1.5 nominal sample periods are
    dropped. A recording shorter than w yields no windows.
    """
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError("overlap_fraction must be in [0, 1)")
    if w < 8:
        raise ValueError("window length must be >= 8")
    n = len(recording)
    starts = np.arange(0, max(n - w + 1, 0), window_stride(w, overlap_fraction))

    diffs = np.diff(recording.t_ms)
    period = float(np.median(diffs)) if diffs.size else 0.0
    gap_prefix = np.concatenate([[0], np.cumsum(diffs > MAX_GAP_PERIODS * period)])
    starts = starts[gap_prefix[starts + w - 1] == gap_prefix[starts]]

    label_set = recording.label_set
    if label_set is None:
        return starts, np.full(len(starts), -1, dtype=np.int64)
    # Per-window counts of every code from one prefix sum per code; code -1 takes the last column.
    counts = np.empty((len(starts), len(label_set) + 1), dtype=np.int64)
    prefix = np.zeros(n + 1, dtype=np.int64)
    for column, code in enumerate([*range(len(label_set)), -1]):
        np.cumsum(recording.codes == code, out=prefix[1:])
        counts[:, column] = prefix[starts + w] - prefix[starts]
    labels = [majority_label(c, label_set) for c in counts.tolist()]
    codes = np.array([-1 if label is None else label.value for label in labels], dtype=np.int64)
    return starts, codes


def windows_to_matrix(recording: LabeledRecording, starts: np.ndarray, w: int) -> np.ndarray:
    """(n, W, C) stack of the windows of length w beginning at the given sample indices."""
    starts = np.asarray(starts, dtype=np.int64)
    if not len(starts):
        raise ValueError("no windows")
    return recording.values[starts[:, None] + np.arange(w)]


_FEATURE_WINDOWS = 128  # windows featurized at once; bounds the transient window stack


def window_features(recording: LabeledRecording, starts: np.ndarray, w: int) -> np.ndarray:
    """(n, D) features of the windows of length w beginning at the given
    sample indices, gathered and featurized _FEATURE_WINDOWS windows at a time.

    Bit for bit extract_feature_matrix(windows_to_matrix(recording, starts, w)),
    without ever holding the whole window stack.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if not len(starts):
        raise ValueError("no windows")
    out = np.empty((len(starts), recording.values.shape[1] * FEATURES_PER_CHANNEL))
    for lo in range(0, len(starts), _FEATURE_WINDOWS):
        block = starts[lo : lo + _FEATURE_WINDOWS]
        out[lo : lo + len(block)] = extract_feature_matrix(windows_to_matrix(recording, block, w))
    return out


def extract_feature_matrix(windows: np.ndarray) -> np.ndarray:
    """Vectorized feature extraction over an (n, W, C) window stack."""
    if windows.ndim != 3:
        raise ValueError("expected (n_windows, W, channels) array")
    n, w, c = windows.shape
    if w < MIN_WINDOW:
        raise ValueError(f"window length {w} too short for {FFT_BINS} FFT bins (need >= {MIN_WINDOW})")
    mean = windows.mean(axis=1)
    spectrum = np.abs(np.fft.rfft(windows - mean[:, None, :], axis=1))[:, 1 : FFT_BINS + 1, :] * (2.0 / w)
    moments = np.stack([mean, windows.std(axis=1), windows.min(axis=1), windows.max(axis=1)], axis=1)
    # (n, 12, c): one column of features per channel; the transposed reshape lays them out channel by channel.
    return np.concatenate([moments, spectrum], axis=1).transpose(0, 2, 1).reshape(n, c * FEATURES_PER_CHANNEL)


def normalize_features(
    vectors: np.ndarray, stats: FeatureStats | None = None
) -> tuple[np.ndarray, FeatureStats]:
    """Z-score an (n, D) array of vectors per dimension, computing stats when not supplied.

    The standard deviation is floored at 1e-8 so constant dimensions map
    to zero instead of blowing up.
    """
    vectors = np.asarray(vectors, dtype=float)
    if stats is None:
        if vectors.shape[0] == 0:
            raise ValueError("cannot compute stats from an empty feature set")
        mean = vectors.mean(axis=0)
        std = np.maximum(vectors.std(axis=0), STD_FLOOR)
        stats = FeatureStats(mean=mean, std=std)
    if vectors.shape[1] != stats.dim:
        raise ValueError(f"dimension mismatch: vectors have {vectors.shape[1]}, stats have {stats.dim}")
    return (vectors - stats.mean) / stats.std, stats
