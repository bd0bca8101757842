"""Windowing and feature extraction: raw recordings to classifier inputs.

Feature layout, per channel, in canonical channel order:
    [mean, std, min, max, |F1|..|F8|]
where Fk is the k-th nonzero-frequency coefficient of the W-point FFT of
the mean-removed channel, scaled by 2/W so a pure sinusoid of amplitude a
at bin k yields feature value a. Dimension D = channels * 12.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import APPS, ActivityLabel, Label, LabeledRecording

FFT_BINS = 8
FEATURES_PER_CHANNEL = 4 + FFT_BINS
MIN_WINDOW = 2 * FFT_BINS  # the shortest window whose rfft has FFT_BINS nonzero bins: PipelineSettings' floor
MAJORITY_THRESHOLD = 0.75
MAX_GAP_PERIODS = 1.5
STD_FLOOR = 1e-8


@dataclass(frozen=True)
class FeatureStats:
    """Per-dimension z-score statistics, reusable at inference time."""

    mean: np.ndarray
    std: np.ndarray


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


class Windows(NamedTuple):
    """The windows scan_windows keeps: first sample index, majority-label code (-1 for none) and features
    (None unless asked for) of each; the recording's label set and channel count (None without a block)."""

    starts: np.ndarray
    codes: np.ndarray
    features: np.ndarray | None
    label_set: type | None
    channels: int | None


_FEATURE_WINDOWS = 128  # windows featurized at once; bounds the transient window stack
_CODE_ORDER = np.array([*range(max(map(len, APPS.values()))), -1])  # count columns: every label code, then -1


def scan_windows(
    blocks: Iterable[LabeledRecording], w: int = 128, overlap_fraction: float = 0.5, features: bool = True
) -> Windows:
    """Fixed-length windows with majority labels, in one pass over a recording's consecutive blocks.

    A window starts every window_stride samples; one holding a timing gap above 1.5 median sample
    periods is dropped. Fewer than w rows carry from block to block. Each complete window keeps its
    largest timestamp step, its per-code sample counts and its features, featurized _FEATURE_WINDOWS
    windows at a time across blocks. A histogram of the steps gives the median after the last block,
    so nothing depends on where the blocks are cut. w and overlap_fraction are within PipelineSettings'
    ranges (a w below MIN_WINDOW fails in extract_feature_matrix).
    """
    stride = window_stride(w, overlap_fraction)
    histogram: Counter[int] = Counter()  # timestamp step -> how many
    max_steps, counts = [np.empty(0, np.int64)], [np.empty((0, len(_CODE_ORDER)), np.int64)]
    feats, stack, filled = [], None, 0  # feature rows; the window stack being filled, and how far
    label_set = channels = carry = None
    offset = 0  # the next window's first row, counted from the carry's first
    for block in blocks:
        label_set = block.label_set if label_set is None else label_set
        channels = block.values.shape[1]
        if not len(block):
            continue
        columns = (block.t_ms, block.values, block.codes)
        t, v, c = columns if carry is None else (np.concatenate(pair) for pair in zip(carry, columns))
        steps = np.diff(t)
        seen, times = np.unique(steps if carry is None else steps[len(carry[0]) - 1 :], return_counts=True)
        histogram.update(dict(zip(seen.tolist(), times.tolist())))
        starts = np.arange(offset, len(t) - w + 1, stride)
        if len(starts):
            max_steps.append(sliding_window_view(steps, w - 1)[starts].max(axis=1))
            prefix = np.zeros((len(t) + 1, len(_CODE_ORDER)), np.int64)
            np.cumsum(c[:, None] == _CODE_ORDER, axis=0, out=prefix[1:])
            counts.append(prefix[starts + w] - prefix[starts])
            offset = int(starts[-1]) + stride
            if features and stack is None:
                stack = np.empty((_FEATURE_WINDOWS, w, channels))
            while features and len(starts):
                k = min(len(starts), _FEATURE_WINDOWS - filled)
                np.take(v, starts[:k, None] + np.arange(w), axis=0, out=stack[filled : filled + k])
                filled, starts = filled + k, starts[k:]
                if filled == _FEATURE_WINDOWS:
                    feats.append(extract_feature_matrix(stack))
                    filled = 0
        keep = min(offset, len(t) - 1)  # the last row stays for the step to the next block
        carry, offset = tuple(column[keep:].copy() for column in (t, v, c)), offset - keep
    if filled:
        feats.append(extract_feature_matrix(stack[:filled]))
    feats = np.concatenate(feats) if feats else None  # the list goes before any copy below

    kept = ~(np.concatenate(max_steps) > MAX_GAP_PERIODS * _median(histogram))
    counts = np.concatenate(counts)[kept]
    if label_set is None:
        codes = np.full(len(counts), -1, dtype=np.int64)
    else:
        labels = [majority_label(c, label_set) for c in counts[:, [*range(len(label_set)), -1]].tolist()]
        codes = np.array([-1 if label is None else label.value for label in labels], dtype=np.int64)
    features = feats if feats is None or kept.all() else feats[kept]
    return Windows(np.flatnonzero(kept) * stride, codes, features, label_set, channels)


def _median(histogram: Counter) -> float:
    """np.median of the steps a histogram counts, 0.0 for none."""
    if not histogram:
        return 0.0
    steps = sorted(histogram)
    ends = np.cumsum([histogram[step] for step in steps])
    middle = np.searchsorted(ends, [(ends[-1] - 1) // 2, ends[-1] // 2], side="right")  # equal for an odd count
    return float(np.median(np.array(steps, dtype=np.int64)[middle]))


def segment(recording: LabeledRecording, w: int = 128, overlap_fraction: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """(starts, codes) of scan_windows over the whole recording as one block."""
    return scan_windows([recording], w, overlap_fraction, features=False)[:2]


def windows_to_matrix(recording: LabeledRecording, starts: np.ndarray, w: int) -> np.ndarray:
    """(n, W, C) stack of the windows of length w beginning at the given sample indices."""
    return recording.values[np.asarray(starts, dtype=np.int64)[:, None] + np.arange(w)]


def extract_feature_matrix(windows: np.ndarray) -> np.ndarray:
    """Vectorized feature extraction over an (n, W, C) window stack, W >= MIN_WINDOW (a shorter
    window has too few FFT bins, and its rows fail to reshape with ValueError)."""
    n, w, c = windows.shape
    mean = windows.mean(axis=1)
    centered = windows - mean[:, None, :]
    spectrum = np.abs(np.fft.rfft(centered, axis=1)[:, 1 : FFT_BINS + 1, :]) * (2.0 / w)
    # windows.std(axis=1), bit for bit: numpy's std squares these same deviations from the same mean.
    centered *= centered
    # Min and max are exact in any order, so they run over a copy whose rows are contiguous channels.
    channels = np.ascontiguousarray(windows.transpose(0, 2, 1))
    moments = np.stack([mean, np.sqrt(centered.sum(axis=1) / w), channels.min(axis=2), channels.max(axis=2)], axis=1)
    # (n, 12, c): one column of features per channel; the transposed reshape lays them out channel by channel.
    return np.concatenate([moments, spectrum], axis=1).transpose(0, 2, 1).reshape(n, c * FEATURES_PER_CHANNEL)


def normalize_features(
    vectors: np.ndarray, stats: FeatureStats | None = None
) -> tuple[np.ndarray, FeatureStats]:
    """Z-score an (n, D) array of vectors per dimension, computing stats when not supplied.

    The standard deviation is floored at 1e-8 so constant dimensions map
    to zero instead of blowing up. Supplied stats must have D dimensions:
    classifier.check_fit holds a model's to its windows' features.
    """
    vectors = np.asarray(vectors, dtype=float)
    if stats is None:
        if vectors.shape[0] == 0:
            raise ValueError("cannot compute stats from an empty feature set")
        mean = vectors.mean(axis=0)
        std = np.maximum(vectors.std(axis=0), STD_FLOOR)
        stats = FeatureStats(mean=mean, std=std)
    normed = vectors - stats.mean
    normed /= stats.std  # in place: one (n, D) array, not two
    return normed, stats
