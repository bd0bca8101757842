from __future__ import annotations

import hashlib
from base64 import b64encode

import numpy as np
import pytest
from hypothesis import settings

from openhealth.core import ActivityLabel, LabeledRecording
from openhealth.dataio import LabelSignalModel
from openhealth.netproto import HEADER_LEN
from openhealth.simengine import trace_records

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
    """A trace's lines with each classify_run line written out as its windows' classify lines, as trace
    version 4 wrote them, after the other lines."""
    kept = [line for line in lines if "\tclassify_run\t" not in line]
    runs = classified_windows(line for line in lines if "\tclassify_run\t" in line)
    return kept + ["\t".join(map(str, (t_ms, "classify", *rest))) for t_ms, *rest in runs]


FRAME_KINDS = ("frame_tx", "frame_corrupt")


def frames(lines, kinds=("frame_tx",)) -> dict[int, bytes]:
    """The whole frame, as trace_records reads it, of each line of a trace whose kind is in kinds, by the
    line's index: the one place where a test reads a frame from its line."""
    return {lineno - 1: details[-1] for lineno, _, kind, _, details in trace_records(lines, parse=kinds)
            if kind in kinds}


def with_frame(line: str, frame: bytes) -> str:
    """A frame_tx or frame_corrupt line that carries frame in place of its own, the one place where a test
    writes a frame to a line: a frame_tx line its body, in base64 after the columns that give its header,
    which keep their values; a frame_corrupt line the whole frame."""
    parts = line.split("\t")
    parts[-1] = b64encode(frame[HEADER_LEN:] if parts[1] == "frame_tx" else frame).decode("ascii")
    return "\t".join(parts)


# The frame type of each host line whose frame a trace's lines name by (device_id, seq, ...).
_RECEIPT_TYPE = {"observation": "DATA", "alert_notified": "ALERT"}


def trace_events(lines) -> list[tuple]:
    """The facts of a trace, one canonical tuple each, whichever line carries them and however it is
    written: (t_ms, kind, entity, *details), each detail as its line writes it, but for these.

    - A window, of a classify_run line or of a version-4 classify line (one_line_a_window), is
      (t_ms, "window", entity, index, label, confidence) at its own time; a run's close is no fact.
    - A frame_tx or frame_corrupt line's frame is its full bytes, as trace_records reads them, in place
      of its text and of frame_tx's length.
    - An observation line that carries its seq (version 7 on), or an alert_notified line, is also the
      host's frame_rx receipt of its DATA or ALERT frame, unless a frame_rx line gave that receipt
      (version 6, or with_frame_rx); the observation fact leaves the seq to the receipt.
    - The trace_version line is no fact.
    """
    lines = [line.rstrip("\n") for line in lines]
    framed = lines[:1] + [line for line in lines[1:] if line.split("\t", 2)[1] in FRAME_KINDS]
    sent = iter(frames(framed, FRAME_KINDS).values())
    events = [(t_ms, "window", *rest) for t_ms, *rest in classified_windows(lines)]
    receipts = set()
    for line in lines[1:]:
        t_ms, kind, entity, *details = line.split("\t")
        t_ms = int(t_ms)
        if kind == "classify":
            events.append((t_ms, "window", entity, int(details[0]), details[1], int(details[2])))
        elif kind in FRAME_KINDS:
            events.append((t_ms, kind, entity, *details[: 3 if kind == "frame_tx" else 4], next(sent)))
        elif kind in _RECEIPT_TYPE:
            if kind == "alert_notified" or len(details) == 6:
                receipt = (t_ms, "frame_rx", entity, _RECEIPT_TYPE[kind], *details[:2])
                if receipt not in receipts:
                    events.append(receipt)
                if kind == "observation":
                    del details[1]
            events.append((t_ms, kind, entity, *details))
        elif kind != "classify_run":
            events.append((t_ms, kind, entity, *details))
            if kind == "frame_rx":
                receipts.add(events[-1])
    return events


def events_digest(lines) -> str:
    """SHA-256 of a trace's facts (trace_events), sorted."""
    return hashlib.sha256(repr(sorted(trace_events(lines))).encode("utf-8")).hexdigest()
