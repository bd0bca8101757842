from __future__ import annotations

import numpy as np
import pytest

from openhealth.core import (
    APPS,
    ActivityLabel,
    DeviceProfile,
    FieldError,
    GestureLabel,
    InvalidSample,
    LabeledRecording,
    parse_label,
)

from conftest import make_values


def test_activity_label_encoding_order():
    assert ActivityLabel.Drive.value == 0
    assert ActivityLabel.Transition.value == 6
    assert [l.value for l in ActivityLabel] == list(range(7))
    assert [l.value for l in GestureLabel] == list(range(4))


def test_parse_label_and_app_mapping():
    assert parse_label("Walk") is ActivityLabel.Walk
    assert parse_label("Up") is GestureLabel.Up
    with pytest.raises(ValueError):
        parse_label("Fly")
    assert APPS == {"har": ActivityLabel, "gesture": GestureLabel}


def test_default_profile_matches_cited_part():
    p = DeviceProfile()
    assert p.sram_bytes == 20480
    assert p.flash_bytes == 131072
    assert p.p_active_har_mw == 12.5
    assert p.p_active_gesture_mw == 10.0
    assert p.active_power_mw("har") == 12.5
    assert p.active_power_mw("gesture") == 10.0


def test_profile_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        DeviceProfile(p_sleep_mw=0.0)
    with pytest.raises(ValueError):
        DeviceProfile(sample_rate_hz=-1)


def test_profile_sleep_power_must_be_below_transmit_power():
    with pytest.raises(FieldError, match="^p_sleep_mw: must be below p_tx_mw$"):
        DeviceProfile(p_sleep_mw=20.0)
    assert DeviceProfile(p_sleep_mw=14.9).p_sleep_mw == 14.9


def test_recording_columns_must_be_of_equal_length():
    with pytest.raises(ValueError, match="equal length"):
        LabeledRecording([0, 10], make_values(2), np.array([-1]))


def test_sample_range_validation():
    values = make_values(2)
    values[0] = (16.0, -16.0, 0, 2000.0, -2000.0, 0, 1.0)
    values[1, 6] = 0.0
    LabeledRecording([0, 10], values).validate()
    for ch, v in [(0, 16.1), (4, -2001.0), (6, 1.2), (6, -0.1), (1, float("nan")), (3, float("inf"))]:
        bad = values.copy()
        bad[1, ch] = v
        with pytest.raises(InvalidSample, match="sample 1") as exc:
            LabeledRecording([0, 10], bad)
        assert exc.value.index == 1


def test_recording_requires_increasing_timestamps():
    with pytest.raises(InvalidSample, match="strictly increasing") as exc:
        LabeledRecording([0, 20, 10], make_values(3))
    assert exc.value.index == 2
    with pytest.raises(InvalidSample, match="strictly increasing"):
        LabeledRecording([0, 10, 10], make_values(3))


def test_recording_timestamps_may_span_the_int64_range():
    assert len(LabeledRecording([-(2**63), 2**63 - 1], make_values(2))) == 2
    with pytest.raises(InvalidSample, match="sample 1: t_ms -9223372036854775808 not strictly increasing"):
        LabeledRecording([2**63 - 1, -(2**63)], make_values(2))


def test_recording_requires_consistent_stretch():
    # stretch is a column: present on every sample or on none
    with pytest.raises(ValueError, match="stretch"):
        LabeledRecording([0, 10], np.zeros((2, 5)))
    values = make_values(3)
    values[1, 6] = float("nan")  # a sample without a stretch reading
    with pytest.raises(InvalidSample, match="stretch"):
        LabeledRecording([0, 10, 20], values)


def test_recording_rejects_codes_outside_label_set():
    codes = np.array([GestureLabel.Up.value, ActivityLabel.Transition.value])
    with pytest.raises(InvalidSample, match="not in GestureLabel"):
        LabeledRecording([0, 10], make_values(2), codes, GestureLabel)
    with pytest.raises(InvalidSample, match="unlabeled"):
        LabeledRecording([0, 10], make_values(2), np.array([-1, 0]))


def test_display_names():
    assert ActivityLabel.LieDown.display_name == "Lie Down"
    assert ActivityLabel.Transition.display_name == "Transitions"
    assert GestureLabel.Left.display_name == "Left"
