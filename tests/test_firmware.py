from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from openhealth.classifier import init_model, quantize_model
from openhealth.core import DeviceProfile
from openhealth.firmware import (
    BudgetError,
    DeviceAction,
    DeviceEvent,
    DutyPlan,
    EnergySettings,
    PowerState,
    account_energy,
    memory_footprint,
    motion_detector,
    plan_duty_cycle,
    sinusoidal_daylight_profile,
    step_state_machine,
)


def make_energy(battery=100.0, capacity=200.0, harvest=0.0, mppt=1.0, charge_eff=1.0):
    return EnergySettings(
        battery_capacity_mwh=capacity,
        battery_initial_mwh=battery,
        harvest_profile_mw=(harvest,) * 24,
        mppt_efficiency=mppt,
        charge_efficiency=charge_eff,
    )


# --- state machine ---------------------------------------------------------

def test_legal_transitions():
    cases = [
        (PowerState.Sleep, DeviceEvent.MotionDetected, PowerState.Sampling, DeviceAction.StartSampling),
        (PowerState.Sampling, DeviceEvent.WindowFull, PowerState.Processing, DeviceAction.RunInference),
        (PowerState.Processing, DeviceEvent.InferenceDone, PowerState.Transmitting, DeviceAction.EnqueueDataFrame),
        (PowerState.Transmitting, DeviceEvent.TxDone, PowerState.Sampling, DeviceAction.ResumeSampling),
        (PowerState.Sampling, DeviceEvent.IdleTimeout, PowerState.Sleep, DeviceAction.EnterLowPower),
    ]
    for state, event, expected_state, expected_action in cases:
        result = step_state_machine(state, event)
        assert not result.noop
        assert result.state is expected_state
        assert result.actions == (expected_action,)


def test_all_other_pairs_are_noops():
    legal = {
        (PowerState.Sleep, DeviceEvent.MotionDetected),
        (PowerState.Sampling, DeviceEvent.WindowFull),
        (PowerState.Processing, DeviceEvent.InferenceDone),
        (PowerState.Transmitting, DeviceEvent.TxDone),
        (PowerState.Sampling, DeviceEvent.IdleTimeout),
    }
    for state in PowerState:
        for event in DeviceEvent:
            result = step_state_machine(state, event)
            if (state, event) in legal:
                continue
            assert result.noop
            assert result.state is state
            assert result.actions == ()


# --- motion detection ------------------------------------------------------

def _samples(mags):
    """(n, 6) sample matrix with |accel| = m along z and zero gyro."""
    values = np.zeros((len(mags), 6))
    values[:, 2] = mags
    return values


def test_motion_detector_stationary():
    assert motion_detector(_samples([1.0] * 20)) is False
    # only the accel columns count: gyro and stretch columns are ignored
    still = np.hstack([_samples([1.0] * 20)[:, :3], np.full((20, 3), 500.0), np.full((20, 1), 0.9)])
    assert motion_detector(still) is False


def test_motion_detector_spike():
    assert motion_detector(_samples([1.0] * 10 + [1.2] + [1.0] * 9), threshold_g=0.05) is True


def test_motion_detector_zero_threshold():
    assert motion_detector(_samples([1.0, 1.0001]), threshold_g=0.0) is True


def test_motion_detector_needs_two_samples():
    with pytest.raises(ValueError):
        motion_detector(_samples([1.0]))


# --- energy accounting -----------------------------------------------------

def test_one_hour_processing_drains_exactly_har_power():
    profile = DeviceProfile()
    new, delta, depleted = account_energy(
        {PowerState.Processing: 1.0}, profile, "har", 100.0, make_energy(), t_ms=0, dt_ms=3_600_000
    )
    assert new == pytest.approx(100.0 - 12.5, abs=1e-12)
    assert delta.consumed_mwh == pytest.approx(12.5, abs=1e-12)
    assert not depleted


def test_one_hour_processing_gesture_power():
    profile = DeviceProfile()
    new, _, _ = account_energy(
        {PowerState.Processing: 1.0}, profile, "gesture", 100.0, make_energy(), t_ms=0, dt_ms=3_600_000
    )
    assert new == pytest.approx(100.0 - 10.0, abs=1e-12)


def test_harvest_consumption_balance():
    profile = DeviceProfile()
    energy = make_energy(harvest=12.5, mppt=1.0)
    new, delta, _ = account_energy(
        {PowerState.Processing: 1.0}, profile, "har", 100.0, energy, t_ms=0, dt_ms=3_600_000
    )
    assert new == pytest.approx(100.0, abs=1e-12)
    assert delta.applied_mwh == pytest.approx(0.0, abs=1e-12)


def test_battery_clamps_at_capacity():
    profile = DeviceProfile()
    energy = make_energy(capacity=200.0, harvest=100.0)
    new, delta, _ = account_energy(
        {PowerState.Sleep: 1.0}, profile, "har", 199.9, energy, t_ms=0, dt_ms=3_600_000
    )
    assert new == 200.0
    assert delta.curtailed_mwh > 0
    assert delta.applied_mwh == pytest.approx(0.1, abs=1e-9)


def test_depletion_is_flag_not_exception():
    profile = DeviceProfile()
    new, delta, depleted = account_energy(
        {PowerState.Processing: 1.0}, profile, "har", 1.0, make_energy(), t_ms=0, dt_ms=3_600_000
    )
    assert depleted and new == 0.0
    assert delta.shortfall_mwh == pytest.approx(11.5, abs=1e-9)


def test_dwell_fractions_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        account_energy({PowerState.Sleep: 0.5}, DeviceProfile(), "har", 100.0, make_energy(), 0, 1000)


def test_mixed_dwell_weights_power():
    profile = DeviceProfile()
    new, delta, _ = account_energy(
        {PowerState.Sleep: 0.5, PowerState.Processing: 0.25, PowerState.Transmitting: 0.25},
        profile, "har", 100.0, make_energy(), t_ms=0, dt_ms=3_600_000,
    )
    expected = 0.5 * 0.3 + 0.25 * 12.5 + 0.25 * 15.0
    assert delta.consumed_mwh == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(PowerState)),
            st.integers(1, 48 * 3_600_000),
            st.floats(0.0, 50.0),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_battery_bounds_hold_for_random_schedules(steps):
    profile = DeviceProfile()
    level, capacity = 50.0, 100.0
    ledger_total = 0.0
    t = 0
    for state, dt_ms, harvest in steps:
        energy = make_energy(capacity=capacity, battery=level, harvest=harvest)
        level, delta, _ = account_energy({state: 1.0}, profile, "har", level, energy, t, dt_ms)
        ledger_total += delta.applied_mwh
        t += dt_ms
        assert 0.0 <= level <= capacity
    assert level == pytest.approx(50.0 + ledger_total, abs=1e-6)


def test_account_energy_reads_the_harvest_of_its_hour_slot():
    profile = DeviceProfile()
    forecast = tuple(float(h) for h in range(24))
    energy = EnergySettings(battery_capacity_mwh=200.0, battery_initial_mwh=100.0, harvest_profile_mw=forecast)
    for t_ms, slot in ((0, 0), (3_599_999, 0), (3_600_000, 1), (25 * 3_600_000 + 7, 1), (47 * 3_600_000, 23)):
        _, delta, _ = account_energy({PowerState.Sleep: 1.0}, profile, "har", 100.0, energy, t_ms, 3_600_000)
        assert delta.harvest_mwh == energy.mppt_efficiency * forecast[slot]


# --- duty planning ---------------------------------------------------------

def test_duty_plan_fully_funded_slots():
    profile = DeviceProfile(p_tx_mw=12.5)  # active cost = 12.5 mWh per slot
    energy = make_energy(battery=40.0, capacity=200.0, harvest=12.5, mppt=1.0)
    plan = plan_duty_cycle(profile, "har", energy)
    assert plan.fractions == tuple([1.0] * 24)


def test_duty_plan_zero_forecast_battery_at_reserve():
    profile = DeviceProfile()
    energy = make_energy(battery=40.0, capacity=200.0)
    plan = plan_duty_cycle(profile, "har", energy)
    assert plan.fractions == tuple([0.0] * 24)


def test_duty_plan_zero_forecast_funded_by_battery():
    profile = DeviceProfile()
    energy = make_energy(battery=200.0, capacity=200.0, mppt=1.0)
    plan = plan_duty_cycle(profile, "har", energy)
    assert all(f > 0 for f in plan.fractions)


def test_duty_plan_half_funded_slots_budget_inequality():
    profile = DeviceProfile(p_tx_mw=12.5)
    energy = make_energy(battery=30.0, capacity=30.0, harvest=12.5 / 2, mppt=1.0)
    plan = plan_duty_cycle(profile, "har", energy)
    assert all(0.0 < f < 1.0 for f in plan.fractions)
    # direct summation oracle for the funding inequality
    c_active, c_sleep = 12.5, profile.p_sleep_mw
    planned = sum(f * (c_active - c_sleep) for f in plan.fractions)
    available = sum(energy.harvest_profile_mw) + (30.0 - 0.2 * 30.0)
    assert planned <= available + 1e-9


def test_duty_plan_validation():
    with pytest.raises(ValueError, match="24"):
        EnergySettings(harvest_profile_mw=(1.0,) * 23)
    with pytest.raises(ValueError, match="nonnegative"):
        EnergySettings(harvest_profile_mw=(-1.0,) + (0.0,) * 23)


def test_duty_plan_invariant_enforced():
    with pytest.raises(ValueError, match="exceeds"):
        DutyPlan(fractions=tuple([1.0] * 24), planned_active_mwh=100.0, available_mwh=50.0)


def test_sinusoidal_profile_shape():
    slots = sinusoidal_daylight_profile(60.0, night_floor_mw=2.0)
    assert len(slots) == 24
    assert slots[0] == 2.0 and slots[23] == 2.0
    assert max(slots) <= 62.0
    assert slots[12] > slots[7] > slots[5]


# --- memory budgets --------------------------------------------------------

def test_memory_footprint_default_configuration():
    profile = DeviceProfile()
    qm = quantize_model(init_model((84, 16, 7), seed=0))
    ledger = memory_footprint(128, 7, (84, 16, 7), qm.flash_bytes, profile)
    # arithmetic per the stated formula
    assert ledger.sram_used_bytes == 128 * 7 * 2 + 8 * 84 + 8 * (16 + 7) + 4096
    assert ledger.sram_used_bytes == 6744
    assert ledger.sram_used_bytes <= 20480
    assert ledger.flash_used_bytes == qm.flash_bytes + 32768
    assert ledger.flash_used_bytes <= 131072


def test_memory_footprint_sram_overflow_named():
    profile = DeviceProfile()
    with pytest.raises(BudgetError, match="SRAM"):
        memory_footprint(4096, 7, (84, 16, 7), 1529, profile)


def test_memory_footprint_flash_overflow_named():
    profile = DeviceProfile()
    with pytest.raises(BudgetError, match="flash"):
        memory_footprint(128, 7, (84, 16, 7), 131072, profile)


def test_memory_footprint_zero_model_flash_reserve_only():
    profile = DeviceProfile()
    ledger = memory_footprint(128, 7, (84, 16, 7), 0, profile)
    assert ledger.flash_used_bytes == 32768


def test_memory_footprint_dimension_consistency():
    with pytest.raises(ValueError, match="channels"):
        memory_footprint(128, 6, (84, 16, 7), 1529, DeviceProfile())
