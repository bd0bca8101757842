from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from openhealth.classifier import init_model, quantize_model
from openhealth.core import DeviceProfile
from openhealth.firmware import (
    BudgetError,
    DeviceEvent,
    EnergySettings,
    PowerState,
    account_energy,
    energy_piece,
    memory_footprint,
    motion_detector,
    plan_duty_cycle,
    state_power_mw,
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
        (PowerState.Sleep, DeviceEvent.MotionDetected, PowerState.Sampling),
        (PowerState.Sampling, DeviceEvent.WindowFull, PowerState.Processing),
        (PowerState.Processing, DeviceEvent.InferenceDone, PowerState.Transmitting),
        (PowerState.Transmitting, DeviceEvent.TxDone, PowerState.Sampling),
        (PowerState.Sampling, DeviceEvent.IdleTimeout, PowerState.Sleep),
    ]
    for state, event, expected_state in cases:
        assert step_state_machine(state, event) is expected_state


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
            if (state, event) not in legal:
                assert step_state_machine(state, event) is None


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


def test_motion_detector_batch_flags_equal_per_window_calls():
    rng = np.random.default_rng(4)
    windows = [
        _samples([1.0] * 20),
        _samples([1.0] * 10 + [1.2] + [1.0] * 9),
        _samples([1.0] * 19 + [0.94]),
        _samples(1.0 + rng.normal(0.0, 0.01, 20)),
        _samples(1.0 + rng.normal(0.0, 0.05, 20)),
    ]
    batch = np.stack(windows)
    for threshold in (0.0, 0.05, 0.2):
        flags = motion_detector(batch, threshold_g=threshold)
        assert flags.shape == (len(windows),)
        assert flags.tolist() == [motion_detector(w, threshold_g=threshold) for w in windows]
    assert motion_detector(batch).tolist() == [False, True, True, False, True]
    # two batch axes: one flag per window
    assert motion_detector(batch.reshape(1, 5, 20, 6)).tolist() == [motion_detector(batch).tolist()]


# --- energy accounting -----------------------------------------------------

HOUR_MS = 3_600_000


def book_one(level, capacity, charge_eff, harvest, consumption, dt_ms):
    """One piece booked onto a ledger at level with zero sums: (new level, net, curtailed, shortfall, harvested, consumed)."""
    return account_energy((level, 0.0, 0.0, 0.0, 0.0, 0.0), capacity, [energy_piece(harvest, consumption, charge_eff, dt_ms)])


def test_one_hour_processing_drains_exactly_har_power():
    power = state_power_mw(DeviceProfile(), "har", PowerState.Processing)
    new, _, _, _, _, consumed = book_one(100.0, 200.0, 1.0, 0.0, power, HOUR_MS)
    assert new == pytest.approx(100.0 - 12.5, abs=1e-12)
    assert consumed == pytest.approx(12.5, abs=1e-12)
    assert new > 0.0  # not depleted


def test_one_hour_processing_gesture_power():
    power = state_power_mw(DeviceProfile(), "gesture", PowerState.Processing)
    new = book_one(100.0, 200.0, 1.0, 0.0, power, HOUR_MS)[0]
    assert new == pytest.approx(100.0 - 10.0, abs=1e-12)


def test_harvest_consumption_balance():
    power = state_power_mw(DeviceProfile(), "har", PowerState.Processing)
    new, net, _, _, _, _ = book_one(100.0, 200.0, 1.0, 12.5, power, HOUR_MS)
    assert new == pytest.approx(100.0, abs=1e-12)
    assert net == pytest.approx(0.0, abs=1e-12)


def test_battery_clamps_at_capacity():
    power = state_power_mw(DeviceProfile(), "har", PowerState.Sleep)
    new, _, curtailed, _, _, _ = book_one(199.9, 200.0, 1.0, 100.0, power, HOUR_MS)
    assert new == 200.0
    assert curtailed > 0
    assert new - 199.9 == pytest.approx(0.1, abs=1e-9)


def test_depletion_is_new_level_zero_not_exception():
    power = state_power_mw(DeviceProfile(), "har", PowerState.Processing)
    new, _, _, shortfall, _, _ = book_one(1.0, 200.0, 1.0, 0.0, power, HOUR_MS)
    assert new == 0.0  # depleted
    assert shortfall == pytest.approx(11.5, abs=1e-9)


def test_mixed_dwell_weights_power():
    profile = DeviceProfile()
    dwell = {PowerState.Sleep: 0.5, PowerState.Processing: 0.25, PowerState.Transmitting: 0.25}
    power = sum(state_power_mw(profile, "har", state) * frac for state, frac in dwell.items())
    consumed = book_one(100.0, 200.0, 1.0, 0.0, power, HOUR_MS)[5]
    expected = 0.5 * 0.3 + 0.25 * 12.5 + 0.25 * 15.0
    assert consumed == pytest.approx(expected, abs=1e-12)



def test_charge_efficiency_applies_only_when_charging():
    new, net, _, _, _, _ = book_one(100.0, 200.0, 0.8, 30.0, 10.0, HOUR_MS)
    assert net == pytest.approx(0.8 * 20.0, abs=1e-12)
    assert new == pytest.approx(116.0, abs=1e-12)
    new, net, _, _, _, _ = book_one(100.0, 200.0, 0.8, 10.0, 30.0, HOUR_MS)
    assert net == pytest.approx(-20.0, abs=1e-12)
    assert new == pytest.approx(80.0, abs=1e-12)


def test_harvested_and_consumed_are_gross():
    # Reported before charge efficiency and clamping at either end.
    new, _, curtailed, _, harvested, consumed = book_one(199.0, 200.0, 0.5, 40.0, 10.0, HOUR_MS)
    assert new == 200.0
    assert curtailed == pytest.approx(199.0 + 0.5 * 30.0 - 200.0, abs=1e-12)
    assert (harvested, consumed) == (40.0, 10.0)
    new, _, _, shortfall, harvested, consumed = book_one(1.0, 200.0, 1.0, 0.0, 12.5, HOUR_MS)
    assert new == 0.0
    assert shortfall == pytest.approx(11.5, abs=1e-12)
    assert (harvested, consumed) == (0.0, 12.5)


def test_split_step_matches_one_step():
    # The simulator splits a dwell at hour-slot boundaries; inside the
    # battery's range the pieces must add up to the unsplit step.
    whole = book_one(100.0, 200.0, 0.9, 7.0, 3.0, HOUR_MS)
    level, totals = 100.0, [0.0] * 5
    for dt_ms in (1_234_567, HOUR_MS - 1_234_567):
        level, *parts = book_one(level, 200.0, 0.9, 7.0, 3.0, dt_ms)
        totals = [a + b for a, b in zip(totals, parts)]
    assert level == pytest.approx(whole[0], abs=1e-12)
    assert totals == pytest.approx(list(whole[1:]), abs=1e-12)

@settings(max_examples=100, deadline=None)
@given(
    level=st.floats(0.001, 10.0),
    pieces=st.lists(
        st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0), st.floats(0.1, 1.0), st.integers(1, HOUR_MS)),
        min_size=1,
        max_size=30,
    ),
)
def test_a_sequence_of_pieces_books_as_one_piece_calls_in_order(level, pieces):
    """On a 10 mWh battery, pieces of up to 40 mW for up to an hour cross 0 and
    the capacity. The sequence form books what one-piece calls book in order, to
    the bit."""
    products = [energy_piece(harvest, consumption, eff, dt_ms) for harvest, consumption, eff, dt_ms in pieces]
    ledger = account_energy((level, 0.0, 0.0, 0.0, 0.0, 0.0), 10.0, products)
    alone = clamped = (level, 0.0, 0.0, 0.0, 0.0, 0.0)
    for product in products:
        alone = account_energy(alone, 10.0, [product])
        assert 0.0 <= alone[0] <= 10.0
        # The rule as a clamp: what it cuts above the capacity is curtailed, below 0 shortfall.
        old, net_cum, curtailed, shortfall, harvested, consumed = clamped
        net, harvest, consumption = product
        raw = old + net
        clamped = (min(max(raw, 0.0), 10.0), net_cum + net, curtailed + max(0.0, raw - 10.0),
                   shortfall + max(0.0, -raw), harvested + harvest, consumed + consumption)
        assert [mwh.hex() for mwh in alone] == [mwh.hex() for mwh in clamped]
    assert [mwh.hex() for mwh in ledger] == [mwh.hex() for mwh in alone]


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
    for state, dt_ms, harvest in steps:
        power = state_power_mw(profile, "har", state)
        level, net, curtailed, shortfall, _, _ = book_one(level, capacity, 1.0, harvest, power, dt_ms)
        ledger_total += net - curtailed + shortfall
        assert 0.0 <= level <= capacity
    assert level == pytest.approx(50.0 + ledger_total, abs=1e-6)


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


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0.0, 50.0), min_size=24, max_size=24),
    st.floats(0.0, 200.0),
    st.floats(0.01, 1.0),
    st.floats(0.0, 0.9),
    st.floats(0.01, 14.99),
)
def test_duty_plan_never_plans_more_than_the_day_has(harvest, battery, mppt, reserve, p_sleep):
    """Each slot plans at most its own harvest plus its share of the battery above reserve."""
    energy = EnergySettings(
        battery_capacity_mwh=200.0, battery_initial_mwh=battery, harvest_profile_mw=tuple(harvest),
        mppt_efficiency=mppt, reserve_fraction=reserve,
    )
    plan = plan_duty_cycle(DeviceProfile(p_sleep_mw=p_sleep), "har", energy)
    available = sum(mppt * h for h in harvest) + max(0.0, battery - reserve * 200.0)
    assert plan.planned_active_mwh <= available * (1 + 1e-12) + 1e-9


def test_duty_plan_validation():
    with pytest.raises(ValueError, match="24"):
        EnergySettings(harvest_profile_mw=(1.0,) * 23)
    with pytest.raises(ValueError, match="nonnegative"):
        EnergySettings(harvest_profile_mw=(-1.0,) + (0.0,) * 23)


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
