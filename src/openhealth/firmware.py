"""Autonomous wearable-node behavior: power states, wake-on-motion, energy, memory.

Power accounting is state-dwell-time times a constant per-state power.
The duty-cycle allocator is a deliberately simple scheme: each hour slot
gets the active fraction its harvest (plus a uniform share of battery
above reserve) can fund beyond the always-on sleep floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import FRACTION, POSITIVE, DeviceProfile, FieldError, check_fields, finite, num
from .pipeline import FEATURES_PER_CHANNEL

MOTION_THRESHOLD_G = 0.05
SRAM_STACK_RESERVE = 4096
FLASH_CODE_RESERVE = 32768
RAW_SAMPLE_BYTES_PER_SCALAR = 2  # int16 ring buffer
ACTIVATION_BYTES = 8
BATTERY_RECOVERY_FRACTION = 0.05  # hysteresis after depletion
SLOT_MS = 3_600_000
SLOTS_PER_DAY = 24


# PowerState and DeviceEvent hash by identity, in C: the simulator looks a
# state up on every dwell and a (state, event) pair on every transition, and
# Enum's own __hash__ is a Python-level call. No code iterates a set of them.

class PowerState(Enum):
    Sleep = "Sleep"
    Sampling = "Sampling"
    Processing = "Processing"
    Transmitting = "Transmitting"

    __hash__ = object.__hash__


class DeviceEvent(Enum):
    MotionDetected = "MotionDetected"
    WindowFull = "WindowFull"
    InferenceDone = "InferenceDone"
    TxDone = "TxDone"
    IdleTimeout = "IdleTimeout"

    __hash__ = object.__hash__


# Legal transitions; step_state_machine returns None for every other (state, event) pair.
_TRANSITIONS: dict[tuple[PowerState, DeviceEvent], PowerState] = {
    (PowerState.Sleep, DeviceEvent.MotionDetected): PowerState.Sampling,
    (PowerState.Sampling, DeviceEvent.WindowFull): PowerState.Processing,
    (PowerState.Processing, DeviceEvent.InferenceDone): PowerState.Transmitting,
    (PowerState.Transmitting, DeviceEvent.TxDone): PowerState.Sampling,
    (PowerState.Sampling, DeviceEvent.IdleTimeout): PowerState.Sleep,
}


def step_state_machine(state: PowerState, event: DeviceEvent) -> PowerState | None:
    """The state the power-state machine moves to, or None if the pair is not legal."""
    return _TRANSITIONS.get((state, event))


def motion_detector(values: np.ndarray, threshold_g: float = MOTION_THRESHOLD_G) -> bool | np.ndarray:
    """True iff |accel| deviates from 1 g by more than the threshold anywhere in a window.

    values is an (..., n, >=3) sample array whose first three columns are
    accel in g, in canonical channel order; leading axes are a batch of
    windows. Returns one flag per window: a bool for one (n, >=3) window,
    else a bool array of the batch shape.
    """
    if values.shape[-2] < 2:
        raise ValueError("motion detection needs at least 2 samples")
    accel = values[..., :3]
    mags = np.sqrt(np.add.reduce(accel * accel, axis=-1))  # np.linalg.norm's own arithmetic
    flags = np.abs(mags - 1.0).max(axis=-1) > threshold_g
    return bool(flags) if flags.ndim == 0 else flags


def state_power_mw(profile: DeviceProfile, app: str, state: PowerState) -> float:
    if state is PowerState.Sleep:
        return profile.p_sleep_mw
    if state is PowerState.Transmitting:
        return profile.p_tx_mw
    return profile.active_power_mw(app)


def _harvest_profile(v):
    if isinstance(v, (list, tuple)) and len(v) == SLOTS_PER_DAY and all(finite(x) and x >= 0 for x in v):
        return tuple(float(x) for x in v)
    raise ValueError(f"expected {SLOTS_PER_DAY} nonnegative numbers")


@dataclass(frozen=True)
class EnergySettings:
    """Battery size and start level, hourly harvest and conversion efficiencies."""

    battery_capacity_mwh: float = 40.0
    battery_initial_mwh: float = 8.0
    harvest_profile_mw: tuple[float, ...] = (0.0,) * SLOTS_PER_DAY  # pre-MPPT, per hour slot
    mppt_efficiency: float = 0.95
    charge_efficiency: float = 1.0
    reserve_fraction: float = 0.2  # of capacity, kept back by the duty plan

    RULES = {
        "battery_capacity_mwh": POSITIVE,
        "battery_initial_mwh": num(lo=0.0),
        "harvest_profile_mw": _harvest_profile,
        "mppt_efficiency": FRACTION,
        "charge_efficiency": FRACTION,
        "reserve_fraction": num(lo=0.0, hi=0.9),
    }

    def __post_init__(self) -> None:
        check_fields(self)
        if self.battery_initial_mwh > self.battery_capacity_mwh:
            raise FieldError("battery_initial_mwh", "must not exceed battery_capacity_mwh")


def account_energy(
    battery_mwh: float,
    capacity_mwh: float,
    charge_efficiency: float,
    harvest_mw: float,
    consumption_mw: float,
    dt_ms: int,
) -> tuple[float, float, float, float, float, float]:
    """The energy rule: dt_ms at constant post-MPPT harvest and consumption.

    Returns (new battery level, net, curtailed, shortfall, harvested,
    consumed), all in mWh; depleted means a new level <= 0. Charging
    applies charge_efficiency; discharging is taken at face value.
    """
    dt_h = dt_ms / 3_600_000.0
    net_mw = harvest_mw - consumption_mw
    eff = charge_efficiency if net_mw >= 0 else 1.0
    net_mwh = net_mw * eff * dt_h
    raw = battery_mwh + net_mwh
    new_level = min(max(raw, 0.0), capacity_mwh)
    return (
        new_level, net_mwh, max(0.0, raw - capacity_mwh), max(0.0, -raw),
        harvest_mw * dt_h, consumption_mw * dt_h,
    )


@dataclass(frozen=True)
class DutyPlan:
    """Per-hour active fractions for one day, plus the funding arithmetic."""

    fractions: tuple[float, ...]
    planned_active_mwh: float
    available_mwh: float

    def __post_init__(self) -> None:
        if self.planned_active_mwh > self.available_mwh + 1e-9:
            raise ValueError("planned energy exceeds projected available energy")


def plan_duty_cycle(profile: DeviceProfile, app: str, energy: EnergySettings) -> DutyPlan:
    """Energy-neutral day plan from the settings' 24-slot harvest forecast.

    Each slot may spend its own post-MPPT harvest plus a uniform share of
    the initial battery above reserve, on top of the unavoidable sleep
    floor. The active cost rate is the worst-case active-state power so
    transmit bursts stay funded.
    """
    c_active = max(profile.active_power_mw(app), profile.p_tx_mw)  # mWh per full slot
    c_sleep = profile.p_sleep_mw  # below p_tx_mw, a DeviceProfile rule, so below c_active
    extra = max(0.0, energy.battery_initial_mwh - energy.reserve_fraction * energy.battery_capacity_mwh)
    share = extra / SLOTS_PER_DAY
    forecast_mw = energy.harvest_profile_mw
    fractions = []
    for h in forecast_mw:
        h_eff = energy.mppt_efficiency * h
        f = (h_eff + share - c_sleep) / (c_active - c_sleep)
        fractions.append(min(1.0, max(0.0, f)))
    planned = sum(f * (c_active - c_sleep) for f in fractions)
    available = sum(energy.mppt_efficiency * h for h in forecast_mw) + extra
    return DutyPlan(
        fractions=tuple(fractions),
        planned_active_mwh=planned,
        available_mwh=available,
    )


class BudgetError(ValueError):
    """A modeled memory footprint exceeds the device budget."""


@dataclass(frozen=True)
class MemoryLedger:
    sram_used_bytes: int
    flash_used_bytes: int
    sram_budget_bytes: int
    flash_budget_bytes: int

    @property
    def sram_headroom(self) -> int:
        return self.sram_budget_bytes - self.sram_used_bytes

    @property
    def flash_headroom(self) -> int:
        return self.flash_budget_bytes - self.flash_used_bytes


def memory_footprint(
    w: int,
    channels: int,
    layer_sizes: tuple[int, int, int],
    model_flash_bytes: int,
    profile: DeviceProfile,
) -> MemoryLedger:
    """SRAM/flash ledger for a configuration; raises BudgetError on overflow.

    SRAM: int16 sample ring buffer + float feature scratch + activations +
    stack reserve. Flash: quantized parameter image + code reserve.
    """
    d, h, c = layer_sizes
    if d != channels * FEATURES_PER_CHANNEL:
        raise ValueError(
            f"model input dimension {d} does not match {channels} channels "
            f"x {FEATURES_PER_CHANNEL} features"
        )
    sram = (
        w * channels * RAW_SAMPLE_BYTES_PER_SCALAR
        + ACTIVATION_BYTES * d
        + ACTIVATION_BYTES * (h + c)
        + SRAM_STACK_RESERVE
    )
    flash = model_flash_bytes + FLASH_CODE_RESERVE
    ledger = MemoryLedger(
        sram_used_bytes=sram,
        flash_used_bytes=flash,
        sram_budget_bytes=profile.sram_bytes,
        flash_budget_bytes=profile.flash_bytes,
    )
    if sram > profile.sram_bytes:
        raise BudgetError(
            f"SRAM budget exceeded: need {sram} bytes, have {profile.sram_bytes}"
        )
    if flash > profile.flash_bytes:
        raise BudgetError(
            f"flash budget exceeded: need {flash} bytes, have {profile.flash_bytes}"
        )
    return ledger
