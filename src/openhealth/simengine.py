"""Deterministic discrete-event simulation of devices, channel and host.

Each device runs as its own shard: an event kernel, a channel and a host
that serve that device alone. Devices share no state, so shards can run in
any order or in parallel, and the trace merges their lines in one canonical
order (see scenario_lines). Simulated time is integer milliseconds.

A device draws from two streams, both keyed by (seed, device id), so neither
the event order nor another device can change what it sees. Its sensor noise
comes from a Philox counter-based generator keyed by the root of that seed:
the window that starts at t ms draws from block counter (0, t, 0, 0) on, so
each window owns 2^64 blocks and its samples depend only on (seed, device,
t). A device synthesizes the windows it expects next ahead of time, in
batches, but each from its own reset stream, so neither the batch size nor a
wrong guess can change a sample. Its channel draws every fate of the device's
frames, and of the host's ACKs to it, in the shard's send order from a
generator seeded by the same (seed, device id) under spawn key
CHANNEL_STREAM, which keeps it apart from the noise key.

Trace lines are UTF-8 and tab-separated, ``t_ms kind entity detail...``,
after a first line that gives the trace version; TRACE_LINES is their
grammar, which every reader checks through trace_records. Frame lines carry
the full frame hex, the channel byte log for privacy and nonce audits.

A device books all its energy, state dwell and transmit bursts alike,
through ``firmware.account_energy``. Its cycle moves only through
``firmware.step_state_machine``, except that an empty battery forces sleep.
"""

from __future__ import annotations

import heapq
import json
import os
import re
import tempfile
from bisect import bisect_right
from collections import defaultdict
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import cycle
from operator import itemgetter
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, TextIO

import numpy as np

from .classifier import MlpModel, ModelFitError, check_fit, forward, load_model
from .config import Config, ConfigError, DeviceSpec
from .core import Label, label_set_for
from .dataio import channel_count, synthesize_signal
from .firmware import (
    BATTERY_RECOVERY_FRACTION,
    DeviceEvent,
    DutyPlan,
    PowerState,
    SLOT_MS,
    SLOTS_PER_DAY,
    account_energy,
    motion_detector,
    plan_duty_cycle,
    state_power_mw,
    step_state_machine,
)
from .netproto import (
    CONFIDENCE_SCALE,
    DATA_FRAME_LEN,
    AppId,
    DataPayload,
    FrameType,
    HostGateway,
    Observation,
    ProtocolError,
    ReplayWindow,
    decode_frame,
    encode_frame,
    estimate_offset,
    pack_sync_report,
    pack_sync_request,
    peek_header,
    unpack_ack,
    unpack_sync_reply,
)
from .pipeline import extract_feature_matrix, majority_label, normalize_features

TRACE_VERSION = 4
MIN_RADIO_MS = 1
# The largest batch synthesized and labelled ahead. The cache keeps each window's
# motion flag and label, not its samples: a batch's 230 KB (32 windows of 128 x 7
# float64) lives only until it is labelled.
WINDOWS_AHEAD_MAX = 32
DAY_MS = SLOT_MS * SLOTS_PER_DAY
# The spawn key of a device's channel stream; its noise key is the root of the same (seed, device id).
CHANNEL_STREAM = 1
SPOOL_LINES = 1024  # the lines a shard holds before it writes them out; a write per line slowed sessions ~5%


class TraceFormatError(ValueError):
    """A trace line that does not parse; .line is its 1-based number."""

    def __init__(self, line: int, detail: str):
        super().__init__(f"line {line}: {detail}")
        self.line = line


class VersionMismatch(TraceFormatError):
    pass


class Simulator:
    """Event kernel: time-ordered queue with an insertion-order tiebreaker."""

    def __init__(self, seed: int, out: TextIO | None = None):
        self.seed = seed
        self.now = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._tie = 0
        self.lines: list[str] = []  # the emitted lines, less those spooled to the text file out if there is one
        self.out = out

    def schedule(self, t_ms: int, fn: Callable[[], None]) -> None:
        if t_ms < self.now:
            raise ValueError(f"event scheduled in the past ({t_ms} < {self.now})")
        heapq.heappush(self._heap, (t_ms, self._tie, fn))
        self._tie += 1

    def emit(self, kind: str, entity: str, *details) -> None:
        self.lines.append("\t".join(map(str, (self.now, kind, entity, *details))))
        if len(self.lines) >= SPOOL_LINES and self.out is not None:
            self.spool()

    def spool(self) -> None:
        self.out.write("\n".join([*self.lines, ""]))  # each line ended by a newline
        self.out.flush()  # a fork child leaves through os._exit, which flushes nothing
        self.lines.clear()

    def run(self, until_ms: int) -> None:
        while self._heap and self._heap[0][0] <= until_ms:
            t, _, fn = heapq.heappop(self._heap)
            self.now = t
            fn()
        self.now = until_ms


class SimChannel:
    """Lossy, latent, seeded bit-flipping link between one device and the host."""

    def __init__(self, sim: Simulator, model, device_id: int):
        self.sim = sim
        self.model = model
        entropy = np.random.SeedSequence([sim.seed, device_id], spawn_key=(CHANNEL_STREAM,))
        self.rng = np.random.Generator(np.random.PCG64(entropy))

    def _latency(self) -> int:
        lat = self.model.latency_ms
        if isinstance(lat, tuple):
            return int(self.rng.integers(lat[0], lat[1], endpoint=True))
        return lat

    def send(self, src: str, frame: bytes, receiver) -> None:
        _, type_value, device_id, seq, _ = peek_header(frame)
        kind = FrameType(type_value).name
        self.sim.emit("frame_tx", src, kind, device_id, seq, len(frame), frame.hex())
        if self.rng.random() < self.model.loss_probability:
            self.sim.emit("frame_lost", "channel", src, kind, device_id, seq)
            return
        if self.rng.random() < self.model.corruption_probability:
            flipped = bytearray(frame)
            bit = int(self.rng.integers(0, len(flipped) * 8))
            flipped[bit // 8] ^= 1 << (bit % 8)
            frame = bytes(flipped)
            self.sim.emit("frame_corrupt", "channel", src, kind, device_id, seq, frame.hex())
        self.sim.schedule(self.sim.now + self._latency(), lambda: receiver.receive(frame))


class SimHost:
    """Host gateway wrapper that routes ACKs for its shard's device back through the channel."""

    def __init__(self, sim: Simulator, gateway: HostGateway, channel: SimChannel, device: "SimDevice"):
        self.sim = sim
        self.gateway = gateway
        self.channel = channel
        self.device = device

    def receive(self, frame: bytes) -> None:
        result = self.gateway.step(self.sim.now, frame)
        if result.reject is None:
            self.sim.emit("frame_rx", "host", result.frame.frame_type.name, result.device_id, result.frame.seq)
        else:
            self.sim.emit("frame_reject", "host", result.device_id, result.reject)
        obs = result.observation
        if obs is not None:
            self.sim.emit(
                "observation", "host", obs.device_id, obs.corrected_t_ms,
                obs.app_id.value, obs.label_index, obs.confidence,
            )
        note = result.notification
        if note is not None:
            self.sim.emit("alert_notified", "host", note.device_id, note.seq, note.label_index)
        if result.ack is not None and result.device_id == self.device.spec.device_id:
            self.channel.send("host", result.ack, self.device)


@dataclass
class _PendingAlert:
    payload: bytes
    seq: int = 0  # taken, with the frame, when first sent
    frame: bytes = b""
    first_sent_ms: int = 0
    attempts: int = 0


class SimDevice:
    """Autonomous wearable node: wake-on-motion, classify, transmit, harvest."""

    def __init__(self, sim: Simulator, spec: DeviceSpec, config: Config, channel: SimChannel, model: MlpModel | None):
        self.sim = sim
        self.spec = spec
        self.config = config
        self.scenario = scenario = config.scenario
        self.channel = channel
        self.model = model
        self.name = f"dev{spec.device_id}"
        self.app = spec.app
        self.app_id = AppId[spec.app.upper()]
        self.label_set = label_set_for(spec.app)
        self.profile = config.profile
        self.key = config.protocol.key
        self.host: SimHost | None = None

        rate = self.profile.sample_rate_hz
        self.period_ms = 1000.0 / rate
        self.window = config.pipeline.window
        self.window_ms = round(self.window * 1000.0 / rate)
        self.data_tx_ms = self._tx_ms(DATA_FRAME_LEN)
        self.cycle_ms = self.window_ms + scenario.inference_latency_ms + self.data_tx_ms  # the longest cycle

        self.blocks = self._tile_blocks(spec.schedule, scenario.duration_ms)
        self.block_ends = [end for _, end, _ in self.blocks]
        self.sample_offsets_ms = np.arange(self.window) * self.period_ms
        self.signals = config.synthetic[spec.app].signals
        self.channels = channel_count(self.signals)
        # The key takes any seed size; noise_reset is a fresh state: counter 0, buffer empty.
        key = np.random.SeedSequence([sim.seed, spec.device_id]).generate_state(2, np.uint64)
        self.noise = np.random.Generator(np.random.Philox(key=key))
        self.noise_reset = self.noise.bit_generator.state
        # The oracle reads only the label counts, so it needs accel alone for motion.
        self.window_columns = 3 if model is None else self.channels
        self.ahead: dict[int, tuple[bool, tuple[Label, float] | None]] = {}  # see _window
        self.ahead_next: int | None = None  # the start that would follow the last batch

        e = config.energy
        self.battery_mwh = e.battery_initial_mwh
        self.capacity_mwh = e.battery_capacity_mwh
        self.charge_efficiency = e.charge_efficiency
        self.harvest_mw = [e.mppt_efficiency * h for h in e.harvest_profile_mw]  # post-MPPT, per hour slot
        self.power_mw = {state: state_power_mw(self.profile, self.app, state) for state in PowerState}
        self.duty_plan: DutyPlan | None = None
        if scenario.use_duty_plan:
            self.duty_plan = plan_duty_cycle(self.profile, self.app, e)

        self.state = PowerState.Sleep
        self.cycle_gen = 0
        self.window_index = 0
        self.last_motion_ms = -(10 ** 12)
        self.last_account_ms = 0
        self.depleted = False
        self.slot_active_ms: dict[int, float] = {}
        self.dwell_ms = dict.fromkeys(PowerState, 0)
        self.net_cum = 0.0
        self.curtailed_cum = 0.0
        self.shortfall_cum = 0.0
        self.harvest_cum = 0.0
        self.consumed_cum = 0.0

        self.seq = 0
        self.replay = ReplayWindow()
        self.sync_seq: int | None = None  # of the sync request awaiting its reply
        self.alert_queue: list[_PendingAlert] = []
        self.alert_labels = {
            name for name in scenario.alert_labels if name in self.label_set.__members__
        }

    # -- setup ---------------------------------------------------------------

    @staticmethod
    def _tile_blocks(schedule, duration_ms: int):
        """The schedule repeated up to duration_ms as (start, end, label) blocks."""
        blocks, t = [], 0
        for label, dur in cycle(schedule):  # DeviceSpec holds a non-empty schedule of blocks > 0 ms
            if t >= duration_ms:
                return blocks
            blocks.append((t, min(t + dur, duration_ms), label))
            t += dur

    def start(self) -> None:
        self.sim.emit(
            "device_init", self.name, self.app,
            f"{self.battery_mwh:.9f}", f"{self.capacity_mwh:.9f}", self.spec.clock_offset_ms,
        )
        if self.duty_plan is not None:
            self.sim.emit(
                "duty_plan", self.name,
                ",".join(f"{f:.4f}" for f in self.duty_plan.fractions),
            )
        self._emit_energy()
        self._send_management_frame(FrameType.HELLO, b"")
        self._start_sync(attempt=1)
        for start_ms, _, _ in self.blocks:
            self.sim.schedule(start_ms, self._wake_check)
        for t in range(SLOT_MS, self.scenario.duration_ms, SLOT_MS):
            self.sim.schedule(t, self._wake_check)
        tick = self.scenario.energy_log_interval_ms
        for t in range(tick, self.scenario.duration_ms, tick):
            self.sim.schedule(t, self._energy_tick)
        for t_ms, label in self.spec.alert_schedule:
            if t_ms < self.scenario.duration_ms:
                self.sim.schedule(t_ms, lambda lbl=label: self._trigger_alert(lbl))

    # -- clocks and signals ----------------------------------------------------

    def device_clock(self, t_ms: int) -> int:
        return max(0, t_ms + self.spec.clock_offset_ms)

    def _block_runs(self, t_ms: np.ndarray) -> list[tuple[int, int, Label]]:
        """Split sample times into runs of one schedule block: (i, j, label).

        A sample belongs to the block whose [start, end) holds its integer
        millisecond. A sample at or past the scenario end is a run of its
        own, labelled as the last block.
        """
        ends = self.block_ends
        first = bisect_right(ends, int(t_ms[0]))
        if first < len(ends) and int(t_ms[-1]) < ends[first]:  # most windows: one block
            return [(0, len(t_ms), self.blocks[first][2])]
        keys = np.searchsorted(ends, t_ms.astype(np.int64), side="right")
        last = len(self.blocks) - 1
        if keys[-1] > last:
            keys = keys + np.cumsum(keys > last)
        bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
        return [
            (i, j, self.blocks[min(int(keys[i]), last)][2]) for i, j in zip(bounds[:-1], bounds[1:])
        ]

    def _window_samples(self, starts: list[int], columns: int | None = None):
        """Synthesize together the W-sample windows beginning at starts.

        Each window's noise is the device's Philox stream from block counter
        (0, start, 0, 0), with the whole generator state reset first, so it
        does not depend on which windows were drawn before or beside it; the
        waveform and clipping then run once over the batch. A batch of more
        than one window must lie inside the block that holds starts[0]; a
        window that spans blocks comes alone. A one-block batch synthesizes
        only the first `columns` channels (all by default); a spanning window
        synthesizes every channel, block run by block run in time order, so
        each run's draws follow the last run's, then keeps the first `columns`.
        Returns the (k, W, columns) samples and the per-code label counts
        majority_label takes, which every window of the batch shares.
        """
        columns = columns or self.channels
        runs = self._block_runs(starts[0] + self.sample_offsets_ms)
        width = columns if len(runs) == 1 else self.channels
        z = np.empty((len(starts), self.window * width))
        reset, bit_generator = self.noise_reset, self.noise.bit_generator
        for start_ms, draws in zip(starts, z):
            reset["state"]["counter"][1] = start_ms
            bit_generator.state = reset
            self.noise.standard_normal(out=draws)
        t_s = (np.array(starts)[:, None] + self.sample_offsets_ms) / 1000.0
        matrix = np.empty((len(starts), self.window, width))
        counts = [0] * (len(self.label_set) + 1)
        for i, j, label in runs:
            synthesize_signal(self.signals[label], t_s[:, i:j], z[:, i * width : j * width], matrix[:, i:j])
            counts[label.value] += j - i
        return matrix[..., :columns], counts

    def _window(self, start_ms: int, labelled: bool = True) -> tuple[bool, tuple[Label, float] | None]:
        """The window beginning at start_ms, window number window_index: its
        motion flag and its (label, confidence), the model's or, on a device
        without one, the oracle's. Served from the windows synthesized and
        labelled ahead; a miss synthesizes start_ms and the starts predicted
        to follow it, each wholly inside the same schedule block, and labels
        them all. The batch doubles on each miss that lands where the last
        batch predicted, up to WINDOWS_AHEAD_MAX, and is one window
        otherwise, so a short wake wastes little; a batch predicts no start
        past its block, since the next block may be still. The windows of a
        batch share their label counts, so the oracle labels the batch once;
        the model classifies it in one _classify call; a lone still window read with labelled false gets None."""
        window = self.ahead.get(start_ms)
        if window is not None and (window[1] is not None or not labelled):
            return window
        n = min(2 * len(self.ahead), WINDOWS_AHEAD_MAX) if start_ms == self.ahead_next else 1
        # A window lies in one block iff its last sample time, summed as _block_runs sums it, is before the end.
        block = bisect_right(self.block_ends, start_ms)
        end = self.block_ends[block] if block < len(self.block_ends) else 0
        last_ms = self.sample_offsets_ms[-1]
        starts = [start_ms]
        following = self._next_start(start_ms, self.window_index)
        while len(starts) < n and following + last_ms < end:
            starts.append(following)
            following = self._next_start(following, self.window_index + len(starts) - 1)
        matrix, counts = self._window_samples(starts, self.window_columns)
        moving = motion_detector(matrix).tolist()
        labels = ([self._oracle(counts)] * len(starts) if self.model is None
                  else [None] if not labelled and moving == [False] else self._classify(matrix))
        self.ahead = dict(zip(starts, zip(moving, labels)))
        self.ahead_next = following if following + last_ms < end else None
        return self.ahead[start_ms]

    def _reports(self, index: int) -> bool:
        """Whether window number index (from 0) sends a data frame, on the air for data_tx_ms."""
        return (index + 1) % self.scenario.report_every_n_windows == 0

    def _next_start(self, start_ms: int, index: int) -> int:
        """Where the window after window number index, which begins at
        start_ms, begins if the cycle goes on."""
        tx_ms = self.data_tx_ms if self._reports(index) else MIN_RADIO_MS
        return start_ms + self.window_ms + self.scenario.inference_latency_ms + tx_ms

    def _oracle(self, counts: list[int]) -> tuple[Label, float]:
        """The schedule's label for a window with these label counts, and its share.
        The oracle must name a label: where majority_label gives none (a
        gesture window without a 75% majority), it names the top-count
        label, the lowest code on ties."""
        top = max(counts)
        label = majority_label(counts, self.label_set)
        if label is None:
            label = self.label_set(counts.index(top))
        return label, top / self.window

    def _classify(self, matrix: np.ndarray) -> list[tuple[Label, float]]:
        """The model's label and its probability for each window of a (k, W, c) batch.
        Features and their normalization give each row the same bytes in a
        batch as alone, so they run once over the batch. forward runs row by
        row: a batched matmul may differ from it in the last bits."""
        normed, _ = normalize_features(extract_feature_matrix(matrix), self.model.stats)
        labels = []
        for row in normed:
            probs = forward(self.model, row[None, :])[0]
            idx = int(np.argmax(probs))
            labels.append((self.label_set(idx), float(probs[idx])))
        return labels

    # -- energy ------------------------------------------------------------------

    def _advance(self, to_ms: int) -> None:
        """Book the current state's dwell up to to_ms, split per hour slot."""
        t = self.last_account_ms
        while t < to_ms:
            slot = t // SLOT_MS
            piece_end = min((slot + 1) * SLOT_MS, to_ms)
            dt = piece_end - t
            self.dwell_ms[self.state] += dt
            if self.state is not PowerState.Sleep:
                self.slot_active_ms[slot] = self.slot_active_ms.get(slot, 0.0) + dt
            self._book(self.harvest_mw[slot % SLOTS_PER_DAY], self.power_mw[self.state], dt)
            t = piece_end
        self.last_account_ms = to_ms

    def _burst(self, frame: bytes) -> None:
        """A frame sent outside the cycle: its air time at p_tx, on top of the dwell, unharvested.
        Booked after the send: a frame whose burst empties the battery was already on the air."""
        self._book(0.0, self.profile.p_tx_mw, self._tx_ms(len(frame)))

    def _book(self, harvest_mw: float, consumption_mw: float, dt_ms: int) -> None:
        """Add dt_ms of account_energy to the ledger; a battery that first runs dry forces sleep."""
        self.battery_mwh, net, curtailed, shortfall, harvest, consumed = account_energy(
            self.battery_mwh, self.capacity_mwh, self.charge_efficiency, harvest_mw, consumption_mw, dt_ms,
        )
        self.net_cum += net
        self.curtailed_cum += curtailed
        self.shortfall_cum += shortfall
        self.harvest_cum += harvest
        self.consumed_cum += consumed
        if self.battery_mwh <= 0.0 and not self.depleted:
            self.depleted = True
            self.sim.emit("battery_depleted", self.name)
            self.cycle_gen += 1  # the cycle's pending dwell end now finds a newer cycle
            self.state = PowerState.Sleep

    def _emit_energy(self) -> None:
        self.sim.emit(
            "energy", self.name,
            f"{self.battery_mwh:.9f}", f"{self.net_cum:.9f}",
            f"{self.curtailed_cum:.9f}", f"{self.shortfall_cum:.9f}",
            f"{self.harvest_cum:.9f}", f"{self.consumed_cum:.9f}",
            *self.dwell_ms.values(),
        )

    def _energy_tick(self) -> None:
        self._advance(self.sim.now)
        self._maybe_recover()
        self._emit_energy()

    def _maybe_recover(self) -> None:
        if self.depleted and self.battery_mwh >= BATTERY_RECOVERY_FRACTION * self.capacity_mwh:
            self.depleted = False
            self.sim.emit("battery_recovered", self.name)
            if self.alert_queue:
                self._send_alert_attempt()  # the head's retries stopped while depleted

    def finalize(self) -> None:
        self._advance(self.scenario.duration_ms)
        self._emit_energy()

    # -- the sleep/sampling/processing/transmitting cycle ------------------------------

    def _transition(self, event: DeviceEvent) -> tuple[int, PowerState]:
        """Take a cycle event the current state allows; returns the (cycle, state) entered."""
        self.state = step_state_machine(self.state, event)
        return self.cycle_gen, self.state

    def _end_dwell_after(
        self, dwell_ms: int, entered: tuple[int, PowerState], action: Callable[[], None]
    ) -> None:
        """After dwell_ms, book the dwell and run action, unless by then the
        device left the state entered (a forced sleep) or its battery is empty."""
        def end() -> None:
            if (self.cycle_gen, self.state) != entered:
                return
            self._advance(self.sim.now)
            if not self.depleted:
                action()

        self.sim.schedule(self.sim.now + dwell_ms, end)

    def _cycle_fits(self) -> bool:
        """Whether one more full cycle ends in the scenario and in its hour slot's duty budget."""
        if self.sim.now + self.cycle_ms > self.scenario.duration_ms:
            return False
        if self.duty_plan is None:
            return True
        slot = self.sim.now // SLOT_MS
        budget = self.duty_plan.fractions[slot % SLOTS_PER_DAY] * SLOT_MS
        return self.slot_active_ms.get(slot, 0.0) + self.cycle_ms <= budget

    def _wake_check(self) -> None:
        self._advance(self.sim.now)
        self._maybe_recover()
        if self.depleted or self.state is not PowerState.Sleep or not self._cycle_fits():
            return
        moving, _ = self._window(self.sim.now, labelled=False)  # the first window's, if the wake goes on
        if not moving:
            return
        self.last_motion_ms = self.sim.now
        entered = self._transition(DeviceEvent.MotionDetected)
        self._end_dwell_after(self.window_ms, entered, self._window_done)

    def _window_done(self) -> None:
        moving, (label, confidence) = self._window(self.sim.now - self.window_ms)
        if moving:
            self.last_motion_ms = self.sim.now
        entered = self._transition(DeviceEvent.WindowFull)
        conf_fp = min(CONFIDENCE_SCALE, round(confidence * CONFIDENCE_SCALE))
        self.sim.emit("classify", self.name, self.window_index, label.name, conf_fp)
        self._end_dwell_after(
            self.scenario.inference_latency_ms, entered, lambda: self._inference_done(label, conf_fp)
        )

    def _inference_done(self, label: Label, conf_fp: int) -> None:
        entered = self._transition(DeviceEvent.InferenceDone)
        reports = self._reports(self.window_index)
        self.window_index += 1
        if reports:
            payload = self._payload(label, conf_fp)
            frame = encode_frame(FrameType.DATA, self.spec.device_id, self._next_seq(), payload, self.key)
            self.channel.send(self.name, frame, self.host)
        if label.name in self.alert_labels:
            self._trigger_alert(label)  # its burst may empty the battery and cut this cycle short
        self._end_dwell_after(self.data_tx_ms if reports else MIN_RADIO_MS, entered, self._tx_done)

    def _tx_done(self) -> None:
        entered = self._transition(DeviceEvent.TxDone)
        idle = self.sim.now - self.last_motion_ms >= self.scenario.idle_timeout_ms
        if idle or not self._cycle_fits():
            self._transition(DeviceEvent.IdleTimeout)
            return
        self._end_dwell_after(self.window_ms, entered, self._window_done)

    # -- frames -------------------------------------------------------------------------

    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def _tx_ms(self, frame_len: int) -> int:
        bits = frame_len * 8
        return max(MIN_RADIO_MS, round(bits / self.scenario.tx_bitrate_kbps))

    def _payload(self, label: Label, conf_fp: int) -> bytes:
        """A DATA or ALERT payload stamped with the device clock now."""
        return DataPayload(
            timestamp_ms=self.device_clock(self.sim.now),
            label_index=label.value,
            confidence=conf_fp,
            app_id=self.app_id,
        ).pack()

    def _send_management_frame(self, ftype: FrameType, payload: bytes) -> int:
        seq = self._next_seq()
        frame = encode_frame(ftype, self.spec.device_id, seq, payload, self.key)
        self.channel.send(self.name, frame, self.host)
        self._burst(frame)
        return seq

    # -- time sync -------------------------------------------------------------------------

    def _start_sync(self, attempt: int) -> None:
        if self.sim.now >= self.scenario.duration_ms:
            return
        if self.depleted:  # a depleted device sends nothing: this round is skipped
            self.sync_seq = None
            self._schedule_next_sync()
            return
        t1 = self.device_clock(self.sim.now)
        seq = self.sync_seq = self._send_management_frame(FrameType.TIME_SYNC, pack_sync_request(t1))
        timeout = self.config.protocol.sync_timeout_ms
        self.sim.schedule(self.sim.now + timeout, lambda: self._sync_timeout(seq, attempt))

    def _sync_timeout(self, seq: int, attempt: int) -> None:
        if self.sync_seq != seq:
            return
        if attempt < self.config.protocol.sync_retries:
            self._start_sync(attempt + 1)
        else:
            self.sync_seq = None
            self.sim.emit("sync_timeout", self.name, attempt)
            self._schedule_next_sync()

    def _schedule_next_sync(self) -> None:
        interval = self.config.protocol.sync_interval_ms
        if interval > 0 and self.sim.now + interval < self.scenario.duration_ms:
            self.sim.schedule(self.sim.now + interval, lambda: self._start_sync(1))

    def _complete_sync(self, t1: int, t2: int, t3: int) -> None:
        t4 = self.device_clock(self.sim.now)
        offset, rtt = estimate_offset(t1, t2, t3, t4)
        self.sync_seq = None
        self.sim.emit("sync", self.name, f"{offset:.3f}", rtt)
        self._send_management_frame(FrameType.TIME_SYNC, pack_sync_report(offset, max(0, rtt)))
        self._schedule_next_sync()

    # -- alerts ------------------------------------------------------------------------------

    def _trigger_alert(self, label: Label) -> None:
        self.alert_queue.append(_PendingAlert(self._payload(label, CONFIDENCE_SCALE)))
        if len(self.alert_queue) == 1:
            self._send_alert_attempt()

    def _send_alert_attempt(self) -> None:
        """Send the head of the alert queue again, or give it up after max_attempts.
        A depleted device sends nothing and counts no attempt; recovery resumes the head."""
        if self.depleted:
            return
        alert = self.alert_queue[0]
        retry = self.config.protocol.retry
        if alert.attempts >= retry.max_attempts:
            self.sim.emit("alert_undelivered", self.name, alert.seq, alert.attempts)
            self._pop_alert()
            return
        alert.attempts += 1
        if alert.attempts == 1:
            # Numbered only now: the data frames sent while it was queued
            # took lower seqs, so the seqs on the air keep rising.
            alert.first_sent_ms = self.sim.now
            alert.seq = self._next_seq()
            alert.frame = encode_frame(FrameType.ALERT, self.spec.device_id, alert.seq, alert.payload, self.key)
        self.sim.emit("alert_sent", self.name, alert.seq, alert.attempts)
        self.channel.send(self.name, alert.frame, self.host)
        self._burst(alert.frame)
        seq, attempts = alert.seq, alert.attempts
        self.sim.schedule(
            self.sim.now + retry.interval_ms, lambda: self._alert_retry(seq, attempts)
        )

    def _alert_retry(self, seq: int, attempts: int) -> None:
        """Retry the head unless it was acked or a recovery already sent its next attempt."""
        if self.alert_queue and (self.alert_queue[0].seq, self.alert_queue[0].attempts) == (seq, attempts):
            self._send_alert_attempt()

    def _pop_alert(self) -> None:
        self.alert_queue.pop(0)
        if self.alert_queue:
            self._send_alert_attempt()

    # -- receive path ----------------------------------------------------------------------------

    def receive(self, frame: bytes) -> None:
        if self.depleted:  # the radio is off: the frame goes unheard, the replay window untouched
            return
        try:
            decoded = decode_frame(frame, self.key)
            self.replay.accept(decoded.direction, decoded.seq)
        except ProtocolError as exc:
            self.sim.emit("frame_reject", self.name, self.spec.device_id, exc.code)
            return
        self.sim.emit("frame_rx", self.name, decoded.frame_type.name, decoded.device_id, decoded.seq)
        if decoded.frame_type is not FrameType.ACK:
            return
        acked_seq, data = unpack_ack(decoded.payload)
        if acked_seq == self.sync_seq and data:
            self._complete_sync(*unpack_sync_reply(data))
            return
        if self.alert_queue and self.alert_queue[0].seq == acked_seq:
            alert = self.alert_queue[0]
            latency = self.sim.now - alert.first_sent_ms
            self.sim.emit("alert_delivered", self.name, alert.seq, alert.attempts, latency)
            self._pop_alert()


@dataclass
class SimTrace:
    lines: list[str]
    metrics: dict

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def run_scenario(config: Config, seed: int = 0) -> SimTrace:
    """The lines of scenario_lines, and the metrics trace_metrics derives from them."""
    lines = list(scenario_lines(config, seed))
    return SimTrace(lines=lines, metrics=trace_metrics(lines))


def scenario_lines(config: Config, seed: int = 0) -> Iterator[str]:
    """Check the config and its model; return an iterator over the scenario's trace lines.

    Once the first line is asked for, each device's shard runs apart (_shard_lines), in up to min(devices,
    usable CPUs) processes, and spools its lines to an anonymous temporary file. The trace is the
    trace_version and scenario lines, the shards' lines merged by (t_ms, device index), then scenario_end."""
    scenario = config.scenario
    if scenario is None:
        raise ConfigError(["config has no scenario section"])
    for i, spec in enumerate(scenario.devices):  # a rule across sections, which a Config cannot check itself
        if spec.app not in config.synthetic:
            path = f"scenario.devices[{i}].app"
            raise ConfigError([f"{path}: no synthetic_models.{spec.app} section to synthesize its signals from"])
    model = None
    if scenario.model_path is not None:
        model = load_model(scenario.model_path)
        for spec in scenario.devices:
            try:
                check_fit(model, channel_count(config.synthetic[spec.app].signals), spec.app)
            except ModelFitError as exc:
                raise ModelFitError(f"device {spec.device_id}: {exc}") from None
    return _merged_shards(config, model, seed)


def _merged_shards(config: Config, model: MlpModel | None, seed: int) -> Iterator[str]:
    """The lines of scenario_lines, which closes each spool file however it ends."""
    scenario = config.scenario
    with ExitStack() as stack:
        files = [stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8")) for _ in scenario.devices]
        _run_shards(len(files), lambda index: _shard_lines(config, model, seed, index, files[index]))
        for out in files:
            out.seek(0)
        yield f"0\ttrace_version\tsim\t{TRACE_VERSION}"
        yield f"0\tscenario\tsim\t{scenario.duration_ms}\t{len(scenario.devices)}\t{seed}"
        for line in heapq.merge(*files, key=lambda line: int(line[: line.index("\t")])):
            yield line[:-1]
        yield f"{scenario.duration_ms}\tscenario_end\tsim"


def _shard_lines(config: Config, model: MlpModel | None, seed: int, index: int, out: TextIO) -> None:
    """Write the trace lines of the shard of scenario.devices[index] to out, in its kernel's order.

    A shard is one device with its own kernel, channel and host. Its host's
    gateway knows every device's key, so a frame whose device-id byte was
    corrupted into another device's id fails authentication as it would at
    a shared host; it stays in its sender's shard.
    """
    scenario = config.scenario
    spec = scenario.devices[index]
    sim = Simulator(seed, out)
    channel = SimChannel(sim, config.channel, spec.device_id)
    gateway = HostGateway({other.device_id: config.protocol.key for other in scenario.devices})
    device = SimDevice(sim, spec, config, channel, model)
    device.host = SimHost(sim, gateway, channel, device)
    device.start()
    sim.run(scenario.duration_ms)
    device.finalize()
    sim.spool()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_shards(count: int, shard: Callable[[int], None]) -> None:
    """shard(i) for i in range(count), in up to min(count, usable CPUs) processes.

    Where the platform can fork, the parent forks one child per extra
    process; worker w of n runs shards w, w + n, ... (the parent is worker
    0) and each child sends back over a pipe only None, or the exception a
    shard raised, which raises here. Every child is joined, and a child
    whose result was not read is terminated first."""
    workers = max(1, min(count, _usable_cpus())) if hasattr(os, "fork") else 1
    if workers > 1:
        import multiprocessing  # only where it forks: the import alone takes milliseconds
        context = multiprocessing.get_context("fork")
    children = []
    try:
        for w in range(1, workers):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_shard_child, args=(sender, shard, range(w, count, workers)), daemon=True)
            child.start()
            children.append((child, receiver))
            sender.close()
        for i in range(0, count, workers):
            shard(i)
        for child, receiver in children:
            try:
                error = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"shard process exited with code {child.exitcode} and sent no lines") from None
            receiver.close()
            if error is not None:
                raise error
    finally:
        for child, receiver in children:
            if not receiver.closed:
                receiver.close()
                child.terminate()
            child.join()


def _shard_child(sender, shard: Callable[[int], None], indices: range) -> None:
    """Run shard(i) for i in indices, then send the parent None, or the exception it raised."""
    error = None
    try:
        for i in indices:
            shard(i)
    except Exception as exc:
        error = exc
    sender.send(error)
    sender.close()


def write_trace(trace: SimTrace, path: str | Path) -> None:
    Path(path).write_text(trace.text(), encoding="utf-8")


def write_metrics(metrics: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_trace(path: str | Path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


# ---------------------------------------------------------------------------
# Trace grammar and readers

ENERGY_MWH = ("net", "curtailed", "shortfall", "harvested", "consumed")
DWELL_MS = tuple(state.value for state in PowerState)
# Each kind of line: the entities that may log it (docs/formats/trace.md's entity
# column; "dev" is any dev<N>), its details' names and the parser of each. The
# energy names are trace_metrics' energy_mwh and dwell_ms keys.
TRACE_LINES: dict[str, tuple[str, tuple[str, ...], tuple[Callable[[str], object], ...]]] = {
    "trace_version": ("sim", ("version",), (int,)),
    "scenario": ("sim", ("duration_ms", "n_devices", "seed"), (int, int, int)),
    "scenario_end": ("sim", (), ()),
    "device_init": ("dev", ("app", "battery_mwh", "capacity_mwh", "clock_offset_ms"), (str, float, float, int)),
    "duty_plan": ("dev", ("hourly_fractions",), (lambda text: tuple(map(float, text.split(","))),)),
    "classify": ("dev", ("window_index", "label", "confidence"), (int, str, int)),
    "frame_tx": ("dev/host", ("type", "device_id", "seq", "length", "frame"), (str, int, int, int, bytes.fromhex)),
    "frame_lost": ("channel", ("src", "type", "device_id", "seq"), (str, str, int, int)),
    "frame_corrupt": ("channel", ("src", "type", "device_id", "seq", "frame"), (str, str, int, int, bytes.fromhex)),
    "frame_rx": ("dev/host", ("type", "device_id", "seq"), (str, int, int)),
    "frame_reject": ("dev/host", ("device_id", "code"), (int, str)),
    "observation": ("host", ("device_id", "corrected_t_ms", "app_id", "label_index", "confidence"),
                    (int, int, lambda text: AppId(int(text)), int, int)),
    "alert_notified": ("host", ("device_id", "seq", "label_index"), (int, int, int)),
    "alert_sent": ("dev", ("seq", "attempt"), (int, int)),
    "alert_delivered": ("dev", ("seq", "attempts", "latency_ms"), (int, int, int)),
    "alert_undelivered": ("dev", ("seq", "attempts"), (int, int)),
    "sync": ("dev", ("offset_ms", "rtt_ms"), (float, int)),
    "sync_timeout": ("dev", ("attempts",), (int,)),
    "battery_depleted": ("dev", (), ()),
    "battery_recovered": ("dev", (), ()),
    "energy": ("dev", ("battery", *ENERGY_MWH, *DWELL_MS), (float,) * 6 + (int,) * 4),
}
_ENTITY = re.compile(r"(sim|channel|host)|dev[0-9]+")


def _details_parser(parsers: tuple) -> Callable[[list[str]], tuple]:
    """One function of a line's parts applying parsers[i] to detail i; a loop would cost twice as much."""
    calls = "".join(f"f[{3 + i}], " if p is str else f"p{i}(f[{3 + i}]), " for i, p in enumerate(parsers))
    return eval(f"lambda f: ({calls})", {f"p{i}": p for i, p in enumerate(parsers)})


_PARSERS = {kind: _details_parser(parsers) for kind, (_, _, parsers) in TRACE_LINES.items()}


def trace_records(lines: Iterable[str], kinds: Collection[str] = TRACE_LINES, parse: Collection[str] | None = None
                  ) -> Iterator[tuple]:
    """(line number, t_ms, kind, entity, details) of each line of a kind in kinds.

    Every line must fit its kind's row of TRACE_LINES (see _line_rule); a line
    of kinds also needs an integer t_ms, and details its row parses if its kind
    is in parse (by default kinds), else they stay strings. The first line that
    breaks a rule raises TraceFormatError naming it.
    """
    rules: dict[str, tuple[int, set[str], Callable | None]] = {}  # kind -> (parts in a line, entities seen, details_of)
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("\t")
        try:
            size, entities, details_of = rules[parts[1]]
        except (IndexError, KeyError):
            size, entities, details_of = rules[parts[1]] = _line_rule(lineno, parts, kinds, parse)
        if len(parts) != size or parts[2] not in entities:
            _line_rule(lineno, parts, kinds, parse)
            entities.add(parts[2])
        if details_of is not None:
            try:
                record = lineno, int(parts[0]), parts[1], parts[2], details_of(parts)
            except ValueError as exc:
                raise TraceFormatError(lineno, f"cannot parse ({type(exc).__name__}: {exc})") from None
            yield record


def _line_rule(lineno: int, parts: list[str], kinds: Collection[str], parse: Collection[str] | None) -> tuple:
    """(parts, {entity}, details_of) of a line, where details_of(parts) gives the details
    trace_records yields, or is None to skip the line. Line 1 must be the version line of
    TRACE_VERSION, or VersionMismatch; a line whose kind, entity or number of details its
    row refuses is a TraceFormatError."""
    if lineno == 1 and (len(parts) < 4 or parts[1] != "trace_version"):
        raise VersionMismatch(1, "trace has no version line")
    if lineno == 1 and parts[3] != str(TRACE_VERSION):
        raise VersionMismatch(1, f"trace version {parts[3]} != supported {TRACE_VERSION}")
    if len(parts) < 3:
        raise TraceFormatError(lineno, "no kind and entity")
    _, kind, entity, *details = parts
    if kind not in TRACE_LINES:
        raise TraceFormatError(lineno, f"unknown kind {kind!r}")
    entities, names, _ = TRACE_LINES[kind]
    match = _ENTITY.fullmatch(entity)
    if match is None or (match[1] or "dev") not in entities.split("/"):
        raise TraceFormatError(lineno, f"entity {entity!r} does not log {kind} lines")
    if len(details) != len(names):
        raise TraceFormatError(lineno, f"{kind} line has {len(details)} details, not {len(names)}")
    details_of = _PARSERS[kind] if kind in (kinds if parse is None else parse) else itemgetter(slice(3, None))
    return len(parts), {entity}, details_of if kind in kinds else None


def trace_observations(lines: list[str]) -> list[Observation]:
    """Host observation log entries recovered from the trace; raises only TraceFormatError."""
    return [Observation(*details) for *_, details in trace_records(lines, ("observation",))]


def trace_metrics(lines: Iterable[str], observe: Callable[[Observation], object] | None = None) -> dict:
    """Summary metrics of a trace (re-derivable from the file alone); observe, if given, gets each Observation."""
    devices: dict[str, dict] = defaultdict(
        lambda: {
            "app": None,
            "frames_sent": 0,
            "classifications": {},
            "alerts": {"sent": 0, "delivered": 0, "undelivered": 0, "attempts": {}, "latency_ms": {}},
            "battery_mwh": {},
            "battery_daily": [],  # [day, mWh] at each day boundary, then at the end
            "energy_mwh": {},
            "dwell_ms": {},
            "sync": {"offset_est_ms": None, "rtt_ms": None, "timeouts": 0},
            "depletions": 0,
        }
    )
    host = {"frames_received": 0, "frames_rejected": {}, "observations": {}, "alerts_notified": 0}
    channel = {"transmitted": 0, "lost": 0, "corrupted": 0}
    duration = 0
    seed = None
    # The kinds whose numbers it reads (and observation for observe): the others it counts, or reads as strings.
    numeric = ("scenario", "device_init", "alert_sent", "alert_delivered", "alert_undelivered", "sync", "energy")
    for _, t, kind, entity, details in trace_records(lines, parse=(*numeric, "observation") if observe else numeric):
        if kind == "classify":
            _, label, _ = details
            counts = devices[entity]["classifications"]
            counts[label] = counts.get(label, 0) + 1
        elif kind == "scenario":
            duration, _, seed = details
        elif kind == "device_init":
            d = devices[entity]
            d["app"], d["battery_mwh"]["start"], d["battery_mwh"]["capacity"], _ = details
        elif kind == "frame_tx":
            channel["transmitted"] += 1
            if entity != "host":
                devices[entity]["frames_sent"] += 1
        elif kind == "frame_lost":
            channel["lost"] += 1
        elif kind == "frame_corrupt":
            channel["corrupted"] += 1
        elif kind == "frame_rx" and entity == "host":
            host["frames_received"] += 1
        elif kind == "frame_reject" and entity == "host":
            _, code = details
            host["frames_rejected"][code] = host["frames_rejected"].get(code, 0) + 1
        elif kind == "observation":
            device_id = str(details[0])
            host["observations"][device_id] = host["observations"].get(device_id, 0) + 1
            if observe is not None:
                observe(Observation(*details))
        elif kind == "alert_notified":
            host["alerts_notified"] += 1
        elif kind == "alert_sent":
            seq, attempt = details
            a = devices[entity]["alerts"]
            a["sent"] += attempt == 1
            a["attempts"][str(seq)] = attempt
        elif kind == "alert_delivered":
            seq, attempts, latency_ms = details
            a = devices[entity]["alerts"]
            a["delivered"] += 1
            a["attempts"][str(seq)], a["latency_ms"][str(seq)] = attempts, latency_ms
        elif kind == "alert_undelivered":
            seq, attempts = details
            a = devices[entity]["alerts"]
            a["undelivered"] += 1
            a["attempts"][str(seq)] = attempts
        elif kind == "sync":
            s = devices[entity]["sync"]
            s["offset_est_ms"], s["rtt_ms"] = details
        elif kind == "sync_timeout":
            devices[entity]["sync"]["timeouts"] += 1
        elif kind == "battery_depleted":
            devices[entity]["depletions"] += 1
        elif kind == "energy":
            d = devices[entity]
            battery, *figures = details
            # A trace is in time order, so its day-boundary lines and the
            # final one arrive in order; the last line at a time counts.
            if t == duration or (0 <= t < duration and t % DAY_MS == 0):
                day = t // DAY_MS if t >= 0 and t % DAY_MS == 0 else t / DAY_MS
                daily = d["battery_daily"]
                if daily and daily[-1][0] == day:
                    daily[-1][1] = battery
                else:
                    daily.append([day, battery])
            d["battery_mwh"]["end"] = battery
            d["battery_mwh"]["min"] = min(d["battery_mwh"].get("min", battery), battery)
            d["energy_mwh"] = dict(zip(ENERGY_MWH, figures))
            d["dwell_ms"] = dict(zip(DWELL_MS, figures[len(ENERGY_MWH):]))
    return {
        "trace_version": TRACE_VERSION,
        "duration_ms": duration,
        "seed": seed,
        "devices": dict(devices),
        "host": host,
        "channel": channel,
    }


@dataclass
class ReplayReport:
    passed: bool
    failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


# What a device logs only after hearing a frame, which it cannot while depleted.
_RECEIPT_KINDS = ("frame_rx", "frame_reject", "alert_delivered", "sync")
# The kinds whose details replay reads.
_REPLAY_PARSE = ("device_init", "energy", "frame_tx", "frame_rx")


def replay(lines: list[str], canaries: tuple[bytes, ...] = ()) -> ReplayReport:
    """Re-check the rules across the lines that trace_records checks one by one:
    time order, energy ledger, state dwell, radio silence while depleted, seq
    monotonicity, frame causality and canary absence. Line numbers are 1-based."""
    report = ReplayReport(passed=True)
    initial: dict[str, float] = {}
    capacity: dict[str, float] = {}
    highest_seq: dict[str, int] = {}
    seen_frames: dict[tuple[str, int], bytes] = {}
    tx_keys: set[tuple[str, int, int, int]] = set()
    depleted: set[str] = set()
    sim_lines = 0
    last_ms = 0

    for lineno, t_ms, kind, entity, details in trace_records(lines, parse=_REPLAY_PARSE):
        if t_ms < last_ms:
            report.failures.append(f"line {lineno}: t_ms {t_ms} before the previous line's {last_ms}")
        last_ms = t_ms
        if entity == "sim":
            sim_lines += 1
        elif entity in depleted and kind in _RECEIPT_KINDS:
            report.failures.append(f"line {lineno}: device {entity} logged {kind} while depleted")
        if kind == "device_init":
            _, initial[entity], capacity[entity], _ = details
        elif kind == "energy":
            battery, net, curtailed, shortfall, _, _, *dwell = details
            if sum(dwell) != t_ms:
                report.failures.append(f"line {lineno}: {entity} dwell sums to {sum(dwell)} ms, not t_ms")
            if entity not in initial:
                report.failures.append(f"line {lineno}: energy line for {entity} before its device_init")
                continue
            expected = initial[entity] + net - curtailed + shortfall
            if abs(battery - expected) > 1e-6:
                report.failures.append(
                    f"line {lineno}: energy ledger mismatch for {entity}: battery {battery} != {expected:.9f}"
                )
            if battery < -1e-9 or battery > capacity[entity] + 1e-9:
                report.failures.append(f"line {lineno}: battery {battery} outside [0, capacity]")
        elif kind == "battery_depleted":
            depleted.add(entity)
        elif kind == "battery_recovered":
            depleted.discard(entity)
        elif kind == "frame_tx":
            ftype, device_id, seq, _, frame = details
            tx_keys.add((ftype, device_id, seq, 1 if entity == "host" else 0))
            if entity in depleted:
                report.failures.append(f"line {lineno}: device {entity} transmitted while depleted")
            if entity != "host":
                key = (entity, seq)
                if key in seen_frames:
                    if seen_frames[key] != frame:
                        report.failures.append(f"line {lineno}: device {entity} reused seq {seq} for different bytes")
                else:
                    top = highest_seq.get(entity, -1)
                    if seq <= top:
                        report.failures.append(f"line {lineno}: device {entity} seq {seq} not above {top}")
                    highest_seq[entity] = max(top, seq)
                    seen_frames[key] = frame
            for canary in canaries:
                if canary in frame:
                    report.failures.append(f"line {lineno}: canary bytes {canary.hex()} leaked on the air")
        elif kind == "frame_rx":
            ftype, device_id, seq = details
            if (ftype, device_id, seq, 0 if entity == "host" else 1) not in tx_keys:
                report.failures.append(
                    f"line {lineno}: received frame ({ftype}, dev {device_id}, seq {seq}) was never transmitted"
                )

    if not lines:
        report.warnings.append("empty trace: vacuous pass")
    elif sim_lines == len(lines):
        report.warnings.append("trace has no events: vacuous pass")
    report.passed = not report.failures
    return report
