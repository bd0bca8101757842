"""Deterministic discrete-event simulation of devices, channel and host.

Each device runs as its own shard: an event kernel, a channel and a host
that serve that device alone. Devices share no state, so shards can run in
any order or in parallel, and the trace merges their lines in one canonical
order (see run_scenario). Simulated time is integer milliseconds.

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

Trace format (UTF-8, tab-separated, one event per line):

    t_ms <TAB> kind <TAB> entity <TAB> detail...

The first line gives the trace version. Frame lines carry the full frame
hex, which doubles as the channel byte log for privacy and nonce audits.

A device books all its energy, state dwell and transmit bursts alike,
through ``firmware.account_energy``. Its cycle moves only through
``firmware.step_state_machine``, except that an empty battery forces sleep.
"""

from __future__ import annotations

import heapq
import json
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .classifier import MlpModel, ModelFitError, check_fit, forward, load_model
from .config import BAD_DURATION, EMPTY_SCHEDULE, Config, ConfigError, DeviceSpec, ScenarioSettings
from .core import Label, is_int, label_set_for
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


class TraceFormatError(ValueError):
    """A trace line that does not parse; .line is its 1-based number."""

    def __init__(self, line: int, detail: str):
        super().__init__(f"line {line}: {detail}")
        self.line = line


class VersionMismatch(TraceFormatError):
    pass


class Simulator:
    """Event kernel: time-ordered queue with an insertion-order tiebreaker."""

    def __init__(self, seed: int):
        self.seed = seed
        self.now = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._tie = 0
        self.lines: list[str] = []

    def schedule(self, t_ms: int, fn: Callable[[], None]) -> None:
        if t_ms < self.now:
            raise ValueError(f"event scheduled in the past ({t_ms} < {self.now})")
        heapq.heappush(self._heap, (t_ms, self._tie, fn))
        self._tie += 1

    def emit(self, kind: str, entity: str, *details) -> None:
        self.lines.append("\t".join(map(str, (self.now, kind, entity, *details))))

    def run(self, until_ms: int) -> None:
        while self._heap and self._heap[0][0] <= until_ms:
            t, _, fn = heapq.heappop(self._heap)
            self.now = t
            fn()
        self.now = until_ms


class SimChannel:
    """Lossy, latent, seeded bit-flipping link between one device and the host."""

    def __init__(self, sim: Simulator, model, device_id: int, name: str = "channel"):
        self.sim = sim
        self.model = model
        self.name = name
        entropy = np.random.SeedSequence([sim.seed, device_id], spawn_key=(CHANNEL_STREAM,))
        self.rng = np.random.Generator(np.random.PCG64(entropy))

    def _latency(self) -> int:
        lat = self.model.latency_ms
        if isinstance(lat, tuple):
            return int(self.rng.integers(lat[0], lat[1] + 1))
        return lat

    def send(self, src: str, frame: bytes, receiver) -> None:
        _, type_value, device_id, seq, _ = peek_header(frame)
        kind = FrameType(type_value).name
        self.sim.emit("frame_tx", src, kind, device_id, seq, len(frame), frame.hex())
        if self.rng.random() < self.model.loss_probability:
            self.sim.emit("frame_lost", self.name, src, kind, device_id, seq)
            return
        if self.rng.random() < self.model.corruption_probability:
            flipped = bytearray(frame)
            bit = int(self.rng.integers(0, len(flipped) * 8))
            flipped[bit // 8] ^= 1 << (bit % 8)
            frame = bytes(flipped)
            self.sim.emit("frame_corrupt", self.name, src, kind, device_id, seq, frame.hex())
        self.sim.schedule(self.sim.now + self._latency(), lambda: receiver.receive(frame))


class SimHost:
    """Host gateway wrapper that routes ACKs back through the channel."""

    def __init__(self, sim: Simulator, gateway: HostGateway, channel: SimChannel):
        self.sim = sim
        self.gateway = gateway
        self.channel = channel
        self.devices: dict[int, "SimDevice"] = {}

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
        target = self.devices.get(result.device_id)
        if result.ack is not None and target is not None:
            self.channel.send("host", result.ack, target)


@dataclass
class _PendingAlert:
    payload: bytes
    seq: int = 0  # taken, with the frame, when first sent
    frame: bytes = b""
    first_sent_ms: int = 0
    attempts: int = 0


class SimDevice:
    """Autonomous wearable node: wake-on-motion, classify, transmit, harvest."""

    def __init__(
        self,
        sim: Simulator,
        spec: DeviceSpec,
        config: Config,
        scenario: ScenarioSettings,
        channel: SimChannel,
        model: MlpModel | None,
    ):
        self.sim = sim
        self.spec = spec
        self.config = config
        self.scenario = scenario
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
        self.ahead: dict[int, tuple[bool, tuple[Label, float]]] = {}  # see _window
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
        blocks = []
        t = 0
        while t < duration_ms:
            for label, dur in schedule:
                if t >= duration_ms:
                    break
                end = min(t + dur, duration_ms)
                blocks.append((t, end, label))
                t = end
        return blocks

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

    def _window(self, start_ms: int) -> tuple[bool, tuple[Label, float]]:
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
        the model classifies the batch in one _classify call."""
        window = self.ahead.get(start_ms)
        if window is not None:
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
        labels = [self._oracle(counts)] * len(starts) if self.model is None else self._classify(matrix)
        self.ahead = dict(zip(starts, zip(motion_detector(matrix).tolist(), labels)))
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
        moving, _ = self._window(self.sim.now)  # the first window's, if the wake goes on
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
    """Execute the configured scenario; returns the trace and derived metrics.

    Each device's shard runs apart (_shard_lines), in up to min(devices,
    usable CPUs) processes. The trace is the trace_version and scenario
    lines, then the shards' lines merged by (t_ms, the device's index in
    scenario.devices), each shard keeping its own order, then scenario_end.
    """
    scenario = config.scenario
    if scenario is None:
        raise ConfigError(["config has no scenario section"])
    for i, spec in enumerate(scenario.devices):
        path = f"scenario.devices[{i}]"
        if spec.app not in config.synthetic:
            raise ConfigError([f"{path}.app: no synthetic_models.{spec.app} section to synthesize its signals from"])
        if not spec.schedule:
            raise ConfigError([f"{path}.schedule: {EMPTY_SCHEDULE}"])
        for j, (_, duration_ms) in enumerate(spec.schedule):
            if not is_int(duration_ms) or duration_ms <= 0:
                raise ConfigError([f"{path}.schedule[{j}]: {BAD_DURATION}"])
    model = None
    if scenario.model_path is not None:
        model = load_model(scenario.model_path)
        for spec in scenario.devices:
            try:
                check_fit(model, channel_count(config.synthetic[spec.app].signals), spec.app)
            except ModelFitError as exc:
                raise ModelFitError(f"device {spec.device_id}: {exc}") from None

    shards = _run_shards(len(scenario.devices), lambda index: _shard_lines(config, model, seed, index))
    lines = [
        f"0\ttrace_version\tsim\t{TRACE_VERSION}",
        f"0\tscenario\tsim\t{scenario.duration_ms}\t{len(scenario.devices)}\t{seed}",
        *heapq.merge(*shards, key=lambda line: int(line[: line.index("\t")])),
        f"{scenario.duration_ms}\tscenario_end\tsim",
    ]
    return SimTrace(lines=lines, metrics=trace_metrics(lines))


def _shard_lines(config: Config, model: MlpModel | None, seed: int, index: int) -> list[str]:
    """The trace lines of the shard of scenario.devices[index], in its kernel's order.

    A shard is one device with its own kernel, channel and host. Its host's
    gateway knows every device's key, so a frame whose device-id byte was
    corrupted into another device's id fails authentication as it would at
    a shared host; it stays in its sender's shard.
    """
    scenario = config.scenario
    spec = scenario.devices[index]
    sim = Simulator(seed)
    channel = SimChannel(sim, config.channel, spec.device_id)
    gateway = HostGateway({other.device_id: config.protocol.key for other in scenario.devices})
    host = SimHost(sim, gateway, channel)
    device = SimDevice(sim, spec, config, scenario, channel, model)
    device.host = host
    host.devices[spec.device_id] = device
    device.start()
    sim.run(scenario.duration_ms)
    device.finalize()
    return sim.lines


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_shards(count: int, shard: Callable[[int], list[str]]) -> list[list[str]]:
    """shard(i) for i in range(count), in up to min(count, usable CPUs) processes.

    Where the platform can fork, the parent forks one child per extra
    process; worker w of n runs shards w, w + n, ... (the parent is worker
    0) and each child sends its lines back over a pipe. A shard that raises
    in a child raises the same exception here. Every child is joined, and a
    child whose result was not read is terminated first.
    """
    workers = min(count, _usable_cpus())
    if workers < 2 or not hasattr(os, "fork"):
        return [shard(i) for i in range(count)]
    import multiprocessing  # only where it forks: the import alone takes milliseconds

    context = multiprocessing.get_context("fork")
    shards: list[list[str]] = [[] for _ in range(count)]
    children = []
    try:
        for w in range(1, workers):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_shard_child, args=(sender, shard, range(w, count, workers)), daemon=True)
            child.start()
            children.append((child, receiver))
            sender.close()
        for i in range(0, count, workers):
            shards[i] = shard(i)
        for w, (child, receiver) in enumerate(children, start=1):
            try:
                error, lines = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"shard process exited with code {child.exitcode} and sent no lines") from None
            receiver.close()
            if error is not None:
                raise error
            shards[w::workers] = lines
    finally:
        for child, receiver in children:
            if not receiver.closed:
                receiver.close()
                child.terminate()
            child.join()
    return shards


def _shard_child(sender, shard: Callable[[int], list[str]], indices: range) -> None:
    """Send the parent (None, [shard(i) for i in indices]), or (the exception, None)."""
    try:
        result = None, [shard(i) for i in indices]
    except Exception as exc:
        result = exc, None
    sender.send(result)
    sender.close()


def write_trace(trace: SimTrace, path: str | Path) -> None:
    Path(path).write_text(trace.text(), encoding="utf-8")


def write_metrics(trace: SimTrace, path: str | Path) -> None:
    Path(path).write_text(json.dumps(trace.metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_trace(path: str | Path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def _check_version(lines: list[str]) -> None:
    """VersionMismatch at line 1 unless the trace is empty or opens with
    the version line of TRACE_VERSION; every trace reader runs it first."""
    if not lines:
        return
    first = lines[0].split("\t")
    if len(first) < 4 or first[1] != "trace_version":
        raise VersionMismatch(1, "trace has no version line")
    if first[3] != str(TRACE_VERSION):
        raise VersionMismatch(1, f"trace version {first[3]} != supported {TRACE_VERSION}")


def trace_observations(lines: list[str]) -> list[Observation]:
    """Host observation log entries recovered from the trace; raises only TraceFormatError."""
    _check_version(lines)
    out = []
    try:
        for lineno, line in enumerate(lines, start=1):
            parts = line.split("\t")
            if parts[1] != "observation":
                continue
            out.append(
                Observation(
                    device_id=int(parts[3]),
                    corrected_t_ms=int(parts[4]),
                    app_id=AppId(int(parts[5])),
                    label_index=int(parts[6]),
                    confidence=int(parts[7]),
                )
            )
    except (IndexError, ValueError) as exc:
        raise TraceFormatError(lineno, f"cannot parse ({type(exc).__name__}: {exc})") from None
    return out


# ---------------------------------------------------------------------------
# Trace-derived metrics and replay checking

def trace_metrics(lines: list[str]) -> dict:
    """Aggregate a trace into summary metrics (re-derivable from the file alone)."""
    _check_version(lines)
    devices: dict[str, dict] = {}
    host = {"frames_received": 0, "frames_rejected": {}, "observations": {}, "alerts_notified": 0}
    channel = {"transmitted": 0, "lost": 0, "corrupted": 0}
    duration = 0
    seed = None

    def dev(name: str) -> dict:
        return devices.setdefault(
            name,
            {
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
            },
        )

    try:
        for lineno, line in enumerate(lines, start=1):
            parts = line.split("\t")
            kind, entity = parts[1], parts[2]
            t = int(parts[0])
            if kind == "scenario":
                duration = int(parts[3])
                seed = int(parts[5])
            elif kind == "device_init":
                d = dev(entity)
                d["app"] = parts[3]
                d["battery_mwh"]["start"] = float(parts[4])
                d["battery_mwh"]["capacity"] = float(parts[5])
            elif kind == "frame_tx":
                channel["transmitted"] += 1
                if entity != "host":
                    dev(entity)["frames_sent"] += 1
            elif kind == "frame_lost":
                channel["lost"] += 1
            elif kind == "frame_corrupt":
                channel["corrupted"] += 1
            elif kind == "frame_rx" and entity == "host":
                host["frames_received"] += 1
            elif kind == "frame_reject" and entity == "host":
                code = parts[4]
                host["frames_rejected"][code] = host["frames_rejected"].get(code, 0) + 1
            elif kind == "observation":
                key = parts[3]
                host["observations"][key] = host["observations"].get(key, 0) + 1
            elif kind == "alert_notified":
                host["alerts_notified"] += 1
            elif kind == "classify":
                d = dev(entity)
                label = parts[4]
                d["classifications"][label] = d["classifications"].get(label, 0) + 1
            elif kind == "alert_sent":
                a = dev(entity)["alerts"]
                seq = parts[3]
                if parts[4] == "1":
                    a["sent"] += 1
                a["attempts"][seq] = int(parts[4])
            elif kind == "alert_delivered":
                a = dev(entity)["alerts"]
                a["delivered"] += 1
                a["attempts"][parts[3]] = int(parts[4])
                a["latency_ms"][parts[3]] = int(parts[5])
            elif kind == "alert_undelivered":
                a = dev(entity)["alerts"]
                a["undelivered"] += 1
                a["attempts"][parts[3]] = int(parts[4])
            elif kind == "sync":
                s = dev(entity)["sync"]
                s["offset_est_ms"] = float(parts[3])
                s["rtt_ms"] = int(parts[4])
            elif kind == "sync_timeout":
                dev(entity)["sync"]["timeouts"] += 1
            elif kind == "battery_depleted":
                dev(entity)["depletions"] += 1
            elif kind == "energy":
                d = dev(entity)
                battery = float(parts[3])
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
                d["energy_mwh"] = {
                    "net": float(parts[4]),
                    "curtailed": float(parts[5]),
                    "shortfall": float(parts[6]),
                    "harvested": float(parts[7]),
                    "consumed": float(parts[8]),
                }
                d["dwell_ms"] = {state.value: int(parts[9 + i]) for i, state in enumerate(PowerState)}
    except (IndexError, ValueError) as exc:
        raise TraceFormatError(lineno, f"cannot parse ({type(exc).__name__}: {exc})") from None

    return {
        "trace_version": TRACE_VERSION,
        "duration_ms": duration,
        "seed": seed,
        "devices": devices,
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


def replay(lines: list[str], canaries: tuple[bytes, ...] = ()) -> ReplayReport:
    """Re-check trace invariants: version, time order, energy ledger, state
    dwell, radio silence while depleted, seq monotonicity, frame causality and
    canary absence. Line numbers are 1-based."""
    report = ReplayReport(passed=True)
    _check_version(lines)
    if not lines:
        report.warnings.append("empty trace: vacuous pass")
        return report

    initial: dict[str, float] = {}
    capacity: dict[str, float] = {}
    highest_seq: dict[str, int] = {}
    seen_frames: dict[tuple[str, int], str] = {}
    tx_keys: set[tuple[str, int, int, int]] = set()
    depleted: set[str] = set()
    event_lines = 0
    last_ms = 0

    try:
        for lineno, line in enumerate(lines, start=1):
            parts = line.split("\t")
            kind, entity = parts[1], parts[2]
            t_ms = int(parts[0])
            if t_ms < last_ms:
                report.failures.append(f"line {lineno}: t_ms {t_ms} before the previous line's {last_ms}")
            last_ms = t_ms
            if kind in ("trace_version", "scenario", "scenario_end"):
                continue
            event_lines += 1
            if entity in depleted and kind in _RECEIPT_KINDS:
                report.failures.append(f"line {lineno}: device {entity} logged {kind} while depleted")
            if kind == "device_init":
                initial[entity] = float(parts[4])
                capacity[entity] = float(parts[5])
            elif kind == "energy":
                battery, net, curtailed, shortfall = (
                    float(parts[3]), float(parts[4]), float(parts[5]), float(parts[6]),
                )
                dwell = sum(int(parts[i]) for i in range(9, 13))
                if dwell != int(parts[0]):
                    report.failures.append(f"line {lineno}: {entity} dwell sums to {dwell} ms, not t_ms")
                if entity not in initial:
                    report.failures.append(f"line {lineno}: energy line for {entity} before its device_init")
                    continue
                expected = initial[entity] + net - curtailed + shortfall
                if abs(battery - expected) > 1e-6:
                    report.failures.append(
                        f"line {lineno}: energy ledger mismatch for {entity}: "
                        f"battery {battery} != {expected:.9f}"
                    )
                if battery < -1e-9 or battery > capacity[entity] + 1e-9:
                    report.failures.append(f"line {lineno}: battery {battery} outside [0, capacity]")
            elif kind == "battery_depleted":
                depleted.add(entity)
            elif kind == "battery_recovered":
                depleted.discard(entity)
            elif kind == "frame_tx":
                ftype, device_id, seq, hexes = parts[3], int(parts[4]), int(parts[5]), parts[7]
                direction = 1 if entity == "host" else 0
                tx_keys.add((ftype, device_id, seq, direction))
                if entity in depleted:
                    report.failures.append(f"line {lineno}: device {entity} transmitted while depleted")
                if entity != "host":
                    key = (entity, seq)
                    if key in seen_frames:
                        if seen_frames[key] != hexes:
                            report.failures.append(
                                f"line {lineno}: device {entity} reused seq {seq} for different bytes"
                            )
                    else:
                        top = highest_seq.get(entity, -1)
                        if seq <= top:
                            report.failures.append(
                                f"line {lineno}: device {entity} seq {seq} not above {top}"
                            )
                        highest_seq[entity] = max(top, seq)
                        seen_frames[key] = hexes
                if canaries:
                    raw = bytes.fromhex(hexes)
                    for canary in canaries:
                        if canary in raw:
                            report.failures.append(
                                f"line {lineno}: canary bytes {canary.hex()} leaked on the air"
                            )
            elif kind == "frame_rx":
                ftype, device_id, seq = parts[3], int(parts[4]), int(parts[5])
                direction = 0 if entity == "host" else 1
                if (ftype, device_id, seq, direction) not in tx_keys:
                    report.failures.append(
                        f"line {lineno}: received frame ({ftype}, dev {device_id}, seq {seq}) "
                        "was never transmitted"
                    )
    except (IndexError, ValueError) as exc:
        raise TraceFormatError(lineno, f"cannot parse ({type(exc).__name__}: {exc})") from None

    if event_lines == 0:
        report.warnings.append("trace has no events: vacuous pass")
    report.passed = not report.failures
    return report
