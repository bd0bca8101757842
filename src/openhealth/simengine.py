"""Deterministic discrete-event simulation of devices, channel and host.

Each device runs as its own shard: an event kernel, a channel and a host
that serve that device alone. Devices share no state, so shards can run in
any order or in parallel. Each shard writes its lines straight to one spool
file; the parent merges the shards' files as text with heapq.merge, in one
canonical order (see scenario_lines), and the metrics are one fold of that
merged trace (trace_metrics). Simulated time is integer milliseconds.

A device draws from two streams, both keyed by (seed, device id), so neither
the event order nor another device can change what it sees. Its sensor noise
comes from a Philox counter-based generator keyed by the root of that seed:
the window that starts at t ms draws from block counter (0, t, 0, 0) on, so
each window owns 2^64 blocks and its samples depend only on (seed, device,
t). A device synthesizes the windows it expects next ahead of time, in
batches, but each from its own reset stream, so neither the batch size nor a
wrong guess can change a sample; without a model it draws a window's first
PREFIX samples, and the rest only where those show no motion. A model device
classifies a batch in one pass, features and forward alike, whose every row
has the bytes it has alone, so no classification depends on the batch. Its
channel draws every fate of the device's frames, and of the host's ACKs to
it, in the shard's send order from a generator seeded by the same (seed,
device id) under spawn key CHANNEL_STREAM, which keeps it apart from the
noise key.

Trace lines are UTF-8 and tab-separated, ``t_ms kind entity detail...``,
after a first line that gives the trace version; TRACE_LINES is their
grammar, which every reader checks through trace_records. Frame lines carry
the full frame hex, the channel byte log for privacy and nonce audits. A run of
a device's windows with one label, confidence and spacing is one classify_run line,
written when the run closes.

A device books all its energy, state dwell and transmit bursts alike,
through ``firmware.account_energy``, in one place (SimDevice._book), the
only one that finds the battery empty and forces sleep. Its cycle moves only
through ``firmware.step_state_machine``, except for that forced sleep. One
loop takes every cycle of a wake (SimDevice._run_cycles), a look-ahead
batch's quiet cycles in one step, on the device's own state. Its dwells wait
in SimDevice.unbooked, which the next booking books in one account_energy
call, in the order and slot pieces of booking them one by one; it logs each
window at its own time. Every cycle ends by the scenario's end (_slack_ms); a
stretch ends before stretch_stop, which only _book sets (_stretch_end): the
end of the hour slot or, sooner, the time by which the highest state power
would draw half the battery, so that no stretch can empty it. Only at a
dwell's start do queued entries due before its end run in place
(Simulator.advance_to), after the run's windows before them, as with that end
queued then; a booking one makes books the stretch first, and the run goes on
unless it cut the cycle short.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import re
import tempfile
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from itertools import chain, cycle
from operator import itemgetter
from pathlib import Path
from typing import Callable, Collection, ContextManager, Iterable, Iterator, TextIO

import numpy as np

from .classifier import MlpModel, ModelFitError, check_fit, forward, load_model
from .config import Config, ConfigError, DeviceSpec, scenario_errors
from .core import APPS, Label
from .dataio import channel_count, synthesize_signal
from .firmware import (
    BATTERY_RECOVERY_FRACTION,
    DeviceEvent,
    PowerState,
    SLOT_MS,
    SLOTS_PER_DAY,
    account_energy,
    energy_piece,
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

TRACE_VERSION = 6
MIN_RADIO_MS = 1
# The largest batch synthesized and labelled ahead, which one that follows a batch that moved throughout
# takes at once (SimDevice._window). The cache keeps each window's motion flag and label, not its samples:
# a batch's 230 KB (32 windows of 128 x 7 float64) lives only until it is labelled, in one feature and one
# forward call.
WINDOWS_AHEAD_MAX = 32
# The samples of a window that a device without a model draws first (SimDevice._window): 4 left 604 of
# device 1's 31,280 seed-0 reference-week windows undecided. PipelineSettings holds W >= 16.
PREFIX = 4
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
    """Event kernel: time-ordered queue with an insertion-order tiebreaker. Its lines go straight to out,
    whose buffer bounds what it holds, but for the open classify run, which only its own rules close.
    advance_to runs entries in place, and no entry so run calls it; only run takes the run's end."""

    def __init__(self, seed: int, out: TextIO):
        self.seed = seed
        self.now = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._tie = 0
        self.out = out
        self.open_run: list | None = None  # [t_ms, entity, first index, windows, spacing ms, label, confidence]

    def schedule(self, t_ms: int, fn: Callable[[], None]) -> None:
        if t_ms < self.now:
            raise ValueError(f"event scheduled in the past ({t_ms} < {self.now})")
        heapq.heappush(self._heap, (t_ms, self._tie, fn))
        self._tie += 1

    def emit(self, kind: str, entity: str, *details) -> None:
        """Add a line stamped with the clock; the open classify run stays open."""
        self.out.write("\t".join(map(str, (self.now, kind, entity, *details))) + "\n")

    def classify(self, t_ms: int, entity: str, index: int, label: str, confidence: int) -> None:
        """Log window number index's classification at t_ms: the open run's next window if it has that
        entity, label and confidence, follows its last index and keeps its spacing; else a new run's first,
        after the open run closes at t_ms."""
        run = self.open_run
        if run and index == run[2] + run[3] and label == run[5] and confidence == run[6] and entity == run[1]:
            spacing = t_ms - run[0] if run[3] == 1 else run[4]
            if t_ms == run[0] + run[3] * spacing:
                run[3], run[4] = run[3] + 1, spacing
                return
        self.close_run(t_ms)
        self.open_run = [t_ms, entity, index, 1, 0, label, confidence]

    def close_run(self, t_ms: int) -> None:
        """Write the open run, if any, as a classify_run line stamped t_ms, its close: a time at or after its
        last window and every line written before it."""
        if run := self.open_run:
            self.open_run = None
            first, entity, index, n, spacing, label, confidence = run
            self.out.write(f"{t_ms}\tclassify_run\t{entity}\t{first}\t{index}\t{n}\t{spacing}\t{label}\t{confidence}\n")

    def run(self, until_ms: int) -> None:
        while self._heap and self._heap[0][0] <= until_ms:
            t, _, fn = heapq.heappop(self._heap)
            self.now = t
            fn()
        self.now = until_ms

    def horizon(self, bound: int) -> int:
        """The latest time up to bound before every queued entry (one due at a time was queued first, so it
        runs first)."""
        return min(bound, self._heap[0][0] - 1) if self._heap else bound

    def advance_to(self, t_ms: int) -> None:
        """Move the clock to t_ms, as an entry queued now for t_ms would run: each entry that would run first
        runs in place, in order, at its own time. Its caller keeps t_ms within the run."""
        heap, mark = self._heap, (t_ms, self._tie)  # the entry for t_ms would take the tie _tie
        while heap and heap[0] < mark:
            t, _, fn = heapq.heappop(heap)
            self.now = t
            fn()
        self.now = t_ms


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
        if result.ack is not None:  # decode_frame authenticated the frame, device id and all
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
        self.label_set = APPS[spec.app]
        self.label_names = tuple(label.name for label in self.label_set)  # by code
        self.profile = config.profile
        self.key = config.protocol.key
        self.host: SimHost | None = None

        rate = self.profile.sample_rate_hz
        self.period_ms = 1000.0 / rate
        self.window = config.pipeline.window
        self.window_ms = round(self.window * 1000.0 / rate)
        self.data_tx_ms = self._tx_ms(DATA_FRAME_LEN)
        self.cycle_ms = self.window_ms + scenario.inference_latency_ms + self.data_tx_ms  # the longest cycle
        self.quiet_ms = self.window_ms + scenario.inference_latency_ms + MIN_RADIO_MS  # a cycle that sends no frame

        self.blocks = self._tile_blocks(spec.schedule, scenario.duration_ms)
        self.block_ends = [end for _, end, _ in self.blocks]
        self.sample_offsets_ms = np.arange(self.window) * self.period_ms
        self.signals = config.synthetic[spec.app].signals
        self.channels = channel_count(self.signals)
        # The key takes any seed size; noise_reset is a fresh state: counter 0, buffer empty. Its arrays are
        # lists, which the state setter reads in half the time.
        key = np.random.SeedSequence([sim.seed, spec.device_id]).generate_state(2, np.uint64)
        self.noise = np.random.Generator(np.random.Philox(key=key))
        fresh = self.noise.bit_generator.state
        self.noise_reset = {**fresh, "state": {"counter": [0] * 4, "key": key.tolist()}, "buffer": [0] * 4}
        # The look-ahead batch (see _window): window starts, motion flags and labels.
        self.ahead_starts: list[int] = []
        self.ahead_moving: list[bool] = []
        self.ahead_labels: list[tuple[int, int]] = []
        self.ahead_next: int | None = None  # the start that would follow the last batch

        e = config.energy
        self.ledger = (e.battery_initial_mwh, 0.0, 0.0, 0.0, 0.0, 0.0)  # see firmware.Ledger
        self.capacity_mwh = e.battery_capacity_mwh
        self.charge_efficiency = e.charge_efficiency
        self.harvest_mw = [e.mppt_efficiency * h for h in e.harvest_profile_mw]  # post-MPPT, per hour slot
        self.power_mw = {state: state_power_mw(self.profile, self.app, state) for state in PowerState}
        self.max_power_mw = max(self.power_mw.values())  # the highest state power, which bounds a stretch
        plan = plan_duty_cycle(self.profile, self.app, e) if scenario.use_duty_plan else None
        self.duty_budget_ms = None if plan is None else [math.floor(f * SLOT_MS) for f in plan.fractions]  # per slot
        # The states step_state_machine takes a window's cycle through; TxDone enters sampling again.
        sampling = step_state_machine(PowerState.Sleep, DeviceEvent.MotionDetected)
        processing = step_state_machine(sampling, DeviceEvent.WindowFull)
        self.cycle_states = sampling, processing, step_state_machine(processing, DeviceEvent.InferenceDone)
        self.quiet_dwells = [(state, ms) for state, ms in zip(self.cycle_states, (self.window_ms,
                             scenario.inference_latency_ms, MIN_RADIO_MS)) if ms]  # a quiet cycle's, in order

        self.state = PowerState.Sleep
        self.cycle_gen = 0
        self.window_index = 0
        self.label: tuple[int, int] | None = None  # (code, fixed-point confidence) of the window in the cycle
        self.unbooked: list[tuple[PowerState, int]] = []  # the dwells the cycle loop added from last_account_ms on
        self.stretch_stop = self._stretch_end(0)  # where the stretch from last_account_ms ends: _book keeps it
        self.last_motion_ms = -(10 ** 12)
        self.last_account_ms = 0
        self.depleted = False
        self.slot_active_ms: dict[int, int] = {}
        self.dwell_ms = dict.fromkeys(PowerState, 0)

        self.seq = 0
        self.replay = ReplayWindow()
        self.sync_seq: int | None = None  # of the sync request awaiting its reply
        self.alert_queue: list[_PendingAlert] = []
        self.alert_codes = {label.value for label in self.label_set if label.name in scenario.alert_labels}

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
            "device_init", self.name, self.app, f"{self.ledger[0]:.9f}", f"{self.capacity_mwh:.9f}",
            self.spec.clock_offset_ms, self.quiet_ms, self.cycle_ms,
        )
        if self.duty_budget_ms is not None:
            self.sim.emit("duty_plan", self.name, ",".join(map(str, self.duty_budget_ms)))
        self._emit_energy()
        self._send_management_frame(FrameType.HELLO, b"")
        self._start_sync(attempt=1)
        # One wake check at each block start and hour-slot boundary, queued before the ticks and alerts at its ms.
        checks = {start_ms for start_ms, _, _ in self.blocks} | set(range(SLOT_MS, self.scenario.duration_ms, SLOT_MS))
        for t in sorted(checks):
            self.sim.schedule(t, self._run_cycles)
        tick = self.scenario.energy_log_interval_ms
        for t in range(tick, self.scenario.duration_ms, tick):
            self.sim.schedule(t, self._energy_tick)
        for t_ms, label in self.spec.alert_schedule:
            if t_ms < self.scenario.duration_ms:
                self.sim.schedule(t_ms, lambda code=label.value: self._trigger_alert(code))

    # -- clocks and signals ----------------------------------------------------

    def device_clock(self, t_ms: int) -> int:
        return max(0, t_ms + self.spec.clock_offset_ms)

    def _block_runs(self, t_ms: np.ndarray) -> list[tuple[int, int, Label]]:
        """Split sample times into runs of one schedule block: (i, j, label).

        A sample belongs to the block whose [start, end) holds its integer
        millisecond; every sample is before the scenario end, as every cycle
        ends by it (_slack_ms).
        """
        ends = self.block_ends
        first = bisect_right(ends, int(t_ms[0]))
        if int(t_ms[-1]) < ends[first]:  # most windows: one block
            return [(0, len(t_ms), self.blocks[first][2])]
        keys = np.searchsorted(ends, t_ms.astype(np.int64), side="right")
        bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
        return [(i, j, self.blocks[int(keys[i])][2]) for i, j in zip(bounds[:-1], bounds[1:])]

    def _window_samples(self, starts: list[int], columns: int | None = None, samples: int | None = None):
        """Synthesize together the W-sample windows beginning at starts.

        Each window's noise is the device's Philox stream from block counter
        (0, start, 0, 0), with the whole generator state reset first, so it
        does not depend on which windows were drawn before or beside it; the
        waveform and clipping then run once over the batch. A batch of more
        than one window must lie inside the block that holds starts[0]; a
        window that spans blocks comes alone. It synthesizes the first
        `samples` samples (all W by default): a window's draws are in sample
        order, block run by block run in time order, each run's following the
        last run's, so those are the whole window's, bit for bit. A one-block
        batch synthesizes only the first `columns` channels (all by default);
        a spanning window synthesizes every channel, then keeps the first
        `columns`.
        Returns the (k, samples or W, columns) samples and the per-code label
        counts of the whole windows, which every window of the batch shares.
        """
        columns = columns or self.channels
        n = samples or self.window
        runs = self._block_runs(starts[0] + self.sample_offsets_ms)
        width = columns if len(runs) == 1 else self.channels
        z = np.empty((len(starts), n * width))
        reset, counter, bit_generator = self.noise_reset, self.noise_reset["state"]["counter"], self.noise.bit_generator
        for start_ms, draws in zip(starts, z):
            counter[1] = start_ms
            bit_generator.state = reset
            self.noise.standard_normal(out=draws)
        t_s = (np.array(starts)[:, None] + self.sample_offsets_ms[:n]) / 1000.0
        matrix = np.empty((len(starts), n, width))
        counts = [0] * (len(self.label_set) + 1)
        for i, j, label in runs:  # a prefix's one run, (0, W), slices to its n samples
            synthesize_signal(self.signals[label], t_s[:, i:j], z[:, i * width : j * width], matrix[:, i:j])
            counts[label.value] += j - i
        return matrix[..., :columns], counts

    def _window(self, start_ms: int, labelled: bool = True) -> int:
        """The position of the window beginning at start_ms, window number window_index, in the look-ahead
        batch's lists: ahead_starts, ahead_moving and ahead_labels ((code, confidence) rounded to
        CONFIDENCE_SCALE as payloads carry it, the model's or the oracle's). A miss synthesizes start_ms and
        the starts predicted to follow it, each inside its block, and labels them all. A miss where the last
        batch predicted takes the rest of the block, up to WINDOWS_AHEAD_MAX, if every window of that batch
        moved, and twice that batch otherwise; any other miss is one window. A batch predicts no start past
        its block, as the next may be still; one that moved but that a stop cuts short (a forced sleep, the
        duty budget, the scenario end) leaves its tail drawn for nothing. The oracle labels a batch once,
        from the counts its windows share, and draws accel alone, at first each window's first PREFIX
        samples: motion there is motion in the window, so only the rest are drawn whole. The model
        classifies it in one call (_classify); a lone still window read with labelled false gets code -1."""
        starts = self.ahead_starts
        i = bisect_left(starts, start_ms)
        if i < len(starts) and starts[i] == start_ms and (self.ahead_labels[i][0] >= 0 or not labelled):
            return i
        if start_ms != self.ahead_next:
            n = 1
        else:  # a batch that moved throughout is followed by one that takes the rest of its block
            n = WINDOWS_AHEAD_MAX if all(self.ahead_moving) else min(2 * len(starts), WINDOWS_AHEAD_MAX)
        # A window lies in one block iff its last sample time, summed as _block_runs sums it, is before the end.
        block = bisect_right(self.block_ends, start_ms)
        end = self.block_ends[block]
        last_ms = float(self.sample_offsets_ms[-1])  # a float, not numpy's: the same sums, faster
        index, quiet, extra = self.window_index, self.quiet_ms, self.data_tx_ms - MIN_RADIO_MS
        every = self.scenario.report_every_n_windows
        # Start j follows j windows, of which (index + j) // every - index // every report (_reports); the starts rise.
        grid = [start_ms + j * quiet + extra * ((index + j) // every - index // every) for j in range(n + 1)]
        k = 1 + sum(start + last_ms < end for start in grid[1:n])
        starts, following = grid[:k], grid[k]
        oracle = self.model is None
        prefix = PREFIX if oracle else None  # a window's draws are in sample order, block run by block run
        matrix, counts = self._window_samples(starts, 3 if oracle else None, prefix)
        moving = motion_detector(matrix)
        if prefix and not moving.all():
            undecided = [start for start, flag in zip(starts, moving) if not flag]
            moving[~moving] = motion_detector(self._window_samples(undecided, 3)[0])
        labels = ([self._oracle(counts)] if oracle  # one label, which every window of the batch takes
                  else [(-1, 0.0)] if not labelled and moving.tolist() == [False] else self._classify(matrix))
        fixed = [(code, min(CONFIDENCE_SCALE, round(confidence * CONFIDENCE_SCALE))) for code, confidence in labels]
        self.ahead_starts, self.ahead_moving = starts, moving.tolist()
        self.ahead_labels = fixed * (len(starts) // len(fixed))
        self.ahead_next = following if following + last_ms < end else None
        return 0

    def _reports(self, index: int) -> bool:
        """Whether window number index (from 0) sends a data frame, on the air for data_tx_ms."""
        return (index + 1) % self.scenario.report_every_n_windows == 0

    def _oracle(self, counts: list[int]) -> tuple[int, float]:
        """The code of the schedule's label for a window with these label counts, and its share.
        The oracle must name a label: where majority_label gives none (a
        gesture window without a 75% majority), it names the top-count
        label, the lowest code on ties."""
        top = max(counts)
        label = majority_label(counts, self.label_set)
        return counts.index(top) if label is None else label.value, top / self.window

    def _classify(self, matrix: np.ndarray) -> list[tuple[int, float]]:
        """The model's label code and its probability for each window of a (k, W, c) batch.
        Features, their normalization and forward give each row the same bytes
        in a batch as alone, so each runs once over the batch."""
        probs = forward(self.model, normalize_features(extract_feature_matrix(matrix), self.model.stats)[0])
        return list(zip(probs.argmax(axis=1).tolist(), probs.max(axis=1).tolist()))

    # -- energy ------------------------------------------------------------------

    def _advance(self, to_ms: int) -> None:
        """Book the dwells the cycle loop left unbooked, then the current state's dwell up to to_ms, one piece
        per hour slot."""
        if self.unbooked:
            dwells, self.unbooked = self.unbooked, []
            self._book_dwells(dwells)
        while self.last_account_ms < to_ms:
            t = self.last_account_ms
            self._book_dwells([(self.state, min((t // SLOT_MS + 1) * SLOT_MS, to_ms) - t)])

    def _book_dwells(self, dwells: list[tuple[PowerState, int]]) -> None:
        """Book the (state, ms) dwells from last_account_ms on, all in that time's hour slot, in one
        account_energy call, in order, with one energy_piece per distinct dwell. They are added to
        last_account_ms, dwell_ms and slot_active_ms first, so that _book keeps the stretch's end from theirs."""
        slot = self.last_account_ms // SLOT_MS
        harvest, kinds = self.harvest_mw[slot % SLOTS_PER_DAY], Counter(dwells)
        piece = {kind: energy_piece(harvest, self.power_mw[kind[0]], self.charge_efficiency, kind[1]) for kind in kinds}
        for (state, ms), count in kinds.items():
            ms *= count
            self.dwell_ms[state] += ms
            self.last_account_ms += ms
            if state is not PowerState.Sleep:
                self.slot_active_ms[slot] = self.slot_active_ms.get(slot, 0) + ms
        self._book(map(piece.__getitem__, dwells))

    def _burst(self, frame: bytes) -> None:
        """A frame sent outside the cycle: its air time at p_tx, on top of the dwell, unharvested.
        Booked after the send: a frame whose burst empties the battery was already on the air."""
        self._advance(0)  # the dwells the cycle loop left unbooked come first
        self._book([energy_piece(0.0, self.profile.p_tx_mw, self.charge_efficiency, self._tx_ms(len(frame)))])

    def _book(self, pieces: Iterable[tuple[float, float, float]]) -> None:
        """Book energy_piece products onto the ledger, the one place that does, and keep stretch_stop, where
        the cycle loop's stretch from last_account_ms ends at the new level; a battery that first runs dry
        here forces sleep."""
        self.ledger = account_energy(self.ledger, self.capacity_mwh, pieces)
        self.stretch_stop = self._stretch_end(self.last_account_ms)
        if self.ledger[0] <= 0.0 and not self.depleted:
            self.depleted = True
            self.sim.close_run(self.sim.now)  # a forced sleep closes the run
            self.sim.emit("battery_depleted", self.name)
            self.cycle_gen += 1  # the cycle's pending dwell end now finds a newer cycle
            self.state = PowerState.Sleep

    def _stretch_end(self, t: int) -> int:
        """Where a stretch of the cycle loop from t ends: the end of t's hour slot or, if sooner, where the
        highest state power would have drawn half the battery's level, so that no stretch empties it."""
        return min((t // SLOT_MS + 1) * SLOT_MS, t + int(self.ledger[0] / 2 * 3_600_000 / self.max_power_mw))

    def _emit_energy(self) -> None:
        self.sim.emit("energy", self.name, *(f"{mwh:.9f}" for mwh in self.ledger), *self.dwell_ms.values())

    def _energy_tick(self) -> None:
        self._advance(self.sim.now)
        self._maybe_recover()
        self._emit_energy()

    def _maybe_recover(self) -> None:
        if self.depleted and self.ledger[0] >= BATTERY_RECOVERY_FRACTION * self.capacity_mwh:
            self.depleted = False
            self.sim.emit("battery_recovered", self.name)
            if self.alert_queue:
                self._send_alert_attempt()  # the head's retries stopped while depleted

    def finalize(self) -> None:
        self._advance(self.scenario.duration_ms)
        self._emit_energy()

    # -- the sleep/sampling/processing/transmitting cycle ------------------------------

    def _slack_ms(self, now: int, active_ms: int) -> int:
        """How many ms after now, and as many more active ms, one more full cycle could begin and end in the
        scenario and in the duty budget of now's slot, of which active_ms is used; below 0 if none fits. The
        active ms and the budget are integers, so they compare exactly."""
        slack = self.scenario.duration_ms - self.cycle_ms - now
        if self.duty_budget_ms is None:
            return slack
        return min(slack, self.duty_budget_ms[now // SLOT_MS % SLOTS_PER_DAY] - self.cycle_ms - active_ms)

    def _quiet_cycles(self, q: int, t: int, last_motion: int, active: int, reach: int) -> tuple[int, int]:
        """How many whole quiet cycles from window q of the look-ahead batch, at t, the loop takes in one step,
        and the last motion after them: up to a window that reports or raises an alert, the last cycle that
        ends by reach, and the first that _slack_ms or the idle timeout would not begin."""
        quiet, starts, reports = self.quiet_ms, self.ahead_starts, self.scenario.report_every_n_windows
        n = min(len(starts) - q, (reach - t) // quiet, self._slack_ms(t, active) // quiet + 1,
                (-self.window_index - 1) % reports)
        if self.alert_codes:
            n = next((j for j in range(n) if self.ahead_labels[q + j][0] in self.alert_codes), n)
        if n <= 0 or starts[q + n - 1] != t + (n - 1) * quiet:  # none, or the batch predicted other numbers
            return 0, last_motion
        idle_ms, window_ms = self.scenario.idle_timeout_ms, self.window_ms
        for j, moving in enumerate(self.ahead_moving[q : q + n]):
            if j and t + j * quiet - last_motion >= idle_ms:  # cycle j would not begin
                return j, last_motion
            if moving:
                last_motion = t + j * quiet + window_ms  # its Sampling end
        return n, last_motion

    def _run_cycles(self, entered: int | None = None) -> None:
        """Run a wake's cycles from now: a wake check, where motion wakes a sleeping device, or the end of a dwell
        the cycle of generation entered queued (a forced sleep bumps cycle_gen). It works on the device's state,
        label and last motion and adds its dwells to unbooked, so whatever runs between its steps sees them. A
        look-ahead batch's quiet cycles are one step (_quiet_cycles). A Processing end that sends a frame sends it
        there. The next booking books the stretch's dwells, which end before stretch_stop, and sets it anew. A dwell
        that ends past the horizon moves the clock at its start with Simulator.advance_to, which runs in place each
        queued entry due before that end queued then, after the loop's windows before it: where one booked, the loop
        books that dwell as its queued end would and goes on, and where one cut the cycle short, it ends. Nowhere
        else does the clock pass a queued entry. It ends with the wake, or queues a dwell's end, by the scenario's
        end (_slack_ms)."""
        sim = self.sim
        if entered is not None and self.cycle_gen != entered:
            return  # a forced sleep ended the cycle that queued this dwell end
        self._advance(sim.now)
        self._maybe_recover()
        if self.depleted or entered is None and self.state is not PowerState.Sleep:
            return
        t, gen = sim.now, self.cycle_gen
        reach = t - 1  # the clock reaches any time up to reach: past it, a dwell's start moves it (advance_to)
        active = self.slot_active_ms.get(t // SLOT_MS, 0)
        sampling, processing, transmitting = self.cycle_states  # locals: an Enum member lookup is slow
        window_ms, name, names = self.window_ms, self.name, self.label_names
        q = -1  # the batch position sampled next

        while True:
            # The step at t: the end of the dwell in self.state, or a wake check.
            if self.state is sampling:
                if not (0 <= q < len(self.ahead_starts) and self.ahead_starts[q] == t - window_ms):
                    q = self._window(t - window_ms)
                if self.ahead_moving[q]:
                    self.last_motion_ms = t
                code, conf_fp = self.label = self.ahead_labels[q]
                sim.classify(t, name, self.window_index, names[code], conf_fp)
                self.window_index += 1  # here: a forced sleep before the Processing end must not leave it to the next wake
                self.state, dt, q = processing, self.scenario.inference_latency_ms, q + 1
            elif self.state is processing:
                reports, (code, conf_fp) = self._reports(self.window_index - 1), self.label
                self.state, dt = transmitting, self.data_tx_ms if reports else MIN_RADIO_MS
                if reports or code in self.alert_codes:
                    sim.now = t  # t <= reach, or this dwell's start or its queued end moved the clock here
                    if reports:
                        payload = self._payload(code, conf_fp)
                        frame = encode_frame(FrameType.DATA, self.spec.device_id, self._next_seq(), payload, self.key)
                        self.channel.send(self.name, frame, self.host)
                    if code in self.alert_codes:
                        self._trigger_alert(code)
                        if self.cycle_gen != gen:  # its burst emptied the battery: the cycle is cut short
                            return
                    reach = min(reach, sim.horizon(self.stretch_stop - 1))  # re-read: a send queues its receipt
            elif self.state is transmitting:
                self.state, dt = sampling, window_ms
                if t - self.last_motion_ms >= self.scenario.idle_timeout_ms or self._slack_ms(t, active) < 0:
                    self.state = step_state_machine(self.state, DeviceEvent.IdleTimeout)
                    sim.close_run(t)  # a sleep closes the run: every entry due before t has run
                    break
                if t + self.quiet_ms <= reach and not self._reports(self.window_index):  # take quiet cycles at once
                    if not (0 <= q < len(self.ahead_starts) and self.ahead_starts[q] == t):
                        q = self._window(t)
                    k, motion = self._quiet_cycles(q, t, self.last_motion_ms, active, reach)
                    if k:
                        quiet, index = self.quiet_ms, self.window_index
                        for j, (code, conf_fp) in enumerate(self.ahead_labels[q : q + k]):
                            sim.classify(t + j * quiet + window_ms, name, index + j, names[code], conf_fp)
                        self.unbooked += self.quiet_dwells * k
                        self.last_motion_ms, self.label, q = motion, self.ahead_labels[q + k - 1], q + k
                        t, active, self.state, self.window_index = t + k * quiet, active + k * quiet, transmitting, index + k
                        continue
            elif self._slack_ms(t, active) >= 0:
                q = self._window(t, labelled=False)
                if not self.ahead_moving[q]:
                    return  # no motion in the first window
                self.state, self.last_motion_ms, dt = step_state_machine(self.state, DeviceEvent.MotionDetected), t, window_ms
            else:
                return
            # The dwell in self.state from t.
            end = t + dt
            if end > reach:
                if end >= self.stretch_stop:
                    break
                ledger = self.ledger  # a later ledger is another tuple: something booked
                sim.advance_to(end)
                if self.cycle_gen != gen:
                    return  # an entry run in place emptied the battery: the cycle is cut short
                if self.ledger is not ledger:  # an entry run in place booked: book this dwell as its queued end would
                    self._advance(end)
                    if self.cycle_gen != gen:
                        return
                    active, dt = active + dt, 0
                reach = sim.horizon(self.stretch_stop - 1)
            if dt:
                self.unbooked.append((self.state, dt))
            t, active = end, active + dt
        self._advance(t)
        sim.now = t
        if self.state is not PowerState.Sleep:
            sim.schedule(end, lambda: self._run_cycles(gen))

    # -- frames -------------------------------------------------------------------------

    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def _tx_ms(self, frame_len: int) -> int:
        bits = frame_len * 8
        return max(MIN_RADIO_MS, round(bits / self.scenario.tx_bitrate_kbps))

    def _payload(self, code: int, conf_fp: int) -> bytes:
        """A DATA or ALERT payload of label code, stamped with the device clock now."""
        return DataPayload(
            timestamp_ms=self.device_clock(self.sim.now),
            label_index=code,
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

    def _trigger_alert(self, code: int) -> None:
        self.alert_queue.append(_PendingAlert(self._payload(code, CONFIDENCE_SCALE)))
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
        acked_seq, data = unpack_ack(decoded.payload)  # the host sends only ACKs, and GCM authenticates the type
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
    """The lines of the scenario's trace, and the metrics that trace_metrics derives from them."""
    with scenario_lines(config, seed) as lines:
        lines = [line[:-1] for line in lines]
    return SimTrace(lines=lines, metrics=trace_metrics(lines))


def scenario_lines(config: Config, seed: int = 0) -> ContextManager[Iterator[str]]:
    """Check the config and its model; return a context (_sharded) that runs the scenario on entry, gives
    its trace as one stream of lines, and closes each spool file on exit, however it ends. Each device's
    shard runs apart (_shard_lines), in up to min(devices, usable CPUs) processes (_run_shards)."""
    scenario = config.scenario
    if scenario is None:
        raise ConfigError(["config has no scenario section"])
    if errors := scenario_errors(config):  # rules across sections, which a Config cannot check itself
        raise ConfigError(errors)
    model = None
    if scenario.model_path is not None:
        model = load_model(scenario.model_path)
        for spec in scenario.devices:
            try:
                check_fit(model, channel_count(config.synthetic[spec.app].signals), spec.app)
            except ModelFitError as exc:
                raise ModelFitError(f"device {spec.device_id}: {exc}") from None
    return _sharded(config, model, seed)


@contextmanager
def _sharded(config: Config, model: MlpModel | None, seed: int) -> Iterator[Iterator[str]]:
    """Run the shards; give the trace's lines, each ended by a newline, in one stream that heapq.merge
    takes from the shards' spool files a line at a time as it is read, parsing no line."""
    scenario = config.scenario
    with ExitStack() as stack:
        spools = [stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8")) for _ in scenario.devices]
        _run_shards(len(spools), lambda index: _shard_lines(config, model, seed, index, spools[index]))
        for spool in spools:  # the shards wrote them
            spool.seek(0)
        # The trace is its first lines, the shards' lines merged by (t_ms, device index), then scenario_end.
        yield chain([f"0\ttrace_version\tsim\t{TRACE_VERSION}\n",
                     f"0\tscenario\tsim\t{scenario.duration_ms}\t{len(scenario.devices)}\t{seed}\n"],
                    heapq.merge(*spools, key=_t_ms), [f"{scenario.duration_ms}\tscenario_end\tsim\n"])


def _t_ms(line: str) -> int:
    return int(line[: line.index("\t")])


def _shard_lines(config: Config, model: MlpModel | None, seed: int, index: int, out: TextIO) -> None:
    """Write the lines of the shard of scenario.devices[index] to out, in its kernel's order, and flush
    them. A shard is one device with its own kernel, channel and host. Its host's gateway knows every
    device's key, so a frame whose device-id byte was corrupted into another device's id fails
    authentication as it would at a shared host; it stays in its sender's shard."""
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
    sim.close_run(sim.now)
    sim._heap, device.host = [], None  # break the shard's reference cycles, so that it is freed on return
    out.flush()  # a fork child leaves through os._exit, which flushes nothing


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_shards(count: int, shard: Callable[[int], None]) -> None:
    """Run shard(i) for each i in range(count), in up to min(count, usable CPUs) processes.

    Where the platform can fork, the parent forks one child per extra process; worker w of n runs shards
    w, w + n, ... (the parent is worker 0) and each child sends back over a pipe None once its shards have
    run, or the exception a shard raised, which raises here. Every child is joined, and a child whose result
    was not read is terminated first."""
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
                sent = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"shard process exited with code {child.exitcode} and sent no result") from None
            receiver.close()
            if sent is not None:
                raise sent
    finally:
        for child, receiver in children:
            if not receiver.closed:
                receiver.close()
                child.terminate()
            child.join()
            child.close()  # now, not when a failed run's traceback is collected


def _shard_child(sender, shard: Callable[[int], None], indices: range) -> None:
    """Run shard(i) for i in indices, then send the parent None, or the exception one raised."""
    sent = None
    try:
        for i in indices:
            shard(i)
    except Exception as exc:
        sent = exc
    sender.send(sent)
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
    "device_init": ("dev", ("app", "battery_mwh", "capacity_mwh", "clock_offset_ms", "quiet_ms", "cycle_ms"),
                    (str, float, float, int, int, int)),
    "duty_plan": ("dev", ("hourly_budget_ms",), (lambda text: tuple(map(int, text.split(","))),)),
    "classify_run": ("dev", ("first_t_ms", "first_index", "windows", "spacing_ms", "label", "confidence"),
                     (int, int, int, int, str, int)),
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


def trace_records(lines: Iterable[str], parse: Collection[str] = TRACE_LINES) -> Iterator[tuple]:
    """(line number, t_ms, kind, entity, details) of each line, less its line end if it keeps one.

    Every line must fit its kind's row of TRACE_LINES (see _line_rule) and have
    an integer t_ms; details are what its row parses if its kind is in parse,
    else they stay strings. The first line that breaks a rule raises
    TraceFormatError naming it.
    """
    rules: dict[str, tuple[int, set[str], Callable]] = {}  # kind -> (parts in a line, entities seen, details_of)
    for lineno, line in enumerate(lines, start=1):
        parts = line.rstrip("\n").split("\t")
        try:
            size, entities, details_of = rules[parts[1]]
        except (IndexError, KeyError):
            size, entities, details_of = rules[parts[1]] = _line_rule(lineno, parts, parse)
        if len(parts) != size or parts[2] not in entities:
            _line_rule(lineno, parts, parse)
            entities.add(parts[2])
        try:
            record = lineno, int(parts[0]), parts[1], parts[2], details_of(parts)
        except ValueError as exc:
            raise TraceFormatError(lineno, f"cannot parse ({type(exc).__name__}: {exc})") from None
        yield record


def _line_rule(lineno: int, parts: list[str], parse: Collection[str]) -> tuple:
    """(parts, {entity}, details_of) of a line, where details_of(parts) gives the details
    trace_records yields. Line 1 must be the version line of TRACE_VERSION, or
    VersionMismatch; a line whose kind, entity or number of details its row refuses is a
    TraceFormatError."""
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
    return len(parts), {entity}, _PARSERS[kind] if kind in parse else itemgetter(slice(3, None))


def trace_observations(lines: Iterable[str]) -> list[Observation]:
    """Host observation log entries recovered from the trace; raises only TraceFormatError."""
    records = trace_records(lines, parse=("observation",))
    return [Observation(*details) for _, _, kind, _, details in records if kind == "observation"]


def observation_line_row(line: str) -> str:
    """The host observation log's row of an observation line, cut by text: its details, comma-joined, keeping
    the line's end if it has one; "" for any other line. The log is OBSERVATION_HEADER, then the rows of the
    trace's lines in order."""
    return ",".join(line.split("\t")[3:]) if "\tobservation\t" in line else ""


def trace_metrics(lines: Iterable[str]) -> dict:
    """Summary metrics of a trace, folded in one pass over its lines, which may keep their line ends, so an
    open trace file will do: every metric follows from the trace file alone."""
    devices: dict[str, dict] = defaultdict(lambda: {  # battery_daily: [day, mWh] at each day boundary, then the end
        "app": None, "frames_sent": 0, "classifications": {},
        "alerts": {"sent": 0, "delivered": 0, "undelivered": 0, "attempts": {}, "latency_ms": {}},
        "battery_mwh": {}, "battery_daily": [], "energy_mwh": {}, "dwell_ms": {},
        "sync": {"offset_est_ms": None, "rtt_ms": None, "timeouts": 0}, "depletions": 0,
    })
    host = {"frames_received": 0, "frames_rejected": {}, "observations": {}, "alerts_notified": 0}
    channel = {"transmitted": 0, "lost": 0, "corrupted": 0}
    duration, seed = 0, None
    # The kinds whose numbers it reads: the others it counts, or reads as strings.
    numeric = ("scenario", "device_init", "classify_run", "alert_sent", "alert_delivered", "alert_undelivered",
               "sync", "energy")
    for _, t, kind, entity, details in trace_records(lines, parse=numeric):
        if kind == "classify_run":  # a run counts its windows
            _, _, n, _, label, _ = details
            counts = devices[entity]["classifications"]
            counts[label] = counts.get(label, 0) + n
        elif kind == "scenario":
            duration, _, seed = details
        elif kind == "device_init":
            d = devices[entity]
            d["app"], d["battery_mwh"]["start"], d["battery_mwh"]["capacity"], *_ = details
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


# What a device logs only with its radio on or its cycle running: a depleted device hears no frame
# and, forced to sleep, classifies no window.
_RECEIPT_KINDS = ("frame_rx", "frame_reject", "alert_delivered", "sync", "classify_run")
# The kinds whose details replay reads.
_REPLAY_PARSE = ("device_init", "energy", "frame_tx", "frame_rx", "classify_run")


def replay(lines: Iterable[str], canaries: tuple[bytes, ...] = ()) -> ReplayReport:
    """Re-check the rules across the lines that trace_records checks one by one:
    time order, energy ledger, state dwell, radio silence while depleted, window
    order, run bounds and cycle grid, seq monotonicity, frame causality and
    canary absence. lines is read once and may keep its line ends, so an open
    trace file will do. Line numbers are 1-based."""
    report = ReplayReport(passed=True)
    initial: dict[str, float] = {}
    capacity: dict[str, float] = {}
    highest_seq: dict[str, int] = {}
    seen_frames: dict[tuple[str, int], bytes] = {}
    tx_keys: set[tuple[str, int, int, int]] = set()
    depleted: set[str] = set()
    next_window: dict[str, int] = {}  # the least window index each device may classify next
    grids: dict[str, list[int]] = {}  # a device's quiet_ms and cycle_ms, from its device_init line
    run_floor: dict[str, tuple[int, int]] = {}  # (line, least t_ms) of a device's next run's first window
    sim_lines = lineno = 0
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
            _, initial[entity], capacity[entity], _, *grids[entity] = details
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
        elif kind == "classify_run":  # stamped with its close
            first_ms, index, n, spacing = details[:4]
            end_ms, (after, floor_ms) = first_ms + (n - 1) * spacing, run_floor.get(entity, (0, 0))
            if index < next_window.get(entity, 0):
                report.failures.append(f"line {lineno}: {entity} window {index} not above {next_window[entity] - 1}")
            if first_ms < floor_ms:
                report.failures.append(
                    f"line {lineno}: {entity}'s run starts at {first_ms} ms, before {floor_ms} (line {after})")
            if end_ms > t_ms:
                report.failures.append(f"line {lineno}: {entity}'s run ends at {end_ms} ms, after its close")
            if n > 1 and spacing not in grids.get(entity, ()):
                report.failures.append(f"line {lineno}: {entity}'s run spacing {spacing} ms is off its cycle grid")
            next_window[entity], run_floor[entity] = index + n, (lineno, t_ms)
        elif kind == "battery_depleted":
            depleted.add(entity)
            run_floor[entity] = lineno, t_ms + 1  # a run starts after it
        elif kind == "battery_recovered":
            depleted.discard(entity)
            run_floor[entity] = lineno, t_ms + 1
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

    if not lineno:  # trace_records yields every line or raises, so lineno is the line count
        report.warnings.append("empty trace: vacuous pass")
    elif sim_lines == lineno:
        report.warnings.append("trace has no events: vacuous pass")
    report.passed = not report.failures
    return report
