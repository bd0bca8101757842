"""Device-host wire protocol: authenticated frames, replay protection, sync, alerts.

Frame layout (big-endian, bit-exact):

    offset  size  field
    0       1     version (= 1)
    1       1     frame type (HELLO=1, TIME_SYNC=2, DATA=3, ALERT=4, ACK=5)
    2       2     device id
    4       4     sequence number (strictly increasing per device and direction)
    8       2     payload length (ciphertext bytes, <= 1024)
    10      n     ciphertext
    10+n    16    AES-GCM auth tag

The 10-byte header is authenticated as associated data but not encrypted.
The 96-bit nonce is device_id (2) || seq (4) || direction (1) || zeros (5);
the direction byte (0 = device to host, 1 = host to device) keeps the two
directions of a session from ever sharing a nonce under the pre-shared key.
Direction is implied by the frame type, so it needs no wire bytes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .core import COUNT, MAX_MS, check_fields, is_int, num

PROTOCOL_VERSION = 1
_HEADER = struct.Struct(">BBHIH")  # version, type, device id, seq, payload length
HEADER_LEN = 10
TAG_LEN = 16
MAX_PAYLOAD = 1024
KEY_LEN = 16

CONFIDENCE_SCALE = 10000  # fixed-point 0..10000 <-> 0..1


class FrameType(Enum):
    HELLO = 1
    TIME_SYNC = 2
    DATA = 3
    ALERT = 4
    ACK = 5


FRAME_TYPES = {t.value: t for t in FrameType}  # a table, which looks a type up faster than FrameType(value)
FRAME_TYPE_VALUES = {t.name: t.value for t in FrameType}  # and one that looks a value up by name


class AppId(Enum):
    HAR = 1
    GESTURE = 2


# Direction byte for the nonce, implied by who legitimately sends each type.
DEVICE_TO_HOST = 0
HOST_TO_DEVICE = 1
_DIRECTION = {
    FrameType.HELLO: DEVICE_TO_HOST,
    FrameType.TIME_SYNC: DEVICE_TO_HOST,
    FrameType.DATA: DEVICE_TO_HOST,
    FrameType.ALERT: DEVICE_TO_HOST,
    FrameType.ACK: HOST_TO_DEVICE,
}


class ProtocolError(ValueError):
    code = "protocol_error"


class TruncatedFrame(ProtocolError):
    code = "truncated"


class VersionError(ProtocolError):
    code = "bad_version"


class AuthFailure(ProtocolError):
    code = "auth_failure"


class ReplayRejected(ProtocolError):
    code = "replay"


class PayloadTooLong(ProtocolError):
    code = "payload_too_long"


class UnknownDevice(ProtocolError):
    code = "unknown_device"


class BadPayload(ProtocolError):
    code = "bad_payload"


# One AESGCM object a key, made at its first use: making one costs more than an encryption with it.
_cipher = lru_cache(maxsize=256)(AESGCM)


def frame_nonce(device_id: int, seq: int, direction: int) -> bytes:
    return struct.pack(">HIB", device_id, seq, direction) + b"\x00" * 5


@dataclass(frozen=True)
class DecodedFrame:
    frame_type: FrameType
    device_id: int
    seq: int
    payload: bytes
    direction: int


def frame_header(type_value: int, device_id: int, seq: int, payload_len: int) -> bytes:
    """A frame's 10-byte header, which is also its AES-GCM associated data."""
    return _HEADER.pack(PROTOCOL_VERSION, type_value, device_id, seq, payload_len)


def encode_frame(
    frame_type: FrameType, device_id: int, seq: int, payload: bytes, key: bytes
) -> bytes:
    """Build an encrypted, authenticated frame around a plaintext payload."""
    if len(key) != KEY_LEN:
        raise ValueError(f"key must be {KEY_LEN} bytes")
    if len(payload) > MAX_PAYLOAD:
        raise PayloadTooLong(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    header = frame_header(frame_type.value, device_id, seq, len(payload))
    nonce = frame_nonce(device_id, seq, _DIRECTION[frame_type])
    ct_and_tag = _cipher(key).encrypt(nonce, payload, header)
    return header + ct_and_tag


class ReplayWindow:
    """Highest accepted sequence number per direction for one device session."""

    def __init__(self) -> None:
        self._highest: dict[int, int] = {}

    def accept(self, direction: int, seq: int) -> None:
        """Advance the window to seq; ReplayRejected unless seq is above it."""
        if seq <= self._highest.get(direction, -1):
            raise ReplayRejected(f"seq {seq} already seen for direction {direction}")
        self._highest[direction] = seq


def peek_header(data: bytes) -> tuple[int, int, int, int, int]:
    """Unauthenticated header fields (version, type, device, seq, payload_len)."""
    if len(data) < HEADER_LEN:
        raise TruncatedFrame(f"frame of {len(data)} bytes is shorter than the header")
    return _HEADER.unpack(data[:HEADER_LEN])


def decode_frame(data: bytes, key: bytes) -> DecodedFrame:
    """Verify and decrypt a frame.

    Raises TruncatedFrame, VersionError or AuthFailure; each carries a
    distinct error code. The seq is not checked here: the receiver passes
    the frame's direction and seq to its ReplayWindow.accept.
    """
    version, type_value, device_id, seq, payload_len = peek_header(data)
    if len(data) != HEADER_LEN + payload_len + TAG_LEN:
        raise TruncatedFrame(
            f"frame length {len(data)} != {HEADER_LEN + payload_len + TAG_LEN} implied by header"
        )
    if version != PROTOCOL_VERSION:
        raise VersionError(f"unknown protocol version {version}")
    frame_type = FRAME_TYPES.get(type_value)
    if frame_type is None:
        raise AuthFailure(f"unknown frame type {type_value}")
    direction = _DIRECTION[frame_type]
    nonce = frame_nonce(device_id, seq, direction)
    try:
        payload = _cipher(key).decrypt(nonce, data[HEADER_LEN:], data[:HEADER_LEN])
    except InvalidTag:
        raise AuthFailure("authentication tag mismatch") from None
    return DecodedFrame(
        frame_type=frame_type, device_id=device_id, seq=seq, payload=payload, direction=direction
    )


# ---------------------------------------------------------------------------
# Payload codecs

_DATA_FMT = ">QBHB"  # timestamp_ms, label_index, confidence, app_id
DATA_FRAME_LEN = HEADER_LEN + struct.calcsize(_DATA_FMT) + TAG_LEN


@dataclass(frozen=True)
class DataPayload:
    """Processed observation: the only sensor-derived content ever transmitted."""

    timestamp_ms: int
    label_index: int
    confidence: int  # fixed point, 0..10000
    app_id: AppId

    def __post_init__(self) -> None:
        if not 0 <= self.confidence <= CONFIDENCE_SCALE:
            raise ValueError(f"confidence {self.confidence} outside 0..{CONFIDENCE_SCALE}")
        if not 0 <= self.label_index <= 255:
            raise ValueError("label_index must fit one byte")

    def pack(self) -> bytes:
        return struct.pack(
            _DATA_FMT, self.timestamp_ms, self.label_index, self.confidence, self.app_id.value
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "DataPayload":
        ts, label, conf, app = struct.unpack(_DATA_FMT, raw)
        return cls(timestamp_ms=ts, label_index=label, confidence=conf, app_id=AppId(app))


SYNC_REQUEST = 0
SYNC_REPORT = 1


def pack_sync_request(t1_ms: int) -> bytes:
    return struct.pack(">BQ", SYNC_REQUEST, t1_ms)


def unpack_sync_request(raw: bytes) -> int:
    """t1 of a sync request; HostGateway._dispatch has read its kind byte."""
    return struct.unpack(">BQ", raw)[1]


def pack_sync_report(offset_ms: float, rtt_ms: int) -> bytes:
    return struct.pack(">BdI", SYNC_REPORT, offset_ms, rtt_ms)


def unpack_sync_report(raw: bytes) -> tuple[float, int]:
    kind, offset, rtt = struct.unpack(">BdI", raw)
    if kind != SYNC_REPORT:
        raise ProtocolError("not a sync report")
    if not math.isfinite(offset):
        raise ProtocolError(f"sync report offset {offset} is not finite")
    return offset, rtt


def pack_ack(acked_seq: int, data: bytes = b"") -> bytes:
    return struct.pack(">I", acked_seq) + data


def unpack_ack(raw: bytes) -> tuple[int, bytes]:
    (acked_seq,) = struct.unpack(">I", raw[:4])
    return acked_seq, raw[4:]


def pack_sync_reply(t1_ms: int, t2_ms: int, t3_ms: int) -> bytes:
    return struct.pack(">QQQ", t1_ms, t2_ms, t3_ms)


def unpack_sync_reply(raw: bytes) -> tuple[int, int, int]:
    return struct.unpack(">QQQ", raw)


def estimate_offset(t1: int, t2: int, t3: int, t4: int) -> tuple[float, int]:
    """Two-timestamp clock offset (host minus device) and round-trip time.

    Exact when the up/down latencies are symmetric; otherwise the error is
    half the latency asymmetry.
    """
    offset = ((t2 - t1) + (t3 - t4)) / 2.0
    rtt = (t4 - t1) - (t3 - t2)
    return offset, rtt


@dataclass(frozen=True)
class RetryPolicy:
    interval_ms: int = 200
    max_attempts: int = 10

    RULES = {"interval_ms": COUNT, "max_attempts": COUNT}

    def __post_init__(self) -> None:
        check_fields(self)


def _latency(v):
    """A fixed nonnegative latency, or a [lo, hi] range drawn from uniformly; at most MAX_MS either way."""
    pair = isinstance(v, (list, tuple)) and len(v) == 2 and all(is_int(x) for x in v) and 0 <= v[0] <= v[1]
    if not pair and not (is_int(v) and v >= 0):
        raise ValueError("expected a nonnegative integer or [lo, hi] range")
    if (v[1] if pair else v) > MAX_MS:
        raise ValueError(f"must be <= {MAX_MS}")
    return (v[0], v[1]) if pair else v


@dataclass(frozen=True)
class ChannelModel:
    """Simulated link parameters; randomness comes from the simulator seed."""

    latency_ms: int | tuple[int, int] = 20
    loss_probability: float = 0.0
    corruption_probability: float = 0.0

    RULES = {
        "latency_ms": _latency,
        # loss may be exactly 1.0 (dead link) so delivery exhaustion is testable
        "loss_probability": num(lo=0.0, hi=1.0),
        "corruption_probability": num(lo=0.0, hi=0.999),
    }

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class Observation:
    device_id: int
    corrected_t_ms: int
    app_id: AppId
    label_index: int
    confidence: int


@dataclass(frozen=True)
class AlertNotification:
    device_id: int
    label_index: int
    seq: int


OBSERVATION_HEADER = "device_id,corrected_t_ms,app_id,label,confidence"


def observation_row(o: Observation) -> str:
    return f"{o.device_id},{o.corrected_t_ms},{o.app_id.value},{o.label_index},{o.confidence}\n"


def write_observation_log(observations, path: str | Path) -> None:
    Path(path).write_text(OBSERVATION_HEADER + "\n" + "".join(map(observation_row, observations)), encoding="utf-8")


@dataclass
class GatewayResult:
    """What the host gateway made of one frame.

    device_id is the id the frame's header claims (-1 if the frame is too
    short for a header); frame is the decoded frame once it authenticates;
    reject is the error code of a rejected frame, None for an accepted one.
    An accepted frame may yield an observation or an alert notification,
    and an ACK for the frame's own device. A replayed ALERT is rejected and
    still acked, so a sender whose first ACK was lost can stop retrying.
    """

    device_id: int
    frame: DecodedFrame | None = None
    reject: str | None = None
    ack: bytes | None = None
    observation: Observation | None = None
    notification: AlertNotification | None = None


class HostGateway:
    """Receives device frames: corrects observation timestamps, acks, raises alerts.

    One gateway instance serves many devices. It keeps only the per-device
    session state the protocol needs: the key, the replay window, the clock
    offset the device last reported, the host's send seq and the seqs of
    the alerts it acked. Everything it learns from a frame leaves through
    step's result; the caller keeps the log.
    """

    def __init__(self, keys: dict[int, bytes]):
        self.keys = dict(keys)
        self.replay: dict[int, ReplayWindow] = {d: ReplayWindow() for d in keys}
        self.offsets: dict[int, float] = {d: 0.0 for d in keys}
        self.acked_alerts: dict[int, set[int]] = {d: set() for d in keys}
        self._send_seq: dict[int, int] = {d: 0 for d in keys}

    def _ack(self, device_id: int, acked_seq: int, data: bytes = b"") -> bytes:
        self._send_seq[device_id] += 1
        return encode_frame(
            FrameType.ACK,
            device_id,
            self._send_seq[device_id],
            pack_ack(acked_seq, data),
            self.keys[device_id],
        )

    def step(self, t_ms: int, raw: bytes) -> GatewayResult:
        """Process one frame received at host time t_ms; never raises on frame bytes."""
        try:
            device_id = peek_header(raw)[2]
        except TruncatedFrame as exc:
            return GatewayResult(-1, reject=exc.code)
        if device_id not in self.keys:
            return GatewayResult(device_id, reject=UnknownDevice.code)
        result = GatewayResult(device_id)
        try:
            frame = result.frame = decode_frame(raw, self.keys[device_id])
            if frame.frame_type is FrameType.ALERT and frame.seq in self.acked_alerts[device_id]:
                # A retransmission, whose first ACK may have been lost; the replay window rejects it next.
                result.ack = self._ack(device_id, frame.seq)
            self.replay[device_id].accept(frame.direction, frame.seq)
            self._dispatch(t_ms, frame, result)
        except ProtocolError as exc:  # including _dispatch's BadPayload
            result.reject = exc.code
        return result

    def _dispatch(self, t_ms: int, frame: DecodedFrame, result: GatewayResult) -> None:
        """Act on an authenticated frame; BadPayload, before any effect, if its payload is malformed."""
        device_id = frame.device_id
        if frame.frame_type is FrameType.HELLO:
            result.ack = self._ack(device_id, frame.seq)
        elif frame.frame_type is FrameType.TIME_SYNC:
            if frame.payload[:1] == bytes((SYNC_REQUEST,)):
                t1 = _unpack_payload(unpack_sync_request, frame)
                result.ack = self._ack(device_id, frame.seq, pack_sync_reply(t1, t_ms, t_ms))
            else:
                offset, _ = _unpack_payload(unpack_sync_report, frame)
                self.offsets[device_id] = offset
        elif frame.frame_type is FrameType.DATA:
            data = _unpack_payload(DataPayload.unpack, frame)
            result.observation = Observation(
                device_id=device_id,
                corrected_t_ms=round(data.timestamp_ms + self.offsets[device_id]),
                app_id=data.app_id,
                label_index=data.label_index,
                confidence=data.confidence,
            )
        elif frame.frame_type is FrameType.ALERT:
            data = _unpack_payload(DataPayload.unpack, frame)
            result.notification = AlertNotification(device_id, data.label_index, frame.seq)
            self.acked_alerts[device_id].add(frame.seq)
            result.ack = self._ack(device_id, frame.seq)


def _unpack_payload(unpack, frame: DecodedFrame):
    """unpack(frame.payload), raising BadPayload if the payload is malformed."""
    try:
        return unpack(frame.payload)
    except (struct.error, ValueError) as exc:  # ProtocolError is a ValueError too
        raise BadPayload(f"malformed {frame.frame_type.name} payload: {exc}") from None
