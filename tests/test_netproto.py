from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from openhealth.netproto import (
    DATA_FRAME_LEN,
    AppId,
    AuthFailure,
    DataPayload,
    FrameType,
    HostGateway,
    OBSERVATION_HEADER,
    ReplayRejected,
    ReplayWindow,
    TruncatedFrame,
    VersionError,
    decode_frame,
    encode_frame,
    estimate_offset,
    pack_ack,
    pack_sync_reply,
    pack_sync_report,
    pack_sync_request,
    peek_header,
    unpack_ack,
    unpack_sync_reply,
    unpack_sync_request,
    write_observation_log,
)

KEY = bytes(range(16))


def test_round_trip_all_frame_types():
    for ftype in FrameType:
        frame = encode_frame(ftype, 5, 9, b"payload-bytes", KEY)
        decoded = decode_frame(frame, KEY)
        assert decoded.frame_type is ftype
        assert decoded.device_id == 5
        assert decoded.seq == 9
        assert decoded.payload == b"payload-bytes"


@settings(max_examples=80, deadline=None)
@given(
    ftype=st.sampled_from(list(FrameType)),
    device=st.integers(0, 0xFFFF),
    seq=st.integers(0, 0xFFFFFFFF),
    payload=st.binary(max_size=256),
)
def test_round_trip_random_frames(ftype, device, seq, payload):
    frame = encode_frame(ftype, device, seq, payload, KEY)
    decoded = decode_frame(frame, KEY)
    assert (decoded.frame_type, decoded.device_id, decoded.seq, decoded.payload) == (
        ftype, device, seq, payload,
    )


def test_empty_payload_frame_is_26_bytes():
    frame = encode_frame(FrameType.HELLO, 1, 1, b"", KEY)
    assert len(frame) == 26


def test_same_seq_different_payloads_distinct_ciphertexts():
    a = encode_frame(FrameType.DATA, 2, 7, b"payload-a", KEY)
    b = encode_frame(FrameType.DATA, 2, 7, b"payload-b", KEY)
    assert a != b
    assert decode_frame(a, KEY).payload == b"payload-a"
    assert decode_frame(b, KEY).payload == b"payload-b"


def test_any_single_bit_flip_is_rejected():
    import random

    rng = random.Random(1234)
    frame = bytearray(encode_frame(FrameType.DATA, 3, 40, b"sensitive-observation", KEY))
    for _ in range(100):
        bit = rng.randrange(len(frame) * 8)
        tampered = bytearray(frame)
        tampered[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises((AuthFailure, TruncatedFrame, VersionError)):
            decode_frame(bytes(tampered), KEY)


def test_truncated_frame_rejected():
    frame = encode_frame(FrameType.DATA, 3, 1, b"abc", KEY)
    with pytest.raises(TruncatedFrame):
        decode_frame(frame[:-1], KEY)
    with pytest.raises(TruncatedFrame):
        decode_frame(frame[:8], KEY)


def test_unknown_version_rejected():
    frame = bytearray(encode_frame(FrameType.DATA, 3, 1, b"abc", KEY))
    frame[0] = 2
    with pytest.raises(VersionError):
        decode_frame(bytes(frame), KEY)


def receive(frame: bytes, replay: ReplayWindow):
    """What a receiver does with a frame: verify and decrypt it, then replay-check its seq."""
    decoded = decode_frame(frame, KEY)
    replay.accept(decoded.direction, decoded.seq)
    return decoded


def test_replay_rejected_and_window_advances():
    replay = ReplayWindow()
    f1 = encode_frame(FrameType.DATA, 3, 1, b"a", KEY)
    f2 = encode_frame(FrameType.DATA, 3, 2, b"b", KEY)
    receive(f1, replay)
    receive(f2, replay)
    with pytest.raises(ReplayRejected):
        receive(f1, replay)
    with pytest.raises(ReplayRejected):
        receive(f2, replay)
    assert receive(encode_frame(FrameType.DATA, 3, 3, b"c", KEY), replay).seq == 3


def test_stale_seq_rejected_even_if_unseen():
    replay = ReplayWindow()
    receive(encode_frame(FrameType.DATA, 3, 10, b"a", KEY), replay)
    with pytest.raises(ReplayRejected):
        receive(encode_frame(FrameType.DATA, 3, 9, b"b", KEY), replay)


def test_payload_too_long():
    from openhealth.netproto import PayloadTooLong

    with pytest.raises(PayloadTooLong):
        encode_frame(FrameType.DATA, 1, 1, b"x" * 1025, KEY)


def test_bad_key_length():
    with pytest.raises(ValueError, match="16 bytes"):
        encode_frame(FrameType.DATA, 1, 1, b"", b"short")


def test_data_payload_round_trip():
    p = DataPayload(timestamp_ms=123456789, label_index=5, confidence=9876, app_id=AppId.HAR)
    assert DataPayload.unpack(p.pack()) == p
    assert len(p.pack()) == 12


def test_data_payload_validation():
    with pytest.raises(ValueError):
        DataPayload(0, 1, 10001, AppId.HAR)
    with pytest.raises(ValueError):
        DataPayload(0, 300, 0, AppId.GESTURE)


def test_sync_payload_codecs():
    assert unpack_sync_request(pack_sync_request(42)) == 42
    assert unpack_sync_reply(pack_sync_reply(1, 2, 3)) == (1, 2, 3)
    seq, data = unpack_ack(pack_ack(17, b"extra"))
    assert seq == 17 and data == b"extra"


def test_offset_estimate_symmetric_exact():
    # device clock = host + 500; symmetric 20 ms latency
    t1 = 1000 + 500
    t2 = 1000 + 20
    t3 = 1000 + 20
    t4 = 1000 + 40 + 500
    offset, rtt = estimate_offset(t1, t2, t3, t4)
    assert offset == -500.0  # host minus device
    assert rtt == 40


def test_offset_estimate_zero_case():
    offset, rtt = estimate_offset(0, 0, 0, 0)
    assert offset == 0.0 and rtt == 0


def test_offset_estimate_asymmetric_error_is_half_asymmetry():
    # true offset 0; 10 ms up, 30 ms down
    t1, t2, t3, t4 = 0, 10, 10, 40
    offset, _ = estimate_offset(t1, t2, t3, t4)
    assert offset == -10.0  # error is exactly (down-up)/2 = 10 ms


def gateway_with(devices=(1, 2)):
    return HostGateway({d: KEY for d in devices})


def data_frame(device, seq, ts, label=3, conf=9000):
    payload = DataPayload(ts, label, conf, AppId.HAR).pack()
    return encode_frame(FrameType.DATA, device, seq, payload, KEY)


def alert_frame(device, seq):
    return encode_frame(FrameType.ALERT, device, seq, DataPayload(777, 1, 10000, AppId.HAR).pack(), KEY)


def acked_seq(result):
    ack = decode_frame(result.ack, KEY)
    assert ack.frame_type is FrameType.ACK
    return unpack_ack(ack.payload)[0]


def test_data_frame_length_matches_encoded_frame():
    assert DATA_FRAME_LEN == len(data_frame(1, 1, 100)) == 38


def test_gateway_keeps_independent_sessions():
    gw = gateway_with()
    frames = [data_frame(1, 1, 100), data_frame(2, 1, 50), data_frame(1, 2, 200), data_frame(2, 2, 150)]
    results = [gw.step(0, frame) for frame in frames]
    # each device has its own replay window, so both seq 1s are accepted
    assert [(r.device_id, r.reject, r.frame.seq) for r in results] == [(1, None, 1), (2, None, 1), (1, None, 2), (2, None, 2)]
    observed = [(r.observation.device_id, r.observation.corrected_t_ms) for r in results]
    assert observed == [(1, 100), (2, 50), (1, 200), (2, 150)]


def test_gateway_stores_replayed_data_once():
    gw = gateway_with()
    frame = data_frame(1, 1, 100)
    assert gw.step(0, frame).observation is not None
    result = gw.step(10, frame)
    assert (result.device_id, result.reject) == (1, "replay")
    assert (result.observation, result.ack) == (None, None)


def test_gateway_applies_offset_correction():
    gw = gateway_with()
    # device reports its measured offset (host - device = -500)
    report = encode_frame(FrameType.TIME_SYNC, 1, 1, pack_sync_report(-500.0, 40), KEY)
    result = gw.step(0, report)
    assert (result.reject, result.ack, result.observation) == (None, None, None)
    uncorrected = 10_000
    assert gw.step(0, data_frame(1, 2, uncorrected)).observation.corrected_t_ms == uncorrected - 500
    assert gw.step(0, data_frame(2, 1, uncorrected)).observation.corrected_t_ms == uncorrected  # per device


def test_gateway_drops_unknown_device():
    gw = gateway_with(devices=(1,))
    result = gw.step(0, data_frame(9, 1, 100))
    assert (result.device_id, result.reject) == (9, "unknown_device")
    assert (result.frame, result.observation, result.ack) == (None, None, None)


def test_gateway_acks_and_notifies_alerts():
    gw = gateway_with()
    result = gw.step(123, alert_frame(1, 3))
    assert result.reject is None and result.frame.frame_type is FrameType.ALERT
    assert (result.notification.device_id, result.notification.seq, result.notification.label_index) == (1, 3, 1)
    assert acked_seq(result) == 3


def test_gateway_reacks_replayed_alert_without_duplicate_notification():
    gw = gateway_with()
    alert = alert_frame(1, 3)
    assert gw.step(0, alert).notification is not None
    result = gw.step(200, alert)  # retransmission of the same frame
    assert (result.reject, result.notification) == ("replay", None)
    assert acked_seq(result) == 3  # re-ACK so the sender can stop


def test_gateway_authenticates_a_replayed_alert_once(monkeypatch):
    from openhealth import netproto

    gw = gateway_with()
    alert = alert_frame(1, 3)
    gw.step(0, alert)
    calls = []
    real = netproto.decode_frame

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(netproto, "decode_frame", counted)
    result = gw.step(200, alert)
    assert calls == [alert]
    assert result.reject == "replay" and acked_seq(result) == 3


def test_gateway_sync_request_reply():
    gw = gateway_with()
    req = encode_frame(FrameType.TIME_SYNC, 1, 1, pack_sync_request(1234), KEY)
    result = gw.step(9999, req)
    assert result.reject is None
    ack = decode_frame(result.ack, KEY)
    acked, data = unpack_ack(ack.payload)
    assert acked == 1
    assert unpack_sync_reply(data) == (1234, 9999, 9999)  # t2 = t3 = the host time of the step


def test_gateway_host_seq_strictly_increases():
    gw = gateway_with()
    seqs = [peek_header(gw.step(0, alert_frame(1, i)).ack)[3] for i in range(1, 4)]
    assert seqs == sorted(seqs) and len(set(seqs)) == 3


@pytest.mark.parametrize(
    "ftype,payload",
    [
        (FrameType.DATA, b"\x01"),
        (FrameType.TIME_SYNC, b""),
        (FrameType.ALERT, DataPayload(777, 1, 10000, AppId.HAR).pack()[:-1] + b"\x09"),  # app_id 9
        (FrameType.DATA, DataPayload(777, 1, 10000, AppId.HAR).pack()[:9] + b"\xff\xff\x01"),  # confidence 65535
        (FrameType.TIME_SYNC, pack_sync_request(5)[:-1]),
        (FrameType.TIME_SYNC, pack_sync_report(float("nan"), 40)),
        (FrameType.TIME_SYNC, b"\x07" + bytes(12)),  # neither request nor report
    ],
)
def test_gateway_rejects_malformed_authenticated_payload(ftype, payload):
    gw = gateway_with()
    result = gw.step(0, encode_frame(ftype, 1, 1, payload, KEY))
    assert (result.device_id, result.reject) == (1, "bad_payload")
    assert (result.ack, result.observation, result.notification) == (None, None, None)
    assert gw.offsets[1] == 0.0 and gw.acked_alerts[1] == set()
    # the session goes on: the next well-formed frame is stored
    assert gw.step(0, data_frame(1, 2, 100)).observation is not None


@settings(max_examples=40, deadline=None)
@given(ftype=st.sampled_from(list(FrameType)), payload=st.binary(max_size=40), junk=st.binary(max_size=60))
def test_gateway_step_never_raises_on_authenticated_payloads(ftype, payload, junk):
    gw = gateway_with()
    assert isinstance(gw.step(0, junk).reject, str)  # unauthenticated bytes: rejected, never raised
    result = gw.step(0, encode_frame(ftype, 1, 1, payload, KEY))
    assert result.reject in (None, "bad_payload")
    # whatever a sync report set, later data frames still get a corrected time
    obs = gw.step(0, data_frame(1, 2, 100)).observation
    assert isinstance(obs.corrected_t_ms, int)


def test_observation_log_format(tmp_path):
    from openhealth.netproto import Observation

    path = tmp_path / "obs.csv"
    write_observation_log(
        [Observation(1, 1000, AppId.HAR, 5, 9500)], path
    )
    lines = path.read_text().splitlines()
    assert lines[0] == OBSERVATION_HEADER
    assert lines[1] == "1,1000,1,5,9500"
