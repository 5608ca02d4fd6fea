"""Wire framing: byte layout, round trips, malformed input."""

import struct

import numpy as np
import pytest

from packedhe import engine
from packedhe.federated.wire import (MsgType, WireError, decode_ciphertext,
                                     decode_frame, encode_ciphertext,
                                     encode_frame, max_frame_body,
                                     read_frame_from)


def test_frame_byte_layout():
    frame = encode_frame(MsgType.GRADIENT, 7, 3, b"\xAA\xBB")
    # 4-byte length | 1-byte type | 4-byte round | 2-byte party | payload
    assert frame[:4] == struct.pack(">I", 1 + 4 + 2 + 2)
    assert frame[4] == 2
    assert frame[5:9] == struct.pack(">I", 7)
    assert frame[9:11] == struct.pack(">H", 3)
    assert frame[11:] == b"\xAA\xBB"


def test_frame_round_trip():
    for mt in MsgType:
        frame = encode_frame(mt, 12, 1, b"xyz")
        out = decode_frame(frame)
        assert (out.msg_type, out.round, out.party_id, out.payload) == \
            (mt, 12, 1, b"xyz")


def test_unknown_message_type_rejected():
    frame = bytearray(encode_frame(MsgType.DONE, 0, 0))
    frame[4] = 99
    with pytest.raises(WireError):
        decode_frame(bytes(frame))


def test_length_mismatch_rejected():
    frame = encode_frame(MsgType.DONE, 0, 0) + b"extra"
    with pytest.raises(WireError):
        decode_frame(frame)
    with pytest.raises(WireError):
        decode_frame(encode_frame(MsgType.DONE, 0, 0)[:-1])


def test_ciphertext_payload_layout():
    ctx = engine.new_context(8, initial_level=4, party_count=1)
    ct = ctx.encrypt(ctx.encode([1.5, -2.0, 3.25, 0.0]))
    payload = encode_ciphertext(ct)
    level, scale = struct.unpack_from(">dd", payload)
    assert level == 4.0 and scale == ct.scale
    tag = payload[16:32]
    assert tag == b"pk" + b"\0" * 14
    slots = np.frombuffer(payload[32:], dtype=">f8")
    assert slots.tolist() == [1.5, -2.0, 3.25, 0.0]


def test_ciphertext_round_trip_bit_exact():
    ctx = engine.new_context(64, party_count=2)
    rng = np.random.default_rng(0)
    values = rng.standard_normal(ctx.slot_count)
    ct = ctx.rescale(ctx.encrypt(ctx.encode(values)))
    back = decode_ciphertext(encode_ciphertext(ct), ctx)
    assert np.array_equal(back.slots, ct.slots)
    assert (back.level, back.scale, back.key_tag) == (ct.level, ct.scale,
                                                      ct.key_tag)


def test_ciphertext_slot_count_checked():
    ctx_small = engine.new_context(8)
    ctx_big = engine.new_context(64)
    ct = ctx_small.encrypt(ctx_small.encode([1.0]))
    with pytest.raises(WireError):
        decode_ciphertext(encode_ciphertext(ct), ctx_big)


def _ct_payload(level, scale, ctx):
    meta = struct.pack(">dd16s", level, scale, b"pk".ljust(16, b"\0"))
    return meta + np.zeros(ctx.slot_count).astype(">f8").tobytes()


@pytest.mark.parametrize("level", [2.7, float("nan"), float("inf"), -1.0, 5.0])
def test_ciphertext_bad_level_rejected(level):
    ctx = engine.new_context(8, initial_level=4)
    with pytest.raises(WireError):
        decode_ciphertext(_ct_payload(level, 2.0 ** 40, ctx), ctx)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -2.0 ** 40])
def test_ciphertext_bad_scale_rejected(scale):
    ctx = engine.new_context(8, initial_level=4)
    with pytest.raises(WireError):
        decode_ciphertext(_ct_payload(4.0, scale, ctx), ctx)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_ciphertext_non_finite_slot_rejected(bad):
    ctx = engine.new_context(8, initial_level=4)
    payload = bytearray(_ct_payload(4.0, 2.0 ** 40, ctx))
    struct.pack_into(">d", payload, len(payload) - 16, bad)  # slot 2 of 4
    with pytest.raises(WireError, match="non-finite"):
        decode_ciphertext(bytes(payload), ctx)


@pytest.mark.parametrize("level", [0.0, 4.0])
def test_ciphertext_level_range_inclusive(level):
    ctx = engine.new_context(8, initial_level=4)
    ct = decode_ciphertext(_ct_payload(level, 2.0 ** 40, ctx), ctx)
    assert ct.level == int(level)


def test_read_frame_from_stream():
    frames = [encode_frame(MsgType.MODEL_BCAST, r, 0, b"p" * r)
              for r in range(3)]
    stream = b"".join(frames)
    pos = 0

    def recv(n):
        nonlocal pos
        chunk = stream[pos: pos + min(n, 3)]  # dribble bytes
        pos += len(chunk)
        return chunk

    for expect in frames:
        assert read_frame_from(recv, 1 << 20) == expect


def test_truncated_stream_detected():
    frame = encode_frame(MsgType.DONE, 0, 0)[:-1]
    pos = 0

    def recv(n):
        nonlocal pos
        chunk = frame[pos: pos + n]
        pos += len(chunk)
        return chunk

    with pytest.raises(WireError):
        read_frame_from(recv, 1 << 20)


def _stream(data: bytes):
    """A recv-like callable over ``data`` that fails if read past its end."""
    pos = 0

    def recv(n):
        nonlocal pos
        assert pos < len(data), "read past the end of the stream"
        chunk = data[pos: pos + n]
        pos += len(chunk)
        return chunk
    return recv


def test_oversized_length_fails_before_the_body_is_read():
    with pytest.raises(WireError, match="2147483648-byte body"):
        read_frame_from(_stream(struct.pack(">I", 2 ** 31)), 1 << 20)


def test_ciphertext_frame_at_the_limit_passes():
    ctx = engine.new_context(64)
    ct = ctx.encrypt(ctx.encode(np.arange(ctx.slot_count, dtype=float)))
    frame = encode_frame(MsgType.GRADIENT, 1, 0, encode_ciphertext(ct))
    limit = max_frame_body(ctx.slot_count)
    assert len(frame) - 4 == limit
    assert read_frame_from(_stream(frame), limit) == frame
    with pytest.raises(WireError):
        read_frame_from(_stream(frame), limit - 1)
