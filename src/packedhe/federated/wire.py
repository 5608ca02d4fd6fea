"""Length-prefixed binary framing for protocol messages.

Frame layout (all integers big-endian):

    4 bytes   length of everything after this prefix
    1 byte    message type
    4 bytes   round number
    2 bytes   party id (0xFFFF for the server)
    payload   optional ciphertext: level and scale as IEEE-754 doubles,
              a 16-byte key tag, then the slot values as consecutive doubles;
              in a KEYSWITCH_SHARE, the 2-byte index of the request it answers

Unknown message types, length mismatches and ciphertexts with a level, scale
or slot that no real ciphertext has (a NaN or infinite slot, say) or a key
tag that is not UTF-8 are rejected at decode time.  A stream reader takes a
maximum body length and rejects a longer frame from its length prefix, before
it reads the body; ``max_frame_body`` gives the longest body the protocol
sends, a header plus one ciphertext.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ..engine import CryptoContext, SlotVector

SERVER_ID = 0xFFFF

_HEADER = struct.Struct(">BIH")
_CT_META = struct.Struct(">dd16s")
_SHARE_INDEX = struct.Struct(">H")


class MsgType(IntEnum):
    MODEL_BCAST = 1
    GRADIENT = 2
    BOOTSTRAP_REQ = 3
    BOOTSTRAP_SHARE = 4
    KEYSWITCH_REQ = 5
    KEYSWITCH_SHARE = 6
    DONE = 7


class WireError(ValueError):
    """Malformed or unrecognized frame."""


@dataclass(frozen=True)
class Frame:
    msg_type: MsgType
    round: int
    party_id: int
    payload: bytes


def encode_frame(msg_type: MsgType, round_no: int, party_id: int,
                 payload: bytes = b"") -> bytes:
    body = _HEADER.pack(int(msg_type), round_no, party_id) + payload
    return struct.pack(">I", len(body)) + body


def decode_frame(data: bytes) -> Frame:
    if len(data) < 4:
        raise WireError("frame shorter than its length prefix")
    (length,) = struct.unpack_from(">I", data)
    body = data[4:]
    if len(body) != length:
        raise WireError(f"declared length {length} != body length {len(body)}")
    if length < _HEADER.size:
        raise WireError("frame body shorter than the fixed header")
    type_byte, round_no, party_id = _HEADER.unpack_from(body)
    try:
        msg_type = MsgType(type_byte)
    except ValueError:
        raise WireError(f"unknown message type {type_byte}") from None
    return Frame(msg_type, round_no, party_id, body[_HEADER.size:])


def encode_ciphertext(ct: SlotVector) -> bytes:
    tag = ct.key_tag.encode("utf-8")
    if len(tag) > 16:
        raise WireError(f"key tag {ct.key_tag!r} exceeds 16 bytes")
    meta = _CT_META.pack(float(ct.level), float(ct.scale), tag.ljust(16, b"\0"))
    return meta + ct.slots.astype(">f8").tobytes()


def decode_ciphertext(payload: bytes, ctx: CryptoContext) -> SlotVector:
    if len(payload) < _CT_META.size:
        raise WireError("ciphertext payload shorter than its metadata block")
    level, scale, tag = _CT_META.unpack_from(payload)
    slots = np.frombuffer(payload[_CT_META.size:], dtype=">f8").astype(np.float64)
    if slots.size != ctx.slot_count:
        raise WireError(
            f"payload carries {slots.size} slots, context expects {ctx.slot_count}")
    if not (level.is_integer() and 0 <= level <= ctx.initial_level):
        raise WireError(
            f"ciphertext level {level} is not an integer in "
            f"[0, {ctx.initial_level}]")
    if not 0 < scale < math.inf:
        raise WireError(f"ciphertext scale {scale} is not finite and positive")
    if not np.isfinite(slots).all():
        raise WireError("ciphertext carries a non-finite slot")
    try:
        key_tag = tag.rstrip(b"\0").decode("utf-8")
    except UnicodeDecodeError:
        raise WireError(f"ciphertext key tag {tag!r} is not UTF-8") from None
    slots.setflags(write=False)
    return SlotVector(slots, int(level), scale, ctx.context_id, key_tag)


def encode_share_index(index: int) -> bytes:
    return _SHARE_INDEX.pack(index)


def decode_share_index(payload: bytes) -> int:
    if len(payload) != _SHARE_INDEX.size:
        raise WireError(f"key-switch share payload of {len(payload)} bytes, "
                        f"expected {_SHARE_INDEX.size}")
    return _SHARE_INDEX.unpack(payload)[0]


def read_exact(recv_fn, count: int) -> bytes:
    """Accumulate exactly ``count`` bytes from a recv-like callable."""
    buf = bytearray()
    while len(buf) < count:
        chunk = recv_fn(count - len(buf))
        if not chunk:
            raise WireError("connection closed mid-frame")
        buf.extend(chunk)
    return bytes(buf)


def max_frame_body(slot_count: int) -> int:
    """Body length of a frame carrying one ``slot_count``-slot ciphertext."""
    return _HEADER.size + _CT_META.size + 8 * slot_count


def read_frame_from(recv_fn, max_body: int) -> bytes:
    """Read one full frame (prefix included) from a recv-like callable.

    Raises ``WireError`` as soon as the prefix declares a body longer than
    ``max_body``, without reading the body.
    """
    prefix = read_exact(recv_fn, 4)
    (length,) = struct.unpack(">I", prefix)
    if length > max_body:
        raise WireError(
            f"frame declares a {length}-byte body; the limit is {max_body}")
    return prefix + read_exact(recv_fn, length)
