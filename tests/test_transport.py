"""Transports: socket options, frame round trips, the buffered TCP reader, and
a handshake that fails fast."""

import socket
import struct
import threading
import time

import pytest

from packedhe.federated.transport import (ByteAccounting, QueueLink,
                                          TransportError, open_tcp_links)
from packedhe.federated.wire import SERVER_ID, MsgType, WireError, encode_frame

_real_create_connection = socket.create_connection
MAX_BODY = 1 << 20


@pytest.fixture
def tcp_links():
    server_links, party_links, acct = open_tcp_links(2, MAX_BODY)
    yield server_links, party_links, acct
    for link in server_links + party_links:
        link.close()


def test_tcp_links_set_nodelay_on_both_ends(tcp_links):
    server_links, party_links, _ = tcp_links
    for link in server_links + party_links:
        assert link.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


def test_frame_round_trip_same_bytes_on_both_transports(tcp_links):
    server_links, party_links, tcp_acct = tcp_links
    queue_acct = ByteAccounting()
    queue_link = QueueLink(1, queue_acct)
    # Large enough that the TCP reader reassembles the frame from many recvs.
    up = encode_frame(MsgType.GRADIENT, 3, 1, bytes(range(256)) * 400)
    down = encode_frame(MsgType.MODEL_BCAST, 3, SERVER_ID, b"\x00\xff" * 50000)
    for party, server in ((party_links[1], server_links[1]),
                          (queue_link, queue_link)):
        party.send(up)
        assert server.server_recv(10.0) == up
        server.server_send(down)
        assert party.recv(10.0) == down
    total = len(up) + len(down)
    assert tcp_acct.totals() == queue_acct.totals() == (total, total)
    assert tcp_acct.tx == queue_acct.tx == {"party-1": len(up),
                                            "server": len(down)}
    assert tcp_acct.rx == queue_acct.rx


def test_tcp_link_counts_each_frame_at_its_server_end(tcp_links):
    # A TCP party runs in its own process, so its end of the link counts
    # nothing; the server end counts a frame before sending it and after
    # reading it.
    server_links, party_links, acct = tcp_links
    up = encode_frame(MsgType.GRADIENT, 0, 0, b"u" * 30)
    party_links[0].send(up)
    assert acct.totals() == (0, 0)
    assert server_links[0].server_recv(10.0) == up
    assert (acct.tx, acct.rx) == ({"party-0": len(up)}, {"server": len(up)})
    down = encode_frame(MsgType.BOOTSTRAP_SHARE, 0, SERVER_ID, b"d" * 20)
    server_links[0].server_send(down)
    assert (acct.tx, acct.rx) == ({"party-0": len(up), "server": len(down)},
                                  {"server": len(up), "party-0": len(down)})
    assert party_links[0].recv(10.0) == down
    assert acct.totals() == (len(up) + len(down), len(up) + len(down))


def test_tcp_reader_refuses_an_oversized_frame_at_once(tcp_links):
    server_links, party_links, _ = tcp_links
    party_links[0].sock.sendall(struct.pack(">I", 2 ** 31) + bytes(64))
    # Reading the body would time out with a TransportError instead.
    with pytest.raises(WireError, match="limit is 1048576"):
        server_links[0].server_recv(10.0)


def test_frame_fed_one_byte_per_segment_is_reassembled(tcp_links):
    server_links, party_links, _ = tcp_links
    frame = encode_frame(MsgType.GRADIENT, 2, 0, bytes(range(40)))

    def dribble():
        for i in range(len(frame)):
            party_links[0].sock.sendall(frame[i:i + 1])
            time.sleep(0.001)
    writer = threading.Thread(target=dribble)
    writer.start()
    try:
        assert server_links[0].server_recv(10.0) == frame
    finally:
        writer.join(10.0)
    assert not writer.is_alive()


def test_two_frames_in_one_segment_come_back_in_order(tcp_links):
    server_links, party_links, _ = tcp_links
    first = encode_frame(MsgType.BOOTSTRAP_REQ, 1, 0, b"a" * 300)
    second = encode_frame(MsgType.GRADIENT, 1, 0, b"b" * 20)
    party_links[0].sock.sendall(first + second)
    assert server_links[0].server_recv(10.0) == first
    assert server_links[0].server_recv(10.0) == second


def test_close_in_mid_frame_raises_wire_error(tcp_links):
    server_links, party_links, _ = tcp_links
    frame = encode_frame(MsgType.GRADIENT, 0, 0, bytes(100))
    party_links[0].sock.sendall(frame[:-3])
    party_links[0].sock.shutdown(socket.SHUT_WR)
    with pytest.raises(WireError, match="closed mid-frame"):
        server_links[0].server_recv(10.0)


def test_oversized_prefix_is_refused_before_any_body_byte(tcp_links):
    server_links, party_links, _ = tcp_links
    party_links[0].sock.sendall(struct.pack(">I", MAX_BODY + 1))
    start = time.monotonic()
    with pytest.raises(WireError, match="limit is 1048576"):
        server_links[0].server_recv(10.0)
    assert time.monotonic() - start < 5.0


def test_arrived_frame_is_read_with_one_recv(tcp_links, monkeypatch):
    server_links, party_links, _ = tcp_links
    frame = encode_frame(MsgType.BOOTSTRAP_SHARE, 4, SERVER_ID, bytes(2048))
    server_links[1].server_send(frame)
    time.sleep(0.05)    # let the whole frame arrive before the read
    reads = []
    real = socket.socket.recv_into
    monkeypatch.setattr(socket.socket, "recv_into",
                        lambda sock, *a: reads.append(1) or real(sock, *a))
    assert party_links[1].recv(10.0) == frame
    assert len(reads) == 1


def test_link_sets_a_constant_timeout_once(tcp_links, monkeypatch):
    server_links, party_links, _ = tcp_links
    calls = []
    real = socket.socket.settimeout
    monkeypatch.setattr(socket.socket, "settimeout",
                        lambda sock, t: calls.append((sock, t)) or real(sock, t))
    frame = encode_frame(MsgType.GRADIENT, 0, 0, b"x" * 64)
    for _ in range(4):
        party_links[0].send(frame)
        assert server_links[0].server_recv(7.0) == frame
    assert calls == [(server_links[0].sock, 7.0)]
    party_links[0].send(frame)
    server_links[0].server_recv(8.0)
    assert calls[1:] == [(server_links[0].sock, 8.0)]


def _connect_after_sending(prefix: bytes):
    """A create_connection that writes ``prefix`` before the party's own id."""
    def create_connection(address, timeout=None):
        s = _real_create_connection(address, timeout=timeout)
        try:
            # The server may already have refused the other party's id and
            # closed its listener, resetting this connection.
            s.sendall(prefix)
        except OSError:
            s.close()
            raise
        return s
    return create_connection


@pytest.mark.parametrize("prefix", [struct.pack(">H", 2),
                                    struct.pack(">H", 0xFFFF)])
def test_handshake_rejects_out_of_range_id(monkeypatch, prefix):
    monkeypatch.setattr(socket, "create_connection",
                        _connect_after_sending(prefix))
    with pytest.raises(TransportError, match="outside range"):
        open_tcp_links(2, MAX_BODY, connect_timeout=5.0)


def test_handshake_rejects_duplicate_id(monkeypatch):
    monkeypatch.setattr(socket, "create_connection",
                        _connect_after_sending(struct.pack(">H", 0)))
    with pytest.raises(TransportError, match="connected twice"):
        open_tcp_links(2, MAX_BODY, connect_timeout=5.0)


def test_handshake_that_never_connects_times_out(monkeypatch):
    def create_connection(address, timeout=None):
        raise ConnectionRefusedError("party cannot reach the server")
    monkeypatch.setattr(socket, "create_connection", create_connection)
    with pytest.raises(TransportError, match="0 of 2 parties") as err:
        open_tcp_links(2, MAX_BODY, connect_timeout=0.2)
    assert isinstance(err.value.__cause__, ConnectionRefusedError)


def test_handshake_id_that_never_arrives_times_out(monkeypatch):
    silent = []

    def create_connection(address, timeout=None):
        # Connect, then die before naming a party id.
        silent.append(_real_create_connection(address, timeout=timeout))
        raise ConnectionResetError("party died mid-handshake")
    monkeypatch.setattr(socket, "create_connection", create_connection)
    try:
        with pytest.raises(TransportError, match="handshake failed"):
            open_tcp_links(2, MAX_BODY, connect_timeout=0.2)
    finally:
        for s in silent:
            s.close()


def test_handshake_closed_before_id_raises(monkeypatch):
    def create_connection(address, timeout=None):
        _real_create_connection(address, timeout=timeout).close()
        raise ConnectionResetError("party closed mid-handshake")
    monkeypatch.setattr(socket, "create_connection", create_connection)
    with pytest.raises(TransportError, match="handshake failed"):
        open_tcp_links(2, MAX_BODY, connect_timeout=5.0)
