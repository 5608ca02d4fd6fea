"""Transports: socket options, frame round trips, and a handshake that fails fast."""

import socket
import struct

import pytest

from packedhe.federated.transport import (ByteAccounting, QueueLink,
                                          TransportError, open_tcp_links)
from packedhe.federated.wire import SERVER_ID, MsgType, WireError, encode_frame

_real_create_connection = socket.create_connection
MAX_BODY = 1 << 20


@pytest.fixture
def tcp_links():
    server_links, party_links, acct, listener = open_tcp_links(2, MAX_BODY)
    yield server_links, party_links, acct
    for link in server_links + party_links:
        link.close()
    listener.close()


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


def test_tcp_reader_refuses_an_oversized_frame_at_once(tcp_links):
    server_links, party_links, _ = tcp_links
    party_links[0].sock.sendall(struct.pack(">I", 2 ** 31) + bytes(64))
    # Reading the body would time out with a TransportError instead.
    with pytest.raises(WireError, match="limit is 1048576"):
        server_links[0].server_recv(10.0)


def _connect_after_sending(prefix: bytes):
    """A create_connection that writes ``prefix`` before the party's own id."""
    def create_connection(address, timeout=None):
        s = _real_create_connection(address, timeout=timeout)
        s.sendall(prefix)
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
