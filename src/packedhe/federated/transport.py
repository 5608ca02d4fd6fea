"""Party/server message transports: in-process queues and localhost TCP.

Both transports move the identical frame stream, so trajectories and byte
accounting match between them.  An in-process party runs on a thread of the
server's process, and a TCP party in a process of its own (see
``protocol.run_training``); the transports differ only in how bytes travel.

A queue link carries the party's frames to the server without a queue or a
thread of the server's: once the server has attached its handler, ``send``
calls it on the party's own thread, and ``close`` tells it the link closed.
Frames to the party still travel on a queue, which the party reads.  A TCP
link has no handler; a reader thread of the server's reads its frames.

Each frame is counted once, by whichever process can see it.  A queue link
counts a frame when either end sends it.  A TCP link counts
every frame at its server end: before it sends one, and after it has read
one, before it returns it.  Its party end counts nothing, so a party in
another process need not report bytes, and the server's totals at any point
hold every frame it has sent or read.

Each frame is one ``sendall``.  Both ends of every TCP socket set
``TCP_NODELAY``: the protocol writes several small frames back to back (one
MODEL_BCAST, GRADIENT or KEYSWITCH_REQ per layer) and then reads the reply.
That write-write-read pattern is what Nagle's algorithm and the peer's
delayed ACK stall: the second write waits for the ACK of the first, which the
peer holds back for up to about 40 ms on Linux.

A TCP link reads through a buffer of its own: one ``recv_into`` takes
whatever has arrived, usually a whole frame and sometimes several, and
``wire.read_frame_from`` takes the prefix and the body from that buffer.  The
reader still refuses a frame whose length prefix exceeds the link's maximum
body length before it waits for the body.  A link calls ``settimeout`` only
when the timeout it is asked for changes.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading

from .wire import WireError, read_exact, read_frame_from


class TransportError(RuntimeError):
    pass


class ByteAccounting:
    """Thread-safe tally of frame bytes moved, split by node."""

    def __init__(self):
        self._lock = threading.Lock()
        self.tx: dict = {}
        self.rx: dict = {}

    def count(self, sender: str, receiver: str, nbytes: int) -> None:
        with self._lock:
            self.tx[sender] = self.tx.get(sender, 0) + nbytes
            self.rx[receiver] = self.rx.get(receiver, 0) + nbytes

    def totals(self) -> tuple[int, int]:
        with self._lock:
            return sum(self.tx.values()), sum(self.rx.values())


_CLOSED = object()
_RECV_BYTES = 1 << 16   # per-link read buffer; holds a whole frame up to h = 64


class QueueLink:
    """One party's duplex in-process channel."""

    def __init__(self, party_id: int, accounting: ByteAccounting):
        self.party_id = party_id
        self.accounting = accounting
        self._to_party: queue.Queue = queue.Queue()
        self._to_server: queue.Queue = queue.Queue()
        self._handler = None

    def attach(self, handler) -> None:
        """Serve the party's frames with ``handler`` on the sending thread.

        ``send`` hands each frame to ``handler(frame)`` in place of the
        queue, and ``close`` calls ``handler(None)``.  The link detaches the
        handler once it returns False, and at ``close``; frames sent after
        that wait on the queue, unread unless ``server_recv`` reads them.
        """
        self._handler = handler

    def _take(self, q: queue.Queue, waiter: str, timeout):
        try:
            frame = q.get(timeout=timeout)
        except queue.Empty:
            raise TransportError(f"{waiter} timed out on the channel") from None
        if frame is _CLOSED:
            raise TransportError(f"channel to {waiter} closed")
        return frame

    # party side
    def send(self, frame: bytes) -> None:
        self.accounting.count(f"party-{self.party_id}", "server", len(frame))
        handler = self._handler
        if handler is None:
            self._to_server.put(frame)
        elif not handler(frame):
            self._handler = None

    def recv(self, timeout: float | None = None) -> bytes:
        return self._take(self._to_party, f"party-{self.party_id}", timeout)

    # server side
    def server_send(self, frame: bytes) -> None:
        self.accounting.count("server", f"party-{self.party_id}", len(frame))
        self._to_party.put(frame)

    def server_recv(self, timeout: float | None = None) -> bytes:
        return self._take(self._to_server, "server", timeout)

    def close(self) -> None:
        # Unblock any thread parked on either direction, and tell the
        # server's handler; detaching it drops the handler's hold on the
        # server.
        self._to_party.put(_CLOSED)
        self._to_server.put(_CLOSED)
        handler, self._handler = self._handler, None
        if handler is not None:
            handler(None)


class _RecvBuffer:
    """A recv-like callable that serves a socket's bytes from one buffer.

    It reads from the socket only when the buffer is empty, and then takes
    everything that has arrived, up to the buffer's size.  A call returns at
    most ``count`` bytes, and ``b""`` once the peer has closed.
    """

    def __init__(self, sock: socket.socket, size: int = _RECV_BYTES):
        self._sock = sock
        self._view = memoryview(bytearray(size))
        self._start = self._end = 0

    def __call__(self, count: int) -> bytes:
        if self._start == self._end:
            self._start, self._end = 0, self._sock.recv_into(self._view)
        stop = min(self._start + count, self._end)
        chunk = bytes(self._view[self._start:stop])
        self._start = stop
        return chunk


class SocketLink:
    """One party's duplex TCP channel (either endpoint).

    ``max_body`` bounds the body of every frame it reads.  Only the server
    end counts frames; see the module docstring.
    """

    def __init__(self, sock: socket.socket, party_id: int, side: str,
                 accounting: ByteAccounting, max_body: int):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.party_id = party_id
        self.side = side  # "party" or "server"
        self.accounting = accounting
        self.max_body = max_body
        self._party = f"party-{party_id}"
        self._send_lock = threading.Lock()
        self._reader = _RecvBuffer(sock)
        self._timeout = sock.gettimeout()

    def _send(self, frame: bytes) -> None:
        with self._send_lock:
            self.sock.sendall(frame)

    def _recv(self, timeout: float | None = None) -> bytes:
        if timeout != self._timeout:
            self.sock.settimeout(timeout)
            self._timeout = timeout
        try:
            return read_frame_from(self._reader, self.max_body)
        except socket.timeout:
            me = self._party if self.side == "party" else "server"
            raise TransportError(f"{me} timed out on the wire") from None
        except WireError:
            raise
        except OSError as exc:
            raise TransportError(f"socket failure: {exc}") from None

    # party side
    def send(self, frame: bytes) -> None:
        self._send(frame)

    def recv(self, timeout: float | None = None) -> bytes:
        return self._recv(timeout)

    # server side
    def server_send(self, frame: bytes) -> None:
        # Count before the write, so a frame the party has seen is counted.
        self.accounting.count("server", self._party, len(frame))
        self._send(frame)

    def server_recv(self, timeout: float | None = None) -> bytes:
        frame = self._recv(timeout)
        self.accounting.count(self._party, "server", len(frame))
        return frame

    def close(self) -> None:
        """Shut the connection down and close this descriptor."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def open_in_process_links(party_count: int):
    """(server_links, party_links, accounting); one queue pair per party
    serves as both ends."""
    acct = ByteAccounting()
    links = [QueueLink(p, acct) for p in range(party_count)]
    return links, links, acct


def open_tcp_links(party_count: int, max_body: int, host: str = "127.0.0.1",
                   connect_timeout: float = 10.0):
    """Listen on an ephemeral port and connect one socket pair per party.

    Returns (server_links, party_links, accounting): server_links are the
    server-side endpoints indexed by party id, party_links the party
    endpoints.  Every link reads frames of at most ``max_body`` body bytes.
    Each party names itself with a 2-byte id.  Raises ``TransportError`` when
    a party does not connect and name itself within ``connect_timeout``, or
    names an id that is out of range or already taken.  The listener is
    closed once every party has connected, or on the first failure.
    """
    acct = ByteAccounting()
    listener = socket.create_server((host, 0))
    listener.settimeout(connect_timeout)
    port = listener.getsockname()[1]

    party_socks: dict = {}
    server_socks: dict = {}
    accepted: list = []
    connect_errors: list = []

    def _connect(pid: int):
        try:
            s = socket.create_connection((host, port), timeout=connect_timeout)
            party_socks[pid] = s
            s.sendall(struct.pack(">H", pid))
        except OSError as exc:
            connect_errors.append(exc)

    threads = [threading.Thread(target=_connect, args=(p,)) for p in range(party_count)]
    for t in threads:
        t.start()
    try:
        for _ in range(party_count):
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                cause = connect_errors[0] if connect_errors else None
                raise TransportError(
                    f"only {len(server_socks)} of {party_count} parties "
                    f"connected within {connect_timeout} s") from cause
            accepted.append(conn)
            conn.settimeout(connect_timeout)
            try:
                (pid,) = struct.unpack(">H", read_exact(conn.recv, 2))
            except (WireError, OSError) as exc:
                raise TransportError(f"party handshake failed: {exc}") from exc
            if not 0 <= pid < party_count:
                raise TransportError(
                    f"handshake names party {pid}, outside range({party_count})")
            if pid in server_socks:
                raise TransportError(f"party {pid} connected twice")
            server_socks[pid] = conn
    except BaseException:
        listener.close()
        for t in threads:
            t.join(connect_timeout)
        for s in accepted + list(party_socks.values()):
            s.close()
        raise
    listener.close()
    for t in threads:
        t.join()

    server_links = [SocketLink(server_socks[p], p, "server", acct, max_body)
                    for p in range(party_count)]
    party_links = [SocketLink(party_socks[p], p, "party", acct, max_body)
                   for p in range(party_count)]
    return server_links, party_links, acct
