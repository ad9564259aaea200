"""Frames, byte ledger, and transports.

Every protocol message is a length-prefixed frame: payload length (32-bit
little-endian), opcode (16-bit), layer tag (32-bit), then the payload as
raw bytes (ring elements travel as 64-bit little-endian words).  The
engine derives a frame's layer tag from the name of the layer it serves:
the layer's index in the plan, or ``SESSION_TAG`` for the session's
frames.  A
payload may be any C-contiguous buffer, an ndarray of words included; it
is sent as it is, without a copy, so the sender must never write it again
after the send (in process the peer reads that very memory).  The
ledger counts payload bytes only; the 10 header bytes per frame are
deliberately excluded so that measured traffic stays exactly proportional
to the protocol's element counts.  Nothing on the online path hashes a
frame: tests that pin a session's transcript wrap each party's transport
in a ``TranscriptRecorder``, which digests the encoded frames it sends.

Protocol version 5 (version 4's hello added a 16-byte share seed); opcodes:
  1 hello, 44 bytes: version (2), bit-width, scale (1 each), graph hash
    (32), seed commitment (8)
  2 open-masked-values: Beaver differences and masked values
  3 open-bool: the masked digit bits of a merge round, or the f and v
    words of every comparison gate
  4 open-output: one way
  5 sync: empty, ends the session            6 abort: a UTF-8 reason

To keep plain blocking sockets deadlock-free, the engine fixes the I/O
order per exchange: the model owner writes first and then reads, the
client reads first and then writes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import queue
import socket
import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import TransportError

PROTOCOL_VERSION = 5

OP_HELLO = 1
OP_OPEN_MASKED = 2
OP_OPEN_BOOL = 3
OP_OPEN_OUTPUT = 4
OP_SYNC = 5
OP_ABORT = 6

SESSION_TAG = 0xFFFFFFFF  # layer tag for session-level frames
QUEUE_TIMEOUT = 600.0  # seconds an in-process party waits for its peer's frame

_HEADER = struct.Struct("<IHI")


@dataclass(frozen=True)
class Frame:
    """One message; a payload buffer is kept as a read-only byte view."""

    opcode: int
    layer_tag: int
    payload: bytes

    def __post_init__(self):
        if not isinstance(self.payload, (bytes, bytearray)):
            object.__setattr__(self, "payload",
                               memoryview(self.payload).toreadonly().cast("B"))

    def header(self) -> bytes:
        return _HEADER.pack(len(self.payload), self.opcode, self.layer_tag)


def decode_frame(header: bytes, payload: bytes) -> Frame:
    length, opcode, layer_tag = _HEADER.unpack(header)
    if length != len(payload):
        raise TransportError("frame length mismatch")
    return Frame(opcode, layer_tag, payload)


HEADER_SIZE = _HEADER.size


# -- ledger ----------------------------------------------------------------------


@dataclass
class LedgerEntry:
    bytes_sent: int = 0
    bytes_recv: int = 0
    rounds: int = 0


class CommLedger:
    """Per-(layer, op-kind) payload byte and round accounting."""

    def __init__(self):
        self.entries: dict = {}

    def _entry(self, layer: str, op: str) -> LedgerEntry:
        entry = self.entries.get((layer, op))
        if entry is None:
            entry = self.entries[layer, op] = LedgerEntry()
        return entry

    def record_send(self, layer: str, op: str, nbytes: int) -> None:
        self._entry(layer, op).bytes_sent += nbytes

    def record_recv(self, layer: str, op: str, nbytes: int) -> None:
        self._entry(layer, op).bytes_recv += nbytes

    def bump_round(self, layer: str, op: str) -> None:
        self._entry(layer, op).rounds += 1

    def note_local(self, layer: str, op: str) -> None:
        """Record a communication-free step as an explicit zero-byte row."""
        self._entry(layer, op)

    def bytes_for(self, op: str) -> int:
        """Payload bytes sent under one op kind, summed over layers."""
        return sum(e.bytes_sent for (_, o), e in self.entries.items() if o == op)

    @property
    def total_sent(self) -> int:
        return sum(e.bytes_sent for e in self.entries.values())

    def rows(self) -> list:
        out = []
        for (layer, op), e in sorted(self.entries.items()):
            out.append({"layer": layer, "op": op, "bytes_sent": e.bytes_sent,
                        "bytes_recv": e.bytes_recv, "rounds": e.rounds})
        return out

    def to_csv(self, path=None) -> str:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=("layer", "op", "bytes_sent",
                                            "bytes_recv", "rounds"))
        w.writeheader()
        for row in self.rows():
            w.writerow(row)
        text = buf.getvalue()
        if path:
            with open(path, "w") as f:
                f.write(text)
        return text


def ledgers_mirror(a: CommLedger, b: CommLedger) -> bool:
    """True when every tagged byte one party sent, the other received."""
    keys = set(a.entries) | set(b.entries)
    for k in keys:
        ea = a.entries.get(k, LedgerEntry())
        eb = b.entries.get(k, LedgerEntry())
        if ea.bytes_sent != eb.bytes_recv or eb.bytes_sent != ea.bytes_recv:
            return False
    return True


# -- transports ------------------------------------------------------------------


class Transport:
    def send(self, frame: Frame) -> None:
        raise NotImplementedError

    def recv(self) -> Frame:
        raise NotImplementedError

    def close(self) -> None:
        pass


class QueueTransport(Transport):
    """In-process duplex endpoint; frames are handed over as they are.

    The peer receives the sender's frame object, its payload a read-only
    view of the sender's buffer, with no encoding and no copy; byte framing
    is the socket's concern.
    """

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        self.inbox = inbox
        self.outbox = outbox

    @classmethod
    def pair(cls) -> tuple:
        q01, q10 = queue.Queue(), queue.Queue()
        return cls(q10, q01), cls(q01, q10)

    def send(self, frame: Frame) -> None:
        self.outbox.put(frame)

    def recv(self) -> Frame:
        try:
            return self.inbox.get(timeout=QUEUE_TIMEOUT)
        except queue.Empty:
            raise TransportError(f"peer went silent for {QUEUE_TIMEOUT:g} s") from None


class SocketTransport(Transport):
    """Frames over a stream socket.

    Every payload is received into the transport's one buffer, which a
    larger frame replaces (an exported buffer is never resized); so a
    received payload is valid until the next receive, and each reader is
    done with it by then.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._header = bytearray(HEADER_SIZE)
        self._buf = np.empty(0, np.uint8)

    def send(self, frame: Frame) -> None:
        """The header, then the payload from its own buffer: no joined copy."""
        try:
            self.sock.sendall(frame.header())
            self.sock.sendall(frame.payload)
        except OSError as e:
            raise TransportError(f"send failed: {e}") from e

    def _read_into(self, buf, starts_frame: bool):
        """Fill ``buf``; a close before its first byte is a clean one when
        ``buf`` starts a frame."""
        view = memoryview(buf)
        while view:
            try:
                n = self.sock.recv_into(view)
            except OSError as e:
                raise TransportError(f"recv failed: {e}") from e
            if not n:
                raise TransportError(
                    "peer closed the connection" if starts_frame and len(view) == len(buf)
                    else "peer disconnected mid-frame")
            view = view[n:]
        return buf

    def recv(self) -> Frame:
        """The next frame; its payload is a view of the receive buffer."""
        header = self._read_into(self._header, True)
        length = struct.unpack_from("<I", header)[0]
        if length > len(self._buf):
            # numpy backs a large array with huge pages: few page faults
            self._buf = np.empty(length, np.uint8)
        return decode_frame(header, self._read_into(memoryview(self._buf)[:length], False))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class TranscriptRecorder(Transport):
    """A transport that keeps a running SHA-256 of the frames it sends.

    It forwards every frame to and from ``inner``; a test wraps both
    parties' transports in one each to pin a session's transcript.  Only
    sends are digested: what a party receives is its peer's sent stream,
    which the peer's recorder digests, so each byte is hashed once.
    """

    def __init__(self, inner: Transport):
        self.inner = inner
        self._sent = hashlib.sha256()

    def send(self, frame: Frame) -> None:
        self.inner.send(frame)
        self.on_send(frame)

    def recv(self) -> Frame:
        return self.inner.recv()

    def close(self) -> None:
        self.inner.close()

    def on_send(self, frame: Frame) -> None:
        self._sent.update(frame.header())
        self._sent.update(frame.payload)

    def on_recv(self, frame: Frame) -> None:
        pass  # hashes nothing; perfbench/spans.py wraps this method by name

    @property
    def sent_digest(self) -> str:
        return self._sent.hexdigest()
