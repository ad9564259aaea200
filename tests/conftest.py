"""Shared fixtures."""

import os
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def child_kwargs():
    """``subprocess`` keyword arguments for ``python -m xconv2pc`` children.

    The child starts in the repo root with ``<root>/src`` ahead of the
    inherited ``PYTHONPATH``, so it imports this checkout's package whichever
    directory pytest was started from and whether or not it is installed.
    """
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {"cwd": REPO_ROOT,
            "env": dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))}


@pytest.fixture()
def transcripts(monkeypatch):
    """Transcript recorders around every in-process session the test runs.

    Wraps both ends of each ``QueueTransport.pair`` in a
    ``TranscriptRecorder`` and returns the list of (client, model)
    recorders, one per pair, in the order the pairs were made.
    """
    from xconv2pc.runtime.wire import QueueTransport, TranscriptRecorder

    pair = QueueTransport.pair
    sessions = []

    def recorded_pair():
        model, client = (TranscriptRecorder(t) for t in pair())
        sessions.append((client, model))
        return model, client

    monkeypatch.setattr(QueueTransport, "pair", staticmethod(recorded_pair))
    return sessions


@pytest.fixture()
def reused_receive_buffers(monkeypatch):
    """In-process sessions whose received payloads live as long as a socket's.

    Wraps both ends of each ``QueueTransport.pair`` in a transport that
    hands every received payload over in a buffer of its own and overwrites
    that buffer at the next receive, as ``SocketTransport`` reuses its one
    receive buffer.  A reader that keeps a payload past the next receive
    then reads garbage, in process as over TCP.
    """
    from xconv2pc.runtime.wire import Frame, QueueTransport, Transport

    class OneBuffer(Transport):
        def __init__(self, inner):
            self.inner, self.last = inner, bytearray()

        def send(self, frame):
            self.inner.send(frame)

        def recv(self):
            self.last[:] = b"\xa5" * len(self.last)
            frame = self.inner.recv()
            self.last = bytearray(frame.payload)
            return Frame(frame.opcode, frame.layer_tag, self.last)

        def close(self):
            self.inner.close()

    pair = QueueTransport.pair
    monkeypatch.setattr(QueueTransport, "pair",
                        staticmethod(lambda: tuple(OneBuffer(t) for t in pair())))
