"""Frames, ledger accounting, transports, and graph file I/O."""

import hashlib
import socket
import threading

import numpy as np
import pytest

from xconv2pc.errors import ParseError, TransportError
from xconv2pc.graph import CellVariant, GraphBuilder, INPUT
from xconv2pc.graphio import graph_to_doc, doc_to_graph, load_graph, save_graph
from xconv2pc.runtime.wire import (
    CommLedger,
    Frame,
    HEADER_SIZE,
    OP_OPEN_MASKED,
    QueueTransport,
    SocketTransport,
    TranscriptRecorder,
    decode_frame,
    ledgers_mirror,
)
from xconv2pc.zoo import model_zoo


def test_frame_roundtrip():
    f = Frame(OP_OPEN_MASKED, 7, b"\x01\x02\x03")
    raw = f.header() + bytes(f.payload)
    assert len(raw) == HEADER_SIZE + 3
    back = decode_frame(raw[:HEADER_SIZE], raw[HEADER_SIZE:])
    assert back == f


def test_frame_length_mismatch_rejected():
    f = Frame(OP_OPEN_MASKED, 7, b"abcd")
    raw = f.header() + bytes(f.payload)
    with pytest.raises(TransportError):
        decode_frame(raw[:HEADER_SIZE], raw[HEADER_SIZE:-1])


def test_transcript_digest_equals_hash_of_encoded_frames():
    frames = [Frame(OP_OPEN_MASKED, 3, bytes(range(40))),
              Frame(1, 0xFFFFFFFF, b""),
              Frame(7, 9, b"\x5a" * 1000)]
    sender, receiver = (TranscriptRecorder(t) for t in QueueTransport.pair())
    for f in frames:
        sender.send(f)
        assert receiver.recv() == f
    want = hashlib.sha256(b"".join(f.header() + bytes(f.payload) for f in frames)).hexdigest()
    assert sender.sent_digest == want
    assert receiver.sent_digest == hashlib.sha256().hexdigest()


def test_queue_transport_pair():
    a, b = QueueTransport.pair()
    a.send(Frame(1, 2, b"x"))
    assert b.recv() == Frame(1, 2, b"x")
    b.send(Frame(3, 4, b"yy"))
    assert a.recv() == Frame(3, 4, b"yy")


def test_socket_transport_roundtrip():
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    port = srv.getsockname()[1]
    got = {}

    def server():
        conn, _ = srv.accept()
        t = SocketTransport(conn)
        got["frame"] = t.recv()
        t.send(Frame(9, 1, b"pong"))
        t.close()

    th = threading.Thread(target=server, daemon=True)
    th.start()
    cli = SocketTransport(socket.create_connection(("127.0.0.1", port)))
    cli.send(Frame(8, 0, b"ping" * 1000))
    reply = cli.recv()
    th.join(timeout=10)
    srv.close()
    cli.close()
    assert got["frame"].payload == b"ping" * 1000
    assert reply == Frame(9, 1, b"pong")


def test_socket_receives_every_payload_into_one_buffer_that_a_larger_frame_replaces():
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    sender = SocketTransport(socket.create_connection(srv.getsockname()))
    receiver = SocketTransport(srv.accept()[0])
    srv.close()
    sizes = (4096, 100, 8192, 0, 8192)
    for i, n in enumerate(sizes):
        sender.send(Frame(OP_OPEN_MASKED, i, bytes([i + 1]) * n))
    buffers = []
    for i, n in enumerate(sizes):
        frame = receiver.recv()
        assert (frame.layer_tag, bytes(frame.payload)) == (i, bytes([i + 1]) * n)
        buffers.append(receiver._buf)
        held = frame.payload     # still exported when the next frame arrives
    del held
    # 4096 B, reused for 100 B, replaced (never resized) for 8192 B, then
    # reused for every frame that fits.
    assert buffers[0] is buffers[1] and buffers[2] is buffers[3] is buffers[4]
    assert buffers[1] is not buffers[2] and len(buffers[0]) == 4096
    sender.close()
    receiver.close()


def test_a_socket_payload_is_valid_only_until_the_next_receive():
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    sender = SocketTransport(socket.create_connection(srv.getsockname()))
    receiver = SocketTransport(srv.accept()[0])
    srv.close()
    sender.send(Frame(OP_OPEN_MASKED, 0, b"\x01" * 64))
    sender.send(Frame(OP_OPEN_MASKED, 1, b"\x02" * 64))
    kept = receiver.recv().payload
    assert bytes(kept) == b"\x01" * 64
    receiver.recv()
    # a reader that keeps a payload past its next receive reads the new frame
    assert bytes(kept) == b"\x02" * 64
    sender.close()
    receiver.close()


@pytest.mark.parametrize("sent, reason", [
    (b"", "peer closed the connection"),              # at a frame boundary
    ((Frame(8, 0, b"ping").header() + b"ping")[:3], "peer disconnected mid-frame"),
    ((Frame(8, 0, b"ping").header() + b"ping")[:-1], "peer disconnected mid-frame"),
])
def test_socket_close_names_where_the_stream_ended(sent, reason):
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    a = socket.create_connection(srv.getsockname())
    b, _ = srv.accept()
    srv.close()
    a.sendall(sent)
    a.close()
    t = SocketTransport(b)
    with pytest.raises(TransportError) as err:
        t.recv()
    t.close()
    assert str(err.value) == reason


def test_socket_sends_an_array_payload_larger_than_the_socket_buffers():
    from xconv2pc.plan import build_plan
    from xconv2pc.runtime.protocol import PartyEngine

    plan = build_plan(model_zoo("toynet", CellVariant.DENSE, 16, seed=5),
                      with_weights=False)
    words = [np.random.default_rng(p).integers(0, 1 << 64, size=1 << 20,
                                               dtype=np.uint64) for p in (0, 1)]
    nbytes = 8 << 20
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    engines, got = {}, {}

    def side(party, sock):
        sock.settimeout(30)
        engines[party] = e = PartyEngine(party, plan,
                                         TranscriptRecorder(SocketTransport(sock)), None)
        got[party] = bytes(e.exchange(OP_OPEN_MASKED, words[party], "fc", "mul-open"))
        e.transport.close()

    th = threading.Thread(target=lambda: side(0, srv.accept()[0]), daemon=True)
    th.start()
    cli = socket.create_connection(("127.0.0.1", srv.getsockname()[1]))
    assert (cli.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
            + cli.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)) < nbytes
    side(1, cli)
    th.join(timeout=30)
    srv.close()
    assert not th.is_alive()
    frames = [Frame(OP_OPEN_MASKED, 5, w.tobytes()) for w in words]   # fc is toynet's layer 5
    for p, e in engines.items():
        assert got[p] == words[1 - p].tobytes()
        row = e.ledger.entries["fc", "mul-open"]
        assert row.bytes_sent == row.bytes_recv == nbytes
        f = frames[p]
        assert e.transport.sent_digest == hashlib.sha256(
            f.header() + bytes(f.payload)).hexdigest()


def test_ledger_rows_and_csv():
    led = CommLedger()
    led.record_send("conv", "mul-open", 160)
    led.record_recv("conv", "mul-open", 160)
    led.bump_round("conv", "mul-open")
    led.note_local("shuf", "shuffle")
    text = led.to_csv()
    assert "layer,op,bytes_sent,bytes_recv,rounds" in text
    assert "conv,mul-open,160,160,1" in text
    assert "shuf,shuffle,0,0,0" in text
    assert led.bytes_for("mul-open") == 160
    assert led.total_sent == 160


def test_ledger_mirror_detects_asymmetry():
    a, b = CommLedger(), CommLedger()
    a.record_send("l", "x", 10)
    b.record_recv("l", "x", 10)
    assert ledgers_mirror(a, b)
    a.record_send("l", "x", 1)
    assert not ledgers_mirror(a, b)


# -- graph files -----------------------------------------------------------------


def test_graph_file_roundtrip(tmp_path):
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=5)
    p = tmp_path / "toy.json"
    save_graph(g, str(p))
    back = load_graph(str(p))
    assert back.structural_hash() == g.structural_hash()
    assert set(back.weights) == set(g.weights)
    # Weights quantize once on the first save; a second roundtrip is stable.
    p2 = tmp_path / "toy2.json"
    save_graph(back, str(p2))
    again = load_graph(str(p2))
    for k in back.weights:
        assert np.array_equal(back.weights[k], again.weights[k])


def test_graph_doc_without_weights():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=5)
    doc = graph_to_doc(g)
    del doc["weights"]
    back = doc_to_graph(doc)
    assert back.weights == {}
    assert back.structural_hash() == g.structural_hash()


def test_graph_files_carry_no_metadata_and_old_files_still_load(tmp_path):
    # Files written before graphs lost their metadata carry a "metadata"
    # key; the reader ignores it, so such a file loads as the same graph.
    import json

    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=5)
    p = tmp_path / "toy.json"
    save_graph(g, str(p))
    doc = json.loads(p.read_text())
    assert "metadata" not in doc
    new = load_graph(str(p))
    doc["metadata"] = {"backbone": "toynet", "variant": "dense", "seed": 5}
    p.write_text(json.dumps(doc))
    old = load_graph(str(p))
    assert old.structural_hash() == new.structural_hash() == g.structural_hash()
    assert set(old.weights) == set(new.weights)
    for k in new.weights:
        assert np.array_equal(old.weights[k], new.weights[k])


def test_graph_file_ref_blob(tmp_path):
    from xconv2pc.ring import encode_fixed, serialize_tensor
    import json

    b = GraphBuilder((1, 1, 4, 4), seed=0)
    b.conv("c", INPUT, 1, 1, 3, bias=False)
    g = b.build()
    doc = graph_to_doc(g)
    del doc["weights"]
    blob_path = tmp_path / "w.rtv"
    blob_path.write_bytes(
        serialize_tensor(encode_fixed(g.weights["c.weight"], g.cfg), g.cfg))
    doc["weights"] = {"c.weight": {"ref": "w.rtv"}}
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(doc))
    back = load_graph(str(gpath))
    assert np.abs(back.weights["c.weight"] - g.weights["c.weight"]).max() < 2**-23


def test_malformed_json_reports_byte_offset(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format": "xconv2pc-graph", "layers": [}')
    with pytest.raises(ParseError, match="byte offset"):
        load_graph(str(p))


def test_wrong_format_rejected(tmp_path):
    p = tmp_path / "other.json"
    p.write_text('{"format": "something-else"}')
    with pytest.raises(ParseError):
        load_graph(str(p))
