"""Session roles: handshake, full runs.

The model owner (party 0) holds the weights and listens; the client
(party 1) holds the input, connects, and is the only side that learns the
output.  The dealer is offline: it materializes both parties' randomness
files from the session seed before the online phase.  Every random draw
in a session derives from that one seed through domain-separated
sub-streams, so a (seed, input) pair pins the whole transcript byte for
byte.  The parties do not digest it; a test that pins it wraps their
transports in ``wire.TranscriptRecorder``.

Set-up is the hello, then the output open and the sync end the session.
No share is drawn or sent: the weights enter as (W, 0) and the input as
(0, x), and the dealer's triples mask what Beaver's openings show.
Once the hellos agree, each party checks that its dealer file was made for
its role and the graph from the session seed, and aborts the session if
not.
After the hellos, a party that fails with an engine error other than the
peer's abort sends an abort frame naming the error before it raises, so
its peer stops too.  Before the sync each party checks its own ledger,
row by row, against the bytes and rounds the plan predicts
(``check_ledger``), so that a mismatch reaches a peer waiting in the sync
as an abort.  A party whose dealer file fails to load once the peer is
connected aborts the peer the same way (``load_party_material``).
"""

from __future__ import annotations

import math
import socket
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..errors import (
    HandshakeError,
    MaterialError,
    TransportError,
    VerificationError,
    XConvError,
)
from ..graph import Graph
from ..plan import FixedPlan, build_plan, execute_plan_clear, predict_ledger
from ..ring import RingTensor, encode_fixed, mask_words
from .material import MaterialStore, generate_material, load_material
from .protocol import PartyEngine, ProtocolAbort, send_abort
from .wire import (
    OP_HELLO,
    OP_OPEN_OUTPUT,
    OP_SYNC,
    PROTOCOL_VERSION,
    QueueTransport,
    SocketTransport,
    Transport,
)

# version, bit-width, scale, graph hash, seed commitment
_HELLO = struct.Struct("<HBB32s8s")

MODEL_JOIN_TIMEOUT = 600.0  # seconds secure_infer_local waits for the model party
IO_TIMEOUT = 600.0  # seconds a TCP party waits on one socket operation


def _hello_payload(plan: FixedPlan, seed: int) -> bytes:
    import hashlib

    commit = hashlib.sha256(struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF)).digest()[:8]
    return _HELLO.pack(PROTOCOL_VERSION, plan.cfg.bitwidth, plan.cfg.scale,
                       bytes.fromhex(plan.graph_hash), commit)


def handshake(engine: PartyEngine, seed: int) -> None:
    """Check version, ring, graph and seed.

    Once the hellos agree, also check that this party's dealer material
    was made for its role and this graph, and dealt from the session seed,
    as every caller deals it (MaterialError); a graph the peer does not
    share fails first, as a HandshakeError.  The abort reasons are generic:
    a local message may name this party's dealer seed, which stays private.
    """
    mine = _hello_payload(engine.plan, seed)
    try:
        theirs = engine.exchange(OP_HELLO, mine, "session", "hello")
    except ProtocolAbort as e:
        if e.family is not None:    # the peer failed before its hello
            raise
        raise HandshakeError(f"peer aborted during handshake: {e}") from e
    if len(theirs) != _HELLO.size:
        engine.abort("malformed hello")
        raise HandshakeError("malformed hello from peer")
    v, bw, sc, ghash, commit = _HELLO.unpack(theirs)
    ours = _HELLO.unpack(mine)
    if v != PROTOCOL_VERSION:
        engine.abort("version mismatch")
        raise HandshakeError(f"protocol version mismatch: {v} != {PROTOCOL_VERSION}")
    if (bw, sc) != (ours[1], ours[2]):
        engine.abort("ring mismatch")
        raise HandshakeError("fixed-point configuration mismatch")
    if ghash != ours[3]:
        engine.abort("graph mismatch")
        raise HandshakeError("graph hash mismatch: parties hold different architectures")
    if commit != ours[4]:
        engine.abort("seed mismatch")
        raise HandshakeError("session seed commitment mismatch")
    m = engine.material
    if m.party != engine.party:
        engine.abort("MaterialError: material mismatch")
        raise MaterialError(f"dealer material is party {m.party}'s, this is "
                            f"party {engine.party}")
    if m.graph_hash != ours[3]:
        engine.abort("MaterialError: material mismatch")
        raise MaterialError("dealer material was dealt for another graph")
    if m.seed != seed:
        engine.abort("MaterialError: material mismatch")
        raise MaterialError(f"dealer material was dealt from seed {m.seed}, the "
                            f"session runs from seed {seed}")


def expected_ledger(plan: FixedPlan, party: int) -> dict:
    """(bytes sent, rounds) of every nonzero ledger row of one party's session.

    The plan's layer rows plus the session's: the hello, the output open
    (the model owner sends its output share, the client receives it) and
    the empty sync.
    """
    rows = predict_ledger(plan.layers, plan.cfg)
    out = next(pl.out_shape for pl in plan.layers if pl.name == plan.output_name)
    rows["session", "hello"] = (_HELLO.size, 1)
    rows["session", "output-open"] = (8 * math.prod(out) if party == 0 else 0, 1)
    rows["session", "sync"] = (0, 1)
    return rows


def check_ledger(plan: FixedPlan, party: int, ledger) -> None:
    """Raise VerificationError at the first row that leaves the prediction.

    The sync row is not compared: the check runs before the sync.
    """
    want = expected_ledger(plan, party)
    got = {key: (e.bytes_sent, e.rounds) for key, e in ledger.entries.items()
           if e.bytes_sent or e.rounds}
    for rows in (want, got):
        rows.pop(("session", "sync"), None)
    for key in sorted(want.keys() | got.keys()):
        if want.get(key) != got.get(key):
            (pb, pr), (mb, mr) = want.get(key, (0, 0)), got.get(key, (0, 0))
            raise VerificationError(
                f"party {party} ledger at {key[0]}/{key[1]}: predicted {pb} B "
                f"in {pr} rounds, measured {mb} B in {mr} rounds")


@contextmanager
def _aborting_peer(engine: PartyEngine):
    """Send the peer an abort naming any engine error raised inside, then
    re-raise it; the peer's own abort is not answered."""
    try:
        yield
    except ProtocolAbort:
        raise
    except XConvError as e:
        engine.abort(f"{type(e).__name__}: {e}")
        raise


@dataclass
class SessionResult:
    output: RingTensor          # client side only; None on the model side
    ledger: object


def run_model_party(plan: FixedPlan, transport: Transport,
                    material: MaterialStore, seed: int) -> SessionResult:
    """Party 0: contributes weights, learns nothing."""
    engine = PartyEngine(0, plan, transport, material)
    handshake(engine, seed)
    with _aborting_peer(engine):
        out_share = engine.run(np.zeros(plan.input_shape, dtype=np.uint64))
        engine.send_oneway(OP_OPEN_OUTPUT, np.ascontiguousarray(out_share, dtype="<u8"),
                           "session", "output-open")
        check_ledger(plan, 0, engine.ledger)
        engine.exchange(OP_SYNC, b"", "session", "sync")
    return SessionResult(None, engine.ledger)


def run_client_party(plan: FixedPlan, transport: Transport,
                     material: MaterialStore, seed: int,
                     x: RingTensor) -> SessionResult:
    """Party 1: contributes the input, reconstructs the output."""
    if tuple(x.shape) != tuple(plan.input_shape):
        raise HandshakeError(f"input shape {x.shape} != plan {plan.input_shape}")
    engine = PartyEngine(1, plan, transport, material)
    handshake(engine, seed)
    with _aborting_peer(engine):
        out_share = engine.run(x.words)
        raw = engine.recv_oneway(OP_OPEN_OUTPUT, "session", "output-open")
        peer_out = np.frombuffer(raw, dtype="<u8").reshape(out_share.shape)
        output = RingTensor(mask_words(out_share + peer_out, plan.cfg.bitwidth),
                            plan.cfg.bitwidth)
        check_ledger(plan, 1, engine.ledger)
        engine.exchange(OP_SYNC, b"", "session", "sync")
    return SessionResult(output, engine.ledger)


def load_party_material(path: str, transport: Transport) -> MaterialStore:
    """This party's dealer file, loaded once the peer is connected.

    A file that fails to load aborts the peer before either hello, so the
    peer ends with the material exit code too rather than waiting for a
    party that will not come.  The reason is generic, as in ``handshake``.
    """
    try:
        return load_material(path)
    except MaterialError:
        send_abort(transport, "MaterialError: dealer material unusable")
        raise


# -- in-process orchestration -------------------------------------------------------


@dataclass
class LocalRun:
    output: RingTensor
    clear_reference: RingTensor
    model: SessionResult
    client: SessionResult
    plan: FixedPlan


def secure_infer_local(graph: Graph, x, seed: int = 0,
                       materials: tuple = None,
                       compare_clear: bool = True,
                       plan: FixedPlan = None) -> LocalRun:
    """Full two-party execution over an in-process duplex transport.

    The dealer phase, both online parties, and (optionally) the clear
    fixed-point reference all run from one seed; the reference output is
    what the reconstructed secure output must equal bit for bit.  When the
    client fails on the model party's abort, the model party's error, the
    root cause, is raised.  ``plan`` is the graph's weighted plan, when the
    caller has already built it; otherwise it is built here.
    """
    plan0 = plan if plan is not None else build_plan(graph, with_weights=True)
    plan1 = build_plan(graph, with_weights=False)
    if not isinstance(x, RingTensor):
        x = encode_fixed(np.asarray(x, dtype=np.float64), graph.cfg)
    self_dealt = materials is None
    if self_dealt:
        materials = generate_material(plan0, seed)
    m0, m1 = materials
    t0, t1 = QueueTransport.pair()

    results = {}
    errors = {}

    def model_side():
        try:
            results["model"] = run_model_party(plan0, t0, m0, seed)
        except Exception as e:  # propagated after join
            errors["model"] = e

    thread = threading.Thread(target=model_side, daemon=True)
    thread.start()
    try:
        results["client"] = run_client_party(plan1, t1, m1, seed, x)
    except Exception as e:
        thread.join(timeout=5)
        if isinstance(e, ProtocolAbort) and "model" in errors:
            raise errors["model"] from e
        raise
    thread.join(timeout=MODEL_JOIN_TIMEOUT)
    if thread.is_alive():
        raise TransportError(
            f"model party still running {MODEL_JOIN_TIMEOUT:g} s after the "
            f"client finished")
    if "model" in errors:
        raise errors["model"]
    if m0.cursors != m1.cursors:
        raise TransportError("parties consumed dealer material unevenly")
    if self_dealt and m0.cursors != m0.counts():
        raise TransportError(f"material consumption {m0.cursors} != dealt "
                             f"{m0.counts()}")

    clear = None
    if compare_clear:
        clear = execute_plan_clear(plan0, x, check_ceiling=False)
    return LocalRun(output=results["client"].output, clear_reference=clear,
                    model=results["model"], client=results["client"], plan=plan0)


# -- TCP helpers ---------------------------------------------------------------------


def listen_once(host: str, port: int, timeout: float = 60.0) -> SocketTransport:
    """Accept one peer within ``timeout`` seconds; each later socket
    operation may wait ``IO_TIMEOUT`` seconds."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        srv.bind((host, port))
        srv.listen(1)
        srv.settimeout(timeout)
        conn, _ = srv.accept()
    except OSError as e:
        raise TransportError(f"listen on {host}:{port} failed: {e}") from e
    finally:
        srv.close()
    conn.settimeout(IO_TIMEOUT)
    return SocketTransport(conn)


def connect_with_retry(host: str, port: int, timeout: float = 60.0) -> SocketTransport:
    """Dial until the peer listens: the pause between attempts starts at
    5 ms and doubles up to 0.1 s, so a peer that listens soon is met soon.
    Each later socket operation may wait ``IO_TIMEOUT`` seconds."""
    deadline = time.monotonic() + timeout
    last = None
    pause = 0.005
    while time.monotonic() < deadline:
        try:
            sock = socket.create_connection((host, port), timeout=5)
            sock.settimeout(IO_TIMEOUT)
            return SocketTransport(sock)
        except OSError as e:
            last = e
            time.sleep(pause)
            pause = min(2 * pause, 0.1)
    raise TransportError(f"cannot reach {host}:{port}: {last}")
