"""Two-party online protocol over additive shares.

The engine does not walk the plan itself.  ``PartyEngine.run`` hands the
plan to ``plan.run_plan``, which codes every layer's linear steps once for
clear and secure execution, and the engine is that walker's backend:
``mul`` is a Beaver multiplication, ``relu`` and ``truncate`` are the
protocols below, ``add_bias`` adds a public bias to the model owner's
share only, ``note_local`` writes a zero-byte ledger row, and ``weight``
returns the party's share of the layer's weights.

Linear steps (adds, concatenation, permutations, public scaling, the
integer transforms of tagged convolutions) act on each party's share
locally and appear in the ledger as explicit zero-byte rows.  Secret
multiplications run over preprocessed triples: both parties open masked
differences (two ring elements, 16 bytes, per multiplication per party)
and finish locally, so a layer's multiplication traffic is exactly
16 bytes times its multiplication count.

Sign-dependent steps (activation, pooling, faithful truncation) open a
masked value and then evaluate "public-constant < dealer-mask" from
dealer digit tables (CrypTFlow2's millionaires' protocol with the
oblivious transfers replaced by one-time truth tables): each party
selects its shares of [c_j < r_j] and [c_j = r_j] at every public 4-bit
digit c_j, which sends nothing, and a logarithmic tree of AND rounds on
packed 64-element words combines the digits, one boolean triple word per
AND word.  The tree's last level, lt = L ^ (E & R), is a dealer gate
whose output is already an additive share: the parties open d = E ^ a,
e = R ^ b and f = L ^ g for fresh dealer bits a, b, g, and finish
locally from the dealer's additive shares of u_de = g ^ ((d^a) & (e^b))
as f + (1 - 2f) u_de.  No round is spent converting the bit.  Every
consumption count is a pure function of layer shapes, so both parties
and the dealer agree on cursor positions by construction.

Round costs follow from the plan: ``plan.predict_ledger`` gives every
layer's bytes and rounds per op, and each session checks its ledger
against it.  A truncation takes 5 rounds (the mask open, then 4 tree
levels), an unfused ReLU or a maxpool tree level 6 (its sign-bit product
adds one), and a ReLU fused into the truncation it reads 1.

Exactness notes, all modulo 2^l with x' = x + 2^(l-1):
  floor(unsigned(x') / 2^s) = (c >> s) - (r >> s) - [c mod 2^s < r mod 2^s]
                              + [c < r] * 2^(l-s)   where c = x' + r opened,
and the sign bit of x is  msb(c) XOR msb(r) XOR [low(c) < low(r)].
"""

from __future__ import annotations

import numpy as np

from .. import plan as plan_mod
from ..errors import TransportError, XConvError
from ..plan import FixedPlan, lt_digits, run_plan
from .material import MaterialStore, gate_bits, prg, select_table_bits, uniform
from .wire import (
    OP_ABORT,
    OP_OPEN_BOOL,
    OP_OPEN_MASKED,
    CommLedger,
    Frame,
    SESSION_TAG,
    TranscriptRecorder,
    Transport,
)

_U64 = np.uint64


class ProtocolAbort(XConvError):
    """Peer sent an abort frame."""


# -- bit packing -------------------------------------------------------------------


def pack_bitplanes(bits: np.ndarray) -> np.ndarray:
    """(..., N) of 0/1 -> (..., ceil(N/64)) packed words, element e at bit e&63."""
    n = bits.shape[-1]
    w = -(-n // 64)
    padded = np.zeros(bits.shape[:-1] + (w * 64,), dtype=np.uint8)
    padded[..., :n] = bits.astype(np.uint8)
    packed = np.packbits(padded, axis=-1, bitorder="little")
    return np.ascontiguousarray(packed).view("<u8").astype(_U64)


def unpack_bitplanes(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_bitplanes; returns (..., n) uint8 bits."""
    raw = np.ascontiguousarray(words.astype("<u8")).view(np.uint8)
    bits = np.unpackbits(raw, axis=-1, bitorder="little")
    return bits[..., :n]


# -- the engine --------------------------------------------------------------------


class PartyEngine:
    """Executes a fixed plan over one transport with one material store."""

    def __init__(self, party: int, plan: FixedPlan, transport: Transport,
                 material: MaterialStore, rng_seed: int = 0):
        self.party = party
        self.plan = plan
        self.transport = transport
        self.material = material
        self.ledger = CommLedger()
        self.transcript = TranscriptRecorder()
        self.rng = np.random.default_rng(
            np.random.SeedSequence(entropy=rng_seed, spawn_key=(100 + party,)))
        self.bitwidth = plan.cfg.bitwidth
        self.mask = _U64(plan.cfg.mask)
        self._weight_shares = {}

    # -- framing ------------------------------------------------------------

    def _send(self, frame: Frame, layer: str, op: str) -> None:
        self.transport.send(frame)
        self.transcript.on_send(frame)
        self.ledger.record_send(layer, op, len(frame.payload))

    def _recv(self, expect_opcode: int, expect_tag: int, layer: str, op: str) -> Frame:
        frame = self.transport.recv()
        self.transcript.on_recv(frame)
        if frame.opcode == OP_ABORT:
            raise ProtocolAbort(frame.payload.decode("utf-8", "replace"))
        if frame.opcode != expect_opcode or frame.layer_tag != expect_tag:
            raise TransportError(
                f"protocol desync at {layer}/{op}: expected opcode "
                f"{expect_opcode} tag {expect_tag}, got {frame.opcode} "
                f"tag {frame.layer_tag}")
        self.ledger.record_recv(layer, op, len(frame.payload))
        return frame

    def exchange(self, opcode: int, tag: int, payload: bytes, layer: str,
                 op: str) -> bytes:
        """Symmetric opening: model owner writes first, client reads first."""
        frame = Frame(opcode, tag, payload)
        if self.party == 0:
            self._send(frame, layer, op)
            peer = self._recv(opcode, tag, layer, op)
        else:
            peer = self._recv(opcode, tag, layer, op)
            self._send(frame, layer, op)
        self.ledger.bump_round(layer, op)
        return peer.payload

    def send_oneway(self, opcode: int, tag: int, payload: bytes, layer: str,
                    op: str) -> None:
        self._send(Frame(opcode, tag, payload), layer, op)
        self.ledger.bump_round(layer, op)

    def recv_oneway(self, opcode: int, tag: int, layer: str, op: str) -> bytes:
        frame = self._recv(opcode, tag, layer, op)
        self.ledger.bump_round(layer, op)
        return frame.payload

    def abort(self, reason: str) -> None:
        try:
            self.transport.send(Frame(OP_ABORT, SESSION_TAG, reason.encode()))
        except TransportError:
            pass

    # -- arithmetic primitives -----------------------------------------------

    def _open_words(self, shares: np.ndarray, tag: int, layer: str,
                    op: str) -> np.ndarray:
        flat = np.ascontiguousarray(shares, dtype="<u8")
        peer = self.exchange(OP_OPEN_MASKED, tag, flat.tobytes(), layer, op)
        other = np.frombuffer(peer, dtype="<u8").reshape(flat.shape)
        return (flat + other) & self.mask

    def beaver(self, x: np.ndarray, y: np.ndarray, tag: int, layer: str,
               kind: str = "mul") -> np.ndarray:
        """Pairwise secret multiplication of equal-shape share arrays.

        ``kind`` names the triple stream, "mul" or "aux", and the ledger op
        is its open.  Inputs may be broadcast views; chunks materialize one
        slice at a time, keeping peak memory independent of the
        multiplication count.
        """
        shape = x.shape
        n = int(np.prod(shape))
        out = np.empty(n, dtype=_U64)
        pos = 0
        while pos < n:
            m = min(plan_mod.BEAVER_CHUNK, n - pos)
            xc = _flat_slice(x, pos, m)
            yc = _flat_slice(y, pos, m)
            a, b, c = self.material.take(kind, m)
            d_share = (xc - a) & self.mask
            e_share = (yc - b) & self.mask
            payload = np.concatenate([d_share, e_share]).astype("<u8", copy=False)
            peer = self.exchange(OP_OPEN_MASKED, tag, payload.tobytes(), layer,
                                 f"{kind}-open")
            other = np.frombuffer(peer, dtype="<u8")
            d = (d_share + other[:m]) & self.mask
            e = (e_share + other[m:]) & self.mask
            z = c + d * b + e * a
            if self.party == 0:
                z = z + d * e
            out[pos:pos + m] = z & self.mask
            pos += m
        return out.reshape(shape)

    # -- boolean circuit -------------------------------------------------------

    def _bool_open(self, xs: list, ys: list, gates: list, tag: int,
                   layer: str) -> tuple:
        """One boolean open: ANDs of XOR-shared words and opened gate words.

        Every (x, y) pair of the two lists is ANDed through boolean
        triples, and each array of ``gates`` (masked shares) is opened as
        it is; all go into one frame.  Returns the AND results and the
        opened gate arrays, each with its input's shape.
        """
        xf = np.concatenate([np.empty(0, _U64)] + [x.reshape(-1) for x in xs])
        yf = np.concatenate([np.empty(0, _U64)] + [y.reshape(-1) for y in ys])
        n = xf.size
        a, b, c = self.material.take("bool", n)
        flat = np.concatenate([xf ^ a, yf ^ b] + [g.reshape(-1) for g in gates])
        payload = flat.astype("<u8", copy=False).tobytes()
        peer = self.exchange(OP_OPEN_BOOL, tag, payload, layer, "bool-open")
        opened = flat ^ np.frombuffer(peer, dtype="<u8")
        d, e = opened[:n], opened[n:2 * n]
        z = c ^ (d & b) ^ (e & a)
        if self.party == 0:
            z = z ^ (d & e)
        return _split_as(z, xs), _split_as(opened[2 * n:], gates)

    def less_than_mask(self, jobs: list, tag: int, layer: str) -> np.ndarray:
        """Additive shares of [c < r] XOR flip for each job.

        A job is (c_pub, tables, gate, n_bits, flip): this party's share of
        the dealer's digit tables for the low n_bits of r, its gate record
        (bytes of a, b, g bits and the (N, 4) u shares) and a public bit
        flip (0 or per element).  Selecting at each public digit c_j gives
        shares of [c_j < r_j] and [c_j = r_j] without a message (see
        ``material.select_table_bits``).  The bits are packed into
        64-element words, and a tree merges adjacent digit groups, lowest
        first: lt = lt_hi ^ (eq_hi & lt_lo), eq = eq_hi & eq_lo.  The lowest
        group's eq is never read, so it is not computed.  The last level,
        two groups (L = lt_hi, E = eq_hi, R = lt_lo) or a lone one (E = R =
        0), is the gate: d = E ^ a, e = R ^ b and f = L ^ g are opened, and
        ``bits_to_arith`` finishes f ^ flip ^ u_de locally.  All jobs share
        each level's open, so the rounds are those of the widest job alone.
        Returns the jobs' shares concatenated in job order.
        """
        lts, eqs = [], []
        for c_pub, tables, _, n_bits, _ in jobs:
            lt, eq = pack_bitplanes(select_table_bits(tables, c_pub, n_bits))
            lts.append(lt)
            eqs.append(eq)

        out = [None] * len(jobs)
        while any(o is None for o in out):
            tree = [j for j, lt in enumerate(lts) if len(lt) > 2]
            last = [j for j, o in enumerate(out) if o is None and len(lts[j]) <= 2]
            xs, ys, gates = [], [], []
            for j in tree:
                pairs = len(lts[j]) // 2
                xs += [eqs[j][1:2 * pairs:2], eqs[j][3:2 * pairs:2]]
                ys += [lts[j][0:2 * pairs:2], eqs[j][2:2 * pairs:2]]
            for j in last:
                lt, eq = lts[j], eqs[j]
                zero = np.zeros_like(lt[0])
                fde = (lt[1], eq[1], lt[0]) if len(lt) == 2 else (lt[0], zero, zero)
                a, b, g = gate_bits(jobs[j][2][0])
                gates.append(np.stack(fde) ^ pack_bitplanes(np.stack([g, a, b])))
            anded, opened = self._bool_open(xs, ys, gates, tag, layer)
            for k, j in enumerate(tree):
                lt, eq = lts[j], eqs[j]
                pairs = len(lt) // 2
                lts[j] = np.concatenate([lt[1:2 * pairs:2] ^ anded[2 * k],
                                         lt[2 * pairs:]])
                eqs[j] = np.concatenate([eq[:1], anded[2 * k + 1], eq[2 * pairs:]])
            for j, words in zip(last, opened):
                c_pub, _, (_, u), _, flip = jobs[j]
                f, d, e = unpack_bitplanes(words, c_pub.size)
                u_de = u[np.arange(c_pub.size), 2 * d + e]
                out[j] = self.bits_to_arith(f ^ flip, u_de)
        return np.concatenate(out)

    def bits_to_arith(self, f: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Additive shares of f XOR u for public bits f and shared bits u.

        The gate's local finish: f + (1 - 2f) u, the model owner adding f.
        """
        out = np.where(f.astype(bool), -u, u)
        if self.party == 0:
            out = out + f
        return out & self.mask

    # -- nonlinear units --------------------------------------------------------

    def _sign_job(self, c: np.ndarray, tables: np.ndarray, gate: tuple) -> tuple:
        """The less-than job for msb(c - r).

        msb(c - r) = msb(c) XOR msb(r) XOR [low(c) < low(r)] over the low
        l-1 bits.  The dealer folded msb(r) into the comparison tables; the
        public msb(c) flips the gate's opened f, on both sides.
        """
        low_bits = self.bitwidth - 1
        top = ((c >> _U64(low_bits)) & _U64(1)).astype(np.uint8)
        return c & _U64((1 << low_bits) - 1), tables, gate, low_bits, top

    def relu_shares(self, x: np.ndarray, tag: int, layer: str,
                    neg: np.ndarray = None) -> np.ndarray:
        """max(signed(x), 0) on flat share words, exactly.

        ``neg``, an additive share of [signed(x) < 0] computed by the
        truncation that produced x, leaves only the sign-bit product.
        """
        flat = x.reshape(-1)
        if neg is None:
            r_arith, u, tables, abg = self.material.take("cmp", flat.size)
            c = self._open_words((flat + r_arith) & self.mask, tag, layer,
                                 "mask-open")
            neg = self.less_than_mask([self._sign_job(c, tables, (abg, u))],
                                      tag, layer)
        prod = self.beaver(flat, neg, tag, layer, kind="aux")
        return ((flat - prod) & self.mask).reshape(x.shape)

    def truncate_shares(self, x: np.ndarray, tag: int, layer: str,
                        sign: bool = False):
        """Faithful arithmetic shift by the working scale, exactly.

        With ``sign`` it also returns an additive share of [signed(x) < 0]
        for the ReLU that reads the result (the shift keeps the sign).  That
        test consumes the ReLU's comparison tuple: x plus its mask is opened
        in the same frame as the biased value, and its 59-bit comparison
        joins the borrow and wrap jobs.
        """
        s = self.plan.cfg.scale
        n = x.size
        flat = x.reshape(-1)
        r_arith, r_shift, u, tables, abg = self.material.take("trunc", n)
        masked = np.empty(2 * n if sign else n, dtype=_U64)
        np.add(flat, r_arith, out=masked[:n])
        if self.party == 0:
            masked[:n] += _U64(1 << (self.bitwidth - 1))
        if sign:
            q_arith, q_u, q_tables, q_abg = self.material.take("cmp", n)
            np.add(flat, q_arith, out=masked[n:])
        masked &= self.mask
        opened = self._open_words(masked, tag, layer, "mask-open")
        c = opened[:n]
        ds = lt_digits(s)
        jobs = [(c & _U64((1 << s) - 1), tables[:, :ds], (abg[:, 0], u[:, 0]), s, 0),
                (c, tables[:, ds:], (abg[:, 1], u[:, 1]), self.bitwidth, 0)]
        if sign:
            jobs.append(self._sign_job(opened[n:], q_tables, (q_abg, q_u)))
        arith = self.less_than_mask(jobs, tag, layer)
        borrow, wrap = arith[:n], arith[n:2 * n]
        res = (_U64(1 << (self.bitwidth - s)) * wrap - r_shift - borrow) & self.mask
        if self.party == 0:
            res = (res + (c >> _U64(s)) - _U64(1 << (self.bitwidth - 1 - s))) & self.mask
        res = res.reshape(x.shape)
        return (res, arith[2 * n:]) if sign else res

    # -- run_plan backend ----------------------------------------------------------
    #
    # Each call goes through the attribute at call time, so wrappers
    # installed on the class see every use.

    def mul(self, x: np.ndarray, y: np.ndarray, tag: int, layer: str) -> np.ndarray:
        return self.beaver(x, y, tag, layer)

    def relu(self, x: np.ndarray, tag: int, layer: str,
             neg: np.ndarray = None) -> np.ndarray:
        return self.relu_shares(x, tag, layer, neg=neg)

    def truncate(self, x: np.ndarray, tag: int, layer: str, sign: bool = False):
        return self.truncate_shares(x, tag, layer, sign=sign)

    def add_bias(self, pre: np.ndarray, b: np.ndarray, layer: str) -> np.ndarray:
        """Public constant: only the model owner adds it to its share."""
        if self.party != 0:
            return pre
        self.ledger.note_local(layer, "bias")
        return (pre + b) & self.mask

    def note_local(self, layer: str, op: str) -> None:
        self.ledger.note_local(layer, op)

    def weight(self, pl) -> np.ndarray:
        return self._weight_shares[pl.name]

    # -- session steps ---------------------------------------------------------------

    def distribute_weights(self, seed: bytes) -> None:
        """Set each weight share from party 0's hello seed; sends nothing.

        Both parties expand P = uniform(prg(seed, idx)) for weighted layer
        idx.  The client's share is P, the model owner's W - P.
        """
        for idx, pl in enumerate(self.plan.layers):
            shape = _weight_shape(pl)
            if shape is None:
                continue
            p = uniform(prg(seed, idx), shape, self.bitwidth)
            if self.party == 0:
                p = (pl.payload["weight"].words - p) & self.mask
            self._weight_shares[pl.name] = p

    def run(self, input_share: np.ndarray) -> np.ndarray:
        """Execute every plan layer; returns this party's output share."""
        return run_plan(self.plan, input_share, self)[self.plan.output_name]


def _split_as(flat: np.ndarray, arrays: list) -> list:
    """Cut ``flat`` into consecutive pieces shaped like ``arrays``."""
    ends = np.cumsum([a.size for a in arrays], dtype=np.intp)[:-1]
    return [part.reshape(a.shape) for part, a in zip(np.split(flat, ends), arrays)]


def _weight_shape(pl):
    """Shape of the layer's encoded weights, derived from public attributes."""
    a = pl.attrs
    if pl.kind == "fully-connected":
        return (a["out_features"], a["in_features"])
    if pl.kind != "conv2d":
        return None
    k = a["tile"] if a.get("winograd") else a["kernel"]
    return (a["out_channels"], a["in_channels"] // a.get("groups", 1), k, k)


def _flat_slice(arr: np.ndarray, pos: int, m: int) -> np.ndarray:
    """Materialize arr.reshape(-1)[pos:pos+m] without copying all of arr.

    Only the leading-axis rows that cover the slice are copied, so a
    broadcast view costs one chunk plus at most a row on either side.
    """
    if arr.flags.c_contiguous:
        return arr.reshape(-1)[pos:pos + m]
    while arr.ndim > 1 and arr.shape[0] == 1:
        arr = arr[0]
    row = arr.size // arr.shape[0]
    r0, r1 = pos // row, -(-(pos + m) // row)
    off = pos - r0 * row
    return np.ascontiguousarray(arr[r0:r1]).reshape(-1)[off:off + m]
