"""Two-party online protocol over additive shares.

The engine does not walk the plan itself.  ``PartyEngine.run`` hands the
plan to ``plan.run_plan``, which codes every layer's linear steps once for
clear and secure execution, and the engine is that walker's backend:
``mul`` is a Beaver multiplication, ``relu`` and ``truncate`` are the
protocols below, ``add_bias`` adds a public bias to the model owner's
share only, ``note_local`` writes a zero-byte ledger row, and ``weight``
returns the party's share (W, 0) of the layer's weights, drawing nothing.
A truncation whose sole reader is a ReLU also shares its input's sign, and
the engine keeps that share until the ReLU takes it.

Linear steps (adds, concatenation, permutations, public scaling, the
integer transforms of tagged convolutions) act on each party's share
locally and appear in the ledger as explicit zero-byte rows.  Secret
multiplications run over preprocessed triples: both parties open masked
differences (two ring elements, 16 bytes, per multiplication per party)
and finish locally, so a layer's multiplication traffic is exactly
16 bytes times its multiplication count.  Every open sends its share
array as the frame payload, uncopied and never written after the send.

Sign-dependent steps (activation, pooling, faithful truncation) open a
masked value and then evaluate "public-constant < dealer-mask" from
dealer digit tables (CrypTFlow2's millionaires' protocol with the
oblivious transfers replaced by one-time truth tables): each party
selects its shares of L_j = [c_j < r_j] and E_j = [c_j = r_j] at every
public 4-bit digit c_j, which sends nothing.  The digits then combine in
two opens on packed 64-element words, whatever the width up to 60 bits.
The first open merges groups of up to five digits, lowest first,
  lt = L4 ^ E4 L3 ^ E4 E3 L2 ^ E4 E3 E2 L1 ^ E4 E3 E2 E1 L0,
  eq = E4 E3 E2 E1 E0,
as multi-input AND gates with preprocessing (ABY2.0, Patra et al.,
USENIX Security 2021): each digit bit is opened masked by a fresh dealer
bit, and each monomial is then a local XOR of public products of the
opened bits with the dealer's XOR shares of the mask products.  The
second open is a dealer gate on the three groups left (a one-time truth
table, Ishai et al., TCC 2013): lt = L2 ^ h(L0, E1, L1, E2), so the
parties open f = L2 ^ g and the masked 4-bit v and finish locally from
the dealer's additive shares of u_v = g ^ h(v ^ masks), as
f + (1 - 2f) u_v.  No round is spent converting the bit, and a
comparison of at most 3 digits needs the gate alone.  Every consumption
count is a pure function of layer shapes, so both parties and the dealer
agree on cursor positions by construction.

Round costs follow from the plan: ``plan.predict_ledger`` gives every
layer's bytes and rounds per op, and each session checks its ledger
against it.  A truncation takes 3 rounds (the mask open, the merge and
the gate), an unfused ReLU or a maxpool tree level 4 (its sign-bit
product adds one), and a ReLU fused into the truncation it reads 1.

Exactness notes, all modulo 2^l with x' = x + 2^(l-1):
  floor(unsigned(x') / 2^s) = (c >> s) - (r >> s) - [c mod 2^s < r mod 2^s]
                              + [c < r] * 2^(l-s)   where c = x' + r opened,
and the sign bit of x is  msb(c) XOR msb(r) XOR [low(c) < low(r)].
"""

from __future__ import annotations

import numpy as np

from .. import errors
from .. import plan as plan_mod
from ..errors import TransportError, XConvError
from ..plan import MERGE_DIGITS, MERGE_RECORD, FixedPlan, lt_digits, merge_groups, run_plan
from .material import (
    MERGE_MASKS,
    MERGE_SUBSETS,
    MaterialStore,
    e_products,
    gate_bits,
    select_table_bits,
)
from .wire import (
    OP_ABORT,
    OP_OPEN_BOOL,
    OP_OPEN_MASKED,
    CommLedger,
    Frame,
    SESSION_TAG,
    Transport,
)

_U64 = np.uint64
_SLICE = 1 << 16  # elements per step of a Beaver chunk's local work


class ProtocolAbort(XConvError):
    """Peer sent an abort frame; a reason "<error class>: ..." exits with
    that class's family, any other reason 1."""

    def __init__(self, reason: str):
        super().__init__(reason)
        cls = getattr(errors, reason.partition(":")[0], None)
        if isinstance(cls, type) and issubclass(cls, XConvError):
            self.exit_code = cls.exit_code


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
                 material: MaterialStore):
        self.party = party
        self.plan = plan
        self.transport = transport
        self.material = material
        self.ledger = CommLedger()
        self.bitwidth = plan.cfg.bitwidth
        self.mask = _U64(plan.cfg.mask)
        self._signs = {}  # [signed(x) < 0] shares a truncation kept for its ReLU

    # -- framing ------------------------------------------------------------

    def _send(self, frame: Frame, layer: str, op: str) -> None:
        self.transport.send(frame)
        self.ledger.record_send(layer, op, len(frame.payload))

    def _recv(self, expect_opcode: int, expect_tag: int, layer: str, op: str) -> Frame:
        frame = self.transport.recv()
        if frame.opcode == OP_ABORT:
            raise ProtocolAbort(frame.payload.decode("utf-8", "replace"))
        if frame.opcode != expect_opcode or frame.layer_tag != expect_tag:
            raise TransportError(
                f"protocol desync at {layer}/{op}: expected opcode "
                f"{expect_opcode} tag {expect_tag}, got {frame.opcode} "
                f"tag {frame.layer_tag}")
        self.ledger.record_recv(layer, op, len(frame.payload))
        return frame

    def exchange(self, opcode: int, tag: int, payload, layer: str, op: str):
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
        peer = self.exchange(OP_OPEN_MASKED, tag, flat, layer, op)
        other = np.frombuffer(peer, dtype="<u8").reshape(flat.shape)
        return (flat + other) & self.mask

    def beaver(self, x: np.ndarray, y: np.ndarray, tag: int, layer: str,
               kind: str = "mul") -> np.ndarray:
        """Pairwise secret multiplication of equal-shape share arrays.

        ``kind`` names the triple stream, "mul" or "aux", and the ledger op
        is its open.  Inputs may be broadcast views.  Each ``BEAVER_CHUNK``
        of m products writes and masks x - a and y - b into one fresh (2m,)
        payload, slice by slice, sends it as it is, and finishes z =
        c + d b + e a (+ d e on party 0, as d b + e (a + d)) into the output
        in ``_SLICE``-element steps, d and e in two reused slice buffers:
        beyond the output, a chunk holds the two parties' payloads and two
        slices.
        """
        shape = x.shape
        n = int(np.prod(shape))
        out = np.empty(n, dtype=_U64)
        pos = 0
        while pos < n:
            m = min(plan_mod.BEAVER_CHUNK, n - pos)
            a, b, c = self.material.take(kind, m, layer)
            mine = np.empty(2 * m, dtype=_U64)
            for s in range(0, m, _SLICE):
                t = min(s + _SLICE, m)
                for half, v, w in ((mine[s:t], x, a), (mine[m + s:m + t], y, b)):
                    np.subtract(_flat_slice(v, pos + s, t - s), w[s:t], out=half)
                    half &= self.mask
            peer = np.frombuffer(self.exchange(OP_OPEN_MASKED, tag, mine, layer,
                                               f"{kind}-open"), dtype="<u8")
            d_buf, e_buf = np.empty((2, min(m, _SLICE)), dtype=_U64)
            for s in range(0, m, _SLICE):      # mod 2^64; the ring mask comes last
                t = min(s + _SLICE, m)
                d, e = d_buf[:t - s], e_buf[:t - s]
                np.add(mine[s:t], peer[s:t], out=d)
                np.add(mine[m + s:m + t], peer[m + s:m + t], out=e)
                z = np.multiply(d, b[s:t], out=out[pos + s:pos + t])
                z += c[s:t]
                if self.party == 0:
                    d += a[s:t]
                    e *= d
                else:
                    e *= a[s:t]
                z += e
                z &= self.mask
            del mine, peer
            pos += m
        return out.reshape(shape)

    # -- boolean circuit -------------------------------------------------------

    def _open_bool(self, words: np.ndarray, tag: int, layer: str) -> np.ndarray:
        """Open XOR-shared (masked) words in one frame."""
        flat = np.ascontiguousarray(words, dtype="<u8")
        peer = self.exchange(OP_OPEN_BOOL, tag, flat, layer, "bool-open")
        return flat ^ np.frombuffer(peer, dtype="<u8").reshape(flat.shape)

    def _merge(self, groups: list, tag: int, layer: str) -> tuple:
        """One merge open: shares of each digit group's lt and eq.

        ``groups`` holds (lt, eq, lowest): (k, W) share words of k >= 2
        digits, lowest first.  A group takes one merge record per word
        (``material.MERGE_SUBSETS``), its digits at the record's top k.
        Each digit bit x it reads is opened as X = x ^ m for the record's
        mask m; then every monomial of lt and eq, a product of x = X ^ m,
        expands into a XOR of public products of X with the record's
        shares of the mask products, so no further message is needed.
        Mask words of digits a group lacks, or of the lowest group's
        unread E, are zeroed, and those digits enter as the public L = 0,
        E = 1.  Returns each group's (lt, eq) words.
        """
        d = MERGE_DIGITS
        n = sum(lt.shape[1] for lt, _, _ in groups)
        (words,) = self.material.take("bool", MERGE_RECORD * n, layer)
        rec = words.reshape(n, MERGE_RECORD).T.copy()
        x = np.zeros((2 * d, n), _U64)
        read = np.zeros((2 * d, n), bool)
        pos = 0
        for lt, eq, lowest in groups:
            k, w = lt.shape
            cols = slice(pos, pos + w)
            x[d - k:d, cols], x[2 * d - k:, cols] = lt, eq
            read[d - k:d, cols] = read[2 * d - k + lowest:, cols] = True
            rec[(_READS & ~read[:, pos]).any(axis=1), cols] = 0
            pos += w
        mine = (x ^ rec[MERGE_MASKS])[read]
        public = np.zeros_like(x)
        public[d:] = ~_U64(0)
        public[read] = self._open_bool(mine, tag, layer)

        # Coefficient of each mask product (the empty one first) in lt and
        # eq: the public product of the monomial's other bits.
        prod_e = np.concatenate([e_products(public[d:]), np.zeros((1, n), _U64)])
        below = [np.zeros(n, _U64)]     # lt of the public bits under digit t
        for t in range(d):
            below.append(public[t] ^ (public[d + t] & below[-1]))
        below.append(np.full(n, ~_U64(0)))
        shares = np.concatenate([np.full((1, n), ~_U64(0) if self.party == 0 else 0,
                                         _U64), rec])
        lt = prod_e[_LT_E]
        lt &= np.stack(below)[_LT_B]
        lt &= shares
        eq = prod_e[_EQ_E]
        eq &= shares
        ends = np.cumsum([g[0].shape[1] for g in groups])[:-1]
        return list(zip(np.split(np.bitwise_xor.reduce(lt), ends),
                        np.split(np.bitwise_xor.reduce(eq), ends)))

    def less_than_mask(self, jobs: list, tag: int, layer: str) -> np.ndarray:
        """Additive shares of [c < r] XOR flip for each job.

        A job is (c_pub, tables, gate, n_bits, flip): this party's share of
        the dealer's digit tables for the low n_bits of r, its gate record
        (bytes of five mask bits and the (N, 16) u shares) and a public bit
        flip (0 or per element).  Selecting at each public digit c_j gives
        shares of [c_j < r_j] and [c_j = r_j] without a message (see
        ``material.select_table_bits``), packed into 64-element words.
        While a job has more than three digit groups, one open merges them
        in groups of up to five (``plan.merge_groups``, ``_merge``).  The
        gate then closes the three left, lowest first (L0), (L1, E1) and
        (L2, E2), as lt = L2 ^ h(L0, E1, L1, E2): f = L2 ^ g and v =
        (L0, E1, L1, E2) ^ masks are opened, and ``bits_to_arith``
        finishes f ^ flip ^ u_v locally.  A job with fewer groups enters
        zeros for the missing lower ones.  All jobs share each open, so
        the rounds are those of the widest job alone.  Returns the jobs'
        shares concatenated in job order.
        """
        lts, eqs = [], []
        for c_pub, tables, _, n_bits, _ in jobs:
            lt, eq = pack_bitplanes(select_table_bits(tables, c_pub, n_bits))
            lts.append(lt)
            eqs.append(eq)

        while any(len(lt) > 3 for lt in lts):
            todo = [(j, merge_groups(len(lt))) for j, lt in enumerate(lts) if len(lt) > 3]
            groups = []
            for j, sizes in todo:
                for i, lo, k in _spans(sizes):
                    if k > 1:
                        groups.append((lts[j][lo:lo + k], eqs[j][lo:lo + k], i == 0))
            merged = iter(self._merge(groups, tag, layer))
            for j, sizes in todo:
                units = [next(merged) if k > 1 else (lts[j][lo], eqs[j][lo])
                         for _, lo, k in _spans(sizes)]
                lts[j], eqs[j] = (np.stack(rows) for rows in zip(*units))

        gates = []
        for (c_pub, _, (rec, _), _, _), lt, eq in zip(jobs, lts, eqs):
            rows = np.zeros((5, lt.shape[1]), _U64)        # L0, E1, L1, E2, L2
            for (row_lt, row_eq), i in zip(((4, 3), (2, 1), (0, None)),
                                           range(len(lt) - 1, -1, -1)):
                rows[row_lt] = lt[i]
                if row_eq is not None:
                    rows[row_eq] = eq[i]
            gates.append(rows ^ pack_bitplanes(np.stack(gate_bits(rec))))
        opened = self._open_bool(np.concatenate(gates, axis=1), tag, layer)

        out, pos = [], 0
        for (c_pub, _, (_, u), _, flip), rows in zip(jobs, gates):
            w = rows.shape[1]
            bits = unpack_bitplanes(opened[:, pos:pos + w], c_pub.size)
            pos += w
            v = bits[0] | bits[1] << 1 | bits[2] << 2 | bits[3] << 3
            out.append(self.bits_to_arith(bits[4] ^ flip, u[np.arange(c_pub.size), v]))
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
            r_arith, u, tables, abg = self.material.take("cmp", flat.size, layer)
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
        r_arith, r_shift, u, tables, abg = self.material.take("trunc", n, layer)
        masked = np.empty(2 * n if sign else n, dtype=_U64)
        np.add(flat, r_arith, out=masked[:n])
        if self.party == 0:
            masked[:n] += _U64(1 << (self.bitwidth - 1))
        if sign:
            q_arith, q_u, q_tables, q_abg = self.material.take("cmp", n, layer)
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

    def relu(self, x: np.ndarray, tag: int, layer: str) -> np.ndarray:
        """``relu_shares``, fed the sign share kept for its input, if any."""
        neg = self._signs.pop(self.plan.layers[tag].inputs[0], None)
        return self.relu_shares(x, tag, layer, neg=neg)

    def truncate(self, x: np.ndarray, tag: int, layer: str) -> np.ndarray:
        """``truncate_shares``; a ``relu_sign`` layer keeps its sign share."""
        if not self.plan.layers[tag].relu_sign:
            return self.truncate_shares(x, tag, layer)
        out, self._signs[layer] = self.truncate_shares(x, tag, layer, sign=True)
        return out

    def add_bias(self, pre: np.ndarray, b: np.ndarray, layer: str) -> np.ndarray:
        """Public constant: only the model owner adds it to its share."""
        if self.party != 0:
            return pre
        self.ledger.note_local(layer, "bias")
        return (pre + b) & self.mask

    def note_local(self, layer: str, op: str) -> None:
        self.ledger.note_local(layer, op)

    def weight(self, pl, tag: int) -> np.ndarray:
        """This party's share of the layer's weights: (W, 0).

        The model owner's share is its plan's words as they are, the
        client's a broadcast zero that allocates nothing.  Beaver's opened
        e = W - b stays masked by the dealer's b, as under any sharing.
        """
        if self.party == 0:
            return pl.payload["weight"].words
        return np.broadcast_to(_U64(0), _weight_shape(pl))

    # -- session steps ---------------------------------------------------------------

    def distribute_weights(self) -> None:
        """A no-op, never called; perfbench/spans.py wraps it by name."""

    def run(self, input_share: np.ndarray) -> np.ndarray:
        """Execute every plan layer; returns this party's output share."""
        return run_plan(self.plan, input_share, self)[self.plan.output_name]


def _spans(sizes: tuple):
    """(index, first digit, digits) of each group of ``sizes``, lowest first."""
    lo = 0
    for i, k in enumerate(sizes):
        yield i, lo, k
        lo += k


def _merge_tables() -> tuple:
    """Index tables of ``PartyEngine._merge``, one row per mask product.

    Rows are the empty product, then ``MERGE_SUBSETS``.  Product L_l E_a
    sits only in L_l's monomial of lt, with coefficient the public product
    of the E above l outside a.  Product E_a, lowest digit t, sits in
    every lt monomial L_s E_(s+1..) with s < t, so its coefficient is the
    public product of the E from t up outside a times the public lt of the
    digits under t (``below[t]``); in eq its coefficient is the public
    product of the E outside a.  Index 32 of the E products is zero, and
    ``below[6]`` all ones.  Last, the digit bits each product reads.
    """
    d, full = MERGE_DIGITS, (1 << MERGE_DIGITS) - 1
    lt_e, lt_b, eq_e = [], [], []
    for l, a in ((d, 0),) + MERGE_SUBSETS:
        t = l + 1 if l < d else (a & -a).bit_length() - 1 if a else d
        lt_e.append(full & ~((1 << t) - 1) ^ a)
        lt_b.append(d + 1 if l < d else t)
        eq_e.append(full + 1 if l < d else full ^ a)
    reads = np.array([[l == v for v in range(d)] + [a >> e & 1 for e in range(d)]
                      for l, a in MERGE_SUBSETS], bool)
    return np.array(lt_e), np.array(lt_b), np.array(eq_e), reads


_LT_E, _LT_B, _EQ_E, _READS = _merge_tables()


def _weight_shape(pl):
    """Shape of the layer's encoded weights, derived from public attributes."""
    a = pl.attrs
    if pl.kind == "fully-connected":
        return (a["out_features"], a["in_features"])
    k = a["tile"] if a.get("winograd") else a["kernel"]
    return (a["out_channels"], a["in_channels"] // a.get("groups", 1), k, k)


def _flat_slice(arr: np.ndarray, pos: int, m: int) -> np.ndarray:
    """arr.reshape(-1)[pos:pos+m]: a view of a contiguous arr, else a copy.

    The copy touches only the slice's elements: the whole leading-axis rows
    in one step, a partial row at either end by recursion into it, so a
    broadcast view costs m elements however long its rows are.
    """
    if arr.flags.c_contiguous:
        return arr.reshape(-1)[pos:pos + m]
    row = arr.size // arr.shape[0]
    r, off = divmod(pos, row)
    head = min(-off % row, m)       # the end of a row already begun
    r += off > 0
    if head == m:
        return _flat_slice(arr[r - 1], off, m)
    rows, tail = divmod(m - head, row)
    out = np.empty(m, dtype=arr.dtype)
    if head:
        out[:head] = _flat_slice(arr[r - 1], off, head)
    out[head:m - tail].reshape((rows,) + arr.shape[1:])[...] = arr[r:r + rows]
    if tail:
        out[m - tail:] = _flat_slice(arr[r + rows], 0, tail)
    return out
