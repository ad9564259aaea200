"""Two-party online protocol over additive shares.

The engine does not walk the plan itself.  ``PartyEngine.run`` hands the
plan to ``plan.run_plan``, which codes every layer's linear steps once for
clear and secure execution, and the engine is that walker's backend,
handed each step's ``PlanLayer``: ``mul_sum`` is a Beaver multiplication
whose products are summed as they are opened, ``relu`` and ``truncate``
are the protocols below, ``add_bias`` adds a public bias to the model
owner's share only, ``note_local`` writes a zero-byte ledger row, and
``weight`` returns the party's share (W, 0) of the layer's weights,
drawing nothing.  A truncation whose sole reader is a
ReLU also shares its input's sign, and the engine keeps that share until
the ReLU takes it.

Below the backend, every op names its layer by name alone, as the ledger,
material errors and traces do.  Each frame's layer tag is derived from that
name where the frame is built or checked: a plan layer's index in the plan,
and ``SESSION_TAG`` for the session's own frames, named ``"session"``.

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

A batch of comparisons (a truncation's borrow, wrap and sign tests, or
one ReLU's or maxpool level's sign tests) runs as one vectorized pass
over all its jobs and digit groups, whatever their widths.  One shift
over digit-major rows selects every job's table bits and one
``packbits`` packs them, so the batch's state is a single array of
packed rows.  Each merge open and the gate gather their inputs from that
array, and the next state from the merged rows, with index tables that
depend only on the jobs' widths and are built once per width tuple
(``_lt_layout``).  The gate's masks and its local finish also run once
for all jobs.  The opened words, their order and the records each group
takes are those of evaluating the groups job by job, lowest first.

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

import functools
from typing import NamedTuple

import numpy as np

from .. import errors
from .. import plan as plan_mod
from ..errors import TransportError, XConvError
from ..plan import (
    MERGE_DIGITS,
    MERGE_RECORD,
    FixedPlan,
    ProductSum,
    flat_blocks,
    lt_digits,
    merge_groups,
    run_plan,
    slice_steps,
)
from .material import (
    MERGE_MASKS,
    MERGE_SUBSETS,
    MaterialStore,
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
_V_PLACE = np.array([1, 2, 4, 8], np.uint8)  # the gate's v from its four opened bits


class ProtocolAbort(XConvError):
    """Peer sent an abort frame; a reason "<error class>: ..." exits with
    that class's family (``family``), any other reason 1."""

    def __init__(self, reason: str):
        super().__init__(reason)
        cls = getattr(errors, reason.partition(":")[0], None)
        self.family = cls if isinstance(cls, type) and issubclass(cls, XConvError) else None
        if self.family is not None:
            self.exit_code = cls.exit_code


def send_abort(transport: Transport, reason: str) -> None:
    """Tell the peer this party stops, if the transport still carries it."""
    try:
        transport.send(Frame(OP_ABORT, SESSION_TAG, reason.encode()))
    except TransportError:
        pass


# -- bit packing -------------------------------------------------------------------


def pack_bitplanes(bits: np.ndarray) -> np.ndarray:
    """(..., N) bits (any nonzero is 1) -> (..., ceil(N/64)) packed words,
    element e at bit e&63."""
    n = bits.shape[-1]
    packed = np.zeros(bits.shape[:-1] + (8 * -(-n // 64),), np.uint8)
    packed[..., :-(-n // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view("<u8")


def unpack_bitplanes(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_bitplanes; returns (..., n) uint8 bits."""
    raw = np.ascontiguousarray(words, "<u8").view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=n, bitorder="little")


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
        # Each frame's layer tag: a plan layer's index, or the session's.
        self._tags = {pl.name: i for i, pl in enumerate(plan.layers)}
        self._tags["session"] = SESSION_TAG
        self._signs = {}  # [signed(x) < 0] shares a truncation kept for its ReLU
        self._scratch = np.empty((3, plan_mod.SLICE), _U64)  # beaver's d, e and z

    # -- framing ------------------------------------------------------------

    def _send(self, frame: Frame, layer: str, op: str) -> None:
        try:
            self.transport.send(frame)
        except TransportError as e:
            if isinstance(e.__cause__, ConnectionError):
                self._raise_peer_abort()
            raise TransportError(f"{e} at {layer}/{op}") from e
        self.ledger.record_send(layer, op, len(frame.payload))

    def _raise_peer_abort(self) -> None:
        """Raise the abort a peer sent before it closed the connection, if
        the stream, read to its end, holds one."""
        while True:
            try:
                frame = self.transport.recv()
            except TransportError:
                return
            if frame.opcode == OP_ABORT:
                raise ProtocolAbort(str(frame.payload, "utf-8", "replace"))

    def _recv(self, expect_opcode: int, layer: str, op: str) -> Frame:
        expect_tag = self._tags[layer]
        try:
            frame = self.transport.recv()
        except TransportError as e:
            raise TransportError(f"{e} at {layer}/{op}") from e
        if frame.opcode == OP_ABORT:
            raise ProtocolAbort(str(frame.payload, "utf-8", "replace"))
        if frame.opcode != expect_opcode or frame.layer_tag != expect_tag:
            raise TransportError(
                f"protocol desync at {layer}/{op}: expected opcode "
                f"{expect_opcode} tag {expect_tag}, got {frame.opcode} "
                f"tag {frame.layer_tag}")
        self.ledger.record_recv(layer, op, len(frame.payload))
        return frame

    def exchange(self, opcode: int, payload, layer: str, op: str):
        """Symmetric opening: model owner writes first, client reads first.

        The peer's payload is valid only until this engine's next receive:
        over a socket it is a view of the transport's one receive buffer,
        which the next frame overwrites.  Copy what must outlive it.
        """
        frame = Frame(opcode, self._tags[layer], payload)
        if self.party == 0:
            self._send(frame, layer, op)
            peer = self._recv(opcode, layer, op)
        else:
            peer = self._recv(opcode, layer, op)
            self._send(frame, layer, op)
        self.ledger.bump_round(layer, op)
        return peer.payload

    def send_oneway(self, opcode: int, payload: bytes, layer: str, op: str) -> None:
        self._send(Frame(opcode, self._tags[layer], payload), layer, op)
        self.ledger.bump_round(layer, op)

    def recv_oneway(self, opcode: int, layer: str, op: str) -> bytes:
        """The peer's payload, valid only until the next receive (see
        ``exchange``)."""
        frame = self._recv(opcode, layer, op)
        self.ledger.bump_round(layer, op)
        return frame.payload

    def abort(self, reason: str) -> None:
        send_abort(self.transport, reason)

    # -- arithmetic primitives -----------------------------------------------

    def _open_words(self, shares: np.ndarray, layer: str, op: str) -> np.ndarray:
        flat = np.ascontiguousarray(shares, dtype="<u8")
        peer = self.exchange(OP_OPEN_MASKED, flat, layer, op)
        other = np.frombuffer(peer, dtype="<u8").reshape(flat.shape)
        return (flat + other) & self.mask

    def beaver(self, x: np.ndarray, y: np.ndarray, layer: str,
               kind: str = "mul", axis: int = None) -> np.ndarray:
        """Pairwise secret multiplication of equal-shape share arrays.

        Returns the products, or with ``axis`` their sums over that axis
        (``plan.ProductSum``).  ``kind`` names the triple stream, "mul" or
        "aux", and the ledger op is its open.  Inputs may be broadcast
        views.  Each ``BEAVER_CHUNK`` of m products, in the inputs' flat
        order, writes x - a and y - b straight from the inputs' blocks
        (``plan.flat_blocks``) into one fresh (2m,) payload and masks it,
        slice by slice, and sends it as it is.  It then finishes z = c +
        d b + e a (+ d e on party 0, as d b + e (a + d)) in ``SLICE``-element
        steps, d, e and z in the engine's three reused slice buffers, and
        adds each step's z into the sums (or writes it to the output).
        Beyond the output, a chunk holds the two parties' payloads.
        """
        shape, n = x.shape, x.size
        total = None if axis is None else ProductSum(shape, axis)
        out = np.empty(n, dtype=_U64) if total is None else None
        pos = 0
        while pos < n:
            m = min(plan_mod.BEAVER_CHUNK, n - pos)
            a, b, c = self.material.take(kind, m, layer)
            mine = np.empty(2 * m, dtype=_U64)
            for s in range(0, m, plan_mod.SLICE):
                t = min(s + plan_mod.SLICE, m)
                blocks = list(flat_blocks(shape, pos + s, t - s))
                for half, v, w in ((mine[s:t], x, a[s:t]), (mine[m + s:m + t], y, b[s:t])):
                    for idx, i, j in blocks:
                        blk = v[idx]
                        np.subtract(blk, w[i:j].reshape(blk.shape),
                                    out=half[i:j].reshape(blk.shape))
                    half &= self.mask
            peer = np.frombuffer(self.exchange(OP_OPEN_MASKED, mine, layer,
                                               f"{kind}-open"), dtype="<u8")
            for s, t in slice_steps(pos, m, 1 if total is None else total.group):
                d, e, z = self._scratch[:, :t - s]     # mod 2^64; the ring mask comes last
                if total is None:
                    z = out[pos + s:pos + t]
                np.add(mine[s:t], peer[s:t], out=d)
                np.add(mine[m + s:m + t], peer[m + s:m + t], out=e)
                np.multiply(d, b[s:t], out=z)
                z += c[s:t]
                if self.party == 0:
                    d += a[s:t]
                    e *= d
                else:
                    e *= a[s:t]
                z += e
                if total is None:
                    z &= self.mask
                else:
                    total.add(z, pos + s)
            del mine, peer
            pos += m
        return out.reshape(shape) if total is None else total.result(self.mask)

    # -- boolean circuit -------------------------------------------------------

    def _open_bool(self, words: np.ndarray, layer: str) -> np.ndarray:
        """Open XOR-shared (masked) words in one frame."""
        flat = np.ascontiguousarray(words, dtype="<u8")
        peer = self.exchange(OP_OPEN_BOOL, flat, layer, "bool-open")
        return flat ^ np.frombuffer(peer, dtype="<u8").reshape(flat.shape)

    def _merge(self, state: np.ndarray, rnd: MergeRound, layer: str) -> np.ndarray:
        """One merge open over the packed rows of ``state``.

        ``rnd`` (see ``merge_round``) names the groups of k >= 2 digits,
        lowest first, and the rows of their lt and eq bits.  A group takes
        one merge record per word (``material.MERGE_SUBSETS``), its digits
        at the record's top k.  Each digit bit x it reads is opened as
        X = x ^ m for the record's mask m; then every monomial of lt and
        eq, a product of x = X ^ m, expands into a XOR of public products
        of X with the record's shares of the mask products, so no further
        message is needed.  Mask words of digits a group lacks, or of the
        lowest group's unread E, are zeroed, and those digits enter as the
        public L = 0, E = 1.  Returns (2G, W) rows: each group's lt, then
        each group's eq.
        """
        n_groups, w = rnd.groups, state.shape[1]
        (words,) = self.material.take("bool", MERGE_RECORD * n_groups * w, layer)
        # Row 0 is this party's share of the constant 1, then the records.
        shares = np.empty((1 + MERGE_RECORD, n_groups, w), _U64)
        shares[0] = ~_U64(0) if self.party == 0 else 0
        shares[1:] = words.reshape(n_groups, w, MERGE_RECORD).transpose(2, 0, 1)
        shares[rnd.unread] = 0
        mine = state[rnd.src]
        mine ^= shares[_MASK_ROW[rnd.slot], rnd.group]
        # Public rows (``_PUBLIC``): the products of the E in each bitmask,
        # a zero row, then L0..L4; an unread L is 0 and an unread E is 1.
        public = np.empty((_PUBLIC, n_groups, w), _U64)
        public[:_ZERO] = ~_U64(0)
        public[_ZERO:] = 0
        public[_DIGIT_ROW[rnd.slot], rnd.group] = self._open_bool(mine, layer)
        public = public.reshape(_PUBLIC, -1)
        for i in range(1, MERGE_DIGITS):
            np.bitwise_and(public[1:1 << i], public[1 << i],
                           out=public[(1 << i) + 1:2 << i])
        below = np.bitwise_xor.reduce(public[_BELOW_L] & public[_BELOW_E], axis=1)
        terms = public[_TERMS]                  # (2, 1 + MERGE_RECORD, G W)
        terms[0] &= below[_LT_B]
        terms &= shares.reshape(1 + MERGE_RECORD, -1)
        return np.bitwise_xor.reduce(terms, axis=1).reshape(2 * n_groups, w)

    def less_than_mask(self, jobs: list, layer: str) -> np.ndarray:
        """Additive shares of [c < r] XOR flip for each job, in one pass.

        A job is (c_pub, tables, gate, n_bits, flip): n public values, this
        party's share of the dealer's digit tables for the low n_bits of r,
        its gate record (bytes of five mask bits and the (n, 16) u shares)
        and a public bit flip (0 or per element).  All jobs compare the
        same n elements.  ``material.select_table_bits`` picks every job's
        shares of [c_j < r_j] and [c_j = r_j] at its public digits in one
        shift, without a message, and one ``pack_bitplanes`` packs them
        into 64-element words: the batch's state is one array of packed
        rows, every job's lt digits, then their eq digits, then a zero row.
        While a job has more than three digit groups, one open merges them
        in groups of up to five (``plan.merge_groups``, ``_merge``) and a
        gather forms the next state.  The gate then closes the three left,
        lowest first (L0), (L1, E1) and (L2, E2), as lt = L2 ^ h(L0, E1,
        L1, E2): f = L2 ^ g and v = (L0, E1, L1, E2) ^ masks are opened,
        and ``bits_to_arith`` finishes f ^ flip ^ u_v locally.  A job with
        fewer groups enters zeros for the missing lower ones.  The gathers
        are a pure function of the jobs' widths (``_lt_layout``), and all
        jobs share each open, so the rounds are those of the widest job
        alone.  Returns the jobs' shares concatenated in job order.
        """
        c_pub, tables, gates, widths, flips = zip(*jobs)
        rounds, gate_rows = _lt_layout(widths)
        n = c_pub[0].size
        bits = select_table_bits(tables, np.stack(c_pub), widths)
        state = pack_bitplanes(bits.reshape(-1, n))
        state = np.concatenate([state, np.zeros((1, state.shape[1]), _U64)])
        for rnd, after in rounds:
            state = np.concatenate([state, self._merge(state, rnd, layer)])[after]
        masked = state[gate_rows]                       # (5, jobs, W)
        masked ^= pack_bitplanes(gate_bits(np.stack([rec for rec, _ in gates])))
        bits = unpack_bitplanes(self._open_bool(masked, layer), n)
        v = np.einsum("kjn,k->jn", bits[:4], _V_PLACE)
        f = bits[4]
        u = np.empty(v.shape, _U64)
        pos = np.arange(n)
        for j, ((_, u_j), flip) in enumerate(zip(gates, flips)):
            u[j] = u_j[pos, v[j]]
            f[j] ^= flip
        return self.bits_to_arith(f, u).reshape(-1)

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

    def relu_shares(self, x: np.ndarray, layer: str, neg: np.ndarray = None) -> np.ndarray:
        """max(signed(x), 0) on flat share words, exactly.

        ``neg``, an additive share of [signed(x) < 0] computed by the
        truncation that produced x, leaves only the sign-bit product.
        """
        flat = x.reshape(-1)
        if neg is None:
            r_arith, u, tables, abg = self.material.take("cmp", flat.size, layer)
            c = self._open_words((flat + r_arith) & self.mask, layer, "mask-open")
            neg = self.less_than_mask([self._sign_job(c, tables, (abg, u))], layer)
        prod = self.beaver(flat, neg, layer, kind="aux")
        return ((flat - prod) & self.mask).reshape(x.shape)

    def truncate_shares(self, x: np.ndarray, layer: str, sign: bool = False):
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
        opened = self._open_words(masked, layer, "mask-open")
        c = opened[:n]
        ds = lt_digits(s)
        jobs = [(c & _U64((1 << s) - 1), tables[:, :ds], (abg[:, 0], u[:, 0]), s, 0),
                (c, tables[:, ds:], (abg[:, 1], u[:, 1]), self.bitwidth, 0)]
        if sign:
            jobs.append(self._sign_job(opened[n:], q_tables, (q_abg, q_u)))
        arith = self.less_than_mask(jobs, layer)
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

    def mul_sum(self, x: np.ndarray, y: np.ndarray, axis: int, pl) -> np.ndarray:
        return self.beaver(x, y, pl.name, axis=axis)

    def relu(self, x: np.ndarray, pl) -> np.ndarray:
        """``relu_shares``, fed the sign share kept for its input, if any."""
        neg = self._signs.pop(pl.inputs[0], None)
        return self.relu_shares(x, pl.name, neg=neg)

    def truncate(self, x: np.ndarray, pl) -> np.ndarray:
        """``truncate_shares``; a ``relu_sign`` layer keeps its sign share."""
        if not pl.relu_sign:
            return self.truncate_shares(x, pl.name)
        out, self._signs[pl.name] = self.truncate_shares(x, pl.name, sign=True)
        return out

    def add_bias(self, pre: np.ndarray, b: np.ndarray, pl) -> np.ndarray:
        """Public constant: only the model owner adds it to its share."""
        if self.party != 0:
            return pre
        self.ledger.note_local(pl.name, "bias")
        return (pre + b) & self.mask

    def note_local(self, pl, op: str) -> None:
        self.ledger.note_local(pl.name, op)

    def weight(self, pl) -> np.ndarray:
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


def _merge_tables() -> tuple:
    """Index tables of ``PartyEngine._merge``'s local finish.

    Its public rows are the products of the opened E in each 5-bit mask
    (row 0 the empty product, a single E its own row), a zero row at
    ``_ZERO``, then L0..L4.  ``below[t]``, the public lt of the digits
    under t, is the XOR over s < t of L_s times the E strictly between
    s and t; ``below[6]`` is all ones.  Each mask product, the empty one
    first and then ``MERGE_SUBSETS``, has one term in lt and one in eq.
    Product L_l E_a sits only in L_l's monomial of lt, with coefficient
    the public product of the E above l outside a.  Product E_a, lowest
    digit t, sits in every lt monomial L_s E_(s+1..) with s < t, so its
    coefficient is the public product of the E from t up outside a times
    ``below[t]``; in eq its coefficient is the public product of the E
    outside a.  Last, the digit bits each product reads.
    """
    d, full = MERGE_DIGITS, (1 << MERGE_DIGITS) - 1
    lt_e, lt_b, eq_e = [], [], []
    for l, a in ((d, 0),) + MERGE_SUBSETS:
        t = l + 1 if l < d else (a & -a).bit_length() - 1 if a else d
        lt_e.append(full & ~((1 << t) - 1) ^ a)
        lt_b.append(d + 1 if l < d else t)
        eq_e.append(full + 1 if l < d else full ^ a)
    below_l = np.full((d + 2, d), full + 1)      # the zero row: no term
    below_e = np.zeros((d + 2, d), int)
    for t in range(d + 1):
        for s in range(t):
            below_l[t, s] = full + 2 + s
            below_e[t, s] = (1 << t) - (2 << s)
    below_l[d + 1, 0] = 0                         # the empty product: ones
    reads = np.array([[l == v for v in range(d)] + [a >> e & 1 for e in range(d)]
                      for l, a in MERGE_SUBSETS], bool)
    return np.array([lt_e, eq_e]), np.array(lt_b), below_l, below_e, reads


_TERMS, _LT_B, _BELOW_L, _BELOW_E, _READS = _merge_tables()
_ZERO = 1 << MERGE_DIGITS
_PUBLIC = _ZERO + 1 + MERGE_DIGITS
# Per record digit, L0..L4 then E0..E4: its row among the public rows, and
# its mask's row in a party's record shares (row 0 is the constant).
_DIGIT_ROW = np.array([_ZERO + 1 + t for t in range(MERGE_DIGITS)]
                      + [1 << t for t in range(MERGE_DIGITS)])
_MASK_ROW = 1 + MERGE_MASKS


class MergeRound(NamedTuple):
    """Index tables of one merge open (``PartyEngine._merge``).

    The opened bits are listed in the open's order: record digit slot
    first (L0..L4, then E0..E4), then group.
    """

    src: np.ndarray    # (K,) state row of each opened bit
    slot: np.ndarray   # (K,) its record digit: 0..4 for L0..L4, 5..9 for E0..E4
    group: np.ndarray  # (K,) its group
    groups: int        # G
    unread: tuple      # (share row, group) of each mask product a group does not read


def merge_round(groups: tuple) -> MergeRound:
    """The ``MergeRound`` of groups given as (lt rows, eq rows, lowest).

    A group of k digits lists its k state rows of each, lowest digit
    first, and sits at the record's top k digits; the lowest group of a
    comparison reads no E of its lowest digit.
    """
    d = MERGE_DIGITS
    read = np.zeros((2 * d, len(groups)), bool)
    src = np.zeros((2 * d, len(groups)), np.intp)
    for g, (lt, eq, lowest) in enumerate(groups):
        k = len(lt)
        src[d - k:d, g], src[2 * d - k:, g] = lt, eq
        read[d - k:d, g] = read[2 * d - k + lowest:, g] = True
    slot, group = np.nonzero(read)
    word, unread = np.nonzero((_READS[:, None, :] & ~read.T).any(axis=2))
    return MergeRound(*_frozen((src[slot, group], slot, group)), len(groups),
                      _frozen((1 + word, unread)))


@functools.lru_cache(maxsize=32)
def _lt_layout(widths: tuple) -> tuple:
    """The gathers of a comparison batch, a pure function of its widths.

    A state holds the packed rows of each job's digit groups: every
    job's lt rows in job order, then their eq rows, then a zero row.
    Returns the merge opens, each a ``MergeRound`` with the state rows
    the next state gathers from the state and the merged rows after it,
    and the (5, jobs) state rows of the gate inputs L0, E1, L1, E2 and
    L2, the zero row for a group a job lacks.
    """
    units = [lt_digits(w) for w in widths]
    rounds = []
    while max(units) > 3:
        total = sum(units)
        plans = [merge_groups(u) if u > 3 else (1,) * u for u in units]
        n_groups = sum(k > 1 for sizes in plans for k in sizes)
        merged = 2 * total + 1      # the merged lt rows, then their eq rows
        groups, lt_next, eq_next, lo = [], [], [], 0
        for sizes in plans:
            for i, k in enumerate(sizes):
                if k > 1:
                    lt_next.append(merged + len(groups))
                    eq_next.append(merged + n_groups + len(groups))
                    groups.append((range(lo, lo + k), range(total + lo, total + lo + k),
                                   i == 0))
                else:
                    lt_next.append(lo)
                    eq_next.append(total + lo)
                lo += k
        rounds.append((merge_round(tuple(groups)),
                       _frozen(np.array(lt_next + eq_next + [2 * total]))))
        units = [len(sizes) for sizes in plans]
    total, zero = sum(units), 2 * sum(units)
    gate, start = [], 0
    for u in units:
        lt = [start + u - i if i <= u else zero for i in (3, 2, 1)]    # L0, L1, L2
        eq = [row + total if row != zero else zero for row in lt]
        gate.append((lt[0], eq[1], lt[1], eq[2], lt[2]))
        start += u
    return tuple(rounds), _frozen(np.array(gate).T)


def _frozen(arrays):
    """Mark an index table, or each array of a tuple of them, read-only."""
    for a in arrays if isinstance(arrays, tuple) else (arrays,):
        a.setflags(write=False)
    return arrays


def _weight_shape(pl):
    """Shape of the layer's encoded weights, derived from public attributes."""
    a = pl.attrs
    if pl.kind == "fully-connected":
        return (a["out_features"], a["in_features"])
    k = a["tile"] if a.get("winograd") else a["kernel"]
    return (a["out_channels"], a["in_channels"] // a.get("groups", 1), k, k)

