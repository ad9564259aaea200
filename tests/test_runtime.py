"""Two-party engine: primitives against clear oracles, sessions bit-for-bit.

Primitive tests drive two engines over the in-process transport and check
reconstructions against plain ring arithmetic; session tests assert the
headline contract, exact bit equality with the clear fixed-point
reference, plus the byte-accounting invariants.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xconv2pc.errors import (
    HandshakeError,
    MaterialError,
    TransportError,
    VerificationError,
)
from xconv2pc.graph import INPUT, CellVariant, GraphBuilder, cell_graph
from xconv2pc.clear import infer_fixed, infer_float
from xconv2pc.costs import count_mults
from xconv2pc.plan import (
    MERGE_RECORD,
    PlanRequirements,
    build_plan,
    execute_plan_clear,
    lt_cost,
    lt_digits,
)
from xconv2pc.ring import (
    FixedPointConfig,
    RingTensor,
    encode_fixed,
    ring_mul,
    truncate_signed,
)
from xconv2pc import plan as plan_mod
from xconv2pc.runtime.material import (
    MERGE_MASKS,
    digit_tables,
    gate_values,
    generate_material,
    load_material,
    prg,
    uniform,
    verify_material_pair,
    write_material,
)
from xconv2pc.runtime import session
from xconv2pc.runtime.protocol import (
    PartyEngine,
    ProtocolAbort,
    _flat_slice,
    pack_bitplanes,
    unpack_bitplanes,
)
from xconv2pc.runtime.session import secure_infer_local
from xconv2pc.runtime.wire import QueueTransport, ledgers_mirror
from xconv2pc.zoo import model_zoo

CFG = FixedPointConfig()


class _StubPlan:
    """Just enough plan surface for primitive-level engine tests."""

    def __init__(self, cfg=CFG, **req):
        self.cfg = cfg
        self.graph_hash = "00" * 32
        self._req = PlanRequirements(
            mul_triples=req.get("mul", 0), aux_triples=req.get("aux", 0),
            trunc_units=req.get("trunc", 0), cmp_tuples=req.get("cmp", 0),
            bool_words=req.get("bool_words", 0))

    def requirements(self):
        return self._req


def _spec(g, name):
    """The graph's layer spec called ``name``."""
    return next(l for l in g.layers if l.name == name)


def run_two(fn, plan, seed=0):
    """Run fn(engine) on both parties concurrently; returns both results."""
    m0, m1 = generate_material(plan, seed)
    t0, t1 = QueueTransport.pair()
    e0 = PartyEngine(0, plan, t0, m0, rng_seed=seed)
    e1 = PartyEngine(1, plan, t1, m1, rng_seed=seed)
    out = {}
    err = {}

    def side(engine):
        try:
            out[engine.party] = fn(engine)
        except Exception as e:
            err[engine.party] = e

    th = threading.Thread(target=side, args=(e0,), daemon=True)
    th.start()
    side(e1)
    th.join(timeout=120)
    for e in err.values():
        raise e
    return out[0], out[1], e0, e1


def _recon(words0, words1):
    return (words0 + words1) & np.uint64(2**60 - 1)


def _split(x, rng):
    """Two additive shares of x's words, one per party."""
    s0 = rng.integers(0, 1 << x.bitwidth, size=x.shape, dtype=np.uint64)
    return s0, (x.words - s0) & np.uint64((1 << x.bitwidth) - 1)


# -- sharing ------------------------------------------------------------------


def test_share_low_bits_uniform_chi_square():
    # The expansion the client's weight shares and party 0's input share
    # are drawn from.
    s0 = uniform(prg(bytes(range(16)), 0), 1_000_000, 60)
    low = (s0 & np.uint64(0xFF)).astype(np.int64)
    counts = np.bincount(low, minlength=256)
    expected = low.size / 256
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # Critical value for df=255 at p=0.01.
    assert chi2 < 310.457


# -- dealer material ------------------------------------------------------------


def test_material_counts_match_counter():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=1)
    plan = build_plan(g)
    m0, m1 = generate_material(plan, 5)
    from xconv2pc.graph import fold_batchnorm

    assert m0.counts()["mul"] == sum(count_mults(fold_batchnorm(g)).values())
    assert m0.counts() == m1.counts()


def test_material_deterministic_and_valid(tmp_path):
    plan = _StubPlan(mul=1000, aux=100, trunc=50, cmp=50, bool_words=8 * MERGE_RECORD)
    m0, m1 = generate_material(plan, 42)
    verify_material_pair(m0, m1, CFG)
    p = tmp_path / "m.dlr"
    write_material(m0, str(p))
    first = p.read_bytes()
    write_material(generate_material(plan, 42)[0], str(p))
    assert p.read_bytes() == first
    write_material(generate_material(plan, 43)[0], str(p))
    assert p.read_bytes() != first


def test_material_triples_reconstruct_to_products():
    plan = _StubPlan(mul=5000)
    m0, m1 = generate_material(plan, 6)
    a = _recon(m0.arrays["mul_a"], m1.arrays["mul_a"])
    b = _recon(m0.arrays["mul_b"], m1.arrays["mul_b"])
    c = _recon(m0.arrays["mul_c"], m1.arrays["mul_c"])
    assert np.array_equal((a * b) & np.uint64(2**60 - 1), c)


def test_material_corruption_detected(tmp_path):
    plan = _StubPlan(mul=100)
    m0, _ = generate_material(plan, 7)
    p = tmp_path / "m.dlr"
    write_material(m0, str(p))
    blob = bytearray(p.read_bytes())
    blob[120] ^= 0x40
    p.write_bytes(bytes(blob))
    with pytest.raises(MaterialError, match="integrity"):
        load_material(str(p))


def test_material_version_1_rejected(tmp_path):
    import hashlib

    m0, _ = generate_material(_StubPlan(trunc=4, cmp=4), 7)
    p = tmp_path / "m.dlr"
    write_material(m0, str(p))
    blob = bytearray(p.read_bytes()[:-32])
    assert blob[4] == 4
    for old in (1, 2, 3):               # well-formed files of the old formats
        blob[4] = old
        p.write_bytes(bytes(blob) + hashlib.sha256(blob).digest())
        with pytest.raises(MaterialError, match=f"version {old}"):
            load_material(str(p))


@pytest.mark.parametrize("bit", [2, 12, 20])          # lt and eq entries; the
@pytest.mark.parametrize("stream", ["trunc_tab", "cmp_tab"])  # 59-bit top is 3 wide
def test_material_table_bit_flip_detected(tmp_path, stream, bit):
    plan = _StubPlan(trunc=50, cmp=50)
    m0, m1 = generate_material(plan, 8)
    p = tmp_path / "m.dlr"
    write_material(m1, str(p))
    m1 = load_material(str(p))          # the tables survive the file round trip
    verify_material_pair(m0, m1, CFG)
    m1.arrays[stream][17, -1] ^= np.uint32(1 << bit)
    with pytest.raises(MaterialError, match="tables"):
        verify_material_pair(m0, m1, CFG)


def test_material_verification_memory_is_bounded_by_its_sample():
    import tracemalloc

    big, small = 1 << 19, 1 << 17
    plan = _StubPlan(mul=big, aux=big, trunc=small, cmp=small,
                     bool_words=big // MERGE_RECORD * MERGE_RECORD)
    m0, m1 = generate_material(plan, 110)
    tracemalloc.start()
    try:
        verify_material_pair(m0, m1, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A whole triple stream is 4 MiB, the truncation gates' u stream 32 MiB;
    # the 4,096-entry sample takes under 4 MiB.
    assert peak < 4 * 2**20


def test_material_gate_record_flip_detected():
    plan = _StubPlan(trunc=50, cmp=50)
    # A mask bit, g, u_0 and u_15 of one gate.
    for name, at, bit in (("trunc_gate", 37, 1), ("cmp_gate", 37, 16),
                          ("trunc_u", 16 * 37, 1), ("cmp_u", 16 * 37 + 15, 1)):
        m0, m1 = generate_material(plan, 9)
        flat = m1.arrays[name].reshape(-1)
        flat[at] ^= flat.dtype.type(bit)
        with pytest.raises(MaterialError, match="gate records"):
            verify_material_pair(m0, m1, CFG)


@pytest.mark.parametrize("word", [MERGE_MASKS[3], 61])   # a mask, a product
def test_material_merge_record_flip_detected(word):
    m0, m1 = generate_material(_StubPlan(bool_words=4 * MERGE_RECORD), 10)
    verify_material_pair(m0, m1, CFG)
    m1.arrays["bool_merge"][2 * MERGE_RECORD + word] ^= np.uint64(1 << 40)
    with pytest.raises(MaterialError, match="merge records"):
        verify_material_pair(m0, m1, CFG)


def test_material_exhaustion_raises():
    plan = _StubPlan(mul=10)
    m0, _ = generate_material(plan, 8)
    m0.take("mul", 8)
    with pytest.raises(MaterialError, match="exhausted"):
        m0.take("mul", 8)


# -- bit packing -----------------------------------------------------------------


def test_bitplane_pack_roundtrip():
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, size=(5, 137)).astype(np.uint64)
    packed = pack_bitplanes(bits)
    assert packed.shape == (5, 3)
    back = unpack_bitplanes(packed, 137)
    assert np.array_equal(back, bits.astype(np.uint8))


# -- primitives over the transport --------------------------------------------------


def test_beaver_random_vs_clear_oracle():
    rng = np.random.default_rng(10)
    n = 100_000
    x = RingTensor(rng.integers(0, 2**60, size=n, dtype=np.uint64), 60)
    y = RingTensor(rng.integers(0, 2**60, size=n, dtype=np.uint64), 60)
    x_sh = _split(x, rng)
    y_sh = _split(y, rng)

    def fn(engine):
        return engine.beaver(x_sh[engine.party], y_sh[engine.party], 0, "t")

    r0, r1, *_ = run_two(fn, _StubPlan(mul=n), seed=11)
    assert np.array_equal(_recon(r0, r1), ring_mul(x, y).words)


def test_beaver_zero_and_one():
    rng = np.random.default_rng(12)
    one = encode_fixed(np.array([1.0, 0.0]), CFG)
    other = encode_fixed(np.array([1.0, 5.0]), CFG)
    x_sh = _split(one, rng)
    y_sh = _split(other, rng)

    def fn(engine):
        return engine.beaver(x_sh[engine.party], y_sh[engine.party], 0, "t")

    r0, r1, *_ = run_two(fn, _StubPlan(mul=2), seed=13)
    got = _recon(r0, r1)
    assert int(got[0]) == 2**46        # 1.0 * 1.0 at doubled scale
    assert int(got[1]) == 0            # 0 * anything


def test_beaver_bytes_are_16_per_mult():
    rng = np.random.default_rng(14)
    n = 4096
    x = RingTensor(rng.integers(0, 2**60, size=n, dtype=np.uint64), 60)
    x_sh = _split(x, rng)

    def fn(engine):
        return engine.beaver(x_sh[engine.party], x_sh[engine.party], 0, "t")

    _, _, e0, e1 = run_two(fn, _StubPlan(mul=n), seed=15)
    assert e0.ledger.bytes_for("t", "mul-open") == 16 * n
    assert e1.ledger.bytes_for("t", "mul-open") == 16 * n


def test_beaver_open_holds_its_payloads_and_a_few_slices():
    import tracemalloc

    n = 1_024_000
    rng = np.random.default_rng(16)
    x = RingTensor(rng.integers(0, 2**60, size=n, dtype=np.uint64), 60)
    y = RingTensor(rng.integers(0, 2**60, size=n, dtype=np.uint64), 60)
    x_sh, y_sh = _split(x, rng), _split(y, rng)
    plan = _StubPlan(mul=n)
    m0, m1 = generate_material(plan, 17)
    t0, t1 = QueueTransport.pair()
    engines = (PartyEngine(0, plan, t0, m0), PartyEngine(1, plan, t1, m1))
    out = {}

    def side(e):
        out[e.party] = e.beaver(x_sh[e.party], y_sh[e.party], 0, "t")

    tracemalloc.start()
    try:
        th = threading.Thread(target=side, args=(engines[0],), daemon=True)
        th.start()
        side(engines[1])
        th.join(timeout=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not th.is_alive()
    assert np.array_equal(_recon(out[0], out[1]), ring_mul(x, y).words)
    # Each party's (2n,) payload (16 B per product) and its output (8 B);
    # the local work beyond them runs in 64 K-element slices, and 4 MiB
    # holds eight slices of words.
    assert peak <= 2 * (16 * n + 8 * n + (4 << 20))


def test_dealer_peak_is_its_shares_and_at_most_one_stream():
    import tracemalloc

    plan = _StubPlan(mul=1 << 20, aux=1 << 12, trunc=1 << 12, cmp=1 << 12,
                     bool_words=64 * MERGE_RECORD)
    tracemalloc.start()
    try:
        stores = generate_material(plan, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for s in stores for a in s.arrays.values())
    stream = max(a.nbytes for a in stores[0].arrays.values())
    # Each share is written into the values it splits, so a triple stream
    # is held twice (once per party), not three times.
    assert peak <= held + stream


def test_secure_truncate_examples_and_bulk():
    rng = np.random.default_rng(16)
    n = 1_000_000
    words = rng.integers(0, 2**60, size=n, dtype=np.uint64)
    words[0] = 2**46
    words[1] = 2**60 - 1  # signed -1 ulp
    x = RingTensor(words, 60)
    x_sh = _split(x, rng)
    req = dict(trunc=n, bool_words=lt_cost(n, 23).bool_words + lt_cost(n, 60).bool_words)

    def fn(engine):
        return engine.truncate_shares(x_sh[engine.party], 0, "t")

    r0, r1, *_ = run_two(fn, _StubPlan(**req), seed=17)
    got = _recon(r0, r1)
    want = truncate_signed(x, 23).words
    assert int(got[0]) == 2**23
    assert int(got[1]) == 2**60 - 1  # floor(-1/2^23) = -1
    assert np.array_equal(got, want), f"{(got != want).sum()} mismatches"


def test_secure_relu_examples_and_bulk():
    rng = np.random.default_rng(18)
    n = 1_000_000
    words = rng.integers(0, 2**60, size=n, dtype=np.uint64)
    words[0] = 2**23            # encode(1.0)
    words[1] = 2**60 - 2**23    # encode(-1.0)
    x = RingTensor(words, 60)
    x_sh = _split(x, rng)
    req = dict(cmp=n, aux=n, bool_words=lt_cost(n, 59).bool_words)

    def fn(engine):
        return engine.relu_shares(x_sh[engine.party], 0, "t")

    r0, r1, *_ = run_two(fn, _StubPlan(**req), seed=19)
    got = _recon(r0, r1)
    want = np.maximum(x.signed(), 0).astype(np.uint64)
    assert int(got[0]) == 2**23
    assert int(got[1]) == 0
    assert np.array_equal(got, want), f"{(got != want).sum()} mismatches"


def _lt_edge_cases(n_bits, rng):
    """(c, r) pairs at n_bits: equal, off by one, extremes, one-digit gaps."""
    top = (1 << n_bits) - 1
    r = np.concatenate([[0, 1, top, top - 1, 1 << (n_bits - 1)],
                        rng.integers(0, top, size=59, endpoint=True)]).astype(np.uint64)
    low_digit = np.uint64(15 if n_bits >= 4 else top)
    top_shift = np.uint64(4 * (lt_digits(n_bits) - 1))
    rand = rng.integers(0, top, size=r.size, endpoint=True).astype(np.uint64)
    cs = [r, (r + np.uint64(1)) & np.uint64(top), (r - np.uint64(1)) & np.uint64(top),
          np.zeros_like(r), np.full_like(r, top),
          (r & ~low_digit) | (rand & low_digit),                   # lowest digit only
          (r & ((np.uint64(1) << top_shift) - np.uint64(1)))
          | ((rand >> top_shift) << top_shift),                   # top digit only
          rand]
    return np.concatenate(cs), np.tile(r, len(cs))


def _gate_shares(n, rng):
    """Both parties' gate records for n elements, as the dealer draws them."""
    rec = rng.integers(0, 32, size=n, dtype=np.uint8)
    g0 = rng.integers(0, 32, size=n, dtype=np.uint8)
    u = gate_values(rec)
    u0 = rng.integers(0, 2**60, size=u.shape, dtype=np.uint64)
    return (g0, u0), (rec ^ g0, (u - u0) & np.uint64(2**60 - 1))


def _lt_jobs(widths, seed):
    """Per-party less-than jobs over dealer-shaped tables, with the clear answer."""
    rng = np.random.default_rng(seed)
    jobs, want = ([], []), []
    for n_bits in widths:
        c, r = _lt_edge_cases(n_bits, rng)
        tab = digit_tables(r, n_bits)
        t0 = rng.integers(0, 2**32, size=tab.shape, dtype=np.uint32)
        gates = _gate_shares(c.size, rng)
        jobs[0].append((c, t0, gates[0], n_bits, 0))
        jobs[1].append((c, tab ^ t0, gates[1], n_bits, 0))
        want.append(c < r)
    return jobs, np.concatenate(want)


# Masked digit bits the merge open reveals per element: none for at most
# 3 digits; 4 digits merge as 2, 1, 1 (3 bits), 6 as 4, 1, 1 (4 lt, 3 eq),
# 15 as 5, 5, 5 (9 + 10 + 10), 16 as 5, 5, 5, 1 and then 2, 1, 1.
_MERGE_BITS = {1: 0, 4: 0, 5: 0, 12: 0, 13: 3, 23: 7, 59: 29, 60: 29, 61: 29 + 3}


@pytest.mark.parametrize("n_bits", [1, 4, 5, 12, 13, 23, 59, 60, 61])
def test_less_than_edge_values(n_bits):
    jobs, want = _lt_jobs([n_bits], seed=n_bits)
    n = len(want)
    plan = _StubPlan(bool_words=lt_cost(n, n_bits).bool_words)
    r0, r1, e0, e1 = run_two(
        lambda e: e.less_than_mask(jobs[e.party], 0, "t"), plan, seed=n_bits)
    assert np.array_equal(_recon(r0, r1), want.astype(np.uint64))
    # The gate alone for at most 3 digits, one merge before it for 4 to
    # 15, two for 16; the gate opens f and four v bits.
    digits = lt_digits(n_bits)
    rounds = 1 if digits <= 3 else 2 if digits <= 15 else 3
    words = -(-n // 64)
    for e in (e0, e1):
        assert _layer_rounds(e.ledger, "t") == {"bool-open": rounds}
        assert e.ledger.bytes_for("t", "bool-open") == 8 * words * (
            _MERGE_BITS[n_bits] + 5)
        assert e.material.cursors["bool"] == plan.requirements().bool_words


def test_less_than_mixed_widths_share_two_rounds(monkeypatch):
    widths = (23, 59, 60)
    jobs, want = _lt_jobs(widths, seed=106)
    n = len(want) // len(widths)
    words = -(-n // 64)
    plan = _StubPlan(bool_words=sum(lt_cost(n, w).bool_words for w in widths))
    merged = ([], [])
    merge = PartyEngine._merge

    def record(engine, groups, tag, layer):
        merged[engine.party].append([(len(lt), low) for lt, _, low in groups])
        return merge(engine, groups, tag, layer)

    monkeypatch.setattr(PartyEngine, "_merge", record)
    r0, r1, e0, e1 = run_two(
        lambda e: e.less_than_mask(jobs[e.party], 0, "t"), plan, seed=107)
    assert np.array_equal(_recon(r0, r1), want.astype(np.uint64))
    # One merge open: the borrow's lowest 4 of 6 digits, then the three
    # 5-digit groups of each 15-digit job; then one gate open for all three.
    groups = [(4, True)] + 2 * [(5, True), (5, False), (5, False)]
    assert merged == ([groups], [groups])
    assert plan.requirements().bool_words == 7 * MERGE_RECORD * words
    for e in (e0, e1):
        assert _layer_rounds(e.ledger, "t") == {"bool-open": 2}
        assert e.ledger.bytes_for("t", "bool-open") == 8 * words * (
            7 + 29 + 29 + 3 * 5)
        assert e.material.cursors["bool"] == plan.requirements().bool_words


def _share_bits(bits, rng):
    """XOR shares of 0/1 rows, packed: one (rows, words) array per party."""
    s0 = rng.integers(0, 2, size=bits.shape, dtype=np.uint8)
    return pack_bitplanes(s0), pack_bitplanes(s0 ^ bits)


def test_merge_truth_table_over_every_digit_state():
    # Every state of 5 digits: less (L = 1), equal (E = 1) or greater.
    states = np.array(np.meshgrid(*[range(3)] * 5, indexing="ij")).reshape(5, -1)
    L, E = (states == 0).astype(np.uint8), (states == 1).astype(np.uint8)
    n = states.shape[1]                                  # 3^5 = 243
    want_lt = L[4] ^ E[4] & (L[3] ^ E[3] & (L[2] ^ E[2] & (L[1] ^ E[1] & L[0])))
    want_eq = E.prod(axis=0).astype(np.uint8)
    rng = np.random.default_rng(111)
    shares = list(zip(_share_bits(L, rng), _share_bits(E, rng)))
    words = -(-n // 64)
    plan = _StubPlan(bool_words=2 * MERGE_RECORD * words)

    def fn(engine):
        lt, eq = shares[engine.party]
        return engine._merge([(lt, eq, True), (lt, eq, False)], 0, "t")

    out0, out1, e0, e1 = run_two(fn, plan, seed=112)
    (lt_low, _), (lt_up, eq_up) = (
        [unpack_bitplanes(a ^ b, n) for a, b in zip(g0, g1)]
        for g0, g1 in zip(out0, out1))
    assert np.array_equal(lt_low, want_lt)            # the lowest group's role
    assert np.array_equal(lt_up, want_lt)             # an upper group's role
    assert np.array_equal(eq_up, want_eq)
    for e in (e0, e1):
        # The lowest group opens its 5 lt and 4 eq bits, an upper group 10.
        assert _layer_rounds(e.ledger, "t") == {"bool-open": 1}
        assert e.ledger.bytes_for("t", "bool-open") == 8 * words * (9 + 10)
        assert e.material.cursors["bool"] == 2 * MERGE_RECORD * words


def test_gate_truth_table_over_every_input():
    # One element per gate input (L0, E1, L1, E2, L2), gate record (its
    # four v masks and g) and public flip p, so every opened (f, v) occurs.
    grid = np.array(np.meshgrid(*[range(2)] * 5, range(32), range(2),
                                indexing="ij")).reshape(7, -1)
    (l0, e1, l1, e2, l2), rec, p = grid[:5].astype(np.uint32), grid[5], grid[6]
    rng = np.random.default_rng(108)
    # A 12-bit job is three 1-digit groups; rows that hold the wanted bit
    # at every entry, whatever the digit c_j.
    ones = np.uint32(0xFFFF)
    tab = np.stack([l0 * ones, l1 * ones | (e1 * ones) << np.uint32(16),
                    l2 * ones | (e2 * ones) << np.uint32(16)], axis=1)
    t0 = rng.integers(0, 2**32, size=tab.shape, dtype=np.uint32)
    c = rng.integers(0, 1 << 12, size=rec.size, dtype=np.uint64)
    rec = rec.astype(np.uint8)
    g0 = rng.integers(0, 32, size=rec.size, dtype=np.uint8)
    u = gate_values(rec)
    u0 = rng.integers(0, 2**60, size=u.shape, dtype=np.uint64)
    flip = p.astype(np.uint8)
    jobs = ([(c, t0, (g0, u0), 12, flip)],
            [(c, tab ^ t0, (rec ^ g0, (u - u0) & np.uint64(2**60 - 1)), 12, flip)])
    want = l2 ^ (e2 & (l1 ^ (e1 & l0))) ^ p
    r0, r1, *engines = run_two(
        lambda e: e.less_than_mask(jobs[e.party], 0, "t"), _StubPlan(), seed=109)
    assert np.array_equal(_recon(r0, r1), want.astype(np.uint64))
    for e in engines:
        # f and v, five words per 64 elements, in one round.
        assert _layer_rounds(e.ledger, "t") == {"bool-open": 1}
        assert e.ledger.bytes_for("t", "bool-open") == 5 * 8 * rec.size // 64


# -- secure sessions -----------------------------------------------------------------


def _random_input(shape, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)


def test_toynet_session_bitwise_and_mirrored():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=20)
    x = _random_input((1, 3, 16, 16), 21)
    run = secure_infer_local(g, x, seed=22)
    assert np.array_equal(run.output.words, run.clear_reference.words)
    assert ledgers_mirror(run.model.ledger, run.client.ledger)


def test_session_bitwise_over_multiple_seeds():
    g = cell_graph(CellVariant.XOP, 8, 16, 24, hw=12, seed=23)
    for trial in range(5):
        x = _random_input((1, 8, 12, 12), 100 + trial)
        run = secure_infer_local(g, x, seed=200 + trial)
        assert np.array_equal(run.output.words, run.clear_reference.words)


def test_conv_delta_filter_session():
    b = GraphBuilder((1, 1, 6, 6), seed=0)
    b.conv("c", INPUT, 1, 1, 3, padding=0, bias=False)
    g = b.build()
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    g.weights["c.weight"] = w
    x = _random_input((1, 1, 6, 6), 24)
    run = secure_infer_local(g, x, seed=25)
    ref = infer_fixed(g, x)
    assert np.array_equal(run.output.words, ref.words)
    # The delta filter reproduces (the quantized) interior crop.
    inner = encode_fixed(x, g.cfg).signed()[0, 0, 1:-1, 1:-1]
    assert np.array_equal(run.output.signed()[0, 0], inner)


def test_conv_bytes_exactly_16_per_mult_and_scaling():
    results = {}
    for size in (16, 32):
        b = GraphBuilder((1, 3, size, size), seed=1)
        b.conv("c", INPUT, 3, 8, 3, bias=False)
        g = b.build()
        run = secure_infer_local(g, _random_input((1, 3, size, size), size),
                                 seed=size)
        assert np.array_equal(run.output.words, run.clear_reference.words)
        mults = count_mults(g)["c"]
        conv_bytes = run.client.ledger.bytes_for("c", "mul-open")
        assert conv_bytes == 16 * mults
        results[size] = conv_bytes
    assert results[32] == 4 * results[16]


def test_zero_communication_ops_record_zero_bytes():
    g = cell_graph(CellVariant.XOP, 8, 16, 24, hw=12, seed=26)
    run = secure_infer_local(g, _random_input((1, 8, 12, 12), 27), seed=28)
    led = run.client.ledger
    zero_ops = [(l, o) for (l, o) in led.entries
                if o in ("shuffle", "add", "concat", "wg-input-transform",
                         "wg-output-transform", "subsample")]
    assert zero_ops, "expected local ops in the ledger"
    for key in zero_ops:
        e = led.entries[key]
        assert e.bytes_sent == 0 and e.bytes_recv == 0, key


def test_winograd_session_consumes_beta2_triples():
    from xconv2pc.winograd import mult_counts, rewrite_winograd

    b = GraphBuilder((1, 1, 8, 8), seed=2)
    b.conv("c", INPUT, 1, 1, 3, padding=0, bias=False)
    rw, _ = rewrite_winograd(b.build(), candidates=(6,))
    run = secure_infer_local(rw, _random_input((1, 1, 8, 8), 29), seed=30)
    assert np.array_equal(run.output.words, run.clear_reference.words)
    assert run.client.ledger.bytes_for("c", "mul-open") // 16 == \
        mult_counts(6, 3, 6).beta2


def test_maxpool_session_known_grid():
    b = GraphBuilder((1, 1, 4, 4), seed=3)
    b.maxpool("p", INPUT, 2, 2)
    g = b.build()
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4) / 16.0
    run = secure_infer_local(g, x, seed=31)
    got = run.output.signed() / 2**23
    assert np.allclose(got, [[[[5 / 16, 7 / 16], [13 / 16, 15 / 16]]]])


def test_avgpool_public_scale_is_free_and_exact():
    b = GraphBuilder((1, 2, 8, 8), seed=4)
    b.avgpool("a", INPUT, 2, 2)
    g = b.build()
    run = secure_infer_local(g, _random_input((1, 2, 8, 8), 32), seed=33)
    assert np.array_equal(run.output.words, run.clear_reference.words)
    led = run.client.ledger
    assert led.entries[("a", "public-scale")].bytes_sent == 0


def test_xop_cell_session_bytes_under_fifth_of_dense():
    x16 = _random_input((1, 16, 32, 32), 34)
    xop = secure_infer_local(cell_graph(CellVariant.XOP, 16, 48, 64, hw=32,
                                        seed=35), x16, seed=36)
    dense = secure_infer_local(cell_graph(CellVariant.DENSE, 16, 48, 64, hw=32,
                                          seed=35), x16, seed=36)
    assert np.array_equal(xop.output.words, xop.clear_reference.words)
    assert np.array_equal(dense.output.words, dense.clear_reference.words)
    assert xop.client.ledger.total_sent < dense.client.ledger.total_sent / 5


def test_kitchen_sink_graph_bitwise():
    """Every layer kind and conv flavor in one secure session."""
    from xconv2pc.winograd import rewrite_winograd

    b = GraphBuilder((1, 4, 16, 16), seed=60)
    c1 = b.conv("stem", INPUT, 4, 8, 3, stride=2)           # strided, biased
    r1 = b.relu("r1", c1)
    c2 = b.conv("body", r1, 8, 8, 3)                        # transform-tagged below
    n1 = b.batchnorm("bn", c2, 8)                           # folds into body
    r2 = b.relu("r2", n1)
    dw = b.conv("dw", r2, 8, 8, 3, groups=8)                # depthwise
    gp = b.conv("gpw", dw, 8, 8, 1, padding=0, groups=2)    # grouped pointwise
    sh = b.shuffle("mix", gp, 8)
    ad = b.add("res", sh, r2)
    ct = b.concat("cat", ad, r2)
    mp = b.maxpool("mp", ct, 2, 2)
    ap = b.avgpool("ap", mp, 2, 2)
    gap = b.global_avgpool("gap", ap)
    b.fc("head", gap, 16, 5)
    g_direct = b.build()
    g, _ = rewrite_winograd(g_direct, allow={"body"})
    assert _spec(g, "body").attrs["winograd"]
    x = _random_input((1, 4, 16, 16), 61)
    run = secure_infer_local(g, x, seed=62)
    assert np.array_equal(run.output.words, run.clear_reference.words)
    assert ledgers_mirror(run.model.ledger, run.client.ledger)
    # The secure run and the clear reference walk the same code, so check
    # the walk against float inference on the untagged graph, which shares
    # none of its ring steps.  The gap is quantization: 2^-23 per encoding
    # and truncation, amplified by the transform conv's encoded filter
    # (1.3e-6 at this seed).  A wrong linear step moves outputs by whole
    # activations, here up to 0.2, far above the 1e-4 allowed.
    fixed = run.clear_reference.signed() / 2**23
    assert np.abs(fixed - infer_float(g_direct, x)).max() < 1e-4


@pytest.mark.slow
def test_deep_zoo_fixed_inference_stays_in_range():
    from xconv2pc.clear import infer_fixed, infer_float

    for backbone in ("densenet121", "mobilenetv3l", "resnet50"):
        g = model_zoo(backbone, CellVariant.DENSE, 64, seed=63)
        x = _random_input((1, 3, 64, 64), 64)
        q = infer_fixed(g, x).signed() / 2**23
        f = infer_float(g, x)
        assert np.abs(q - f).max() < 1e-3, backbone


def test_transcript_determinism_and_seed_sensitivity():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=37)
    x = _random_input((1, 3, 16, 16), 38)
    a = secure_infer_local(g, x, seed=39)
    b = secure_infer_local(g, x, seed=39)
    c = secure_infer_local(g, x, seed=40)
    assert a.client.sent_digest == b.client.sent_digest
    assert a.model.sent_digest == b.model.sent_digest
    assert a.client.sent_digest != c.client.sent_digest
    assert a.model.sent_digest != c.model.sent_digest


def test_transcripts_hash_each_sent_byte_once(monkeypatch):
    import hashlib
    import types

    from xconv2pc.runtime import wire

    hashed = [0]

    class CountingSha256:
        def __init__(self):
            self._h = hashlib.sha256()

        def update(self, data):
            hashed[0] += memoryview(data).nbytes
            self._h.update(data)

        def hexdigest(self):
            return self._h.hexdigest()

    monkeypatch.setattr(wire, "hashlib", types.SimpleNamespace(sha256=CountingSha256))
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=37)
    run = secure_infer_local(g, _random_input((1, 3, 16, 16), 38), seed=39)
    ledgers = (run.client.ledger, run.model.ledger)
    frames = sum(e.msgs_sent for led in ledgers for e in led.entries.values())
    assert frames > 0
    assert hashed[0] == sum(led.total_sent for led in ledgers) + 10 * frames


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_random_graph_structures_bitwise(data):
    """Property: any well-formed layer stack reconstructs the clear bits."""
    c = data.draw(st.sampled_from([2, 4, 6]), label="channels")
    hw = data.draw(st.sampled_from([6, 8, 10]), label="hw")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    b = GraphBuilder((1, c, hw, hw), seed=seed)
    cur, cur_c, cur_hw = INPUT, c, hw
    n_layers = data.draw(st.integers(2, 5), label="depth")
    for i in range(n_layers):
        menu = ["conv", "relu", "shuffle", "pw"]
        if cur_hw >= 4:
            menu += ["maxpool", "avgpool"]
        if cur_c % 2 == 0:
            menu.append("gconv")
        kind = data.draw(st.sampled_from(menu), label=f"layer{i}")
        name = f"l{i}"
        if kind == "conv":
            out_c = data.draw(st.sampled_from([2, 3, 4]), label=f"oc{i}")
            cur = b.conv(name, cur, cur_c, out_c, 3)
            cur_c = out_c
        elif kind == "pw":
            out_c = data.draw(st.sampled_from([2, 4, 6]), label=f"oc{i}")
            cur = b.conv(name, cur, cur_c, out_c, 1, padding=0)
            cur_c = out_c
        elif kind == "gconv":
            cur = b.conv(name, cur, cur_c, cur_c, 3, groups=2)
        elif kind == "relu":
            cur = b.relu(name, cur)
        elif kind == "shuffle":
            cur = b.shuffle(name, cur, cur_c)
        elif kind == "maxpool":
            cur = b.maxpool(name, cur, 2, 2)
            cur_hw //= 2
        elif kind == "avgpool":
            cur = b.avgpool(name, cur, 2, 2)
            cur_hw //= 2
    g = b.build()
    x = _random_input((1, c, hw, hw), seed ^ 0x5A5A)
    run = secure_infer_local(g, x, seed=seed + 9)
    assert np.array_equal(run.output.words, run.clear_reference.words)


# -- round-lean batching ----------------------------------------------------------


def _layer_rounds(ledger, layer):
    return {op: e.rounds for (l, op), e in ledger.entries.items()
            if l == layer and e.rounds}


def _run_with_cursor_check(g, x, seed):
    """Secure run with dealt material: bitwise equal to clear, cursors exact."""
    plan = build_plan(g, with_weights=True)
    materials = generate_material(plan, seed)
    run = secure_infer_local(g, x, seed=seed, materials=materials)
    assert np.array_equal(run.output.words, run.clear_reference.words)
    req = plan.requirements()
    expected = {"mul": req.mul_triples, "aux": req.aux_triples,
                "trunc": req.trunc_units, "cmp": req.cmp_tuples,
                "bool": req.bool_words}
    assert materials[0].cursors == materials[1].cursors == expected
    return run


def test_depthwise_conv_and_relu_exact_rounds():
    b = GraphBuilder((1, 4, 8, 8), seed=70)
    dw = b.conv("dw", INPUT, 4, 4, 3, groups=4, bias=False)
    r = b.relu("r", dw)
    b.shuffle("mix", r, 4)  # local, so the output open is not the ReLU's
    run = secure_infer_local(b.build(), _random_input((1, 4, 8, 8), 71), seed=72)
    assert np.array_equal(run.output.words, run.clear_reference.words)
    for led in (run.model.ledger, run.client.ledger):
        # One open serves all four groups, then a 3-round truncation that
        # also tests the ReLU's sign; the ReLU keeps only its sign-bit
        # product.  Set-up sends no shares: the session row is the hello,
        # the output open and the sync.
        assert _layer_rounds(led, "dw") == {
            "mul-open": 1, "mask-open": 1, "bool-open": 2}
        assert _layer_rounds(led, "session") == {
            "hello": 1, "output-open": 1, "sync": 1}
        assert {layer for layer, _ in led.entries} == {"session", "dw", "r", "mix"}
        assert _layer_rounds(led, "r") == {"aux-open": 1}


def test_multi_chunk_grouped_conv_session(monkeypatch):
    from xconv2pc.winograd import rewrite_winograd

    chunk = 1000
    monkeypatch.setattr(plan_mod, "BEAVER_CHUNK", chunk)
    b = GraphBuilder((1, 4, 8, 8), seed=73)
    gc = b.conv("gc", INPUT, 4, 6, 3, groups=2)           # grouped, direct
    b.conv("dw", gc, 6, 6, 3, groups=6, bias=False)      # depthwise, transform
    g, _ = rewrite_winograd(b.build(), candidates=(4,), allow={"dw"})
    assert _spec(g, "dw").attrs["winograd"]
    run = _run_with_cursor_check(g, _random_input((1, 4, 8, 8), 75), 74)
    for pl in run.plan.layers:
        assert pl.mults > chunk and pl.mults % chunk, pl.name
        for led in (run.model.ledger, run.client.ledger):
            assert led.entries[(pl.name, "mul-open")].rounds == -(-pl.mults // chunk)
            assert led.bytes_for(pl.name, "mul-open") == 16 * pl.mults
        # The session's own ledger check passed on the same patched chunk.
        assert plan_mod.predict_ledger(run.plan)[pl.name, "mul-open"] == (
            16 * pl.mults, -(-pl.mults // chunk))


def test_flat_slice_matches_contiguous_copy():
    rng = np.random.default_rng(76)
    base = rng.integers(0, 2**60, size=(3, 1, 5, 4), dtype=np.uint64)
    views = [
        np.broadcast_to(base[:, :, None], (3, 1, 6, 5, 4)),
        np.broadcast_to(base.transpose(2, 1, 0, 3)[None, :, :, :, None],
                        (1, 5, 1, 3, 7, 4)),                 # leading 1, as nb=1
        np.broadcast_to(base[0, 0, 0], (1, 1, 9, 4)),
        base.transpose(2, 0, 1, 3),
        base[..., ::2],
        base.reshape(-1)[::3],
    ]
    for arr in views:
        assert not arr.flags.c_contiguous
        flat = np.ascontiguousarray(arr).reshape(-1)
        # Every start with short and long lengths crosses each row boundary.
        for pos in range(flat.size):
            for m in (1, 2, 5, 17, 61, flat.size):
                m = min(m, flat.size - pos)
                assert np.array_equal(_flat_slice(arr, pos, m),
                                      flat[pos:pos + m]), (arr.shape, pos, m)


def _client_rounds_from_plan(plan):
    """Client rounds as the plan predicts them."""
    return sum(r for _, r in session.expected_ledger(plan, 1).values())


@pytest.mark.parametrize("backbone,variant,size,total", [
    ("toynet", CellVariant.DENSE, 16, None),
    ("shufflenetv2", CellVariant.XOP, 32, 240),
])
def test_client_rounds_follow_the_plan(backbone, variant, size, total):
    g = model_zoo(backbone, variant, size, seed=90)
    run = secure_infer_local(g, _random_input(g.input_shape, 91), seed=92)
    assert np.array_equal(run.output.words, run.clear_reference.words)
    rounds = sum(e.rounds for e in run.client.ledger.entries.values())
    assert rounds == _client_rounds_from_plan(run.plan)
    assert total is None or rounds == total


@pytest.mark.parametrize("field", ["bytes_sent", "rounds"])
@pytest.mark.parametrize("party", [0, 1])
def test_ledger_check_names_the_row_off_by_one(field, party):
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=90)
    run = secure_infer_local(g, _random_input(g.input_shape, 91), seed=92)
    ledger = (run.model, run.client)[party].ledger
    session.check_ledger(run.plan, party, ledger)     # the run itself passed
    key = ("conv2", "bool-open")
    row = ledger.entries[key]
    setattr(row, field, getattr(row, field) + 1)
    want = session.expected_ledger(run.plan, party)[key]
    got = (row.bytes_sent, row.rounds)
    msg = (f"party {party} ledger at conv2/bool-open: predicted {want[0]} B in "
           f"{want[1]} rounds, measured {got[0]} B in {got[1]} rounds")
    with pytest.raises(VerificationError, match=msg):
        session.check_ledger(run.plan, party, ledger)


def test_maxpool_tree_rounds_and_bits():
    b = GraphBuilder((1, 3, 9, 9), seed=93)
    p2 = b.maxpool("p2", INPUT, 2, 1)
    b.maxpool("p3", p2, 3, 2)
    run = _run_with_cursor_check(b.build(), _random_input((1, 3, 9, 9), 94), 95)
    for led in (run.model.ledger, run.client.ledger):
        # ceil(log2 4) = 2 and ceil(log2 9) = 4 levels of one 4-round relu.
        assert _layer_rounds(led, "p2") == {
            "mask-open": 2, "bool-open": 4, "aux-open": 2}
        assert _layer_rounds(led, "p3") == {
            "mask-open": 4, "bool-open": 8, "aux-open": 4}


# -- sign tests folded into the truncation ----------------------------------------


def _fused(plan):
    return {pl.name for pl in plan.layers if pl.relu_sign}


def _pass_through_conv(shape):
    """1x1 conv whose weight encodes to the ring word 1: pre-truncation = input."""
    b = GraphBuilder(shape, seed=96)
    c = b.conv("c", INPUT, 1, 1, 1, bias=False)
    b.weights["c.weight"] = np.full((1, 1, 1, 1), 2.0 ** -CFG.scale)
    return b, c


def test_fused_relu_on_sign_edge_values():
    s = CFG.scale
    rng = np.random.default_rng(97)
    edges = [0, -1, 1, -(1 << s), -(1 << s) + 1, -(1 << s) - 1, (1 << s) - 1,
             1 << s, -(1 << 59), (1 << 59) - 1, -(1 << 58) - 12345, (1 << 58) + 7]
    inside = rng.integers(-(1 << s) + 1, 0, size=20)       # truncate to -1
    large = rng.integers(-(1 << 59), 1 << 59, size=64 - len(edges) - 20)
    pre = np.concatenate([edges, inside, large]).astype(np.int64)
    b, c = _pass_through_conv((1, 1, 8, 8))
    b.relu("r", c)                                         # fused, graph output
    x = RingTensor.from_signed(pre.reshape(1, 1, 8, 8), CFG.bitwidth)
    run = _run_with_cursor_check(b.build(), x, 98)
    assert _fused(run.plan) == {"c"}
    got = run.output.signed().reshape(-1)
    assert np.array_equal(got, np.maximum(pre >> s, 0))
    assert not got[1:len(edges)][pre[1:len(edges)] < 0].any()
    assert not got[len(edges):len(edges) + 20].any()


def test_fused_relu_after_every_truncating_kind():
    from xconv2pc.winograd import rewrite_winograd

    b = GraphBuilder((1, 4, 8, 8), seed=99)
    w = b.conv("w", INPUT, 4, 4, 3)
    r1 = b.relu("r1", w)
    a = b.avgpool("a", r1, 2, 2)
    r2 = b.relu("r2", a)
    gp = b.global_avgpool("g", r2)
    r3 = b.relu("r3", gp)
    f = b.fc("f", r3, 4, 6)
    b.relu("r4", f)
    g, _ = rewrite_winograd(b.build(), candidates=(4,), allow={"w"})
    assert _spec(g, "w").attrs["winograd"]
    for seed in (100, 101, 102):
        run = _run_with_cursor_check(g, 3 * _random_input((1, 4, 8, 8), seed), seed)
        assert _fused(run.plan) == {"w", "a", "g", "f"}
        for led in (run.model.ledger, run.client.ledger):
            for r in ("r1", "r2", "r3", "r4"):
                assert _layer_rounds(led, r) == {"aux-open": 1}, r


def test_relu_not_fused_with_second_reader_or_on_the_input():
    b = GraphBuilder((1, 2, 6, 6), seed=103)
    r0 = b.relu("r0", INPUT)
    c = b.conv("c", r0, 2, 2, 3)
    r = b.relu("r", c)
    b.add("sum", c, r)                          # c has a second reader
    run = _run_with_cursor_check(b.build(), _random_input((1, 2, 6, 6), 104), 105)
    assert not _fused(run.plan)
    for led in (run.model.ledger, run.client.ledger):
        for name in ("r0", "r"):
            assert _layer_rounds(led, name) == {
                "mask-open": 1, "bool-open": 2, "aux-open": 1}, name


@pytest.fixture
def hung_model_party(monkeypatch):
    """A client that returns at once and a model party blocked until teardown."""
    release = threading.Event()
    monkeypatch.setattr(session, "run_client_party", lambda *a, **k: None)
    monkeypatch.setattr(session, "run_model_party", lambda *a, **k: release.wait(60))
    monkeypatch.setattr(session, "MODEL_JOIN_TIMEOUT", 0.2)
    yield
    release.set()


def test_hung_model_party_raises_transport_error(hung_model_party):
    b = GraphBuilder((1, 1, 4, 4), seed=77)
    b.relu("r", INPUT)
    with pytest.raises(TransportError, match="model party .* 0.2 s"):
        secure_infer_local(b.build(), _random_input((1, 1, 4, 4), 78), seed=79)


def test_handshake_rejects_mismatched_graphs():
    g1 = model_zoo("toynet", CellVariant.DENSE, 16, seed=41)
    g2 = model_zoo("toynet", CellVariant.DENSE, 16, seed=41)
    _spec(g2, "fc").attrs["bias"] = False  # shape-neutral architecture tamper
    plan0 = build_plan(g1, with_weights=True)
    plan1 = build_plan(g2, with_weights=False)
    m0, m1 = generate_material(plan0, 42)
    t0, t1 = QueueTransport.pair()
    from xconv2pc.runtime.session import run_client_party, run_model_party

    errors = {}

    def model_side():
        try:
            run_model_party(plan0, t0, m0, 42)
        except Exception as e:
            errors["model"] = e

    th = threading.Thread(target=model_side, daemon=True)
    th.start()
    x = encode_fixed(_random_input(tuple(plan1.input_shape), 43), g2.cfg)
    with pytest.raises(HandshakeError):
        run_client_party(plan1, t1, m1, 42, x)
    th.join(timeout=30)
    assert isinstance(errors.get("model"), Exception)


@pytest.mark.parametrize("old", [True, False])
def test_handshake_rejects_version_1_and_unknown_versions(old):
    import struct

    from xconv2pc.runtime.wire import OP_HELLO, SESSION_TAG

    plan = build_plan(model_zoo("toynet", CellVariant.DENSE, 16, seed=47),
                      with_weights=False)
    hello = session._hello_payload(plan, 48, bytes(16))
    # Version 1's hello is the same fields without the share seed, 44 bytes;
    # version 3's has this layout but merges digits in a pairwise tree.
    bad = struct.pack("<H", 1 if old else 3) + hello[2:44 if old else None]
    assert len(bad) == (44 if old else 60)
    t0, t1 = QueueTransport.pair()
    peer = PartyEngine(0, plan, t0, None, rng_seed=48)
    th = threading.Thread(target=peer.exchange, daemon=True,
                          args=(OP_HELLO, SESSION_TAG, bad, "session", "hello"))
    th.start()
    with pytest.raises(HandshakeError):
        session.handshake(PartyEngine(1, plan, t1, None, rng_seed=48), 48)
    th.join(timeout=30)
    assert not th.is_alive()


def test_set_up_shares_expand_from_the_hello_seeds(monkeypatch):
    from xconv2pc.runtime.material import prg, uniform

    seeds, shares = {}, {}
    handshake, run = session.handshake, PartyEngine.run

    def record_handshake(engine, seed):
        seeds[engine.party] = handshake(engine, seed)
        return seeds[engine.party]

    def record_run(engine, input_share):
        shares[engine.party] = (input_share, {
            pl.name: engine.weight(pl) for pl in engine.plan.layers
            if pl.kind in ("conv2d", "fully-connected")})
        return run(engine, input_share)

    monkeypatch.setattr(session, "handshake", record_handshake)
    monkeypatch.setattr(PartyEngine, "run", record_run)
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=49)
    x = _random_input(g.input_shape, 50)
    out = secure_infer_local(g, x, seed=51)
    assert np.array_equal(out.output.words, out.clear_reference.words)
    # Each party's own seed is the other's peer seed.
    assert seeds[0] == seeds[1][::-1] and seeds[0][0] != seeds[0][1]
    assert np.array_equal(_recon(shares[0][0], shares[1][0]),
                          encode_fixed(x, g.cfg).words)
    weighted = [(idx, pl) for idx, pl in enumerate(out.plan.layers)
                if pl.kind in ("conv2d", "fully-connected")]
    assert weighted and set(shares[0][1]) == {pl.name for _, pl in weighted}
    for idx, pl in weighted:
        w0, w1 = shares[0][1][pl.name], shares[1][1][pl.name]
        assert np.array_equal(_recon(w0, w1), pl.payload["weight"].words)
        assert np.array_equal(w1, uniform(prg(seeds[0][0], idx), w1.shape, 60))


def test_dealer_files_and_transcripts_match_their_pins(tmp_path):
    # Any change to the dealer's PRG draw order or to the bytes an open
    # sends moves these pins.
    import hashlib

    g = model_zoo("shufflenetv2", CellVariant.XOP, 32, seed=3)
    stores = generate_material(build_plan(g, with_weights=False), 9)
    pins = ("3431532616f5705d7e60ff5693fe182fb86b440727a1cd60035afd34e70bf2f1",
            "2a8459d4ad2bf97dc51f07d3f85e6a694b047664096be2b57a42e75233677835")
    for store, pin in zip(stores, pins):
        path = tmp_path / f"party{store.party}.dlr"
        write_material(store, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pin
    run = secure_infer_local(g, _random_input(g.input_shape, 10), seed=9,
                             materials=stores)
    assert np.array_equal(run.output.words, run.clear_reference.words)
    client = "db4e2c39606311baf6f7c9155d15369603bf211b319a6731a39fe5a0ac047f86"
    model = "aa64d17a911654f9e219dc5170dcbe2be14b6592676fd46193584c841f386ac4"
    assert (run.client.sent_digest, run.model.sent_digest) == (client, model)


def _tcp_pair():
    import socket

    from xconv2pc.runtime.wire import SocketTransport

    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    cli = socket.create_connection(srv.getsockname())
    conn, _ = srv.accept()
    srv.close()
    return SocketTransport(conn), SocketTransport(cli)


@pytest.mark.parametrize("transport", ["queue", "tcp"])
def test_set_up_sends_no_share_frames(transport, monkeypatch):
    from xconv2pc.runtime.session import run_client_party, run_model_party

    t0, t1 = QueueTransport.pair() if transport == "queue" else _tcp_pair()
    opcodes = []
    send = type(t0).send

    def record_send(t, frame):
        opcodes.append(frame.opcode)
        send(t, frame)

    monkeypatch.setattr(type(t0), "send", record_send)
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=52)
    plan0 = build_plan(g, with_weights=True)
    plan1 = build_plan(g, with_weights=False)
    m0, m1 = generate_material(plan0, 53)
    x = encode_fixed(_random_input(g.input_shape, 54), g.cfg)
    results = {}
    th = threading.Thread(daemon=True, target=lambda: results.setdefault(
        "model", run_model_party(plan0, t0, m0, 53)))
    th.start()
    client = run_client_party(plan1, t1, m1, 53, x)
    th.join(timeout=60)
    for t in (t0, t1):
        t.close()
    assert not th.is_alive()
    model = results["model"]
    assert np.array_equal(client.output.words,
                          execute_plan_clear(plan0, x, check_ceiling=False).words)
    # hello, masked and boolean opens, output open, sync; no share frame (7)
    assert set(opcodes) == {1, 2, 3, 4, 5}
    out_bytes = model.ledger.bytes_for("session", "output-open")
    assert out_bytes == 8 * client.output.words.size
    assert model.ledger.total_sent == client.ledger.total_sent + out_bytes


@pytest.mark.parametrize("transport", ["queue", "tcp"])
def test_both_parties_catch_a_conversion_split_in_two_opens(transport, monkeypatch):
    # Same bits, same triples, one more round: only the ledger check sees it.
    # The split is relu1's sign-bit product, its one auxiliary open.
    from xconv2pc.runtime.session import run_client_party, run_model_party

    beaver = PartyEngine.beaver

    def in_halves(engine, x, y, tag, layer, kind="mul"):
        if layer != "relu1":
            return beaver(engine, x, y, tag, layer, kind)
        h = x.size // 2
        return np.concatenate([beaver(engine, x[:h], y[:h], tag, layer, kind),
                               beaver(engine, x[h:], y[h:], tag, layer, kind)])

    monkeypatch.setattr(PartyEngine, "beaver", in_halves)
    t0, t1 = QueueTransport.pair() if transport == "queue" else _tcp_pair()
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=52)
    plan0 = build_plan(g, with_weights=True)
    plan1 = build_plan(g, with_weights=False)
    m0, m1 = generate_material(plan0, 53)
    x = encode_fixed(_random_input(g.input_shape, 54), g.cfg)
    errors = {}

    def party(name, fn, *args):
        try:
            fn(*args)
        except VerificationError as e:
            errors[name] = str(e)

    th = threading.Thread(daemon=True, target=party,
                          args=(0, run_model_party, plan0, t0, m0, 53))
    th.start()
    party(1, run_client_party, plan1, t1, m1, 53, x)
    th.join(timeout=60)
    for t in (t0, t1):
        t.close()
    assert not th.is_alive()
    assert m0.cursors == m1.cursors
    want = session.expected_ledger(plan0, 0)["relu1", "aux-open"][0]
    for p in (0, 1):
        assert errors[p] == (f"party {p} ledger at relu1/aux-open: predicted "
                             f"{want} B in 1 rounds, measured {want} B in 2 rounds")


def test_session_fails_cleanly_on_short_material():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=44)
    small = GraphBuilder((1, 3, 16, 16), seed=44)
    small.conv("c", INPUT, 3, 4, 3, bias=False)
    starved = build_plan(small.build(), with_weights=False)
    materials = generate_material(starved, 45)  # far too little for toynet
    with pytest.raises(MaterialError):
        secure_infer_local(g, _random_input((1, 3, 16, 16), 46), seed=45,
                           materials=materials)


def test_session_rejects_material_dealt_for_the_other_party():
    # Two stores of party 1's material, so the cursors stay apart.
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=7)
    plan = build_plan(g, with_weights=False)
    stores = (generate_material(plan, 7)[1], generate_material(plan, 7)[1])
    # The client fails on the model party's abort; the model's error is raised.
    with pytest.raises(MaterialError, match="party 1's, this is party 0"):
        secure_infer_local(g, _random_input(g.input_shape, 8), seed=7,
                           materials=stores)


def test_session_rejects_material_dealt_for_another_graph():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=7)
    tampered = model_zoo("toynet", CellVariant.DENSE, 16, seed=7)
    _spec(tampered, "fc").attrs["bias"] = False  # same footprint, other hash
    materials = generate_material(build_plan(tampered, with_weights=False), 7)
    with pytest.raises(MaterialError, match="another graph"):
        secure_infer_local(g, _random_input(g.input_shape, 8), seed=7,
                           materials=materials)


@pytest.mark.parametrize("transport", ["queue", "tcp"])
def test_session_rejects_material_from_two_dealer_seeds(transport):
    # Each file is right for its party and the graph, but party 1's was
    # dealt from another seed; run, the output would be silently wrong.
    from xconv2pc.runtime.session import run_client_party, run_model_party

    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=7)
    plan0 = build_plan(g, with_weights=True)
    plan1 = build_plan(g, with_weights=False)
    m0, m1 = generate_material(plan0, 7)[0], generate_material(plan0, 8)[1]
    x = encode_fixed(_random_input(g.input_shape, 8), g.cfg)
    t0, t1 = QueueTransport.pair() if transport == "queue" else _tcp_pair()
    errors = {}

    def model_side():
        try:
            run_model_party(plan0, t0, m0, 7)
        except Exception as e:
            errors["model"] = e

    th = threading.Thread(target=model_side, daemon=True)
    th.start()
    with pytest.raises(MaterialError, match="dealt from seed 8, the session runs "
                                            "from seed 7"):
        run_client_party(plan1, t1, m1, 7, x)
    th.join(timeout=30)
    for t in (t0, t1):
        t.close()
    assert not th.is_alive()
    assert isinstance(errors.get("model"), ProtocolAbort)
    assert "material mismatch" in str(errors["model"])
    # In process the client's own error is the root cause that is raised.
    with pytest.raises(MaterialError, match="seed 8"):
        secure_infer_local(g, _random_input(g.input_shape, 8), seed=7,
                           materials=(m0, generate_material(plan0, 8)[1]))


def test_session_meets_the_bench_inference_checks():
    # The benchmark rejects an inference on any of these; a sixth cursor
    # kind or a renamed requirement fails here first.
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import harness

    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=111)
    plan = build_plan(g, with_weights=True)
    m0, m1 = generate_material(plan, 112)
    run = secure_infer_local(g, _random_input(g.input_shape, 113), seed=112,
                             materials=(m0, m1))
    assert harness.expected_cursors(plan) == m0.cursors == m1.cursors
    assert harness.check_inference(plan, run.output.words,
                                   run.clear_reference.words, run.client.ledger,
                                   run.model.ledger,
                                   (m0.cursors, m1.cursors)) == []
