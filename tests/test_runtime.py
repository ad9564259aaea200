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
from xconv2pc.graph import INPUT, CellVariant, Graph, GraphBuilder, LayerSpec, cell_graph
from xconv2pc.clear import infer_fixed, infer_float
from xconv2pc.costs import count_mults
from xconv2pc.plan import (
    MERGE_RECORD,
    ClearOps,
    PlanRequirements,
    build_plan,
    execute_plan_clear,
    flat_blocks,
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
from xconv2pc.runtime import material as material_mod
from xconv2pc.runtime.material import (
    KEY_BYTES,
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
    merge_round,
    pack_bitplanes,
    unpack_bitplanes,
)
from xconv2pc.runtime.session import secure_infer_local
from xconv2pc.runtime.wire import QueueTransport, ledgers_mirror
from xconv2pc.zoo import model_zoo

CFG = FixedPointConfig()
HEADER_BYTES = 128  # a .dlr header, the party's key included


class _StubPlan:
    """Just enough plan surface for primitive-level engine tests."""

    def __init__(self, cfg=CFG, **req):
        self.cfg = cfg
        self.graph_hash = "00" * 32
        self.layers = [LayerSpec("t", "relu", [INPUT])]  # frames under "t" carry tag 0
        self._req = PlanRequirements(
            mul_triples=req.get("mul", 0), aux_triples=req.get("aux", 0),
            trunc_units=req.get("trunc", 0), cmp_tuples=req.get("cmp", 0),
            bool_words=req.get("bool_words", 0))

    def requirements(self):
        return self._req


def _spec(g, name):
    """The graph's layer spec called ``name``."""
    return next(l for l in g.layers if l.name == name)


def _transform(g, name, tile):
    """A copy of ``g`` whose conv ``name`` runs as a transform conv on ``tile``."""
    layers = []
    for l in g.layers:
        attrs = dict(l.attrs, winograd=True, tile=tile) if l.name == name else dict(l.attrs)
        layers.append(LayerSpec(l.name, l.kind, list(l.inputs), attrs))
    return Graph(layers, g.input_shape, g.cfg, g.weights)


def run_two(fn, plan, seed=0):
    """Run fn(engine) on both parties concurrently; returns both results."""
    m0, m1 = generate_material(plan, seed)
    t0, t1 = QueueTransport.pair()
    e0 = PartyEngine(0, plan, t0, m0)
    e1 = PartyEngine(1, plan, t1, m1)
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
    # The expansion every dealer share is drawn from.
    s0 = uniform(prg(17, 0), 1_000_000, 60)
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
    # A flipped bit in party 1's first stored stream, c1.
    plan = _StubPlan(mul=100)
    _, m1 = generate_material(plan, 7)
    p = tmp_path / "m.dlr"
    write_material(m1, str(p))
    blob = bytearray(p.read_bytes())
    blob[HEADER_BYTES + 8 * 17] ^= 0x40
    p.write_bytes(bytes(blob))
    with pytest.raises(MaterialError, match="integrity"):
        load_material(str(p))


def test_material_version_1_rejected(tmp_path):
    import hashlib

    m0, _ = generate_material(_StubPlan(trunc=4, cmp=4), 7)
    p = tmp_path / "m.dlr"
    write_material(m0, str(p))
    blob = bytearray(p.read_bytes()[:-32])
    assert blob[4] == 5
    for old in (1, 2, 3, 4):            # well-formed files of the old formats
        blob[4] = old
        p.write_bytes(bytes(blob) + hashlib.sha256(blob).digest())
        with pytest.raises(MaterialError, match=f"version {old}"):
            load_material(str(p))


# Every stream kind, merge records and both table widths included.
_EVERY_KIND = dict(mul=1000, aux=100, trunc=50, cmp=50, bool_words=8 * MERGE_RECORD)
# The streams party 1 expands from its key; it stores the other ten.
_PARTY1_EXPANDED = {"mul_a", "mul_b", "aux_a", "aux_b", "trunc_r", "cmp_r"}


def test_material_files_load_to_the_dealt_streams(tmp_path):
    stores = generate_material(_StubPlan(**_EVERY_KIND), 21)
    loaded = []
    for store in stores:
        p = tmp_path / f"party{store.party}.dlr"
        write_material(store, str(p))
        got = load_material(str(p))
        assert got.arrays.keys() == store.arrays.keys()
        for name, want in store.arrays.items():
            a = got.arrays[name]
            assert a.dtype == want.dtype and a.shape == want.shape, name
            assert np.array_equal(a, want), name
        assert (got.party, got.seed, got.graph_hash) == (
            store.party, store.seed, store.graph_hash)
        # The loaded store writes the same header, key and bit-width included.
        write_material(got, str(tmp_path / "again.dlr"))
        again = (tmp_path / "again.dlr").read_bytes()
        assert again[:HEADER_BYTES] == p.read_bytes()[:HEADER_BYTES]
        assert again == p.read_bytes()
        loaded.append(got)
    verify_material_pair(*loaded, CFG)


def test_material_file_sizes(tmp_path):
    sizes = {}
    for name, req in (("none", {}), ("small", dict(mul=10)), ("every", _EVERY_KIND)):
        for store in generate_material(_StubPlan(**req), 22):
            p = tmp_path / f"{name}{store.party}.dlr"
            write_material(store, str(p))
            sizes[name, store.party] = p.stat().st_size
            if store.party == 1:
                stored = sum(a.nbytes for stream, a in store.arrays.items()
                             if stream not in _PARTY1_EXPANDED)
                assert sizes[name, 1] == HEADER_BYTES + stored + 32, name
    # Party 0's file is its header and digest, whatever the plan.
    assert sizes["none", 0] == sizes["small", 0] == sizes["every", 0] == HEADER_BYTES + 32


@pytest.mark.parametrize("party", [0, 1])
def test_material_key_flip_and_truncation_rejected_before_use(tmp_path, party):
    store = generate_material(_StubPlan(**_EVERY_KIND), 23)[party]
    p = tmp_path / "m.dlr"
    write_material(store, str(p))
    good = p.read_bytes()
    key_at = HEADER_BYTES - KEY_BYTES   # the header's last field, the key mul_a is drawn from
    rng = material_mod._key_streams(good[key_at:HEADER_BYTES], ("mul_a",))["mul_a"]
    assert np.array_equal(uniform(rng, 1000, CFG.bitwidth), store.arrays["mul_a"])
    damaged = {"key": good[:key_at + 5] + bytes([good[key_at + 5] ^ 1]) + good[key_at + 6:],
               "truncated": good[:-1], "cut to its header": good[:HEADER_BYTES]}
    if party == 1:                      # the first byte of the trunc_u corrections
        at = HEADER_BYTES + 8 * (1000 + 100 + 50)
        damaged["correction"] = good[:at] + bytes([good[at] ^ 0x80]) + good[at + 1:]
    for what, blob in damaged.items():
        p.write_bytes(blob)
        with pytest.raises(MaterialError, match="integrity|not a dealer material"):
            load_material(str(p))
    p.write_bytes(good)
    assert np.array_equal(load_material(str(p)).arrays["mul_a"], store.arrays["mul_a"])


def test_material_keys_are_distinct_and_follow_the_seed(tmp_path):
    plan = _StubPlan(mul=10)
    p = tmp_path / "m.dlr"

    def keys(seed):
        """Both parties' keys, read from the headers of their written files."""
        out = []
        for store in generate_material(plan, seed):
            write_material(store, str(p))
            out.append(p.read_bytes()[HEADER_BYTES - KEY_BYTES:HEADER_BYTES])
        return tuple(out)

    k = {seed: keys(seed) for seed in (30, 31)}
    for seed in (30, 31):
        assert len(k[seed][0]) == len(k[seed][1]) == KEY_BYTES
        assert k[seed][0] != k[seed][1]
    assert k[30][0] != k[31][0] and k[30][1] != k[31][1]
    assert k[30] == keys(30)


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
    m0.take("mul", 8, "conv1")
    with pytest.raises(MaterialError, match="exhausted at layer fc, op mul"):
        m0.take("mul", 8, "fc")


def _dealt(plan, seed):
    """Both parties' streams, copied out of their spills."""
    return [{name: np.array(a) for name, a in store.arrays.items()}
            for store in generate_material(plan, seed)]


# Steps of 12 entries split every kind: 24 and 12 gate bytes a step, and
# one merge record, so each step starts in the middle of every mask row.
# Steps of 188 entries take three records, so the last step is short.
@pytest.mark.parametrize("chunk", [12, 188])
def test_chunked_dealing_equals_the_dealing_at_the_default_chunk(tmp_path, monkeypatch,
                                                                 chunk):
    plan = _StubPlan(**_EVERY_KIND)
    want = _dealt(plan, 24)
    default = [tmp_path / f"default{party}.dlr" for party in (0, 1)]
    material_mod.deal_material(plan, 24, default)
    monkeypatch.setattr(material_mod, "_CHUNK", chunk)
    for party, streams in enumerate(_dealt(plan, 24)):
        assert streams.keys() == want[party].keys()
        for name, a in streams.items():
            assert a.dtype == want[party][name].dtype, name
            assert np.array_equal(a, want[party][name]), (party, name)
    # The dealer's files hold the streams write_material writes.
    paths = [tmp_path / f"party{party}.dlr" for party in (0, 1)]
    material_mod.deal_material(plan, 24, paths)
    for party, store in enumerate(generate_material(plan, 24)):
        write_material(store, str(tmp_path / "written.dlr"))
        want_bytes = (tmp_path / "written.dlr").read_bytes()
        assert paths[party].read_bytes() == default[party].read_bytes() == want_bytes
        got = load_material(str(paths[party]))
        for name, a in got.arrays.items():
            assert np.array_equal(a, want[party][name]), (party, name)


def test_dealing_a_large_plan_keeps_its_peak_memory_flat(tmp_path, child_kwargs):
    # 11 Mi triples are 264 MiB of material per party.  generate_material
    # and deal_material each hold a chunk at a time, whatever the plan's
    # size, so the dealing process's high-water mark grows far less.
    import subprocess
    import sys

    code = f"""
from xconv2pc.plan import PlanRequirements
from xconv2pc.ring import FixedPointConfig
from xconv2pc.runtime import material


class Plan:
    cfg = FixedPointConfig()
    graph_hash = "00" * 32

    def requirements(self):
        return PlanRequirements(mul_triples=11 << 20, aux_triples=1 << 16,
                                trunc_units=1 << 16, cmp_tuples=1 << 16,
                                bool_words=1024 * 62)


def hwm():
    with open("/proc/self/status") as f:
        return next(int(l.split()[1]) for l in f if l.startswith("VmHWM")) << 10


base = hwm()
stores = material.generate_material(Plan(), 3)
assert sum(a.nbytes for a in stores[0].arrays.values()) >= 256 << 20
print(hwm() - base, flush=True)
del stores
material.deal_material(Plan(), 3, ({str(tmp_path / 'p0.dlr')!r}, {str(tmp_path / 'p1.dlr')!r}))
print(hwm() - base)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300, **child_kwargs)
    grown = [int(line) for line in out.stdout.split()]
    assert grown and grown[0] < 64 << 20, (grown, out.stderr)
    assert out.returncode == 0, out.stderr
    assert grown[1] < 64 << 20


def test_a_session_releases_what_it_consumed_and_released_pages_keep_their_words(
        tmp_path, monkeypatch):
    # With a release at every take, each stream's released spill offset
    # ends at the last page boundary before its kind's last take, and never
    # before the stream's first page boundary.  Every dropped page lies
    # inside the consumed part of its stream, so a page shared with a
    # neighbour stays.  The released pages are read again, by the session,
    # the pair check and write_material, and still hold the dealt words.
    monkeypatch.setattr(material_mod, "_RELEASE", 1)
    last, dropped = {}, []
    take, release = material_mod.MaterialStore.take, material_mod.MaterialStore.release

    def recorded(store, kind, n, layer):
        last[store.party, kind] = store.cursors[kind]
        return take(store, kind, n, layer)

    def recorded_release(store, name, nbytes):
        done = store.released[name]
        release(store, name, nbytes)
        if store.released[name] != done:
            at = store.offsets[name]
            dropped.append((at, done, store.released[name], at + nbytes))

    monkeypatch.setattr(material_mod.MaterialStore, "take", recorded)
    monkeypatch.setattr(material_mod.MaterialStore, "release", recorded_release)
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=25)
    plan = build_plan(g, with_weights=True)
    stores = generate_material(plan, 26)
    before = [{name: np.array(a) for name, a in s.arrays.items()} for s in stores]
    run = secure_infer_local(g, _random_input(g.input_shape, 27), seed=26,
                             materials=stores, plan=plan)
    assert np.array_equal(run.output.words, run.clear_reference.words)
    page = material_mod._PAGE
    for store, words in zip(stores, before):
        first = {name: -(-at // page) * page for name, at in store.offsets.items()}
        for name, kind in material_mod._STREAMS:
            taken = store.arrays[name][:last.get((store.party, kind), 0)]
            start = store.offsets[name] + taken.nbytes
            assert store.released[name] == max(first[name], start // page * page), name
            assert np.array_equal(store.arrays[name], words[name]), name
    assert dropped and all(at <= lo < hi <= end for at, lo, hi, end in dropped)
    verify_material_pair(*stores, CFG)
    # After the session, write_material still writes the dealer's files.
    paths = [tmp_path / f"party{party}.dlr" for party in (0, 1)]
    material_mod.deal_material(plan, 26, paths)
    for store, path in zip(stores, paths):
        write_material(store, str(tmp_path / "written.dlr"))
        assert (tmp_path / "written.dlr").read_bytes() == path.read_bytes(), store.party


@pytest.mark.parametrize("party", [0, 1])
def test_damaged_material_files_are_rejected_before_any_stream_is_expanded(
        tmp_path, monkeypatch, party):
    expanded = []
    p = tmp_path / "m.dlr"
    write_material(generate_material(_StubPlan(**_EVERY_KIND), 28)[party], str(p))
    good = p.read_bytes()
    monkeypatch.setattr(material_mod.MaterialStore, "expand",
                        lambda self, *a: expanded.append(a))
    at = len(good) - 40             # a stored word of party 1, party 0's key
    for blob in (good[:-1], good[:len(good) // 2],
                 good[:at] + bytes([good[at] ^ 4]) + good[at + 1:]):
        p.write_bytes(blob)
        with pytest.raises(MaterialError, match="integrity|not a dealer material"):
            load_material(str(p))
    assert expanded == []


@pytest.mark.parametrize("party", [0, 1])
def test_resealed_files_with_a_bad_party_or_length_are_rejected_before_any_expansion(
        tmp_path, monkeypatch, party):
    import hashlib
    import struct

    expanded = []
    p = tmp_path / "m.dlr"
    write_material(generate_material(_StubPlan(**_EVERY_KIND), 32)[party], str(p))
    body = p.read_bytes()[:-32]
    monkeypatch.setattr(material_mod.MaterialStore, "expand",
                        lambda self, *a: expanded.append(a))
    damaged = {"for party 2": body[:5] + bytes([2]) + body[6:]}
    if party == 1:          # party 0 stores no stream, so its length fits any count
        mul_at = 56         # the first count, after magic, bytes, seed and graph hash
        mul = struct.unpack_from("<Q", body, mul_at)[0]
        damaged["stream lengths are inconsistent"] = (
            body[:mul_at] + struct.pack("<Q", mul + 1) + body[mul_at + 8:])
    for message, blob in damaged.items():
        p.write_bytes(blob + hashlib.sha256(blob).digest())
        with pytest.raises(MaterialError, match=message):
            load_material(str(p))
    assert expanded == []


def test_sessions_and_failed_loads_return_every_file_descriptor(tmp_path):
    import gc
    import os

    def open_fds():
        gc.collect()
        return len(os.listdir("/proc/self/fd"))

    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=29)
    plan = build_plan(g, with_weights=True)
    x = _random_input(g.input_shape, 30)
    secure_infer_local(g, x, seed=31, plan=plan)        # warm the imports
    before = open_fds()
    run = secure_infer_local(g, x, seed=31, plan=plan)
    assert np.array_equal(run.output.words, run.clear_reference.words)
    assert open_fds() == before
    p = tmp_path / "m.dlr"
    write_material(generate_material(plan, 31)[1], str(p))
    loaded = load_material(str(p))
    assert open_fds() > before
    del loaded
    assert open_fds() == before
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.raises(MaterialError, match="integrity"):
        load_material(str(p))
    assert open_fds() == before


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
        return engine.beaver(x_sh[engine.party], y_sh[engine.party], "t")

    r0, r1, *_ = run_two(fn, _StubPlan(mul=n), seed=11)
    assert np.array_equal(_recon(r0, r1), ring_mul(x, y).words)


def test_beaver_zero_and_one():
    rng = np.random.default_rng(12)
    one = encode_fixed(np.array([1.0, 0.0]), CFG)
    other = encode_fixed(np.array([1.0, 5.0]), CFG)
    x_sh = _split(one, rng)
    y_sh = _split(other, rng)

    def fn(engine):
        return engine.beaver(x_sh[engine.party], y_sh[engine.party], "t")

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
        return engine.beaver(x_sh[engine.party], x_sh[engine.party], "t")

    _, _, e0, e1 = run_two(fn, _StubPlan(mul=n), seed=15)
    assert e0.ledger.entries["t", "mul-open"].bytes_sent == 16 * n
    assert e1.ledger.entries["t", "mul-open"].bytes_sent == 16 * n


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
        out[e.party] = e.beaver(x_sh[e.party], y_sh[e.party], "t")

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


def _summed_operands(case, rng):
    """Operands shaped as ``run_plan`` hands them to ``mul_sum``, and the axis.

    "direct" is (positions, groups, out per group, in x k x k), summed over
    the last axis in groups of 27; "winograd" is (batch, tile, tile, groups,
    out per group, in per group, n, n), summed over the in-channel axis 5 in
    groups of 5 x 16.  x broadcasts over the out channels, the weights over
    the positions or tiles.
    """
    if case == "direct":
        xs, ws, shape, axis = (50, 2, 1, 27), (1, 2, 3, 27), (50, 2, 3, 27), -1
    else:
        xs, ws, shape, axis = ((1, 3, 3, 1, 1, 5, 4, 4), (1, 1, 1, 1, 4, 5, 4, 4),
                               (1, 3, 3, 1, 4, 5, 4, 4), 5)
    x = rng.integers(0, 2**60, size=xs, dtype=np.uint64)
    w = rng.integers(0, 2**60, size=ws, dtype=np.uint64)
    return x, w, shape, axis


@pytest.mark.parametrize("chunk,step", [(plan_mod.BEAVER_CHUNK, plan_mod.SLICE),
                                        (1000, 61), (997, 160)])
@pytest.mark.parametrize("case", ["direct", "winograd"])
def test_summed_beaver_is_the_clear_product_sum_bit_for_bit(case, chunk, step, monkeypatch):
    # Chunks of 1000 and 997 end inside groups; slices of 61 hold no whole
    # winograd group, slices of 160 two of them, and both split direct ones.
    monkeypatch.setattr(plan_mod, "BEAVER_CHUNK", chunk)
    monkeypatch.setattr(plan_mod, "SLICE", step)
    rng = np.random.default_rng(17)
    x, w, shape, axis = _summed_operands(case, rng)
    n = math.prod(shape)
    x_sh = _split(RingTensor(x, 60), rng)
    w_sh = _split(RingTensor(w, 60), rng)

    def fn(engine):
        p = engine.party
        return engine.beaver(np.broadcast_to(x_sh[p], shape),
                             np.broadcast_to(w_sh[p], shape), "t", axis=axis)

    r0, r1, e0, e1 = run_two(fn, _StubPlan(mul=n), seed=18)
    xb, wb = np.broadcast_to(x, shape), np.broadcast_to(w, shape)
    want = (xb * wb).sum(axis=axis) & np.uint64(2**60 - 1)
    assert r0.shape == r1.shape == want.shape
    assert np.array_equal(_recon(r0, r1), want)
    assert np.array_equal(ClearOps(CFG).mul_sum(xb, wb, axis, None), want)
    for e in (e0, e1):
        row = e.ledger.entries["t", "mul-open"]
        assert (row.bytes_sent, row.rounds) == (16 * n, -(-n // chunk))


def test_summed_products_hold_no_product_array():
    import tracemalloc

    # An fc-shaped sum of n = 2^20 products into 1,024 outputs.  Its whole
    # product array would take 8 MiB per party, the clear side's as well.
    b, o, i = 16, 64, 1024
    n, shape = b * o * i, (b, o, i)
    rng = np.random.default_rng(19)
    x = rng.integers(0, 2**60, size=(b, 1, i), dtype=np.uint64)
    w = rng.integers(0, 2**60, size=(o, i), dtype=np.uint64)
    want = (np.broadcast_to(x, shape) * w).sum(axis=-1) & np.uint64(2**60 - 1)
    out_bytes, slice_bytes = 8 * b * o, 8 * plan_mod.SLICE
    tracemalloc.start()
    try:
        got = ClearOps(CFG).mul_sum(np.broadcast_to(x, shape), np.broadcast_to(w, shape),
                                    -1, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak <= out_bytes + slice_bytes + (1 << 20)

    x_sh = _split(RingTensor(x, 60), rng)
    w_sh = (w, np.broadcast_to(np.uint64(0), w.shape))      # (W, 0), as in a session
    plan = _StubPlan(mul=n)
    m0, m1 = generate_material(plan, 20)
    t0, t1 = QueueTransport.pair()
    engines = (PartyEngine(0, plan, t0, m0), PartyEngine(1, plan, t1, m1))
    out = {}

    def side(e):
        out[e.party] = e.beaver(np.broadcast_to(x_sh[e.party], shape),
                                np.broadcast_to(w_sh[e.party], shape), "t", axis=-1)

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
    assert np.array_equal(_recon(out[0], out[1]), want)
    # Per party: its (2n,) payload (16 B per product), the sums and its
    # three reused slice buffers; 1 MiB covers the rest.
    assert peak <= 2 * (16 * n + out_bytes + 3 * slice_bytes) + (1 << 20)


def test_dealer_peak_is_its_shares_and_at_most_one_stream():
    import tracemalloc

    plan = _StubPlan(mul=1 << 21, aux=1 << 12, trunc=1 << 12, cmp=1 << 12,
                     bool_words=64 * MERGE_RECORD)
    tracemalloc.start()
    try:
        stores = generate_material(plan, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The stores' streams live in their spills, which tracemalloc does not
    # count; the dealer holds one step of each stream at a time, a bound
    # that does not grow with the plan.  One whole mul stream is 16 MiB,
    # twice the bound.
    step = sum(a.nbytes // len(a) * min(material_mod._CHUNK, len(a))
               for s in stores for a in s.arrays.values())
    assert peak <= 1.5 * step < stores[0].arrays["mul_a"].nbytes


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
        return engine.truncate_shares(x_sh[engine.party], "t")

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
        return engine.relu_shares(x_sh[engine.party], "t")

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
        lambda e: e.less_than_mask(jobs[e.party], "t"), plan, seed=n_bits)
    assert np.array_equal(_recon(r0, r1), want.astype(np.uint64))
    # The gate alone for at most 3 digits, one merge before it for 4 to
    # 15, two for 16; the gate opens f and four v bits.
    digits = lt_digits(n_bits)
    rounds = 1 if digits <= 3 else 2 if digits <= 15 else 3
    words = -(-n // 64)
    for e in (e0, e1):
        assert _layer_rounds(e.ledger, "t") == {"bool-open": rounds}
        assert e.ledger.entries["t", "bool-open"].bytes_sent == 8 * words * (
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

    def record(engine, state, rnd, layer):
        # A group of k digits opens its k L bits, and its k E bits less
        # one if it is the lowest group of its job.
        slots = [rnd.slot[rnd.group == g] for g in range(rnd.groups)]
        merged[engine.party].append(
            [(int((s < 5).sum()), int((s >= 5).sum()) == (s < 5).sum() - 1) for s in slots])
        return merge(engine, state, rnd, layer)

    monkeypatch.setattr(PartyEngine, "_merge", record)
    r0, r1, e0, e1 = run_two(
        lambda e: e.less_than_mask(jobs[e.party], "t"), plan, seed=107)
    assert np.array_equal(_recon(r0, r1), want.astype(np.uint64))
    # One merge open: the borrow's lowest 4 of 6 digits, then the three
    # 5-digit groups of each 15-digit job; then one gate open for all three.
    groups = [(4, True)] + 2 * [(5, True), (5, False), (5, False)]
    assert merged == ([groups], [groups])
    assert plan.requirements().bool_words == 7 * MERGE_RECORD * words
    for e in (e0, e1):
        assert _layer_rounds(e.ledger, "t") == {"bool-open": 2}
        assert e.ledger.entries["t", "bool-open"].bytes_sent == 8 * words * (
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

    # Both groups read the same five digits: rows 0-4 hold lt, 5-9 eq.
    rnd = merge_round(((range(5), range(5, 10), True), (range(5), range(5, 10), False)))

    def fn(engine):
        return engine._merge(np.concatenate(shares[engine.party]), rnd, "t")

    out0, out1, e0, e1 = run_two(fn, plan, seed=112)
    # Rows: each group's lt, then each group's eq.
    lt_low, lt_up, _, eq_up = unpack_bitplanes(out0 ^ out1, n)
    assert np.array_equal(lt_low, want_lt)            # the lowest group's role
    assert np.array_equal(lt_up, want_lt)             # an upper group's role
    assert np.array_equal(eq_up, want_eq)
    for e in (e0, e1):
        # The lowest group opens its 5 lt and 4 eq bits, an upper group 10.
        assert _layer_rounds(e.ledger, "t") == {"bool-open": 1}
        assert e.ledger.entries["t", "bool-open"].bytes_sent == 8 * words * (9 + 10)
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
        lambda e: e.less_than_mask(jobs[e.party], "t"), _StubPlan(), seed=109)
    assert np.array_equal(_recon(r0, r1), want.astype(np.uint64))
    for e in engines:
        # f and v, five words per 64 elements, in one round.
        assert _layer_rounds(e.ledger, "t") == {"bool-open": 1}
        assert e.ledger.entries["t", "bool-open"].bytes_sent == 5 * 8 * rec.size // 64


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_less_than_batches_reconstruct_and_cost_what_lt_cost_says(data):
    """Property: any batch of one to three jobs, each of 1 to 61 bits with
    no flip, a scalar flip or a flip per element, over 1 to 200 elements,
    reconstructs [c < r] ^ flip, books the bytes and rounds ``lt_cost``
    gives, and leaves the boolean cursor on the batch's merge records."""
    widths = data.draw(st.lists(st.integers(1, 61), min_size=1, max_size=3), label="widths")
    n = data.draw(st.integers(1, 200), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    jobs, want = ([], []), []
    for n_bits in widths:
        top = (1 << n_bits) - 1
        r = rng.integers(0, top, size=n, endpoint=True, dtype=np.uint64)
        c = rng.integers(0, top, size=n, endpoint=True, dtype=np.uint64)
        # Some elements equal r, or differ from it in the lowest digit only.
        near = rng.integers(0, 3, size=n)
        c = np.where(near == 0, r, c)
        c = np.where(near == 1, (r & ~np.uint64(15)) | (c & np.uint64(15)), c) & np.uint64(top)
        flip = data.draw(st.sampled_from(["none", "scalar", "each"]), label="flip")
        flip = {"none": 0, "scalar": 1,
                "each": rng.integers(0, 2, size=n, dtype=np.uint8)}[flip]
        tab = digit_tables(r, n_bits)
        t0 = rng.integers(0, 2**32, size=tab.shape, dtype=np.uint32)
        gates = _gate_shares(n, rng)
        jobs[0].append((c, t0, gates[0], n_bits, flip))
        jobs[1].append((c, tab ^ t0, gates[1], n_bits, flip))
        want.append((c < r) ^ np.asarray(flip, bool))
    costs = [lt_cost(n, w) for w in widths]
    plan = _StubPlan(bool_words=sum(cost.bool_words for cost in costs))
    r0, r1, e0, e1 = run_two(
        lambda e: e.less_than_mask(jobs[e.party], "t"), plan, seed=n)
    assert np.array_equal(_recon(r0, r1), np.concatenate(want).astype(np.uint64))
    for e in (e0, e1):
        assert _layer_rounds(e.ledger, "t") == {"bool-open": max(c.rounds for c in costs)}
        assert e.ledger.entries["t", "bool-open"].bytes_sent == sum(
            8 * c.open_words + 40 * c.gate_words for c in costs)
        assert e.material.cursors["bool"] == plan.requirements().bool_words


# -- secure sessions -----------------------------------------------------------------


def _random_input(shape, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)


def test_toynet_session_bitwise_and_mirrored():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=20)
    x = _random_input((1, 3, 16, 16), 21)
    run = secure_infer_local(g, x, seed=22)
    assert np.array_equal(run.output.words, run.clear_reference.words)
    assert ledgers_mirror(run.model.ledger, run.client.ledger)


@pytest.mark.parametrize("backbone, variant, size", [
    ("toynet", CellVariant.DENSE, 16),
    ("shufflenetv2", CellVariant.XOP, 16),
    ("resnet18", CellVariant.XOP, 32),
])
def test_sessions_read_no_payload_past_the_next_receive(reused_receive_buffers,
                                                         backbone, variant, size):
    g = model_zoo(backbone, variant, size, seed=40)
    run = secure_infer_local(g, _random_input(g.input_shape, 41), seed=42)
    assert np.array_equal(run.output.words, run.clear_reference.words)


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
        conv_bytes = run.client.ledger.entries["c", "mul-open"].bytes_sent
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
    assert run.client.ledger.entries["c", "mul-open"].bytes_sent // 16 == \
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
    g = _transform(g_direct, "body", 6)
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


def test_transcript_determinism_and_seed_sensitivity(transcripts):
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=37)
    x = _random_input((1, 3, 16, 16), 38)
    for seed in (39, 39, 40):
        secure_infer_local(g, x, seed=seed)
    (a_client, a_model), (b_client, b_model), (c_client, c_model) = (
        [r.sent_digest for r in s] for s in transcripts)
    assert a_client == b_client
    assert a_model == b_model
    assert a_client != c_client
    assert a_model != c_model


def test_transcripts_hash_each_sent_byte_once(monkeypatch):
    # A session run as it is hashes no frame; one whose transports are
    # wrapped in recorders hashes each byte it sends once, by its sender.
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

    frames = [0]
    send = QueueTransport.send

    def counting_send(self, frame):
        frames[0] += 1
        send(self, frame)

    monkeypatch.setattr(wire, "hashlib", types.SimpleNamespace(sha256=CountingSha256))
    monkeypatch.setattr(QueueTransport, "send", counting_send)
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=37)
    x = _random_input((1, 3, 16, 16), 38)
    secure_infer_local(g, x, seed=39)
    assert frames[0] > 0 and hashed[0] == 0

    frames[0] = 0
    pair = QueueTransport.pair
    monkeypatch.setattr(QueueTransport, "pair", staticmethod(
        lambda: tuple(wire.TranscriptRecorder(t) for t in pair())))
    run = secure_infer_local(g, x, seed=39)
    ledgers = (run.client.ledger, run.model.ledger)
    assert frames[0] > 0
    assert hashed[0] == sum(led.total_sent for led in ledgers) + 10 * frames[0]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_graph_structures_bitwise(data):
    """Property: any well-formed layer stack reconstructs the clear bits.

    Besides chains of convs, ReLUs, shuffles and pools, a draw may hold a
    stride-2 conv, a depthwise conv, an add join whose conv output a ReLU
    also reads, a concat join read by a ReLU (not fused), two fused
    conv->ReLU pairs interleaved so each truncation's sign share waits
    while other layers run, nested joins (a join that reads a join while
    the skip around both stays open), skips left open across later layers
    and joined by an add or a concat, several open at once, and a final
    fully-connected layer.  It may run
    its eligible convs as transform convs, on the default tiles or on 6
    alone, and open its products in Beaver chunks small enough that a
    layer's products span several.
    """
    from unittest import mock

    from xconv2pc.winograd import TILE_CANDIDATES, rewrite_winograd

    c = data.draw(st.sampled_from([2, 4, 6]), label="channels")
    hw = data.draw(st.sampled_from([6, 8, 10]), label="hw")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    b = GraphBuilder((1, c, hw, hw), seed=seed)
    cur, cur_c, cur_hw = INPUT, c, hw
    skips = []      # (layer, channels, hw) left open for a later join
    n_layers = data.draw(st.integers(2, 5), label="depth")
    for i in range(n_layers):
        menu = ["conv", "relu", "shuffle", "pw", "dw", "add", "cat", "fork", "nest",
                "open"]
        if cur_hw >= 4:
            menu += ["maxpool", "avgpool", "sconv"]
        if cur_c % 2 == 0:
            menu.append("gconv")
        joinable = [k for k, (_, _, s_hw) in enumerate(skips) if s_hw == cur_hw]
        if joinable:
            menu.append("join")
        kind = data.draw(st.sampled_from(menu), label=f"layer{i}")
        name = f"l{i}"
        if kind == "conv":
            out_c = data.draw(st.sampled_from([2, 3, 4]), label=f"oc{i}")
            cur = b.conv(name, cur, cur_c, out_c, 3)
            cur_c = out_c
        elif kind == "sconv":
            out_c = data.draw(st.sampled_from([2, 3, 4]), label=f"oc{i}")
            cur = b.conv(name, cur, cur_c, out_c, 3, stride=2)
            cur_c, cur_hw = out_c, (cur_hw + 1) // 2
        elif kind == "pw":
            out_c = data.draw(st.sampled_from([2, 4, 6]), label=f"oc{i}")
            cur = b.conv(name, cur, cur_c, out_c, 1, padding=0)
            cur_c = out_c
        elif kind == "gconv":
            cur = b.conv(name, cur, cur_c, cur_c, 3, groups=2)
        elif kind == "dw":
            cur = b.conv(name, cur, cur_c, cur_c, 3, groups=cur_c)
        elif kind == "add":
            t = b.conv(f"{name}c", cur, cur_c, cur_c, 3)
            cur = b.add(name, cur, t, b.relu(f"{name}r", t))
        elif kind == "cat":
            t = b.conv(f"{name}c", cur, cur_c, 2, 3)
            cat = b.concat(name, t, b.shuffle(f"{name}s", cur, cur_c))
            cur, cur_c = b.relu(f"{name}r", cat), cur_c + 2
        elif kind == "fork":
            t = b.conv(f"{name}a", cur, cur_c, cur_c, 3)
            u = b.conv(f"{name}b", cur, cur_c, cur_c, 1, padding=0)
            cur = b.add(name, b.relu(f"{name}ra", t), b.relu(f"{name}rb", u))
        elif kind == "nest":
            j = b.add(f"{name}j", cur, b.conv(f"{name}a", cur, cur_c, cur_c, 3))
            k = b.add(f"{name}k", j, b.conv(f"{name}b", j, cur_c, cur_c, 1, padding=0))
            cur = b.add(name, k, cur)
        elif kind == "open":
            skips.append((cur, cur_c, cur_hw))
        elif kind == "join":
            src, src_c, _ = skips.pop(data.draw(st.sampled_from(joinable), label=f"skip{i}"))
            if src_c == cur_c and data.draw(st.booleans(), label=f"add{i}"):
                cur = b.add(name, cur, src)
            else:
                cur, cur_c = b.concat(name, cur, src), cur_c + src_c
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
    for i, (src, src_c, src_hw) in enumerate(skips):     # close what is left
        if src_hw == cur_hw:
            cur, cur_c = b.concat(f"close{i}", cur, src), cur_c + src_c
    if data.draw(st.booleans(), label="fc"):
        out = data.draw(st.integers(1, 4), label="out")
        b.fc("fc", cur, cur_c * cur_hw * cur_hw, out)
    g = b.build()
    tiles = data.draw(st.sampled_from([None, TILE_CANDIDATES, (6,)]), label="tiles")
    if tiles:
        g, _ = rewrite_winograd(g, candidates=tiles)
    x = _random_input((1, c, hw, hw), seed ^ 0x5A5A)
    chunk = data.draw(st.sampled_from([plan_mod.BEAVER_CHUNK, 257]), label="chunk")
    step = data.draw(st.sampled_from([plan_mod.SLICE, 61]), label="slice")
    with mock.patch.object(plan_mod, "BEAVER_CHUNK", chunk), \
            mock.patch.object(plan_mod, "SLICE", step):
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
    chunk = 1000
    monkeypatch.setattr(plan_mod, "BEAVER_CHUNK", chunk)
    b = GraphBuilder((1, 4, 8, 8), seed=73)
    gc = b.conv("gc", INPUT, 4, 6, 3, groups=2)           # grouped, direct
    b.conv("dw", gc, 6, 6, 3, groups=6, bias=False)      # depthwise, transform
    g = _transform(b.build(), "dw", 4)
    run = _run_with_cursor_check(g, _random_input((1, 4, 8, 8), 75), 74)
    for pl in run.plan.layers:
        assert pl.mults > chunk and pl.mults % chunk, pl.name
        for led in (run.model.ledger, run.client.ledger):
            assert led.entries[(pl.name, "mul-open")].rounds == -(-pl.mults // chunk)
            assert led.entries[pl.name, "mul-open"].bytes_sent == 16 * pl.mults
        # The session's own ledger check passed on the same patched chunk.
        rows = plan_mod.predict_ledger(run.plan.layers, run.plan.cfg)
        assert rows[pl.name, "mul-open"] == (16 * pl.mults, -(-pl.mults // chunk))


def test_flat_blocks_subtract_matches_contiguous_copy():
    # Beaver writes x - a into its payload block by block, straight from the
    # (broadcast) view: no block is a copy, and together they are the slice.
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
                w = rng.integers(0, 2**60, size=m, dtype=np.uint64)
                out = np.full(m, 7, dtype=np.uint64)
                for idx, i, j in flat_blocks(arr.shape, pos, m):
                    blk = arr[idx]
                    assert np.shares_memory(blk, base)
                    np.subtract(blk, w[i:j].reshape(blk.shape),
                                out=out[i:j].reshape(blk.shape))
                assert np.array_equal(out, flat[pos:pos + m] - w), (arr.shape, pos, m)


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
    b = GraphBuilder((1, 4, 8, 8), seed=99)
    w = b.conv("w", INPUT, 4, 4, 3)
    r1 = b.relu("r1", w)
    a = b.avgpool("a", r1, 2, 2)
    r2 = b.relu("r2", a)
    gp = b.global_avgpool("g", r2)
    r3 = b.relu("r3", gp)
    f = b.fc("f", r3, 4, 6)
    b.relu("r4", f)
    g = _transform(b.build(), "w", 4)
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

    from xconv2pc.runtime.wire import OP_HELLO

    plan = build_plan(model_zoo("toynet", CellVariant.DENSE, 16, seed=47),
                      with_weights=False)
    hello = session._hello_payload(plan, 48)
    # Version 1's hello had version 5's 44-byte layout.  Version 4's
    # carried a 16-byte share seed more: whole, it is malformed; cut to 44
    # bytes, its version is refused.
    bad = struct.pack("<H", 1 if old else 4) + hello[2:]
    assert len(hello) == len(bad) == 44
    for payload in (bad,) if old else (bad, bad + bytes(16)):
        t0, t1 = QueueTransport.pair()
        peer = PartyEngine(0, plan, t0, None)
        th = threading.Thread(target=peer.exchange, daemon=True,
                              args=(OP_HELLO, payload, "session", "hello"))
        th.start()
        with pytest.raises(HandshakeError):
            session.handshake(PartyEngine(1, plan, t1, None), 48)
        th.join(timeout=30)
        assert not th.is_alive()


def test_set_up_shares_are_the_weights_and_the_input_beside_zeros(monkeypatch):
    # The weights enter as (W, 0) and the input as (0, x): the client's
    # weight shares and the model owner's input share are zeros, no PRG is
    # drawn once the dealer is done, and the shares reconstruct W and x.
    shares, run = {}, PartyEngine.run

    def record_run(engine, input_share):
        shares[engine.party] = (input_share, {
            pl.name: engine.weight(pl) for pl in engine.plan.layers
            if pl.kind in ("conv2d", "fully-connected")})
        return run(engine, input_share)

    def no_prg(*args):
        raise AssertionError("a PRG was drawn online")

    monkeypatch.setattr(PartyEngine, "run", record_run)
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=49)
    x = _random_input(g.input_shape, 50)
    stores = generate_material(build_plan(g, with_weights=False), 51)
    monkeypatch.setattr(np.random, "default_rng", no_prg)
    out = secure_infer_local(g, x, seed=51, materials=stores)
    assert np.array_equal(out.output.words, out.clear_reference.words)
    (x0, w0), (x1, w1) = shares[0], shares[1]
    assert not x0.any()
    assert np.array_equal(_recon(x0, x1), encode_fixed(x, g.cfg).words)
    weighted = [pl for pl in out.plan.layers if pl.kind in ("conv2d", "fully-connected")]
    assert weighted and set(w0) == set(w1) == {pl.name for pl in weighted}
    for pl in weighted:
        words = pl.payload["weight"].words
        assert w1[pl.name].shape == words.shape and not w1[pl.name].any()
        assert w1[pl.name].strides == (0,) * words.ndim   # allocates nothing
        assert np.array_equal(_recon(w0[pl.name], w1[pl.name]), words)


def test_weights_stay_masked_in_every_opened_difference(monkeypatch):
    # Same graph, weights and input under two dealer seeds.  Party 0 opens
    # d = x - a and e = W - b; its payloads move with the dealer's masks,
    # and no e-half shows the layer's weight words.
    opened, weights = [], []
    exchange, mul_sum = PartyEngine.exchange, PartyEngine.mul_sum

    def record_exchange(engine, opcode, payload, layer, op):
        if engine.party == 0 and op == "mul-open":
            opened[-1].setdefault(layer, []).append(np.array(payload, dtype=np.uint64))
        return exchange(engine, opcode, payload, layer, op)

    def record_mul(engine, x, y, axis, pl):
        if engine.party == 0:
            weights[-1].setdefault(pl.name, []).append(np.ascontiguousarray(y).reshape(-1))
        return mul_sum(engine, x, y, axis, pl)

    monkeypatch.setattr(PartyEngine, "exchange", record_exchange)
    monkeypatch.setattr(PartyEngine, "mul_sum", record_mul)
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=55)
    x = _random_input(g.input_shape, 56)
    for seed in (57, 58):
        opened.append({})
        weights.append({})
        run = secure_infer_local(g, x, seed=seed)
        assert np.array_equal(run.output.words, run.clear_reference.words)
    assert opened[0] and opened[0].keys() == opened[1].keys() == weights[0].keys()
    for layer, payloads in opened[0].items():
        for a, b in zip(payloads, opened[1][layer]):
            m = a.size // 2
            assert not np.array_equal(a[:m], b[:m]) and not np.array_equal(a[m:], b[m:])
        w = np.concatenate(weights[0][layer])
        assert np.array_equal(w, np.concatenate(weights[1][layer]))
        for run_payloads in (payloads, opened[1][layer]):
            e = np.concatenate([p[p.size // 2:] for p in run_payloads])
            assert e.shape == w.shape and not np.any(e == w), layer


def test_dealer_files_and_transcripts_match_their_pins(tmp_path, transcripts):
    # Any change to the dealer's PRG draw order or to the bytes an open
    # sends moves these pins.  The plain xop graph has no tagged conv; the
    # two rewritten graphs send 13 tagged convs each (10 at tile 4, 3 at
    # tile 6) through the transform kernel, depthwise in xop and dense in
    # dense.  Per case: both .dlr files, then the client's and the model
    # owner's sent digests.
    import hashlib

    from xconv2pc.winograd import rewrite_winograd

    cases = {
        (CellVariant.XOP, False): (
            "e67a1f696a6965821640f7033e0ac195fcf9979ef5a9ee3f142715a23c7bc8c3",
            "7cb823f2b985340f89cf20f37c6091661bc7f734c417c08e10b465f53bf4f8b5",
            "9804d3b0f68570a9e305326734e928c0d30879ced38e62605deb1dce8696e760",
            "bca0a38da336b5b5acb316ca9156313a9389f73b24472345f89fb07edf1683c8"),
        (CellVariant.XOP, True): (
            "9b5f9113fa5104b313883bb5e369666948d0647b3f7809049dc6c8a40b0c4ff1",
            "0a58cb9a0fab7a2cc93022fc9b6c2efc8c5da06beb4a1eb9e7d8c5a9de8aab74",
            "2d5a299aa0cf992e01a757bfa7065def851d3f3e729ad6b370eb9cc614d3957f",
            "8e15280d015e1b87b4d9fb284bcf0a9ed96024f0ab7fe09ded217b2b0b1f4550"),
        (CellVariant.DENSE, True): (
            "83789b1c0bd85860e61e739344686a018510a227ab24ed6a641cdb987486ae4b",
            "8633cd63b4dacab18ce314606cfbe91a868616bd22f0f3f5edf8fc9b863de710",
            "d17103e2253ab69198d67225ec0b6f6b8acffed82ce0d58f42fe561c61e5750b",
            "b15bdf404204e49470f83c01c7068c4828965c5d85934214bb966dfe99ed6115"),
    }
    for (variant, rewrite), pins in cases.items():
        g = model_zoo("shufflenetv2", variant, 32, seed=3)
        if rewrite:
            g, _ = rewrite_winograd(g)
        stores = generate_material(build_plan(g, with_weights=False), 9)
        for store, pin in zip(stores, pins):
            path = tmp_path / f"party{store.party}.dlr"
            write_material(store, str(path))
            assert hashlib.sha256(path.read_bytes()).hexdigest() == pin, variant
        run = secure_infer_local(g, _random_input(g.input_shape, 10), seed=9,
                                 materials=stores)
        assert np.array_equal(run.output.words, run.clear_reference.words)
        assert tuple(r.sent_digest for r in transcripts[-1]) == pins[2:], variant
        del stores, run


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


def _run_both(*parties) -> dict:
    """Run each (name, party function, *args) in a thread for at most 5 s;
    return what each raised."""
    raised = {}

    def party(name, fn, *args):
        try:
            fn(*args)
        except Exception as e:
            raised[name] = e

    threads = [threading.Thread(target=party, daemon=True, args=args)
               for args in parties]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=5)
    assert not any(th.is_alive() for th in threads), "a party still runs after 5 s"
    return raised


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
    out_bytes = model.ledger.entries["session", "output-open"].bytes_sent
    assert out_bytes == 8 * client.output.words.size
    assert model.ledger.total_sent == client.ledger.total_sent + out_bytes


@pytest.mark.parametrize("transport", ["queue", "tcp"])
def test_both_parties_catch_a_conversion_split_in_two_opens(transport, monkeypatch):
    # Same bits, same triples, one more round: only the ledger check sees it.
    # The split is relu1's sign-bit product, its one auxiliary open.
    from xconv2pc.runtime.session import run_client_party, run_model_party

    beaver = PartyEngine.beaver

    def in_halves(engine, x, y, layer, kind="mul", axis=None):
        if layer != "relu1":
            return beaver(engine, x, y, layer, kind, axis)
        h = x.size // 2
        return np.concatenate([beaver(engine, x[:h], y[:h], layer, kind),
                               beaver(engine, x[h:], y[h:], layer, kind)])

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


@pytest.mark.parametrize("transport", ["queue", "tcp"])
def test_a_ledger_mismatch_on_one_party_stops_both_with_the_verification_exit_code(
        transport, monkeypatch):
    # Only party 0 books relu1's auxiliary open as two rounds: same frames,
    # same bits, one more round in its own ledger alone.  Its check runs
    # before the sync and raises; the client, whose ledger is right, waits
    # in the sync and ends on the abort with the verification exit code, 7.
    from xconv2pc.runtime.session import run_client_party, run_model_party

    beaver = PartyEngine.beaver

    def misbooked(engine, x, y, layer, kind="mul", axis=None):
        out = beaver(engine, x, y, layer, kind, axis)
        if engine.party == 0 and layer == "relu1":
            engine.ledger.bump_round(layer, f"{kind}-open")
        return out

    monkeypatch.setattr(PartyEngine, "beaver", misbooked)
    t0, t1 = QueueTransport.pair() if transport == "queue" else _tcp_pair()
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=52)
    plan0 = build_plan(g, with_weights=True)
    plan1 = build_plan(g, with_weights=False)
    m0, m1 = generate_material(plan0, 53)
    x = encode_fixed(_random_input(g.input_shape, 54), g.cfg)
    try:
        raised = _run_both(
            ("model", run_model_party, plan0, t0, m0, 53),
            ("client", run_client_party, plan1, t1, m1, 53, x))
    finally:
        for t in (t0, t1):
            t.close()
    want = session.expected_ledger(plan0, 0)["relu1", "aux-open"][0]
    err = raised["model"]
    assert isinstance(err, VerificationError)
    assert str(err) == (f"party 0 ledger at relu1/aux-open: predicted {want} B in "
                        f"1 rounds, measured {want} B in 2 rounds")
    assert isinstance(raised["client"], ProtocolAbort)
    assert str(raised["client"]) == f"VerificationError: {err}"
    assert raised["client"].exit_code == VerificationError.exit_code == 7


def test_session_fails_cleanly_on_short_material():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=44)
    small = GraphBuilder((1, 3, 16, 16), seed=44)
    small.conv("c", INPUT, 3, 4, 3, bias=False)
    starved = build_plan(small.build(), with_weights=False)
    materials = generate_material(starved, 45)  # far too little for toynet
    with pytest.raises(MaterialError):
        secure_infer_local(g, _random_input((1, 3, 16, 16), 46), seed=45,
                           materials=materials)


def test_a_party_short_of_material_stops_both_parties_on_its_error():
    # Only party 0's mul streams are one triple short.  Party 0 fails at
    # the last layer that multiplies and sends an abort naming its error;
    # the client, waiting on party 0's open, ends on that abort, and the
    # root cause is raised.  A thread bounds the call, so a party left
    # waiting on its peer fails the test rather than hanging it.
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=44)
    plan = build_plan(g, with_weights=True)
    m0, m1 = generate_material(plan, 45)
    for name in ("mul_a", "mul_b", "mul_c"):
        m0.arrays[name] = m0.arrays[name][:-1]
    last = [pl.name for pl in plan.layers if pl.mults][-1]
    raised = {}

    def call():
        try:
            secure_infer_local(g, _random_input(g.input_shape, 46), seed=45,
                               materials=(m0, m1), plan=plan)
        except Exception as e:
            raised["error"] = e

    th = threading.Thread(target=call, daemon=True)
    th.start()
    th.join(timeout=5)
    assert not th.is_alive(), "a party still waits on its peer after 5 s"
    err = raised["error"]
    assert isinstance(err, MaterialError)
    assert f"exhausted at layer {last}, op mul" in str(err)
    assert isinstance(err.__cause__, ProtocolAbort)
    assert str(err.__cause__) == f"MaterialError: {err}"


def test_a_tcp_peer_short_of_material_stops_its_peer_with_the_material_exit_code():
    # As above, over loopback TCP: the client ends on party 0's abort, and
    # the abort carries the exit family of the error it names, 6.
    from xconv2pc.runtime.session import run_client_party, run_model_party

    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=44)
    plan0 = build_plan(g, with_weights=True)
    plan1 = build_plan(g, with_weights=False)
    m0, m1 = generate_material(plan0, 45)
    for name in ("mul_a", "mul_b", "mul_c"):
        m0.arrays[name] = m0.arrays[name][:-1]
    x = encode_fixed(_random_input(g.input_shape, 46), g.cfg)
    t0, t1 = _tcp_pair()
    try:
        raised = _run_both(
            ("model", run_model_party, plan0, t0, m0, 45),
            ("client", run_client_party, plan1, t1, m1, 45, x))
    finally:
        for t in (t0, t1):
            t.close()
    assert isinstance(raised["model"], MaterialError)
    assert isinstance(raised["client"], ProtocolAbort)
    assert raised["client"].exit_code == MaterialError.exit_code == 6
    assert str(raised["client"]).startswith("MaterialError: dealer material exhausted")


def test_tcp_parties_holding_different_graphs_both_stop_with_the_handshake_exit_code():
    # The client's fc has no bias: same footprint, another graph hash.  Each
    # party reads the other's hello, finds the hash differs and stops.
    from xconv2pc.runtime.session import run_client_party, run_model_party

    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=44)
    other = model_zoo("toynet", CellVariant.DENSE, 16, seed=44)
    _spec(other, "fc").attrs["bias"] = False
    plan0 = build_plan(g, with_weights=True)
    plan1 = build_plan(other, with_weights=False)
    m0, m1 = generate_material(plan0, 45)
    x = encode_fixed(_random_input(g.input_shape, 46), g.cfg)
    t0, t1 = _tcp_pair()
    try:
        raised = _run_both(
            ("model", run_model_party, plan0, t0, m0, 45),
            ("client", run_client_party, plan1, t1, m1, 45, x))
    finally:
        for t in (t0, t1):
            t.close()
    for name in ("model", "client"):
        err = raised[name]
        assert isinstance(err, HandshakeError), (name, err)
        assert str(err) == "graph hash mismatch: parties hold different architectures"
        assert err.exit_code == 4


@pytest.mark.parametrize("mismatch", ["ring", "seed"])
def test_tcp_parties_on_another_ring_or_seed_both_stop_with_the_handshake_exit_code(mismatch):
    # "ring": the client's plan differs from the model owner's in its scale
    # alone.  "seed": both hold one dealing's files, but the client runs
    # from another session seed.  Either way each party reads the other's
    # hello and stops before any layer.
    from xconv2pc.runtime.session import run_client_party, run_model_party

    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=62)
    other = g
    if mismatch == "ring":
        other = model_zoo("toynet", CellVariant.DENSE, 16, seed=62,
                          cfg=FixedPointConfig(scale=g.cfg.scale - 1))
    plan0 = build_plan(g, with_weights=True)
    plan1 = build_plan(other, with_weights=False)
    m0, m1 = generate_material(plan0, 63)
    x = encode_fixed(_random_input(g.input_shape, 64), other.cfg)
    t0, t1 = _tcp_pair()
    try:
        raised = _run_both(
            ("model", run_model_party, plan0, t0, m0, 63),
            ("client", run_client_party, plan1, t1, m1, 63 + (mismatch == "seed"), x))
    finally:
        for t in (t0, t1):
            t.close()
    reason = {"ring": "fixed-point configuration mismatch",
              "seed": "session seed commitment mismatch"}[mismatch]
    for name in ("model", "client"):
        err = raised[name]
        assert isinstance(err, HandshakeError), (name, err)
        assert str(err) == reason
        assert err.exit_code == 4
    assert m0.cursors == m1.cursors == {kind: 0 for kind in m0.cursors}


class _Recording:
    """A transport that notes the opcode, layer tag and payload size of
    each frame it sends."""

    def __init__(self, inner):
        self.inner, self.sent = inner, []

    def send(self, frame):
        self.sent.append((frame.opcode, frame.layer_tag, len(frame.payload)))
        self.inner.send(frame)

    def recv(self):
        return self.inner.recv()

    def close(self):
        self.inner.close()


def test_each_layer_frame_carries_its_plan_index_and_session_frames_the_session_tag():
    from xconv2pc.runtime.session import run_client_party, run_model_party
    from xconv2pc.runtime.wire import OP_HELLO, OP_OPEN_OUTPUT, OP_SYNC, SESSION_TAG

    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=65)
    plan0 = build_plan(g, with_weights=True)
    plan1 = build_plan(g, with_weights=False)
    m0, m1 = generate_material(plan0, 66)
    x = encode_fixed(_random_input(g.input_shape, 67), g.cfg)
    t0, t1 = (_Recording(t) for t in QueueTransport.pair())
    assert not _run_both(("model", run_model_party, plan0, t0, m0, 66),
                         ("client", run_client_party, plan1, t1, m1, 66, x))
    # Each open sends one frame per round, so a layer's predicted rows give
    # its frames and their bytes; the session checked its ledger against
    # the same prediction.
    index = {pl.name: i for i, pl in enumerate(plan0.layers)}
    for party, t in enumerate((t0, t1)):
        want, frames = {}, []
        for (layer, _), (nbytes, rounds) in session.expected_ledger(plan0, party).items():
            if layer != "session":
                b, k = want.get(index[layer], (0, 0))
                want[index[layer]] = (b + nbytes, k + rounds)
        got = {}
        for _, tag, nbytes in t.sent:
            if tag != SESSION_TAG:
                frames.append(tag)
                b, k = got.get(tag, (0, 0))
                got[tag] = (b + nbytes, k + 1)
        assert got == want and frames == sorted(frames), party
        output = [(OP_OPEN_OUTPUT, 8 * 10)] if party == 0 else []
        assert [(op, n) for op, tag, n in t.sent if tag == SESSION_TAG] == (
            [(OP_HELLO, 44)] + output + [(OP_SYNC, 0)]), party


class _ClosingAt:
    """A transport that closes its socket where it would send the ``nth``
    frame with tag ``tag``, as a party killed mid-layer leaves it."""

    def __init__(self, inner, tag, nth):
        self.inner, self.tag, self.left = inner, tag, nth

    def send(self, frame):
        if frame.layer_tag == self.tag:
            self.left -= 1
            if self.left == 0:
                self.inner.close()
        self.inner.send(frame)

    def recv(self):
        return self.inner.recv()


def test_a_tcp_peer_whose_socket_closes_mid_layer_stops_its_peer_with_the_transport_exit_code():
    # Party 0's socket closes at conv2's mask open, after its products are
    # opened.  The client, waiting on that open, reads the end of the stream.
    from xconv2pc.runtime.session import run_client_party, run_model_party

    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=44)
    plan0 = build_plan(g, with_weights=True)
    plan1 = build_plan(g, with_weights=False)
    m0, m1 = generate_material(plan0, 45)
    x = encode_fixed(_random_input(g.input_shape, 46), g.cfg)
    tag = [pl.name for pl in plan0.layers].index("conv2")
    t0, t1 = _tcp_pair()
    try:
        raised = _run_both(
            ("model", run_model_party, plan0, _ClosingAt(t0, tag, 2), m0, 45),
            ("client", run_client_party, plan1, t1, m1, 45, x))
    finally:
        for t in (t0, t1):
            t.close()
    # Each error names the layer and the op it stopped at; the client's
    # stream ended at a frame boundary, not inside a frame.
    err = raised["model"]
    assert isinstance(err, TransportError), err
    assert str(err).startswith("send failed") and str(err).endswith(" at conv2/mask-open")
    err = raised["client"]
    assert isinstance(err, TransportError), err
    assert str(err) == "peer closed the connection at conv2/mask-open"
    assert err.exit_code == 5


def test_a_send_that_fails_on_a_peer_that_aborted_and_closed_reports_the_abort():
    # The client aborts and closes before the model owner's hello, as a
    # client whose dealer file fails its digest does.  The hello's send
    # then fails on the closed connection; the abort waiting in the stream
    # is what the model owner reports, with its family's exit code.
    import time

    from xconv2pc.runtime.protocol import send_abort
    from xconv2pc.runtime.session import run_model_party

    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=44)
    plan0 = build_plan(g, with_weights=True)
    m0, _ = generate_material(plan0, 45)
    t0, t1 = _tcp_pair()
    try:
        send_abort(t1, "MaterialError: dealer material unusable")
        t1.close()
        t0.sock.sendall(b"\0")         # the closed peer answers with a reset
        time.sleep(0.1)
        with pytest.raises(ProtocolAbort) as err:
            run_model_party(plan0, t0, m0, 45)
    finally:
        t0.close()
    assert err.value.family is MaterialError and err.value.exit_code == 6


class _TagRewriter:
    """A transport that rewrites the layer tag of the ``nth`` frame it sends
    with tag ``tag``, so its peer receives a frame it did not expect."""

    def __init__(self, inner, tag, nth):
        self.inner, self.tag, self.left = inner, tag, nth

    def send(self, frame):
        from xconv2pc.runtime.wire import Frame

        if frame.layer_tag == self.tag:
            self.left -= 1
            if self.left == 0:
                frame = Frame(frame.opcode, self.tag + 1, frame.payload)
        self.inner.send(frame)

    def recv(self):
        return self.inner.recv()


@pytest.mark.parametrize("transport", ["queue", "tcp"])
def test_a_desynced_frame_stops_both_parties_with_the_transport_exit_code(transport):
    # Party 0's second frame at conv2, its truncation's mask open, arrives
    # under conv2's tag plus one.  The client names the layer and the op it
    # was at and aborts; party 0, waiting on the client's half of that
    # open, ends on the abort with the transport family's exit code, 5.
    from xconv2pc.runtime.session import run_client_party, run_model_party

    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=44)
    plan0 = build_plan(g, with_weights=True)
    plan1 = build_plan(g, with_weights=False)
    m0, m1 = generate_material(plan0, 45)
    x = encode_fixed(_random_input(g.input_shape, 46), g.cfg)
    tag = [pl.name for pl in plan0.layers].index("conv2")
    t0, t1 = QueueTransport.pair() if transport == "queue" else _tcp_pair()
    try:
        raised = _run_both(
            ("model", run_model_party, plan0, _TagRewriter(t0, tag, 2), m0, 45),
            ("client", run_client_party, plan1, t1, m1, 45, x))
    finally:
        for t in (t0, t1):
            t.close()
    err = raised["client"]
    assert isinstance(err, TransportError)
    assert str(err).startswith("protocol desync at conv2/mask-open:")
    assert isinstance(raised["model"], ProtocolAbort)
    assert str(raised["model"]) == f"TransportError: {err}"
    assert raised["model"].exit_code == TransportError.exit_code == 5


@pytest.mark.parametrize("reason, code", [
    ("VerificationError: ledger", 7),
    ("KeyError: 'x'", 1),
    ("EXIT_PARSE: not a class", 1),
    ("material mismatch", 1),
])
def test_an_abort_exits_with_the_family_of_the_error_it_names(reason, code):
    assert ProtocolAbort(reason).exit_code == code


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
    # The peer learns the family, not the detail: no dealer seed crosses.
    assert str(errors["model"]) == "MaterialError: material mismatch"
    assert errors["model"].exit_code == MaterialError.exit_code
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
