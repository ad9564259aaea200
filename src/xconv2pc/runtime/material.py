"""Dealer-side correlated randomness: generation, files, consumption.

The dealer knows the plan's exact resource footprint and emits one file
per party holding five kinds of sequential streams:

1. multiplication triples (a, b, c = a*b), one per secret multiplication,
2. auxiliary arithmetic triples for the sign-bit products of the
   nonlinear layers,
3. truncation units: an additive sharing of a fresh mask r, one of its
   unsigned shift, XOR-shared digit tables for the two comparisons
   against r (its low ``scale`` bits, then all of it), and one gate
   record for each of the two,
4. comparison tuples: an additive sharing of a fresh mask r, XOR-shared
   digit tables for the sign test against its low l-1 bits, and one gate
   record,
5. merge records: 62 XOR-shared 64-bit words each, one per merged digit
   group and 64 compared elements.

A digit table is one 32-bit word per DIGIT_BITS-bit digit r_j of the
compared mask bits, lowest digit first: bit v of its low half is
[v < r_j], bit v of its high half [v = r_j].  A party selects bit c_j of
its shares at the public digit c_j, which sends nothing (the dealer's
form of a one-out-of-16 OT).  A comparison tuple's sign test also needs
msb(r); the dealer XORs it into every entry of the top digit's lt row,
which the merge and the gate carry linearly to the result.

A merge record serves one group of up to five digits (0 the lowest):
ten fresh mask bits per element, those of L0..L4 and E0..E4, each packed
over 64 elements, and the 52 products of mask subsets that
lt = L4 ^ E4 L3 ^ ... ^ E4 E3 E2 E1 L0 and eq = E4 E3 E2 E1 E0 expand
into (``MERGE_SUBSETS``; a mask is the first word of its subset block).
A group of k < 5 digits reads the record's top k digits; the lowest
group of a comparison reads no E0, so it reads 9 masks and 37 products.
Records do not depend on which group takes them, so the dealer needs
only their count.

A gate record closes a comparison in one open with an additive result.
It holds XOR shares of five fresh bits in one byte, the masks of the
gate inputs L0, E1, L1 and E2 (bits 0 to 3) and g (bit 4), and
additive shares of the 16 ring values u_v = g ^ h(v ^ masks), h(L0, E1,
L1, E2) = E2 (L1 ^ E1 L0).  Once f = L2 ^ g and v are open,
lt = f ^ u_v = f + (1 - 2f) u_v.

Format version 4; version 3 held three-bit gates with four u values and
AND triples for a pairwise digit tree.  Identical seeds give
byte-identical files.  Both parties consume with lockstep cursors;
running past the end raises, and a file whose trailing digest does not
match its contents is rejected before any use.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import MaterialError
from ..plan import DIGIT_BITS, MERGE_DIGITS, MERGE_RECORD, FixedPlan, lt_digits
from ..ring import FixedPointConfig

_U64 = np.uint64
_U32 = np.uint32
_U8 = np.uint8
_ROW = 1 << DIGIT_BITS  # bits per table row; lt and eq rows share a 32-bit word

MATERIAL_MAGIC = b"DLR1"
MATERIAL_VERSION = 4
# magic, version, party, table digits per truncation unit and per
# comparison tuple, seed, graph hash, element count per cursor kind.
_HEADER = struct.Struct("<4sBBBBQ32s5Q")

# Streams in file order, with the cursor kind that sizes each; wider words
# come first so every stream starts aligned.
_STREAMS = (("mul_a", "mul"), ("mul_b", "mul"), ("mul_c", "mul"),
            ("aux_a", "aux"), ("aux_b", "aux"), ("aux_c", "aux"),
            ("trunc_r", "trunc"), ("trunc_shift", "trunc"), ("trunc_u", "trunc"),
            ("cmp_r", "cmp"), ("cmp_u", "cmp"),
            ("bool_merge", "bool"),
            ("trunc_tab", "trunc"), ("cmp_tab", "cmp"),
            ("trunc_gate", "trunc"), ("cmp_gate", "cmp"))
# dtype and the shape of one entry where it is not a single ring word; the
# tables' width comes from the header.
_ENTRY = {"trunc_u": ("<u8", (2, 16)), "cmp_u": ("<u8", (16,)),
          "trunc_tab": ("<u4", None), "cmp_tab": ("<u4", None),
          "trunc_gate": ("u1", (2,)), "cmp_gate": ("u1", ())}
_KINDS = ("mul", "aux", "trunc", "cmp", "bool")
_NAMES = {kind: tuple(name for name, k in _STREAMS if k == kind) for kind in _KINDS}
_SAMPLE = 4096  # leading entries of each stream verify_material_pair checks


@dataclass
class MaterialStore:
    """One party's preprocessed randomness with consumption cursors."""

    party: int
    seed: int
    graph_hash: bytes
    arrays: dict

    def __post_init__(self):
        self.cursors = {"mul": 0, "aux": 0, "trunc": 0, "cmp": 0, "bool": 0}

    def take(self, kind: str, n: int, layer: str) -> tuple:
        """The next n entries of each of the kind's streams, in file order.

        ``layer`` names the plan layer taking them, for the error raised
        when a stream runs out.
        """
        names = _NAMES[kind]
        cur = self.cursors[kind]
        end = cur + n
        if end > len(self.arrays[names[0]]):
            raise MaterialError(
                f"dealer material exhausted at layer {layer}, op {kind}: stream "
                f"{kind!r} needs {end}, holds {len(self.arrays[names[0]])}")
        self.cursors[kind] = end
        return tuple(self.arrays[name][cur:end] for name in names)

    def counts(self) -> dict:
        return {kind: len(self.arrays[name]) for name, kind in _STREAMS}


def prg(seed: int, domain: int) -> np.random.Generator:
    """The PRG of dealer material."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(domain,)))


def uniform(rng, shape, bitwidth) -> np.ndarray:
    """Uniform ring words of ``shape`` (a count or a tuple) from ``rng``."""
    return rng.integers(0, 1 << bitwidth, size=shape, dtype=_U64)


@functools.lru_cache(maxsize=32)
def _digit_rows(widths: tuple) -> tuple:
    """Where ``_digits`` finds each digit: its row among the values' low
    and high 32-bit halves, its shift within that half and its width's
    mask, as columns that act on whole rows."""
    half, shift, top = [], [], []
    for j, n_bits in enumerate(widths):
        for d in range(lt_digits(n_bits)):
            half.append(j + len(widths) * (d // 8))
            shift.append(DIGIT_BITS * (d % 8))
            top.append((1 << min(DIGIT_BITS, n_bits - DIGIT_BITS * d)) - 1)
    return (np.array(half), np.array(shift, _U32)[:, None],
            np.array(top, _U32)[:, None])


def _digits(values: np.ndarray, widths: tuple) -> np.ndarray:
    """(J, N) words -> (D, N) digits of row j's low widths[j] bits.

    Each row's lt_digits(widths[j]) digits, lowest first, follow one
    another in row order, so D is the sum of those counts.
    """
    half, shift, top = _digit_rows(widths)
    halves = np.concatenate([values, values >> _U64(32)]).astype(_U32)
    out = halves[half]
    out >>= shift
    out &= top
    return out


def digit_tables(r: np.ndarray, n_bits: int) -> np.ndarray:
    """(N,) masks -> (N, lt_digits(n_bits)) table words of their low n_bits."""
    eq = _U32(1) << _digits(r[None], (n_bits,))
    return np.ascontiguousarray(((eq - _U32(1)) | (eq << _U32(_ROW))).T)


def select_table_bits(tables: tuple, c: np.ndarray, widths: tuple) -> np.ndarray:
    """One party's shares of [c_j < r_j] and [c_j = r_j] for a batch of jobs.

    Job j compares the low widths[j] bits of row j of the (J, N) public
    ``c`` with the mask behind ``tables[j]``, the party's (N, digits)
    table shares.  Shifting each table word right by its public digit c_j
    picks the entries at c_j, which sends nothing.  Returns (2, D, N)
    0/1 bytes, lt then eq, the jobs' digits in the order ``_digits``
    gives.
    """
    for tab, n_bits in zip(tables, widths):
        if tab.shape[1] != lt_digits(n_bits):
            raise MaterialError(
                f"a {n_bits}-bit comparison reads {lt_digits(n_bits)} table digits "
                f"per element, the material holds {tab.shape[1]}")
    picked = np.empty((sum(t.shape[1] for t in tables), c.shape[1]), _U32)
    np.concatenate([t.T for t in tables], out=picked)     # digit-major rows
    picked >>= _digits(c, widths)
    picked &= _U32(1 | 1 << _ROW)
    bits = np.empty((2,) + picked.shape, _U8)
    np.copyto(bits[0], picked, casting="unsafe")                # the low byte
    np.greater_equal(picked, _U32(1 << _ROW), out=bits[1].view(bool))
    return bits


def _sign_tables(r: np.ndarray, bitwidth: int) -> np.ndarray:
    """Tables for [low(c) < low(r)] XOR msb(r) over the low bitwidth-1 bits.

    The merge and the gate are linear in the top digit's lt, so msb(r)
    XORed into every entry of that row lands on the result.
    """
    low = bitwidth - 1
    tab = digit_tables(r, low)
    top_width = low - DIGIT_BITS * (tab.shape[1] - 1)
    top_row = _U32((1 << (1 << top_width)) - 1)  # all 2^width entries
    tab[:, -1] ^= ((r >> _U64(low)) & _U64(1)).astype(_U32) * top_row
    return tab


def gate_bits(rec: np.ndarray) -> np.ndarray:
    """(...) gate bytes -> (5, ...) bytes, nonzero where the record's bit
    is set: the masks of the gate inputs L0, E1, L1 and E2 (bits 0 to 3),
    then g."""
    return rec & _GATE_BITS.reshape((5,) + (1,) * rec.ndim)


_GATE_BITS = _U8(1) << np.arange(5, dtype=_U8)


def gate_values(rec: np.ndarray) -> np.ndarray:
    """(...) gate bytes -> (..., 16) ring values u_v = g ^ h(v ^ masks).

    h(L0, E1, L1, E2) = E2 & (L1 ^ (E1 & L0)), the input bits of v from
    bit 0 up: the lt of three digit groups, less the top group's lt.
    """
    w = np.arange(16, dtype=_U8) ^ (rec[..., None] & _U8(15))
    h = (w >> _U8(3)) & ((w >> _U8(2)) ^ ((w >> _U8(1)) & w)) & _U8(1)
    return (h ^ (rec[..., None] >> _U8(4))).astype(_U64)


def _merge_subsets() -> tuple:
    """(l, a) for each merge-record word: the product of the mask of L_l
    (none when l = 5) and the masks of the E digits in bitmask a.

    Over five digits, 0 the lowest, lt = L4 ^ E4 L3 ^ E4 E3 L2 ^ E4 E3 E2 L1
    ^ E4 E3 E2 E1 L0 and eq = E4 E3 E2 E1 E0 have these non-empty mask
    subsets: one L_t with any set of E above it, and any set of E.  They
    are grouped by their lowest digit t, top digit first, L_t's before
    E_t's; the first of each half is the mask itself.
    """
    out = []
    for t in range(MERGE_DIGITS - 1, -1, -1):
        above = range(0, 1 << MERGE_DIGITS, 1 << (t + 1))
        out += [(t, a) for a in above] + [(MERGE_DIGITS, a | 1 << t) for a in above]
    return tuple(out)


MERGE_SUBSETS = _merge_subsets()
assert len(MERGE_SUBSETS) == MERGE_RECORD
_SUB_L, _SUB_A = (np.array(col) for col in zip(*MERGE_SUBSETS))
# Record words of the ten masks themselves: L0..L4, then E0..E4.
MERGE_MASKS = np.array([MERGE_SUBSETS.index((t, 0)) for t in range(MERGE_DIGITS)]
                       + [MERGE_SUBSETS.index((MERGE_DIGITS, 1 << t))
                          for t in range(MERGE_DIGITS)])


def e_products(e: np.ndarray) -> np.ndarray:
    """(5, ...) words -> (32, ...): at index a, the AND of the rows in bitmask a."""
    out = np.full((1,) + e.shape[1:], ~_U64(0))
    for row in e:
        out = np.concatenate([out, out & row])
    return out


def merge_products(masks: np.ndarray) -> np.ndarray:
    """(10, ...) masks of L0..L4 and E0..E4 -> (62, ...) merge-record words."""
    ones = np.full((1,) + masks.shape[1:], ~_U64(0))
    heads = np.concatenate([masks[:MERGE_DIGITS], ones])
    return e_products(masks[MERGE_DIGITS:])[_SUB_A] & heads[_SUB_L]


def generate_material(plan: FixedPlan, seed: int) -> tuple:
    """Dealer preprocessing for one session; returns both parties' stores.

    Party 0's share of each value array is drawn and subtracted (or XORed)
    into the array in place, which becomes party 1's share; what derives
    from the values is computed first, and the PRG draws keep their order.
    """
    req = plan.requirements()
    cfg = plan.cfg
    mask = _U64(cfg.mask)
    ghash = bytes.fromhex(plan.graph_hash)

    def arith_pair(values, rng):
        s0 = uniform(rng, values.shape, cfg.bitwidth)
        values -= s0
        values &= mask
        return s0, values

    def table_pair(tab, rng):
        s0 = rng.integers(0, 1 << 32, size=tab.shape, dtype=_U32, endpoint=False)
        tab ^= s0
        return s0, tab

    def gate_pair(shape, rng, prefix):
        rec = rng.integers(0, 32, size=shape, dtype=_U8)
        s0 = rng.integers(0, 32, size=shape, dtype=_U8)
        u = gate_values(rec)
        rec ^= s0
        p0[f"{prefix}_gate"], p1[f"{prefix}_gate"] = s0, rec
        p0[f"{prefix}_u"], p1[f"{prefix}_u"] = arith_pair(u, rng)

    p0, p1 = {}, {}

    for domain, prefix, n in ((1, "mul", req.mul_triples), (2, "aux", req.aux_triples)):
        rng = prg(seed, domain)
        a = uniform(rng, n, cfg.bitwidth)
        b = uniform(rng, n, cfg.bitwidth)
        c = a * b
        c &= mask
        for name, vals in zip("abc", (a, b, c)):
            p0[f"{prefix}_{name}"], p1[f"{prefix}_{name}"] = arith_pair(vals, rng)

    rng = prg(seed, 3)
    r = uniform(rng, req.trunc_units, cfg.bitwidth)
    shifted = r >> _U64(cfg.scale)
    tab = np.concatenate([digit_tables(r, cfg.scale), digit_tables(r, cfg.bitwidth)],
                         axis=1)
    p0["trunc_r"], p1["trunc_r"] = arith_pair(r, rng)
    p0["trunc_shift"], p1["trunc_shift"] = arith_pair(shifted, rng)
    p0["trunc_tab"], p1["trunc_tab"] = table_pair(tab, rng)
    gate_pair((req.trunc_units, 2), rng, "trunc")

    rng = prg(seed, 4)
    r = uniform(rng, req.cmp_tuples, cfg.bitwidth)
    tab = _sign_tables(r, cfg.bitwidth)
    p0["cmp_r"], p1["cmp_r"] = arith_pair(r, rng)
    p0["cmp_tab"], p1["cmp_tab"] = table_pair(tab, rng)
    gate_pair(req.cmp_tuples, rng, "cmp")

    rng = prg(seed, 5)
    records, rest = divmod(req.bool_words, MERGE_RECORD)
    if rest:
        raise MaterialError(f"{req.bool_words} boolean words are not whole "
                            f"{MERGE_RECORD}-word merge records")
    words = merge_products(uniform(rng, (2 * MERGE_DIGITS, records), 64)).T.reshape(-1)
    s0 = uniform(rng, words.shape, 64)
    words ^= s0
    p0["bool_merge"], p1["bool_merge"] = s0, words

    return MaterialStore(0, seed, ghash, p0), MaterialStore(1, seed, ghash, p1)


# -- files -----------------------------------------------------------------------


def write_material(store: MaterialStore, path: str) -> None:
    """Header, streams, then their SHA-256; each stream is written from its buffer."""
    counts = store.counts()
    head = _HEADER.pack(MATERIAL_MAGIC, MATERIAL_VERSION, store.party,
                        store.arrays["trunc_tab"].shape[1],
                        store.arrays["cmp_tab"].shape[1], store.seed,
                        store.graph_hash, *(counts[k] for k in _KINDS))
    digest = hashlib.sha256(head)
    with open(path, "wb") as f:
        f.write(head)
        for name, _ in _STREAMS:
            a = store.arrays[name]
            buf = memoryview(np.ascontiguousarray(a, a.dtype.newbyteorder("<")))
            digest.update(buf)
            f.write(buf)
        f.write(digest.digest())


def load_material(path: str) -> MaterialStore:
    """Read a material file into one buffer; the streams are views of it."""
    try:
        with open(path, "rb") as f:
            blob = bytearray(os.fstat(f.fileno()).st_size)
            f.readinto(blob)
    except OSError as e:
        raise MaterialError(f"cannot read dealer material: {e}") from e
    if len(blob) < _HEADER.size + 32 or blob[:4] != MATERIAL_MAGIC:
        raise MaterialError("not a dealer material file")
    if hashlib.sha256(memoryview(blob)[:-32]).digest() != blob[-32:]:
        raise MaterialError("dealer material failed its integrity check")
    (_, version, party, trunc_digits, cmp_digits, seed, ghash,
     *counts) = _HEADER.unpack_from(blob)
    if version != MATERIAL_VERSION:
        raise MaterialError(f"unsupported material version {version}")
    counts = dict(zip(_KINDS, counts))
    widths = {"trunc_tab": (trunc_digits,), "cmp_tab": (cmp_digits,)}
    layout = []
    for name, kind in _STREAMS:
        dt, entry = _ENTRY.get(name, ("<u8", ()))
        layout.append((name, np.dtype(dt),
                       (counts[kind],) + (widths[name] if entry is None else entry)))
    body = len(blob) - _HEADER.size - 32
    if body != sum(dt.itemsize * math.prod(shape) for _, dt, shape in layout):
        raise MaterialError("dealer material stream lengths are inconsistent")
    arrays, off = {}, _HEADER.size
    for name, dt, shape in layout:
        n = math.prod(shape)
        arrays[name] = np.frombuffer(blob, dt, n, off).astype(
            dt.newbyteorder("="), copy=False).reshape(shape)
        off += dt.itemsize * n
    return MaterialStore(party, seed, ghash, arrays)


def verify_material_pair(m0: MaterialStore, m1: MaterialStore,
                         cfg: FixedPointConfig) -> None:
    """Cross-check the reconstructed correlations; dealer or file bugs bite here.

    Only the first ``_SAMPLE`` entries of each stream are reconstructed, so
    the check's memory is bounded by the sample, not by the material.
    """
    mask = _U64(cfg.mask)

    def recon(name):
        return (m0.arrays[name][:_SAMPLE] + m1.arrays[name][:_SAMPLE]) & mask

    def xor(name):
        return m0.arrays[name][:_SAMPLE] ^ m1.arrays[name][:_SAMPLE]

    for prefix in ("mul", "aux"):
        a, b, c = (recon(f"{prefix}_{s}") for s in "abc")
        if not np.array_equal((a * b) & mask, c):
            raise MaterialError(f"{prefix} triples do not reconstruct to products")
    r = recon("trunc_r")
    if not np.array_equal(r >> _U64(cfg.scale), recon("trunc_shift")):
        raise MaterialError("truncation units do not reconstruct to shifted masks")
    tab = xor("trunc_tab")
    ds = lt_digits(cfg.scale)
    if (tab.shape[1] != ds + lt_digits(cfg.bitwidth)
            or not _rows_match(tab[:, :ds], r, cfg.scale)
            or not _rows_match(tab[:, ds:], r, cfg.bitwidth)):
        raise MaterialError("truncation tables are not the rows of their masks")
    cr = recon("cmp_r")
    tab = xor("cmp_tab")
    low = cfg.bitwidth - 1
    if (tab.shape[1] != lt_digits(low)
            or not _rows_match(tab, cr, low, flip=(cr >> _U64(low)) & _U64(1))):
        raise MaterialError("comparison tables are not the rows of their masks")
    for prefix in ("trunc", "cmp"):
        if not np.array_equal(gate_values(xor(f"{prefix}_gate")), recon(f"{prefix}_u")):
            raise MaterialError(f"{prefix} gate records are not the truth tables "
                                f"of their bits")
    words = xor("bool_merge")
    rec = words[:len(words) // MERGE_RECORD * MERGE_RECORD].reshape(-1, MERGE_RECORD).T
    if not np.array_equal(merge_products(rec[MERGE_MASKS]), rec):
        raise MaterialError("merge records are not the products of their masks")


def _rows_match(tab: np.ndarray, r: np.ndarray, n_bits: int, flip=0) -> bool:
    """Whether each digit word holds exactly [v < r_j] and [v = r_j] for the
    v within its digit's width, with ``flip`` XORed into the top lt row."""
    v = np.arange(_ROW, dtype=_U64)
    for j in range(tab.shape[1]):
        width = min(DIGIT_BITS, n_bits - DIGIT_BITS * j)
        r_j = ((r >> _U64(DIGIT_BITS * j)) & _U64((1 << width) - 1))[:, None]
        lt = v < r_j
        if j == tab.shape[1] - 1:
            lt ^= np.asarray(flip, dtype=bool)[..., None] & (v < _U64(1 << width))
        want = ((lt.astype(_U64) << v) | ((v == r_j).astype(_U64) << (v + _U64(_ROW))))
        if not np.array_equal(tab[:, j], want.sum(axis=1, dtype=_U64)):
            return False
    return True
