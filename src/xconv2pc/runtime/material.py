"""Dealer-side correlated randomness: generation, files, consumption.

The dealer knows the plan's exact resource footprint and deals each
party five kinds of sequential streams, in one file per party:

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

Format version 5: a file is a 128-byte header, the streams its party
does not expand, then the SHA-256 of everything before it.  The header
holds the magic, the version, the party, the table digits per truncation
unit and per comparison tuple, the ring bit-width, the dealer seed, the
graph hash, the element count of each cursor kind and the party's 32-byte
PRG key.  The dealer draws the two keys independently from its seed, at a
domain no stream uses.  Stream i in file order of the party holding key
k is drawn from prg(k, i), and ``load_material`` expands it at load,
never online.  Party 0 expands every stream, so its file is the header
and the digest.  Party 1 expands mul_a, mul_b, aux_a, aux_b, trunc_r and
cmp_r, and stores the rest: c1 = (a0 + a1)(b0 + b1) - c0 for both triple
kinds, then the corrections that make the pair's sums (or XORs) the
shifted masks, the tables, the gate records and their u values, and the
merge records.  Identical seeds give byte-identical files.  Both parties
consume with lockstep cursors; running past the end raises, and a file
whose trailing digest does not match its contents is rejected before any
use.

Material lives in files, not in process memory.  The dealer works kind
by kind and ``_CHUNK`` entries at a time, fewer where entries are wide
(``_deal``): each chunk draws both parties' expanded shares and computes
party 1's corrections from them, so no whole stream is ever held.  Files
and spills share one layout (``_places``).  A party's spill is a private
file in ``tempfile.gettempdir()`` (``TMPDIR``), unlinked as it is made, so
a crashed run leaves nothing behind.  It holds the bytes of the party's
file up to the digest, then the streams the party expands, each from a
page boundary.  ``deal_material`` and ``generate_material`` write headers
and chunks into files or spills through one loop (``_fill``).  So a write
copies a spill's first bytes and appends their digest, and a load copies
a file's bytes up to its digest into a fresh spill as it hashes them; it
expands the party's own streams only once the digest matches.  The
user's file is never mapped, so the digest covers exactly the bytes the
session reads, and a file rewritten later cannot fault a running party.
One object, a ``MaterialStore``, holds a party's material: its spill,
the places of its streams, the streams as views of the spill mapped
shared, and the cursors.  ``take`` drops the whole pages that earlier
takes consumed (``MADV_DONTNEED``) once ``_RELEASE`` bytes of a stream
are pending, so a party keeps only the material in use resident.  A
dropped page that is read again faults its bytes back in from the
spill: an early drop costs time, never bits.  None of this moves a byte
of format 5.
"""

from __future__ import annotations

import functools
import hashlib
import math
import mmap
import os
import struct
import tempfile
import weakref
from contextlib import contextmanager

import numpy as np

from ..errors import MaterialError
from ..plan import DIGIT_BITS, MERGE_DIGITS, MERGE_RECORD, FixedPlan, lt_digits
from ..ring import FixedPointConfig

_U64 = np.uint64
_U32 = np.uint32
_U8 = np.uint8
_ROW = 1 << DIGIT_BITS  # bits per table row; lt and eq rows share a 32-bit word

MATERIAL_MAGIC = b"DLR1"
MATERIAL_VERSION = 5
KEY_BYTES = 32
# magic, version, party, table digits per truncation unit and per
# comparison tuple, ring bit-width, seed, graph hash, element count per
# cursor kind, the party's PRG key; 128 bytes, so every stream starts aligned.
_HEADER = struct.Struct(f"<4s5B7xQ32s5Q{KEY_BYTES}s")

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
_INDEX = {name: i for i, (name, _) in enumerate(_STREAMS)}
# The streams each party expands from its key; its file stores the others.
_EXPANDED = (tuple(_INDEX), ("mul_a", "mul_b", "aux_a", "aux_b", "trunc_r", "cmp_r"))
_SAMPLE = 4096  # leading entries of each stream verify_material_pair checks
# Entries per step of dealing and of expansion; a multiple of 4, so each
# step of gate bytes draws whole 32-bit words, as one whole draw does.
# A step writes 512 KiB of each word stream, which the page cache keeps in
# folios that large, so the online phase maps a spill in few faults.
_CHUNK = 1 << 16
_WIDE = 1 << 21  # bytes of a step's widest stream: fewer entries where they are wide
_PAGE = mmap.PAGESIZE
_RELEASE = 1 << 20  # consumed bytes of a stream that take drops at once
_BLOCK = 1 << 20  # bytes per read or write of a file or spill


def _places(layout: dict, party: int) -> tuple:
    """Where each of the party's streams sits, where its stored streams end
    and where its last expanded stream ends.

    The streams the party stores follow the header at their ``.dlr``
    offsets; a file ends there, with its digest.  A spill goes on with the
    streams the party expands, each from a page boundary.
    """
    where, end = {}, _HEADER.size
    for name, (dt, shape) in layout.items():
        if name not in _EXPANDED[party]:
            where[name] = end
            end += dt.itemsize * math.prod(shape)
    size = end
    for name in _EXPANDED[party]:
        dt, shape = layout[name]
        where[name] = size = -(-size // _PAGE) * _PAGE
        size += dt.itemsize * math.prod(shape)
    return where, end, size


class MaterialStore:
    """One party's preprocessed randomness in ``file``, its spill, with
    consumption cursors.

    The spill is private and unlinked as it is made.  Its first ``end``
    bytes are the party's ``.dlr`` file without the digest; the streams
    the party expands follow (``_places``).  ``map`` maps the file shared
    and makes the streams views of the map, whose pages ``release`` drops.
    """

    def __init__(self, file, layout: dict, party: int, seed: int, graph_hash: bytes):
        self.party, self.seed, self.graph_hash = party, seed, graph_hash
        self.layout = layout
        self.offsets, self.end, self.size = _places(layout, party)
        # The first page boundary in each stream; release drops from there.
        self.released = {name: -(-at // _PAGE) * _PAGE
                         for name, at in self.offsets.items()}
        self.cursors = dict.fromkeys(_KINDS, 0)
        self.file = file
        self.close = weakref.finalize(self, file.close)  # at the latest when dropped
        self.mapping, self.arrays = None, {}

    def expand(self, key: bytes, names: tuple, bitwidth: int) -> None:
        """Draw streams ``names`` from ``key``, a step (``_step``) at a time."""
        for name, rng in _key_streams(key, names).items():
            shape = self.layout[name][1]
            step = _step(self.layout, (name,))
            for lo in range(0, shape[0], step):
                n = min(step, shape[0] - lo)
                _put(self.file.fileno(), self.offsets[name], self.layout[name], lo,
                     _draw(rng, name, (n,) + shape[1:], bitwidth))

    def map(self) -> MaterialStore:
        """Map the spill and make each stream's array a view of the map."""
        os.ftruncate(self.file.fileno(), self.size)
        self.mapping = mmap.mmap(self.file.fileno(), self.size)
        self.arrays = {name: np.frombuffer(self.mapping, dt, math.prod(shape),
                                           self.offsets[name]).reshape(shape)
                       for name, (dt, shape) in self.layout.items()}
        return self

    def take(self, kind: str, n: int, layer: str) -> tuple:
        """The next n entries of each of the kind's streams, in file order.

        ``layer`` names the plan layer taking them, for the error raised
        when a stream runs out.  The pages that earlier takes consumed are
        dropped once ``_RELEASE`` bytes of a stream are pending.
        """
        names = _NAMES[kind]
        cur = self.cursors[kind]
        end = cur + n
        if end > len(self.arrays[names[0]]):
            raise MaterialError(
                f"dealer material exhausted at layer {layer}, op {kind}: stream "
                f"{kind!r} needs {end}, holds {len(self.arrays[names[0]])}")
        self.cursors[kind] = end
        for name in names:
            self.release(name, self.arrays[name][:cur].nbytes)
        return tuple(self.arrays[name][cur:end] for name in names)

    def release(self, name: str, nbytes: int) -> None:
        """Drop the whole pages inside stream ``name``'s first ``nbytes``
        not dropped yet, once there are ``_RELEASE`` bytes of them.  A page
        the stream shares with a neighbour is never dropped."""
        upto = (self.offsets[name] + nbytes) // _PAGE * _PAGE
        done = self.released[name]
        if upto - done >= _RELEASE:
            self.mapping.madvise(mmap.MADV_DONTNEED, done, upto - done)
            self.released[name] = upto

    def counts(self) -> dict:
        return {kind: len(self.arrays[name]) for name, kind in _STREAMS}


@contextmanager
def _closed_on_error(made: list):
    """Close the stores or spill files made inside if it raises."""
    try:
        yield made
    except BaseException:
        for item in made:
            item.close()
        raise


def _pwrite(fd: int, data, at: int) -> None:
    view = memoryview(data).cast("B")
    while view:
        n = os.pwrite(fd, view, at)
        view, at = view[n:], at + n


def _put(fd: int, place: int, stream: tuple, at: int, chunk: np.ndarray) -> None:
    """Entries ``at`` onwards of a stream of layout ``stream`` placed at ``place``."""
    dt, shape = stream
    _pwrite(fd, np.ascontiguousarray(chunk, dt),
            place + at * dt.itemsize * math.prod(shape[1:]))


def _blocks(fd: int, nbytes: int):
    """(offset, view) for the first ``nbytes`` of ``fd``, read ``_BLOCK``
    bytes at a time; each view is valid until the next."""
    buf = memoryview(bytearray(_BLOCK))
    for at in range(0, nbytes, _BLOCK):
        view = buf[:min(_BLOCK, nbytes - at)]
        got = 0
        while got < len(view):
            n = os.preadv(fd, [view[got:]], at + got)
            if not n:
                raise MaterialError("dealer material ended early")
            got += n
        yield at, view


def _hashed(src: int, nbytes: int, dst: int = None) -> bytes:
    """The SHA-256 of the first ``nbytes`` of ``src``, read a block at a
    time; each block is also copied to the same offset of ``dst``, if given."""
    digest = hashlib.sha256()
    for at, view in _blocks(src, nbytes):
        digest.update(view)
        if dst is not None:
            _pwrite(dst, view, at)
    return digest.digest()


def prg(seed: int, *domain: int) -> np.random.Generator:
    """The PRG of dealer material."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=domain))


def uniform(rng, shape, bitwidth) -> np.ndarray:
    """Uniform ring words of ``shape`` (a count or a tuple) from ``rng``: one
    64-bit draw each, cut to its low ``bitwidth`` bits."""
    words = rng.integers(0, 1 << 64, size=shape, dtype=_U64)
    if bitwidth < 64:
        words &= _U64((1 << bitwidth) - 1)
    return words


def _layout(counts: dict, trunc_digits: int, cmp_digits: int) -> dict:
    """Stream name -> (dtype, shape), in file order."""
    widths = {"trunc_tab": (trunc_digits,), "cmp_tab": (cmp_digits,)}
    out = {}
    for name, kind in _STREAMS:
        dt, entry = _ENTRY.get(name, ("<u8", ()))
        out[name] = (np.dtype(dt),
                     (counts[kind],) + (widths[name] if entry is None else entry))
    return out


def _step(layout: dict, names) -> int:
    """Entries per step over streams ``names``: ``_CHUNK``, or fewer, a
    multiple of 4, where that would hold more than ``_WIDE`` bytes of one."""
    widest = max(layout[n][0].itemsize * math.prod(layout[n][1][1:]) for n in names)
    return min(_CHUNK, max(4, _WIDE // widest // 4 * 4))


def _key_streams(key: bytes, names) -> dict:
    """Stream name -> the generator the party holding ``key`` draws it from."""
    entropy = int.from_bytes(key, "little")
    return {name: prg(entropy, _INDEX[name]) for name in names}


def _draw(rng, name: str, shape: tuple, bitwidth: int) -> np.ndarray:
    """The next entries of stream ``name`` from ``rng``: uniform entries of
    the stream's dtype (ring words, merge words, table words or gate bytes)."""
    dt = _ENTRY.get(name, ("<u8",))[0]
    if dt == "u1":
        return rng.integers(0, 32, size=shape, dtype=_U8)
    if dt == "<u4":
        return rng.integers(0, 1 << 32, size=shape, dtype=_U32)
    return uniform(rng, shape, 64 if name == "bool_merge" else bitwidth)


def _advanced(rng, steps: int) -> np.random.Generator:
    """A generator that draws what ``rng`` draws after ``steps`` 64-bit words."""
    bits = np.random.PCG64()
    bits.state = rng.bit_generator.state
    return np.random.Generator(bits.advance(steps))


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


def _deal(plan: FixedPlan, seed: int) -> tuple:
    """The stream layout, both parties' headers, and the dealing itself.

    The dealing yields (stream, first entry, party 0's chunk, party 1's
    chunk), kind by kind and a step (``_step``) at a time, the merge words
    in whole records.  Each party's key-derived streams are drawn as
    ``load_material`` expands them.  Party 1's other streams are the
    corrections that make each pair's sum (or XOR) the dealt value: a
    product of the expanded masks, something derived from them, or a
    record of the dealer's own masks, drawn from ``prg(seed, 1)``.  The
    chunks of a stream hold the words of one whole draw: 64- and 32-bit
    draws split anywhere, gate bytes at multiples of 4, and the (10,
    records) merge masks are drawn row by row, each from a copy of the
    dealer's generator advanced to the row's start.
    """
    req = plan.requirements()
    cfg = plan.cfg
    records, rest = divmod(req.bool_words, MERGE_RECORD)
    if rest:
        raise MaterialError(f"{req.bool_words} boolean words are not whole "
                            f"{MERGE_RECORD}-word merge records")
    counts = (req.mul_triples, req.aux_triples, req.trunc_units, req.cmp_tuples,
              req.bool_words)
    digits = (lt_digits(cfg.scale) + lt_digits(cfg.bitwidth), lt_digits(cfg.bitwidth - 1))
    layout = _layout(dict(zip(_KINDS, counts)), *digits)
    keys = tuple(prg(seed, 0, party).bytes(KEY_BYTES) for party in (0, 1))
    heads = tuple(_HEADER.pack(MATERIAL_MAGIC, MATERIAL_VERSION, party, *digits,
                               cfg.bitwidth, seed, bytes.fromhex(plan.graph_hash),
                               *counts, key)
                  for party, key in enumerate(keys))
    return layout, heads, _dealt_chunks(layout, keys, prg(seed, 1), records, cfg)


def _dealt_chunks(layout: dict, keys: tuple, dealer, records: int,
                  cfg: FixedPointConfig):
    mask = _U64(cfg.mask)
    rngs = (_key_streams(keys[0], layout), _key_streams(keys[1], _EXPANDED[1]))

    def gates(prefix, s0, s1):
        rec = dealer.integers(0, 32, size=s0[f"{prefix}_gate"].shape, dtype=_U8)
        u = gate_values(rec)
        u -= s0[f"{prefix}_u"]
        u &= mask
        s1[f"{prefix}_u"] = u
        s1[f"{prefix}_gate"] = rec ^ s0[f"{prefix}_gate"]

    for kind in _KINDS:
        names = _NAMES[kind]
        if kind == "bool":
            rows = [_advanced(dealer, i * records) for i in range(2 * MERGE_DIGITS)]
            step = max(1, _CHUNK // MERGE_RECORD) * MERGE_RECORD
        else:
            step = _step(layout, names)
        count = layout[names[0]][1][0]
        for lo in range(0, count, step):
            n = min(step, count - lo)
            s0, s1 = ({name: _draw(rng[name], name, (n,) + layout[name][1][1:],
                                   cfg.bitwidth)
                       for name in names if name in rng} for rng in rngs)
            if kind in ("mul", "aux"):
                a, b, c = names
                c1 = s0[a] + s1[a]          # c1 = (a0 + a1)(b0 + b1) - c0
                c1 *= s0[b] + s1[b]
                c1 -= s0[c]
                c1 &= mask
                s1[c] = c1
            elif kind == "trunc":
                r = (s0["trunc_r"] + s1["trunc_r"]) & mask
                s1["trunc_shift"] = ((r >> _U64(cfg.scale)) - s0["trunc_shift"]) & mask
                s1["trunc_tab"] = s0["trunc_tab"] ^ np.concatenate(
                    [digit_tables(r, cfg.scale), digit_tables(r, cfg.bitwidth)], axis=1)
                gates("trunc", s0, s1)
            elif kind == "cmp":
                r = (s0["cmp_r"] + s1["cmp_r"]) & mask
                s1["cmp_tab"] = s0["cmp_tab"] ^ _sign_tables(r, cfg.bitwidth)
                gates("cmp", s0, s1)
            else:
                masks = np.stack([uniform(row, n // MERGE_RECORD, 64) for row in rows])
                s1["bool_merge"] = s0["bool_merge"] ^ merge_products(masks).T.reshape(-1)
            for name in names:
                yield name, lo, s0[name], s1[name]


def _fill(layout: dict, heads: tuple, chunks, targets: list) -> None:
    """Write each party's header at offset 0 of its target, then each chunk
    of the dealing (``_deal``) at its place in its party's target.

    A target is a file descriptor and the places (``_places``) of the
    streams it holds: a file holds its party's stored streams, a spill
    those and the party's expanded streams.
    """
    for (fd, _), head in zip(targets, heads):
        _pwrite(fd, head, 0)
    for name, at, *shares in chunks:
        for (fd, where), chunk in zip(targets, shares):
            if name in where:
                _put(fd, where[name], layout[name], at, chunk)


def generate_material(plan: FixedPlan, seed: int) -> tuple:
    """Dealer preprocessing for one session; returns both parties' stores.

    Every chunk of the dealing (``_deal``) goes into its party's spill, and
    each store's arrays are views of that spill, so no word is drawn twice
    and no stream is held in memory.
    """
    layout, heads, chunks = _deal(plan, seed)
    with _closed_on_error([]) as stores:
        stores += [MaterialStore(tempfile.TemporaryFile(buffering=0), layout, party, seed,
                                 bytes.fromhex(plan.graph_hash)) for party in (0, 1)]
        _fill(layout, heads, chunks, [(s.file.fileno(), s.offsets) for s in stores])
        return tuple(store.map() for store in stores)


# -- files -----------------------------------------------------------------------


def deal_material(plan: FixedPlan, seed: int, paths: tuple) -> None:
    """Write both parties' files (``paths``, party 0's first) a chunk at a time.

    Each stored chunk of the dealing (``_deal``) is written at its offset
    (``_fill``); each file's SHA-256 is then appended, read back in bounded
    blocks, since the chunks arrive kind by kind, not in file order.  No
    spill is written and no stream is held.
    """
    layout, heads, chunks = _deal(plan, seed)
    places = [_places(layout, party) for party in (0, 1)]
    stored = [{name: at for name, at in where.items() if name not in _EXPANDED[party]}
              for party, (where, _, _) in enumerate(places)]
    with open(paths[0], "wb+", buffering=0) as f0, open(paths[1], "wb+", buffering=0) as f1:
        fds = (f0.fileno(), f1.fileno())
        _fill(layout, heads, chunks, list(zip(fds, stored)))
        for fd, (_, end, _) in zip(fds, places):
            _pwrite(fd, _hashed(fd, end), end)


def write_material(store: MaterialStore, path: str) -> None:
    """The party's file: its spill's header and stored streams, copied a
    block at a time (``pread``, not through the map), then their SHA-256."""
    with open(path, "wb", buffering=0) as f:
        _pwrite(f.fileno(), _hashed(store.file.fileno(), store.end, f.fileno()), store.end)


def load_material(path: str) -> MaterialStore:
    """Read a material file into a spill and map it.

    Every byte before the digest is copied into a fresh spill at the same
    offset and hashed on the way.  Only once the digest matches is the
    header read, from the spill, and checked, and the party's own streams
    expanded into the spill from its key, a chunk at a time.
    """
    try:
        with open(path, "rb", buffering=0) as f, _closed_on_error([]) as made:
            fd = f.fileno()
            size = os.fstat(fd).st_size
            if size < _HEADER.size + 32 or os.pread(fd, 4, 0) != MATERIAL_MAGIC:
                raise MaterialError("not a dealer material file")
            made.append(tempfile.TemporaryFile(buffering=0))
            spill_fd = made[0].fileno()
            if _hashed(fd, size - 32, spill_fd) != os.pread(fd, 32, size - 32):
                raise MaterialError("dealer material failed its integrity check")
            (_, version, party, trunc_digits, cmp_digits, bitwidth, seed, ghash,
             *counts, key) = _HEADER.unpack(os.pread(spill_fd, _HEADER.size, 0))
            if version != MATERIAL_VERSION:
                raise MaterialError(f"unsupported material version {version}")
            if party not in (0, 1):
                raise MaterialError(f"dealer material for party {party}")
            layout = _layout(dict(zip(_KINDS, counts)), trunc_digits, cmp_digits)
            store = MaterialStore(made[0], layout, party, seed, ghash)
            if store.end != size - 32:
                raise MaterialError("dealer material stream lengths are inconsistent")
            store.expand(key, _EXPANDED[party], bitwidth)
            return store.map()
    except OSError as e:
        raise MaterialError(f"cannot read dealer material: {e}") from e


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
