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
merge records.  Version 4 stored every stream of both parties; version 3
held three-bit gates with four u values and AND triples for a pairwise
digit tree.  Identical seeds give byte-identical files.  Both parties
consume with lockstep cursors; running past the end raises, and a file
whose trailing digest does not match its contents is rejected before any
use.

Material lives in files, not in process memory.  The dealer works kind
by kind and ``_CHUNK`` entries at a time, fewer where entries are wide
(``_deal``): each chunk draws both parties' expanded shares and computes
party 1's corrections from them, so no whole stream is ever held.
``deal_material`` writes the chunks into the two files.
``generate_material`` and ``load_material`` write each party's 16
streams, in ``_layout`` order and each from a page boundary, into that
party's spill: a private file in ``tempfile.gettempdir()`` (``TMPDIR``),
unlinked as it is made, so a crashed run leaves nothing behind.  A
store's arrays are views of its spill, mapped shared.  ``take`` drops
the whole pages that earlier takes consumed (``MADV_DONTNEED``) once
``_RELEASE`` bytes of a stream are pending, so a party keeps only the
material in use resident.  A dropped page that is read again faults its
bytes back in from the spill: an early drop costs time, never bits.
``load_material`` copies the file's stored streams into the spill as it
hashes them, and expands the party's own streams only once the digest
matches.  The user's file is never mapped, so the digest covers exactly
the bytes the session reads, and a file rewritten later cannot fault a
running party.  None of this moves a byte of format 5.
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


@dataclass
class MaterialStore:
    """One party's preprocessed randomness with consumption cursors; its
    arrays are views of its spill."""

    party: int
    seed: int
    graph_hash: bytes
    arrays: dict
    key: bytes          # the party's PRG key, from which it expands its streams
    bitwidth: int
    spill: "_Spill"

    def __post_init__(self):
        self.cursors = {"mul": 0, "aux": 0, "trunc": 0, "cmp": 0, "bool": 0}

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
            self.spill.release(name, cur)
        return tuple(self.arrays[name][cur:end] for name in names)

    def counts(self) -> dict:
        return {kind: len(self.arrays[name]) for name, kind in _STREAMS}


class _Spill:
    """One party's streams in a private file, unlinked as it is made.

    The streams follow one another in ``_layout`` order, each from a page
    boundary.  Chunks are written with ``pwrite``; ``mapped`` then maps the
    file shared and returns the streams as views of the map, whose pages
    ``release`` drops.
    """

    def __init__(self, layout: dict):
        self.layout = layout
        self.entry = {name: dt.itemsize * math.prod(shape[1:])
                      for name, (dt, shape) in layout.items()}
        self.offsets, end = {}, 0
        for name, (_, shape) in layout.items():
            self.offsets[name] = end
            end += -(-self.entry[name] * shape[0] // _PAGE) * _PAGE
        self.size = max(end, _PAGE)         # a map needs a nonempty file
        self.released = dict.fromkeys(layout, 0)  # bytes dropped per stream
        self.file = tempfile.TemporaryFile(buffering=0)
        self.close = weakref.finalize(self, self.file.close)  # at the latest when dropped
        self.map = None

    def write(self, name: str, at: int, chunk: np.ndarray) -> None:
        """Entries ``at`` onwards of stream ``name``."""
        self.copy(name, at * self.entry[name],
                  np.ascontiguousarray(chunk, self.layout[name][0]))

    def copy(self, name: str, at: int, data) -> None:
        """Bytes ``at`` onwards of stream ``name``."""
        _pwrite(self.file.fileno(), data, self.offsets[name] + at)

    def expand(self, key: bytes, names: tuple, bitwidth: int) -> None:
        """Draw streams ``names`` from ``key``, a step (``_step``) at a time."""
        for name, rng in _key_streams(key, names).items():
            shape = self.layout[name][1]
            step = _step(self.layout, (name,))
            for lo in range(0, shape[0], step):
                n = min(step, shape[0] - lo)
                self.write(name, lo, _draw(rng, name, (n,) + shape[1:], bitwidth))

    def read(self, name: str, nbytes: int, buf: memoryview):
        """The first ``nbytes`` of stream ``name``, read a ``buf`` at a time."""
        return _blocks(self.file.fileno(), self.offsets[name], nbytes, buf)

    def mapped(self) -> dict:
        """Map the spill; stream name -> its array, a view of the map."""
        os.ftruncate(self.file.fileno(), self.size)
        self.map = mmap.mmap(self.file.fileno(), self.size)
        return {name: np.frombuffer(self.map, dt, math.prod(shape),
                                    self.offsets[name]).reshape(shape)
                for name, (dt, shape) in self.layout.items()}

    def release(self, name: str, consumed: int) -> None:
        """Drop the whole pages of stream ``name``'s first ``consumed``
        entries not dropped yet, once there are ``_RELEASE`` bytes of them."""
        upto = consumed * self.entry[name] // _PAGE * _PAGE
        done = self.released[name]
        if upto - done >= _RELEASE:
            self.map.madvise(mmap.MADV_DONTNEED, self.offsets[name] + done, upto - done)
            self.released[name] = upto


@contextmanager
def _closed_on_error(spills: list):
    """Close the spills made inside if it raises."""
    try:
        yield spills
    except BaseException:
        for spill in spills:
            spill.close()
        raise


def _pwrite(fd: int, data, at: int) -> None:
    view = memoryview(data).cast("B")
    while view:
        n = os.pwrite(fd, view, at)
        view, at = view[n:], at + n


def _blocks(fd: int, at: int, nbytes: int, buf: memoryview):
    """Bytes ``at`` to ``at + nbytes`` of ``fd``, read into ``buf`` a block at
    a time; each view yielded is valid until the next."""
    end = at + nbytes
    while at < end:
        view = buf[:min(len(buf), end - at)]
        got = 0
        while got < len(view):
            n = os.preadv(fd, [view[got:]], at + got)
            if not n:
                raise MaterialError("dealer material ended early")
            got += n
        yield view
        at += len(view)


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
    """The stream layout, both parties' keys, and the dealing itself.

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
    layout = _layout(dict(zip(_KINDS, counts)),
                     lt_digits(cfg.scale) + lt_digits(cfg.bitwidth),
                     lt_digits(cfg.bitwidth - 1))
    keys = tuple(prg(seed, 0, party).bytes(KEY_BYTES) for party in (0, 1))
    return layout, keys, _dealt_chunks(layout, keys, prg(seed, 1), records, cfg)


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


def generate_material(plan: FixedPlan, seed: int) -> tuple:
    """Dealer preprocessing for one session; returns both parties' stores.

    Every chunk of the dealing (``_deal``) goes into its party's spill, and
    each store's arrays are views of that spill, so no word is drawn twice
    and no stream is held in memory.
    """
    layout, keys, chunks = _deal(plan, seed)
    with _closed_on_error([]) as spills:
        spills += [_Spill(layout), _Spill(layout)]
        for name, at, *shares in chunks:
            for spill, chunk in zip(spills, shares):
                spill.write(name, at, chunk)
        arrays = [spill.mapped() for spill in spills]
    ghash = bytes.fromhex(plan.graph_hash)
    return tuple(MaterialStore(party, seed, ghash, arrays[party], keys[party],
                               plan.cfg.bitwidth, spill)
                 for party, spill in enumerate(spills))


# -- files -----------------------------------------------------------------------


def _header(party: int, layout: dict, bitwidth: int, seed: int, ghash: bytes,
            key: bytes) -> bytes:
    return _HEADER.pack(MATERIAL_MAGIC, MATERIAL_VERSION, party,
                        layout["trunc_tab"][1][1], layout["cmp_tab"][1][1], bitwidth,
                        seed, ghash, *(layout[_NAMES[k][0]][1][0] for k in _KINDS), key)


def _stored(layout: dict, party: int) -> tuple:
    """Where the party's file holds each stream it does not expand, and
    where its digest starts."""
    where, end = {}, _HEADER.size
    for name, (dt, shape) in layout.items():
        if name not in _EXPANDED[party]:
            where[name] = end
            end += dt.itemsize * math.prod(shape)
    return where, end


def deal_material(plan: FixedPlan, seed: int, paths: tuple) -> None:
    """Write both parties' files (``paths``, party 0's first) a chunk at a time.

    Each stored chunk of the dealing (``_deal``) is written at its offset,
    which the header's counts fix, and each file is then sealed
    (``_seal``).  No spill is written and no stream is held.
    """
    layout, keys, chunks = _deal(plan, seed)
    ghash = bytes.fromhex(plan.graph_hash)
    stored = [_stored(layout, party) for party in (0, 1)]
    with open(paths[0], "wb+", buffering=0) as f0, open(paths[1], "wb+", buffering=0) as f1:
        fds = (f0.fileno(), f1.fileno())
        for party, fd in enumerate(fds):
            _pwrite(fd, _header(party, layout, plan.cfg.bitwidth, seed, ghash,
                                keys[party]), 0)
        for name, at, *shares in chunks:
            for fd, (where, _), chunk in zip(fds, stored, shares):
                if name in where:
                    dt, shape = layout[name]
                    _pwrite(fd, np.ascontiguousarray(chunk, dt),
                            where[name] + at * dt.itemsize * math.prod(shape[1:]))
        for fd, (_, end) in zip(fds, stored):
            _seal(fd, end)


def write_material(store: MaterialStore, path: str) -> None:
    """Header, the streams the party does not expand, then their SHA-256.

    Each stream is copied from the spill a block at a time (``pread``, not
    through the map), and the file is then sealed (``_seal``).
    """
    layout = {name: (a.dtype, a.shape) for name, a in store.arrays.items()}
    where, end = _stored(layout, store.party)
    buf = memoryview(bytearray(_BLOCK))
    with open(path, "wb+", buffering=0) as f:
        fd = f.fileno()
        _pwrite(fd, _header(store.party, layout, store.bitwidth, store.seed,
                            store.graph_hash, store.key), 0)
        for name, at in where.items():
            for view in store.spill.read(name, store.arrays[name].nbytes, buf):
                _pwrite(fd, view, at)
                at += len(view)
        _seal(fd, end)


def _seal(fd: int, end: int) -> None:
    """Append the SHA-256 of the file's first ``end`` bytes, read in
    bounded blocks."""
    digest = hashlib.sha256()
    for view in _blocks(fd, 0, end, memoryview(bytearray(_BLOCK))):
        digest.update(view)
    _pwrite(fd, digest.digest(), end)


def load_material(path: str) -> MaterialStore:
    """Read a material file into a spill and map it.

    The file is read in bounded blocks; each is hashed, and its stored
    streams' bytes are copied into the party's spill.  Only once the digest
    matches are the party's own streams expanded into the spill from its
    key, a chunk at a time.
    """
    try:
        with open(path, "rb", buffering=0) as f, _closed_on_error([]) as spills:
            fd = f.fileno()
            size = os.fstat(fd).st_size
            head = os.pread(fd, _HEADER.size, 0)
            if size < _HEADER.size + 32 or head[:4] != MATERIAL_MAGIC:
                raise MaterialError("not a dealer material file")
            (_, version, party, trunc_digits, cmp_digits, bitwidth, seed, ghash,
             *counts, key) = _HEADER.unpack(head)
            # The stored streams, where the header is one this loader reads
            # and the file's length fits it; else the body is only hashed.
            segments = [(None, _HEADER.size, size - _HEADER.size - 32)]
            if version == MATERIAL_VERSION and party in (0, 1):
                layout = _layout(dict(zip(_KINDS, counts)), trunc_digits, cmp_digits)
                where, end = _stored(layout, party)
                if end == size - 32:
                    spills.append(_Spill(layout))
                    segments = [(name, at, spills[0].entry[name] * layout[name][1][0])
                                for name, at in where.items()]
            digest = hashlib.sha256(head)
            buf = memoryview(bytearray(_BLOCK))
            for name, at, nbytes in segments:
                done = 0
                for view in _blocks(fd, at, nbytes, buf):
                    digest.update(view)
                    if name is not None:
                        spills[0].copy(name, done, view)
                    done += len(view)
            if digest.digest() != os.pread(fd, 32, size - 32):
                raise MaterialError("dealer material failed its integrity check")
            if version != MATERIAL_VERSION:
                raise MaterialError(f"unsupported material version {version}")
            if party not in (0, 1):
                raise MaterialError(f"dealer material for party {party}")
            if not spills:
                raise MaterialError("dealer material stream lengths are inconsistent")
            spills[0].expand(key, _EXPANDED[party], bitwidth)
            arrays = spills[0].mapped()
    except OSError as e:
        raise MaterialError(f"cannot read dealer material: {e}") from e
    return MaterialStore(party, seed, ghash, arrays, key, bitwidth, spills[0])


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
