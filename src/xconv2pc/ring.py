"""Fixed-point tensors over the ring of l-bit residues.

Elements are unsigned 64-bit words masked to ``l`` bits.  A residue ``v``
reads as the signed value ``v`` when ``v < 2^(l-1)`` and ``v - 2^l``
otherwise (two's complement, so the top retained bit is the sign).
Arithmetic is exact modulo ``2^l``; fractional meaning comes only from the
scale in :class:`FixedPointConfig`.

Encoding uses floor (round toward minus infinity) so that the clear
fixed-point pipeline and the dealer-assisted secure truncation agree bit
for bit: ``floor`` composes with arithmetic-shift truncation, round-to-
nearest would not.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FixedPointOverflowError, ParseError, ShapeError

_WORD = np.uint64
_FULL_BITS = 64

TENSOR_MAGIC = b"RTV1"


@dataclass(frozen=True)
class FixedPointConfig:
    """Ring bit-width and fractional scale of the fixed-point encoding."""

    bitwidth: int = 60
    scale: int = 23

    def __post_init__(self) -> None:
        if not (2 <= self.scale < self.bitwidth <= 64):
            raise ValueError(
                f"need 2 <= scale < bitwidth <= 64, got scale={self.scale} "
                f"bitwidth={self.bitwidth}"
            )

    @property
    def mask(self) -> int:
        return (1 << self.bitwidth) - 1


def mask_words(words: np.ndarray, bitwidth: int) -> np.ndarray:
    """Reduce raw uint64 words modulo 2^bitwidth."""
    return words.astype(_WORD, copy=False) & _WORD((1 << bitwidth) - 1)


class RingTensor:
    """An n-dimensional tensor of l-bit ring residues stored in uint64 words.

    Words must be below 2^bitwidth; ``deserialize_tensor`` checks outside ones.
    """

    __slots__ = ("words", "bitwidth")

    def __init__(self, words: np.ndarray, bitwidth: int):
        if not (2 <= bitwidth <= 64):
            raise ValueError(f"bitwidth out of range: {bitwidth}")
        self.words = np.ascontiguousarray(words, dtype=_WORD)
        self.bitwidth = bitwidth

    # -- construction -----------------------------------------------------

    @classmethod
    def from_signed(cls, values: np.ndarray, bitwidth: int) -> "RingTensor":
        """Encode int64 values two's-complement into the ring."""
        arr = np.asarray(values, dtype=np.int64)
        return cls(mask_words(arr.view(_WORD) if arr.flags.c_contiguous else
                              np.ascontiguousarray(arr).view(_WORD), bitwidth), bitwidth)

    # -- views ------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.words.shape

    def signed(self) -> np.ndarray:
        """Signed (two's complement) reading as int64."""
        if self.bitwidth == _FULL_BITS:
            return self.words.view(np.int64)
        shift = _WORD(_FULL_BITS - self.bitwidth)
        return ((self.words << shift).view(np.int64)) >> np.int64(_FULL_BITS - self.bitwidth)

    def __repr__(self) -> str:
        return f"RingTensor(shape={self.shape}, bitwidth={self.bitwidth})"


# -- encode / decode -------------------------------------------------------


def encode_fixed(x: np.ndarray, cfg: FixedPointConfig) -> RingTensor:
    """Encode reals as floor(x * 2^scale) mod 2^bitwidth.

    Multiplying a float64 by a power of two is exact, so the floor below
    equals the arbitrary-precision floor of the float's value.
    """
    arr = np.asarray(x, dtype=np.float64)
    scaled = np.multiply(arr, float(1 << cfg.scale), out=np.empty(arr.shape))
    np.floor(scaled, out=scaled)
    if scaled.size:
        # min and max carry any NaN, and an infinity is an extreme.
        lo, hi = float(scaled.min()), float(scaled.max())
        if math.isnan(lo) or math.isinf(lo) or math.isinf(hi):
            raise FixedPointOverflowError("non-finite value in fixed-point encode")
        limit = float(1 << (cfg.bitwidth - 1))
        if hi >= limit or lo < -limit:
            raise FixedPointOverflowError(
                f"value exceeds signed range of {cfg.bitwidth}-bit ring at scale {cfg.scale}"
            )
    words = scaled.astype(np.int64).view(_WORD)
    words &= _WORD(cfg.mask)
    return RingTensor(words, cfg.bitwidth)


def decode_fixed(t: RingTensor, cfg: FixedPointConfig) -> np.ndarray:
    """Signed reading divided by 2^scale."""
    if t.bitwidth != cfg.bitwidth:
        raise ShapeError("tensor/config bitwidth mismatch")
    return t.signed().astype(np.float64) / float(1 << cfg.scale)


# -- exact ring arithmetic --------------------------------------------------


def _binary_check(a: RingTensor, b: RingTensor) -> None:
    if a.bitwidth != b.bitwidth:
        raise ShapeError(f"bitwidth mismatch: {a.bitwidth} vs {b.bitwidth}")
    if a.shape != b.shape and b.words.ndim != 0:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


def ring_add(a: RingTensor, b: RingTensor) -> RingTensor:
    _binary_check(a, b)
    return RingTensor(mask_words(a.words + b.words, a.bitwidth), a.bitwidth)


def ring_sub(a: RingTensor, b: RingTensor) -> RingTensor:
    _binary_check(a, b)
    return RingTensor(mask_words(a.words - b.words, a.bitwidth), a.bitwidth)


def ring_mul(a: RingTensor, b: RingTensor) -> RingTensor:
    _binary_check(a, b)
    return RingTensor(mask_words(a.words * b.words, a.bitwidth), a.bitwidth)


def truncate_signed(a: RingTensor, s: int) -> RingTensor:
    """floor(signed(a) / 2^s) re-encoded in the ring (arithmetic shift)."""
    if not 0 <= s < a.bitwidth:
        raise ValueError(f"shift {s} out of range for bitwidth {a.bitwidth}")
    shifted = a.signed() >> np.int64(s)
    return RingTensor.from_signed(shifted, a.bitwidth)


# -- serialization ----------------------------------------------------------
#
# Layout: magic "RTV1", bitwidth (1 byte), scale (1 byte), rank (1 byte),
# extents as little-endian uint32, elements as little-endian uint64 words.


def serialize_tensor(t: RingTensor, cfg: FixedPointConfig) -> bytes:
    if t.bitwidth != cfg.bitwidth:
        raise ShapeError("tensor/config bitwidth mismatch")
    rank = len(t.shape)
    if rank > 255:
        raise ValueError("rank too large to serialize")
    head = TENSOR_MAGIC + struct.pack("<BBB", cfg.bitwidth, cfg.scale, rank)
    extents = struct.pack(f"<{rank}I", *t.shape) if rank else b""
    return head + extents + t.words.astype("<u8").tobytes()


def deserialize_tensor(buf: bytes) -> tuple[RingTensor, FixedPointConfig]:
    if len(buf) < 7 or buf[:4] != TENSOR_MAGIC:
        raise ParseError("not a ring tensor: bad magic")
    bitwidth, scale, rank = struct.unpack_from("<BBB", buf, 4)
    off = 7
    if len(buf) < off + 4 * rank:
        raise ParseError("truncated tensor header")
    extents = struct.unpack_from(f"<{rank}I", buf, off) if rank else ()
    off += 4 * rank
    count = 1
    for e in extents:
        count *= e
    if len(buf) != off + 8 * count:
        raise ParseError("tensor payload length mismatch")
    words = np.frombuffer(buf, dtype="<u8", offset=off, count=count).astype(_WORD)
    try:
        cfg = FixedPointConfig(bitwidth=bitwidth, scale=scale)
    except ValueError as e:
        raise ParseError(str(e)) from None
    if words.size and int(words.max()) >> bitwidth:
        raise ParseError(f"tensor word exceeds the {bitwidth}-bit ring")
    return RingTensor(words.reshape(extents), bitwidth), cfg
