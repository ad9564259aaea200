"""Ring arithmetic and fixed-point encoding against wide-integer oracles.

The oracle for every modular claim is plain Python integers (unbounded),
reduced mod 2^l at the end; the oracle for truncation is Fraction-based
floor division.  The production code never sees these paths.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xconv2pc.errors import FixedPointOverflowError, ParseError, ShapeError
from xconv2pc.ring import (
    FixedPointConfig,
    RingTensor,
    decode_fixed,
    deserialize_tensor,
    encode_fixed,
    mask_words,
    ring_add,
    ring_mul,
    ring_sub,
    serialize_tensor,
    truncate_signed,
)

CFG = FixedPointConfig()  # bitwidth 60, scale 23


def from_raw(words, bitwidth: int) -> RingTensor:
    """Wrap arbitrary uint64 data, masking it into the ring."""
    return RingTensor(mask_words(np.asarray(words, dtype=np.uint64), bitwidth), bitwidth)


def signed_oracle(v: int, l: int) -> int:
    v %= 1 << l
    return v if v < (1 << (l - 1)) else v - (1 << l)


# -- encode / decode --------------------------------------------------------


def test_config_invariants():
    assert CFG.bitwidth == 60 and CFG.scale == 23  # defaults
    for bad in ((65, 23), (60, 60), (60, 1), (23, 23)):
        with pytest.raises(ValueError):
            FixedPointConfig(bitwidth=bad[0], scale=bad[1])
    FixedPointConfig(bitwidth=64, scale=40)  # full-word fast path allowed


def test_encode_one():
    t = encode_fixed(np.array([1.0]), CFG)
    assert int(t.words[0]) == 2**23


def test_encode_minus_one_twos_complement():
    t = encode_fixed(np.array([-1.0]), CFG)
    assert int(t.words[0]) == 2**60 - 2**23


def test_encode_pixel_mean_constant():
    # floor(0.533 * 2^23) computed with exact rational arithmetic on the
    # float64 nearest to 0.533.
    expected = int(Fraction(0.533) * 2**23)  # Fraction floors on int()
    t = encode_fixed(np.array([0.533]), CFG)
    assert int(t.words[0]) == expected == 4471128


def test_decode_trivial():
    assert decode_fixed(from_raw(np.array([2**23]), 60), CFG) == 1.0
    assert decode_fixed(from_raw(np.array([2**60 - 2**23]), 60), CFG) == -1.0


def test_roundtrip_error_bound():
    rng = np.random.default_rng(7)
    x = rng.uniform(-100.0, 100.0, size=100_000)
    err = np.abs(decode_fixed(encode_fixed(x, CFG), CFG) - x)
    assert err.max() <= 2.0**-23


def test_encode_overflow_rejected():
    small = FixedPointConfig(bitwidth=16, scale=8)
    with pytest.raises(FixedPointOverflowError):
        encode_fixed(np.array([200.0]), small)  # 200*2^8 > 2^15
    encode_fixed(np.array([127.0]), small)  # fits


@pytest.mark.parametrize("values", [[1.0, np.nan], [np.inf], [0.5, -np.inf],
                                    [np.nan, np.inf, 1e300]])
def test_encode_non_finite_rejected(values):
    with pytest.raises(FixedPointOverflowError, match="non-finite value"):
        encode_fixed(np.array(values), CFG)


def test_encode_overflow_to_infinity_is_non_finite():
    # 1e308 * 2^23 overflows float64 before the range check sees it.
    with np.errstate(over="ignore"), \
            pytest.raises(FixedPointOverflowError, match="non-finite value"):
        encode_fixed(np.array([1e308]), CFG)


def test_encode_signed_range_bounds():
    # Scaled to exactly 2^59 is out; exactly -2^59 is the most negative
    # word; the nearest float64 inside each bound encodes.
    top = float(1 << 36)  # 2^59 / 2^23
    with pytest.raises(FixedPointOverflowError, match="exceeds signed range"):
        encode_fixed(np.array([top]), CFG)
    with pytest.raises(FixedPointOverflowError, match="exceeds signed range"):
        encode_fixed(np.array([-top - 2.0**-10]), CFG)
    words = encode_fixed(np.array([-top, np.nextafter(top, 0), np.nextafter(-top, 0)]),
                         CFG).words
    assert words.tolist() == [1 << 59, (1 << 59) - 64, (1 << 59) + 64]
    # On a 40-bit ring at scale 8 the words next to each bound are exact.
    small = FixedPointConfig(bitwidth=40, scale=8)
    edge = float(1 << 31)
    with pytest.raises(FixedPointOverflowError, match="exceeds signed range"):
        encode_fixed(np.array([edge]), small)
    words = encode_fixed(np.array([edge - 2.0**-8, -edge, -edge + 2.0**-8]), small).words
    assert words.tolist() == [(1 << 39) - 1, 1 << 39, (1 << 39) + 1]


def test_encode_negative_zero_is_zero():
    assert encode_fixed(np.array([-0.0, 0.0]), CFG).words.tolist() == [0, 0]


def test_encode_empty_and_zero_d():
    empty = encode_fixed(np.zeros((0, 3)), CFG)
    assert empty.shape == (0, 3) and empty.words.dtype == np.uint64
    # RingTensor keeps at least one axis, so a 0-d input encodes as (1,).
    assert encode_fixed(np.array(1.5), CFG).words.tolist() == [3 << 22]
    assert encode_fixed(-2.25, CFG).words.tolist() == [(1 << 60) - (9 << 21)]


def test_encode_transposed_input_gives_c_contiguous_words():
    x = (np.arange(12.0).reshape(3, 4) / 7 - 0.8).T
    t = encode_fixed(x, CFG)
    assert t.shape == (4, 3) and t.words.flags.c_contiguous
    assert np.array_equal(t.words, encode_fixed(np.ascontiguousarray(x), CFG).words)
    assert t.words[1, 0].item() == (1 << 60) - 5512514


# -- elementwise arithmetic ---------------------------------------------------


def test_add_wraparound():
    a = from_raw(np.array([2**60 - 1]), 60)
    b = from_raw(np.array([1]), 60)
    assert int(ring_add(a, b).words[0]) == 0


def test_mul_scale_doubles():
    a = encode_fixed(np.array([2.0]), CFG)
    b = encode_fixed(np.array([3.0]), CFG)
    assert int(ring_mul(a, b).words[0]) == (6 * 2**46) % 2**60


def test_shape_mismatch_raises():
    a = RingTensor(np.zeros(3, np.uint64), 60)
    b = RingTensor(np.zeros(4, np.uint64), 60)
    with pytest.raises(ShapeError):
        ring_add(a, b)


@pytest.mark.parametrize("ring_op, pyop", [
    pytest.param(ring_add, lambda x, y: x + y, id="add"),
    pytest.param(ring_sub, lambda x, y: x - y, id="sub"),
    pytest.param(ring_mul, lambda x, y: x * y, id="mul"),
])
def test_elementwise_vs_wide_integer_oracle(ring_op, pyop):
    rng = np.random.default_rng(11)
    n = 100_000
    a = rng.integers(0, 2**60, size=n, dtype=np.uint64)
    b = rng.integers(0, 2**60, size=n, dtype=np.uint64)
    got = ring_op(RingTensor(a, 60), RingTensor(b, 60)).words
    # Unbounded Python-int reference on a sample (full set is slow in pure
    # Python); sample plus the extremes.
    idx = list(rng.integers(0, n, size=2000)) + [int(a.argmax()), int(b.argmax())]
    for i in idx:
        assert int(got[i]) == pyop(int(a[i]), int(b[i])) % 2**60


def test_ring_laws_random_triples():
    rng = np.random.default_rng(13)
    a, b, c = (RingTensor(rng.integers(0, 2**60, size=5000, dtype=np.uint64), 60)
               for _ in range(3))
    assert np.array_equal(ring_add(a, b).words, ring_add(b, a).words)
    assert np.array_equal(ring_mul(a, b).words, ring_mul(b, a).words)
    assert np.array_equal(ring_add(ring_add(a, b), c).words, ring_add(a, ring_add(b, c)).words)
    assert np.array_equal(ring_mul(ring_mul(a, b), c).words, ring_mul(a, ring_mul(b, c)).words)
    lhs = ring_mul(a, ring_add(b, c)).words
    rhs = ring_add(ring_mul(a, b), ring_mul(a, c)).words
    assert np.array_equal(lhs, rhs)


def test_masking_invariant_never_exceeds_modulus():
    rng = np.random.default_rng(17)
    a = RingTensor(rng.integers(0, 2**60, size=10_000, dtype=np.uint64), 60)
    b = RingTensor(rng.integers(0, 2**60, size=10_000, dtype=np.uint64), 60)
    for t in (ring_add(a, b), ring_sub(a, b), ring_mul(a, b), truncate_signed(a, 23)):
        assert int(np.max(t.words)) < 2**60


# -- truncation ---------------------------------------------------------------


def test_truncate_power():
    t = from_raw(np.array([2**46]), 60)
    assert int(truncate_signed(t, 23).words[0]) == 2**23


def test_truncate_minus_one_ulp_floors():
    t = from_raw(np.array([2**60 - 1]), 60)  # signed -1
    assert int(truncate_signed(t, 23).words[0]) == 2**60 - 1  # floor(-1/2^23) = -1


def test_truncate_vs_rational_floor_oracle():
    rng = np.random.default_rng(19)
    n = 100_000
    words = rng.integers(0, 2**60, size=n, dtype=np.uint64)
    got = truncate_signed(RingTensor(words, 60), 23).words
    idx = rng.integers(0, n, size=2000)
    for i in idx:
        sv = signed_oracle(int(words[i]), 60)
        expect = int(Fraction(sv, 2**23).__floor__()) % 2**60
        assert int(got[i]) == expect


def test_truncated_product_matches_rational_oracle():
    # truncate(encode(x)*encode(y), s) against the exact rational product of
    # the encoded operands, floor-rounded: floor(a*b / 2^s).
    import math

    rng = np.random.default_rng(23)
    x = rng.uniform(-30, 30, size=5_000)
    y = rng.uniform(-30, 30, size=5_000)
    ax = encode_fixed(x, CFG).signed()
    by = encode_fixed(y, CFG).signed()
    prod = truncate_signed(ring_mul(encode_fixed(x, CFG), encode_fixed(y, CFG)), 23)
    got = prod.signed()
    for i in range(0, 5_000, 7):
        expect = math.floor(Fraction(int(ax[i]) * int(by[i]), 2**23))
        assert abs(int(got[i]) - expect) <= 1
        assert int(got[i]) == expect  # floor composes exactly

    # Against the real-valued product the error grows like (|x|+|y|) ulps.
    direct = encode_fixed(x * y, CFG)
    ulps = np.abs(prod.signed() - direct.signed())
    assert ulps.max() <= np.abs(x).max() + np.abs(y).max() + 2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**60 - 1), st.integers(2, 59))
def test_truncate_property(word, s):
    import math

    t = from_raw(np.array([word], dtype=np.uint64), 60)
    got = int(truncate_signed(t, s).words[0])
    sv = signed_oracle(word, 60)
    # Plain rational-floor oracle, no bit tricks.
    assert got == math.floor(Fraction(sv, 2**s)) % 2**60


# -- serialization ------------------------------------------------------------


def test_serialize_roundtrip():
    rng = np.random.default_rng(29)
    t = RingTensor(rng.integers(0, 2**60, size=(2, 3, 4), dtype=np.uint64), 60)
    buf = serialize_tensor(t, CFG)
    assert buf[:4] == b"RTV1"
    assert buf[4] == 60 and buf[5] == 23 and buf[6] == 3
    back, cfg = deserialize_tensor(buf)
    assert cfg == CFG
    assert back.shape == (2, 3, 4)
    assert np.array_equal(back.words, t.words)


def test_deserialize_rejects_garbage():
    with pytest.raises(ParseError):
        deserialize_tensor(b"NOPE" + b"\x00" * 16)
    good = serialize_tensor(RingTensor(np.zeros(4, np.uint64), 60), CFG)
    with pytest.raises(ParseError):
        deserialize_tensor(good[:-3])  # truncated payload
