"""Transform bases, tiling counts, kernels, and the rewrite pass.

The transform identity is bilinear in (tile, filter), so checking it on
every basis-vector pair proves it for all inputs; random rational and
integer-grid samples are kept as belt-and-braces.  Counting formulas are
checked against their closed forms and the frozen constants.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xconv2pc.errors import FixedPointOverflowError
from xconv2pc.graph import INPUT, CellVariant, GraphBuilder, fold_batchnorm
from xconv2pc.clear import infer_float
from xconv2pc.costs import count_mults
from xconv2pc.plan import build_plan, execute_plan_clear
from xconv2pc.ring import FixedPointConfig, RingTensor, encode_fixed, mask_words, truncate_signed
from xconv2pc.winograd import (
    UnsupportedTransformError,
    basis_for_tile,
    choose_tile,
    mult_counts,
    rewrite_winograd,
    transform_conv,
    transform_filter_real,
    winograd_basis,
    winograd_guard,
)
from xconv2pc.zoo import model_zoo


def gamma_first_order(p, k) -> float:
    """First-order padding-overhead bound 1 + 2(1 - k/n)/tiles of a tiling plan."""
    return 1.0 + 2.0 * (1.0 - k / p.n) / p.tiles


def last_tile(p, m_out, k) -> int:
    """Input extent the last tile of a tiling plan actually needs."""
    return m_out - (p.tiles - 1) * p.step + k - 1


def _spec(g, name):
    """The graph's layer spec called ``name``."""
    return next(l for l in g.layers if l.name == name)


def rational_transform_1d(basis, x, w):
    n, r, m = basis.n, basis.r, basis.m
    btx = [sum(Fraction(basis.b_t[a][b]) * x[b] for b in range(n)) for a in range(n)]
    gw = [sum(basis.g[a][b] * w[b] for b in range(r)) for a in range(n)]
    prod = [btx[a] * gw[a] for a in range(n)]
    return [sum(Fraction(basis.a_t[o][a]) * prod[a] for a in range(n)) for o in range(m)]


def rational_conv_1d(x, w):
    m = len(x) - len(w) + 1
    return [sum(x[i + j] * w[j] for j in range(len(w))) for i in range(m)]


# -- bases ---------------------------------------------------------------------


@pytest.mark.parametrize("m,r", [(2, 3), (4, 3)])
def test_identity_on_all_basis_pairs(m, r):
    basis = winograd_basis(m, r)
    n = basis.n
    for i in range(n):
        x = [Fraction(int(i == t)) for t in range(n)]
        for j in range(r):
            w = [Fraction(int(j == t)) for t in range(r)]
            assert rational_transform_1d(basis, x, w) == rational_conv_1d(x, w)


def test_f23_identity_on_integer_grid_sample():
    # The stated grid (all integer tiles and filters in [-8, 8]) has ~4e8
    # combinations; bilinearity plus the basis-pair check above covers it
    # exactly, and this samples the grid directly as a cross-check.
    basis = winograd_basis(2, 3)
    rng = np.random.default_rng(0)
    for _ in range(2000):
        x = [Fraction(int(v)) for v in rng.integers(-8, 9, size=4)]
        w = [Fraction(int(v)) for v in rng.integers(-8, 9, size=3)]
        assert rational_transform_1d(basis, x, w) == rational_conv_1d(x, w)


def test_f43_identity_on_random_rationals():
    basis = winograd_basis(4, 3)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = [Fraction(int(p), int(q)) for p, q in
             zip(rng.integers(-50, 50, 6), rng.integers(1, 17, 6))]
        w = [Fraction(int(p), int(q)) for p, q in
             zip(rng.integers(-50, 50, 3), rng.integers(1, 17, 3))]
        assert rational_transform_1d(basis, x, w) == rational_conv_1d(x, w)


def test_integer_matrices_invariant():
    for m, r in ((2, 3), (4, 3)):
        basis = winograd_basis(m, r)
        assert all(isinstance(v, int) for row in basis.a_t for v in row)
        assert all(isinstance(v, int) for row in basis.b_t for v in row)


def test_unsupported_bases_rejected():
    with pytest.raises(UnsupportedTransformError):
        winograd_basis(3, 7)
    with pytest.raises(UnsupportedTransformError, match="precision"):
        winograd_basis(2, 7)
    with pytest.raises(UnsupportedTransformError):
        winograd_basis(6, 5)


# -- counts ----------------------------------------------------------------------


def test_paper_scale_constants_318():
    p = mult_counts(318, 3, 6)
    assert p.dense == 910_116
    assert p.beta1 == 102_400
    assert p.beta2 == 230_400
    assert p.tiles == 80
    assert last_tile(p, 318, 3) == 4
    assert abs(p.gamma - (480 / 478) ** 2) < 1e-12
    assert p.gamma == pytest.approx(1.00840, abs=5e-5)
    assert p.gamma <= gamma_first_order(p, 3) == pytest.approx(1.0125)


def test_single_tile_degenerate_case():
    p = mult_counts(4, 3, 6)
    assert p.tiles == 1
    assert p.beta2 == 36 == p.beta1
    assert p.pad == 0
    assert p.gamma == 1.0


def test_counts_domain_violations():
    with pytest.raises(ValueError):
        mult_counts(0, 3, 6)
    with pytest.raises(ValueError):
        mult_counts(10, 1, 6)
    with pytest.raises(ValueError):
        mult_counts(10, 3, 3)


def test_choose_tile_examples():
    assert choose_tile(318, 3) == 6
    assert mult_counts(318, 3, 4).beta2 == 404_496  # the rejected candidate
    assert choose_tile(2, 3) == 4
    assert choose_tile(64, 3) == 6
    with pytest.raises(ValueError):
        choose_tile(10, 5, candidates=(4,))


@settings(max_examples=200, deadline=None)
@given(st.integers(6, 400), st.sampled_from([2, 3, 4, 5]), st.sampled_from([4, 6, 8]))
def test_beta1_le_beta2_for_m_ge_n(m_out, k, n):
    if n <= k or m_out < n:
        return
    p = mult_counts(m_out, k, n)
    assert p.beta1 <= p.beta2


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 500), st.sampled_from([2, 3, 5]), st.sampled_from([4, 6, 8]))
def test_gamma_exact_ratio_and_remainder_bound(m_out, k, n):
    if n <= k:
        return
    p = mult_counts(m_out, k, n)
    unpadded = ((p.tiles - 1) * n + last_tile(p, m_out, k)) ** 2
    assert p.gamma == pytest.approx(p.beta2 / unpadded, rel=1e-12)
    # The exact overhead (1-x)^-2 sits above its linearization 1+2x by the
    # remainder x^2(3-2x)/(1-x)^2, which stays under 8x^2 while x <= 1/2.
    x_max = (1.0 - k / n) / p.tiles
    if x_max <= 0.5:
        assert p.gamma <= gamma_first_order(p, k) + 8.0 * x_max * x_max + 1e-12


def test_gamma_below_first_order_in_operating_regime():
    # For 3-tap filters with the shipped tiles, whenever the last tile is
    # not the worst case (n' > k) the linear bound genuinely dominates.
    for n in (4, 6):
        for m_out in range(6, 321):
            p = mult_counts(m_out, 3, n)
            if last_tile(p, m_out, 3) > 3:
                assert p.gamma <= gamma_first_order(p, 3) + 1e-12, (m_out, n)


# -- kernels ----------------------------------------------------------------------


def direct_conv(x, w, pad=0, groups=1):
    n, c, h, wd = x.shape
    o, ig, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    m = h + 2 * pad - k + 1
    out = np.zeros((n, o, m, m))
    cpg_in, cpg_out = c // groups, o // groups
    for g in range(groups):
        for oc in range(cpg_out):
            for ic in range(cpg_in):
                for i in range(k):
                    for j in range(k):
                        out[:, g * cpg_out + oc] += (
                            xp[:, g * cpg_in + ic, i:i + m, j:j + m]
                            * w[g * cpg_out + oc, ic, i, j])
    return out


def float_transform_conv(x, w, n, padding=0):
    """Float transform convolution with n x n tiles, through the shared kernel."""
    basis = basis_for_tile(n, w.shape[-1])
    return transform_conv(x, transform_filter_real(w, basis), basis, padding, 1,
                          lambda a, b, axis: np.multiply(a, b).sum(axis=axis))


def test_delta_filter_float_is_crop():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 1, 10, 10))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = float_transform_conv(x, w, 4)
    assert np.allclose(out[0, 0], x[0, 0, 1:-1, 1:-1], atol=1e-10)


def test_float_matches_direct_33x33():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 4, 33, 33))
    w = rng.standard_normal((5, 4, 3, 3))
    got = float_transform_conv(x, w, 6)
    ref = direct_conv(x, w)
    assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-8


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("hw", [7, 16, 23])
def test_float_matches_direct_random_sizes(n, hw):
    rng = np.random.default_rng(hw * n)
    x = rng.standard_normal((2, 3, hw, hw))
    w = rng.standard_normal((4, 3, 3, 3))
    got = float_transform_conv(x, w, n, padding=1)
    ref = direct_conv(x, w, pad=1)
    assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-8


def _fixed_transform_conv(xs, ws, n, cfg):
    """One bias-free padded conv, transform-tagged with tile n, run by the plan walker."""
    b = GraphBuilder(xs.shape, cfg=cfg)
    b.conv("c", INPUT, ws.shape[1], ws.shape[0], ws.shape[-1], padding=1, bias=False)
    b.weights["c.weight"] = ws
    g, _ = rewrite_winograd(b.build(), candidates=(n,))
    assert _spec(g, "c").attrs["tile"] == n
    return execute_plan_clear(build_plan(g), encode_fixed(xs, cfg))


def test_fixed_mode_exact_on_encodable_toys():
    # Image dyadic, filter 9/64-granular: the transformed filter encodes
    # without flooring, so the tiled ring kernel must agree with direct
    # fixed-point convolution to the bit (well within the 2-ulp budget).
    cfg = FixedPointConfig()
    rng = np.random.default_rng(4)
    xs = rng.integers(-8, 8, (1, 2, 9, 9)).astype(float) / 16.0
    ws = 9.0 * rng.integers(-4, 4, (3, 2, 3, 3)).astype(float) / 64.0
    xw = encode_fixed(xs, cfg).words
    ww = encode_fixed(ws, cfg).words
    acc = np.zeros((1, 3, 9, 9), dtype=np.uint64)
    xp = np.pad(xw, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for oc in range(3):
        for ic in range(2):
            for i in range(3):
                for j in range(3):
                    acc[:, oc] += xp[:, ic, i:i + 9, j:j + 9] * ww[oc, ic, i, j]
    ref = truncate_signed(RingTensor(mask_words(acc, 60), 60), 23)
    for n in (4, 6):
        got = _fixed_transform_conv(xs, ws, n, cfg)
        assert np.abs(got.signed() - ref.signed()).max() <= 2


def test_fixed_mode_quantization_deviation_is_bounded():
    # Generic floats do not encode exactly; the transform amplifies that
    # quantization, so only decoded-domain closeness holds.
    cfg = FixedPointConfig()
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1, 1, (1, 2, 12, 12))
    ws = rng.uniform(-0.5, 0.5, (3, 2, 3, 3))
    got = _fixed_transform_conv(xs, ws, 6, cfg)
    ref = direct_conv(xs, ws, pad=1)
    assert np.abs(got.signed() / 2**23 - ref).max() < 1e-3


def test_fixed_headroom_guard_rejects_fat_scale():
    cfg = FixedPointConfig(bitwidth=60, scale=28)
    basis = winograd_basis(4, 3)
    w = np.full((64, 64, 3, 3), 0.1)
    u = transform_filter_real(w, basis)
    with pytest.raises(FixedPointOverflowError):
        winograd_guard(basis, u, 1, 4.0, cfg)
    winograd_guard(basis, u, 1, 1.0, FixedPointConfig())  # default fits


# Zoo graphs that build at 16 px and 32 px: densenet121 pools its map to
# nothing at 16 px, and resnet18's shuffle cell puts a batchnorm where
# folding cannot take it.
_ZOO_AT = [(bb, var, px)
           for bb in ("densenet121", "resnet50", "resnet18", "mobilenetv3l",
                      "shufflenetv2")
           for var in CellVariant for px in (16, 32)
           if not (bb == "densenet121" and px == 16)
           and not (bb == "resnet18" and var is CellVariant.SHUFFLE)]


def test_filter_transform_is_einsum_bit_for_bit():
    # np.einsum's summation order is what fixes the float64 bits the weight
    # words are encoded from; the filter transform must reproduce it, not
    # round close to it, on every tagged layer the zoo rewrites.
    tagged = 0
    for bb, var, px in _ZOO_AT:
        g = fold_batchnorm(rewrite_winograd(model_zoo(bb, var, px, seed=5))[0])
        for spec in g.layers:
            if not spec.attrs.get("winograd"):
                continue
            w = g.weights[f"{spec.name}.weight"]
            basis = basis_for_tile(spec.attrs["tile"], spec.attrs["kernel"])
            gf = basis.g_float()
            got = transform_filter_real(w, basis)
            assert got.flags.c_contiguous
            assert np.array_equal(got, np.einsum("ij,ocjk,lk->ocil", gf, w, gf)), \
                (bb, var, px, spec.name)
            tagged += 1
    assert tagged > 500


@pytest.mark.parametrize("n", [4, 6])
def test_filter_transform_is_einsum_bit_for_bit_at_signed_zeros_subnormals_and_huge(n):
    # The transform skips terms with a zero tap; each would add +-0.0, so
    # the bits stay einsum's at the values where a float sum is delicate:
    # signed zeros (an all -0.0 filter too), subnormals, and weights whose
    # terms overflow to inf.
    basis = basis_for_tile(n, 3)
    gf = basis.g_float()
    taps = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, 1.7e308, -3.0]
    rng = np.random.default_rng(6)
    for w in (np.full((2, 3, 3, 3), -0.0), np.zeros((1, 1, 3, 3)),
              np.array(taps * 6).reshape(2, 3, 3, 3),
              rng.choice(taps, size=(3, 4, 3, 3))):
        with np.errstate(over="ignore"):
            got = transform_filter_real(w, basis)
            want = np.einsum("ij,ocjk,lk->ocil", gf, w, gf)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_transform_weight_fails_the_plan_build(bad):
    # A skipped zero tap would have made 0 x inf = nan; the weight still
    # reaches the nonzero taps, so the build fails as it did with the term.
    b = GraphBuilder((1, 2, 8, 8), seed=1)
    b.conv("c", INPUT, 2, 3, 3, padding=1, bias=False)
    b.weights["c.weight"][1, 1, 2, 0] = bad
    g, _ = rewrite_winograd(b.build(), candidates=(4,))
    msg = "non-finite value" if np.isnan(bad) else "no usable activation range"
    with pytest.raises(FixedPointOverflowError, match=msg):
        build_plan(g)


def test_weighted_plan_words_match_their_pin():
    # Every payload word of the weight owner's plan, layer by layer; any
    # change to the filter transform's rounding or to the encoding moves it.
    g, _ = rewrite_winograd(model_zoo("shufflenetv2", CellVariant.DENSE, 32, seed=3))
    h = hashlib.sha256()
    for pl in build_plan(g, with_weights=True).layers:
        for key in sorted(pl.payload):
            value = pl.payload[key]
            if isinstance(value, RingTensor):
                h.update(value.words.tobytes())
            elif isinstance(value, int):
                h.update(np.uint64(value).tobytes())
    assert h.hexdigest() == (
        "d86254cab2fdb9b8b3e065b0f2adefb3f1357753f9b3a7394b1f91195657dbb8")


# -- rewrite pass -----------------------------------------------------------------


def test_rewrite_toynet_skips_stem_for_stride():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=0)
    rw, decisions = rewrite_winograd(g)
    by_layer = {d.layer: d for d in decisions}
    assert not by_layer["conv1"].eligible
    assert by_layer["conv1"].reason == "stride"
    assert by_layer["conv2"].eligible
    assert _spec(rw, "conv2").attrs["winograd"] is True


def test_rewrite_forced_tile():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=0)
    rw, decisions = rewrite_winograd(g, candidates=(4,))
    assert _spec(rw, "conv2").attrs["tile"] == 4


def test_rewrite_pointwise_only_graph_is_untouched():
    b = GraphBuilder((1, 4, 8, 8), seed=0)
    c1 = b.conv("pw1", INPUT, 4, 8, 1, padding=0)
    b.conv("pw2", c1, 8, 4, 1, padding=0)
    rw, decisions = rewrite_winograd(b.build())
    assert all(not d.eligible for d in decisions)
    assert all(d.reason == "pointwise" for d in decisions)
    assert all(not l.attrs.get("winograd") for l in rw.layers)


def test_rewrite_densenet_reduction_in_band():
    g = model_zoo("densenet121", CellVariant.DENSE, 320, seed=0)
    before = sum(count_mults(g).values())
    rw, _ = rewrite_winograd(g)
    after = sum(count_mults(rw).values())
    assert 1.3 <= before / after <= 2.0


def test_rewrite_float_equivalence():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=9)
    rw, _ = rewrite_winograd(g)
    x = np.random.default_rng(10).uniform(-1, 1, (1, 3, 16, 16))
    a = infer_float(g, x)
    b = infer_float(rw, x)
    assert np.abs(a - b).max() / np.abs(a).max() < 1e-6


def test_rewrite_skips_five_tap_depthwise():
    g = model_zoo("mobilenetv3l", CellVariant.FACTORIZED, 64, seed=0)
    _, decisions = rewrite_winograd(g)
    reasons = {d.reason for d in decisions if not d.eligible}
    assert any("5-tap" in r for r in reasons)
