"""Graph IR, interpreters, cells, and batchnorm folding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xconv2pc.clear import infer_fixed, infer_float
from xconv2pc.costs import count_mults
from xconv2pc.errors import FixedPointOverflowError, ShapeError
from xconv2pc.graph import (
    INPUT,
    CellVariant,
    GraphBuilder,
    cell_graph,
    channel_shuffle,
    fold_batchnorm,
    infer_shapes,
)
from xconv2pc.plan import WINOGRAD_INPUT_BOUND, build_plan, execute_plan_clear
from xconv2pc.ring import FixedPointConfig, decode_fixed, encode_fixed
from xconv2pc.winograd import rewrite_winograd
from xconv2pc.zoo import model_zoo


def direct_conv_oracle(x, w, stride=1, pad=0, groups=1):
    """Brute-force grouped cross-correlation, loops only."""
    n, c, h, wd = x.shape
    o, ig, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((n, o, oh, ow))
    cpg_in, cpg_out = c // groups, o // groups
    for g in range(groups):
        for oc in range(cpg_out):
            for ic in range(cpg_in):
                for i in range(oh):
                    for j in range(ow):
                        patch = xp[:, g * cpg_in + ic,
                                   i * stride:i * stride + k,
                                   j * stride:j * stride + k]
                        out[:, g * cpg_out + oc, i, j] += (
                            patch * w[g * cpg_out + oc, ic]).sum(axis=(1, 2))
    return out


def single_conv_graph(c_in, c_out, k, hw, stride=1, pad=0, groups=1, bias=False,
                      seed=0):
    b = GraphBuilder((1, c_in, hw, hw), seed=seed)
    b.conv("conv", INPUT, c_in, c_out, k, stride=stride, padding=pad,
           groups=groups, bias=bias)
    return b.build()


# -- conv basics -------------------------------------------------------------


def test_conv_all_ones():
    g = single_conv_graph(1, 1, 3, 3)
    g.weights["conv.weight"] = np.ones((1, 1, 3, 3))
    out = infer_float(g, np.ones((1, 1, 3, 3)))
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 9.0


def test_conv_delta_filter_is_crop():
    g = single_conv_graph(1, 1, 3, 8)
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    g.weights["conv.weight"] = w
    x = np.random.default_rng(0).standard_normal((1, 1, 8, 8))
    out = infer_float(g, x)
    assert np.allclose(out[0, 0], x[0, 0, 1:-1, 1:-1])


def test_depthwise_equals_independent_convs():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 3, 8, 8))
    w = rng.standard_normal((3, 1, 3, 3))
    g = single_conv_graph(3, 3, 3, 8, groups=3)
    g.weights["conv.weight"] = w
    out = infer_float(g, x)
    ref = direct_conv_oracle(x, w, groups=3)
    assert np.allclose(out, ref)
    for c in range(3):
        solo = direct_conv_oracle(x[:, c:c + 1], w[c:c + 1])
        assert np.allclose(out[:, c:c + 1], solo)


def test_conv_strided_grouped_vs_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 4, 9, 9))
    w = rng.standard_normal((6, 2, 3, 3))
    b = GraphBuilder((2, 4, 9, 9), seed=0)
    b.conv("conv", INPUT, 4, 6, 3, stride=2, padding=1, groups=2, bias=False)
    g = b.build()
    g.weights["conv.weight"] = w
    assert np.allclose(infer_float(g, x), direct_conv_oracle(x, w, 2, 1, 2))


# -- channel shuffle ----------------------------------------------------------


def test_shuffle_identity():
    x = np.random.default_rng(3).standard_normal((1, 6, 4, 4))
    assert np.array_equal(channel_shuffle(x, list(range(6))), x)


def test_shuffle_reversal_twice():
    x = np.random.default_rng(4).standard_normal((1, 6, 4, 4))
    rev = list(reversed(range(6)))
    assert np.array_equal(channel_shuffle(channel_shuffle(x, rev), rev), x)


def test_shuffle_preserves_channel_multiset():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 8, 3, 3))
    perm = rng.permutation(8).tolist()
    y = channel_shuffle(x, perm)
    got = sorted(tuple(y[0, c].ravel()) for c in range(8))
    want = sorted(tuple(x[0, c].ravel()) for c in range(8))
    assert got == want


def test_shuffle_rejects_non_bijection():
    x = np.zeros((1, 4, 2, 2))
    with pytest.raises(ShapeError):
        channel_shuffle(x, [0, 0, 1, 2])


# -- cells ----------------------------------------------------------------------


def _cell_out_shape(variant, c_in, c_mid, c_out, hw, stride):
    """Output shape of one cell, expanded at ``stride`` as the zoo expands them."""
    b = GraphBuilder((1, c_in, hw, hw))
    b.expand_cell(variant, INPUT, c_in, c_mid, c_out, stride=stride)
    g = b.build()
    return infer_shapes(g)[g.output_name]


@pytest.mark.parametrize("variant", list(CellVariant))
@pytest.mark.parametrize("stride", [1, 2])
def test_cell_output_shape_matches_dense(variant, stride):
    assert _cell_out_shape(variant, 8, 12, 20, 16, stride) == \
        _cell_out_shape(CellVariant.DENSE, 8, 12, 20, 16, stride)


def test_cell_rejects_odd_channels_for_grouped():
    with pytest.raises(ShapeError):
        cell_graph(CellVariant.XOP, 7, 10, 12, hw=8)
    with pytest.raises(ShapeError):
        cell_graph(CellVariant.SHUFFLE, 8, 9, 12, hw=8)


def test_xop_vs_dense_mult_ratio_closed_form():
    # Dense cell: HW(Cin*Cm + K^2*Cm^2 + Cm*Cout); crossed variant halves both
    # pointwise terms and swaps the dense spatial conv for a per-channel one.
    c_in, c_mid, c_out, k, hw = 16, 48, 64, 3, 320
    dense = sum(count_mults(cell_graph(CellVariant.DENSE, c_in, c_mid, c_out,
                                       hw=hw)).values())
    xop = sum(count_mults(cell_graph(CellVariant.XOP, c_in, c_mid, c_out,
                                     hw=hw)).values())
    area = hw * hw
    dense_formula = area * (c_in * c_mid + k * k * c_mid * c_mid + c_mid * c_out)
    xop_formula = area * (c_in * c_mid // 2 + k * k * c_mid + c_mid * c_out // 2)
    assert dense == dense_formula
    assert xop == xop_formula


def test_shuffle_cell_mults_match_split_formula():
    c_in, c_mid, c_out, hw = 64, 64, 256, 20
    got = sum(count_mults(cell_graph(CellVariant.SHUFFLE, c_in, c_mid, c_out,
                                     hw=hw)).values())
    area = hw * hw
    want = area * (c_in * c_mid + 9 * (c_mid // 2) + c_mid * c_out)
    assert got == want


# -- shape validation -------------------------------------------------------------


def test_validate_toynet_full_table():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=0)
    shapes = infer_shapes(g)
    assert shapes["conv1"] == (1, 8, 8, 8)
    assert shapes["pool"] == (1, 16, 4, 4)
    assert shapes["fc"] == (1, 10)


def test_validate_reports_channel_mismatch():
    b = GraphBuilder((1, 3, 8, 8), seed=0)
    b.conv("c1", INPUT, 3, 4, 3)
    b.conv("c2", "c1", 8, 4, 3)  # wrong: c1 yields 4 channels
    with pytest.raises(ShapeError, match="c2"):
        infer_shapes(b.build())


def test_validate_reports_group_divisibility():
    b = GraphBuilder((1, 6, 8, 8), seed=0)
    b.conv("c1", INPUT, 6, 9, 3, groups=4)
    with pytest.raises(ShapeError, match="c1"):
        infer_shapes(b.build())


def test_builder_rejects_a_duplicate_layer_name_at_build():
    b = GraphBuilder((1, 3, 8, 8), seed=0)
    r = b.relu("r", INPUT)
    b.relu("r", r)
    with pytest.raises(ShapeError, match="duplicate layer name 'r'"):
        b.build()


@pytest.mark.parametrize("name", ["input", "session"])
def test_builder_rejects_a_reserved_layer_name_at_build(name):
    # A layer called "session" would share its ledger rows with the
    # session's hello, output open and sync.
    b = GraphBuilder((1, 3, 8, 8), seed=0)
    b.relu(name, INPUT)
    with pytest.raises(ShapeError, match=f"layer name '{name}' is reserved") as err:
        b.build()
    assert err.value.exit_code == 3


# -- interpreters --------------------------------------------------------------


def test_zero_input_through_biasfree_conv_relu():
    b = GraphBuilder((1, 2, 6, 6), seed=0)
    c = b.conv("c", INPUT, 2, 3, 3, bias=False)
    b.relu("r", c)
    g = b.build()
    assert np.all(infer_float(g, np.zeros((1, 2, 6, 6))) == 0.0)
    assert np.all(decode_fixed(infer_fixed(g, np.zeros((1, 2, 6, 6))), g.cfg) == 0.0)


def test_fixed_vs_float_toy_net_bound():
    b = GraphBuilder((1, 2, 12, 12), seed=7)
    c1 = b.conv("c1", INPUT, 2, 4, 3)
    r1 = b.relu("r1", c1)
    c2 = b.conv("c2", r1, 4, 4, 3)
    g = b.build()
    x = np.random.default_rng(8).uniform(-1, 1, (1, 2, 12, 12))
    f = infer_float(g, x)
    q = decode_fixed(infer_fixed(g, x), g.cfg)
    assert np.abs(f - q).max() <= 2.0 ** -18


def test_fixed_mode_deterministic_bits():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=5)
    x = np.random.default_rng(6).uniform(-1, 1, (1, 3, 16, 16))
    a = infer_fixed(g, x)
    b = infer_fixed(g, x)
    assert np.array_equal(a.words, b.words)


def _doubling_plan():
    # Two chained self-adds, no weights: the promised ceiling stays 128.
    b = GraphBuilder((1, 2, 4, 4))
    b.add("twice", INPUT, INPUT)
    b.add("four", "twice", "twice")
    return build_plan(b.build())


def test_clear_ceiling_check_names_first_layer_over():
    plan = _doubling_plan()
    assert plan.input_bound == 128.0
    x = encode_fixed(np.full((1, 2, 4, 4), 100.0), FixedPointConfig())
    # 100 is inside the input promise; "twice" holds 200, "four" 400.
    with pytest.raises(FixedPointOverflowError, match=r"^twice: activation exceeds"):
        execute_plan_clear(plan, x)
    out = execute_plan_clear(plan, x, check_ceiling=False)
    assert np.all(out.signed() == 400 * 2**23)
    with pytest.raises(FixedPointOverflowError, match=r"^input: activation exceeds"):
        execute_plan_clear(plan, encode_fixed(np.full((1, 2, 4, 4), 129.0),
                                              FixedPointConfig()))


def test_clear_ceiling_check_bounds_transform_input():
    b = GraphBuilder((1, 2, 6, 6), seed=3)
    b.conv("c", INPUT, 2, 2, 3)
    g, _ = rewrite_winograd(b.build(), candidates=(4,))
    plan = build_plan(g)
    cfg = FixedPointConfig()
    within = encode_fixed(np.full((1, 2, 6, 6), WINOGRAD_INPUT_BOUND), cfg)
    execute_plan_clear(plan, within)
    # Above the transform's tighter promise, though inside the ceiling.
    over = encode_fixed(np.full((1, 2, 6, 6), WINOGRAD_INPUT_BOUND + 1.0), cfg)
    assert plan.input_bound > WINOGRAD_INPUT_BOUND + 1.0
    with pytest.raises(FixedPointOverflowError, match=r"^c \(transform input\):"):
        execute_plan_clear(plan, over)
    execute_plan_clear(plan, over, check_ceiling=False)


# -- batchnorm folding -----------------------------------------------------------


def _bn_graph(seed=0):
    b = GraphBuilder((1, 3, 8, 8), seed=seed)
    c = b.conv("c", INPUT, 3, 5, 3)
    n = b.batchnorm("bn", c, 5)
    b.relu("r", n)
    return b.build()


def test_fold_identity_bn_keeps_weights():
    g = _bn_graph()
    g.weights["bn.gamma"] = np.ones(5)
    g.weights["bn.beta"] = np.zeros(5)
    g.weights["bn.mean"] = np.zeros(5)
    g.weights["bn.var"] = np.ones(5) - 1e-5  # cancels the folding epsilon
    folded = fold_batchnorm(g)
    assert np.allclose(folded.weights["c.weight"], g.weights["c.weight"])
    assert not any(l.kind == "batchnorm" for l in folded.layers)


def test_fold_random_bn_float_equivalent():
    g = _bn_graph(seed=11)
    x = np.random.default_rng(12).uniform(-1, 1, (1, 3, 8, 8))
    a = infer_float(g, x)
    b = infer_float(fold_batchnorm(g), x)
    denom = np.abs(a).max()
    assert np.abs(a - b).max() / denom < 1e-10


def test_fold_is_idempotent():
    # Folding a graph with no batchnorm returns an equal copy that shares
    # no layer, attribute or input list with it.
    g = fold_batchnorm(_bn_graph())
    g2 = fold_batchnorm(g)
    assert g2.structural_hash() == g.structural_hash()
    for a, b in zip(g2.layers, g.layers):
        assert a is not b and a.attrs is not b.attrs and a.inputs is not b.inputs
    assert g2.weights.keys() == g.weights.keys()
    for k in g.weights:
        assert np.array_equal(g.weights[k], g2.weights[k])


def test_fold_orphan_bn_rejected():
    b = GraphBuilder((1, 3, 8, 8), seed=0)
    r = b.relu("r", INPUT)
    b.batchnorm("bn", r, 3)
    with pytest.raises(ShapeError):
        fold_batchnorm(b.build())


# -- model zoo -------------------------------------------------------------------


def test_toynet_smoke_all_modes():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=0)
    infer_shapes(g)
    x = np.random.default_rng(1).uniform(-1, 1, (1, 3, 16, 16))
    f = infer_float(g, x)
    q = decode_fixed(infer_fixed(g, x), g.cfg)
    assert f.shape == q.shape == (1, 10)
    assert np.abs(f - q).max() < 1e-3


def test_zoo_rejects_unknown_backbone():
    with pytest.raises(ValueError):
        model_zoo("vgg16", CellVariant.DENSE, 320)


@pytest.mark.parametrize("backbone", ["densenet121", "resnet50", "resnet18",
                                      "mobilenetv3l", "shufflenetv2"])
def test_zoo_variants_validate_at_small_size(backbone):
    for variant in CellVariant:
        g = model_zoo(backbone, variant, input_size=64, seed=2)
        infer_shapes(g)


@pytest.mark.parametrize("size", [8, 16, 24])
def test_zoo_rejects_a_size_that_leaves_a_layer_no_shape(size):
    # densenet121's transitions pool its map to 1x1 below 32 px; the zoo
    # raises at build time, not at the first shape inference downstream.
    for variant in CellVariant:
        with pytest.raises(ShapeError, match="pool: window 2 larger than map 1x1"):
            model_zoo("densenet121", variant, size, seed=2)
    infer_shapes(model_zoo("densenet121", CellVariant.XOP, 32, seed=2))


def test_densenet_conv_dominates_linear_mults():
    from xconv2pc.costs import mult_split

    g = model_zoo("densenet121", CellVariant.DENSE, 320, seed=0)
    assert mult_split(g)["conv_pct_of_linear"] >= 90.0


def test_shufflenet_xop_beats_dense_by_4x():
    dense = sum(count_mults(model_zoo("shufflenetv2", CellVariant.DENSE, 320,
                                      seed=0)).values())
    xop = sum(count_mults(model_zoo("shufflenetv2", CellVariant.XOP, 320,
                                    seed=0)).values())
    assert xop < dense / 4


# -- properties -------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).map(lambda v: 2 * v),      # even c_in
       st.integers(2, 6).map(lambda v: 2 * v),      # even c_mid
       st.integers(2, 8).map(lambda v: 2 * v),      # even c_out
       st.sampled_from([1, 2]))
def test_every_variant_is_shape_preserving(c_in, c_mid, c_out, stride):
    shapes = {_cell_out_shape(v, c_in, c_mid, c_out, 12, stride) for v in CellVariant}
    assert len(shapes) == 1
