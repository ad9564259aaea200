"""Multiplication counter and byte estimator against closed forms."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xconv2pc.costs import (
    BYTES_PER_MULT,
    compare_variants,
    count_mults,
    emit_report,
    estimate_comm,
    merge_measured,
    merge_predicted,
    mnemonic,
    mult_split,
)
from xconv2pc.graph import INPUT, CellVariant, GraphBuilder, cell_graph, fold_batchnorm
from xconv2pc.plan import build_plan, lt_cost
from xconv2pc.runtime.session import secure_infer_local
from xconv2pc.winograd import rewrite_winograd
from xconv2pc.zoo import model_zoo


def conv_only_graph(c_in, c_out, k, hw, pad=0, groups=1, seed=0):
    b = GraphBuilder((1, c_in, hw, hw), seed=seed)
    b.conv("conv", INPUT, c_in, c_out, k, padding=pad, groups=groups, bias=False)
    return b.build()


def test_single_channel_dense_318_is_910116():
    g = conv_only_graph(1, 1, 3, 320)  # valid conv: 318x318 output
    assert count_mults(g)["conv"] == 910_116


def test_ds_reduction_factor_exact_288_41():
    hw, c_in, c_out, k = 20, 5, 32, 3
    dense = conv_only_graph(c_in, c_out, k, hw, pad=1)
    b = GraphBuilder((1, c_in, hw, hw), seed=0)
    d = b.conv("dw", INPUT, c_in, c_in, k, padding=1, groups=c_in, bias=False)
    b.conv("pw", d, c_in, c_out, 1, padding=0, bias=False)
    ds = b.build()
    ratio = Fraction(sum(count_mults(dense).values()),
                     sum(count_mults(ds).values()))
    assert ratio == Fraction(k * k * c_out, k * k + c_out) == Fraction(288, 41)
    assert ratio > 7


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 16), st.integers(2, 40), st.sampled_from([3, 5]),
       st.integers(6, 24))
def test_ds_reduction_formula_all_dims(c_in, c_out, k, hw):
    dense = conv_only_graph(c_in, c_out, k, hw, pad=k // 2)
    b = GraphBuilder((1, c_in, hw, hw), seed=0)
    d = b.conv("dw", INPUT, c_in, c_in, k, padding=k // 2, groups=c_in, bias=False)
    b.conv("pw", d, c_in, c_out, 1, padding=0, bias=False)
    ds = b.build()
    ratio = Fraction(sum(count_mults(dense).values()), sum(count_mults(ds).values()))
    assert ratio == Fraction(k * k * c_out, k * k + c_out)


def test_shuffle_add_concat_count_zero():
    b = GraphBuilder((1, 4, 8, 8), seed=0)
    s = b.shuffle("shuf", INPUT, 4)
    a = b.add("plus", s, INPUT)
    b.concat("cat", a, s)
    counts = count_mults(b.build())
    assert counts == {"shuf": 0, "plus": 0, "cat": 0}


def test_estimate_mult_component_is_1_2288_gb():
    # A conv with exactly one million multiplications: 50x50 output,
    # 100 out channels, 1x1 kernel, 4 in channels.
    g = conv_only_graph(4, 100, 1, 50)
    assert count_mults(g)["conv"] == 1_000_000
    (report,) = estimate_comm(g).reports
    assert report.mults * BYTES_PER_MULT == pytest.approx(1.2288e9)
    # The rest is the truncation of the 250,000 outputs: 8 B per masked
    # element, 8 B per opened merge word and 40 B per gate word, one word
    # of 64 elements for each of the two comparisons.  The merge opens 7
    # bits of the 23-bit borrow (6 digits as 4, 1, 1) and 29 of the 60-bit
    # wrap (15 digits as 5, 5, 5).
    trunc = report.extra["trunc_elems"]
    words = -(-trunc // 64)
    assert trunc == 250_000 and report.extra["cmp_elems"] == 0
    borrow, wrap = lt_cost(trunc, 23), lt_cost(trunc, 60)
    open_words = borrow.open_words + wrap.open_words
    gate_words = borrow.gate_words + wrap.gate_words
    assert gate_words == 2 * words
    assert open_words == (7 + 29) * words
    assert report.est_bytes - 1.2288e9 == pytest.approx(
        8 * trunc + 8 * open_words + 40 * gate_words)


def test_densenet_conv_share_of_linear_bytes():
    g = model_zoo("densenet121", CellVariant.DENSE, 320, seed=0)
    est = estimate_comm(g)
    assert est.totals["conv"] / est.linear_bytes >= 0.90


def test_zeroing_relu_constant_moves_densenet_under_5pct():
    g = model_zoo("densenet121", CellVariant.DENSE, 320, seed=0)
    est = estimate_comm(g)
    relu = sum(r.est_bytes for r in est.reports if r.kind == "relu")
    assert 0 < relu / est.total_bytes < 0.05


def test_default_profile_is_the_measured_engine():
    # Beyond the modeled multiplications, each layer's estimate is the
    # bytes this engine sends for it, booked on the layer the ledger books
    # them on: a fused ReLU's comparison under the truncating layer.
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=0)
    x = np.random.default_rng(1).uniform(-1, 1, g.input_shape)
    run = secure_infer_local(g, x, seed=2)
    assert {pl.name for pl in run.plan.layers if pl.relu_sign} == {"conv1", "conv2"}
    estimated = {r.layer: round(r.est_bytes - r.mults * BYTES_PER_MULT)
                 for r in estimate_comm(g).reports}
    measured = dict.fromkeys(estimated, 0)
    for (layer, op), e in run.client.ledger.entries.items():
        if layer != "session" and op != "mul-open":
            measured[layer] += e.bytes_sent
    assert estimated == measured
    relu1 = next(pl for pl in run.plan.layers if pl.name == "relu1")
    assert estimated["relu1"] == 16 * relu1.cmp_elems  # its sign-bit product alone


def test_batchnorm_counts_as_other_linear_until_folded():
    b = GraphBuilder((1, 3, 8, 8), seed=0)
    c = b.conv("c", INPUT, 3, 4, 3)
    b.batchnorm("bn", c, 4)
    g = b.build()
    split = mult_split(g)
    assert split["other_linear"] == 4 * 8 * 8
    folded = fold_batchnorm(g)
    assert mult_split(folded)["other_linear"] == 0


def test_counter_equals_plan_triple_requirement():
    for backbone, size in (("toynet", 16), ("shufflenetv2", 64)):
        g = model_zoo(backbone, CellVariant.XOP, size, seed=1)
        plan = build_plan(g)
        counted = sum(count_mults(fold_batchnorm(g)).values())
        assert plan.requirements().mul_triples == counted


def test_winograd_tagged_layers_report_beta2():
    g = conv_only_graph(2, 3, 3, 34, pad=0)  # 32x32 output
    rw, decisions = rewrite_winograd(g)
    d = decisions[0]
    assert d.eligible
    assert count_mults(rw)["conv"] == d.beta2 * 3 * 2
    assert d.beta2 < d.dense


def test_compare_variants_identity_and_ordering():
    rows = compare_variants(
        [("toynet", CellVariant.DENSE, False), ("toynet", CellVariant.DENSE, False)],
        input_size=16, baseline="TD")
    assert rows[0].reduction_vs_baseline == 1.0
    assert rows[0].mnemonic == "TD"
    assert mnemonic("resnet18", CellVariant.XOP, True) == "R'XW"


def test_compare_variants_headline_reductions():
    rows = compare_variants(
        [("densenet121", CellVariant.DENSE, False),
         ("shufflenetv2", CellVariant.XOP, False),
         ("resnet18", CellVariant.DENSE, False),
         ("resnet18", CellVariant.FACTORIZED, False)],
        input_size=320, baseline="DD")
    by = {r.mnemonic: r for r in rows}
    assert by["SX"].mults * 15 < by["DD"].mults
    assert by["R'D"].mults >= 4 * by["R'F"].mults
    assert by["SX"].reduction_vs_baseline > 15


def test_compare_variants_pins_the_paper_rows_at_320():
    # mults and est_bytes of four rows of the paper's table, bit for bit.
    rows = compare_variants(
        [("densenet121", "dense", False), ("densenet121", "xop", False),
         ("shufflenetv2", "xop", False), ("shufflenetv2", "dense", True)],
        input_size=320, graph_hook=lambda g: rewrite_winograd(g)[0])
    assert {r.mnemonic: (r.mults, r.est_bytes) for r in rows} == {
        "DD": (5_788_211_200, 7113008683328.0),
        "DX": (2_052_121_600, 2522223926848.0),
        "SX": (243_049_600, 298836204736.0),
        "SDW": (750_406_528, 922275341862.4001),
    }


def test_emit_empty_report_header_only():
    text = emit_report([], fmt="csv")
    assert text.strip() == "layer,kind,mults,est_bytes,meas_bytes,category,pred_bytes"


def test_emit_json_roundtrip_stable():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=0)
    reports = merge_predicted(estimate_comm(g).reports, g)
    rows = json.loads(emit_report(reports, fmt="json"))
    assert len(rows) == len(reports)
    for row, r in zip(rows, reports):
        assert row == {"layer": r.layer, "kind": r.kind, "mults": r.mults,
                       "est_bytes": r.est_bytes, "meas_bytes": r.meas_bytes,
                       "category": r.category, "pred_bytes": r.pred_bytes,
                       **r.extra}


def test_merge_measured_joins_by_layer_name():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=0)
    reports = estimate_comm(g).reports
    merged = merge_measured(reports, {"conv1": 1234.0, "absent": 1.0})
    by = {r.layer: r for r in merged}
    assert by["conv1"].meas_bytes == 1234.0
    assert by["conv2"].meas_bytes is None
    text = emit_report(merged, fmt="csv")
    assert "1234.0" in text


def test_stage1_cell_reference_dims():
    # One bottleneck cell, 64 -> (64 wide) -> 256, on a 160x160 map: the
    # reference dimensions for the headline operator comparison.
    dense = sum(count_mults(cell_graph(CellVariant.DENSE, 64, 64, 256, 160)).values())
    shuf = sum(count_mults(cell_graph(CellVariant.SHUFFLE, 64, 64, 256, 160)).values())
    xop = sum(count_mults(cell_graph(CellVariant.XOP, 64, 64, 256, 160)).values())
    assert dense == 160 * 160 * (64 * 64 + 9 * 64 * 64 + 64 * 256)
    assert abs(dense / 1.46e9 - 1) < 0.20
    assert abs((dense / shuf) / 2.75 - 1) < 0.15
    assert abs((dense / xop) / 5.3 - 1) < 0.15
