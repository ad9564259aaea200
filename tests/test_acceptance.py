"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from xconv2pc.costs import count_mults, mult_split
from xconv2pc.graph import CellVariant, GraphBuilder, INPUT, cell_graph
from xconv2pc.graphio import save_graph
from xconv2pc.runtime.session import secure_infer_local
from xconv2pc.winograd import mult_counts, rewrite_winograd, winograd_basis
from xconv2pc.zoo import model_zoo


def _verdict(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- 1. Winograd count constants -----------------------------------------------------


def test_criterion_1_count_constants():
    t0 = time.time()
    p = mult_counts(318, 3, 6)
    ok = (p.dense, p.beta1, p.beta2) == (910_116, 102_400, 230_400)
    elapsed = time.time() - t0
    _verdict(1, ok and elapsed < 1.0,
             f"mult_counts(318,3,6) = ({p.dense:,}, {p.beta1:,}, {p.beta2:,}) "
             f"in {elapsed:.3f}s")


# -- 2. Basis correctness --------------------------------------------------------------


def _scaled_transform_1d(basis, g, x, w):
    """The transform path on integers.

    ``g`` is ``basis.g`` times the lcm of its denominators; ``b_t`` and
    ``a_t`` are integral. For integer ``x`` and ``w`` the result is the
    rational transform times that lcm, exactly.
    """
    n, r, m = basis.n, basis.r, basis.m
    btx = [sum(basis.b_t[a][b] * x[b] for b in range(n)) for a in range(n)]
    gw = [sum(g[a][b] * w[b] for b in range(r)) for a in range(n)]
    prod = [btx[a] * gw[a] for a in range(n)]
    return [sum(basis.a_t[o][a] * prod[a] for a in range(n)) for o in range(m)]


def _conv_1d(x, w):
    m = len(x) - len(w) + 1
    return [sum(x[i + j] * w[j] for j in range(len(w))) for i in range(m)]


def _scaled(nums, dens, scale):
    # p / q * scale, exact because every q divides scale.
    return [p * scale // q for p, q in zip(nums.tolist(), dens.tolist())]


def test_criterion_2_basis_identity_exact():
    # Inputs are p/q with q in 1..12. Both sides are compared times the lcm
    # of every denominator, which keeps the comparison exact and lets it run
    # on Python ints rather than Fractions.
    t0 = time.time()
    rng = np.random.default_rng(2024)
    in_scale = math.lcm(*range(1, 13))
    mismatches = 0
    for m, r in ((2, 3), (4, 3)):
        basis = winograd_basis(m, r)
        n = basis.n
        g_scale = math.lcm(*(v.denominator for row in basis.g for v in row))
        g = [[int(v * g_scale) for v in row] for row in basis.g]
        for _ in range(10_000):
            x = _scaled(rng.integers(-99, 100, n), rng.integers(1, 13, n), in_scale)
            w = _scaled(rng.integers(-99, 100, r), rng.integers(1, 13, r), in_scale)
            if (_scaled_transform_1d(basis, g, x, w)
                    != [g_scale * v for v in _conv_1d(x, w)]):
                mismatches += 1
    elapsed = time.time() - t0
    _verdict(2, mismatches == 0 and elapsed < 10.0,
             f"2x10,000 random rational tiles, {mismatches} mismatches, "
             f"zero tolerance, in {elapsed:.1f}s")


# -- 3. Winograd float equivalence -----------------------------------------------------


def _direct_conv_float(x, w, pad):
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    m = h + 2 * pad - k + 1
    out = np.zeros((n, o, m, m))
    for oc in range(o):
        for ic in range(c):
            for i in range(k):
                for j in range(k):
                    out[:, oc] += xp[:, ic, i:i + m, j:j + m] * w[oc, ic, i, j]
    return out


def _float_transform_conv(x, w, n, pad):
    """Float transform convolution with n x n tiles, through the shared kernel."""
    from xconv2pc.winograd import basis_for_tile, transform_conv, transform_filter_real

    basis = basis_for_tile(n, w.shape[-1])
    return transform_conv(x, transform_filter_real(w, basis), basis, pad, 1,
                          lambda a, b, axis: np.multiply(a, b).sum(axis=axis))


def test_criterion_3_float_equivalence_200_convs():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(200):
        hw = int(rng.integers(5, 65))
        c_in = int(rng.integers(1, 9))
        c_out = int(rng.integers(1, 9))
        n = int(rng.choice([4, 6]))
        pad = int(rng.integers(0, 2))
        if hw + 2 * pad < 3:
            continue
        x = rng.standard_normal((1, c_in, hw, hw))
        w = rng.standard_normal((c_out, c_in, 3, 3))
        got = _float_transform_conv(x, w, n, pad)
        ref = _direct_conv_float(x, w, pad)
        rel = np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-30)
        worst = max(worst, rel)
    elapsed = time.time() - t0
    _verdict(3, worst < 1e-8 and elapsed < 60.0,
             f"200 tiled convolutions, worst relative error {worst:.2e}, "
             f"in {elapsed:.1f}s")


# -- 4. Bitwise secure/clear equivalence ------------------------------------------------


def _bitwise_trials(graph, trials, seed_base):
    mismatching_bits = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed_base + t, spawn_key=(300,)))
        x = rng.uniform(-1.0, 1.0, size=graph.input_shape)
        run = secure_infer_local(graph, x, seed=seed_base + t)
        diff = run.output.words ^ run.clear_reference.words
        mismatching_bits += int(sum(int(v).bit_count() for v in diff.ravel()))
    return mismatching_bits


def _local_three_process_matches(graph, tmp_path, tag, seed, child_kwargs):
    gpath = tmp_path / f"{tag}.json"
    save_graph(graph, str(gpath))
    out = tmp_path / f"{tag}.secure.rtv"
    clear = tmp_path / f"{tag}.clear.rtv"
    base = [sys.executable, "-m", "xconv2pc"]
    # Each child is bounded so that a hung party fails the criterion instead
    # of stalling the suite; the bound is the criterion's own.
    rc = subprocess.run(base + ["run", "--local", "--graph", str(gpath),
                                "--seed", str(seed), "--material",
                                str(tmp_path / f"{tag}-mat"), "--out", str(out)],
                        **child_kwargs, capture_output=True, text=True, timeout=300)
    assert rc.returncode == 0, rc.stderr
    rc = subprocess.run(base + ["infer", "--graph", str(gpath), "--seed",
                                str(seed), "--fixed", "--out", str(clear)],
                        **child_kwargs, capture_output=True, text=True, timeout=300)
    assert rc.returncode == 0, rc.stderr
    return out.read_bytes() == clear.read_bytes()


def test_criterion_4_bitwise_equivalence(tmp_path, child_kwargs):
    t0 = time.time()
    toynet = model_zoo("toynet", CellVariant.DENSE, 16, seed=400)
    xop = cell_graph(CellVariant.XOP, 16, 48, 64, hw=32, seed=401)
    bad_toy = _bitwise_trials(toynet, 100, 1000)
    bad_xop = _bitwise_trials(xop, 100, 5000)
    tcp_ok = (_local_three_process_matches(toynet, tmp_path, "toy", 77, child_kwargs)
              and _local_three_process_matches(xop, tmp_path, "xop", 78, child_kwargs))
    elapsed = time.time() - t0
    _verdict(4, bad_toy == 0 and bad_xop == 0 and tcp_ok and elapsed < 300.0,
             f"toynet 100 pairs: {bad_toy} mismatching bits; x-op cell 100 "
             f"pairs: {bad_xop} mismatching bits; three-process runs "
             f"bit-identical: {tcp_ok}; in {elapsed:.0f}s")


# -- 5. Zero-communication invariant ----------------------------------------------------


def test_criterion_5_zero_communication_set():
    rng = np.random.default_rng(5)
    checked = {}

    def collect(run, wanted):
        led = run.client.ledger
        for (layer, op), e in led.entries.items():
            if op in wanted:
                checked[(layer, op)] = max(e.bytes_sent, e.bytes_recv,
                                           checked.get((layer, op), 0))

    xop = cell_graph(CellVariant.XOP, 8, 16, 24, hw=12, seed=50)
    collect(secure_infer_local(xop, rng.uniform(-1, 1, (1, 8, 12, 12)), seed=51),
            {"shuffle", "add"})
    shuf = cell_graph(CellVariant.SHUFFLE, 8, 16, 24, hw=12, seed=52)
    collect(secure_infer_local(shuf, rng.uniform(-1, 1, (1, 8, 12, 12)), seed=53),
            {"shuffle", "concat"})
    b = GraphBuilder((1, 2, 10, 10), seed=54)
    b.conv("wg", INPUT, 2, 3, 3, bias=False)
    wg_graph, _ = rewrite_winograd(b.build())
    collect(secure_infer_local(wg_graph, rng.uniform(-1, 1, (1, 2, 10, 10)),
                               seed=55),
            {"wg-input-transform", "wg-output-transform"})

    ops_seen = {op for (_, op) in checked}
    required = {"shuffle", "add", "concat", "wg-input-transform",
                "wg-output-transform"}
    worst = max(checked.values(), default=-1)
    _verdict(5, required <= ops_seen and worst == 0,
             f"ops {sorted(ops_seen)} all recorded exactly 0 payload bytes "
             f"(max seen {worst})")


# -- 6. Byte proportionality and scaling --------------------------------------------------


def test_criterion_6_byte_proportionality_and_scaling():
    from xconv2pc.cli import bench_graph

    t0 = time.time()
    totals = {}
    exact = True
    for size in (16, 32, 64):
        g = bench_graph("dense", size, seed=6)
        rng = np.random.default_rng(600 + size)
        run = secure_infer_local(g, rng.uniform(-1, 1, g.input_shape),
                                 seed=600 + size)
        mults = count_mults(g)["op"]
        conv_bytes = run.client.ledger.entries["op", "mul-open"].bytes_sent
        exact &= conv_bytes == 16 * mults
        totals[size] = run.client.ledger.total_sent
    r1 = totals[32] / totals[16]
    r2 = totals[64] / totals[32]
    in_band = abs(r1 - 4.0) <= 0.2 and abs(r2 - 4.0) <= 0.2
    elapsed = time.time() - t0
    _verdict(6, exact and in_band,
             f"conv payload = 16 x #MULT exactly: {exact}; doubling ratios "
             f"{r1:.3f}, {r2:.3f} (4.00 +/- 5%); in {elapsed:.0f}s")


# -- 7. Depthwise-separable reduction formula ----------------------------------------------


def test_criterion_7_ds_reduction_formula():
    k, c_out, c_in, hw = 3, 32, 5, 20
    b = GraphBuilder((1, c_in, hw, hw), seed=7)
    b.conv("dense", INPUT, c_in, c_out, k, bias=False)
    dense = count_mults(b.build())["dense"]
    b = GraphBuilder((1, c_in, hw, hw), seed=7)
    d = b.conv("dw", INPUT, c_in, c_in, k, groups=c_in, bias=False)
    b.conv("pw", d, c_in, c_out, 1, padding=0, bias=False)
    ds = sum(count_mults(b.build()).values())
    ratio = Fraction(dense, ds)
    ok = ratio == Fraction(k * k * c_out, k * k + c_out) == Fraction(288, 41)
    _verdict(7, ok and ratio > 7,
             f"dense/separable = {ratio} = 288/41 = {float(ratio):.3f} > 7")


# -- 8. X-operator ratios ---------------------------------------------------------------


def test_criterion_8_stage1_cell_ratios():
    # Dimension assumptions (documented): one bottleneck cell with
    # 64 -> 64-wide -> 256 channels, 3x3 spatial kernel, on the 160x160
    # map left by a stride-2 stem on a 320x320 input.  These reproduce the
    # three reference counts nearly exactly; the stated 15/20% tolerances
    # absorb the assumption.
    dims = dict(c_in=64, c_mid=64, c_out=256, hw=160)
    dense = sum(count_mults(cell_graph(CellVariant.DENSE, **dims)).values())
    shuf = sum(count_mults(cell_graph(CellVariant.SHUFFLE, **dims)).values())
    xop = sum(count_mults(cell_graph(CellVariant.XOP, **dims)).values())
    dense_ok = abs(dense / 1.46e9 - 1) < 0.20
    r_shuf = dense / shuf
    r_xop = dense / xop
    ratios_ok = abs(r_shuf / 2.75 - 1) < 0.15 and abs(r_xop / 5.3 - 1) < 0.15
    _verdict(8, dense_ok and ratios_ok,
             f"dense {dense / 1e9:.3f}B (target 1.46B +/-20%); dense/shuffle "
             f"{r_shuf:.2f}x (2.75 +/-15%); dense/x-op {r_xop:.2f}x (5.3 +/-15%)")


# -- 9. Convolution dominance ---------------------------------------------------------


def test_criterion_9_conv_dominance_all_backbones():
    shares = {}
    for backbone in ("densenet121", "resnet50", "resnet18", "mobilenetv3l",
                     "shufflenetv2"):
        g = model_zoo(backbone, CellVariant.DENSE, 320, seed=9)
        shares[backbone] = mult_split(g)["conv_pct_of_linear"]
    ok = all(v >= 90.0 for v in shares.values())
    _verdict(9, ok, "conv share of linear multiplications: " + ", ".join(
        f"{k} {v:.1f}%" for k, v in shares.items()))


# -- 10. Rewrite benefit ----------------------------------------------------------------


def test_criterion_10_rewrite_benefit_densenet():
    g = model_zoo("densenet121", CellVariant.DENSE, 320, seed=10)
    before = sum(count_mults(g).values())
    rewritten, _ = rewrite_winograd(g)
    after = sum(count_mults(rewritten).values())
    factor = before / after
    _verdict(10, 1.3 <= factor <= 2.0,
             f"rewrite cuts total multiplications by {factor:.2f}x "
             f"({before / 1e9:.2f}B -> {after / 1e9:.2f}B), band [1.3, 2.0]")


# -- 11. Desk-scale substitution ---------------------------------------------------------


def test_criterion_11_declared_substitutions_and_regression(transcripts):
    # Absolute reference-stack figures (terabyte-scale session traffic,
    # quarter-hour latencies, accuracy numbers) are declared out of reach
    # at desk scale and are replaced by the property suite above plus this
    # transcript determinism regression, read from recorders wrapped around
    # both parties' transports.
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=11)
    x = np.random.default_rng(11).uniform(-1, 1, (1, 3, 16, 16))
    for seed in (110, 110, 111):
        secure_infer_local(g, x, seed=seed)
    a, b, c = ([r.sent_digest for r in s] for s in transcripts)
    same = a == b
    differs = a[0] != c[0]
    _verdict(11, same and differs,
             "absolute terabyte/latency/accuracy figures declared not "
             "reproducible at desk scale; transcript regression holds "
             f"(identical seeds identical: {same}; fresh seed differs: {differs})")
