"""Fixed-point execution plans and the one walker that runs them.

A plan compiles a graph into the exact sequence of ring operations that
both the clear fixed-point interpreter and the two-party engine execute:
normalization folded, weights encoded (transform-domain for tagged
convolutions), scaling constants pinned, and per-layer resource counts
fixed.

``run_plan`` executes a plan, and it is the only code that does: every
linear step (conv patches, the grouped broadcast, sums, public scaling,
permutes, adds, concats) is written there once, and a tagged
convolution's tiling and integer transforms are
``winograd.transform_conv``, the kernel the float reference runs too.  A
backend supplies the rest: the summed elementwise product, relu,
truncation, the bias add, the zero-byte ledger rows and the weights.
``ClearOps`` below works on plain residues; the two-party
``PartyEngine`` works on one party's additive share.  Running the same
plan through both therefore yields bit-identical results by
construction, which is the equivalence the whole artifact is built
around.

Resource counts (multiplications, truncated elements, comparisons,
merge-record words) depend only on shapes and attributes, never on weight
values, so the weight-less party derives the same schedule from the
public architecture.  ``schedule`` computes them for every layer of a
graph, for the plan and the cost model alike, and ``predict_ledger``
turns them into the bytes and rounds every run books.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import FixedPointOverflowError, ShapeError
from .graph import Graph, INPUT, fold_batchnorm, infer_shapes
from .ring import FixedPointConfig, RingTensor, encode_fixed, truncate_signed
from .winograd import (
    basis_for_tile,
    mult_counts,
    transform_conv,
    transform_filter_real,
    winograd_guard,
)

_U64 = np.uint64


DIGIT_BITS = 4  # mask bits per dealer truth-table digit


def lt_digits(n_bits: int) -> int:
    """Dealer table digits one less-than over n_bits reads per element.

    The compared values split into DIGIT_BITS-bit digits, lowest first;
    the top digit keeps whatever width is left (23 bits: 5 x 4 + 3).
    """
    return -(-n_bits // DIGIT_BITS)


MERGE_DIGITS = 5   # most digits one group merges in a merge open
MERGE_RECORD = 62  # dealer words per merged group and 64 elements: 10 masks, 52 products


class LtCost(NamedTuple):
    """What one digit-table less-than over a batch consumes and sends."""

    bool_words: int  # merge-record words of the dealer's boolean stream
    open_words: int  # packed words of masked digit bits opened to merge
    gate_words: int  # packed words per gate input; the gate opens five
    rounds: int      # merge opens, then the gate's


def merge_groups(units: int) -> tuple:
    """Digit counts, lowest first, of the groups one merge open forms.

    At most three groups are left for the gate when ``units`` is at most
    15, and groups hold at most MERGE_DIGITS digits.  The lowest group is
    filled first: it opens no eq, and a group of one digit opens nothing,
    so this opens the fewest bits (6 digits: 4, 1, 1; 15 digits: 5, 5, 5).
    """
    groups = max(3, -(-units // MERGE_DIGITS))
    sizes = []
    for left in range(groups - 1, -1, -1):
        sizes.append(min(MERGE_DIGITS, units - sum(sizes) - left))
    return tuple(sizes)


def lt_cost(n_elems: int, n_bits: int) -> LtCost:
    """The one sizing of a digit-table less-than over n_elems elements.

    While more than three digit groups are left, one open merges them (see
    ``merge_groups``): each group of two or more digits takes one merge
    record per 64-element word and opens its masked lt and eq bits, 2k per
    k-digit group, less the lowest group's unread eq.  Then the gate
    closes the last three groups in one open.  So 4 to 15 digits take 2
    rounds and at most 3 digits take 1.  The plan, the dealer and the
    online engine all size from this function, so consumption always
    lands exactly.
    """
    words = -(-n_elems // 64)
    units, merged, opened, rounds = lt_digits(n_bits), 0, 0, 1
    while units > 3:
        sizes = merge_groups(units)
        for i, k in enumerate(sizes):
            if k > 1:
                merged += 1
                opened += 2 * k - (i == 0)
        units, rounds = len(sizes), rounds + 1
    return LtCost(MERGE_RECORD * words * merged, words * opened, words, rounds)


def _sign_batches(kind: str, attrs: dict, out_elems: int) -> list:
    """Elements per batch of sign tests in a relu or maxpool layer.

    A ReLU is one batch.  Maxpool compares one batch per level of its
    pairwise tree: the first half of the window positions against the
    second, an odd one carried over.
    """
    if kind == "relu":
        return [out_elems]
    batches, left = [], attrs["window"] ** 2
    while left > 1:
        batches.append(left // 2 * out_elems)
        left -= left // 2
    return batches


def footprint(kind: str, attrs: dict, out_shape: tuple, cfg: FixedPointConfig) -> dict:
    """Dealer material one layer consumes, from its kind, attributes and shape.

    Returns mults, trunc_elems, cmp_elems and bool_words, the merge-record
    words of the ``lt_cost`` of each comparison.  A truncated element
    takes two comparisons (borrow and wrap), a compared one a sign test;
    each comparison ends in a dealer gate that yields its bit as an
    additive share, and a compared element spends one auxiliary triple on
    its sign-bit product.  Comparisons are sized per batch so the packed
    word rounding matches the online consumption.  A batchnorm, left only
    in an unfolded graph, counts one secret scaling per element plus a
    truncation.
    """
    out_elems = math.prod(out_shape)
    mults = trunc = cmp = 0
    lts = []
    if kind == "conv2d":
        k = attrs["kernel"]
        per_pos = out_shape[0] * attrs["out_channels"] * (
            attrs["in_channels"] // attrs.get("groups", 1))
        if attrs.get("winograd"):
            mults = mult_counts(out_shape[2], k, attrs["tile"]).beta2 * per_pos
        else:
            mults = out_shape[2] * out_shape[3] * k * k * per_pos
        trunc = out_elems
    elif kind == "fully-connected":
        mults = out_shape[0] * attrs["in_features"] * attrs["out_features"]
        trunc = out_elems
    elif kind == "batchnorm":
        mults = trunc = out_elems
    elif kind in ("avgpool", "global-avgpool"):
        trunc = out_elems
    elif kind in ("relu", "maxpool"):
        batches = _sign_batches(kind, attrs, out_elems)
        cmp = sum(batches)
        lts = [lt_cost(m, cfg.bitwidth - 1) for m in batches]
    elif kind not in ("shuffle", "add", "concat"):
        raise ShapeError(f"cannot plan layer kind {kind!r}")
    if trunc:
        lts = [lt_cost(trunc, cfg.scale), lt_cost(trunc, cfg.bitwidth)]
    return {"mults": mults, "trunc_elems": trunc, "cmp_elems": cmp,
            "bool_words": sum(c.bool_words for c in lts)}


@dataclass
class PlanLayer:
    """One executable step plus its preprocessed-material footprint."""

    name: str
    kind: str
    inputs: list
    attrs: dict
    out_shape: tuple
    mults: int = 0
    trunc_elems: int = 0
    cmp_elems: int = 0
    bool_words: int = 0
    relu_sign: bool = False  # truncation also yields its sole reader ReLU's sign
    payload: dict = field(default_factory=dict)  # ring weights, party-0 side only


def schedule(graph: Graph) -> list:
    """The shape-only plan layers of a graph as it stands.

    Each layer gets its output shape and ``footprint``; nothing is folded
    and no weight is read, so an unfolded batchnorm is scheduled too.  An
    arithmetic shift keeps the sign, so a ReLU that alone reads a
    truncating layer takes its sign test from that layer's truncation
    (``relu_sign``).
    """
    shapes = infer_shapes(graph)
    layers = [PlanLayer(name=spec.name, kind=spec.kind, inputs=list(spec.inputs),
                        attrs=dict(spec.attrs), out_shape=shapes[spec.name],
                        **footprint(spec.kind, spec.attrs, shapes[spec.name],
                                    graph.cfg))
              for spec in graph.layers]
    readers = Counter(src for pl in layers for src in pl.inputs)
    truncating = {pl.name: pl for pl in layers if pl.trunc_elems}
    for pl in layers:
        src = truncating.get(pl.inputs[0]) if pl.kind == "relu" else None
        if src is not None and readers[src.name] == 1:
            src.relu_sign = True
    return layers


@dataclass
class PlanRequirements:
    """Dealer material totals for one plan."""

    mul_triples: int
    aux_triples: int
    trunc_units: int
    cmp_tuples: int
    bool_words: int


class FixedPlan:
    def __init__(self, cfg, input_shape, layers, output_name, graph_hash,
                 with_weights, input_bound):
        self.cfg = cfg
        self.input_shape = input_shape
        self.layers = layers
        self.output_name = output_name
        self.graph_hash = graph_hash
        self.with_weights = with_weights
        self.input_bound = input_bound

    def requirements(self) -> PlanRequirements:
        return PlanRequirements(
            mul_triples=sum(l.mults for l in self.layers),
            aux_triples=sum(l.cmp_elems for l in self.layers),
            trunc_units=sum(l.trunc_elems for l in self.layers),
            cmp_tuples=sum(l.cmp_elems for l in self.layers),
            bool_words=sum(l.bool_words for l in self.layers),
        )


def _abs_rowsum(w: np.ndarray) -> float:
    return float(np.abs(w).sum(axis=tuple(range(1, w.ndim))).max())


def _weight_bounds(folded: Graph) -> dict:
    """(largest absolute row sum, largest absolute bias) of each conv and fc."""
    bounds = {}
    for spec in folded.layers:
        w = folded.weights.get(f"{spec.name}.weight")
        if w is None or spec.kind not in ("conv2d", "fully-connected"):
            continue
        bias = folded.weights.get(f"{spec.name}.bias")
        bias_max = float(np.abs(bias).max()) if bias is not None else 0.0
        bounds[spec.name] = (_abs_rowsum(w), bias_max)
    return bounds


def _tolerated_ceiling(bounds: dict, cfg: FixedPointConfig) -> float:
    """Largest activation promise every accumulator in the graph can absorb."""
    budget = float(1 << (cfg.bitwidth - 1 - 2 * cfg.scale))
    ceiling = float("inf")
    for rowsum, bias_max in bounds.values():
        if rowsum > 0:
            ceiling = min(ceiling, 0.98 * (budget - bias_max) / rowsum)
    if ceiling < 1.0:
        raise FixedPointOverflowError(
            "weights leave no usable activation range at this scale; "
            "shrink the scale or the weights")
    return ceiling


def _check_headroom(pre_bound: float, cfg: FixedPointConfig, where: str) -> None:
    if pre_bound <= 0:
        return
    need = 2 * cfg.scale + math.log2(pre_bound)
    if need >= cfg.bitwidth - 1:
        raise FixedPointOverflowError(
            f"{where}: accumulator needs {need:.1f} bits, ring holds "
            f"{cfg.bitwidth - 1}; shrink the scale or the data range")


ACTIVATION_CEILING = 128.0
WINOGRAD_INPUT_BOUND = 8.0


def build_plan(graph: Graph, with_weights: bool = True) -> FixedPlan:
    """Compile a graph into a fixed-point plan.

    The layers are the ``schedule`` of the batchnorm-folded graph; this
    adds their encoded weights and scaling constants.

    The overflow guard is inductive: assuming every decoded activation
    stays within ``ACTIVATION_CEILING``, each multiplication-bearing layer
    is checked to fit its double-scale accumulator; the clear executor
    then re-verifies the ceiling on actual data after every layer, which
    certifies the bit-identical secure run as well.  (A closed-form
    worst-case interval would compound row sums exponentially and reject
    every deep network at any useful scale.)

    Wide layers can carry worst-case row sums no fixed promise satisfies,
    so the plan first lowers that ceiling to the largest value
    every accumulator tolerates (never below 1.0).  Random-seeded
    activations sit orders of magnitude below either figure; the runtime
    check is what makes the lowered promise trustworthy.

    Transform-tagged convolutions are guarded conservatively against the
    input transform's magnitude growth, under the tighter
    ``WINOGRAD_INPUT_BOUND`` promise that the executor enforces on the
    actual inputs of those layers.  Exactness does not strictly require
    the conservative form (the integer transforms are correct through
    wraparound; only the final accumulator must fit), but it keeps a
    stated safety margin on the interactive path.
    """
    g = fold_batchnorm(graph)
    layers = schedule(g)
    shapes = {INPUT: g.input_shape, **{pl.name: pl.out_shape for pl in layers}}
    cfg = g.cfg
    ceiling = ACTIVATION_CEILING
    bounds = {}
    if with_weights:
        bounds = _weight_bounds(g)
        ceiling = min(ceiling, _tolerated_ceiling(bounds, cfg))

    for pl in layers:
        if pl.kind in ("conv2d", "fully-connected"):
            w_real = g.weights.get(f"{pl.name}.weight") if with_weights else None
            bias_real = g.weights.get(f"{pl.name}.bias") if with_weights else None
            if pl.attrs.get("winograd"):
                basis = basis_for_tile(pl.attrs["tile"], pl.attrs["kernel"])
                pl.payload["basis"] = basis
                if w_real is not None:
                    u_real = transform_filter_real(w_real, basis)
                    winograd_guard(basis, u_real, pl.attrs.get("groups", 1),
                                   min(ceiling, WINOGRAD_INPUT_BOUND), cfg)
                    pl.payload["weight"] = encode_fixed(u_real, cfg)
            elif w_real is not None:
                pl.payload["weight"] = encode_fixed(w_real, cfg)
            if w_real is not None:
                rowsum, bias_max = bounds[pl.name]
                _check_headroom(ceiling * rowsum + bias_max, cfg, pl.name)
                if bias_real is not None:
                    pl.payload["bias_ring"] = _encode_double_scale(bias_real, cfg)

        elif pl.kind in ("avgpool", "global-avgpool"):
            if pl.kind == "avgpool":
                area = pl.attrs["window"] ** 2
            else:
                in_shape = shapes[pl.inputs[0]]
                area = in_shape[2] * in_shape[3]
            pl.payload["inv_area_ring"] = int(
                encode_fixed(np.array([1.0 / area]), cfg).words[0])
            _check_headroom(ceiling * 1.01, cfg, pl.name)

    return FixedPlan(cfg=cfg, input_shape=g.input_shape, layers=layers,
                     output_name=g.output_name, graph_hash=graph.structural_hash(),
                     with_weights=with_weights, input_bound=ceiling)


BEAVER_CHUNK = 1 << 22  # elements per opened Beaver batch; caps peak memory
SLICE = 1 << 16  # elements per step of a product's local work


def predict_ledger(layers: list, cfg: FixedPointConfig) -> dict:
    """(bytes sent, rounds) of every nonzero (layer, op) ledger row of a run
    of ``layers``, a plan's or a ``schedule``'s.

    Every layer row is a symmetric open, so both parties book the same.
    Per row:

      mul-open   16 B per multiplication, one round per BEAVER_CHUNK
      mask-open  8 B per masked element, one round per batch
      bool-open  8 B per opened merge word and 40 B per gate word, the
                 rounds of the widest comparison in the batch (``lt_cost``)
      aux-open   16 B per auxiliary triple, one round per BEAVER_CHUNK of
                 each sign-bit product

    A truncation is one batch.  A ReLU that alone reads a truncating layer
    (``relu_sign``) has its mask and comparison carried in that
    truncation's frames and books only its sign-bit product; any other
    ReLU, and each maxpool tree level, is one batch of comparisons.
    """
    sign_bits = cfg.bitwidth - 1
    rows = {}

    def book(layer, op, nbytes, rounds):
        if rounds:
            b, r = rows.get((layer, op), (0, 0))
            rows[layer, op] = (b + nbytes, r + rounds)

    def chunks(n):
        return -(-n // BEAVER_CHUNK)

    def compare(layer, n, widths):
        lts = [lt_cost(n, w) for w in widths]
        book(layer, "bool-open", sum(8 * c.open_words + 40 * c.gate_words for c in lts),
             max(c.rounds for c in lts))

    signed = {pl.name for pl in layers if pl.relu_sign}
    for pl in layers:
        book(pl.name, "mul-open", 16 * pl.mults, chunks(pl.mults))
        if pl.trunc_elems:
            n = pl.trunc_elems
            book(pl.name, "mask-open", 8 * n * (1 + pl.relu_sign), 1)
            compare(pl.name, n, (cfg.scale, cfg.bitwidth)
                    + ((sign_bits,) if pl.relu_sign else ()))
        if pl.kind == "relu" and pl.inputs[0] in signed:
            book(pl.name, "aux-open", 16 * pl.cmp_elems, chunks(pl.cmp_elems))
        elif pl.kind in ("relu", "maxpool"):
            for m in _sign_batches(pl.kind, pl.attrs, math.prod(pl.out_shape)):
                book(pl.name, "mask-open", 8 * m, 1)
                compare(pl.name, m, (sign_bits,))
                book(pl.name, "aux-open", 16 * m, chunks(m))
    return rows


def _encode_double_scale(values: np.ndarray, cfg: FixedPointConfig) -> RingTensor:
    """Encode at scale 2s for addition into pre-truncation accumulators."""
    wide = FixedPointConfig(bitwidth=cfg.bitwidth, scale=2 * cfg.scale) \
        if 2 * cfg.scale < cfg.bitwidth else None
    if wide is None:
        raise FixedPointOverflowError("scale too large to hold double-scale biases")
    t = encode_fixed(values, wide)
    return RingTensor(t.words, cfg.bitwidth)


# -- the plan walker ------------------------------------------------------------


def conv_patches(words: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """(N, C, H, W) words -> (N, C, OH, OW, k, k) sliding patches."""
    padded = np.pad(words, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def run_plan(plan: FixedPlan, x: np.ndarray, ops) -> dict:
    """Execute every plan layer on ring words; returns each layer's output by name.

    The input sits under ``INPUT``.  Every linear step (patches, sums,
    public scaling, permutes, adds, concats, and through
    ``winograd.transform_conv`` the integer transforms) is coded once and
    does the same ring work on clear residues and on one party's additive
    share.  ``ops`` supplies only what differs:

      mul_sum(x, y, axis, pl)  products of equal-shape words, summed over axis
      relu(x, pl)              max(signed(x), 0)
      truncate(x, pl)          arithmetic shift by the working scale
      add_bias(pre, b, pl)     add the layer's public double-scale bias
      note_local(pl, op)       mark a communication-free step
      weight(pl)               the layer's (possibly transformed) weights

    ``pl`` is the ``PlanLayer`` being run.  Conv and fc layers hand
    ``mul_sum`` one broadcast over all groups, so the secure backend opens
    one batch per layer; direct convs and fc layers sum over the last axis,
    transform convs over the in-channel axis.  Both backends add the
    products into the sums a slice at a time (``ProductSum``), so no
    layer's whole product array is ever held.  Maxpool folds window
    positions as b + relu(a - b), one ``relu`` call per level of a pairwise
    tree.  The walker carries only words; the engine keeps the sign shares
    of ``relu_sign`` layers itself.
    """
    mask = _U64(plan.cfg.mask)
    env = {INPUT: x}
    for pl in plan.layers:
        src = [env[s] for s in pl.inputs]
        if pl.kind in ("conv2d", "fully-connected"):
            w = ops.weight(pl)
            fc = pl.kind == "fully-connected"
            if fc:
                pre = _fc(src[0], w, pl, ops)
            elif pl.attrs.get("winograd"):
                pre = _conv_winograd(src[0], w, pl, ops, mask)
            else:
                pre = _conv_direct(src[0], w, pl, ops)
            if "bias_ring" in pl.payload:
                b = pl.payload["bias_ring"].words
                pre = ops.add_bias(pre, b.reshape((1, -1) if fc else (1, -1, 1, 1)), pl)
            out = ops.truncate(pre, pl)
        elif pl.kind in ("avgpool", "global-avgpool"):
            if pl.kind == "avgpool":
                win, stride = pl.attrs["window"], pl.attrs["stride"]
                acc = np.lib.stride_tricks.sliding_window_view(
                    src[0], (win, win), axis=(2, 3))[:, :, ::stride, ::stride]
                summed = acc.sum(axis=(-2, -1), dtype=_U64) & mask
            else:
                summed = src[0].sum(axis=(2, 3), keepdims=True, dtype=_U64) & mask
            ops.note_local(pl, "public-scale")
            pre = (summed * _U64(pl.payload["inv_area_ring"])) & mask
            out = ops.truncate(pre, pl)
        elif pl.kind == "relu":
            out = ops.relu(src[0], pl)
        elif pl.kind == "maxpool":
            out = _maxpool(src[0], pl, ops, mask)
        elif pl.kind == "shuffle":
            perm = np.asarray(pl.attrs["perm"], dtype=np.intp)
            ops.note_local(pl, "shuffle")
            out = np.ascontiguousarray(src[0][:, perm])
        elif pl.kind == "add":
            out = src[0]
            for t in src[1:]:
                out = (out + t) & mask
            ops.note_local(pl, "add")
        elif pl.kind == "concat":
            ops.note_local(pl, "concat")
            out = np.concatenate(src, axis=1)
        else:
            raise ShapeError(f"cannot execute layer kind {pl.kind!r}")
        env[pl.name] = out
    return env


def _conv_direct(x, w, pl: PlanLayer, ops) -> np.ndarray:
    k = pl.attrs["kernel"]
    stride = pl.attrs.get("stride", 1)
    padding = pl.attrs.get("padding", 0)
    groups = pl.attrs.get("groups", 1)
    nb = x.shape[0]
    patches = conv_patches(x, k, stride, padding)
    oh, ow = patches.shape[2], patches.shape[3]
    cpg_in = x.shape[1] // groups
    cpg_out = w.shape[0] // groups
    # (positions, groups, in-per-group * k * k): one batch for all groups.
    pg = np.ascontiguousarray(
        patches.reshape(nb, groups, cpg_in, oh, ow, k, k)
        .transpose(0, 3, 4, 1, 2, 5, 6)).reshape(nb * oh * ow, groups, -1)
    wg = w.reshape(groups, cpg_out, -1)
    x_exp = np.broadcast_to(pg[:, :, None, :],
                            (pg.shape[0], groups, cpg_out, pg.shape[2]))
    w_exp = np.broadcast_to(wg[None], x_exp.shape)
    acc = ops.mul_sum(x_exp, w_exp, -1, pl)
    return acc.reshape(nb, oh, ow, groups * cpg_out).transpose(0, 3, 1, 2)


def _conv_winograd(x, u, pl: PlanLayer, ops, mask) -> np.ndarray:
    ops.note_local(pl, "wg-input-transform")
    out = transform_conv(x, u, pl.payload["basis"], pl.attrs.get("padding", 0),
                         pl.attrs.get("groups", 1),
                         lambda a, b, axis: ops.mul_sum(a, b, axis, pl))
    ops.note_local(pl, "wg-output-transform")
    out &= mask
    return out


def _fc(x, w, pl: PlanLayer, ops) -> np.ndarray:
    flat = x.reshape(x.shape[0], -1)
    x_exp = np.broadcast_to(flat[:, None, :], (flat.shape[0], w.shape[0], flat.shape[1]))
    w_exp = np.broadcast_to(w[None], x_exp.shape)
    return ops.mul_sum(x_exp, w_exp, -1, pl)


def _maxpool(x, pl: PlanLayer, ops, mask) -> np.ndarray:
    win, stride = pl.attrs["window"], pl.attrs["stride"]
    if win == 1:
        ops.note_local(pl, "subsample")
        return np.ascontiguousarray(x[:, :, ::stride, ::stride])
    patches = np.lib.stride_tricks.sliding_window_view(
        x, (win, win), axis=(2, 3))[:, :, ::stride, ::stride]
    # (window position, N, C, OH, OW); each level pairs the first half of
    # the positions with the second, and an odd one carries over.
    level = np.ascontiguousarray(patches.transpose(4, 5, 0, 1, 2, 3)).reshape(
        (win * win,) + patches.shape[:4])
    while len(level) > 1:
        half = len(level) // 2
        a, b = level[:half], level[half:2 * half]
        rel = ops.relu((a - b) & mask, pl)
        level = np.concatenate([(b + rel) & mask, level[2 * half:]])
    return level[0]


# -- products summed over one axis ------------------------------------------------


def flat_blocks(shape: tuple, pos: int, m: int):
    """Leading-axis blocks of the flat elements [pos, pos + m) of ``shape``.

    Yields (index, start, stop): ``a[index]`` is a block of an array ``a``
    of that shape, and its elements are those at offsets [start, stop) from
    pos, in C order.  Whole rows form one block and a partial row at either
    end is split the same way one axis down, so a strided or broadcast view
    is read in place, in at most two blocks per axis and one in the middle.
    """
    row = math.prod(shape[1:])
    r, off = divmod(pos, row)
    head = min(-off % row, m)       # the end of a row already begun
    if head:
        for idx, s, t in flat_blocks(shape[1:], off, head):
            yield (r,) + idx, s, t
        r += 1
    rows, tail = divmod(m - head, row)
    if rows:
        yield (slice(r, r + rows),), head, head + rows * row
    if tail:
        for idx, s, t in flat_blocks(shape[1:], 0, tail):
            yield (r + rows,) + idx, m - tail + s, m - tail + t


def slice_steps(pos: int, m: int, group: int):
    """(start, stop) offsets from pos of ``SLICE``-element steps over [pos, pos + m).

    A step that is not the last ends on a multiple of ``group`` where a group
    fits in a slice, so it holds whole groups.
    """
    s = 0
    while s < m:
        t = min(m, s + SLICE)
        if t < m and group <= SLICE:
            t -= (pos + t) % group
        yield s, t
        s = t


class ProductSum:
    """The sums over one axis of an elementwise product, modulo 2^64.

    The product, of ``shape``, is (outer, rows, inner) around the summed
    axis, and a group is one outer index: rows x inner consecutive elements
    of its flat C order.  ``add`` takes any segment of that order, split by
    ``flat_blocks`` on (outer, rows, inner): its whole groups are summed in
    one reduction, and a partial group at either end piece by piece, as
    whole rows and a partial row.  ``slice_steps`` with ``group`` keeps the
    partial groups to chunk edges.  ``result`` reduces the sums modulo 2^l.
    """

    def __init__(self, shape: tuple, axis: int):
        axis %= len(shape)
        self.shape = shape[:axis] + shape[axis + 1:]
        self.dims = (math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:]))
        self.group = self.dims[1] * self.dims[2]
        self.acc = np.zeros((self.dims[0], self.dims[2]), _U64)

    def add(self, z: np.ndarray, p: int) -> None:
        """Add the product's flat elements [p, p + z.size), given as z."""
        for idx, i, j in flat_blocks(self.dims, p, z.size):
            k = idx[-1].stop - idx[-1].start
            blk = z[i:j].reshape((k,) + self.dims[len(idx):])
            if len(idx) < 3:            # whole groups or whole rows: sum the rows
                blk = blk.sum(axis=2 - len(idx))
            self.acc[idx[:1] + idx[2:]] += blk

    def result(self, mask) -> np.ndarray:
        self.acc &= mask
        return self.acc.reshape(self.shape)


# -- clear fixed-point execution ------------------------------------------------


def ring_relu(x: RingTensor) -> RingTensor:
    return RingTensor.from_signed(np.maximum(x.signed(), 0), x.bitwidth)


class ClearOps:
    """`run_plan` backend on plain residues: the bits secure runs must hit.

    A ReLU tests its own input's sign; the engine's fused ReLU is checked on it."""

    def __init__(self, cfg: FixedPointConfig):
        self.cfg = cfg
        self.mask = _U64(cfg.mask)

    def mul_sum(self, x, y, axis, pl):
        """The product sum, a slice of products at a time."""
        total = ProductSum(x.shape, axis)
        z = np.empty(min(x.size, SLICE), _U64)
        for s, t in slice_steps(0, x.size, total.group):
            for idx, i, j in flat_blocks(x.shape, s, t - s):
                blk = x[idx]
                np.multiply(blk, y[idx], out=z[i:j].reshape(blk.shape))
            total.add(z[:t - s], s)
        return total.result(self.mask)

    def relu(self, x, pl):
        return ring_relu(RingTensor(x, self.cfg.bitwidth)).words

    def truncate(self, x, pl):
        return truncate_signed(RingTensor(x, self.cfg.bitwidth), self.cfg.scale).words

    def add_bias(self, pre, b, pl):
        return (pre + b) & self.mask

    def note_local(self, pl, op):
        pass

    def weight(self, pl):
        return pl.payload["weight"].words


def _ceiling_check(words: np.ndarray, cfg: FixedPointConfig, ceiling: float,
                   where: str) -> None:
    limit = int(ceiling * (1 << cfg.scale))
    if words.size and int(np.abs(RingTensor(words, cfg.bitwidth).signed()).max()) > limit:
        raise FixedPointOverflowError(
            f"{where}: activation exceeds the promised ceiling {ceiling}; "
            f"the accumulator guard no longer covers downstream layers")


def execute_plan_clear(plan: FixedPlan, x: RingTensor,
                       check_ceiling: bool = True) -> RingTensor:
    """Reference fixed-point inference; the bit pattern secure runs must hit.

    Re-validates the activation ceiling on actual data after every layer,
    in plan order, completing the induction the plan-time accumulator
    guard started; the inputs of transform-tagged convolutions are held
    to the tighter ``WINOGRAD_INPUT_BOUND``.
    """
    if not plan.with_weights:
        raise ValueError("clear execution needs a plan built with weights")
    if x.shape != plan.input_shape:
        raise ShapeError(f"input shape {x.shape} != plan {plan.input_shape}")
    cfg = plan.cfg
    if check_ceiling:
        _ceiling_check(x.words, cfg, plan.input_bound, "input")
    env = run_plan(plan, x.words, ClearOps(cfg))
    if check_ceiling:
        for pl in plan.layers:
            if pl.attrs.get("winograd"):
                _ceiling_check(env[pl.inputs[0]], cfg, WINOGRAD_INPUT_BOUND,
                               f"{pl.name} (transform input)")
            _ceiling_check(env[pl.name], cfg, plan.input_bound, pl.name)
    return RingTensor(env[plan.output_name], cfg.bitwidth)
