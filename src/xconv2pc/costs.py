"""Multiplication counting and communication estimation.

Secret-by-secret ring multiplications are the unit that costs online
traffic; everything data-independent (adds, permutes, public scaling, the
integer transform steps of tagged convolutions) counts zero.  Byte
estimates multiply the counts by per-category constants from a profile;
the default arithmetic constant is 1.2 KB per multiplication, and the
nonlinear constants default to values measured from this package's own
engine (see :func:`calibrate_profile`), so they describe this engine, not
any other stack.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .graph import CellVariant, Graph, infer_shapes
from .winograd import mult_counts

CONV = "conv"
OTHER_LINEAR = "other-linear"
NONLINEAR = "nonlinear"


@dataclass(frozen=True)
class CostProfile:
    """Per-operation byte constants for analytic communication estimates.

    The multiplication constant is the published 1.2 KB per-operation
    figure for the protocol stack being modeled; the nonlinear constants
    default to this package's own engine as measured by
    :func:`calibrate_profile` (46 B per activation element, 47.75 B per
    truncated element, both with the digit-table comparisons) and are
    engine-specific, not claims about any other stack.
    """

    bytes_per_mult: float = 1228.8  # 1.2 KB per secret multiplication
    bytes_per_relu_element: float = 46.0
    bytes_per_comparison: float = 46.0
    bytes_per_truncation_element: float = 47.75
    name: str = "default"

    def __post_init__(self):
        for f in ("bytes_per_mult", "bytes_per_relu_element",
                  "bytes_per_comparison", "bytes_per_truncation_element"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be nonnegative")


@dataclass
class LayerCostReport:
    layer: str
    kind: str
    category: str
    mults: int
    est_bytes: float
    meas_bytes: float = None
    extra: dict = field(default_factory=dict)


def _conv_mults(attrs: dict, out_shape: tuple) -> int:
    k = attrs["kernel"]
    groups = attrs.get("groups", 1)
    per_pos = attrs["in_channels"] // groups
    n, c_out, oh, ow = out_shape
    if attrs.get("winograd"):
        counts = mult_counts(oh, k, attrs["tile"])
        return counts.beta2 * c_out * per_pos * n
    return n * oh * ow * c_out * k * k * per_pos


def layer_mults(layer, out_shape, in_shapes) -> tuple:
    """(multiplications, category) for one layer."""
    kind = layer.kind
    if kind == "conv2d":
        return _conv_mults(layer.attrs, out_shape), CONV
    if kind == "fully-connected":
        return out_shape[0] * layer.attrs["in_features"] * layer.attrs["out_features"], \
            OTHER_LINEAR
    if kind == "batchnorm":
        # One secret scaling per element when executed unfolded.
        return int(np.prod(in_shapes[0])), OTHER_LINEAR
    if kind in ("relu", "maxpool"):
        return 0, NONLINEAR
    # shuffle, add, concat, avgpool, global-avgpool: no secret multiplications
    return 0, OTHER_LINEAR


def count_mults(graph: Graph) -> dict:
    """Exact per-layer secret-multiplication counts, keyed by layer name."""
    shapes = infer_shapes(graph)
    out = {}
    for layer in graph.layers:
        m, _ = layer_mults(layer, shapes[layer.name],
                           [shapes[s] for s in layer.inputs])
        out[layer.name] = m
    return out


def _nonlinear_elems(layer, out_shape) -> tuple:
    """(relu elements, comparisons, truncated elements) for byte estimates."""
    kind = layer.kind
    out_elems = int(np.prod(out_shape))
    if kind == "relu":
        return out_elems, 0, 0
    if kind == "maxpool":
        win = layer.attrs["window"]
        return 0, out_elems * (win * win - 1), 0
    if kind in ("conv2d", "fully-connected", "avgpool", "global-avgpool", "batchnorm"):
        return 0, 0, out_elems
    return 0, 0, 0


@dataclass
class CommEstimate:
    reports: list
    totals: dict          # category -> bytes
    total_bytes: float
    total_mults: int

    @property
    def linear_bytes(self) -> float:
        return self.totals[CONV] + self.totals[OTHER_LINEAR]

    def split_percentages(self) -> dict:
        """Linear/nonlinear and conv/other-linear byte shares."""
        total = self.total_bytes or 1.0
        linear = self.linear_bytes
        return {
            "linear_pct": 100.0 * linear / total,
            "nonlinear_pct": 100.0 * self.totals[NONLINEAR] / total,
            "conv_pct_of_total": 100.0 * self.totals[CONV] / total,
            "conv_pct_of_linear": 100.0 * self.totals[CONV] / (linear or 1.0),
        }


def estimate_comm(graph: Graph, profile: CostProfile = None) -> CommEstimate:
    """Analytic per-layer byte estimate under a cost profile."""
    profile = profile or CostProfile()
    shapes = infer_shapes(graph)
    reports = []
    totals = {CONV: 0.0, OTHER_LINEAR: 0.0, NONLINEAR: 0.0}
    total_mults = 0
    for layer in graph.layers:
        out_shape = shapes[layer.name]
        mults, category = layer_mults(layer, out_shape,
                                      [shapes[s] for s in layer.inputs])
        relu_e, cmp_e, trunc_e = _nonlinear_elems(layer, out_shape)
        nonlinear_part = (relu_e * profile.bytes_per_relu_element
                          + cmp_e * profile.bytes_per_comparison)
        linear_part = (mults * profile.bytes_per_mult
                       + trunc_e * profile.bytes_per_truncation_element)
        est = linear_part + nonlinear_part
        totals[NONLINEAR] += nonlinear_part
        if category != NONLINEAR:
            totals[category] += linear_part
        total_mults += mults
        reports.append(LayerCostReport(
            layer=layer.name, kind=layer.kind, category=category,
            mults=mults, est_bytes=est,
            extra={"relu_elems": relu_e, "comparisons": cmp_e,
                   "trunc_elems": trunc_e}))
    return CommEstimate(reports=reports, totals=totals,
                        total_bytes=sum(totals.values()), total_mults=total_mults)


def mult_split(graph: Graph) -> dict:
    """Multiplication totals by category plus conv share of linear."""
    shapes = infer_shapes(graph)
    by_cat = {CONV: 0, OTHER_LINEAR: 0, NONLINEAR: 0}
    for layer in graph.layers:
        m, cat = layer_mults(layer, shapes[layer.name],
                             [shapes[s] for s in layer.inputs])
        by_cat[cat] += m
    linear = by_cat[CONV] + by_cat[OTHER_LINEAR]
    return {
        "conv": by_cat[CONV],
        "other_linear": by_cat[OTHER_LINEAR],
        "total": linear,
        "conv_pct_of_linear": 100.0 * by_cat[CONV] / (linear or 1),
    }


# -- variant comparison tables ----------------------------------------------------

_BACKBONE_CODE = {
    "densenet121": "D", "resnet50": "R", "resnet18": "R'",
    "mobilenetv3l": "M", "shufflenetv2": "S", "toynet": "T",
}
_VARIANT_CODE = {
    CellVariant.DENSE: "D", CellVariant.FACTORIZED: "F",
    CellVariant.SHUFFLE: "S", CellVariant.XOP: "X",
}


def mnemonic(backbone: str, variant: CellVariant, winograd: bool) -> str:
    return _BACKBONE_CODE[backbone] + _VARIANT_CODE[variant] + ("W" if winograd else "")


@dataclass
class VariantRow:
    mnemonic: str
    backbone: str
    variant: str
    winograd: bool
    mults: int
    est_bytes: float
    reduction_vs_baseline: float


def compare_variants(pairs, profile: CostProfile = None, input_size: int = 320,
                     baseline: str = "DD", seed: int = 0,
                     graph_hook=None) -> list:
    """Cost table over (backbone, variant, winograd) triples.

    ``graph_hook`` post-processes each built graph (the compiler pass goes
    here when the winograd flag is set).  Reduction factors are relative
    to the row whose mnemonic equals ``baseline``.
    """
    from .zoo import model_zoo

    profile = profile or CostProfile()
    rows = []
    for backbone, variant, wino in pairs:
        if isinstance(variant, str):
            variant = CellVariant.parse(variant)
        graph = model_zoo(backbone, variant, input_size=input_size, seed=seed)
        if wino:
            if graph_hook is None:
                raise ValueError("winograd rows need a graph_hook that rewrites")
            graph = graph_hook(graph)
        est = estimate_comm(graph, profile)
        rows.append(VariantRow(
            mnemonic=mnemonic(backbone, variant, wino), backbone=backbone,
            variant=variant.value, winograd=wino, mults=est.total_mults,
            est_bytes=est.total_bytes, reduction_vs_baseline=0.0))
    base = next((r for r in rows if r.mnemonic == baseline), rows[0])
    for r in rows:
        r.reduction_vs_baseline = base.est_bytes / r.est_bytes if r.est_bytes else 0.0
    return rows


# -- report emission ----------------------------------------------------------------

_CSV_COLUMNS = ("layer", "kind", "mults", "est_bytes", "meas_bytes", "category")


def merge_measured(reports: list, ledger_bytes: dict) -> list:
    """Attach measured per-layer bytes (from a session ledger) by layer name."""
    for r in reports:
        if r.layer in ledger_bytes:
            r.meas_bytes = float(ledger_bytes[r.layer])
    return reports


def emit_report(reports: list, fmt: str = "csv", path=None) -> str:
    """Serialize layer cost reports losslessly as CSV or JSON."""
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(_CSV_COLUMNS)
        for r in reports:
            w.writerow([r.layer, r.kind, r.mults, repr(r.est_bytes),
                        "" if r.meas_bytes is None else repr(r.meas_bytes),
                        r.category])
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps([{
            "layer": r.layer, "kind": r.kind, "mults": r.mults,
            "est_bytes": r.est_bytes, "meas_bytes": r.meas_bytes,
            "category": r.category, **r.extra,
        } for r in reports], indent=2)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text


def load_report_json(text: str) -> list:
    rows = json.loads(text)
    out = []
    for row in rows:
        extra = {k: v for k, v in row.items() if k not in
                 ("layer", "kind", "mults", "est_bytes", "meas_bytes", "category")}
        out.append(LayerCostReport(
            layer=row["layer"], kind=row["kind"], category=row["category"],
            mults=row["mults"], est_bytes=row["est_bytes"],
            meas_bytes=row.get("meas_bytes"), extra=extra))
    return out


def calibrate_profile(name: str = "measured") -> CostProfile:
    """Measure this engine's nonlinear per-element byte costs on a tiny run.

    Runs single-layer graphs through the in-process secure engine and
    divides ledger payload bytes by element counts.  The multiplication
    constant stays at the published 1.2 KB figure; only the
    engine-specific nonlinear constants are replaced.
    """
    from .runtime.session import measure_op_bytes

    relu_b = measure_op_bytes("relu")
    trunc_b = measure_op_bytes("truncate")
    return CostProfile(bytes_per_relu_element=relu_b,
                       bytes_per_comparison=relu_b,
                       bytes_per_truncation_element=trunc_b,
                       name=name)
