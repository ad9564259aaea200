"""Multiplication counting and communication estimation.

Secret-by-secret ring multiplications are the unit that costs online
traffic; everything data-independent (adds, permutes, public scaling, the
integer transform steps of tagged convolutions) counts zero.  Every count
comes from ``plan.schedule``, the schedule the plan is built from,
applied to the graph as it stands (so an unfolded batchnorm is charged
too).  A layer's byte estimate (``est_bytes``) is its multiplications at
the modeled stack's 1228.8 B each, plus the bytes ``plan.predict_ledger``
books for it other than its multiplication opens.  Those are booked on the
rows the plan's exact prediction (``pred_bytes``) and a session ledger's
measurement (``meas_bytes``) book them on: a fused ReLU's comparison
under the truncating layer that sends it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .graph import CellVariant, Graph
from .plan import build_plan, predict_ledger, schedule

CONV = "conv"
OTHER_LINEAR = "other-linear"
NONLINEAR = "nonlinear"

# The published 1.2 KB per secret multiplication of the modeled stack.
BYTES_PER_MULT = 1228.8


@dataclass
class LayerCostReport:
    layer: str
    kind: str
    category: str
    mults: int
    est_bytes: float
    meas_bytes: float = None
    pred_bytes: int = None
    extra: dict = field(default_factory=dict)


def _category(kind: str) -> str:
    if kind == "conv2d":
        return CONV
    return NONLINEAR if kind in ("relu", "maxpool") else OTHER_LINEAR


def count_mults(graph: Graph) -> dict:
    """Exact per-layer secret-multiplication counts, keyed by layer name."""
    return {pl.name: pl.mults for pl in schedule(graph)}


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


def estimate_comm(graph: Graph) -> CommEstimate:
    """Per-layer byte estimate: modeled multiplications plus engine bytes.

    Each layer is charged ``BYTES_PER_MULT`` per multiplication, plus the
    bytes its ``predict_ledger`` rows other than mul-open send: exactly
    what this engine sends for its truncations and comparisons, on the
    rows a session ledger books them.
    """
    layers = schedule(graph)
    engine_bytes = dict.fromkeys((pl.name for pl in layers), 0)
    for (layer, op), (nbytes, _) in predict_ledger(layers, graph.cfg).items():
        if op != "mul-open":
            engine_bytes[layer] += nbytes
    reports = []
    totals = {CONV: 0.0, OTHER_LINEAR: 0.0, NONLINEAR: 0.0}
    for pl in layers:
        est = pl.mults * BYTES_PER_MULT + engine_bytes[pl.name]
        category = _category(pl.kind)
        totals[category] += est
        reports.append(LayerCostReport(
            layer=pl.name, kind=pl.kind, category=category, mults=pl.mults,
            est_bytes=est, extra={"trunc_elems": pl.trunc_elems,
                                  "cmp_elems": pl.cmp_elems,
                                  "bool_words": pl.bool_words}))
    return CommEstimate(reports=reports, totals=totals,
                        total_bytes=sum(totals.values()),
                        total_mults=sum(r.mults for r in reports))


def mult_split(graph: Graph) -> dict:
    """Multiplication totals by category plus conv share of linear."""
    by_cat = {CONV: 0, OTHER_LINEAR: 0, NONLINEAR: 0}
    for pl in schedule(graph):
        by_cat[_category(pl.kind)] += pl.mults
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
    mults: int
    est_bytes: float
    reduction_vs_baseline: float


def compare_variants(pairs, input_size: int = 320, baseline: str = "DD",
                     seed: int = 0, graph_hook=None) -> list:
    """Cost table over (backbone, variant, winograd) triples.

    ``graph_hook`` post-processes each built graph (the compiler pass goes
    here when the winograd flag is set).  Reduction factors are relative
    to the row whose mnemonic equals ``baseline``.
    """
    from .zoo import model_zoo

    rows = []
    for backbone, variant, wino in pairs:
        if isinstance(variant, str):
            variant = CellVariant.parse(variant)
        graph = model_zoo(backbone, variant, input_size=input_size, seed=seed)
        if wino:
            if graph_hook is None:
                raise ValueError("winograd rows need a graph_hook that rewrites")
            graph = graph_hook(graph)
        est = estimate_comm(graph)
        rows.append(VariantRow(
            mnemonic=mnemonic(backbone, variant, wino), mults=est.total_mults,
            est_bytes=est.total_bytes, reduction_vs_baseline=0.0))
    base = next((r for r in rows if r.mnemonic == baseline), rows[0])
    for r in rows:
        r.reduction_vs_baseline = base.est_bytes / r.est_bytes if r.est_bytes else 0.0
    return rows


# -- report emission ----------------------------------------------------------------

_CSV_COLUMNS = ("layer", "kind", "mults", "est_bytes", "meas_bytes", "category",
                "pred_bytes")


def merge_measured(reports: list, ledger_bytes: dict) -> list:
    """Attach measured per-layer bytes (from a session ledger) by layer name."""
    for r in reports:
        if r.layer in ledger_bytes:
            r.meas_bytes = float(ledger_bytes[r.layer])
    return reports


def merge_predicted(reports: list, graph: Graph) -> list:
    """Attach each plan layer's predicted ledger bytes, summed over its ops.

    A fused ReLU's mask, comparison and conversion bytes stay with the
    truncating layer that sends them, as in the ledger.  Batchnorms folded
    away by the plan get none.
    """
    plan = build_plan(graph, with_weights=False)
    pred = dict.fromkeys((pl.name for pl in plan.layers), 0)
    for (layer, _), (nbytes, _) in predict_ledger(plan.layers, plan.cfg).items():
        pred[layer] += nbytes
    for r in reports:
        r.pred_bytes = pred.get(r.layer)
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
                        r.category, "" if r.pred_bytes is None else r.pred_bytes])
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps([{
            "layer": r.layer, "kind": r.kind, "mults": r.mults,
            "est_bytes": r.est_bytes, "meas_bytes": r.meas_bytes,
            "category": r.category, "pred_bytes": r.pred_bytes, **r.extra,
        } for r in reports], indent=2)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text
