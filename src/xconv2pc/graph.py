"""Network intermediate representation and operator cells.

A graph is a DAG of named layers over a single input, NCHW feature maps
throughout.  Layers reference producers by name; the reserved name
``input`` denotes the graph input, and ``session`` names a secure
session's own ledger rows and frames.  Construction keeps layers in
topological order, so interpreters and the secure engine can walk the
list directly.

Cells expand the four interchangeable convolution blocks (dense
bottleneck, factorized, half-shuffle, and the crossed parallel variant)
into primitive layers.  Channel splits are expressed by pairing pointwise
convolutions instead of slicing, which keeps every kind in the primitive
set and keeps multiplication counts identical to the sliced formulation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ShapeError
from .ring import FixedPointConfig

INPUT = "input"

KINDS = frozenset({
    "conv2d", "shuffle", "relu", "maxpool", "avgpool", "global-avgpool",
    "fully-connected", "add", "concat", "batchnorm",
})

BN_EPS = 1e-5


class CellVariant(Enum):
    DENSE = "dense"
    FACTORIZED = "factorized"
    SHUFFLE = "shuffle"
    XOP = "xop"

    @classmethod
    def parse(cls, text: str) -> "CellVariant":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown cell variant {text!r}; "
                             f"expected one of {[v.value for v in cls]}") from None


@dataclass
class LayerSpec:
    name: str
    kind: str
    inputs: list
    attrs: dict = field(default_factory=dict)


class Graph:
    """Immutable-by-convention DAG of layers plus real-valued weights."""

    def __init__(self, layers, input_shape, cfg: FixedPointConfig, weights=None):
        self.layers = list(layers)
        self.input_shape = tuple(int(v) for v in input_shape)
        self.cfg = cfg
        self.weights = dict(weights or {})
        self._check_structure()

    def _check_structure(self) -> None:
        seen = {INPUT}
        for layer in self.layers:
            if layer.kind not in KINDS:
                raise ShapeError(f"layer {layer.name!r}: unknown kind {layer.kind!r}")
            if layer.name in (INPUT, "session"):
                raise ShapeError(f"layer name {layer.name!r} is reserved")
            if layer.name in seen:
                raise ShapeError(f"duplicate layer name {layer.name!r}")
            for src in layer.inputs:
                if src not in seen:
                    raise ShapeError(
                        f"layer {layer.name!r} reads {src!r} before it is defined")
            seen.add(layer.name)
        consumed = {src for layer in self.layers for src in layer.inputs}
        outputs = [l.name for l in self.layers if l.name not in consumed]
        if len(outputs) != 1:
            raise ShapeError(f"graph must have exactly one output, found {outputs}")
        self.output_name = outputs[0]

    def architecture(self) -> dict:
        """The public architecture as a JSON document (weights excluded)."""
        return {
            "input_shape": list(self.input_shape),
            "fixedpoint": {"bitwidth": self.cfg.bitwidth, "scale": self.cfg.scale},
            "layers": [
                {"name": l.name, "kind": l.kind, "inputs": list(l.inputs),
                 "attrs": _jsonable(l.attrs)}
                for l in self.layers
            ],
        }

    def structural_hash(self) -> str:
        """Digest of the public architecture."""
        blob = json.dumps(self.architecture(), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


def _jsonable(attrs: dict) -> dict:
    out = {}
    for k, v in sorted(attrs.items()):
        if isinstance(v, np.ndarray):
            v = v.tolist()
        elif isinstance(v, (np.integer,)):
            v = int(v)
        elif isinstance(v, (np.floating,)):
            v = float(v)
        out[k] = v
    return out


# -- shape inference ----------------------------------------------------------


def _conv_out_hw(h, w, k, stride, padding):
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError("convolution output would be empty")
    return oh, ow


def _infer_layer_shape(layer: LayerSpec, in_shapes: list) -> tuple:
    kind = layer.kind
    if kind == "conv2d":
        (n, c, h, w), = in_shapes
        k = layer.attrs["kernel"]
        g = layer.attrs.get("groups", 1)
        c_in, c_out = layer.attrs["in_channels"], layer.attrs["out_channels"]
        if c != c_in:
            raise ShapeError(f"{layer.name}: expects {c_in} input channels, got {c}")
        if c_in % g or c_out % g:
            raise ShapeError(f"{layer.name}: groups {g} must divide channels "
                             f"({c_in} -> {c_out})")
        oh, ow = _conv_out_hw(h, w, k, layer.attrs.get("stride", 1),
                              layer.attrs.get("padding", 0))
        return (n, c_out, oh, ow)
    if kind == "shuffle":
        (shape,) = in_shapes
        perm = layer.attrs["perm"]
        if len(perm) != shape[1]:
            raise ShapeError(f"{layer.name}: permutation length {len(perm)} "
                             f"!= channel count {shape[1]}")
        if sorted(perm) != list(range(shape[1])):
            raise ShapeError(f"{layer.name}: permutation is not a bijection")
        return shape
    if kind in ("relu", "batchnorm"):
        (shape,) = in_shapes
        if kind == "batchnorm" and layer.attrs["channels"] != shape[1]:
            raise ShapeError(f"{layer.name}: normalizes {layer.attrs['channels']} "
                             f"channels, input has {shape[1]}")
        return shape
    if kind in ("maxpool", "avgpool"):
        (n, c, h, w), = in_shapes
        win, stride = layer.attrs["window"], layer.attrs["stride"]
        if h < win or w < win:
            raise ShapeError(f"{layer.name}: window {win} larger than map {h}x{w}")
        return (n, c, (h - win) // stride + 1, (w - win) // stride + 1)
    if kind == "global-avgpool":
        (n, c, h, w), = in_shapes
        return (n, c, 1, 1)
    if kind == "fully-connected":
        (shape,) = in_shapes
        flat = int(np.prod(shape[1:]))
        if flat != layer.attrs["in_features"]:
            raise ShapeError(f"{layer.name}: expects {layer.attrs['in_features']} "
                             f"features, got {flat}")
        return (shape[0], layer.attrs["out_features"])
    if kind == "add":
        first = in_shapes[0]
        for s in in_shapes[1:]:
            if s != first:
                raise ShapeError(f"{layer.name}: addend shapes differ: {in_shapes}")
        return first
    if kind == "concat":
        first = in_shapes[0]
        channels = 0
        for s in in_shapes:
            if (s[0],) + s[2:] != (first[0],) + first[2:]:
                raise ShapeError(f"{layer.name}: concat shapes differ off-channel: "
                                 f"{in_shapes}")
            channels += s[1]
        return (first[0], channels) + first[2:]
    raise ShapeError(f"{layer.name}: unknown kind {kind!r}")


def infer_shapes(graph: Graph) -> dict:
    """Name -> shape for every layer; raises ShapeError naming the layer."""
    shapes = {INPUT: graph.input_shape}
    for layer in graph.layers:
        shapes[layer.name] = _infer_layer_shape(
            layer, [shapes[s] for s in layer.inputs])
    return shapes


# -- channel shuffle -----------------------------------------------------------


def channel_shuffle(x: np.ndarray, perm) -> np.ndarray:
    """Output channel c takes input channel perm[c]; zero multiplications."""
    perm = np.asarray(perm, dtype=np.intp)
    if sorted(perm.tolist()) != list(range(x.shape[1])):
        raise ShapeError("shuffle permutation is not a bijection on channels")
    return x[:, perm]


# -- builder -------------------------------------------------------------------


class GraphBuilder:
    """Incremental constructor that also initializes weights from one seed."""

    def __init__(self, input_shape, cfg: FixedPointConfig = None, seed: int = 0):
        self.input_shape = tuple(input_shape)
        self.cfg = cfg or FixedPointConfig()
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.layers = []
        self.weights = {}

    def _register(self, layer: LayerSpec) -> str:
        self.layers.append(layer)
        return layer.name

    def conv(self, name, src, c_in, c_out, kernel, stride=1, padding=None,
             groups=1, bias=True) -> str:
        if padding is None:
            padding = kernel // 2
        fan_in = kernel * kernel * (c_in // groups)
        bound = 1.0 / np.sqrt(fan_in)
        self.weights[f"{name}.weight"] = self.rng.uniform(
            -bound, bound, size=(c_out, c_in // groups, kernel, kernel))
        if bias:
            self.weights[f"{name}.bias"] = self.rng.uniform(-bound, bound, size=(c_out,))
        return self._register(LayerSpec(name, "conv2d", [src], {
            "kernel": kernel, "stride": stride, "padding": padding, "groups": groups,
            "in_channels": c_in, "out_channels": c_out, "bias": bias,
            "winograd": False, "tile": None,
        }))

    def relu(self, name, src) -> str:
        return self._register(LayerSpec(name, "relu", [src]))

    def maxpool(self, name, src, window, stride) -> str:
        return self._register(LayerSpec(name, "maxpool", [src],
                                        {"window": window, "stride": stride}))

    def avgpool(self, name, src, window, stride) -> str:
        return self._register(LayerSpec(name, "avgpool", [src],
                                        {"window": window, "stride": stride}))

    def global_avgpool(self, name, src) -> str:
        return self._register(LayerSpec(name, "global-avgpool", [src]))

    def fc(self, name, src, in_features, out_features) -> str:
        bound = 1.0 / np.sqrt(in_features)
        self.weights[f"{name}.weight"] = self.rng.uniform(
            -bound, bound, size=(out_features, in_features))
        self.weights[f"{name}.bias"] = self.rng.uniform(-bound, bound, size=(out_features,))
        return self._register(LayerSpec(name, "fully-connected", [src], {
            "in_features": in_features, "out_features": out_features, "bias": True,
        }))

    def add(self, name, *srcs) -> str:
        return self._register(LayerSpec(name, "add", list(srcs)))

    def concat(self, name, *srcs) -> str:
        return self._register(LayerSpec(name, "concat", list(srcs)))

    def batchnorm(self, name, src, channels) -> str:
        self.weights[f"{name}.gamma"] = self.rng.uniform(0.5, 1.5, size=(channels,))
        self.weights[f"{name}.beta"] = self.rng.uniform(-0.2, 0.2, size=(channels,))
        self.weights[f"{name}.mean"] = self.rng.uniform(-0.2, 0.2, size=(channels,))
        self.weights[f"{name}.var"] = self.rng.uniform(0.5, 1.5, size=(channels,))
        return self._register(LayerSpec(name, "batchnorm", [src], {"channels": channels}))

    def shuffle(self, name, src, channels) -> str:
        perm = self.rng.permutation(channels).tolist()
        return self._register(LayerSpec(name, "shuffle", [src], {"perm": perm}))

    def build(self) -> Graph:
        return Graph(self.layers, self.input_shape, self.cfg, weights=self.weights)

    # -- cells -----------------------------------------------------------

    def expand_cell(self, variant: CellVariant, src: str, c_in: int, c_mid: int,
                    c_out: int, kernel: int = 3, stride: int = 1,
                    prefix: str = "cell") -> str:
        """Expand one interchangeable convolution cell; returns the output name.

        Every variant maps the same (c_in, H, W) -> (c_out, H/stride, W/stride)
        signature, so variants are drop-in replacements for each other.
        """
        if variant in (CellVariant.SHUFFLE, CellVariant.XOP) and (
                c_in % 2 or c_mid % 2 or c_out % 2):
            raise ShapeError(f"{prefix}: grouped/shuffled cells need even channel "
                             f"counts, got {c_in}/{c_mid}/{c_out}")
        p = prefix
        if variant is CellVariant.DENSE:
            a = self.conv(f"{p}_pw1", src, c_in, c_mid, 1, padding=0)
            b = self.conv(f"{p}_dense", a, c_mid, c_mid, kernel, stride=stride)
            return self.conv(f"{p}_pw2", b, c_mid, c_out, 1, padding=0)
        if variant is CellVariant.FACTORIZED:
            a = self.conv(f"{p}_pw1", src, c_in, c_mid, 1, padding=0)
            b = self.conv(f"{p}_dw", a, c_mid, c_mid, kernel, stride=stride,
                          groups=c_mid)
            return self.conv(f"{p}_pw2", b, c_mid, c_out, 1, padding=0)
        if variant is CellVariant.SHUFFLE:
            half = c_mid // 2
            # Split-transform-concat: the leading pointwise is realized as two
            # half-width pointwise convolutions (same multiplication count as
            # one full-width), one feeding the per-channel convolution and one
            # feeding the free permutation.
            a1 = self.conv(f"{p}_pw1a", src, c_in, half, 1, padding=0)
            a2 = self.conv(f"{p}_pw1b", src, c_in, half, 1, padding=0)
            b1 = self.conv(f"{p}_dw", a1, half, half, kernel, stride=stride,
                           groups=half)
            b2 = self.shuffle(f"{p}_perm", a2, half)
            if stride > 1:
                b2 = self.maxpool(f"{p}_sub", b2, 1, stride)
            cat = self.concat(f"{p}_cat", b1, b2)
            return self.conv(f"{p}_pw2", cat, c_mid, c_out, 1, padding=0)
        if variant is CellVariant.XOP:
            a = self.conv(f"{p}_gpw1", src, c_in, c_mid, 1, padding=0, groups=2)
            b1 = self.conv(f"{p}_dw", a, c_mid, c_mid, kernel, stride=stride,
                           groups=c_mid)
            b2 = self.shuffle(f"{p}_perm", a, c_mid)
            if stride > 1:
                b2 = self.maxpool(f"{p}_sub", b2, 1, stride)
            joined = self.add(f"{p}_join", b1, b2)
            return self.conv(f"{p}_gpw2", joined, c_mid, c_out, 1, padding=0, groups=2)
        raise ValueError(f"unknown variant {variant}")


def cell_graph(variant: CellVariant, c_in: int, c_mid: int, c_out: int,
               hw: int, seed: int = 0) -> Graph:
    """A standalone stride-1 cell graph, handy for benches and equivalence runs."""
    b = GraphBuilder((1, c_in, hw, hw), seed=seed)
    b.expand_cell(variant, INPUT, c_in, c_mid, c_out)
    return b.build()


# -- batchnorm folding ----------------------------------------------------------


def fold_batchnorm(graph: Graph) -> Graph:
    """Fold inference-time normalization into the preceding conv or fc.

    Scales weights by gamma/sqrt(var+eps) per channel and absorbs the shift
    into the bias, all in the real domain before any encoding.  Calling it
    on a normalization-free graph returns an equivalent copy (idempotent).
    """
    bn_layers = [l for l in graph.layers if l.kind == "batchnorm"]
    by_name = {l.name: l for l in graph.layers}
    consumers = {}
    for l in graph.layers:
        for src in l.inputs:
            consumers.setdefault(src, []).append(l.name)

    weights = dict(graph.weights)
    rename = {}
    for bn in bn_layers:
        src = bn.inputs[0]
        prod = by_name.get(src)
        if prod is None or prod.kind not in ("conv2d", "fully-connected"):
            raise ShapeError(f"batchnorm {bn.name!r} does not follow a conv or "
                             f"fully-connected layer")
        if consumers.get(src, []) != [bn.name]:
            raise ShapeError(f"batchnorm {bn.name!r}: producer {src!r} has other "
                             f"consumers; cannot fold")
        gamma = weights.pop(f"{bn.name}.gamma")
        beta = weights.pop(f"{bn.name}.beta")
        mean = weights.pop(f"{bn.name}.mean")
        var = weights.pop(f"{bn.name}.var")
        scale = gamma / np.sqrt(var + BN_EPS)
        w = weights[f"{src}.weight"]
        weights[f"{src}.weight"] = w * scale.reshape((-1,) + (1,) * (w.ndim - 1))
        old_bias = weights.get(f"{src}.bias", np.zeros(w.shape[0]))
        weights[f"{src}.bias"] = (old_bias - mean) * scale + beta
        rename[bn.name] = src

    new_layers = []
    for l in graph.layers:
        if l.name in rename:
            continue
        inputs = [rename.get(s, s) for s in l.inputs]
        attrs = dict(l.attrs)
        if l.kind in ("conv2d", "fully-connected"):
            attrs["bias"] = True if f"{l.name}.bias" in weights else attrs.get("bias", False)
        new_layers.append(LayerSpec(l.name, l.kind, inputs, attrs))
    return Graph(new_layers, graph.input_shape, graph.cfg, weights)
