"""Clear-text reference interpreters.

Float mode is plain float64 inference over the graph as written,
normalization included; a transform-tagged convolution runs
``winograd.transform_conv``, the kernel the plan walker runs on ring words,
with real filters and products.  Fixed mode compiles the graph to a plan
and runs it on ring residues; its output is the bit pattern the secure
engine must reproduce exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .graph import BN_EPS, Graph, INPUT, channel_shuffle, infer_shapes
from .plan import build_plan, conv_patches, execute_plan_clear
from .ring import RingTensor, encode_fixed
from .winograd import basis_for_tile, transform_conv, transform_filter_real


def _float_conv(x, w, b, attrs):
    stride = attrs.get("stride", 1)
    padding = attrs.get("padding", 0)
    groups = attrs.get("groups", 1)
    if attrs.get("winograd"):
        basis = basis_for_tile(attrs["tile"], attrs["kernel"])
        out = transform_conv(x, transform_filter_real(w, basis), basis, padding,
                             groups, lambda a, b, axis: np.multiply(a, b).sum(axis=axis))
    else:
        patches = conv_patches(x, attrs["kernel"], stride, padding)
        perg_in = x.shape[1] // groups
        perg_out = w.shape[0] // groups
        outs = []
        for g in range(groups):
            pg = patches[:, g * perg_in:(g + 1) * perg_in]
            wg = w[g * perg_out:(g + 1) * perg_out]
            outs.append(np.einsum("nchwkl,ockl->nohw", pg, wg))
        out = np.concatenate(outs, axis=1)
    if b is not None:
        out = out + b.reshape(1, -1, 1, 1)
    return out


def infer_float(graph: Graph, x: np.ndarray) -> np.ndarray:
    """Standard real-arithmetic inference over the graph."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != graph.input_shape:
        raise ShapeError(f"input shape {x.shape} != graph {graph.input_shape}")
    infer_shapes(graph)  # raises on inconsistency up front
    env = {INPUT: x}
    w = graph.weights
    for layer in graph.layers:
        src = [env[s] for s in layer.inputs]
        kind = layer.kind
        if kind == "conv2d":
            env[layer.name] = _float_conv(
                src[0], w[f"{layer.name}.weight"], w.get(f"{layer.name}.bias"),
                layer.attrs)
        elif kind == "fully-connected":
            flat = src[0].reshape(src[0].shape[0], -1)
            out = flat @ w[f"{layer.name}.weight"].T
            if f"{layer.name}.bias" in w:
                out = out + w[f"{layer.name}.bias"]
            env[layer.name] = out
        elif kind == "batchnorm":
            gamma = w[f"{layer.name}.gamma"].reshape(1, -1, 1, 1)
            beta = w[f"{layer.name}.beta"].reshape(1, -1, 1, 1)
            mean = w[f"{layer.name}.mean"].reshape(1, -1, 1, 1)
            var = w[f"{layer.name}.var"].reshape(1, -1, 1, 1)
            env[layer.name] = (src[0] - mean) / np.sqrt(var + BN_EPS) * gamma + beta
        elif kind == "relu":
            env[layer.name] = np.maximum(src[0], 0.0)
        elif kind == "maxpool":
            win = np.lib.stride_tricks.sliding_window_view(
                src[0], (layer.attrs["window"],) * 2, axis=(2, 3))
            env[layer.name] = win[:, :, ::layer.attrs["stride"],
                                  ::layer.attrs["stride"]].max(axis=(-2, -1))
        elif kind == "avgpool":
            win = np.lib.stride_tricks.sliding_window_view(
                src[0], (layer.attrs["window"],) * 2, axis=(2, 3))
            env[layer.name] = win[:, :, ::layer.attrs["stride"],
                                  ::layer.attrs["stride"]].mean(axis=(-2, -1))
        elif kind == "global-avgpool":
            env[layer.name] = src[0].mean(axis=(2, 3), keepdims=True)
        elif kind == "shuffle":
            env[layer.name] = channel_shuffle(src[0], layer.attrs["perm"])
        elif kind == "add":
            env[layer.name] = sum(src[1:], start=src[0])
        elif kind == "concat":
            env[layer.name] = np.concatenate(src, axis=1)
        else:
            raise ShapeError(f"cannot interpret layer kind {kind!r}")
    return env[graph.output_name]


def infer_fixed(graph: Graph, x) -> RingTensor:
    """Fixed-point inference; accepts a real array or an encoded tensor."""
    plan = build_plan(graph)
    if not isinstance(x, RingTensor):
        x = encode_fixed(np.asarray(x, dtype=np.float64), graph.cfg)
    return execute_plan_clear(plan, x)
