"""Backbone x operator-variant model generator.

Five reconstructed vision backbones plus a four-layer smoke network, each
buildable with any of the four interchangeable cell variants.  Weights are
random from the seed (these graphs exist to be counted, rewritten, and
executed, not to classify), shapes follow the published architectures at
the requested input resolution.

Variant semantics per backbone:

* resnet50, shufflenetv2: canonical blocks are three-conv bottlenecks, so
  the dense variant is the bottleneck cell itself.
* densenet121, mobilenetv3l: canonical blocks reduce channels in the
  spatial conv (pointwise then KxK straight to the block width), so the
  dense variant keeps that two-conv shape while factorized/shuffle/x take
  the standard cell expansions with the same dimensions.
* resnet18: basic blocks carry no pointwise sandwich; each spatial conv
  is replaced at the conv level (see `_basic_block`).
* toynet: fixed four-layer shape regardless of variant.

Non-dense variants also factorize the stem; squeeze-excite and hard-swish
of the mobile backbone are replaced by identity and plain relu, which
moves its multiplication count by under 3%.
"""

from __future__ import annotations

from .errors import ShapeError
from .graph import CellVariant, Graph, GraphBuilder, INPUT, infer_shapes
from .ring import FixedPointConfig

BACKBONES = ("densenet121", "resnet50", "resnet18", "mobilenetv3l",
             "shufflenetv2", "toynet")
NUM_CLASSES = 1000  # classifier width; toynet keeps min(NUM_CLASSES, 10)


def model_zoo(backbone: str, variant: CellVariant, input_size: int = 320,
              seed: int = 0, cfg: FixedPointConfig = None) -> Graph:
    """Build a shape-valid graph for the requested backbone/variant pair;
    ShapeError names the first layer an input size leaves no shape."""
    if isinstance(variant, str):
        variant = CellVariant.parse(variant)
    builders = {
        "densenet121": _densenet121,
        "resnet50": _resnet50,
        "resnet18": _resnet18,
        "mobilenetv3l": _mobilenetv3l,
        "shufflenetv2": _shufflenetv2,
        "toynet": _toynet,
    }
    try:
        make = builders[backbone]
    except KeyError:
        raise ValueError(f"unsupported backbone {backbone!r}; "
                         f"choose from {BACKBONES}") from None
    b = GraphBuilder((1, 3, input_size, input_size), cfg=cfg, seed=seed)
    make(b, variant, input_size)
    graph = b.build()
    infer_shapes(graph)
    return graph


# -- shared pieces --------------------------------------------------------------


def _stem(b: GraphBuilder, variant: CellVariant, c_out: int, kernel: int) -> str:
    """Stride-2 stem; factorized in every non-dense variant."""
    if variant is CellVariant.DENSE:
        x = b.conv("stem_conv", INPUT, 3, c_out, kernel, stride=2)
    else:
        x = b.conv("stem_dw", INPUT, 3, 3, kernel, stride=2, groups=3)
        x = b.conv("stem_pw", x, 3, c_out, 1, padding=0)
    x = b.batchnorm("stem_bn", x, c_out)
    return b.relu("stem_relu", x)


def _reduce_cell(b: GraphBuilder, variant: CellVariant, src: str, c_in: int,
                 c_mid: int, c_out: int, kernel: int, stride: int,
                 prefix: str) -> str:
    """Pointwise + spatial conv straight to c_out; variants share dimensions."""
    if variant is CellVariant.DENSE:
        x = b.conv(f"{prefix}_pw1", src, c_in, c_mid, 1, padding=0)
        return b.conv(f"{prefix}_dense", x, c_mid, c_out, kernel, stride=stride)
    return b.expand_cell(variant, src, c_in, c_mid, c_out, kernel=kernel,
                         stride=stride, prefix=prefix)


def _head(b: GraphBuilder, src: str, channels: int) -> str:
    x = b.global_avgpool("head_gap", src)
    return b.fc("head_fc", x, channels, NUM_CLASSES)


# -- backbones ------------------------------------------------------------------


def _toynet(b: GraphBuilder, variant: CellVariant, input_size: int) -> None:
    if input_size % 4:
        raise ShapeError("toynet needs an input size divisible by 4")
    x = b.conv("conv1", INPUT, 3, 8, 3, stride=2, padding=1)
    x = b.relu("relu1", x)
    x = b.conv("conv2", x, 8, 16, 3, stride=1, padding=1)
    x = b.relu("relu2", x)
    x = b.maxpool("pool", x, 2, 2)
    feat = 16 * (input_size // 4) ** 2
    b.fc("fc", x, feat, min(NUM_CLASSES, 10))


def _densenet121(b: GraphBuilder, variant: CellVariant, input_size: int) -> None:
    growth, bottleneck = 32, 128
    x = _stem(b, variant, 64, 7)
    x = b.maxpool("stem_pool", x, 2, 2)
    channels = 64
    for bi, layers in enumerate((6, 12, 24, 16)):
        for li in range(layers):
            p = f"b{bi}l{li}"
            y = _reduce_cell(b, variant, x, channels, bottleneck, growth, 3, 1, p)
            y = b.batchnorm(f"{p}_bn", y, growth)
            y = b.relu(f"{p}_relu", y)
            x = b.concat(f"{p}_grow", x, y)
            channels += growth
        if bi < 3:
            p = f"t{bi}"
            x = b.conv(f"{p}_pw", x, channels, channels // 2, 1, padding=0)
            channels //= 2
            x = b.batchnorm(f"{p}_bn", x, channels)
            x = b.relu(f"{p}_relu", x)
            x = b.avgpool(f"{p}_pool", x, 2, 2)
    _head(b, x, channels)


def _resnet50(b: GraphBuilder, variant: CellVariant, input_size: int) -> None:
    x = _stem(b, variant, 64, 7)
    x = b.maxpool("stem_pool", x, 2, 2)
    channels = 64
    stages = ((64, 256, 3, 1), (128, 512, 4, 2), (256, 1024, 6, 2), (512, 2048, 3, 2))
    for si, (c_mid, c_out, blocks, stride) in enumerate(stages):
        for bi in range(blocks):
            p = f"s{si}b{bi}"
            st = stride if bi == 0 else 1
            y = b.expand_cell(variant, x, channels, c_mid, c_out,
                              kernel=3, stride=st, prefix=p)
            y = b.batchnorm(f"{p}_bn", y, c_out)
            if bi == 0:
                sc = b.conv(f"{p}_proj", x, channels, c_out, 1, stride=st, padding=0)
                sc = b.batchnorm(f"{p}_projbn", sc, c_out)
            else:
                sc = x
            x = b.add(f"{p}_add", y, sc)
            x = b.relu(f"{p}_out", x)
            channels = c_out
    _head(b, x, channels)


def _basic_block(b: GraphBuilder, variant: CellVariant, src: str, c_in: int,
                 c_out: int, stride: int, prefix: str) -> str:
    """ResNet-18 style block with conv-level operator replacement.

    The half-shuffle form splits the pointwise that this block itself
    introduces, so no channel slicing is ever needed.
    """
    p = prefix

    def unit(u_src, u_cin, u_cout, u_stride, tag):
        if variant is CellVariant.DENSE:
            return b.conv(f"{p}_{tag}conv", u_src, u_cin, u_cout, 3, stride=u_stride)
        if variant is CellVariant.FACTORIZED:
            d = b.conv(f"{p}_{tag}dw", u_src, u_cin, u_cin, 3, stride=u_stride,
                       groups=u_cin)
            return b.conv(f"{p}_{tag}pw", d, u_cin, u_cout, 1, padding=0)
        if variant is CellVariant.SHUFFLE:
            half = u_cout // 2
            d = b.conv(f"{p}_{tag}dw", u_src, u_cin, u_cin, 3, stride=u_stride,
                       groups=u_cin)
            ha = b.conv(f"{p}_{tag}pwa", d, u_cin, half, 1, padding=0)
            hb = b.conv(f"{p}_{tag}pwb", d, u_cin, half, 1, padding=0)
            da = b.conv(f"{p}_{tag}dw2", ha, half, half, 3, groups=half)
            pb = b.shuffle(f"{p}_{tag}perm", hb, half)
            return b.concat(f"{p}_{tag}cat", da, pb)
        if variant is CellVariant.XOP:
            d = b.conv(f"{p}_{tag}dw", u_src, u_cin, u_cin, 3, stride=u_stride,
                       groups=u_cin)
            s = b.shuffle(f"{p}_{tag}perm", u_src, u_cin)
            if u_stride > 1:
                s = b.maxpool(f"{p}_{tag}sub", s, 1, u_stride)
            j = b.add(f"{p}_{tag}join", d, s)
            return b.conv(f"{p}_{tag}gpw", j, u_cin, u_cout, 1, padding=0, groups=2)
        raise ValueError(variant)

    y = unit(src, c_in, c_out, stride, "u1")
    y = b.batchnorm(f"{p}_bn1", y, c_out)
    y = b.relu(f"{p}_relu1", y)
    y = unit(y, c_out, c_out, 1, "u2")
    y = b.batchnorm(f"{p}_bn2", y, c_out)
    if stride != 1 or c_in != c_out:
        sc = b.conv(f"{p}_proj", src, c_in, c_out, 1, stride=stride, padding=0)
        sc = b.batchnorm(f"{p}_projbn", sc, c_out)
    else:
        sc = src
    out = b.add(f"{p}_add", y, sc)
    return b.relu(f"{p}_out", out)


def _resnet18(b: GraphBuilder, variant: CellVariant, input_size: int) -> None:
    x = _stem(b, variant, 64, 7)
    x = b.maxpool("stem_pool", x, 2, 2)
    channels = 64
    for si, (c_out, stride) in enumerate(((64, 1), (128, 2), (256, 2), (512, 2))):
        for bi in range(2):
            x = _basic_block(b, variant, x, channels, c_out,
                             stride if bi == 0 else 1, f"s{si}b{bi}")
            channels = c_out
    _head(b, x, channels)


_MOBILENET_V3L = (
    # kernel, expanded width, output width, stride
    (3, 16, 16, 1), (3, 64, 24, 2), (3, 72, 24, 1), (5, 72, 40, 2),
    (5, 120, 40, 1), (5, 120, 40, 1), (3, 240, 80, 2), (3, 200, 80, 1),
    (3, 184, 80, 1), (3, 184, 80, 1), (3, 480, 112, 1), (3, 672, 112, 1),
    (5, 672, 160, 2), (5, 960, 160, 1), (5, 960, 160, 1),
)


def _mobilenetv3l(b: GraphBuilder, variant: CellVariant, input_size: int) -> None:
    x = _stem(b, variant, 16, 3)
    channels = 16
    for i, (k, exp, c_out, stride) in enumerate(_MOBILENET_V3L):
        p = f"ir{i}"
        y = _reduce_cell(b, variant, x, channels, exp, c_out, k, stride, p)
        y = b.batchnorm(f"{p}_bn", y, c_out)
        if stride == 1 and channels == c_out:
            y = b.add(f"{p}_add", y, x)
        x = b.relu(f"{p}_relu", y)
        channels = c_out
    x = b.conv("head_pw", x, channels, 960, 1, padding=0)
    x = b.batchnorm("head_bn", x, 960)
    x = b.relu("head_relu", x)
    _head(b, x, 960)


def _shufflenetv2(b: GraphBuilder, variant: CellVariant, input_size: int) -> None:
    x = _stem(b, variant, 24, 3)
    x = b.maxpool("stem_pool", x, 2, 2)
    channels = 24
    for si, (c_out, units) in enumerate(((116, 4), (232, 8), (464, 4))):
        for ui in range(units):
            p = f"s{si}u{ui}"
            stride = 2 if ui == 0 else 1
            y = b.expand_cell(variant, x, channels, c_out // 2, c_out,
                              kernel=3, stride=stride, prefix=p)
            y = b.batchnorm(f"{p}_bn", y, c_out)
            x = b.relu(f"{p}_relu", y)
            channels = c_out
    x = b.conv("head_pw", x, channels, 1024, 1, padding=0)
    x = b.batchnorm("head_bn", x, 1024)
    x = b.relu("head_relu", x)
    _head(b, x, 1024)
