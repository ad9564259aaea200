"""Minimal-multiplication convolution: transform bases, tiling math, the kernel.

A basis with output tile ``m`` and filter taps ``r`` computes ``m`` outputs
of a valid (cross-correlation) convolution using ``n = m + r - 1``
elementwise multiplications instead of ``m * r``; 2-D follows by nesting.
The input and output transforms are integer matrices, so on secret shares
they are local (communication-free) operations; only the elementwise
product between the transformed input and the transformed filter costs
secure multiplications.

Shipped bases cover output tiles 2 and 4 for 3-tap filters.  They are
stored as exact rationals and validated at import against the transform
identity on all basis-vector pairs; since both sides of the identity are
bilinear in (tile, filter), equality on basis pairs proves it for every
input.  7-tap transforms are rejected: their bases carry fractions that
lose too much precision in fixed point.

``transform_conv`` is the one tiled transform convolution: the float
reference runs it on reals with a plain product sum, and the plan walker
on ring words with the backend's secret one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import FixedPointOverflowError, ShapeError, XConvError
from .ring import FixedPointConfig

_U64 = np.uint64


class UnsupportedTransformError(XConvError):
    """Requested (output tile, filter tap) pair has no shipped basis."""


# -- exact bases -------------------------------------------------------------

_F = Fraction

# Output-transform rows (m x n), input-transform rows (n x n), filter
# transform (n x r).  b_t and a_t are integral by construction.
_TABLES = {
    (2, 3): {
        "a_t": [[1, 1, 1, 0],
                [0, 1, -1, -1]],
        "b_t": [[1, 0, -1, 0],
                [0, 1, 1, 0],
                [0, -1, 1, 0],
                [0, 1, 0, -1]],
        "g": [[_F(1), _F(0), _F(0)],
              [_F(1, 2), _F(1, 2), _F(1, 2)],
              [_F(1, 2), _F(-1, 2), _F(1, 2)],
              [_F(0), _F(0), _F(1)]],
    },
    (4, 3): {
        "a_t": [[1, 1, 1, 1, 1, 0],
                [0, 1, -1, 2, -2, 0],
                [0, 1, 1, 4, 4, 0],
                [0, 1, -1, 8, -8, 1]],
        "b_t": [[4, 0, -5, 0, 1, 0],
                [0, -4, -4, 1, 1, 0],
                [0, 4, -4, -1, 1, 0],
                [0, -2, -1, 2, 1, 0],
                [0, 2, -1, -2, 1, 0],
                [0, 4, 0, -5, 0, 1]],
        "g": [[_F(1, 4), _F(0), _F(0)],
              [_F(-1, 6), _F(-1, 6), _F(-1, 6)],
              [_F(-1, 6), _F(1, 6), _F(-1, 6)],
              [_F(1, 24), _F(1, 12), _F(1, 6)],
              [_F(1, 24), _F(-1, 12), _F(1, 6)],
              [_F(0), _F(0), _F(1)]],
    },
}


@dataclass(frozen=True)
class WinogradBasis:
    """Exact transform tables for one (m, r) pair, n = m + r - 1."""

    m: int
    r: int
    a_t: tuple  # m x n, exact integers
    b_t: tuple  # n x n, exact integers
    g: tuple    # n x r, exact Fractions

    @property
    def n(self) -> int:
        return self.m + self.r - 1

    def a_t_int(self) -> np.ndarray:
        return np.array(self.a_t, dtype=np.int64)

    def b_t_int(self) -> np.ndarray:
        return np.array(self.b_t, dtype=np.int64)

    def g_float(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.g], dtype=np.float64)

    def input_growth(self) -> int:
        """Worst-case magnitude growth of the 2-D input transform.

        Square of the largest absolute row sum of the input-transform
        matrix: an upper bound on |transformed| / |input| for the nested
        application.
        """
        row = max(sum(abs(v) for v in r) for r in self.b_t)
        return row * row


def _conv_valid_1d(x, w):
    """Exact valid cross-correlation; the oracle side of the identity."""
    m = len(x) - len(w) + 1
    return [sum(x[i + j] * w[j] for j in range(len(w))) for i in range(m)]


def _check_identity(basis: WinogradBasis) -> None:
    n, r, m = basis.n, basis.r, basis.m
    for i in range(n):
        x = [_F(int(i == k)) for k in range(n)]
        btx = [sum(_F(basis.b_t[a][b]) * x[b] for b in range(n)) for a in range(n)]
        for j in range(r):
            w = [_F(int(j == k)) for k in range(r)]
            gw = [sum(basis.g[a][b] * w[b] for b in range(r)) for a in range(n)]
            prod = [btx[a] * gw[a] for a in range(n)]
            got = [sum(_F(basis.a_t[o][a]) * prod[a] for a in range(n)) for o in range(m)]
            if got != _conv_valid_1d(x, w):
                raise AssertionError(f"transform identity broken for basis {(m, r)}")


@lru_cache(maxsize=None)
def winograd_basis(m: int, r: int) -> WinogradBasis:
    """Return the validated exact basis for (m, r)."""
    if r == 7:
        raise UnsupportedTransformError(
            "7-tap transforms are rejected: fractional tables lose numerical precision"
        )
    try:
        t = _TABLES[(m, r)]
    except KeyError:
        raise UnsupportedTransformError(f"no shipped basis for (m={m}, r={r})") from None
    basis = WinogradBasis(
        m=m,
        r=r,
        a_t=tuple(tuple(row) for row in t["a_t"]),
        b_t=tuple(tuple(row) for row in t["b_t"]),
        g=tuple(tuple(row) for row in t["g"]),
    )
    _check_identity(basis)
    return basis


def basis_for_tile(n: int, k: int) -> WinogradBasis:
    """Basis producing n-point tiles for a k-tap filter (m = n - k + 1)."""
    return winograd_basis(n - k + 1, k)


# -- tiling arithmetic --------------------------------------------------------


@dataclass(frozen=True)
class TilingPlan:
    """Tile geometry and multiplication counts for one square convolution."""

    n: int          # input tile extent
    step: int       # n - k + 1 output points per tile per axis
    tiles: int      # tiles per axis covering the output
    pad: int        # zero columns/rows appended right/bottom
    dense: int      # m_out^2 * k^2
    beta1: int      # single-shot transform multiplications (m_out + k - 1)^2
    beta2: int      # tiled transform multiplications tiles^2 * n^2
    gamma: float    # beta2 / multiplications without padding the last tile


def mult_counts(m_out: int, k: int, n: int) -> TilingPlan:
    """Multiplication counts for an m_out x m_out output, k x k filter, n x n tiles."""
    if m_out < 1:
        raise ValueError("output extent must be >= 1")
    if k < 2:
        raise ValueError("filter extent must be >= 2")
    if n <= k:
        raise ValueError("tile extent must exceed the filter extent")
    step = n - k + 1
    tiles = -(-m_out // step)  # ceil
    last_tile = m_out - (tiles - 1) * step + k - 1  # input extent the last tile needs
    covered = (tiles - 1) * step + n
    pad = covered - (m_out + k - 1)
    dense = m_out * m_out * k * k
    beta1 = (m_out + k - 1) ** 2
    beta2 = tiles * tiles * n * n
    unpadded = ((tiles - 1) * n + last_tile) ** 2
    return TilingPlan(
        n=n, step=step, tiles=tiles, pad=pad, dense=dense, beta1=beta1,
        beta2=beta2, gamma=beta2 / unpadded,
    )


TILE_CANDIDATES = (4, 6)  # tile extents the rewrite chooses from


def choose_tile(m_out: int, k: int, candidates=TILE_CANDIDATES) -> int:
    """Candidate tile with the fewest tiled multiplications; ties go small.

    Smaller tiles grow the dynamic range of the input transform less, so
    they win ties.
    """
    cands = sorted(c for c in candidates if c > k)
    if not cands:
        raise ValueError(f"no tile candidate exceeds filter extent {k}")
    return min(cands, key=lambda n: (mult_counts(m_out, k, n).beta2, n))


# -- kernel ------------------------------------------------------------------


def transform_filter_real(w: np.ndarray, basis: WinogradBasis) -> np.ndarray:
    """g @ W @ g^T per channel pair, real arithmetic (the weight owner's side).

    Each output is summed from 0.0 over j, then k, of (g[i,j] W[j,k]) g[l,k]:
    the order of ``np.einsum("ij,ocjk,lk->ocil", ...)``, so the float64 bits,
    and with them the encoded weight words, are those einsum gives.  A
    matrix-product order rounds differently, and a weight on a coarse grid
    can then land on the other side of a 2^-scale boundary.  Each step runs
    over all out x in channel pairs at once, which is what makes it fast.
    A term with a zero tap, g[i,j] or g[l,k], is skipped: it is +-0.0 for a
    finite weight, and adding +-0.0 leaves an accumulator that starts at
    +0.0 as it is.
    """
    g = basis.g_float()
    n, r = g.shape
    c_out, c_in = w.shape[:2]
    # (j, k, channel pair): every step below reads one contiguous row.
    wt = np.ascontiguousarray(w.reshape(c_out * c_in, r, r).transpose(1, 2, 0),
                              dtype=np.float64)
    acc = np.zeros((n, n, c_out * c_in))
    gw = np.empty(c_out * c_in)
    term = np.empty(c_out * c_in)
    for j in range(r):
        for k in range(r):
            for i in np.flatnonzero(g[:, j]):
                np.multiply(g[i, j], wt[j, k], out=gw)
                for l in np.flatnonzero(g[:, k]):
                    np.multiply(gw, g[l, k], out=term)
                    acc[i, l] += term
    u = np.empty((c_out, c_in, n, n))
    u.reshape(c_out * c_in, n, n).transpose(1, 2, 0)[...] = acc
    return u


def transform_conv(x: np.ndarray, u: np.ndarray, basis: WinogradBasis,
                   padding: int, groups: int, mul_sum) -> np.ndarray:
    """Tiled transform convolution, stride 1, of square maps on any dtype.

    ``u`` is the transformed filter (out, in per group, n, n) and
    ``mul_sum(a, b, axis)`` the elementwise products of equal-shape arrays
    summed over ``axis``, here the in-channel axis 5 of (batch, tile, tile,
    groups, out per group, in per group, n, n); all groups' products go to
    it in one broadcast.  On float64 this is the real convolution to
    rounding error.  On uint64 ring words every step is exact modulo 2^64,
    and reducing modulo 2^l is a ring homomorphism, so the caller masks the
    result once.
    """
    n, k, m = basis.n, basis.r, basis.m
    m_out = x.shape[2] + 2 * padding - k + 1
    if m_out < 1:
        raise ShapeError("convolution output would be empty")
    geom = mult_counts(m_out, k, n)
    pads = (padding, padding + geom.pad)
    win = np.lib.stride_tricks.sliding_window_view(
        np.pad(x, ((0, 0), (0, 0), pads, pads)), (n, n), axis=(2, 3))
    tiles = np.ascontiguousarray(win[:, :, ::geom.step, ::geom.step])
    bt, at = basis.b_t_int().astype(x.dtype), basis.a_t_int().astype(x.dtype)
    v = np.einsum("ij,nctujk,lk->nctuil", bt, tiles, bt, dtype=x.dtype)
    nb, t = x.shape[0], geom.tiles
    c_out, cpg_in = u.shape[0], u.shape[1]
    # (batch, tile, tile, groups, out-per-group, in-per-group, n, n).
    vg = v.reshape(nb, groups, cpg_in, t, t, n, n).transpose(0, 3, 4, 1, 2, 5, 6)
    x_exp = np.broadcast_to(vg[:, :, :, :, None],
                            (nb, t, t, groups, c_out // groups, cpg_in, n, n))
    w_exp = np.broadcast_to(u.reshape(x_exp.shape[3:]), x_exp.shape)
    acc = mul_sum(x_exp, w_exp, 5)
    prods = acc.reshape(nb, t, t, c_out, n, n).transpose(0, 3, 1, 2, 4, 5)
    y = np.einsum("ij,notujk,lk->notuil", at, prods, at, dtype=x.dtype)
    full = y.transpose(0, 1, 2, 4, 3, 5).reshape(nb, c_out, t * m, t * m)
    return np.ascontiguousarray(full[:, :, :m_out, :m_out])


def winograd_guard(basis: WinogradBasis, u_real: np.ndarray, groups: int,
                   x_bound: float, cfg: FixedPointConfig) -> None:
    """Reject fixed-point execution when the transform eats the headroom.

    Worst case for the summed elementwise product: input-transform growth
    times the per-output-position sum of |transformed filter| magnitudes,
    all at double scale.  Requires the result to stay strictly inside the
    signed range.
    """
    sum_u = np.abs(u_real).sum(axis=1)  # per (out channel, tile pos)
    worst = float(sum_u.max()) * basis.input_growth() * max(x_bound, 1e-300)
    need_bits = 2 * cfg.scale + math.log2(worst) if worst > 0 else 0
    if need_bits >= cfg.bitwidth - 1:
        raise FixedPointOverflowError(
            f"transform headroom insufficient: needs {need_bits:.1f} bits, "
            f"ring holds {cfg.bitwidth - 1} (growth {basis.input_growth()}, "
            f"scale {cfg.scale})"
        )


# -- graph rewrite pass ---------------------------------------------------------


@dataclass
class RewriteDecision:
    """Per-convolution outcome of the compiler pass, reportable as a row."""

    layer: str
    eligible: bool
    reason: str = ""
    n: int = 0
    tiles: int = 0
    beta1: int = 0
    beta2: int = 0
    dense: int = 0
    gamma: float = 0.0

    def as_row(self) -> dict:
        return {"layer": self.layer, "eligible": self.eligible, "reason": self.reason,
                "n": self.n, "T": self.tiles, "beta1": self.beta1,
                "beta2": self.beta2, "dense": self.dense, "gamma": self.gamma}


def _eligibility(attrs: dict, out_hw: tuple, candidates) -> str:
    """Empty string when rewritable, else the skip reason."""
    k = attrs["kernel"]
    if k == 1:
        return "pointwise"
    if k == 7:
        return "filter extent 7 loses precision"
    if attrs.get("stride", 1) != 1:
        return "stride"
    g = attrs.get("groups", 1)
    if g != 1 and not (g == attrs["in_channels"] == attrs["out_channels"]):
        return "grouped (not depthwise)"
    if out_hw[0] != out_hw[1]:
        return "non-square output"
    try:
        basis_for_tile(min(c for c in candidates if c > k), k)
    except (UnsupportedTransformError, ValueError):
        return f"no basis for {k}-tap filters"
    return ""


def rewrite_winograd(graph, candidates=TILE_CANDIDATES):
    """Tag every eligible convolution for transform execution.

    Returns the rewritten graph plus one decision per convolution layer;
    ineligible layers are skipped with a reason, never failed.  Outputs of
    the rewritten graph stay float-equivalent to the original up to the
    transform's rounding.
    """
    from .graph import Graph, LayerSpec, infer_shapes

    shapes = infer_shapes(graph)
    decisions = []
    new_layers = []
    for layer in graph.layers:
        attrs = dict(layer.attrs)
        if layer.kind == "conv2d":
            out = shapes[layer.name]
            reason = _eligibility(attrs, (out[2], out[3]), candidates)
            if reason:
                decisions.append(RewriteDecision(layer=layer.name, eligible=False,
                                                 reason=reason))
            else:
                k = attrs["kernel"]
                n = choose_tile(out[2], k, candidates)
                counts = mult_counts(out[2], k, n)
                attrs["winograd"] = True
                attrs["tile"] = n
                decisions.append(RewriteDecision(
                    layer=layer.name, eligible=True, n=n, tiles=counts.tiles,
                    beta1=counts.beta1, beta2=counts.beta2, dense=counts.dense,
                    gamma=counts.gamma))
        new_layers.append(LayerSpec(layer.name, layer.kind, list(layer.inputs), attrs))
    return Graph(new_layers, graph.input_shape, graph.cfg, graph.weights), decisions
