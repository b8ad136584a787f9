"""Convolution engines and the discretized continuous CNN.

A layer maps a C_in-channel stack to a C_out-channel stack: each output
channel is sigma(sum_m x_m * k_{m,c} + b_c) with compactly supported kernels,
the sum over input channels accumulated in fixed ascending order. The single
convolution has h^2 quadrature weight and zero reads outside the domain, and
one entry point, convolve, with two engines behind it:

- the direct engine (``exact=True``, the default), an exact direct sum. It is
  the reference for every exactness law: zero-padding invariance,
  lattice-shear naturality ``== 0.0``, translation covariance, the generator
  round trip, and every check that is not judged against a tolerance
  (naturality, filter fixed points, aligner necessity, filter recovery);
- the FFT engine (``exact=False``), for the laws judged against
  tol(h) = 5 h scale only: full_paper_audit's alignment, generator-invariance
  and contraction checks. It agrees with the direct engine to rounding level
  (a few 1e-15 of the output's sup on the audit's fields, far below
  1e-12 sup), but not bit for bit.

Direct engine. The summation order is fixed here, not by a third-party loop:
the nonzero kernel taps are visited in row-major order (ascending row, then
ascending column), each adding its weighted shifted copy of the input to the
accumulator. Zero taps are skipped, so zero-padding a kernel (as
transform_filter and embed_filter do) leaves every output bit unchanged.

The work is bounded by the input's support, not the domain. The input's
nonzero bounding box (hb x wb samples) is copied into a flat buffer whose
row stride is the accumulator's width wb + 2c (c the kernel half-width), so
every tap is one contiguous multiply and one contiguous add: nonzero taps x
box rows x (wb + 2c) samples in all, in 1-D passes without strided
iteration. The 2c-wide gap after each box row holds +0.0, so a tap adds
w * (+-0.0) wherever its shifted copy of a gap lands, and box rows whose
outputs fall outside the domain are skipped. An accumulator that starts at
+0.0 never becomes -0.0, and adding +-0.0 changes no other value, so each
output sample gets the same nonzero products in the same tap order as a sum
over the whole domain, bit for bit; every output beyond the dilated box is
exactly +0.0.

FFT engine. The input's nonzero box and the kernel's nonzero box are
zero-padded to the smallest 2^a 3^b 5^c sizes that hold their full linear
convolution, so the circular product of numpy.fft.rfft2 spectra wraps
nothing; irfft2 gives that convolution, which is scaled by h^2 and written
only on the input box dilated by the kernel box, clipped to the domain.
Every other sample is exactly +0.0, as in the direct engine, and an
all-zero input or kernel returns +0.0 without a transform. The cost is
O(N log N) in the padded box size N instead of nonzero taps x box.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DomainFitError,
    GeometryMismatchError,
    InvalidModelError,
    TransformClassError,
)
from .grid import (
    FeatureStack,
    Grid,
    GridGeometry,
    _close,
    _nonzero_box,
    embed,
    refine,
    render,
    resample_affine,
    support_estimate,
)
from .transform import LinearMap2, classify, iterate

__all__ = [
    "Filter",
    "Nonlinearity",
    "ConvLayer",
    "CnnModel",
    "filter_from_grid",
    "convolve",
    "layer_forward",
    "model_forward",
    "model_forward_stages",
    "transform_filter",
    "receptive_radius",
    "radial_filter",
    "gaussian_filter",
    "ring_filter",
    "impulse_filter",
    "n_fold_symmetrize",
    "elliptic_ring_filter",
    "smooth_window",
    "random_blob_filter",
    "random_radial_filter",
    "refine_filter",
    "refine_model",
    "embed_filter",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
    "build_model",
]

_RADIUS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Filter:
    """A compactly supported kernel.

    support_radius is an upper-bound promise: samples with |x| > support_radius
    are 0. A loose bound is valid (just pessimistic for locality estimates).
    """

    grid: Grid
    support_radius: float

    def __post_init__(self):
        r = float(self.support_radius)
        if not r >= 0.0:
            raise ValueError(f"support radius must be nonnegative, got {r}")
        X, Y = self.grid.geometry.coords()
        outside = np.hypot(X, Y) > r + _RADIUS_TOL
        if np.any(self.grid.values[outside] != 0.0):
            raise ValueError("filter has nonzero samples beyond its support radius")
        object.__setattr__(self, "support_radius", r)

    @property
    def spacing(self) -> float:
        return self.grid.spacing


def filter_from_grid(grid: Grid, support_radius: Optional[float] = None) -> Filter:
    """Wrap a grid as a filter; the radius is measured from the samples when omitted."""
    if support_radius is None:
        support_radius = support_estimate(grid, 0.0).radius
    return Filter(grid, float(support_radius))


def convolve(f: Grid, lam: Filter, exact: bool = True) -> Grid:
    """(f * lam)(x) = sum_y lam(y) f(x - y) h^2 with zero reads outside f's domain.

    The output shares f's geometry. Both engines validate alike (the spacings
    must match, and f's extent must exceed lam's support radius), do work only
    on f's nonzero box, and leave every output beyond that box dilated by
    the kernel exactly +0.0.

    ``exact=True`` (the default) is the direct sum, the engine every
    exactness law relies on. The nonzero taps are added one at a time in
    row-major order, and the sum is scaled by h^2 last, so the result is
    invariant to zero-padding of the kernel grid, and kernels wider than the
    image take the same path. Work is nonzero taps x box rows x (box width +
    2c), with c the kernel half-width: the box is laid out with the
    accumulator's row stride box width + 2c, so each tap is one contiguous
    multiply and one contiguous add over it; the +0.0 gap columns only add
    +-0.0, which changes no value of an accumulator that starts at +0.0. An
    all-zero f costs no tap at all.

    ``exact=False`` is the FFT engine, for checks judged against tol(h) only:
    the same convolution through numpy.fft on f's nonzero box and the
    kernel's nonzero box, padded to 2^a 3^b 5^c sizes of N samples in all.
    It differs from the direct sum by rounding alone: every sample is off by
    O(eps log2(N)) times h^2 and the 2-norms of the two boxes' samples, a few
    1e-15 of the output's sup on the audit's fields. It is deterministic, but
    not bit-identical to the direct sum. An all-zero f or lam returns +0.0
    without a transform.
    """
    kg = lam.grid
    if not _close(f.spacing, kg.spacing):
        raise GeometryMismatchError(
            f"image spacing {f.spacing} != filter spacing {kg.spacing}"
        )
    if f.extent <= lam.support_radius - _RADIUS_TOL:
        raise DomainFitError(
            f"image extent {f.extent} does not exceed filter support radius "
            f"{lam.support_radius}"
        )
    n = f.geometry.size
    out = np.zeros((n, n), dtype=np.float64)
    box = _nonzero_box(f.values)
    if box is not None:
        engine = _direct_sum if exact else _fft_sum
        engine(f.values, box, kg.values, kg.geometry.half_count, f.spacing, out)
    return Grid(f.geometry, out)


def _direct_sum(fv: np.ndarray, box, kv: np.ndarray, c: int, h: float, out: np.ndarray) -> None:
    """The direct engine: writes h^2 sum_taps kv[p, q] fv[shifted] into out,
    tap by tap in row-major order (see convolve)."""
    n = out.shape[0]
    r0, r1, c0, c1 = box
    hb, wb = r1 - r0, c1 - c0
    wa = wb + 2 * c
    # the output rows [a, b) within the domain; the accumulator holds them at
    # full dilated width, columns c0 - c .. c1 + c - 1, flat with row stride
    # wa, and src holds the box with the same stride and +0.0 gap columns
    a, b = max(0, r0 - c), min(n, r1 + c)
    src = np.zeros(hb * wa, dtype=np.float64)
    src.reshape(hb, wa)[:, :wb] = fv[r0:r1, c0:c1]
    acc = np.zeros((b - a) * wa, dtype=np.float64)
    term = np.empty_like(src)
    # tap (p, q) sits at offset (c - p, c - q) from the kernel center, so box
    # sample (u, v) adds to output (r0 + u + p - c, c0 + v + q - c), which is
    # acc[(u + d) * wa + v + q] with d = r0 + p - c - a. Only box rows u whose
    # output row u + d is in the domain are added; they depend on p alone, so
    # each kernel row fixes the run src[u0 * wa : u0 * wa + m] for its taps
    for p in range(kv.shape[0]):
        qs = np.flatnonzero(kv[p])
        d = r0 + p - c - a
        u0, u1 = max(0, -d), min(hb, b - a - d)
        if not qs.size or u0 >= u1:
            continue
        m = (u1 - u0 - 1) * wa + wb
        s = (u0 + d) * wa
        run, t = src[u0 * wa : u0 * wa + m], term[:m]
        for q, w in zip(qs.tolist(), kv[p, qs].tolist()):
            dst = acc[s + q : s + q + m]
            np.multiply(w, run, out=t)
            np.add(dst, t, out=dst)
    e, g = max(0, c0 - c), min(n, c1 + c)
    out[a:b, e:g] = acc.reshape(b - a, wa)[:, e - c0 + c : g - c0 + c] * (h * h)


def _fft_sum(fv: np.ndarray, box, kv: np.ndarray, c: int, h: float, out: np.ndarray) -> None:
    """The FFT engine: writes h^2 (box of fv) * (box of kv) into out on the
    dilated box clipped to the domain (see convolve)."""
    kbox = _nonzero_box(kv)
    if kbox is None:
        return
    n = out.shape[0]
    r0, r1, c0, c1 = box
    p0, p1, q0, q1 = kbox
    # entry (i, j) of the full linear convolution of the two boxes lands on
    # output (a0 + i, e0 + j): box sample (u, v) and tap (p, q) meet at
    # (r0 + u + p - c, c0 + v + q - c)
    rows, cols = (r1 - r0) + (p1 - p0) - 1, (c1 - c0) + (q1 - q0) - 1
    shape = (_smooth_size(rows), _smooth_size(cols))
    spec = np.fft.rfft2(fv[r0:r1, c0:c1], shape)
    spec *= np.fft.rfft2(kv[p0:p1, q0:q1], shape)
    full = np.fft.irfft2(spec, shape)
    a0, e0 = r0 + p0 - c, c0 + q0 - c
    a, b = max(0, a0), min(n, a0 + rows)
    e, g = max(0, e0), min(n, e0 + cols)
    out[a:b, e:g] = full[a - a0 : b - a0, e - e0 : g - e0] * (h * h)


def _smooth_size(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m, a length numpy.fft transforms fast."""
    size = m
    while True:
        rest = size
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise nonlinearity: identity, relu, lipschitz_sigmoid(L), or softmax
    over channels (per spatial sample)."""

    kind: str
    lipschitz: float = 1.0

    _KINDS = ("identity", "relu", "lipschitz_sigmoid", "softmax")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise InvalidModelError(
                f"unknown nonlinearity {self.kind!r}; expected {self._KINDS}"
            )
        if self.kind == "lipschitz_sigmoid" and not self.lipschitz > 0:
            raise InvalidModelError("sigmoid Lipschitz constant must be positive")

    @classmethod
    def parse(cls, text: str) -> "Nonlinearity":
        if not isinstance(text, str):
            raise InvalidModelError(f"nonlinearity must be a string, got {text!r}")
        t = text.strip()
        if t in ("identity", "relu"):
            return cls(t)
        if t in ("softmax", "softmax_over_channels"):
            return cls("softmax")
        if t.startswith("lipschitz_sigmoid(") and t.endswith(")"):
            arg = t[len("lipschitz_sigmoid(") : -1]
            try:
                return cls("lipschitz_sigmoid", float(arg))
            except ValueError:
                raise InvalidModelError(
                    f"bad lipschitz_sigmoid argument {arg!r}"
                ) from None
        raise InvalidModelError(f"unknown nonlinearity {text!r}")

    def to_string(self) -> str:
        if self.kind == "lipschitz_sigmoid":
            return f"lipschitz_sigmoid({self.lipschitz!r})"
        if self.kind == "softmax":
            return "softmax_over_channels"
        return self.kind

    def apply(self, pre: np.ndarray) -> np.ndarray:
        """pre has shape (channels, n, n)."""
        if self.kind == "identity":
            return pre
        if self.kind == "relu":
            return np.maximum(pre, 0.0)
        if self.kind == "lipschitz_sigmoid":
            # logistic scaled so the maximum slope equals the Lipschitz
            # constant; scipy is imported here, not at module level, so that
            # importing the package does not load it
            from scipy.special import expit

            return expit(4.0 * self.lipschitz * pre)
        shifted = pre - pre.max(axis=0, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=0, keepdims=True)


@dataclass(frozen=True, eq=False)
class ConvLayer:
    """kernels[m][c] maps input channel m to output channel c; one bias per
    output channel; bias is added before the nonlinearity."""

    kernels: Tuple[Tuple[Filter, ...], ...]
    biases: Tuple[float, ...]
    nonlinearity: Nonlinearity

    def __post_init__(self):
        kernels = tuple(tuple(row) for row in self.kernels)
        if not kernels or not kernels[0]:
            raise InvalidModelError("a layer needs at least one kernel")
        width = len(kernels[0])
        if any(len(row) != width for row in kernels):
            raise InvalidModelError("kernel matrix must be rectangular")
        g0 = kernels[0][0].grid.geometry
        for row in kernels:
            for k in row:
                if not k.grid.geometry.close_to(g0):
                    raise GeometryMismatchError("all kernels in a layer must share geometry")
        biases = tuple(float(b) for b in self.biases)
        if len(biases) != width:
            raise InvalidModelError(
                f"got {len(biases)} biases for {width} output channels"
            )
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "biases", biases)

    @property
    def in_channels(self) -> int:
        return len(self.kernels)

    @property
    def out_channels(self) -> int:
        return len(self.kernels[0])


@dataclass(frozen=True, eq=False)
class CnnModel:
    """A stack of layers; channel counts must chain, and softmax (a cross-
    channel map) is only legal in the final layer."""

    layers: Tuple[ConvLayer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_channels != nxt.in_channels:
                raise InvalidModelError(
                    f"layer output channels {prev.out_channels} != next layer "
                    f"input channels {nxt.in_channels}"
                )
        for layer in layers[:-1]:
            if layer.nonlinearity.kind == "softmax":
                raise InvalidModelError("softmax is only legal as the final layer")
        object.__setattr__(self, "layers", layers)

    @property
    def depth(self) -> int:
        return len(self.layers)


def receptive_radius(model: CnnModel, depth: Optional[int] = None) -> float:
    """Per-channel recursion r_c(i) = max_m [r_m(i-1) + r(k_{m,c})], maximized
    over channels at the requested depth (default: full depth); depth 0 is 0."""
    L = len(model.layers)
    depth = L if depth is None else int(depth)
    if not 0 <= depth <= L:
        raise ValueError(f"depth {depth} outside [0, {L}]")
    radii = [0.0] * (model.layers[0].in_channels if model.layers else 1)
    for layer in model.layers[:depth]:
        radii = [
            max(radii[m] + layer.kernels[m][c].support_radius for m in range(layer.in_channels))
            for c in range(layer.out_channels)
        ]
    return max(radii)


def _as_stack(x: Union[Grid, FeatureStack, Sequence[Grid]]) -> FeatureStack:
    if isinstance(x, FeatureStack):
        return x
    if isinstance(x, Grid):
        return FeatureStack((x,))
    return FeatureStack(tuple(x))


def layer_forward(
    stack: Union[Grid, FeatureStack], layer: ConvLayer, exact: bool = True
) -> FeatureStack:
    """Every output channel of the layer; ``exact`` picks convolve's engine."""
    stack = _as_stack(stack)
    pre = [_pre_activation(stack, layer, c, exact) for c in range(layer.out_channels)]
    post = layer.nonlinearity.apply(np.stack(pre, axis=0))
    geom = stack.geometry
    return FeatureStack(tuple(Grid(geom, post[c]) for c in range(layer.out_channels)))


def _pre_activation(
    stack: FeatureStack, layer: ConvLayer, c: int, exact: bool = True
) -> np.ndarray:
    """sum_m x_m * k_{m,c} + b_c for output channel c, summed in ascending m."""
    if stack.channel_count != layer.in_channels:
        raise GeometryMismatchError(
            f"stack has {stack.channel_count} channels, layer expects {layer.in_channels}"
        )
    acc = None
    for m in range(layer.in_channels):
        g = convolve(stack.channels[m], layer.kernels[m][c], exact=exact)
        acc = g.values if acc is None else acc + g.values
    return acc + layer.biases[c]


def _channel_forward(
    stack: Union[Grid, FeatureStack], layer: ConvLayer, c: int, exact: bool = True
) -> Grid:
    """Output channel c of layer_forward(stack, layer, exact), bit for bit.

    A pointwise nonlinearity needs only channel c's pre-activation; softmax
    mixes channels, so it evaluates the whole layer.
    """
    stack = _as_stack(stack)
    if layer.nonlinearity.kind == "softmax":
        return layer_forward(stack, layer, exact).channels[c]
    pre = _pre_activation(stack, layer, c, exact)
    return Grid(stack.geometry, layer.nonlinearity.apply(pre[None])[0])


def model_forward_stages(
    x: Union[Grid, FeatureStack], model: CnnModel
) -> Tuple[FeatureStack, ...]:
    """All intermediate stacks: stage 0 is the input, stage i the output of layer i."""
    stack = _as_stack(x)
    stages = [stack]
    for layer in model.layers:
        stack = layer_forward(stack, layer)
        stages.append(stack)
    return tuple(stages)


def model_forward(x: Union[Grid, FeatureStack], model: CnnModel) -> FeatureStack:
    return model_forward_stages(x, model)[-1]


def transform_filter(lam: Filter, T: LinearMap2) -> Filter:
    """The filter |det T| * lam(T x), whose convolution reproduces a warped-
    input convolution viewed in the warped frame.

    The support becomes T^-1(supp lam), so the radius scales by the operator
    norm of T^-1 (plus a sqrt(2) h bilinear halo); the grid extent grows when
    the new support needs more room.
    """
    inv = T.inverse()
    adet = abs(T.det)
    h = lam.spacing
    new_radius = inv.operator_norm() * (lam.support_radius + math.sqrt(2.0) * h)
    geom = GridGeometry(max(lam.grid.extent, new_radius), h)
    warped = resample_affine(lam.grid, inv, geometry=geom)
    src = None
    if warped.source is not None:
        wsrc = warped.source
        src = lambda x, y: adet * wsrc(x, y)
    out = Grid(geom, adet * warped.values, source=src)
    return Filter(out, new_radius)


def _profile_callable(profile) -> Callable[[np.ndarray], np.ndarray]:
    if callable(profile):
        return profile
    radii, values = profile
    radii = np.asarray(radii, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    return lambda r: np.interp(r, radii, values, left=values[0], right=0.0)


def radial_filter(profile, geometry: GridGeometry) -> Filter:
    """lam(x) = profile(|x|), truncated to the inscribed disc |x| <= extent.

    profile is a vectorized callable on radius, or a (radii, values) table
    interpolated linearly (zero beyond the last knot).
    """
    prof = _profile_callable(profile)
    R = geometry.extent

    def src(x, y):
        r = np.hypot(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
        return np.where(r <= R, prof(r), 0.0)

    g = render(geometry, src)
    radius = support_estimate(g, 0.0).radius
    return Filter(g, radius)


def gaussian_filter(sigma: float, geometry: GridGeometry, amplitude: float = 1.0) -> Filter:
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    s2 = 2.0 * sigma * sigma
    return radial_filter(lambda r: amplitude * np.exp(-(r * r) / s2), geometry)


def ring_filter(
    r0: float, width: float, geometry: GridGeometry, amplitude: float = 1.0
) -> Filter:
    """An annular profile peaking at radius r0."""
    if width <= 0:
        raise ValueError("width must be positive")
    w2 = 2.0 * width * width
    return radial_filter(lambda r: amplitude * np.exp(-((r - r0) ** 2) / w2), geometry)


def impulse_filter(geometry: GridGeometry) -> Filter:
    """Discrete unit-mass impulse: a single center sample of value 1/h^2."""
    n = geometry.size
    vals = np.zeros((n, n))
    h = geometry.spacing
    vals[geometry.half_count, geometry.half_count] = 1.0 / (h * h)
    return Filter(Grid(geometry, vals), 0.0)


def n_fold_symmetrize(lam: Filter, T: LinearMap2, n: int) -> Filter:
    """Average of lam over the orbit {T^j : j < n}; requires T to have finite
    order dividing n, and returns a fixed point of the filter transform."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        return lam
    cls = classify(T)
    if cls.kind == "identity":
        order = 1
    elif cls.kind in ("elliptic_finite_order", "reflection_conjugate"):
        order = cls.order
    else:
        raise TransformClassError(f"map {T} has no finite order (kind {cls.kind})")
    if order is None or n % order != 0:
        raise TransformClassError(f"map order {order} does not divide n = {n}")
    h = lam.spacing
    powers = [iterate(T, j) for j in range(n)]
    halo = lam.support_radius + math.sqrt(2.0) * h
    radius = max(p.operator_norm() * halo for p in powers)
    geom = GridGeometry(max(lam.grid.extent, radius), h)
    acc = None
    sources = []
    for p in powers:
        term = resample_affine(lam.grid, p, geometry=geom)
        acc = term.values if acc is None else acc + term.values
        sources.append(term.source)
    vals = acc / float(n)
    src = None
    if all(s is not None for s in sources):
        src = lambda x, y: sum(s(x, y) for s in sources) / float(n)
    return Filter(Grid(geom, vals, source=src), radius)


def elliptic_ring_filter(B: LinearMap2, profile, geometry: GridGeometry) -> Filter:
    """lam(x) = profile(|B x|): constant on the concentric ellipses |Bx| = const,
    hence invariant under B^-1 R(theta) B for every angle."""
    prof = _profile_callable(profile)
    R = geometry.extent

    def src(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        r = np.hypot(B.a * x + B.b * y, B.c * x + B.d * y)
        return np.where(np.hypot(x, y) <= R, prof(r), 0.0)

    g = render(geometry, src)
    radius = support_estimate(g, 0.0).radius
    return Filter(g, radius)


def smooth_window(t: np.ndarray) -> np.ndarray:
    """C-infinity taper: exp(1 - 1/(1 - t^2)) for |t| < 1, zero beyond."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape, dtype=np.float64)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


def random_blob_filter(
    geometry: GridGeometry,
    radius: float,
    rng: np.random.Generator,
    n_blobs: int = 4,
    amplitude: float = 1.0,
) -> Filter:
    """Smooth random filter: a windowed sum of random Gaussian blobs supported
    inside |x| <= radius. Generically asymmetric."""
    if radius <= 0 or radius > geometry.extent + _RADIUS_TOL:
        raise ValueError(f"radius {radius} must lie in (0, extent {geometry.extent}]")
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n_blobs)
    dists = rng.uniform(0.15, 0.6, size=n_blobs) * radius
    cxs = dists * np.cos(angles)
    cys = dists * np.sin(angles)
    sigmas = rng.uniform(0.15, 0.3, size=n_blobs) * radius
    amps = rng.uniform(0.4, 1.0, size=n_blobs) * rng.choice([-1.0, 1.0], size=n_blobs)

    def src(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        acc = np.zeros(np.broadcast(x, y).shape, dtype=np.float64)
        for cx, cy, s, a in zip(cxs, cys, sigmas, amps):
            acc += a * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * s * s))
        return acc * smooth_window(np.hypot(x, y) / radius)

    g = render(geometry, src)
    peak = g.sup_norm()
    if peak > 0:
        scale = amplitude / peak
        gsrc = g.source
        g = Grid(geometry, g.values * scale, source=lambda x, y: scale * gsrc(x, y))
    # the window zeroes everything at |x| >= radius, so radius is a valid bound
    return Filter(g, radius)


def random_radial_filter(
    geometry: GridGeometry,
    radius: float,
    rng: np.random.Generator,
    n_modes: int = 3,
    amplitude: float = 1.0,
) -> Filter:
    """Random rotation-invariant filter: windowed random radial rings."""
    if radius <= 0 or radius > geometry.extent + _RADIUS_TOL:
        raise ValueError(f"radius {radius} must lie in (0, extent {geometry.extent}]")
    centers = rng.uniform(0.0, 0.7, size=n_modes) * radius
    widths = rng.uniform(0.15, 0.35, size=n_modes) * radius
    amps = rng.uniform(0.4, 1.0, size=n_modes) * rng.choice([-1.0, 1.0], size=n_modes)

    def prof(r):
        r = np.asarray(r, dtype=np.float64)
        acc = np.zeros(r.shape, dtype=np.float64)
        for c, w, a in zip(centers, widths, amps):
            acc += a * np.exp(-((r - c) ** 2) / (2.0 * w * w))
        return acc * smooth_window(r / radius)

    lam = radial_filter(prof, geometry)
    peak = lam.grid.sup_norm()
    if peak > 0:
        scale = amplitude / peak
        gsrc = lam.grid.source
        g = Grid(geometry, lam.grid.values * scale, source=lambda x, y: scale * gsrc(x, y))
        lam = Filter(g, lam.support_radius)
    return lam


def refine_filter(lam: Filter, factor: int) -> Filter:
    """Same filter at spacing/factor (re-rendered from its source when present).

    Finer sampling can reveal support the coarse measurement missed, so the
    radius is re-measured and can only grow toward the true bound.
    """
    g = refine(lam.grid, factor)
    measured = support_estimate(g, 0.0).radius
    return Filter(g, max(lam.support_radius, measured))


def refine_model(model: CnnModel, factor: int) -> CnnModel:
    layers = tuple(
        ConvLayer(
            tuple(tuple(refine_filter(k, factor) for k in row) for row in layer.kernels),
            layer.biases,
            layer.nonlinearity,
        )
        for layer in model.layers
    )
    return CnnModel(layers)


def embed_filter(lam: Filter, geometry: GridGeometry) -> Filter:
    """Zero-pad a filter onto a larger same-spacing geometry (sample-exact)."""
    return Filter(embed(lam.grid, geometry), lam.support_radius)


# ---------------------------------------------------------------------------
# model (de)serialization


def _filter_to_json(lam: Filter) -> dict:
    return {
        "values": [[float(v) for v in row] for row in lam.grid.values],
        "spacing": lam.spacing,
        "support_radius": lam.support_radius,
    }


def _filter_from_json(obj: dict) -> Filter:
    try:
        values = np.asarray(obj["values"], dtype=np.float64)
        spacing = float(obj["spacing"])
        radius = float(obj["support_radius"])
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidModelError(f"bad filter reference: {e}") from None
    if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] % 2 == 0:
        raise InvalidModelError(
            f"filter values must be a square odd-sided array, got shape {values.shape}"
        )
    m = values.shape[0] // 2
    geom = GridGeometry(max(m, 1) * spacing, spacing)
    if geom.size != values.shape[0]:
        raise InvalidModelError("filter geometry does not reproduce the array size")
    try:
        return Filter(Grid(geom, values), radius)
    except ValueError as e:
        raise InvalidModelError(str(e)) from None


def model_to_json(model: CnnModel) -> dict:
    return {
        "layers": [
            {
                "kernels": [[_filter_to_json(k) for k in row] for row in layer.kernels],
                "biases": list(layer.biases),
                "nonlinearity": layer.nonlinearity.to_string(),
            }
            for layer in model.layers
        ]
    }


def model_from_json(obj: dict) -> CnnModel:
    if not isinstance(obj, dict) or "layers" not in obj:
        raise InvalidModelError("model JSON must be an object with a 'layers' list")
    layers = []
    for i, spec in enumerate(obj["layers"]):
        try:
            kernels = tuple(
                tuple(_filter_from_json(k) for k in row) for row in spec["kernels"]
            )
            biases = tuple(float(b) for b in spec["biases"])
            nl = Nonlinearity.parse(spec["nonlinearity"])
        except InvalidModelError:
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidModelError(f"bad layer {i}: {e}") from None
        try:
            layers.append(ConvLayer(kernels, biases, nl))
        except (ValueError, GeometryMismatchError) as e:
            raise InvalidModelError(f"bad layer {i}: {e}") from None
    try:
        return CnnModel(tuple(layers))
    except ValueError as e:
        raise InvalidModelError(str(e)) from None


def save_model(model: CnnModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_json(model), indent=2, sort_keys=True))


def load_model(path) -> CnnModel:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise InvalidModelError(f"cannot read model file {path}: {e}") from None
    return model_from_json(obj)


# ---------------------------------------------------------------------------
# model synthesis


def json_integer(value, what: str) -> int:
    """``value`` as an int; a bool, a fractional or an infinite float is a ValueError."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if isinstance(value, bool) or (isinstance(value, float) and value != n):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return n


def build_model(recipe: dict, spacing: float, rng: np.random.Generator) -> CnnModel:
    """Synthesize a model from a recipe dict:

    {layers, channels, kernel_radius, nonlinearity, symmetrization, n_fold, bias_scale}

    symmetrization: 'radial' (rotation-invariant random profiles), 'n_fold'
    (random filters averaged over the rotation orbit of order n_fold), or
    'none' (raw random blobs). A softmax nonlinearity applies only to the
    final layer, with relu before it.
    """
    known = {
        "layers",
        "channels",
        "kernel_radius",
        "nonlinearity",
        "symmetrization",
        "n_fold",
        "bias_scale",
    }
    extra = set(recipe) - known
    if extra:
        raise ValueError(f"unknown model recipe keys: {sorted(extra)}")
    L = json_integer(recipe.get("layers", 1), "model.layers")
    C = json_integer(recipe.get("channels", 1), "model.channels")
    n_fold = json_integer(recipe.get("n_fold", 4), "model.n_fold")
    try:
        radius = float(recipe.get("kernel_radius", 0.24))
        bias_scale = float(recipe.get("bias_scale", 0.0))
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"bad model recipe value: {e}") from None
    nl = Nonlinearity.parse(recipe.get("nonlinearity", "identity"))
    sym = recipe.get("symmetrization", "radial")
    if L < 1 or C < 1 or n_fold < 1:
        raise ValueError("layers, channels and n_fold must be >= 1")
    if sym not in ("radial", "n_fold", "none"):
        raise ValueError(f"unknown symmetrization {sym!r}")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"model.kernel_radius must be positive and finite, got {radius!r}")
    if radius < spacing:
        raise ValueError(
            f"model.kernel_radius {radius!r} is below the spacing {spacing!r}: "
            f"a kernel needs at least one sample on each side of its center"
        )
    geom = GridGeometry(radius, spacing)

    def make_kernel() -> Filter:
        if sym == "radial":
            return random_radial_filter(geom, radius, rng)
        raw = random_blob_filter(geom, radius, rng)
        if sym == "none":
            return raw
        return n_fold_symmetrize(raw, LinearMap2.rotation(360.0 / n_fold), n_fold)

    layers = []
    for i in range(L):
        in_c = 1 if i == 0 else C
        kernels = tuple(tuple(make_kernel() for _ in range(C)) for _ in range(in_c))
        biases = tuple(float(b) for b in rng.normal(0.0, 1.0, size=C) * bias_scale)
        if nl.kind == "softmax":
            layer_nl = nl if i == L - 1 else Nonlinearity("relu")
        else:
            layer_nl = nl
        layers.append(ConvLayer(kernels, biases, layer_nl))
    return CnnModel(tuple(layers))
