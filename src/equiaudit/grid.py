"""Sampled scalar fields on a regular 2D lattice.

Conventions used throughout the package:

- The domain is the square [-R, R]^2 with lattice step h; R snaps up to an
  integer multiple of h so the sample count per axis is odd (2m+1) and the
  spatial origin lies exactly on the center sample.
- values[i, j] holds the sample at x = (j - m)*h, y = (m - i)*h, i.e. row 0
  is the top row (maximum y) and columns increase with x.
- Reads outside the domain are 0 (compact-support convention).
- Every Grid carries its box: the half-open index box (r0, r1, c0, c1) of
  the samples whose bits are not +0.0, so every sample outside it is
  exactly +0.0 (None when all are). It is found once, when the grid is
  made, and the operations read it rather than scan, copy or difference
  the whole domain to find or skip zeros. The public constructor copies
  its array, which the caller may still hold, and scans the copy. Only the
  package's producers (convolve, layer_forward, the warp core, render,
  _sum_grids), which have just built a float64 array that nothing else
  holds, hand it over without a copy through ``Grid._adopt``, with the
  region they wrote: the scan then reads only that region, and the
  finiteness check only the box.
- A source that is +0.0 outside a known rectangle (a bump, a sum of bumps
  such as a glyph) carries it, and ``render`` evaluates it only on the
  samples of that rectangle, so re-rendering a bump costs O(disc).
- Interpolation is bilinear everywhere. Sample coordinates that land within
  1e-9 index units of a lattice node snap to it, so lattice-preserving maps
  (integer shifts, 90-degree rotations) reproduce samples exactly instead of
  picking up unit-last-place interpolation noise.
- One bilinear core serves ``sample_at`` and the one warp core, which
  ``resample_affine``, ``translate`` and the source-free ``refine`` share.
  It reads an index box of the samples, padded with +0.0, and adds the four
  weighted corners onto +0.0 in the fixed order (0,0), (0,1), (1,0), (1,1).
  Since a zero read of either sign then changes no bit, the warp core
  interpolates only near the input's box, writes +0.0 everywhere
  else, and equals the whole-domain computation bit for bit. It pads the
  box once and interpolates the output in strips of whole rows of about
  _STRIP_SAMPLES samples, so its temporaries scale with a strip, not with
  the warped box. A lattice
  read has weights (1, 0, 0, 0) and returns the sample itself, except that
  a -0.0 sample reads +0.0.
- A GridCrop holds a field as its support: the geometry, an index box and
  the samples inside it. ``GridCrop.of(f).expand()`` gives back f's samples
  byte for byte.
- Integrals are Riemann sums with weight h^2, accumulated by a fixed
  row-major pairwise reduction so results do not depend on threading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainFitError, GeometryMismatchError
from .transform import LinearMap2

__all__ = [
    "GridGeometry",
    "Grid",
    "GridCrop",
    "FeatureStack",
    "SupportEstimate",
    "pairwise_sum",
    "render",
    "zeros",
    "make_bump",
    "translate",
    "resample_affine",
    "distance",
    "support_estimate",
    "refine",
    "subsample",
    "embed",
    "interior_mask",
]

_SNAP = 1e-9  # lattice snap tolerance, in index units
_STRIP_SAMPLES = 8192  # output samples per bilinear pass of _warp, in whole rows


def pairwise_sum(a: np.ndarray) -> float:
    """Sum of all entries by pairwise tree reduction over row-major order.

    The reduction order is fixed by the array layout alone, so the result is
    bit-reproducible regardless of how callers parallelize around it.
    """
    flat = np.ascontiguousarray(a, dtype=np.float64).reshape(-1)
    if flat.size == 0:
        return 0.0
    while flat.size > 1:
        k = 2 * (flat.size // 2)
        head = flat[0:k:2] + flat[1:k:2]
        if flat.size % 2:
            head = np.append(head, flat[-1])
        flat = head
    return float(flat[0])


def _close(a: float, b: float) -> bool:
    """|a - b| <= 1e-12 |b|: numpy.isclose with atol=0 on two Python floats."""
    return bool(abs(a - b) <= 1e-12 * abs(b))


def _snap_indices(t: np.ndarray) -> np.ndarray:
    r = np.round(t)
    return np.where(np.abs(t - r) <= _SNAP, r, t)


def _bounding_box(
    nz: np.ndarray, r0: int = 0, c0: int = 0
) -> Optional[Tuple[int, int, int, int]]:
    """Half-open bounding box (r0, r1, c0, c1) of the set entries of a
    boolean array, shifted by (r0, c0), or None when none is set."""
    rows = np.flatnonzero(nz.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(nz.any(axis=0))
    return int(rows[0]) + r0, int(rows[-1]) + 1 + r0, int(cols[0]) + c0, int(cols[-1]) + 1 + c0


def _nonzero_box(
    values: np.ndarray, within: Tuple[int, int, int, int]
) -> Optional[Tuple[int, int, int, int]]:
    """Half-open bounding box (r0, r1, c0, c1) of the nonzero samples, or None,
    scanning only the index box ``within``, which must hold all of them.

    Samples equal to 0.0 (either sign) are outside the box, so every sample
    outside it is +0.0 or -0.0.
    """
    r0, r1, c0, c1 = within
    return _bounding_box(values[r0:r1, c0:c1] != 0.0, r0, c0)


def _bits_box(
    values: np.ndarray, within: Tuple[int, int, int, int]
) -> Optional[Tuple[int, int, int, int]]:
    """Half-open bounding box of the samples whose bits are not +0.0 (a -0.0
    sample is inside), or None, scanning only the index box ``within``, which
    must hold all of them."""
    r0, r1, c0, c1 = within
    return _bounding_box(values[r0:r1, c0:c1].view(np.uint64) != 0, r0, c0)


def _union(*boxes) -> Optional[Tuple[int, int, int, int]]:
    """The smallest box (lo0, hi0, lo1, hi1) holding every given box, of
    indices or coordinates; a None (empty) box is skipped, and the union of
    empty boxes is None."""
    boxes = [b for b in boxes if b is not None]
    if not boxes:
        return None
    return (
        min(b[0] for b in boxes),
        max(b[1] for b in boxes),
        min(b[2] for b in boxes),
        max(b[3] for b in boxes),
    )


def _index_coords(geometry: "GridGeometry", xs, ys) -> Tuple[np.ndarray, np.ndarray]:
    """Snapped fractional (row, column) index coordinates of spatial points,
    broadcast against each other."""
    h = geometry.spacing
    m = geometry.half_count
    col = _snap_indices(np.asarray(xs, dtype=np.float64) / h + m)
    row = _snap_indices(m - np.asarray(ys, dtype=np.float64) / h)
    col, row = np.broadcast_arrays(col, row)
    return row, col


def _padded_box(values: np.ndarray, box: Tuple[int, int, int, int]) -> np.ndarray:
    """A copy of the half-open index ``box`` (r0, r1, c0, c1) of ``values``
    with a two-sample +0.0 border: the samples :func:`_bilinear` reads."""
    r0, r1, c0, c1 = box
    padded = np.zeros((r1 - r0 + 4, c1 - c0 + 4), dtype=np.float64)
    padded[2:-2, 2:-2] = values[r0:r1, c0:c1]
    return padded


def _bilinear(
    padded: np.ndarray, box: Tuple[int, int, int, int], row: np.ndarray, col: np.ndarray
) -> np.ndarray:
    """Bilinear reads at fractional index coordinates of a field of which
    ``padded`` is the :func:`_padded_box` of the half-open index ``box``
    (r0, r1, c0, c1); every sample outside the box reads as zero.

    Each floored index is clipped into [r0 - 2, r1] (columns likewise): a
    corner whose index lies outside the box then reads only border zeros.
    The four corners are read with one flat index. Each point gets the
    weights (1-fr)(1-fc), (1-fr)fc, fr(1-fc) and fr*fc, added in the corner
    order (0,0), (0,1), (1,0), (1,1) onto +0.0, so a zero read of either sign
    changes no bit: callers may pass any box outside which the field holds
    only zeros. Each point's result depends on its own coordinates alone.
    A coordinate whose floor does not fit an int64 casts to an arbitrary
    index, which the clip keeps inside ``padded``; a caller that must read
    such a point as outside the box clips the coordinate first.
    """
    r0, r1, c0, c1 = box
    width = padded.shape[1]
    fl_r = np.floor(row).astype(np.int64)
    fl_c = np.floor(col).astype(np.int64)
    fr = row - fl_r
    fc = col - fl_c
    flat = (np.clip(fl_r, r0 - 2, r1) - (r0 - 2)) * width
    flat += np.clip(fl_c, c0 - 2, c1) - (c0 - 2)
    gr = 1.0 - fr
    gc = 1.0 - fc
    out = np.zeros(row.shape, dtype=np.float64)
    out += gr * gc * padded.take(flat)
    out += gr * fc * padded.take(flat + 1)
    out += fr * gc * padded.take(flat + width)
    out += fr * fc * padded.take(flat + (width + 1))
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class GridGeometry:
    """Lattice layout: half-width ``extent`` (snapped to the lattice) and step ``spacing``."""

    extent: float
    spacing: float

    def __post_init__(self):
        if not np.isfinite(self.spacing) or self.spacing <= 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if not np.isfinite(self.extent) or self.extent <= 0:
            raise ValueError(f"extent must be positive, got {self.extent}")
        ratio = self.extent / self.spacing
        side = 2.0 * ratio + 1.0
        # a field of this lattice must be addressable as one float64 array;
        # a product overflows to inf where ** would raise OverflowError
        if not 8.0 * side * side <= np.iinfo(np.intp).max:
            raise ValueError(
                f"spacing {self.spacing} over half-width {self.extent} gives a grid"
                " too large to address"
            )
        m = max(1, int(np.ceil(ratio - _SNAP)))
        object.__setattr__(self, "extent", m * self.spacing)

    @property
    def half_count(self) -> int:
        return int(round(self.extent / self.spacing))

    @property
    def size(self) -> int:
        return 2 * self.half_count + 1

    def axis(self) -> np.ndarray:
        """x coordinates of the columns, ascending."""
        m = self.half_count
        return np.arange(-m, m + 1, dtype=np.float64) * self.spacing

    def coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """Meshes X, Y with X[i, j] = x_j and Y[i, j] = y_i (row 0 = max y)."""
        ax = self.axis()
        return np.meshgrid(ax, ax[::-1])

    def close_to(self, other: "GridGeometry") -> bool:
        """Same size, and spacings equal to within 1e-12 relative."""
        return _close(self.spacing, other.spacing) and self.size == other.size


@dataclass(frozen=True, eq=False)
class Grid:
    """Immutable sampled field, optionally carrying the analytic source it was rendered from.

    The source, when present, is a vectorized callable ``(x, y) -> values``
    used by :func:`refine` to re-render at finer spacing instead of
    interpolating; all other operations work on the samples.

    ``box`` is the half-open index box (r0, r1, c0, c1) bounding every
    sample whose bits are not +0.0 (a -0.0 sample is inside it), or None
    when every sample is +0.0; every sample outside it is exactly +0.0. It
    is found once, when the grid is made, and the operations read it
    instead of scanning the samples again. ``Grid(geometry, values)`` copies
    ``values``, which its caller may still hold, scans the copy for the box
    and rejects non-finite samples. Only the package's own producers, which
    have just built a float64 array that nothing else holds, hand it over
    without a copy (:meth:`_adopt`), naming the region they wrote: the box
    scan then reads only that region, and the finiteness check only the box.
    """

    geometry: GridGeometry
    values: np.ndarray
    source: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    box: Optional[Tuple[int, int, int, int]] = field(init=False, repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        n = self.geometry.size
        if vals.shape != (n, n):
            raise GeometryMismatchError(
                f"values shape {vals.shape} does not match geometry ({n}, {n})"
            )
        self._take(vals, (0, n, 0, n))

    @classmethod
    def _adopt(
        cls,
        geometry: GridGeometry,
        values: np.ndarray,
        region: Optional[Tuple[int, int, int, int]],
        source: Optional[Callable] = None,
    ) -> "Grid":
        """A grid that owns ``values``, a float64 array of the geometry's
        shape that the caller has just built and will not write again,
        without a copy. Every sample outside the index box ``region`` (None
        when nothing was written) must be +0.0."""
        g = object.__new__(cls)
        object.__setattr__(g, "geometry", geometry)
        object.__setattr__(g, "source", source)
        g._take(values, region)
        return g

    def _take(self, vals: np.ndarray, region) -> None:
        box = None if region is None else _bits_box(vals, region)
        if box is not None:
            r0, r1, c0, c1 = box
            if not np.isfinite(vals[r0:r1, c0:c1]).all():
                raise ValueError("grid values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "box", box)

    @property
    def spacing(self) -> float:
        return self.geometry.spacing

    @property
    def extent(self) -> float:
        return self.geometry.extent

    @property
    def origin_value(self) -> float:
        m = self.geometry.half_count
        return float(self.values[m, m])

    def sample_at(self, xs, ys) -> np.ndarray:
        """Bilinear interpolation at spatial points; reads outside the domain are 0.

        Every call copies the grid's box once into :func:`_padded_box`. A
        point outside the domain reads 0.0 and a NaN coordinate gives NaN, as
        on an unbounded zero-extended grid.
        """
        row, col = _index_coords(self.geometry, xs, ys)
        box = self.box or (0, 0, 0, 0)
        return _bilinear(_padded_box(self.values, box), box, row, col)

    def integral(self) -> float:
        h = self.geometry.spacing
        return pairwise_sum(self.values) * h * h

    def l1_norm(self) -> float:
        h = self.geometry.spacing
        return pairwise_sum(np.abs(self.values)) * h * h

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True, eq=False)
class GridCrop:
    """A field held as its support: the geometry, a half-open index ``box``
    (r0, r1, c0, c1) and the read-only samples inside it. Every sample
    outside the box is +0.0."""

    geometry: GridGeometry
    box: Tuple[int, int, int, int]
    values: np.ndarray

    @classmethod
    def of(cls, f: Grid) -> "GridCrop":
        """f cropped to its box, which bounds every sample whose bits are not
        +0.0, so a -0.0 sample stays inside and :meth:`expand` gives back f's
        samples byte for byte. The source is not kept."""
        box = f.box or (0, 0, 0, 0)
        r0, r1, c0, c1 = box
        vals = f.values[r0:r1, c0:c1].copy()
        vals.setflags(write=False)
        return cls(f.geometry, box, vals)

    def expand(self) -> Grid:
        """The whole-domain grid: the box's samples in a field of +0.0."""
        n = self.geometry.size
        r0, r1, c0, c1 = self.box
        vals = np.zeros((n, n), dtype=np.float64)
        vals[r0:r1, c0:c1] = self.values
        return Grid._adopt(self.geometry, vals, self.box)


@dataclass(frozen=True, eq=False)
class FeatureStack:
    """An ordered collection of channels sharing one geometry."""

    channels: Tuple[Grid, ...]

    def __post_init__(self):
        chans = tuple(self.channels)
        if not chans:
            raise ValueError("a feature stack needs at least one channel")
        g0 = chans[0].geometry
        for c in chans[1:]:
            if not c.geometry.close_to(g0):
                raise GeometryMismatchError("feature stack channels differ in geometry")
        object.__setattr__(self, "channels", chans)

    @property
    def geometry(self) -> GridGeometry:
        return self.channels[0].geometry

    @property
    def channel_count(self) -> int:
        return len(self.channels)

    def values3d(self) -> np.ndarray:
        return np.stack([c.values for c in self.channels], axis=0)


@dataclass(frozen=True)
class SupportEstimate:
    """Measured support of a sampled field: area above a threshold and its radius."""

    threshold: float
    measure: float
    radius: float


class _RectSource:
    """A source that is exactly +0.0 outside the closed rectangle ``rect`` =
    (x0, x1, y0, y1), so :func:`render` evaluates it only near the
    rectangle."""

    __slots__ = ("fn", "rect")

    def __init__(self, fn: Callable, rect: Tuple[float, float, float, float]):
        self.fn = fn
        self.rect = rect

    def __call__(self, x, y):
        return self.fn(x, y)


def _sum_grids(grids: Sequence[Grid]) -> Grid:
    """The sum of same-geometry grids: the first copied, each next one added
    in order, on the union of their boxes (outside it every term is +0.0);
    the source is the sum of the sources when every grid has one, and it
    keeps the union of their rectangles when every source has one."""
    geom = grids[0].geometry
    n = geom.size
    vals = np.zeros((n, n), dtype=np.float64)
    region = _union(*(g.box for g in grids))
    if region is not None:
        r0, r1, c0, c1 = region
        part = vals[r0:r1, c0:c1]
        part[...] = grids[0].values[r0:r1, c0:c1]
        for g in grids[1:]:
            part += g.values[r0:r1, c0:c1]
    src = None
    if all(g.source is not None for g in grids):
        sources = [g.source for g in grids]
        src = lambda x, y: sum(s(x, y) for s in sources)
        if all(isinstance(s, _RectSource) for s in sources):
            src = _RectSource(src, _union(*(s.rect for s in sources)))
    return Grid._adopt(geom, vals, region, src)


def _lattice_box(
    geometry: GridGeometry, rect: Tuple[float, float, float, float]
) -> Tuple[int, int, int, int]:
    """The half-open index box of the samples that lie in the closed
    rectangle (x0, x1, y0, y1), grown by one sample on every side against
    rounding and clipped to the domain."""
    x0, x1, y0, y1 = rect
    h, m, n = geometry.spacing, geometry.half_count, geometry.size
    bounds = (
        math.floor(m - y1 / h) - 1,
        math.ceil(m - y0 / h) + 2,
        math.floor(x0 / h + m) - 1,
        math.ceil(x1 / h + m) + 2,
    )
    return tuple(min(max(v, 0), n) for v in bounds)


def _lattice_coords(
    geometry: GridGeometry, box: Tuple[int, int, int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only x and y coordinates of the samples of an index box: the
    values of coords() there, as broadcast views of the axes rather than
    two meshes."""
    r0, r1, c0, c1 = box
    ax = geometry.axis()
    shape = (r1 - r0, c1 - c0)
    return (
        np.broadcast_to(ax[c0:c1], shape),
        np.broadcast_to(ax[::-1][r0:r1, np.newaxis], shape),
    )


def render(geometry: GridGeometry, source: Callable) -> Grid:
    """Evaluate a vectorized analytic source on the lattice and keep it attached.

    The source receives the sample coordinates as read-only (n, n) arrays. A
    source of the package that is +0.0 outside a known rectangle (a bump, a
    glyph) is evaluated only on the samples of that rectangle, with a
    one-sample margin; every other sample is +0.0, as the source would give.
    """
    n = geometry.size
    if not isinstance(source, _RectSource):
        vals = source(*_lattice_coords(geometry, (0, n, 0, n)))
        # a source may return an array it keeps, so this one is copied
        return Grid(geometry, np.asarray(vals, dtype=np.float64), source=source)
    r0, r1, c0, c1 = region = _lattice_box(geometry, source.rect)
    vals = np.zeros((n, n), dtype=np.float64)
    vals[r0:r1, c0:c1] = source(*_lattice_coords(geometry, region))
    return Grid._adopt(geometry, vals, region, source)


def zeros(geometry: GridGeometry) -> Grid:
    n = geometry.size
    return Grid._adopt(geometry, np.zeros((n, n)), None)


def make_bump(
    center: Sequence[float],
    radius: float,
    amplitude: float,
    geometry: GridGeometry,
) -> Grid:
    """Smooth compactly supported bump: amplitude * exp(1 - 1/(1 - t^2)) for
    t = |x - center|/radius < 1, exactly 0 outside the open ball.

    The profile is the classical C-infinity mollifier shape normalized so the
    value at the center equals ``amplitude`` exactly. Only the samples of
    the ball's bounding square are evaluated.
    """
    if radius <= 0:
        raise ValueError(f"bump radius must be positive, got {radius}")
    cx, cy = float(center[0]), float(center[1])
    R = geometry.extent
    if abs(cx) + radius > R + 1e-12 or abs(cy) + radius > R + 1e-12:
        raise DomainFitError(
            f"bump at ({cx}, {cy}) with radius {radius} does not fit in extent {R}"
        )
    r2 = radius * radius
    amp = float(amplitude)

    def src(x, y):
        t2 = ((np.asarray(x, dtype=np.float64) - cx) ** 2 + (np.asarray(y) - cy) ** 2) / r2
        t2 = np.atleast_1d(t2)
        out = np.zeros(t2.shape, dtype=np.float64)
        inside = t2 < 1.0
        out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - t2[inside]))
        return out.reshape(np.shape(t2))

    rect = (cx - radius, cx + radius, cy - radius, cy + radius)
    return render(geometry, _RectSource(src, rect))


def translate(f: Grid, delta: Sequence[float]) -> Grid:
    """Shift the field by delta: out(x) = f(x - delta).

    The warp core with T = identity and offset delta, the same bits as
    interpolating the whole domain; a lattice delta reads every sample
    exactly (zero fill at the boundary). A delta that is not finite is a
    ValueError.
    """
    dx, dy = float(delta[0]), float(delta[1])
    if not (math.isfinite(dx) and math.isfinite(dy)):
        raise ValueError(f"translate delta must be finite, got ({dx}, {dy})")
    src = None
    if f.source is not None:
        fsrc = f.source
        src = lambda x, y: fsrc(np.asarray(x) - dx, np.asarray(y) - dy)
    ident = LinearMap2.identity()
    return _warp(f, ident, ident, (dx, dy), f.geometry, src)


def resample_affine(f: Grid, T, geometry: Optional[GridGeometry] = None) -> Grid:
    """Warp by a 2x2 map: out(x) = f(T^-1 x), bilinear, 0 outside f's domain.

    The output keeps f's geometry unless another one is supplied. Every map,
    the identity included, goes through the warp core, whose work scales
    with f's support, not the domain.
    """
    inv = T.inverse()  # raises SingularMapError for singular T
    geom = f.geometry if geometry is None else geometry
    src = None
    if f.source is not None:
        fsrc = f.source
        ia, ib, ic, id_ = inv.a, inv.b, inv.c, inv.d
        src = lambda x, y: fsrc(
            ia * np.asarray(x) + ib * np.asarray(y),
            ic * np.asarray(x) + id_ * np.asarray(y),
        )
    return _warp(f, T, inv, (0.0, 0.0), geom, src)


def _warp(f: Grid, T, inv, offset, geometry: GridGeometry, source) -> Grid:
    """The one warp: out(x) = f(T^-1 (x - offset)) on ``geometry``,
    bilinear, with ``inv`` = T^-1 and ``source`` attached. Only the output
    samples in ``_warped_box`` can read f's box; the rest stay +0.0.
    The offset is subtracted from the 1-D axes, and x - 0.0 is x.

    f's box is padded once; the read coordinates and the bilinear reads are
    computed a strip of whole output rows at a time, at most _STRIP_SAMPLES
    samples or one row. Every sample goes through the same operations as in
    one pass over the box, so the bits are the same too."""
    n = geometry.size
    out = np.zeros((n, n), dtype=np.float64)
    box, region = f.box, None
    if box is not None:
        a, b, c, d = region = _warped_box(box, f.geometry, T, offset, geometry)
        if a < b and c < d:
            padded = _padded_box(f.values, box)
            ax = geometry.axis()
            X = ax[c:d][np.newaxis, :] - offset[0]
            Y = ax[::-1][:, np.newaxis] - offset[1]
            step = max(1, _STRIP_SAMPLES // (d - c))
            for s in range(a, b, step):
                e = min(s + step, b)
                Ys = Y[s:e]
                row, col = _index_coords(
                    f.geometry, inv.a * X + inv.b * Ys, inv.c * X + inv.d * Ys
                )
                # a point clipped to the box border reads only border zeros,
                # as it would unclipped, and casts to int64 without overflow
                np.clip(row, box[0] - 2, box[1], out=row)
                np.clip(col, box[2] - 2, box[3], out=col)
                out[s:e, c:d] = _bilinear(padded, box, row, col)
    return Grid._adopt(geometry, out, region, source)


def _warped_box(
    box: Tuple[int, int, int, int], source: GridGeometry, T, offset, target: GridGeometry
) -> Tuple[int, int, int, int]:
    """Half-open (row, column) index box of ``target`` holding T applied to
    the source index ``box`` grown by two samples and shifted by ``offset``,
    clipped to ``target``.

    A bilinear read at a point whose floored index lies outside the box one
    sample wider touches only zero samples; the second sample and the
    one-sample rounding of the output box absorb rounding in T and T^-1.
    """
    r0, r1, c0, c1 = box
    h, m = source.spacing, source.half_count
    xs = ((c0 - 2 - m) * h, (c1 + 1 - m) * h)
    ys = ((m - r1 - 1) * h, (m - r0 + 2) * h)
    px = [T.a * x + T.b * y + offset[0] for x in xs for y in ys]
    py = [T.c * x + T.d * y + offset[1] for x in xs for y in ys]
    ht, mt, nt = target.spacing, target.half_count, target.size
    rows = (mt - max(py) / ht, mt - min(py) / ht)
    cols = (min(px) / ht + mt, max(px) / ht + mt)
    bounds = (
        np.floor(rows[0]) - 1,
        np.ceil(rows[1]) + 2,
        np.floor(cols[0]) - 1,
        np.ceil(cols[1]) + 2,
    )
    return tuple(int(v) for v in np.clip(bounds, 0, nt))


def distance(
    f: Grid, g: Grid, norm: str = "sup", mask: Optional[np.ndarray] = None
) -> float:
    """The package's one residual: how far apart two same-geometry fields are,
    over the samples where ``mask``, a boolean array of the fields' shape, is
    set (every sample when it is None).

    'sup' = max |f - g| over those samples, 0.0 for an empty mask;
    'l1' = h^2-weighted sum of |f - g| with every unmasked sample counted as
    +0.0, in pairwise_sum's fixed reduction order.

    Outside the union of the two grids' boxes both fields are +0.0, so 'sup'
    reads only that union (and the mask sliced to it). 'l1' stays
    whole-domain: pairwise_sum's reduction tree follows the flat layout of
    the whole array, so a sum over the union alone would round differently.
    """
    if not f.geometry.close_to(g.geometry):
        raise GeometryMismatchError(
            f"cannot compare geometries {f.geometry} and {g.geometry}"
        )
    key = norm.lower()
    if key not in ("sup", "l1"):
        raise ValueError(f"unknown norm {norm!r}; expected 'sup' or 'l1'")
    shape = f.values.shape
    if mask is not None and (getattr(mask, "dtype", None) != bool or mask.shape != shape):
        raise ValueError(f"mask must be a boolean array of shape {shape}")
    if key == "sup":
        region = _union(f.box, g.box)
        if region is None:
            return 0.0
        r0, r1, c0, c1 = region
        part = np.s_[r0:r1, c0:c1]
        a, b = f.values[part], g.values[part]
        mask = None if mask is None else mask[part]
    else:
        a, b = f.values, g.values
    diff = np.subtract(a, b)
    np.abs(diff, out=diff)
    if mask is not None:
        diff *= mask  # |d| * False is +0.0, so the max and sum ignore it
    if key == "sup":
        return float(diff.max())
    h = f.geometry.spacing
    return pairwise_sum(diff) * h * h


def support_estimate(f: Grid, threshold: float) -> SupportEstimate:
    """Area (h^2 per sample) and origin-distance radius of samples with |value| > threshold."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    # every sample outside the box is +0.0, which no threshold exceeds
    r0, r1, c0, c1 = box = f.box or (0, 0, 0, 0)
    mask = np.abs(f.values[r0:r1, c0:c1]) > threshold
    h = f.geometry.spacing
    count = int(np.count_nonzero(mask))
    if count == 0:
        return SupportEstimate(threshold, 0.0, 0.0)
    X, Y = _lattice_coords(f.geometry, box)
    radius = float(np.max(np.hypot(X[mask], Y[mask])))
    return SupportEstimate(threshold, h * h * count, radius)


def refine(f: Grid, factor: int) -> Grid:
    """f at spacing/factor, f itself at factor 1: re-rendered from the analytic
    source when available, otherwise bilinear (coarse nodes reproduce exactly)."""
    if not float(factor).is_integer() or factor < 1:
        raise ValueError(f"refinement factor must be a positive integer, got {factor}")
    if factor == 1:
        return f
    fine = GridGeometry(f.geometry.extent, f.geometry.spacing / int(factor))
    if f.source is not None:
        return render(fine, f.source)
    ident = LinearMap2.identity()
    return _warp(f, ident, ident, (0.0, 0.0), fine, None)


def subsample(f: Grid, factor: int) -> Grid:
    """Keep every factor-th sample (center preserved); inverse of refine on the nodes."""
    if not float(factor).is_integer() or factor < 1:
        raise ValueError(f"subsample factor must be a positive integer, got {factor}")
    factor = int(factor)
    m = f.geometry.half_count
    if m % factor != 0:
        raise GeometryMismatchError(
            f"cannot subsample: half-count {m} not divisible by {factor}"
        )
    coarse = GridGeometry(f.geometry.extent, f.geometry.spacing * factor)
    return Grid(coarse, f.values[::factor, ::factor], source=f.source)


def embed(f: Grid, geometry: GridGeometry) -> Grid:
    """Zero-pad onto a larger geometry with the same spacing (sample-exact)."""
    if not _close(f.spacing, geometry.spacing):
        raise GeometryMismatchError(
            f"embed requires matching spacing, got {f.spacing} vs {geometry.spacing}"
        )
    pad = geometry.half_count - f.geometry.half_count
    if pad < 0:
        raise GeometryMismatchError("embed target geometry is smaller than the grid")
    vals = np.pad(f.values, pad) if pad else f.values
    return Grid(geometry, vals, source=f.source)


def interior_mask(geometry: GridGeometry, margin: float, warp=None) -> np.ndarray:
    """Boolean mask of samples trusted after zero-padding effects.

    A sample x is kept when |x|_inf <= extent - margin; if ``warp`` (a 2x2 map)
    is given, the read point warp^-1(x) must satisfy the same bound, which is
    the trust condition for fields produced by resampling with ``warp``.
    """
    lim = geometry.extent - margin + 1e-9 * geometry.spacing
    # the 1-D axes broadcast to the values of the coords() meshes, without
    # holding two whole-domain arrays
    ax = geometry.axis()
    X = ax[np.newaxis, :]
    Y = ax[::-1, np.newaxis]
    mask = (np.abs(X) <= lim) & (np.abs(Y) <= lim)
    if warp is not None:
        inv = warp.inverse()
        # one read coordinate at a time: a single float64 whole-domain
        # temporary, made absolute in place
        for p, q in ((inv.a, inv.b), (inv.c, inv.d)):
            s = p * X + q * Y
            np.abs(s, out=s)
            mask &= s <= lim
    return mask
