"""Sampled scalar fields on a regular 2D lattice.

Conventions used throughout the package:

- The domain is the square [-R, R]^2 with lattice step h; R snaps up to an
  integer multiple of h so the sample count per axis is odd (2m+1) and the
  spatial origin lies exactly on the center sample.
- values[i, j] holds the sample at x = (j - m)*h, y = (m - i)*h, i.e. row 0
  is the top row (maximum y) and columns increase with x.
- Reads outside the domain are 0 (compact-support convention).
- Interpolation is bilinear everywhere. Sample coordinates that land within
  1e-9 index units of a lattice node snap to it, so lattice-preserving maps
  (integer shifts, 90-degree rotations) reproduce samples exactly instead of
  picking up unit-last-place interpolation noise.
- One bilinear core serves ``sample_at``, ``resample_affine`` and the
  off-lattice ``translate``. It reads an index box of the samples, padded with
  +0.0, and adds the four weighted corners onto +0.0 in the fixed order
  (0,0), (0,1), (1,0), (1,1). Since a zero read of either sign then changes
  no bit, the warps interpolate only near the input's nonzero box, write
  +0.0 everywhere else, and equal the whole-domain computation bit for bit.
- Integrals are Riemann sums with weight h^2, accumulated by a fixed
  row-major pairwise reduction so results do not depend on threading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainFitError, GeometryMismatchError

__all__ = [
    "GridGeometry",
    "Grid",
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


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    """|a - b| <= rel * |b|: numpy.isclose with atol=0 on two Python floats."""
    return bool(abs(a - b) <= rel * abs(b))


def _snap_indices(t: np.ndarray) -> np.ndarray:
    r = np.round(t)
    return np.where(np.abs(t - r) <= _SNAP, r, t)


def _nonzero_box(values: np.ndarray) -> Optional[Tuple[int, int, int, int]]:
    """Half-open bounding box (r0, r1, c0, c1) of the nonzero samples, or None.

    Samples equal to 0.0 (either sign) are outside the box, so every sample
    outside it is +0.0 or -0.0.
    """
    nz = values != 0.0
    rows = np.flatnonzero(nz.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(nz.any(axis=0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def _index_coords(geometry: "GridGeometry", xs, ys) -> Tuple[np.ndarray, np.ndarray]:
    """Snapped fractional (row, column) index coordinates of spatial points,
    broadcast against each other."""
    h = geometry.spacing
    m = geometry.half_count
    col = _snap_indices(np.asarray(xs, dtype=np.float64) / h + m)
    row = _snap_indices(m - np.asarray(ys, dtype=np.float64) / h)
    col, row = np.broadcast_arrays(col, row)
    return row, col


def _read_span(t: np.ndarray, n: int) -> Tuple[int, int]:
    """Half-open range of the indices in [0, n) that bilinear reads at the
    index coordinates ``t`` touch; all of [0, n) when some coordinate is not
    finite."""
    if t.size == 0:
        return 0, 0
    lo, hi = float(t.min()), float(t.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return 0, n
    lo = min(max(0, math.floor(lo)), n)
    return lo, max(lo, min(n, math.floor(hi) + 2))


def _bilinear(
    values: np.ndarray, box: Tuple[int, int, int, int], row: np.ndarray, col: np.ndarray
) -> np.ndarray:
    """Bilinear reads of ``values`` at fractional index coordinates, where
    every sample outside the half-open index ``box`` (r0, r1, c0, c1) reads
    as zero.

    The box is copied once with a two-sample +0.0 border, and each floored
    index is clipped into [r0 - 2, r1] (columns likewise): a corner whose
    index lies outside the box then reads only border zeros. The four corners
    are read with one flat index. Each point gets the weights
    (1-fr)(1-fc), (1-fr)fc, fr(1-fc) and fr*fc, added in the corner order
    (0,0), (0,1), (1,0), (1,1) onto +0.0, so a zero read of either sign
    changes no bit: callers may pass any box outside which ``values`` holds
    only zeros, or only the samples their points read.
    """
    r0, r1, c0, c1 = box
    width = c1 - c0 + 4
    padded = np.zeros((r1 - r0 + 4, width), dtype=np.float64)
    padded[2:-2, 2:-2] = values[r0:r1, c0:c1]
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

    def close_to(self, other: "GridGeometry", rel: float = 1e-12) -> bool:
        return _close(self.spacing, other.spacing, rel) and self.size == other.size


@dataclass(frozen=True, eq=False)
class Grid:
    """Immutable sampled field, optionally carrying the analytic source it was rendered from.

    The source, when present, is a vectorized callable ``(x, y) -> values``
    used by :func:`refine` to re-render at finer spacing instead of
    interpolating; all other operations work on the samples.
    """

    geometry: GridGeometry
    values: np.ndarray
    source: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        n = self.geometry.size
        if vals.shape != (n, n):
            raise GeometryMismatchError(
                f"values shape {vals.shape} does not match geometry ({n}, {n})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

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

        Only the rows and columns the points read are copied (see
        :func:`_bilinear`), so a scalar read copies a 2 x 2 box, not the grid.
        A point outside the domain reads 0.0 and a non-finite coordinate gives
        NaN, as on an unbounded zero-extended grid.
        """
        row, col = _index_coords(self.geometry, xs, ys)
        n = self.geometry.size
        r0, r1 = _read_span(row, n)
        c0, c1 = _read_span(col, n)
        return _bilinear(self.values, (r0, r1, c0, c1), row, col)

    def integral(self) -> float:
        h = self.geometry.spacing
        return pairwise_sum(self.values) * h * h

    def l1_norm(self) -> float:
        h = self.geometry.spacing
        return pairwise_sum(np.abs(self.values)) * h * h

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


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


def render(geometry: GridGeometry, source: Callable) -> Grid:
    """Evaluate a vectorized analytic source on the lattice and keep it attached."""
    X, Y = geometry.coords()
    vals = np.asarray(source(X, Y), dtype=np.float64)
    return Grid(geometry, vals, source=source)


def zeros(geometry: GridGeometry) -> Grid:
    n = geometry.size
    return Grid(geometry, np.zeros((n, n)))


def make_bump(
    center: Sequence[float],
    radius: float,
    amplitude: float,
    geometry: GridGeometry,
) -> Grid:
    """Smooth compactly supported bump: amplitude * exp(1 - 1/(1 - t^2)) for
    t = |x - center|/radius < 1, exactly 0 outside the open ball.

    The profile is the classical C-infinity mollifier shape normalized so the
    value at the center equals ``amplitude`` exactly.
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

    return render(geometry, src)


def _lattice_steps(delta: float, spacing: float) -> Optional[int]:
    t = delta / spacing
    r = round(t)
    if abs(t - r) <= _SNAP:
        return int(r)
    return None


def translate(f: Grid, delta: Sequence[float]) -> Grid:
    """Shift the field by delta: out(x) = f(x - delta).

    Lattice deltas are pure index shifts (sample-exact, zero fill at the
    boundary); anything else goes through bilinear interpolation, which only
    interpolates the output samples whose read cell touches f's nonzero box
    and writes exactly +0.0 everywhere else, the same bits as interpolating
    the whole domain.
    """
    dx, dy = float(delta[0]), float(delta[1])
    src = None
    if f.source is not None:
        fsrc = f.source
        src = lambda x, y: fsrc(np.asarray(x) - dx, np.asarray(y) - dy)
    n = f.geometry.size
    out = np.zeros((n, n), dtype=np.float64)
    sx = _lattice_steps(dx, f.spacing)
    sy = _lattice_steps(dy, f.spacing)
    if sx is not None and sy is not None:
        # out[i, j] = values[i + sy, j - sx] where that index exists
        a, b = max(0, -sy), min(n, n - sy)
        c, d = max(0, sx), min(n, n + sx)
        if a < b and c < d:
            out[a:b, c:d] = f.values[a + sy : b + sy, c - sx : d - sx]
        return Grid(f.geometry, out, source=src)
    box = _nonzero_box(f.values)
    if box is not None:
        # out[i, j] reads f at index (i + dy/h, j - dx/h). With kc = floor(dx/h),
        # column j reads columns j - kc - 1 and j - kc, the second only with
        # weight 0 when the read snaps to the lattice, so only j in
        # [c0 + kc, c1 + kc] can read a nonzero sample; rows likewise. Rounding
        # in the read index is far below the snap tolerance, which absorbs it.
        r0, r1, c0, c1 = box
        kr = math.floor(-dy / f.spacing)
        kc = math.floor(dx / f.spacing)
        a, b = min(max(0, r0 + kr), n), min(max(0, r1 + kr + 1), n)
        c, d = min(max(0, c0 + kc), n), min(max(0, c1 + kc + 1), n)
        if a < b and c < d:
            ax = f.geometry.axis()
            row, col = _index_coords(
                f.geometry, ax[c:d][np.newaxis, :] - dx, ax[::-1][a:b][:, np.newaxis] - dy
            )
            out[a:b, c:d] = _bilinear(f.values, box, row, col)
    return Grid(f.geometry, out, source=src)


def resample_affine(f: Grid, T, geometry: Optional[GridGeometry] = None) -> Grid:
    """Warp by a 2x2 map: out(x) = f(T^-1 x), bilinear, 0 outside f's domain.

    The output keeps f's geometry unless another one is supplied. T = identity
    returns the samples unchanged, bit for bit.

    Work scales with the input's support, not the domain: only output samples
    inside the image under T of f's nonzero bounding box (grown by two
    samples) are interpolated, and every other output sample is exactly +0.0,
    which is what interpolating four zero reads gives. The interpolated
    samples get the same arithmetic as on the full grid (the same weights,
    the corners added onto +0.0 in the order (0,0), (0,1), (1,0), (1,1)), and
    a read outside f's box gives 0.0 of either sign, which changes no bit, so
    the result is the same bit for bit.
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
    if (
        geometry is None
        and T.a == 1.0
        and T.b == 0.0
        and T.c == 0.0
        and T.d == 1.0
    ):
        return Grid(f.geometry, f.values, source=f.source)
    box = _nonzero_box(f.values)
    a, b, c, d = (0, 0, 0, 0) if box is None else _warped_box(box, f.geometry, T, geom)
    out = np.zeros((geom.size, geom.size), dtype=np.float64)
    if a < b and c < d:
        ax = geom.axis()
        X = ax[c:d][np.newaxis, :]
        Y = ax[::-1][a:b][:, np.newaxis]
        row, col = _index_coords(f.geometry, inv.a * X + inv.b * Y, inv.c * X + inv.d * Y)
        out[a:b, c:d] = _bilinear(f.values, box, row, col)
    return Grid(geom, out, source=src)


def _warped_box(
    box: Tuple[int, int, int, int], source: GridGeometry, T, target: GridGeometry
) -> Tuple[int, int, int, int]:
    """Half-open (row, column) index box of ``target`` holding T applied to
    the source index ``box`` grown by two samples, clipped to ``target``.

    A bilinear read at a point whose floored index lies outside the box one
    sample wider touches only zero samples; the second sample and the
    one-sample rounding of the output box absorb rounding in T and T^-1.
    """
    r0, r1, c0, c1 = box
    h, m = source.spacing, source.half_count
    xs = ((c0 - 2 - m) * h, (c1 + 1 - m) * h)
    ys = ((m - r1 - 1) * h, (m - r0 + 2) * h)
    px = [T.a * x + T.b * y for x in xs for y in ys]
    py = [T.c * x + T.d * y for x in xs for y in ys]
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
    over the samples where the boolean ``mask`` is set (every sample when it
    is None).

    'sup' = max |f - g| over those samples, 0.0 for an empty mask;
    'l1' = h^2-weighted sum of |f - g| with every unmasked sample counted as
    +0.0, in pairwise_sum's fixed reduction order.
    """
    if not f.geometry.close_to(g.geometry):
        raise GeometryMismatchError(
            f"cannot compare geometries {f.geometry} and {g.geometry}"
        )
    key = norm.lower()
    if key not in ("sup", "l1"):
        raise ValueError(f"unknown norm {norm!r}; expected 'sup' or 'l1'")
    diff = np.subtract(f.values, g.values)
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
    mask = np.abs(f.values) > threshold
    h = f.geometry.spacing
    count = int(np.count_nonzero(mask))
    if count == 0:
        return SupportEstimate(threshold, 0.0, 0.0)
    X, Y = f.geometry.coords()
    radius = float(np.max(np.hypot(X[mask], Y[mask])))
    return SupportEstimate(threshold, h * h * count, radius)


def refine(f: Grid, factor: int) -> Grid:
    """Same extent at spacing/factor; re-renders from the analytic source when
    available, otherwise interpolates bilinearly (coarse nodes reproduce exactly)."""
    if int(factor) != factor or factor < 2:
        raise ValueError(f"refinement factor must be an integer >= 2, got {factor}")
    fine = GridGeometry(f.geometry.extent, f.geometry.spacing / int(factor))
    if f.source is not None:
        return render(fine, f.source)
    X, Y = fine.coords()
    return Grid(fine, f.sample_at(X, Y))


def subsample(f: Grid, factor: int) -> Grid:
    """Keep every factor-th sample (center preserved); inverse of refine on the nodes."""
    factor = int(factor)
    if factor < 1:
        raise ValueError("subsample factor must be a positive integer")
    if factor == 1:
        return Grid(f.geometry, f.values, source=f.source)
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
        sx = inv.a * X + inv.b * Y
        sy = inv.c * X + inv.d * Y
        mask &= (np.abs(sx) <= lim) & (np.abs(sy) <= lim)
    return mask
