"""Property tests: the support-bounded kernels against whole-domain loops.

convolve, resample_affine and translate only do work near the input's
nonzero support. These tests compare them and sample_at byte for byte
against test-local copies of the whole-domain loops, on fields, maps
(the identity included), shifts (lattice ones included) and points drawn by
hypothesis, and convolve's FFT engine against its direct engine within
rounding, and the masked residual of distance against the inline formulas
it replaced, and GridCrop's round trip. The examples are derandomized, so
every run draws the same ones.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equiaudit import (
    Filter,
    Grid,
    GridCrop,
    GridGeometry,
    convolve,
    distance,
    embed_filter,
    filter_from_grid,
    pairwise_sum,
    resample_affine,
    translate,
)
from equiaudit.transform import LinearMap2

# image geometries of 11, 21, 33 and 161 samples per side; the widest makes
# warped boxes that span three or more strips of the warp core
IMAGE_GEOMETRIES = st.sampled_from([0.25, 0.5, 0.8, 4.0]).map(
    lambda r: GridGeometry(r, 0.05)
)


@st.composite
def fields(draw, geometry: GridGeometry) -> Grid:
    """Compact blobs anywhere (touching edges and corners included), a single
    nonzero corner sample, dense fields and all-zero fields, each on a +0.0 or
    -0.0 background."""
    n = geometry.size
    kind = draw(st.sampled_from(["blob", "corner", "dense", "zero"]))
    background = draw(st.sampled_from([0.0, -0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = np.full((n, n), background)
    if kind == "blob":
        rows = draw(st.integers(1, n))
        cols = draw(st.integers(1, n))
        r0 = draw(st.integers(0, n - rows))
        c0 = draw(st.integers(0, n - cols))
        blob = rng.normal(size=(rows, cols))
        blob[rng.random(blob.shape) < 0.3] = background
        vals[r0 : r0 + rows, c0 : c0 + cols] = blob
    elif kind == "corner":
        i, j = draw(st.sampled_from([(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)]))
        vals[i, j] = rng.normal()
    elif kind == "dense":
        vals = rng.normal(size=(n, n))
    return Grid(geometry, vals)


def full_grid_convolve(f: Grid, lam: Filter) -> np.ndarray:
    """The whole-domain engine: every nonzero tap, in row-major order, adds its
    weighted shifted copy of np.pad(f, c) to an n x n accumulator."""
    h = f.spacing
    n = f.geometry.size
    c = lam.grid.geometry.half_count
    padded = np.pad(f.values, c)
    out = np.zeros((n, n))
    term = np.empty_like(out)
    kv = lam.grid.values
    for p, q in zip(*np.nonzero(kv)):
        np.multiply(kv[p, q], padded[2 * c - p : 2 * c - p + n, 2 * c - q : 2 * c - q + n], out=term)
        out += term
    return out * (h * h)


@st.composite
def kernels(draw, image: GridGeometry) -> Filter:
    """Random kernels with holes, zero-padded by up to twice the image's
    half-width, so some kernel grids are wider than the image."""
    h = image.spacing
    inner = draw(st.integers(1, 3))
    outer = inner + draw(st.integers(0, 2 * image.half_count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kg = GridGeometry(inner * h, h)
    vals = rng.normal(size=(kg.size, kg.size))
    vals[rng.random(vals.shape) < 0.2] = 0.0
    lam = filter_from_grid(Grid(kg, vals))
    return embed_filter(lam, GridGeometry(outer * h, h))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_convolve_matches_full_grid_loop_bit_for_bit(data):
    # convolve only touches the input's support; every output bit, including
    # the +0.0 outside the dilated support, must match the whole-domain loop
    geom = data.draw(IMAGE_GEOMETRIES)
    f = data.draw(fields(geom))
    lam = data.draw(kernels(geom))
    assert convolve(f, lam).values.tobytes() == full_grid_convolve(f, lam).tobytes()


def is_plus_zero(a: np.ndarray) -> bool:
    return bool(np.all(a == 0.0) and not np.signbit(a).any())


def written_box(f: Grid, lam: Filter):
    """Rows and columns, as slices, of f's nonzero box dilated by the
    kernel's nonzero box and clipped to the domain: the only samples a nonzero
    product reaches. Both boxes must be nonempty."""
    n = f.geometry.size
    c = lam.grid.geometry.half_count
    spans = []
    for axis in (1, 0):
        fi = np.flatnonzero(np.any(f.values != 0.0, axis=axis))
        ki = np.flatnonzero(np.any(lam.grid.values != 0.0, axis=axis))
        lo, hi = fi[0] + ki[0] - c, fi[-1] + ki[-1] - c + 1
        spans.append(slice(max(0, lo), min(n, hi)))
    return tuple(spans)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_fft_convolve_is_direct_within_rounding_and_plus_zero_outside_the_dilated_box(data):
    # the FFT engine agrees with the direct engine to 1e-12 of the output's
    # sup, writes nothing beyond f's box dilated by the kernel's box, and
    # gives the same bytes on every call
    geom = data.draw(IMAGE_GEOMETRIES)
    f = data.draw(fields(geom))
    lam = data.draw(kernels(geom))
    direct = convolve(f, lam).values
    fast = convolve(f, lam, exact=False).values
    assert np.abs(fast - direct).max() <= 1e-12 * np.abs(direct).max()
    assert convolve(f, lam, exact=False).values.tobytes() == fast.tobytes()
    outside = np.ones(fast.shape, dtype=bool)
    if np.any(f.values != 0.0):
        outside[written_box(f, lam)] = False
    assert is_plus_zero(fast[outside])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_fft_convolve_of_a_zero_input_or_kernel_is_plus_zero_without_a_transform(data):
    geom = data.draw(IMAGE_GEOMETRIES)
    f = data.draw(fields(geom))
    lam = data.draw(kernels(geom))
    background = data.draw(st.sampled_from([0.0, -0.0]))
    if data.draw(st.booleans()):
        f = Grid(geom, np.full(f.values.shape, background))
    else:
        lam = Filter(Grid(lam.grid.geometry, np.full(lam.grid.values.shape, background)), 0.0)
    with mock.patch.object(np.fft, "rfft2", side_effect=AssertionError("transform")):
        out = convolve(f, lam, exact=False).values
    assert is_plus_zero(out)


def full_grid_sample_at(f: Grid, xs, ys) -> np.ndarray:
    """Bilinear reads at spatial points with one pass over the points per
    corner: the corner's indices are clipped into the domain, its read is
    masked to 0.0 outside it, and the weighted corners are added onto zeros
    in the order (0,0), (0,1), (1,0), (1,1)."""
    h = f.spacing
    m = f.geometry.half_count
    n = f.geometry.size

    def snapped(t):
        r = np.round(t)
        return np.where(np.abs(t - r) <= 1e-9, r, t)

    col = snapped(np.asarray(xs, dtype=np.float64) / h + m)
    row = snapped(m - np.asarray(ys, dtype=np.float64) / h)
    col, row = np.broadcast_arrays(col, row)
    r0 = np.floor(row).astype(np.int64)
    c0 = np.floor(col).astype(np.int64)
    fr = row - r0
    fc = col - c0
    out = np.zeros(row.shape, dtype=np.float64)
    for dr, dc, w in (
        (0, 0, (1.0 - fr) * (1.0 - fc)),
        (0, 1, (1.0 - fr) * fc),
        (1, 0, fr * (1.0 - fc)),
        (1, 1, fr * fc),
    ):
        rr = r0 + dr
        cc = c0 + dc
        inside = (rr >= 0) & (rr < n) & (cc >= 0) & (cc < n)
        vals = np.where(inside, f.values[np.clip(rr, 0, n - 1), np.clip(cc, 0, n - 1)], 0.0)
        out = out + w * vals
    return out


def full_grid_resample(f: Grid, T: LinearMap2, geometry: GridGeometry) -> np.ndarray:
    """Bilinear reads at T^-1 x for every sample x of the output geometry."""
    X, Y = geometry.coords()
    inv = T.inverse()
    return full_grid_sample_at(f, inv.a * X + inv.b * Y, inv.c * X + inv.d * Y)


MAPS = st.one_of(
    st.sampled_from(
        [
            LinearMap2.identity(),
            LinearMap2.rotation(90.0),
            LinearMap2.rotation(180.0),
            LinearMap2.reflection(0.0),
            LinearMap2.shear(1.0),
        ]
    ),
    st.floats(-180.0, 180.0).map(LinearMap2.rotation),
    st.floats(-90.0, 90.0).map(LinearMap2.reflection),
    st.floats(-2.0, 2.0).map(LinearMap2.shear),
    st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)).map(lambda s: LinearMap2.scaling(*s)),
)

TARGETS = st.none() | st.builds(
    GridGeometry, st.sampled_from([0.2, 0.5, 1.0]), st.sampled_from([0.05, 0.03])
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_resample_affine_matches_full_grid_sample_at_bit_for_bit(data):
    # resample_affine only interpolates near the image of the input's support;
    # every output bit must match interpolating the whole output grid
    geom = data.draw(IMAGE_GEOMETRIES)
    f = data.draw(fields(geom))
    T = data.draw(MAPS)
    target = data.draw(TARGETS)
    got = resample_affine(f, T, geometry=target).values
    want = full_grid_resample(f, T, geom if target is None else target)
    assert got.tobytes() == want.tobytes()


@st.composite
def shifts(draw, geometry: GridGeometry) -> float:
    """A shift of k + t samples: k moves the support anywhere from wholly off
    the domain on one side to wholly off it on the other, and t is a lattice
    (0), near-lattice or off-lattice fraction."""
    n = geometry.size
    k = draw(st.integers(-n - 3, n + 3))
    fractions = st.sampled_from([0.0, 0.5, 1e-10, 1.0 - 1e-10])
    t = draw(fractions | st.floats(0.0, 1.0, exclude_max=True))
    return (k + t) * geometry.spacing


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_translate_matches_full_grid_sample_at_bit_for_bit(data):
    # translate only reads near the shifted support; every output bit, the
    # +0.0 outside it included, must match interpolating the whole domain
    geom = data.draw(IMAGE_GEOMETRIES)
    f = data.draw(fields(geom))
    delta = (data.draw(shifts(geom)), data.draw(shifts(geom)))
    X, Y = geom.coords()
    want = full_grid_sample_at(f, X - delta[0], Y - delta[1])
    assert translate(f, delta).values.tobytes() == want.tobytes()


POINTS = st.floats(-2.0, 2.0) | st.sampled_from([0.0, 0.05, -0.8, 0.8, 0.825, 1e300])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_sample_at_matches_full_grid_sample_at_bit_for_bit(data):
    # reads at points in, on the edge of and outside the domain must match
    # the whole-grid loop, in value and in shape
    geom = data.draw(IMAGE_GEOMETRIES)
    f = data.draw(fields(geom))
    count = data.draw(st.integers(0, 12))
    xs = np.array(data.draw(st.lists(POINTS, min_size=count, max_size=count)))
    ys = np.array(data.draw(st.lists(POINTS, min_size=count, max_size=count)))
    if data.draw(st.booleans()):
        xs, ys = xs[:, np.newaxis], ys[np.newaxis, :]
    with np.errstate(invalid="ignore", over="ignore"):
        got = f.sample_at(xs, ys)
        want = full_grid_sample_at(f, xs, ys)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


BUMP_GEOMETRY = GridGeometry(0.8, 0.05)


def bump_field() -> Grid:
    rng = np.random.default_rng(5)
    vals = np.zeros((BUMP_GEOMETRY.size, BUMP_GEOMETRY.size))
    vals[10:20, 12:18] = rng.normal(size=(10, 6))
    return Grid(BUMP_GEOMETRY, vals)


@pytest.mark.parametrize(
    "x, y",
    [(0.0, 0.0), (0.123, -0.456), (-0.81, 0.3), (0.79, 0.79), (-0.4, -0.8)],
)
def test_sample_at_a_scalar_point_is_the_reference_scalar(x, y):
    got = bump_field().sample_at(x, y)
    want = full_grid_sample_at(bump_field(), x, y)
    assert type(got) is type(want) is np.float64
    assert got.tobytes() == want.tobytes()


def test_sample_at_points_all_outside_the_domain_read_zero():
    xs = np.array([-3.0, 0.9, 0.0, 2.5, 1e6])
    ys = np.array([0.0, 0.1, -0.86, 2.5, -1e6])
    got = bump_field().sample_at(xs, ys)
    assert got.tobytes() == full_grid_sample_at(bump_field(), xs, ys).tobytes()
    assert is_plus_zero(got)


def test_sample_at_a_nan_coordinate_gives_nan_like_the_reference():
    xs = np.array([np.nan, 0.0, -0.2, np.nan])
    ys = np.array([0.0, np.nan, -0.3, np.nan])
    with np.errstate(invalid="ignore"):
        got = bump_field().sample_at(xs, ys)
        want = full_grid_sample_at(bump_field(), xs, ys)
    assert np.isnan(got[[0, 1, 3]]).all() and np.isfinite(got[2])
    assert got.tobytes() == want.tobytes()


def reference_distance(a: Grid, b: Grid, norm: str, mask) -> float:
    """The residual formulas distance replaced: the masked sup of the audit
    (0.0 for an empty mask) and the masked L1 that zeroes unmasked samples
    with np.where before the pairwise sum."""
    diff = np.abs(a.values - b.values)
    if mask is None:
        mask = np.ones(diff.shape, dtype=bool)
    if norm == "sup":
        return float(diff[mask].max()) if mask.any() else 0.0
    h = a.spacing
    return float(pairwise_sum(np.where(mask, diff, 0.0)) * h * h)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_masked_distance_matches_the_inline_formulas_bit_for_bit(data):
    geom = data.draw(IMAGE_GEOMETRIES)
    f = data.draw(fields(geom))
    g = data.draw(fields(geom))
    norm = data.draw(st.sampled_from(["sup", "l1"]))
    kind = data.draw(st.sampled_from(["none", "empty", "full", "random"]))
    shape = f.values.shape
    if kind == "none":
        mask = None
    elif kind == "random":
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        mask = rng.random(shape) < data.draw(st.sampled_from([0.05, 0.5, 0.95]))
    else:
        mask = np.full(shape, kind == "full")
    got = distance(f, g, norm, mask)
    want = reference_distance(f, g, norm, mask)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_grid_crop_expands_to_the_same_bytes(data):
    # the crop's box is the tight box of every sample whose bits are not
    # +0.0, so -0.0 samples, all-zero fields and fields nonzero on the border
    # all come back byte for byte
    geom = data.draw(IMAGE_GEOMETRIES)
    f = data.draw(fields(geom))
    crop = GridCrop.of(f)
    assert crop.expand().values.tobytes() == f.values.tobytes()
    set_bits = f.values.view(np.uint64) != 0
    r0, r1, c0, c1 = crop.box
    if not set_bits.any():
        assert crop.box == (0, 0, 0, 0)
        return
    inside = set_bits[r0:r1, c0:c1]
    assert inside.sum() == set_bits.sum()
    assert inside[0].any() and inside[-1].any()
    assert inside[:, 0].any() and inside[:, -1].any()
