"""Property tests: the support-bounded kernels against whole-domain loops.

convolve, resample_affine and translate only do work near the input's
nonzero support. These tests compare them and sample_at byte for byte
against test-local copies of the whole-domain loops, on fields, maps
(the identity included), shifts (lattice ones included) and points drawn by
hypothesis, and convolve's FFT engine against its direct engine within
rounding, and the masked residual of distance against the inline formulas
it replaced, and GridCrop's round trip. The last part checks every grid's
stored box against a whole-domain scan, the renders, layer_forward and
support_estimate that work on boxes against whole-domain copies, and the
copy and finiteness check of the public Grid constructor. The examples are
derandomized, so every run draws the same ones.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equiaudit import (
    ConvLayer,
    FeatureStack,
    Filter,
    Grid,
    GridCrop,
    GridGeometry,
    Nonlinearity,
    convolve,
    distance,
    embed_filter,
    filter_from_grid,
    layer_forward,
    make_bump,
    pairwise_sum,
    refine,
    render,
    resample_affine,
    support_estimate,
    translate,
)
from equiaudit.audit import glyph
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


def scanned_box(g: Grid):
    """The half-open box of every sample whose bits are not +0.0, found by
    scanning the whole domain, or None when there is none."""
    nz = g.values.view(np.uint64) != 0
    rows = np.flatnonzero(nz.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(nz.any(axis=0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


NONLINEARITIES = ["identity", "relu", "lipschitz_sigmoid(2)", "softmax"]


@st.composite
def layers(draw, image: GridGeometry, in_channels: int, out_channels: int) -> ConvLayer:
    """A layer of drawn kernels, zero-padded onto the widest one's geometry,
    with biases of +0.0, -0.0 or a nonzero value and any nonlinearity."""
    ks = [draw(kernels(image)) for _ in range(in_channels * out_channels)]
    widest = max((k.grid.geometry for k in ks), key=lambda g: g.size)
    ks = [embed_filter(k, widest) for k in ks]
    rows = tuple(
        tuple(ks[m * out_channels + c] for c in range(out_channels)) for m in range(in_channels)
    )
    biases = tuple(draw(st.sampled_from([0.0, -0.0, 0.5])) for _ in range(out_channels))
    return ConvLayer(rows, biases, Nonlinearity.parse(draw(st.sampled_from(NONLINEARITIES))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_producer_stores_the_box_of_a_whole_domain_scan(data):
    # compact, dense and all-zero inputs on either zero background, through
    # each producer that hands its array over with the region it wrote
    geom = data.draw(IMAGE_GEOMETRIES)
    f = data.draw(fields(geom))
    lam = data.draw(kernels(geom))
    delta = (data.draw(shifts(geom)), data.draw(shifts(geom)))
    layer = data.draw(layers(geom, 1, 2))
    products = [
        convolve(f, lam),
        convolve(f, lam, exact=False),
        resample_affine(f, data.draw(MAPS), geometry=data.draw(TARGETS)),
        translate(f, delta),
        refine(f, 2),
        GridCrop.of(f).expand(),
    ]
    products += layer_forward(f, layer, exact=data.draw(st.booleans())).channels
    for g in products:
        assert g.box == scanned_box(g)
    assert GridCrop.of(f).box == (scanned_box(f) or (0, 0, 0, 0))


@pytest.mark.parametrize(
    "kind, bias", [(k, b) for k in NONLINEARITIES for b in (0.0, -0.0, 0.5)]
)
@pytest.mark.parametrize("exact", [True, False])
def test_layer_forward_outputs_store_a_scanned_box(kind, bias, exact):
    # a compact input, so that a layer that keeps +0.0 outside the
    # convolutions' boxes and one that does not both show
    geom = GridGeometry(0.8, 0.05)
    f = make_bump((0.2, -0.1), 0.3, 1.0, geom)
    lam = filter_from_grid(make_bump((0.0, 0.0), 0.1, 1.0, GridGeometry(0.15, 0.05)))
    layer = ConvLayer(((lam, lam),), (bias, bias), Nonlinearity.parse(kind))
    for g in layer_forward(f, layer, exact=exact).channels:
        assert g.box == scanned_box(g)


def sourced_grids(geom: GridGeometry):
    return [
        make_bump((0.3, -0.2), 0.25, 1.3, geom),
        make_bump((0.75, 0.1), 0.25, 0.9, geom),  # touches the right edge
        make_bump((0.013, -0.027), 0.01, 1.0, geom),  # narrower than a sample
        make_bump((-0.5, 0.5), 0.5, 1.0, geom),  # touches two edges
        glyph("W", (0.1, -0.05), 0.2, geom),
        glyph("M", (-0.2, 0.3), 0.12, geom),
        render(geom, lambda x, y: np.tanh(np.asarray(x) / 0.1) * (np.hypot(x, y) < 0.4)),
    ]


@pytest.mark.parametrize("factor", [1, 2, 4])
def test_box_restricted_render_equals_the_whole_domain_render(factor):
    # a bump or glyph is evaluated only on its disc's square (and margin);
    # every bit must match evaluating its source on the whole lattice
    geom = GridGeometry(1.0, 0.05)
    for coarse in sourced_grids(geom):
        g = refine(coarse, factor)
        X, Y = g.geometry.coords()
        want = np.asarray(coarse.source(X, Y), dtype=np.float64)
        assert g.values.tobytes() == want.tobytes()
        assert g.box == scanned_box(g)


def reference_layer_forward(stack, layer: ConvLayer, exact: bool) -> np.ndarray:
    """The whole-domain layer: each pre-activation summed in ascending m over
    every sample, the bias added, the nonlinearity applied to the stack."""
    pre = []
    for c in range(layer.out_channels):
        acc = None
        for m in range(layer.in_channels):
            g = convolve(stack[m], layer.kernels[m][c], exact=exact)
            acc = g.values if acc is None else acc + g.values
        pre.append(acc + layer.biases[c])
    return layer.nonlinearity.apply(np.stack(pre))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_layer_forward_matches_the_whole_domain_loop_bit_for_bit(data):
    geom = data.draw(IMAGE_GEOMETRIES)
    stack = [data.draw(fields(geom)) for _ in range(2)]
    layer = data.draw(layers(geom, 2, 2))
    exact = data.draw(st.booleans())
    got = layer_forward(FeatureStack(tuple(stack)), layer, exact=exact)
    want = reference_layer_forward(stack, layer, exact)
    for c in range(2):
        assert got.channels[c].values.tobytes() == want[c].tobytes()


def reference_support_estimate(f: Grid, threshold: float):
    """support_estimate over the whole domain: (measure, radius)."""
    mask = np.abs(f.values) > threshold
    count = int(np.count_nonzero(mask))
    if count == 0:
        return 0.0, 0.0
    X, Y = f.geometry.coords()
    return f.spacing**2 * count, float(np.max(np.hypot(X[mask], Y[mask])))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_support_estimate_matches_the_whole_domain_scan_bit_for_bit(data):
    geom = data.draw(IMAGE_GEOMETRIES)
    f = data.draw(fields(geom))
    threshold = data.draw(st.sampled_from([0.0, 0.5, 3.0]))
    est = support_estimate(f, threshold)
    want = np.array(reference_support_estimate(f, threshold))
    assert np.array([est.measure, est.radius]).tobytes() == want.tobytes()


def test_public_grid_copies_its_array_and_checks_finiteness_on_its_box():
    geom = GridGeometry(0.5, 0.05)
    arr = np.zeros((geom.size, geom.size))
    arr[3:6, 4:8] = 1.0
    g = Grid(geom, arr)
    arr[4, 5] = 7.0  # neither write reaches the grid
    arr[0, 0] = 3.0
    assert g.values[4, 5] == 1.0 and g.values[0, 0] == 0.0
    assert g.box == (3, 6, 4, 8)
    assert not g.values.flags.writeable
    with pytest.raises(ValueError):
        g.values[0, 0] = 1.0
    base = np.zeros((geom.size, geom.size))
    base[3:6, 4:8] = 1.0
    # the box's corners and edges, its interior, and a lone sample far away
    for i, j in [(3, 4), (5, 7), (3, 6), (4, 5), (0, 0), (geom.size - 1, 2)]:
        for bad in (np.nan, np.inf, -np.inf):
            vals = base.copy()
            vals[i, j] = bad
            with pytest.raises(ValueError, match="finite"):
                Grid(geom, vals)


def test_a_huge_shear_reads_off_the_domain_as_zero_without_a_warning():
    # only the row y = 0 reads the input; every other row's read points lie
    # about 1e21 index units away, beyond what an int64 index can hold
    geom = GridGeometry(0.5, 0.05)
    f = make_bump((0.05, 0.0), 0.3, 1.0, geom)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = resample_affine(f, LinearMap2.shear(1e20))
    m = geom.half_count
    want = np.zeros(f.values.shape)
    want[m] = f.values[m]
    assert out.values.tobytes() == want.tobytes()
