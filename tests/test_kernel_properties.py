"""Property tests: the support-bounded kernels against whole-domain loops.

convolve and resample_affine only do work near the input's nonzero support.
These tests compare them byte for byte against test-local copies of the
whole-domain loops, on fields and maps drawn by hypothesis, and convolve's
FFT engine against its direct engine within rounding. The examples are
derandomized, so every run draws the same ones.
"""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from equiaudit import (
    Filter,
    Grid,
    GridGeometry,
    convolve,
    embed_filter,
    filter_from_grid,
    resample_affine,
)
from equiaudit.transform import LinearMap2

# image geometries of 11, 21 and 33 samples per side
IMAGE_GEOMETRIES = st.sampled_from([0.25, 0.5, 0.8]).map(lambda r: GridGeometry(r, 0.05))


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


def full_grid_resample(f: Grid, T: LinearMap2, geometry: GridGeometry) -> np.ndarray:
    """Bilinear sample_at at T^-1 x for every sample x of the output geometry."""
    X, Y = geometry.coords()
    inv = T.inverse()
    return f.sample_at(inv.a * X + inv.b * Y, inv.c * X + inv.d * Y)


MAPS = st.one_of(
    st.sampled_from(
        [
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
    if target is None:
        # the identity without a geometry returns the input array itself
        assume(T.matrix.tolist() != [[1.0, 0.0], [0.0, 1.0]])
    got = resample_affine(f, T, geometry=target).values
    want = full_grid_resample(f, T, geom if target is None else target)
    assert got.tobytes() == want.tobytes()
