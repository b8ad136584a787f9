import math

import numpy as np
import pytest

from equiaudit import (
    DomainFitError,
    GeometryMismatchError,
    Grid,
    GridCrop,
    GridGeometry,
    distance,
    embed,
    interior_mask,
    make_bump,
    pairwise_sum,
    refine,
    render,
    resample_affine,
    subsample,
    support_estimate,
    translate,
    zeros,
)
from equiaudit.transform import LinearMap2

# integral of the unit bump exp(1 - 1/(1 - |x|^2)) over the plane,
# frozen from an adaptive 1D radial quadrature
UNIT_BUMP_INTEGRAL = 1.268112161127596


def test_geometry_snaps_extent_up_to_lattice():
    g = GridGeometry(1.0, 0.3)
    assert g.extent == pytest.approx(1.2)
    assert g.size == 2 * g.half_count + 1
    # an extent that is already k*h stays put
    g2 = GridGeometry(1.2, 0.3)
    assert g2.extent == g.extent
    assert g2.size == 9
    ax = g2.axis()
    assert ax[0] == -g2.extent and ax[-1] == g2.extent
    assert ax[g2.half_count] == 0.0


def test_geometry_rejects_a_grid_too_large_to_address():
    # 3.2e9 samples a side, 8.2e19 bytes a field: refused before any allocation
    with pytest.raises(ValueError, match="too large to address"):
        GridGeometry(1.6, 1e-9)
    with pytest.raises(ValueError, match="too large to address"):
        GridGeometry(1e300, 1e-300)
    # a finite side whose square overflows a float
    with pytest.raises(ValueError, match="too large to address"):
        GridGeometry(1e300, 0.04)
    # the largest addressable side is about 1.07e9 samples
    assert GridGeometry(1.0, 2e-9).size == 1_000_000_001


def test_geometry_row_zero_is_max_y():
    g = GridGeometry(1.0, 0.5)
    X, Y = g.coords()
    assert Y[0, 0] == g.extent
    assert Y[-1, 0] == -g.extent
    assert X[0, 0] == -g.extent
    assert X[0, -1] == g.extent


def test_pairwise_sum_matches_numpy():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 17, 256, 1000):
        a = rng.normal(size=n)
        assert pairwise_sum(a) == pytest.approx(a.sum(), rel=1e-13)


def test_bump_center_value_and_support():
    g = GridGeometry(1.0, 0.05)
    f = make_bump((0.2, -0.1), 0.3, 2.0, g)
    # center lies on the lattice, so the peak is sampled exactly
    assert f.sample_at(0.2, -0.1)[()] == 2.0
    X, Y = g.coords()
    outside = np.hypot(X - 0.2, Y + 0.1) >= 0.3
    assert np.all(f.values[outside] == 0.0)
    assert f.sup_norm() == 2.0


def test_bump_does_not_fit_raises():
    g = GridGeometry(1.0, 0.05)
    with pytest.raises(DomainFitError):
        make_bump((0.9, 0.0), 0.2, 1.0, g)


def test_bump_integral_against_frozen_constant():
    # Riemann sums converge to amplitude * radius^2 * UNIT_BUMP_INTEGRAL
    for amp, r in ((1.0, 0.4), (2.5, 0.23)):
        target = amp * r * r * UNIT_BUMP_INTEGRAL
        vals = []
        for h in (0.02, 0.01, 0.005):
            f = make_bump((0.05, -0.1), r, amp, GridGeometry(0.8, h))
            vals.append(f.integral())
        errs = [abs(v - target) for v in vals]
        assert errs[-1] <= 1e-5 * target
        # refinement shrinks the error
        assert errs[2] < errs[0]


def test_render_and_zeros():
    g = GridGeometry(0.5, 0.25)
    f = render(g, lambda x, y: np.asarray(x) + 2.0 * np.asarray(y))
    assert f.values[g.half_count, g.half_count] == 0.0
    assert f.sample_at(0.25, 0.25)[()] == pytest.approx(0.75)
    z = zeros(g)
    assert np.all(z.values == 0.0)


def test_grid_values_are_immutable():
    g = GridGeometry(0.5, 0.25)
    f = zeros(g)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_sample_at_reads_zero_outside():
    g = GridGeometry(0.5, 0.1)
    f = render(g, lambda x, y: np.ones(np.shape(np.asarray(x) + np.asarray(y))))
    assert f.sample_at(0.61, 0.0)[()] == 0.0
    assert f.sample_at(0.0, -0.51)[()] == pytest.approx(0.9)  # linear falloff


def test_translate_lattice_is_exact_shift():
    g = GridGeometry(1.0, 0.1)
    rng = np.random.default_rng(3)
    f = Grid(g, rng.normal(size=(g.size, g.size)))
    t = translate(f, (0.3, -0.2))
    # out(x) = f(x - delta): content moves right 3 columns and down 2 rows
    assert np.array_equal(t.values[2:, 3:], f.values[:-2, :-3])
    back = translate(t, (-0.3, 0.2))
    inner = np.s_[2:-2, 3:-3]
    assert np.array_equal(back.values[inner], f.values[inner])


@pytest.mark.parametrize("delta", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.1)])
def test_translate_rejects_a_non_finite_delta(delta):
    f = make_bump((0.0, 0.0), 0.5, 1.0, GridGeometry(1.0, 0.1))
    with pytest.raises(ValueError, match=r"translate delta must be finite, got \("):
        translate(f, delta)


def test_translate_zero_is_identity():
    g = GridGeometry(1.0, 0.1)
    f = make_bump((0.0, 0.0), 0.5, 1.0, g)
    t = translate(f, (0.0, 0.0))
    assert np.array_equal(t.values, f.values)


def test_translate_subpixel_bilinear_error_bound():
    h = 0.025
    g = GridGeometry(1.0, h)
    f = make_bump((0.0, 0.0), 0.5, 1.0, g)
    # second-derivative bound measured by central differences on a fine grid
    fine = make_bump((0.0, 0.0), 0.5, 1.0, GridGeometry(1.0, h / 8))
    v = fine.values
    d2 = max(
        np.abs(np.diff(v, 2, axis=0)).max(),
        np.abs(np.diff(v, 2, axis=1)).max(),
    ) / (h / 8) ** 2
    two_half = translate(translate(f, (h / 2, 0.0)), (h / 2, 0.0))
    one_full = translate(f, (h, 0.0))
    err = float(np.abs(two_half.values - one_full.values).max())
    # a linear interpolant on a width-h cell errs by at most max|f''| h^2/8,
    # and the x-only shift runs two such passes
    assert err <= 2.0 * d2 * h * h / 8.0


def test_resample_identity_is_bit_exact():
    g = GridGeometry(1.0, 0.1)
    rng = np.random.default_rng(11)
    f = Grid(g, rng.normal(size=(g.size, g.size)))
    out = resample_affine(f, LinearMap2.identity())
    assert out.values.tobytes() == f.values.tobytes()


def test_resample_rot90_is_exact_permutation():
    g = GridGeometry(1.0, 0.1)
    rng = np.random.default_rng(5)
    f = Grid(g, rng.normal(size=(g.size, g.size)))
    out = resample_affine(f, LinearMap2.rotation(90.0))
    # out(x) = f(R^-1 x); with row 0 holding max y this is a CCW array rotation
    assert np.array_equal(out.values, np.rot90(f.values, 1))
    back = resample_affine(out, LinearMap2.rotation(-90.0))
    assert np.array_equal(back.values, f.values)


def test_resample_scaling_moves_support():
    g = GridGeometry(2.0, 0.02)
    f = make_bump((0.0, 0.0), 0.5, 1.0, g)
    out = resample_affine(f, LinearMap2.scaling(2.0))
    r = support_estimate(out, 0.0).radius
    assert abs(r - 1.0) <= 2 * g.spacing
    # values are exact reads of the halved coordinates
    assert out.sample_at(0.8, 0.0)[()] == pytest.approx(f.sample_at(0.4, 0.0)[()], rel=1e-12)


def test_resample_composition_close_to_single_warp():
    g = GridGeometry(1.5, 0.01)
    f = make_bump((0.1, 0.0), 0.4, 1.0, g)
    A = LinearMap2.rotation(30.0)
    B = LinearMap2.scaling(1.25)
    two = resample_affine(resample_affine(f, A), B)
    one = resample_affine(f, B.compose(A))
    # one extra interpolation pass costs O(h^2 * curvature)
    assert float(np.abs(two.values - one.values).max()) <= 60.0 * g.spacing ** 2


@pytest.mark.parametrize("kind", ["1-d", "half", "double"])
def test_distance_rejects_a_mask_that_is_not_a_boolean_field(kind):
    # a 1-D mask would broadcast along the rows, and a float mask would scale
    # the residual (0.5 halves the sup, 2 doubles the l1)
    g = GridGeometry(1.0, 0.05)
    a = make_bump((-0.4, 0.0), 0.25, 1.0, g)
    b = make_bump((0.4, 0.0), 0.25, 1.0, g)
    n = g.size
    mask = {
        "1-d": np.ones(n, dtype=bool),
        "half": np.full((n, n), 0.5),
        "double": np.full((n, n), 2.0),
    }[kind]
    for norm in ("sup", "l1"):
        with pytest.raises(ValueError, match="mask must be a boolean array"):
            distance(a, b, norm, mask)


def test_distance_norms():
    g = GridGeometry(1.0, 0.05)
    a = make_bump((-0.4, 0.0), 0.25, 1.0, g)
    b = make_bump((0.4, 0.0), 0.25, 1.0, g)
    assert distance(a, a, "sup") == 0.0
    assert distance(a, b, "sup") == pytest.approx(1.0)
    # disjoint supports make L1 additive
    assert distance(a, b, "l1") == pytest.approx(a.l1_norm() + b.l1_norm(), rel=1e-12)
    with pytest.raises(ValueError):
        distance(a, b, "l7")
    with pytest.raises(GeometryMismatchError):
        distance(a, zeros(GridGeometry(1.0, 0.1)))


def test_support_estimate_disc_area():
    g = GridGeometry(1.0, 0.01)
    X, Y = g.coords()
    f = Grid(g, (np.hypot(X, Y) <= 0.5).astype(float))
    est = support_estimate(f, 0.0)
    assert est.measure == pytest.approx(math.pi * 0.25, rel=0.01)
    assert est.radius == pytest.approx(0.5, abs=2 * g.spacing)
    assert est.threshold == 0.0
    # raising the threshold past the values empties the support
    empty = support_estimate(f, 2.0)
    assert empty.measure == 0.0 and empty.radius == 0.0


def test_refine_rejects_bad_factor_and_preserves_nodes():
    g = GridGeometry(1.0, 0.1)
    f = make_bump((0.1, -0.2), 0.4, 1.0, g)
    assert refine(f, 1) is f
    fine = refine(f, 2)
    assert fine.spacing == pytest.approx(0.05)
    # coarse nodes are shared and re-rendered from the same source
    assert np.array_equal(fine.values[::2, ::2], f.values)
    back = subsample(fine, 2)
    assert np.array_equal(back.values, f.values)
    with pytest.raises(GeometryMismatchError):
        subsample(fine, 8)  # half-count 20 not divisible by 8
    for bad in (0, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="subsample factor"):
            subsample(fine, bad)
        with pytest.raises(ValueError, match="refinement factor"):
            refine(f, bad)
    assert abs(refine(f, 4).integral() - f.integral()) <= 0.005 * f.integral()


def test_refine_without_source_is_bilinear():
    g = GridGeometry(1.0, 0.1)
    rng = np.random.default_rng(2)
    f = Grid(g, rng.normal(size=(g.size, g.size)))
    fine = refine(f, 2)
    assert np.array_equal(fine.values[::2, ::2], f.values)
    mid = fine.values[1:-1:2, ::2]
    avg = 0.5 * (f.values[:-1, :] + f.values[1:, :])
    assert np.allclose(mid, avg, rtol=0, atol=1e-14)


def test_embed_zero_pads_exactly():
    g = GridGeometry(0.5, 0.1)
    f = make_bump((0.0, 0.0), 0.4, 1.0, g)
    big = embed(f, GridGeometry(0.8, 0.1))
    assert big.geometry.size == f.geometry.size + 6
    assert np.array_equal(big.values[3:-3, 3:-3], f.values)
    assert big.values[0, 0] == 0.0
    with pytest.raises(GeometryMismatchError):
        embed(big, g)  # shrink not allowed
    with pytest.raises(GeometryMismatchError):
        embed(f, GridGeometry(0.8, 0.05))


def test_interior_mask_plain_and_warped():
    g = GridGeometry(1.0, 0.1)
    m = interior_mask(g, 0.3)
    X, Y = g.coords()
    assert np.array_equal(m, (np.abs(X) <= 0.7 + 1e-10) & (np.abs(Y) <= 0.7 + 1e-10))
    # a 2x shrink aligner halves the trusted square
    mw = interior_mask(g, 0.3, warp=LinearMap2.scaling(0.5))
    assert mw.sum() < m.sum()
    assert np.all(m[mw])


@pytest.mark.parametrize("spec", ["rot:45", "shear:1", "scale:2", "reflect:30"])
def test_interior_mask_warped_is_the_two_coordinate_formula(spec):
    # the warped mask is built one read coordinate at a time; it must keep
    # exactly the samples of the formula with both coordinates at once
    from equiaudit.transform import parse_transform

    g = GridGeometry(1.6, 0.04)
    margin = 0.28
    warp = parse_transform(spec)
    lim = g.extent - margin + 1e-9 * g.spacing
    ax = g.axis()
    X, Y = ax[np.newaxis, :], ax[::-1, np.newaxis]
    inv = warp.inverse()
    sx = inv.a * X + inv.b * Y
    sy = inv.c * X + inv.d * Y
    want = (np.abs(X) <= lim) & (np.abs(Y) <= lim)
    want &= (np.abs(sx) <= lim) & (np.abs(sy) <= lim)
    got = interior_mask(g, margin, warp=warp)
    assert got.dtype == bool
    assert got.tobytes() == want.tobytes()


def test_grid_crop_keeps_minus_zero_and_an_empty_box():
    g = GridGeometry(0.5, 0.1)
    vals = np.zeros((g.size, g.size))
    vals[0, g.size - 1] = -0.0
    crop = GridCrop.of(Grid(g, vals))
    assert crop.box == (0, 1, g.size - 1, g.size)
    assert np.signbit(crop.expand().values[0, g.size - 1])
    assert crop.expand().values.tobytes() == vals.tobytes()
    empty = GridCrop.of(zeros(g))
    assert empty.box == (0, 0, 0, 0) and empty.values.size == 0
    assert empty.expand().values.tobytes() == zeros(g).values.tobytes()


def test_feature_stack_shape_checks():
    from equiaudit import FeatureStack

    g = GridGeometry(0.5, 0.25)
    a, b = zeros(g), zeros(g)
    st = FeatureStack((a, b))
    assert st.channel_count == 2
    assert st.values3d().shape == (2, g.size, g.size)
    with pytest.raises(GeometryMismatchError):
        FeatureStack((a, zeros(GridGeometry(0.5, 0.1))))
    with pytest.raises(ValueError):
        FeatureStack(())
