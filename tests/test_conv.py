import math

import numpy as np
import pytest

from equiaudit import (
    ConvLayer,
    CnnModel,
    Filter,
    Grid,
    GridGeometry,
    InvalidModelError,
    Nonlinearity,
    build_model,
    convolve,
    elliptic_ring_filter,
    embed_filter,
    filter_fixed_point_residual,
    filter_from_grid,
    gaussian_filter,
    impulse_filter,
    interior_mask,
    load_model,
    make_bump,
    model_forward,
    model_from_json,
    model_to_json,
    n_fold_symmetrize,
    radial_filter,
    random_blob_filter,
    random_radial_filter,
    receptive_radius,
    refine_filter,
    render,
    ring_filter,
    resample_affine,
    save_model,
    support_estimate,
    transform_filter,
    translate,
    zeros,
)
from equiaudit.errors import DomainFitError, TransformClassError
from equiaudit.transform import LinearMap2, parse_transform


def naive_convolve(field: Grid, lam: Filter) -> np.ndarray:
    """Quadratic-time reference: out(x) = sum_y lam(y) f(x - y) h^2."""
    h = field.geometry.spacing
    fv = field.values
    kv = lam.grid.values
    n = field.geometry.size
    m = lam.grid.geometry.half_count
    out = np.zeros_like(fv)
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for p in range(-m, m + 1):  # kernel row offset (y decreasing)
                fi = i + p
                if fi < 0 or fi >= n:
                    continue
                for q in range(-m, m + 1):
                    fj = j + q
                    if fj < 0 or fj >= n:
                        continue
                    # kernel node at row m+p holds y = -p*h; f read at y_i - y
                    acc += kv[m - p, m - q] * fv[fi, fj]
            out[i, j] = acc * h * h
    return out


def test_convolve_matches_naive_double_loop():
    g = GridGeometry(0.5, 0.05)
    kg = GridGeometry(0.15, 0.05)
    rng = np.random.default_rng(17)
    for _ in range(3):
        f = Grid(g, rng.normal(size=(g.size, g.size)))
        lam = filter_from_grid(Grid(kg, rng.normal(size=(kg.size, kg.size))))
        got = convolve(f, lam).values
        want = naive_convolve(f, lam)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_convolve_impulse_is_identity():
    g = GridGeometry(0.6, 0.04)
    rng = np.random.default_rng(2)
    f = Grid(g, rng.normal(size=(g.size, g.size)))
    out = convolve(f, impulse_filter(GridGeometry(g.spacing, g.spacing)))
    np.testing.assert_allclose(out.values, f.values, rtol=1e-12, atol=0)


def test_convolve_linearity():
    g = GridGeometry(0.5, 0.05)
    rng = np.random.default_rng(5)
    f = Grid(g, rng.normal(size=(g.size, g.size)))
    k = Grid(g, rng.normal(size=(g.size, g.size)))
    lam = gaussian_filter(0.08, GridGeometry(0.25, 0.05))
    lhs = convolve(Grid(g, 2.0 * f.values - 3.0 * k.values), lam).values
    rhs = 2.0 * convolve(f, lam).values - 3.0 * convolve(k, lam).values
    np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-14)


def test_convolve_constant_field_interior():
    g = GridGeometry(0.8, 0.04)
    lam = gaussian_filter(0.07, GridGeometry(0.24, 0.04))
    c = 1.7
    f = Grid(g, np.full((g.size, g.size), c))
    out = convolve(f, lam)
    mass = lam.grid.integral()
    mask = interior_mask(g, lam.support_radius + g.spacing)
    np.testing.assert_allclose(out.values[mask], c * mass, rtol=1e-12)


def test_gaussian_convolution_closed_form():
    # g_s1 * g_s2 at 0 equals 2 pi s1^2 s2^2 / (s1^2 + s2^2); truncation and
    # quadrature errors stay under one percent at these settings
    s1, s2 = 0.15, 0.08
    g = GridGeometry(1.2, 0.02)
    f = render(g, lambda x, y: np.exp(-(np.asarray(x) ** 2 + np.asarray(y) ** 2) / (2 * s1 * s1)))
    lam = gaussian_filter(s2, GridGeometry(0.36, 0.02))
    out = convolve(f, lam)
    want = 2.0 * math.pi * s1 * s1 * s2 * s2 / (s1 * s1 + s2 * s2)
    assert out.origin_value == pytest.approx(want, rel=0.01)


def test_convolve_translation_covariance_is_exact():
    g = GridGeometry(1.0, 0.05)
    f = make_bump((0.1, 0.0), 0.3, 1.0, g)
    lam = ring_filter(0.1, 0.03, GridGeometry(0.2, 0.05))
    delta = (0.25, -0.15)  # lattice shift: 5 and 3 nodes
    a = convolve(translate(f, delta), lam)
    b = translate(convolve(f, lam), delta)
    # content plus kernel radius plus shift stays inside, so no edge effects
    assert np.array_equal(a.values, b.values)


def test_convolve_is_invariant_to_kernel_zero_padding():
    # transform_filter grows kernel grids with zeros; the added taps must not
    # change a single output bit, or the exact naturality laws break
    g = GridGeometry(1.0, 0.05)
    rng = np.random.default_rng(23)
    f = Grid(g, rng.normal(size=(g.size, g.size)))
    lam = random_blob_filter(GridGeometry(0.3, 0.05), 0.3, rng)
    wide = embed_filter(lam, GridGeometry(0.45, 0.05))
    assert wide.grid.geometry.size > lam.grid.geometry.size
    assert np.array_equal(convolve(f, lam).values, convolve(f, wide).values)


def test_convolve_kernel_grid_wider_than_image():
    # the support fits inside the image even though the kernel grid does not
    g = GridGeometry(0.3, 0.05)
    kg = GridGeometry(0.5, 0.05)
    rng = np.random.default_rng(29)
    f = Grid(g, rng.normal(size=(g.size, g.size)))
    lam = random_blob_filter(kg, 0.25, rng)
    assert kg.size > g.size and lam.support_radius < g.extent
    got = convolve(f, lam).values
    np.testing.assert_allclose(got, naive_convolve(f, lam), rtol=1e-12, atol=1e-14)


def test_convolve_single_sample_is_the_shifted_kernel():
    # a lone unit sample at each corner, edge midpoint and the center: the
    # input box is 1 x 1, so each output is one product and the result is
    # h^2 times the kernel shifted to the sample and cropped to the domain
    g = GridGeometry(0.2, 0.05)  # n = 9
    kg = GridGeometry(0.45, 0.05)  # k = 19, wider than the image
    rng = np.random.default_rng(31)
    X, Y = kg.coords()
    kv = rng.normal(size=(kg.size, kg.size))
    kv[(rng.random(kv.shape) < 0.3) | (np.hypot(X, Y) > 0.2)] = 0.0  # holes
    lam = Filter(Grid(kg, kv), 0.2)
    n, c, h = g.size, kg.half_count, g.spacing
    assert kg.size > n and not np.array_equal(kv, kv[::-1, ::-1])
    for i0 in (0, n // 2, n - 1):
        for j0 in (0, n // 2, n - 1):
            vals = np.zeros((n, n))
            vals[i0, j0] = 1.0
            got = convolve(Grid(g, vals), lam).values
            # output (i, j) reads tap (i - i0 + c, j - j0 + c)
            want = kv[c - i0 : c - i0 + n, c - j0 : c - j0 + n] * (h * h)
            assert got.tobytes() == want.tobytes(), (i0, j0)


def test_convolve_one_column_and_one_row_boxes_are_exact():
    # boxes one sample wide or one sample high, where the row-stride layout
    # is mostly gap. Integer samples and a power-of-two spacing make every
    # sum exact in any order, so the naive loop must agree bit for bit. One
    # kernel grid is wider than the image; the other is dense up to its
    # corner taps, so the last tap's run ends at the accumulator's last sample
    g = GridGeometry(1.0, 0.25)  # n = 9
    rng = np.random.default_rng(37)
    kernels = []
    for kg, radius in ((GridGeometry(1.5, 0.25), 1.0), (GridGeometry(0.5, 0.25), 0.75)):
        X, Y = kg.coords()
        kv = rng.integers(1, 5, size=(kg.size, kg.size)) * rng.choice([-1.0, 1.0], size=X.shape)
        kv[np.hypot(X, Y) > radius] = 0.0
        kernels.append(Filter(Grid(kg, kv), radius))
    assert kernels[0].grid.geometry.size > g.size and np.all(kernels[1].grid.values != 0.0)
    n = g.size
    for at in (0, n // 2, n - 1):
        for lo, hi in ((0, n), (2, 7)):
            line = rng.integers(1, 5, size=hi - lo) * rng.choice([-1.0, 1.0], size=hi - lo)
            column = np.zeros((n, n))
            column[lo:hi, at] = line
            row = np.zeros((n, n))
            row[at, lo:hi] = line
            for vals in (column, row):
                f = Grid(g, vals)
                for lam in kernels:
                    got = convolve(f, lam).values
                    want = naive_convolve(f, lam)
                    assert got.tobytes() == want.tobytes(), (at, lo, hi)


def test_convolve_spacing_mismatch_and_domain_fit():
    from equiaudit import GeometryMismatchError

    g = GridGeometry(0.5, 0.05)
    f = zeros(g)
    with pytest.raises(GeometryMismatchError):
        convolve(f, gaussian_filter(0.05, GridGeometry(0.2, 0.04)))
    big = filter_from_grid(zeros(GridGeometry(0.6, 0.05)), support_radius=0.6)
    with pytest.raises(DomainFitError):
        convolve(f, big)


def test_filter_support_radius_is_a_promise():
    g = GridGeometry(0.2, 0.05)
    vals = np.zeros((g.size, g.size))
    vals[g.half_count, g.half_count + 2] = 1.0  # at x = 0.1
    with pytest.raises(ValueError):
        Filter(Grid(g, vals), 0.05)
    lam = Filter(Grid(g, vals), 0.11)
    assert lam.support_radius == 0.11
    # measured radius from the grid itself
    assert filter_from_grid(Grid(g, vals)).support_radius == pytest.approx(0.1)


def test_nonlinearity_parse_and_apply():
    stack = np.array([[[-1.0, 2.0]], [[3.0, -4.0]]])
    ident = Nonlinearity.parse("identity")
    np.testing.assert_array_equal(ident.apply(stack), stack)
    relu = Nonlinearity.parse("relu")
    np.testing.assert_array_equal(relu.apply(stack), np.maximum(stack, 0.0))

    sig = Nonlinearity.parse("lipschitz_sigmoid(0.5)")
    out = sig.apply(np.array([[[0.0]]]))
    assert out[0, 0, 0] == pytest.approx(0.5)
    # slope at 0 equals the declared bound
    eps = 1e-6
    lo = sig.apply(np.array([[[-eps]]]))[0, 0, 0]
    hi = sig.apply(np.array([[[eps]]]))[0, 0, 0]
    assert (hi - lo) / (2 * eps) == pytest.approx(0.5, rel=1e-4)
    assert sig.to_string() == "lipschitz_sigmoid(0.5)"

    soft = Nonlinearity.parse("softmax")
    s = soft.apply(stack)
    np.testing.assert_allclose(s.sum(axis=0), 1.0, rtol=1e-12)
    manual = np.exp(stack) / np.exp(stack).sum(axis=0)
    np.testing.assert_allclose(s, manual, rtol=1e-12)

    with pytest.raises(InvalidModelError):
        Nonlinearity.parse("swish")
    with pytest.raises(InvalidModelError):
        Nonlinearity.parse("lipschitz_sigmoid(-1)")


def test_layer_forward_matches_unfused_ops():
    h = 0.05
    kg = GridGeometry(0.15, h)
    g = GridGeometry(0.6, h)
    rng = np.random.default_rng(23)
    k = [[filter_from_grid(Grid(kg, rng.normal(size=(kg.size, kg.size)))) for _ in range(2)]
         for _ in range(3)]
    layer = ConvLayer(
        kernels=tuple(tuple(row) for row in k),
        biases=(0.3, -0.1),
        nonlinearity=Nonlinearity.parse("relu"),
    )
    model = CnnModel((layer,))
    f0 = Grid(g, rng.normal(size=(g.size, g.size)))
    f1 = Grid(g, rng.normal(size=(g.size, g.size)))
    f2 = Grid(g, rng.normal(size=(g.size, g.size)))
    out = model_forward((f0, f1, f2), model)
    for c in range(2):
        pre = (
            convolve(f0, k[0][c]).values
            + convolve(f1, k[1][c]).values
            + convolve(f2, k[2][c]).values
            + layer.biases[c]
        )
        np.testing.assert_allclose(
            out.channels[c].values, np.maximum(pre, 0.0), rtol=1e-12, atol=1e-14
        )


def test_model_structure_validation():
    kg = GridGeometry(0.1, 0.05)
    lam = gaussian_filter(0.05, kg)
    relu = Nonlinearity.parse("relu")
    soft = Nonlinearity.parse("softmax")
    with pytest.raises(InvalidModelError):
        ConvLayer(kernels=((lam,), (lam,)), biases=(0.0, 0.0), nonlinearity=relu)
    lay1 = ConvLayer(kernels=((lam, lam),), biases=(0.0, 0.0), nonlinearity=soft)
    lay2 = ConvLayer(kernels=((lam,), (lam,)), biases=(0.0,), nonlinearity=relu)
    with pytest.raises(InvalidModelError):
        CnnModel((lay1, lay2))  # softmax before the last layer
    with pytest.raises(InvalidModelError):
        CnnModel((lay2, lay2))  # channel count mismatch 1 -> (2 in)


def test_receptive_radius_accumulates():
    h = 0.05
    mk = lambda r: gaussian_filter(r / 3.0, GridGeometry(r, h))
    relu = Nonlinearity.parse("relu")
    layers = []
    for r in (1.0, 2.0, 0.5):
        layers.append(
            ConvLayer(kernels=((mk(r),),), biases=(0.0,), nonlinearity=relu)
        )
    model = CnnModel(tuple(layers))
    assert receptive_radius(model) == pytest.approx(3.5)
    assert receptive_radius(CnnModel(())) == 0.0


def test_zero_layer_model_is_identity():
    g = GridGeometry(0.4, 0.1)
    rng = np.random.default_rng(1)
    f = Grid(g, rng.normal(size=(g.size, g.size)))
    out = model_forward(f, CnnModel(()))
    assert np.array_equal(out.channels[0].values, f.values)


def test_transform_filter_identity_and_mass():
    kg = GridGeometry(0.3, 0.02)
    lam = ring_filter(0.15, 0.04, kg)
    out = transform_filter(lam, LinearMap2.identity())
    big = embed_filter(lam, out.grid.geometry)
    assert np.array_equal(out.grid.values, big.grid.values)
    # mass is preserved by any invertible map: |det| times substitution
    for spec in ("rot:33", "scale:2", "shear:1", "scale:0.5,1.5"):
        T = parse_transform(spec)
        moved = transform_filter(lam, T)
        assert moved.grid.integral() == pytest.approx(lam.grid.integral(), rel=0.01)
        # declared radius covers the true support with the interpolation margin
        h = kg.spacing
        want = T.inverse().operator_norm() * (lam.support_radius + math.sqrt(2.0) * h)
        assert moved.support_radius == pytest.approx(want, rel=1e-12)


def test_transform_filter_rot90_is_exact_on_radial():
    lam = radial_filter(lambda r: np.exp(-((r / 0.08) ** 2)), GridGeometry(0.24, 0.02))
    out = transform_filter(lam, parse_transform("rot:90"))
    big = embed_filter(lam, out.grid.geometry)
    assert np.array_equal(out.grid.values, big.grid.values)


def test_transform_filter_scaling_against_direct_render():
    # |det T| lam(T x) for T = diag(2) rendered straight from the profile
    prof = lambda r: np.exp(-((r / 0.1) ** 2))
    lam = radial_filter(prof, GridGeometry(0.3, 0.02))
    out = transform_filter(lam, LinearMap2.scaling(2.0))
    gg = out.grid.geometry
    want = render(gg, lambda x, y: 4.0 * prof(np.hypot(2.0 * np.asarray(x), 2.0 * np.asarray(y))))
    # direct reads at scaled nodes: only bilinear error remains
    np.testing.assert_allclose(out.grid.values, want.values, atol=2e-3)


def test_radial_filter_fixed_points():
    kg = GridGeometry(0.24, 0.02)
    lam = radial_filter(lambda r: np.exp(-((r / 0.07) ** 2)), kg)
    # quarter turn reads exact lattice nodes of an exactly symmetric sampling
    assert filter_fixed_point_residual(lam, parse_transform("rot:90")) == 0.0
    assert filter_fixed_point_residual(lam, parse_transform("rot:30")) <= 5 * kg.spacing
    assert filter_fixed_point_residual(lam, parse_transform("scale:2")) >= 0.5


def test_radial_filter_from_samples_and_truncation():
    radii = np.array([0.0, 0.05, 0.1, 0.2])
    vals = np.array([1.0, 0.5, 0.2, 0.0])
    lam = radial_filter((radii, vals), GridGeometry(0.1, 0.05))
    # profile support reaches 0.2 but the grid inscribes only 0.1
    assert lam.support_radius <= 0.1 + 1e-12
    assert lam.grid.values[1, 1] > 0.0
    corner = lam.grid.values[0, 0]
    assert corner == 0.0  # |x| = 0.1 sqrt(2) lies outside the inscribed disc


def _radial_filter_by_formula(profile, geometry):
    """radial_filter written out on its own: profile(|x|) rendered inside the
    inscribed disc, then the support radius measured."""
    if callable(profile):
        prof = profile
    else:
        radii, values = (np.asarray(a, dtype=np.float64) for a in profile)
        prof = lambda r: np.interp(r, radii, values, left=values[0], right=0.0)
    R = geometry.extent

    def src(x, y):
        r = np.hypot(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
        return np.where(r <= R, prof(r), 0.0)

    g = render(geometry, src)
    return Filter(g, support_estimate(g, 0.0).radius)


@pytest.mark.parametrize(
    "profile",
    [
        lambda r: np.exp(-(((r - 0.08) / 0.05) ** 2)) - 0.3 * np.exp(-((r / 0.03) ** 2)),
        ([0.0, 0.05, 0.1, 0.2], [1.0, -0.5, 0.2, 0.0]),
    ],
    ids=["callable", "table"],
)
def test_radial_filter_matches_its_formula_bit_for_bit(profile):
    geometry = GridGeometry(0.18, 0.02)
    got = radial_filter(profile, geometry)
    want = _radial_filter_by_formula(profile, geometry)
    for a, b in ((got, want), (refine_filter(got, 2), refine_filter(want, 2))):
        assert a.grid.geometry == b.grid.geometry
        assert a.grid.values.tobytes() == b.grid.values.tobytes()
        assert a.support_radius == b.support_radius


def test_n_fold_symmetrize_period_and_errors():
    kg = GridGeometry(0.2, 0.02)
    rng = np.random.default_rng(31)
    base = random_blob_filter(kg, 0.18, rng)
    rot90 = parse_transform("rot:90")
    lam4 = n_fold_symmetrize(base, rot90, 4)
    assert filter_fixed_point_residual(lam4, rot90) <= 1e-12
    lam6 = n_fold_symmetrize(base, parse_transform("rot:60"), 6)
    assert filter_fixed_point_residual(lam6, parse_transform("rot:60")) <= 5 * kg.spacing
    with pytest.raises(ValueError):
        n_fold_symmetrize(base, rot90, 0)
    with pytest.raises(TransformClassError):
        n_fold_symmetrize(base, rot90, 3)  # order 4 does not divide 3
    with pytest.raises(TransformClassError):
        n_fold_symmetrize(base, parse_transform("shear:1"), 4)


def test_elliptic_ring_filter_invariant_under_conjugate_rotation():
    B = LinearMap2(1.0, 0.4, 0.0, 0.8)
    lam = elliptic_ring_filter(B, (lambda r: np.exp(-(((r - 0.1) / 0.03) ** 2))),
                               GridGeometry(0.3, 0.02))
    T = B.inverse().compose(LinearMap2.rotation(37.0)).compose(B)
    assert filter_fixed_point_residual(lam, T) <= 5 * 0.02
    assert filter_fixed_point_residual(lam, LinearMap2.scaling(2.0)) >= 0.5


def test_random_filters_are_reproducible_and_bounded():
    kg = GridGeometry(0.2, 0.02)
    a = random_blob_filter(kg, 0.18, np.random.default_rng(9))
    b = random_blob_filter(kg, 0.18, np.random.default_rng(9))
    assert np.array_equal(a.grid.values, b.grid.values)
    assert a.grid.sup_norm() == pytest.approx(1.0)
    c = random_radial_filter(kg, 0.18, np.random.default_rng(9))
    assert c.grid.sup_norm() == pytest.approx(1.0)
    assert filter_fixed_point_residual(c, parse_transform("rot:90")) == 0.0


def test_refine_filter_re_renders_and_remeasures():
    kg = GridGeometry(0.2, 0.04)
    lam = gaussian_filter(0.05, kg)
    fine = refine_filter(lam, 2)
    assert fine.grid.geometry.spacing == pytest.approx(0.02)
    assert np.array_equal(fine.grid.values[::2, ::2], lam.grid.values)
    assert fine.support_radius >= lam.support_radius - 1e-12
    # factor 1 is the filter itself, radius not re-measured
    assert refine_filter(lam, 1) is lam


def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(40)
    model = build_model(
        {
            "layers": 2,
            "channels": 2,
            "kernel_radius": 0.1,
            "nonlinearity": "relu",
            "symmetrization": "none",
            "bias_scale": 0.2,
        },
        spacing=0.02,
        rng=rng,
    )
    blob = model_to_json(model)
    back = model_from_json(blob)
    assert len(back.layers) == len(model.layers)
    for la, lb in zip(model.layers, back.layers):
        assert la.biases == lb.biases
        assert la.nonlinearity.to_string() == lb.nonlinearity.to_string()
        for ra, rb in zip(la.kernels, lb.kernels):
            for ka, kb in zip(ra, rb):
                assert np.array_equal(ka.grid.values, kb.grid.values)
                assert ka.support_radius == kb.support_radius

    p = tmp_path / "model.json"
    save_model(model, p)
    loaded = load_model(p)
    g = GridGeometry(0.5, 0.02)
    f = make_bump((0.0, 0.0), 0.3, 1.0, g)
    np.testing.assert_array_equal(
        model_forward(f, loaded).channels[0].values,
        model_forward(f, model).channels[0].values,
    )


def test_model_json_rejects_bad_payloads():
    good = model_to_json(
        build_model(
            {"layers": 1, "channels": 1, "kernel_radius": 0.1,
             "nonlinearity": "identity", "symmetrization": "radial"},
            spacing=0.05,
            rng=np.random.default_rng(0),
        )
    )
    import copy
    import json as _json

    cases = []
    b = copy.deepcopy(good)
    del b["layers"]
    cases.append(b)
    b = copy.deepcopy(good)
    b["layers"][0]["nonlinearity"] = "swish"
    cases.append(b)
    b = copy.deepcopy(good)
    b["layers"][0]["kernels"][0][0]["values"] = [[1.0, 2.0], [3.0, 4.0]]  # even side
    cases.append(b)
    b = copy.deepcopy(good)
    b["layers"][0]["kernels"][0][0]["values"][0].append(1.0)  # ragged
    cases.append(b)
    b = copy.deepcopy(good)
    b["layers"][0]["biases"] = [0.0, 0.0]  # wrong count
    cases.append(b)
    for bad in cases:
        with pytest.raises(InvalidModelError):
            model_from_json(_json.loads(_json.dumps(bad)))


def test_build_model_recipes():
    rng = np.random.default_rng(77)
    m = build_model(
        {"layers": 2, "channels": 2, "kernel_radius": 0.12,
         "nonlinearity": "lipschitz_sigmoid(0.8)", "symmetrization": "n_fold",
         "n_fold": 4, "bias_scale": 0.0},
        spacing=0.02,
        rng=rng,
    )
    assert len(m.layers) == 2
    assert m.layers[0].in_channels == 1 and m.layers[1].in_channels == 2
    assert m.layers[0].out_channels == 2 and m.layers[1].out_channels == 2
    for lay in m.layers:
        assert all(b == 0.0 for b in lay.biases)
        for row in lay.kernels:
            for k in row:
                assert filter_fixed_point_residual(k, parse_transform("rot:90")) <= 1e-12
    with pytest.raises(ValueError):
        build_model({"layers": 0, "channels": 1, "kernel_radius": 0.1,
                     "nonlinearity": "relu", "symmetrization": "none"},
                    spacing=0.02, rng=rng)
    with pytest.raises(ValueError):
        build_model({"layers": 1, "channels": [1], "kernel_radius": 0.1,
                     "nonlinearity": "relu", "symmetrization": "none"},
                    spacing=0.02, rng=rng)
    with pytest.raises(ValueError):
        build_model({"layers": 1, "depth": 3}, spacing=0.02, rng=rng)
