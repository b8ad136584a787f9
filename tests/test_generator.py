import math

import numpy as np
import pytest

from equiaudit import (
    CnnModel,
    ConvLayer,
    DomainFitError,
    Grid,
    GridGeometry,
    Nonlinearity,
    TransformClassError,
    build_model,
    constant_operator,
    contraction_sequence,
    conjugate_operator,
    convolution_operator,
    convolve,
    estimate_semilocal_radius,
    gaussian_filter,
    generator_eval,
    global_average_operator,
    identity_operator,
    is_nonconstant,
    make_bump,
    model_channel_operator,
    model_forward,
    model_forward_stages,
    operator_from_generator,
    render,
    resample_affine,
    ring_filter,
    zeros,
)
from equiaudit import conv
from equiaudit.transform import LinearMap2, parse_transform


def _small_model(seed=0, nonlinearity="relu", layers=1, bias=0.1, spacing=0.05):
    return build_model(
        {"layers": layers, "channels": 1, "kernel_radius": 0.15,
         "nonlinearity": nonlinearity, "symmetrization": "none",
         "bias_scale": bias},
        spacing=spacing,
        rng=np.random.default_rng(seed),
    )


def test_generator_eval_basic_operators():
    g = GridGeometry(0.6, 0.05)
    f = make_bump((0.1, 0.0), 0.3, 1.2, g)
    assert generator_eval(identity_operator(), f) == f.origin_value
    assert generator_eval(constant_operator(3.5), f) == 3.5
    lam = gaussian_filter(0.06, GridGeometry(0.15, 0.05))
    assert generator_eval(convolution_operator(lam), f) == convolve(f, lam).origin_value
    avg = global_average_operator()
    assert generator_eval(avg, f) == pytest.approx(f.values.mean(), rel=1e-12)


def test_generator_eval_domain_fit():
    g = GridGeometry(0.2, 0.05)
    lam = gaussian_filter(0.1, GridGeometry(0.3, 0.05))
    with pytest.raises(DomainFitError):
        generator_eval(convolution_operator(lam), zeros(g))


def test_model_channel_operator_rejects_a_channel_when_built():
    model = _small_model(seed=5, layers=2)
    for depth, channel in ((None, 2), (None, -1), (0, 1)):
        with pytest.raises(ValueError, match="outside"):
            model_channel_operator(model, depth=depth, channel=channel)


def test_model_channel_operator_depths():
    model = _small_model(seed=5, layers=2)
    g = GridGeometry(0.8, 0.05)
    f = make_bump((0.0, 0.1), 0.3, 1.0, g)
    full = model_channel_operator(model)
    np.testing.assert_array_equal(
        full(f).values, model_forward(f, model).channels[0].values
    )
    half = model_channel_operator(model, depth=1)
    assert half.declared_receptive_radius == pytest.approx(0.15)
    assert full.declared_receptive_radius == pytest.approx(0.3)
    ident = model_channel_operator(model, depth=0)
    np.testing.assert_array_equal(ident(f).values, f.values)
    with pytest.raises(ValueError):
        model_channel_operator(model, depth=3)


@pytest.mark.parametrize(
    "nonlinearity", ["identity", "relu", "lipschitz_sigmoid(2)", "softmax"]
)
def test_model_channel_operator_matches_the_full_stage(nonlinearity):
    # the operator evaluates one channel of its last layer (all of them under
    # softmax); the result must equal that channel of the full forward pass
    model = build_model(
        {"layers": 2, "channels": 2, "kernel_radius": 0.15,
         "nonlinearity": nonlinearity, "symmetrization": "none",
         "bias_scale": 0.3},
        spacing=0.05,
        rng=np.random.default_rng(9),
    )
    f = make_bump((0.1, -0.05), 0.3, 1.0, GridGeometry(0.8, 0.05))
    stages = model_forward_stages(f, model)
    for depth in (1, 2):
        for c in (0, 1):
            got = model_channel_operator(model, depth=depth, channel=c)(f).values
            assert np.array_equal(got, stages[depth].channels[c].values)
    with pytest.raises(ValueError):
        model_channel_operator(model, depth=1, channel=2)(f)


@pytest.mark.parametrize("last, calls", [("relu", 2 + 2), ("softmax", 2 + 6)])
def test_model_channel_operator_convolves_only_the_audited_channel(monkeypatch, last, calls):
    # a 1 -> 2 -> 3 model at channel 1: a pointwise last layer convolves the
    # two inputs into channel 1 alone, softmax mixes channels and needs all six
    kg = GridGeometry(0.15, 0.05)
    k = gaussian_filter(0.06, kg)
    model = CnnModel((
        ConvLayer(((k, k),), (0.0, 0.1), Nonlinearity("relu")),
        ConvLayer(((k, k, k), (k, k, k)), (0.0, 0.2, -0.1), Nonlinearity(last)),
    ))
    op = model_channel_operator(model, channel=1)
    f = make_bump((0.0, 0.1), 0.3, 1.0, GridGeometry(0.8, 0.05))
    count = [0]
    inner = conv.convolve

    def counting(*args, **kwargs):
        count[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(conv, "convolve", counting)
    got = op(f)
    assert count[0] == calls
    monkeypatch.undo()
    assert np.array_equal(got.values, model_forward(f, model).channels[1].values)


def test_operator_from_generator_round_trip_is_exact_inside():
    g = GridGeometry(1.0, 0.05)
    f = make_bump((0.1, 0.0), 0.25, 1.0, g)
    for op in (
        identity_operator(),
        convolution_operator(ring_filter(0.1, 0.04, GridGeometry(0.2, 0.05))),
        model_channel_operator(_small_model(seed=3, bias=0.2), channel=0),
    ):
        mu = lambda field: generator_eval(op, field)
        rebuilt = operator_from_generator(mu, g)
        got = rebuilt(f).values
        want = op(f).values
        # content radius 0.35 plus |x| stays inside the domain for |x| <= 0.6
        m = g.half_count
        k = int(round(0.6 / g.spacing))
        sl = np.s_[m - k : m + k + 1, m - k : m + k + 1]
        assert np.array_equal(got[sl], want[sl])


def test_operator_from_generator_needs_translations():
    # the rebuilt global average differs from the true one near the boundary
    g = GridGeometry(0.5, 0.1)
    f = make_bump((0.2, 0.0), 0.2, 1.0, g)
    op = global_average_operator()
    rebuilt = operator_from_generator(lambda x: generator_eval(op, x), g)
    assert not np.allclose(rebuilt(f).values, op(f).values)


def test_estimate_semilocal_radius_conv():
    g = GridGeometry(1.0, 0.05)
    base = make_bump((0.0, 0.0), 0.25, 1.0, g)
    lam = gaussian_filter(0.05, GridGeometry(0.15, 0.05))
    op = convolution_operator(lam)
    radii = [k * 0.05 for k in range(1, 13)]
    est = estimate_semilocal_radius(op, base, radii, tol=1e-12)
    # reads stop at the kernel radius; the probe layout certifies it by 0.2
    assert est <= 0.15 + 2 * 0.05
    assert est >= 0.1


def test_estimate_semilocal_radius_two_layer_model():
    g = GridGeometry(1.0, 0.05)
    base = make_bump((0.1, 0.0), 0.2, 0.8, g)
    model = _small_model(seed=11, layers=2, bias=0.1)
    op = model_channel_operator(model)
    bound = 0.3  # two kernels of radius 0.15
    radii = [k * 0.05 for k in range(1, 13)]
    est = estimate_semilocal_radius(op, base, radii, tol=1e-12)
    assert est <= bound + 2 * 0.05


def test_estimate_semilocal_radius_global_average_is_inf():
    g = GridGeometry(1.0, 0.05)
    base = make_bump((0.0, 0.0), 0.25, 1.0, g)
    op = global_average_operator()
    radii = [k * 0.05 for k in range(1, 13)]
    est = estimate_semilocal_radius(op, base, radii, tol=1e-12)
    assert est == math.inf


def test_estimate_semilocal_radius_conjugate_shrinks():
    g = GridGeometry(1.0, 0.05)
    base = make_bump((0.0, 0.0), 0.2, 1.0, g)
    lam = gaussian_filter(0.07, GridGeometry(0.21, 0.05))
    op = convolution_operator(lam)
    conj = conjugate_operator(op, LinearMap2.scaling(2.0))
    assert conj.declared_receptive_radius == pytest.approx(0.5 * lam.support_radius)
    radii = [k * 0.05 for k in range(1, 13)]
    est_conj = estimate_semilocal_radius(conj, base, radii, tol=1e-9)
    est_raw = estimate_semilocal_radius(op, base, radii, tol=1e-9)
    assert est_conj <= est_raw


def test_estimate_semilocal_radius_rejects_cramped_domain():
    g = GridGeometry(0.4, 0.05)
    base = make_bump((0.0, 0.0), 0.2, 1.0, g)
    op = identity_operator()
    with pytest.raises(DomainFitError):
        estimate_semilocal_radius(op, base, [0.35], tol=1e-9)


def test_is_nonconstant():
    g = GridGeometry(0.8, 0.05)
    corpus = [make_bump((0.1 * i, 0.0), 0.2, 1.0, g) for i in range(3)]
    lam = gaussian_filter(0.06, GridGeometry(0.18, 0.05))
    rec = is_nonconstant(convolution_operator(lam), corpus)
    assert rec is not None
    assert rec.descriptor == "corpus[0]"
    assert rec.metadata["baseline"] == 0.0
    assert is_nonconstant(constant_operator(2.0), corpus) is None
    assert is_nonconstant(convolution_operator(lam), []) is None


def test_conjugate_operator_identity_matches():
    g = GridGeometry(0.8, 0.05)
    f = make_bump((0.1, -0.1), 0.3, 1.0, g)
    lam = gaussian_filter(0.06, GridGeometry(0.18, 0.05))
    op = convolution_operator(lam)
    conj = conjugate_operator(op, LinearMap2.identity())
    np.testing.assert_array_equal(conj(f).values, op(f).values)


def test_contraction_collapses_annulus_under_scaling():
    g = GridGeometry(1.2, 0.02)
    # compactly supported annulus: window of (r - r0)/halfwidth
    from equiaudit import smooth_window

    f = render(g, lambda x, y: smooth_window((np.hypot(x, y) - 0.3) / 0.12))
    model = _small_model(seed=7, bias=0.1, spacing=0.02)
    op = model_channel_operator(model)
    steps = contraction_sequence(f, parse_transform("scale:2"), 0.5, 4, op=op)
    assert len(steps) == 5
    assert steps[0].support_measure > 0.0
    mu0 = generator_eval(op, zeros(g))
    # inner radius 0.18 leaves the 0.5 window by the second doubling
    for s in steps:
        if s.n >= 2:
            assert s.support_measure == 0.0
            assert s.mu_value == mu0
    assert steps[1].support_measure < steps[0].support_measure


def test_contraction_collapses_offset_bump_under_one_axis_stretch():
    g = GridGeometry(1.2, 0.02)
    f = make_bump((0.3, 0.0), 0.1, 1.0, g)
    steps = contraction_sequence(f, parse_transform("scale:2,1"), 0.5, 3)
    assert steps[0].support_measure > 0.0
    # the x edge at 0.2 crosses the 0.5 window once doubled twice
    assert steps[2].support_measure == 0.0
    assert steps[3].support_measure == 0.0
    assert steps[0].mu_value is None


def test_contraction_identity_never_collapses():
    g = GridGeometry(1.0, 0.02)
    f = make_bump((0.2, 0.0), 0.15, 1.0, g)
    steps = contraction_sequence(f, LinearMap2.identity(), 0.6, 3)
    measures = [s.support_measure for s in steps]
    assert all(m == measures[0] for m in measures)
    assert measures[0] > 0.0


def test_contraction_rejects_contracting_map():
    g = GridGeometry(1.0, 0.02)
    f = make_bump((0.2, 0.0), 0.15, 1.0, g)
    with pytest.raises(TransformClassError):
        contraction_sequence(f, parse_transform("scale:0.5"), 0.6, 3)
    with pytest.raises(TransformClassError):
        contraction_sequence(f, parse_transform("scale:2,0.5"), 0.6, 3)
    # rotations have unit spectrum and are allowed
    steps = contraction_sequence(f, parse_transform("rot:90"), 0.6, 2)
    assert steps[1].support_measure > 0.0
