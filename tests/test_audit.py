import math

import numpy as np
import pytest

from equiaudit import (
    AuditSettings,
    CnnModel,
    ConstantFeatureError,
    ConvLayer,
    DomainFitError,
    Filter,
    GeometryMismatchError,
    Grid,
    GridGeometry,
    NoCounterexampleError,
    Nonlinearity,
    ResolutionWarning,
    alignment_residual,
    build_model,
    commutation_check,
    convolution_operator,
    convolve,
    filter_fixed_point_residual,
    fit_rate,
    full_paper_audit,
    gaussian_filter,
    generator_invariance_residual,
    glyph,
    make_bump,
    make_corpus,
    model_channel_operator,
    mollifier_recover_filter,
    n_fold_symmetrize,
    naturality_check,
    norot_counterexample,
    radial_filter,
    random_blob_filter,
    refine,
    refine_model,
    render,
    resample_affine,
    ring_filter,
    smooth_window,
    tolerance,
    translate,
)
from equiaudit.transform import LinearMap2, parse_transform

# numpy >= 2.0 names it trapezoid (trapz is gone); older numpy has only trapz
_trapz = getattr(np, "trapezoid", None) or np.trapz


def _radial_op(radius=0.2, sigma=0.06, h=0.05):
    return convolution_operator(gaussian_filter(sigma, GridGeometry(radius, h)))


def test_tolerance_scales_linearly():
    assert tolerance(0.01, 2.0) == pytest.approx(0.1)
    assert tolerance(0.02, 2.0) == 2 * tolerance(0.01, 2.0)
    assert tolerance(0.01, 2.0, factor=10.0) == pytest.approx(0.2)


def test_fit_rate_recovers_power_laws():
    hs = [0.04, 0.02, 0.01, 0.005]
    for p in (1.0, 2.0):
        res = [3.0 * h ** p for h in hs]
        assert fit_rate(hs, res, floor=1e-12) == pytest.approx(p, abs=1e-9)
    # everything at the floor reads as converged
    assert fit_rate(hs, [1e-15] * 4, floor=1e-12) == math.inf
    # a single point above the floor cannot give a slope
    assert fit_rate(hs, [1e-3, 1e-15, 1e-15, 1e-15], floor=1e-12) == math.inf


def test_alignment_residual_identity_is_zero():
    g = GridGeometry(1.0, 0.05)
    f = make_bump((0.1, 0.05), 0.2, 1.0, g)
    op = _radial_op()
    ident = LinearMap2.identity()
    assert alignment_residual(op, ident, ident, f) == 0.0


def test_alignment_residual_quarter_turn_with_radial_filter():
    g = GridGeometry(1.0, 0.05)
    f = make_bump((0.1, 0.05), 0.2, 1.0, g)
    op = _radial_op()
    T = parse_transform("rot:90")
    scale = float(np.abs(op(f).values).max())
    res = alignment_residual(op, T, T.inverse(), f)
    # warp, response, and realignment are all lattice-exact here
    assert res <= 1e-13 * scale


def test_alignment_residual_scaling_misaligns():
    # genuine misalignment: the residual exceeds tol and does not decay
    # under refinement, unlike discretization error
    T = parse_transform("scale:2")
    resids = {}
    scales = {}
    for h in (0.05, 0.025):
        g = GridGeometry(1.4, h)
        f = make_bump((0.1, 0.05), 0.15, 1.0, g)
        op = _radial_op(h=h)
        scales[h] = float(np.abs(op(f).values).max())
        resids[h] = alignment_residual(op, T, T.inverse(), f)
    assert resids[0.025] / resids[0.05] >= 0.6
    assert resids[0.025] > tolerance(0.025, scales[0.025])


def test_alignment_residual_l1_norm_and_domain_fit():
    g = GridGeometry(1.0, 0.05)
    f = make_bump((0.1, 0.05), 0.2, 1.0, g)
    op = _radial_op()
    T = parse_transform("rot:90")
    assert alignment_residual(op, T, T.inverse(), f, norm="l1") <= 1e-13
    with pytest.raises(ValueError):
        alignment_residual(op, T, T.inverse(), f, norm="l3")
    big = make_bump((0.0, 0.0), 0.7, 1.0, g)
    with pytest.raises(DomainFitError):
        alignment_residual(op, parse_transform("scale:2"), LinearMap2.identity(), big)


def test_naturality_identity_and_lattice_shear_are_exact():
    g = GridGeometry(1.6, 0.04)
    f = make_bump((0.1, -0.05), 0.4, 1.0, g)
    lam = gaussian_filter(0.08, GridGeometry(0.24, 0.04))
    for spec in ("mat:1,0,0,1", "shear:1"):
        curve = naturality_check(lam, parse_transform(spec), f, refinements=2)
        assert all(r == 0.0 for r in curve.residuals)
        assert curve.fitted_rate == math.inf


def test_naturality_smooth_rotation_converges():
    g = GridGeometry(1.6, 0.04)
    f = make_bump((0.1, -0.05), 0.4, 1.0, g)
    lam = gaussian_filter(0.08, GridGeometry(0.24, 0.04))
    curve = naturality_check(lam, parse_transform("rot:30"), f, refinements=3)
    assert len(curve.spacings) == 3
    assert curve.spacings[0] == pytest.approx(0.04)
    assert curve.spacings[-1] == pytest.approx(0.01)
    assert curve.fitted_rate >= 0.9
    assert curve.residuals[-1] <= 5 * curve.spacings[-1] * curve.scale
    with pytest.raises(ValueError):
        naturality_check(lam, parse_transform("rot:30"), f, refinements=0)


def test_commutation_lattice_maps_are_sample_exact():
    g = GridGeometry(1.0, 0.05)
    f = make_bump((0.1, 0.0), 0.3, 1.0, g)
    assert commutation_check(parse_transform("rot:90"), (0.25, -0.1), f) == 0.0
    assert commutation_check(parse_transform("shear:1"), (0.2, 0.1), f) == 0.0
    # non-lattice warp leaves only interpolation error
    small = commutation_check(parse_transform("rot:30"), (0.25, -0.1), f)
    assert 0.0 < small <= 5 * 0.05


def test_filter_fixed_point_residual_normalization():
    kg = GridGeometry(0.24, 0.02)
    lam = gaussian_filter(0.07, kg)
    T = parse_transform("scale:2")
    r1 = filter_fixed_point_residual(lam, T)
    doubled = Filter(
        Grid(kg, 2.0 * lam.grid.values, source=None), lam.support_radius
    )
    # relative measure: amplitude cancels
    assert filter_fixed_point_residual(doubled, T) == pytest.approx(r1, rel=1e-12)
    zero = Filter(Grid(kg, np.zeros((kg.size, kg.size))), 0.0)
    assert filter_fixed_point_residual(zero, T) == 0.0


def test_norot_counterexample_quarter_turn():
    kg = GridGeometry(0.3, 0.02)
    lam = gaussian_filter(0.1, kg)
    cert = norot_counterexample(lam, lam, parse_transform("rot:90"), bump_radius=0.4)
    assert cert.valid
    # the warped read lands on identically zero samples
    assert cert.rhs_value == 0.0
    assert abs(cert.lhs_value) > cert.floor * cert.scale
    assert cert.separation == abs(cert.lhs_value)
    # the realigned read point sits beyond both supports
    assert cert.params["moved_distance"] >= cert.params["separation_needed"] - 1e-12


def test_norot_counterexample_distinct_filters_and_scaling():
    kg = GridGeometry(0.3, 0.02)
    lam1 = gaussian_filter(0.1, kg)
    lam2 = ring_filter(0.12, 0.04, kg)
    for spec in ("rot:180", "scale:1.5"):
        cert = norot_counterexample(lam1, lam2, parse_transform(spec), bump_radius=0.4)
        assert cert.valid, spec
        assert cert.rhs_value == 0.0


def test_norot_counterexample_error_paths():
    kg = GridGeometry(0.3, 0.02)
    lam = gaussian_filter(0.1, kg)
    with pytest.raises(NoCounterexampleError):
        norot_counterexample(lam, lam, LinearMap2.identity())
    with pytest.raises(DomainFitError):
        norot_counterexample(
            lam, lam, parse_transform("rot:90"),
            geometry=GridGeometry(1.0, 0.02), bump_radius=0.4,
        )
    other = gaussian_filter(0.1, GridGeometry(0.3, 0.01))
    with pytest.raises(GeometryMismatchError):
        norot_counterexample(lam, other, parse_transform("rot:90"))


def test_mollifier_recovery_matches_gaussian_closed_form():
    # target exp(-r^2/2 s_t^2); smoothing by a width-s Gaussian rescales to
    # (s_t^2/(s_t^2+s^2)) exp(-r^2/2(s_t^2+s^2)); L1 gap by radial quadrature
    s_t = 0.15
    lam = gaussian_filter(s_t, GridGeometry(0.5, 0.02))

    def oracle(s):
        r = np.linspace(0.0, 3.0, 100001)
        tgt = np.exp(-(r * r) / (2 * s_t * s_t))
        c = s_t * s_t / (s_t * s_t + s * s)
        sm = c * np.exp(-(r * r) / (2 * (s_t * s_t + s * s)))
        return _trapz(np.abs(tgt - sm) * 2.0 * np.pi * r, r)

    steps = mollifier_recover_filter(lam, 2, sigma0=0.32)
    assert [s for s, _ in steps] == pytest.approx([0.32, 0.16, 0.08])
    for s, err in steps:
        assert err == pytest.approx(oracle(s), rel=0.25)
    errs = [e for _, e in steps]
    assert errs[0] > errs[1] > errs[2]


def test_mollifier_resolution_warning_and_geometry_errors():
    lam = gaussian_filter(0.15, GridGeometry(0.5, 0.02))
    with pytest.warns(ResolutionWarning):
        steps = mollifier_recover_filter(lam, 4, sigma0=0.32)
    errs = [e for _, e in steps]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    with pytest.raises(DomainFitError):
        mollifier_recover_filter(lam, 1, sigma0=0.32, geometry=GridGeometry(0.8, 0.02))
    with pytest.raises(GeometryMismatchError):
        mollifier_recover_filter(lam, 1, sigma0=0.32, geometry=GridGeometry(2.0, 0.04))
    with pytest.raises(ValueError):
        mollifier_recover_filter(lam, -1)


def test_generator_invariance_residual():
    g = GridGeometry(1.2, 0.05)
    corpus = make_corpus(g, seed=3)
    op = _radial_op(h=0.05)
    res90, rec = generator_invariance_residual(op, parse_transform("rot:90"), corpus)
    # radial kernel, lattice-exact quarter turn: summation order noise only
    assert res90 <= 1e-14
    assert rec.descriptor.startswith("corpus[")
    res_scale, rec2 = generator_invariance_residual(op, parse_transform("scale:2"), corpus)
    assert res_scale > 100 * res90 + 1e-6
    assert abs(rec2.metadata["mu_warped"] - rec2.metadata["mu_plain"]) == res_scale
    with pytest.raises(ValueError):
        generator_invariance_residual(op, parse_transform("rot:90"), [])


def test_glyph_pair_swaps_under_half_turn():
    g = GridGeometry(1.0, 0.02)
    w = glyph("W", (0.0, 0.0), 0.12, g)
    m = glyph("M", (0.0, 0.0), 0.12, g)
    rot180 = parse_transform("rot:180")
    assert np.array_equal(resample_affine(w, rot180).values, m.values)
    assert np.array_equal(resample_affine(m, rot180).values, w.values)
    assert not np.allclose(w.values, m.values)
    with pytest.raises(ValueError):
        glyph("X", (0.0, 0.0), 0.12, g)


def test_make_corpus_contents():
    g = GridGeometry(1.2, 0.05)
    corpus = make_corpus(g, seed=0)
    assert len(corpus) == 18
    assert len(make_corpus(g, seed=0, include_glyphs=False)) == 16
    again = make_corpus(g, seed=0)
    for a, b in zip(corpus, again):
        assert np.array_equal(a.values, b.values)
    other = make_corpus(g, seed=1)
    assert any(
        not np.array_equal(a.values, b.values) for a, b in zip(corpus, other)
    )
    # everything must leave room for a 2x warp plus reads
    for f in corpus:
        from equiaudit import support_estimate

        assert support_estimate(f, 0.0).radius <= g.extent / 2.0 + 1e-9


def test_aligner_candidates_single_out_the_inverse():
    # among realignments T^-1 . S, only S = identity brings the residual down
    g = GridGeometry(1.0, 0.05)
    f = make_bump((0.15, 0.1), 0.2, 1.0, g)
    op = _radial_op()
    T = parse_transform("rot:90")
    scale = float(np.abs(op(f).values).max())
    base = alignment_residual(op, T, T.inverse(), f)
    assert base <= tolerance(0.05, scale)
    # separation floor matching the counterexample certificate default
    sep_floor = 1e-4 * scale
    for s_spec in ("rot:45", "rot:180", "shear:0.5", "scale:1.25", "scale:0.8"):
        S = parse_transform(s_spec)
        res = alignment_residual(op, T, T.inverse().compose(S), f)
        assert res - base >= sep_floor, s_spec


def test_symmetrized_filter_perturbation_raises_residual_monotonically():
    h = 0.04
    kg = GridGeometry(0.2, h)
    rng = np.random.default_rng(6)
    base = n_fold_symmetrize(random_blob_filter(kg, 0.18, rng), parse_transform("rot:90"), 4)
    kg2 = base.grid.geometry
    bump = render(kg2, lambda x, y: np.exp(
        -(((np.asarray(x) - 0.05) ** 2 + np.asarray(y) ** 2) / (2 * 0.03 ** 2))
    ) * smooth_window(np.hypot(x, y) / 0.18))
    g = GridGeometry(1.0, h)
    f = make_bump((0.1, 0.05), 0.2, 1.0, g)
    T = parse_transform("rot:90")
    residuals = []
    for eps in (0.0, 0.01, 0.1, 1.0):
        lam = Filter(Grid(kg2, base.grid.values + eps * bump.values), base.support_radius)
        op = convolution_operator(lam)
        residuals.append(alignment_residual(op, T, T.inverse(), f))
    assert residuals[0] <= 1e-13
    assert residuals[1] < residuals[2] < residuals[3]


def test_residuals_survive_lattice_scene_translation():
    h = 0.05
    g = GridGeometry(1.4, h)
    f = make_bump((0.1, 0.05), 0.15, 1.0, g)
    shifted = translate(f, (2 * h, -h))
    op = _radial_op(h=h)
    for spec in ("rot:90", "scale:2", "shear:1"):
        T = parse_transform(spec)
        a = alignment_residual(op, T, T.inverse(), f)
        b = alignment_residual(op, T, T.inverse(), shifted)
        scale = float(np.abs(op(f).values).max())
        assert abs(a - b) <= 1e-12 * scale, spec


def test_full_paper_audit_empty_transforms():
    g = GridGeometry(1.2, 0.05)
    corpus = make_corpus(g, seed=0)
    model = build_model(
        {"layers": 1, "channels": 1, "kernel_radius": 0.2,
         "nonlinearity": "identity", "symmetrization": "radial"},
        spacing=0.05,
        rng=np.random.default_rng(0),
    )
    out = full_paper_audit(model, [], corpus, AuditSettings(refinements=2))
    assert out.report["checks"] == []
    assert out.report["consistent"] is True


def test_full_paper_audit_n_fold_model_aligns_under_quarter_turn():
    g = GridGeometry(1.2, 0.05)
    corpus = make_corpus(g, seed=0)
    model = build_model(
        {"layers": 1, "channels": 1, "kernel_radius": 0.2,
         "nonlinearity": "relu", "symmetrization": "n_fold", "n_fold": 4},
        spacing=0.05,
        rng=np.random.default_rng(4),
    )
    out = full_paper_audit(model, ["rot:90"], corpus, AuditSettings(refinements=2))
    report = out.report
    assert report["consistent"] is True
    align = [c for c in report["checks"] if c["name"].startswith("alignment[")]
    assert align and all(c["verdict"] == "aligned_within_tol" for c in align)
    fixed = [c for c in report["checks"] if c["name"].startswith("filter-fixed-point[")]
    assert fixed and all(c["verdict"] == "fixed_point" for c in fixed)


def test_full_paper_audit_flags_asymmetric_model_as_inconsistent():
    # a generic blob filter is not a fixed point, so a quarter turn must NOT
    # align; the dichotomy gate then reports the mismatch per its expectation
    g = GridGeometry(1.2, 0.05)
    corpus = make_corpus(g, seed=0, include_glyphs=False)
    model = build_model(
        {"layers": 1, "channels": 1, "kernel_radius": 0.2,
         "nonlinearity": "identity", "symmetrization": "none"},
        spacing=0.05,
        rng=np.random.default_rng(11),
    )
    out = full_paper_audit(model, ["rot:90"], corpus, AuditSettings(refinements=2))
    report = out.report
    align = [c for c in report["checks"] if c["name"].startswith("alignment[")]
    assert align and all(c["verdict"] == "misaligned(floor)" for c in align)
    fixed = [c for c in report["checks"] if c["name"].startswith("filter-fixed-point[")]
    assert fixed and all(c["verdict"] == "not_fixed" for c in fixed)
    # admits says yes but the filters fail the fixed-point gate, so the
    # expected outcome is exactly this misalignment: still consistent
    assert report["consistent"] is True


def _small_audit_model(nonlinearity="identity"):
    return build_model(
        {"layers": 1, "channels": 1, "kernel_radius": 0.2,
         "nonlinearity": nonlinearity, "symmetrization": "radial"},
        spacing=0.05,
        rng=np.random.default_rng(0),
    )


def test_full_paper_audit_matches_public_checks():
    # the audit's finest-level alignment and generator residuals are the
    # public checks run on the refined model and corpus, bit for bit
    g = GridGeometry(1.2, 0.05)
    corpus = make_corpus(g, seed=0)
    model = _small_audit_model()
    specs = ["rot:30", "shear:1"]
    report = full_paper_audit(model, specs, corpus, AuditSettings(refinements=2)).report
    checks = {c["name"]: c for c in report["checks"]}
    op = model_channel_operator(refine_model(model, 2), channel=0)
    fine = [refine(f, 2) for f in corpus]
    for spec in specs:
        T = parse_transform(spec)
        align = max(alignment_residual(op, T, T.inverse(), f) for f in fine)
        assert checks[f"alignment[{spec}]"]["residual"] == align, spec
        gen, rec = generator_invariance_residual(op, T, fine)
        assert checks[f"generator-invariance[{spec}]"]["residual"] == gen, spec
        assert checks[f"generator-invariance[{spec}]"]["params"]["argmax"] == rec.descriptor


def test_full_paper_audit_constant_channel_raises():
    g = GridGeometry(1.2, 0.05)
    corpus = make_corpus(g, seed=0)
    lam = gaussian_filter(0.06, GridGeometry(0.2, 0.05))
    model = CnnModel((ConvLayer(((lam,),), (-1e3,), Nonlinearity("relu")),))
    with pytest.raises(ConstantFeatureError, match="channel 0"):
        full_paper_audit(model, ["shear:1"], corpus, AuditSettings(refinements=2))


@pytest.mark.filterwarnings("error")
def test_single_refinement_gives_a_one_point_alignment_curve():
    # one spacing carries no rate information: no rank-deficient fit
    assert fit_rate([0.05, 0.05], [1e-3, 2e-3], floor=1e-12) == math.inf
    g = GridGeometry(1.2, 0.05)
    corpus = make_corpus(g, seed=0)
    out = full_paper_audit(
        _small_audit_model(), ["rot:90", "shear:1"], corpus, AuditSettings(refinements=1)
    )
    assert out.report["spacings"] == [0.05]
    for spec in ("rot:90", "shear:1"):
        check = next(c for c in out.report["checks"] if c["name"] == f"alignment[{spec}]")
        curve = check["spacing_curve"]
        assert curve["spacings"] == [0.05]
        assert curve["residuals"] == [check["residual"]]
        assert curve["fitted_rate"] == "inf"
