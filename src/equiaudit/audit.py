"""Executable verdicts for the alignment laws.

Each check here turns one identity (or counterexample construction) into a
measured residual with an explicit tolerance story:

- a residual that shrinks like the spacing h under refinement is a
  discretization artifact;
- a residual that stays bounded away from zero across refinements is a
  genuine misalignment.

Fixed thresholds: tol(h) = TOL_FACTOR h scale with TOL_FACTOR = 5
(first-order interpolation error), and floor = FLOOR_FACTOR tol(h_finest) with
FLOOR_FACTOR = 20, one decade of separation between the two verdict classes.
The two-spacing comparison is the core verdict mechanism; every report records
the thresholds it used.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .conv import (
    CnnModel,
    Filter,
    convolve,
    embed_filter,
    refine_filter,
    refine_model,
    smooth_window,
    transform_filter,
)
from .errors import (
    ConstantFeatureError,
    DomainFitError,
    GeometryMismatchError,
    NoCounterexampleError,
    ResolutionWarning,
    TransformClassError,
)
from .generator import (
    GeneratorRecord,
    OperatorHandle,
    contraction_sequence,
    generator_eval,
    model_channel_operator,
)
from .grid import (
    Grid,
    GridCrop,
    GridGeometry,
    _close,
    _sum_grids,
    distance,
    embed,
    interior_mask,
    make_bump,
    refine,
    render,
    resample_affine,
    support_estimate,
    translate,
    zeros,
)
from .transform import (
    LinearMap2,
    alignment_admits_invariance,
    classify,
    parse_transform,
)

__all__ = [
    "ResidualCurve",
    "CounterexampleCertificate",
    "AuditResult",
    "tolerance",
    "fit_rate",
    "alignment_residual",
    "naturality_check",
    "commutation_check",
    "filter_fixed_point_residual",
    "norot_counterexample",
    "mollifier_recover_filter",
    "generator_invariance_residual",
    "glyph",
    "make_corpus",
    "full_paper_audit",
]


TOL_FACTOR = 5.0
FLOOR_FACTOR = 20.0


def tolerance(h: float, scale: float, factor: float = TOL_FACTOR) -> float:
    """First-order interpolation tolerance at spacing h for fields of the
    given magnitude."""
    return factor * h * scale


@dataclass(frozen=True)
class ResidualCurve:
    """Residuals across descending spacings with a log-log least-squares rate,
    fitted over the residuals above floor = 1e-12 scale."""

    spacings: Tuple[float, ...]
    residuals: Tuple[float, ...]
    scale: float
    fitted_rate: float = field(init=False)
    floor: float = field(init=False)

    def __post_init__(self):
        if len(self.spacings) != len(self.residuals):
            raise ValueError("spacings and residuals must have the same length")
        object.__setattr__(self, "spacings", tuple(float(s) for s in self.spacings))
        object.__setattr__(self, "residuals", tuple(float(r) for r in self.residuals))
        object.__setattr__(self, "floor", 1e-12 * self.scale)
        object.__setattr__(
            self, "fitted_rate", fit_rate(self.spacings, self.residuals, self.floor)
        )


@dataclass(frozen=True)
class CounterexampleCertificate:
    """One aligner-necessity witness: a displaced bump whose aligned response
    must vanish while the unaligned one does not."""

    bump_center: Tuple[float, float]
    bump_radius: float
    displacement: Tuple[float, float]
    lhs_value: float
    rhs_value: float
    separation: float
    scale: float
    floor: float
    tol: float
    valid: bool
    params: dict = field(default_factory=dict)


def fit_rate(spacings: Sequence[float], residuals: Sequence[float], floor: float) -> float:
    """Least-squares slope p of log residual against log spacing.

    Points at or below the floor carry no rate information, and neither does a
    single spacing; with fewer than two informative points at distinct
    spacings the residual has already converged (or was measured once) and the
    rate is reported as +inf.
    """
    pts = [
        (h, r)
        for h, r in zip(spacings, residuals)
        if r > floor and r > 0.0
    ]
    if len({h for h, _ in pts}) < 2:
        return math.inf
    hs = np.log([p[0] for p in pts])
    rs = np.log([p[1] for p in pts])
    slope = np.polyfit(hs, rs, 1)[0]
    return float(slope)


def alignment_residual(
    op: OperatorHandle,
    T_h: LinearMap2,
    T_g: LinearMap2,
    f: Grid,
    norm: str = "sup",
) -> float:
    """Distance between the realigned response to a warped input and the
    plain response: resample(op(resample(f, T_h)), T_g) vs op(f).

    Measured over the trusted interior only (operator reads plus the aligner
    warp must not touch the zero padding).
    """
    geom = f.geometry
    h = geom.spacing
    r_op = op.declared_receptive_radius or 0.0
    r_f = support_estimate(f, 0.0).radius
    if T_h.operator_norm() * r_f + r_op + h > geom.extent + 1e-12:
        raise DomainFitError(
            f"warped content radius {T_h.operator_norm() * r_f:.4g} plus reads "
            f"{r_op + h:.4g} exceeds extent {geom.extent}"
        )
    mask = interior_mask(geom, r_op + h, warp=T_g)
    lhs = resample_affine(op(resample_affine(f, T_h)), T_g)
    return distance(lhs, op(f), norm, mask)


def naturality_check(
    lam: Filter, T: LinearMap2, f: Grid, refinements: int = 3
) -> ResidualCurve:
    """Warping before convolution must equal convolving with the transformed
    filter: compares resample(conv(resample(f, T), lam), T^-1) against
    conv(f, transform_filter(lam, T)) across grid refinements.

    The identity holds for every invertible map, so the residual must vanish
    under refinement; the curve carries the fitted rate.
    """
    if refinements < 1:
        raise ValueError("refinements must be >= 1")
    inv = T.inverse()
    spacings = []
    residuals = []
    scale = 1.0
    for k in range(refinements):
        fk, lamk = refine(f, 2 ** k), refine_filter(lam, 2 ** k)
        hk = fk.spacing
        tf = transform_filter(lamk, T)
        lhs = resample_affine(convolve(resample_affine(fk, T), lamk), inv)
        rhs = convolve(fk, tf)
        margin = max(lamk.support_radius, tf.support_radius) + hk
        mask = interior_mask(fk.geometry, margin, warp=inv)
        residuals.append(distance(lhs, rhs, mask=mask))
        if mask.any():
            scale = max(float(np.abs(rhs.values[mask]).max()), 1e-300)
        spacings.append(hk)
    return ResidualCurve(tuple(spacings), tuple(residuals), scale)


def commutation_check(T: LinearMap2, delta: Sequence[float], f: Grid) -> float:
    """Warps move shifts: resample(translate(f, d), T) must equal
    translate(resample(f, T), T d). Sample-exact when d and T d are lattice
    vectors and T is a lattice symmetry; <= C h otherwise.
    """
    a = resample_affine(translate(f, delta), T)
    b = translate(resample_affine(f, T), T.matvec(delta))
    return distance(a, b)


def filter_fixed_point_residual(lam: Filter, T: LinearMap2) -> float:
    """Relative L1 distance between lam and its transform under T.

    Zero means lam is a fixed point of the filter transform, the condition for
    channel-preserving alignment. The zero filter is degenerate (trivially
    fixed) and reports 0.
    """
    norm1 = lam.grid.l1_norm()
    if norm1 == 0.0:
        return 0.0
    tf = transform_filter(lam, T)
    geom = max(lam.grid.geometry, tf.grid.geometry, key=lambda g: g.extent)
    a = embed_filter(lam, geom).grid
    b = embed_filter(tf, geom).grid
    return distance(a, b, "l1") / norm1


def _choose_probe_bump(lam1: Filter, bump_radius: float) -> Tuple[Tuple[float, float], float]:
    """Pick a bump supported in |x| <= bump_radius whose response through lam1
    at the origin is as far from zero as practical.

    Tries centered bumps of several widths plus one narrow bump seated on the
    filter's strongest sample (the latter cannot give a zero response for a
    nonzero filter).
    """
    h = lam1.spacing
    pre = GridGeometry(bump_radius + lam1.grid.extent + 2.0 * h, h)
    candidates = [((0.0, 0.0), bump_radius * s) for s in (1.0, 0.5, 0.25)]
    vals = lam1.grid.values
    i, j = np.unravel_index(np.argmax(np.abs(vals)), vals.shape)
    m = lam1.grid.geometry.half_count
    peak = ((j - m) * h, (m - i) * h)
    c = (-peak[0], -peak[1])
    rho = min(bump_radius / 4.0, bump_radius - math.hypot(*c))
    if rho > 2.0 * h:
        candidates.append((c, rho))
    best = None
    for center, rho in candidates:
        w = convolve(make_bump(center, rho, 1.0, pre), lam1)
        score = abs(w.origin_value)
        if best is None or score > best[0]:
            best = (score, center, rho)
    return (best[1], best[2])


def norot_counterexample(
    lam1: Filter,
    lam2: Filter,
    T: LinearMap2,
    geometry: Optional[GridGeometry] = None,
    bump_radius: float = 0.5,
) -> CounterexampleCertificate:
    """Witness that no channel-preserving warp can align a non-identity map.

    Construction: a bump displaced to -p, with p a lattice vector moved so far
    by T^-1 that the realigned read lands outside the response support
    entirely: lhs = response to the displaced bump read back at -p (nonzero by
    construction), rhs = the same response warped by T and read at -p, i.e.
    the raw response sampled at -T^-1 p, which is exactly zero by disjoint
    supports. The witness is valid when |lhs| > 1e-4 scale and
    |rhs| <= 1e-6 scale, scale being the response's sup norm; the certificate
    records both factors as floor and tol.
    """
    if classify(T).kind == "identity":
        raise NoCounterexampleError(
            "identity transform: the trivial aligner works, no counterexample exists"
        )
    if lam1.grid.sup_norm() == 0.0:
        raise ValueError("lam1 must be nonzero")
    h = lam1.spacing
    if not _close(h, lam2.spacing):
        raise GeometryMismatchError("lam1 and lam2 must share spacing")
    inv = T.inverse()
    # displacement must beat the combined support radii with a unit margin
    sep_needed = bump_radius + lam2.support_radius + max(1.0, 2.0 * h)
    best = None
    for e in ((1, 0), (0, 1), (1, 1), (1, -1)):
        moved = inv.matvec(e) - np.asarray(e, dtype=np.float64)
        d = math.hypot(moved[0], moved[1])
        if d < 1e-9:
            continue
        k = int(sep_needed / (h * d)) + 1
        p = (k * h * e[0], k * h * e[1])
        plen = math.hypot(*p)
        if best is None or plen < best[0] - 1e-12:
            best = (plen, p)
    if best is None:
        raise NoCounterexampleError(f"map {T} moves no probe direction")
    p = best[1]
    invp = inv.matvec(p)
    r_max = max(lam1.support_radius, lam2.support_radius)
    min_extent = (
        max(max(abs(p[0]), abs(p[1])) + bump_radius + r_max,
            max(abs(invp[0]), abs(invp[1])))
        + 2.0 * h
    )
    if geometry is None:
        geometry = GridGeometry(min_extent, h)
    else:
        if not _close(geometry.spacing, h):
            raise GeometryMismatchError("geometry spacing must match the filters")
        if geometry.extent < min_extent - 1e-12:
            raise DomainFitError(
                f"extent {geometry.extent} too small for displacement |p| = "
                f"{best[0]:.4g}; need extent >= {min_extent:.4g}"
            )
    center, rho = _choose_probe_bump(lam1, bump_radius)
    # lattice shift, sample-exact; the unshifted bump is not kept
    shifted = translate(make_bump(center, rho, 1.0, geometry), (-p[0], -p[1]))
    w1 = convolve(shifted, lam1)
    w2 = w1 if lam2 is lam1 else convolve(shifted, lam2)
    lhs = float(w1.sample_at(-p[0], -p[1])[()])
    rhs = float(w2.sample_at(-invp[0], -invp[1])[()])
    scale = w1.sup_norm()
    floor, tol = 1e-4, 1e-6
    valid = abs(lhs) > floor * scale and abs(rhs) <= tol * scale
    return CounterexampleCertificate(
        bump_center=center,
        bump_radius=rho,
        displacement=p,
        lhs_value=lhs,
        rhs_value=rhs,
        separation=abs(lhs - rhs),
        scale=scale,
        floor=floor,
        tol=tol,
        valid=valid,
        params={
            "separation_needed": sep_needed,
            "moved_distance": float(math.hypot(invp[0] - p[0], invp[1] - p[1])),
            "min_extent": min_extent,
            "extent": geometry.extent,
            "spacing": h,
        },
    )


def mollifier_recover_filter(
    lam: Filter,
    n_steps: int,
    sigma0: float = 0.5,
    geometry: Optional[GridGeometry] = None,
) -> Tuple[Tuple[float, float], ...]:
    """Recover a filter by convolving it with shrinking unit-mass Gaussians.

    For sigma_n = sigma0 2^-n (n = 0..n_steps), truncated at 4 sigma_n and
    renormalized to exact unit discrete mass, returns (sigma_n, L1 error of
    conv(mollifier, lam) against lam). Errors must shrink to the resolution
    limit: final error <= C (sigma_final + h). Warns when the last mollifier
    is narrower than two samples.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    h = lam.spacing
    sigmas = [sigma0 * 2.0 ** (-n) for n in range(n_steps + 1)]
    if sigmas[-1] < 2.0 * h:
        warnings.warn(
            f"final mollifier width {sigmas[-1]:.4g} is below two samples "
            f"({2 * h:.4g}); the recovery error is resolution-limited",
            ResolutionWarning,
            stacklevel=2,
        )
    need = lam.support_radius + 4.0 * sigma0 + 2.0 * h
    if geometry is None:
        geometry = GridGeometry(max(need, lam.grid.extent), h)
    else:
        if not _close(geometry.spacing, h):
            raise GeometryMismatchError("geometry spacing must match the filter")
        if geometry.extent < need - 1e-12:
            raise DomainFitError(
                f"extent {geometry.extent} too small for mollifier recovery; "
                f"need >= {need:.4g}"
            )
    target = embed(lam.grid, geometry)
    out = []
    for s in sigmas:
        cut = 4.0 * s
        s2 = 2.0 * s * s

        def prof(r, _cut=cut, _s2=s2):
            r = np.asarray(r, dtype=np.float64)
            return np.where(r <= _cut, np.exp(-(r * r) / _s2), 0.0)

        moll = render(geometry, lambda x, y: prof(np.hypot(x, y)))
        mass = moll.integral()
        moll = Grid(geometry, moll.values / mass)
        smoothed = convolve(moll, lam)
        err = distance(smoothed, target, "l1")
        out.append((s, err))
    return tuple(out)


def generator_invariance_residual(
    op: OperatorHandle, T: LinearMap2, corpus: Sequence[Grid]
) -> Tuple[float, GeneratorRecord]:
    """Max over the corpus of |mu(warped f) - mu(f)|, with the argmax recorded.

    An alignable operator must have a T-invariant generator; a persistent
    residual here certifies the obstruction on a concrete input.
    """
    if not corpus:
        raise ValueError("corpus must be nonempty")
    return _worst_generator_delta(
        [(generator_eval(op, f), generator_eval(op, resample_affine(f, T))) for f in corpus]
    )


def _worst_generator_delta(
    mus: Sequence[Tuple[float, float]]
) -> Tuple[float, GeneratorRecord]:
    """Core of the generator-invariance law: the largest |mu_warped - mu_plain|
    over (mu_plain, mu_warped) pairs, the first argmax winning ties."""
    worst = None
    for i, (mu_f, mu_w) in enumerate(mus):
        delta = abs(mu_w - mu_f)
        if worst is None or delta > worst[0]:
            worst = (
                delta,
                GeneratorRecord(
                    f"corpus[{i}]",
                    delta,
                    {"mu_plain": mu_f, "mu_warped": mu_w},
                ),
            )
    return worst


# ---------------------------------------------------------------------------
# test corpus


def glyph(kind: str, center: Sequence[float], size: float, geometry: GridGeometry) -> Grid:
    """Three-bump 'W' or 'M' glyph of overall half-width ~1.5 size; the two
    are vertical mirror images, so a 180 degree rotation swaps them."""
    cx, cy = float(center[0]), float(center[1])
    u = float(size)
    if kind == "W":
        offsets = [(-u, 0.6 * u), (u, 0.6 * u), (0.0, -0.6 * u)]
    elif kind == "M":
        offsets = [(-u, -0.6 * u), (u, -0.6 * u), (0.0, 0.6 * u)]
    else:
        raise ValueError(f"unknown glyph kind {kind!r}")
    return _sum_grids(
        [make_bump((cx + ox, cy + oy), 0.5 * u, 1.0, geometry) for ox, oy in offsets]
    )


def make_corpus(
    geometry: GridGeometry, seed: int = 0, include_glyphs: bool = True
) -> Tuple[Grid, ...]:
    """Standard audit inputs: 15 bumps (5 positions x 3 radii), one oriented
    edge, and the W/M glyph pair. Everything fits the domain with room for a
    2x warp plus typical filter reads; amplitudes are mildly randomized from
    the seed so no check can rely on a shared normalization."""
    rng = np.random.default_rng(seed)
    cap = geometry.extent / 2.75
    positions = [
        (0.0, 0.0),
        (0.55 * cap, 0.3 * cap),
        (-0.5 * cap, 0.55 * cap),
        (-0.4 * cap, -0.5 * cap),
        (0.5 * cap, -0.55 * cap),
    ]
    radii = [0.2 * cap, 0.3 * cap, 0.4 * cap]
    fields: List[Grid] = []
    for pos in positions:
        for r in radii:
            amp = float(rng.uniform(0.8, 1.2))
            fields.append(make_bump(pos, r, amp, geometry))
    w = 0.15 * cap
    cut = 0.6 * cap

    def edge_src(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return np.tanh(x / w) * smooth_window(np.hypot(x, y) / cut)

    fields.append(render(geometry, edge_src))
    if include_glyphs:
        u = 0.35 * cap
        fields.append(glyph("W", (0.0, 0.0), u, geometry))
        fields.append(glyph("M", (0.0, 0.0), u, geometry))
    return tuple(fields)


# ---------------------------------------------------------------------------
# the full audit


@dataclass(frozen=True)
class AuditResult:
    """The report, and the alignment images as support crops: a writer
    expands one crop at a time."""

    report: dict
    artifacts: Dict[str, GridCrop]


def _json_safe(x):
    if isinstance(x, dict):
        return {str(k): _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, (np.floating, float)):
        v = float(x)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


def _check(name, law, params, residual, verdict, curve=None) -> dict:
    return {
        "name": name,
        "paper_ref": law,
        "params": params,
        "residual": residual,
        "verdict": verdict,
        "spacing_curve": asdict(curve) if curve is not None else None,
    }


def _alignment_sweep(
    ops: Dict[int, OperatorHandle],
    levels: Sequence[int],
    corpus: Sequence[Grid],
    maps: Sequence[LinearMap2],
) -> Tuple[List[tuple], List[float]]:
    """The alignment sweep of full_paper_audit, streaming the corpus: at each
    level one refined entry and its baseline ops[k](f) are alive at a time and
    serve every map T, with one forward pass of the warped entry shared by
    alignment (realigned by T^-1) and generator invariance.

    Returns one (residuals, mus, worst) per map: the max residual of each
    level, the finest-level (mu_plain, mu_warped) pairs and the worst
    finest-level entry as (index, realigned response, baseline), the two
    fields as GridCrops and the first entry winning ties; and, for every
    finest-level baseline, its sup distance from the response to an empty
    input, so the channel's constant background (sigma(b) of a bias or a
    sigmoid) does not count as signal.
    """
    kf = levels[-1]
    aligners = [T.inverse() for T in maps]
    res = [dict.fromkeys(levels, 0.0) for _ in maps]
    mus = [[] for _ in maps]
    worst = [None] * len(maps)
    fine_scales = []
    for k in levels:
        r_op = ops[k].declared_receptive_radius or 0.0
        masks = None
        for i, f in enumerate(corpus):
            f = refine(f, 2 ** k)
            base = ops[k](f)
            if masks is None:  # once per map and level
                geom = base.geometry
                masks = [interior_mask(geom, r_op + geom.spacing, warp=Tg) for Tg in aligners]
                empty = ops[k](zeros(geom))
            if k == kf:
                fine_scales.append(distance(base, empty))
            for t, (T, Tg, mask) in enumerate(zip(maps, aligners, masks)):
                warped_out = ops[k](resample_affine(f, T))
                lhs = resample_affine(warped_out, Tg)
                r = distance(lhs, base, "sup", mask)
                if k == kf:
                    if r > res[t][k] or i == 0:
                        worst[t] = (i, GridCrop.of(lhs), GridCrop.of(base))
                    mus[t].append((base.origin_value, warped_out.origin_value))
                res[t][k] = max(res[t][k], r)
                # the next map's forward pass is the sweep's memory peak:
                # hold no response of this map through it
                del warped_out, lhs
    return list(zip(res, mus, worst)), fine_scales


def full_paper_audit(
    model: CnnModel,
    transforms: Sequence[str],
    corpus: Sequence[Grid],
    refinements: int,
) -> AuditResult:
    """Run every law check for every transform and cross-check the verdicts,
    on the model and corpus refined by 2^k for k = 0 .. refinements - 1.

    The dichotomy gate: a transform whose classification admits invariant
    features, on a model whose filters are fixed points of the filter
    transform, must audit as aligned; every other combination must audit as a
    genuine (floor-level or non-decaying) misalignment. ``consistent`` in the
    report records whether the measured verdicts match that expectation.

    The corpus is streamed through the alignment sweep: at each audited level
    one refined entry and its baseline response are alive at a time, and
    serve every transform before the next entry is refined. Only the worst
    finest-level entry's realigned response and baseline are kept per
    transform, as support crops, for the artifacts.
    """
    corpus = tuple(corpus)
    if not corpus:
        raise ValueError("corpus must be nonempty")
    if not model.layers:
        raise ValueError("model must have at least one layer")
    if refinements < 1:
        raise ValueError("refinements must be >= 1")
    geom0 = corpus[0].geometry
    h0 = geom0.spacing
    spacings = [h0 / 2 ** k for k in range(refinements)]
    kf = refinements - 1
    audited = sorted({0, kf})  # alignment runs at the coarsest and finest spacings
    channel = 0

    models = {k: refine_model(model, 2 ** k) for k in audited}
    # ops feed only laws judged against tol(h) (alignment, generator
    # invariance, contraction), so they run on convolve's FFT engine; every
    # other law below calls the direct engine
    ops = {
        k: model_channel_operator(models[k], channel=channel, exact=False) for k in audited
    }
    engine = "fft"
    # a constant channel is an exact test, so it runs on the direct engine:
    # FFT rounding can lift a relu channel that is exactly 0.0 to +-1e-18.
    # It stops at the first nonconstant response, usually the first entry
    exact_op = model_channel_operator(models[kf], channel=channel)
    direct = (exact_op(refine(f, 2 ** kf)).values for f in corpus)
    first = next(direct)
    c0 = first.flat[0]
    if np.all(first == c0) and all(np.all(v == c0) for v in direct):
        raise ConstantFeatureError(
            f"channel {channel} is the constant {float(c0)!r} on every "
            f"corpus entry at spacing {spacings[kf]}; a constant feature detects "
            f"nothing, so there is no alignment to audit"
        )
    del first  # a finest-level response the sweep does not need

    parsed = [(spec, parse_transform(spec)) for spec in transforms]
    sweeps, fine_scales = _alignment_sweep(ops, audited, corpus, [T for _, T in parsed])
    hf = spacings[kf]
    scale = max(max(fine_scales), 1e-300)
    tol_fine = tolerance(hf, scale)
    floor = FLOOR_FACTOR * tol_fine

    # naturality and aligner necessity probe a first-layer kernel, naturality
    # and commutation an off-center bump
    nat_index = min(1, len(corpus) - 1)
    lam0 = model.layers[0].kernels[0][0]
    lam_n = refine_filter(lam0, 2) if kf else lam0  # aligner necessity at level 1
    fine_kernels = [
        lam for layer in models[kf].layers for row in layer.kernels for lam in row
    ]

    checks: List[dict] = []
    artifacts: Dict[str, GridCrop] = {}
    expectations = []
    for (spec, T), (res, mus, (argmax_idx, lhs_crop, rhs_crop)) in zip(parsed, sweeps):
        cls = classify(T)
        admits = alignment_admits_invariance(T)
        checks.append(
            _check(
                f"classification[{spec}]",
                "transform-classification",
                {
                    "kind": cls.kind,
                    "order": cls.order,
                    "canonical_angle_degrees": (
                        math.degrees(cls.canonical_angle)
                        if cls.canonical_angle is not None
                        else None
                    ),
                    "det": T.det,
                    "admits_alignment": admits,
                },
                0.0,
                cls.label(),
            )
        )

        fp_residuals = [filter_fixed_point_residual(k, T) for k in fine_kernels]
        fp_tol = TOL_FACTOR * hf  # residuals are already relative
        fp_pass = max(fp_residuals) <= fp_tol
        checks.append(
            _check(
                f"filter-fixed-point[{spec}]",
                "filter-fixed-point",
                {"n_kernels": len(fp_residuals), "tol": fp_tol, "residuals": fp_residuals},
                max(fp_residuals),
                "fixed_point" if fp_pass else "not_fixed",
            )
        )

        # alignment, read off the sweep; the worst finest-level entry's
        # realigned response, baseline and their difference are the artifacts
        aligned = res[kf] <= tol_fine
        ratio = res[kf] / res[0] if res[0] > 0 else math.inf
        floor_confirmed = (not aligned) and (res[kf] >= floor or ratio >= 0.6)
        verdict = "aligned_within_tol" if aligned else "misaligned(floor)"
        curve = ResidualCurve(
            tuple(spacings[k] for k in audited), tuple(res[k] for k in audited), scale
        )
        checks.append(
            _check(
                f"alignment[{spec}]",
                "feature-alignment",
                {
                    "transform_spec": spec,
                    "aligner_spec": f"inverse of {spec}",
                    "residual": res[kf],
                    "scale": scale,
                    "tol": tol_fine,
                    "floor": floor,
                    "masked_note": (
                        "sup over the interior trusted after operator reads and "
                        "the aligner warp"
                    ),
                    "spacing": hf,
                    "verdict": verdict,
                    "coarse_residual": res[0],
                    "fine_to_coarse_ratio": ratio,
                    "floor_confirmed": floor_confirmed,
                    "corpus_argmax": argmax_idx,
                    "engine": engine,
                },
                res[kf],
                verdict,
                curve,
            )
        )
        artifacts[f"alignment[{spec}].lhs"] = lhs_crop
        artifacts[f"alignment[{spec}].rhs"] = rhs_crop
        lhs, rhs = lhs_crop.expand(), rhs_crop.expand()
        artifacts[f"alignment[{spec}].diff"] = GridCrop.of(
            Grid(lhs.geometry, lhs.values - rhs.values)
        )
        del lhs, rhs  # whole-domain grids, not held into the next map

        nat = naturality_check(lam0, T, corpus[nat_index], refinements)
        nat_ok = nat.fitted_rate >= 0.9 and nat.residuals[-1] <= tolerance(
            nat.spacings[-1], nat.scale
        )
        checks.append(
            _check(
                f"naturality[{spec}]",
                "conv-naturality",
                {"corpus_index": nat_index},
                nat.residuals[-1],
                "converges" if nat_ok else "stalls",
                nat,
            )
        )

        # shifts commute with the warp; the finest-level bump is dropped before
        # the next transform's naturality ladder
        comm_f = refine(corpus[nat_index], 2 ** kf)
        comm = commutation_check(T, (hf, 0.0), comm_f)
        comm_scale = max(comm_f.sup_norm(), 1e-300)
        del comm_f
        checks.append(
            _check(
                f"commutation[{spec}]",
                "shift-warp-commutation",
                {"delta": [hf, 0.0], "scale": comm_scale},
                comm,
                "commutes" if comm <= tolerance(hf, comm_scale) else "violates",
            )
        )

        # aligner necessity: a certificate that only T^-1 can realign
        if cls.kind == "identity":
            checks.append(
                _check(
                    f"aligner-necessity[{spec}]",
                    "aligner-necessity",
                    {"skipped": "identity transform"},
                    0.0,
                    "skipped_identity",
                )
            )
        else:
            cert = norot_counterexample(lam_n, lam_n, T)
            checks.append(
                _check(
                    f"aligner-necessity[{spec}]",
                    "aligner-necessity",
                    dict(
                        cert.params,
                        bump_center=list(cert.bump_center),
                        bump_radius=cert.bump_radius,
                        displacement=list(cert.displacement),
                        lhs=cert.lhs_value,
                        rhs=cert.rhs_value,
                        scale=cert.scale,
                        floor=cert.floor,
                        tol=cert.tol,
                    ),
                    cert.separation,
                    "counterexample_valid" if cert.valid else "counterexample_invalid",
                )
            )

        # generator invariance on the finest-level pass of the alignment sweep
        gen_res, gen_rec = _worst_generator_delta(mus)
        checks.append(
            _check(
                f"generator-invariance[{spec}]",
                "generator-invariance",
                {"argmax": gen_rec.descriptor, **gen_rec.metadata, "engine": engine},
                gen_res,
                "invariant" if gen_res <= tol_fine else "varies",
            )
        )

        # contraction collapse, for maps off the unit-determinant shell
        # (or of its inverse); contraction_sequence rejects a map with a
        # contracting direction, so a map both directions reject mixes the two
        if cls.kind == "contracting_or_expanding":
            R0 = geom0.extent
            bump = make_bump((0.35 * R0, 0.0), 0.15 * R0, 1.0, geom0)
            steps = None
            for direction, Tc in (("forward", T), ("inverse", T.inverse())):
                try:
                    steps = contraction_sequence(bump, Tc, 0.55 * R0, 4, op=ops[0])
                    break
                except TransformClassError:
                    pass
            if steps is None:
                checks.append(
                    _check(
                        f"contraction[{spec}]",
                        "support-contraction",
                        {"note": "map mixes contraction and expansion"},
                        0.0,
                        "not_applicable",
                    )
                )
            else:
                mu0 = generator_eval(ops[0], zeros(geom0))
                collapsed = steps[-1].support_measure == 0.0 and (
                    abs(steps[-1].mu_value - mu0) <= 1e-9 * max(abs(mu0), scale)
                )
                checks.append(
                    _check(
                        f"contraction[{spec}]",
                        "support-contraction",
                        {
                            "direction": direction,
                            "chi_radius": 0.55 * R0,
                            "measures": [s.support_measure for s in steps],
                            "mu_values": [s.mu_value for s in steps],
                            "mu_empty": mu0,
                            "engine": engine,
                        },
                        steps[-1].support_measure,
                        "collapses" if collapsed else "persists",
                    )
                )

        expected_aligned = admits.startswith("yes") and fp_pass
        expectations.append(
            {
                "transform": spec,
                "kind": cls.kind,
                "admits_alignment": admits,
                "filters_fixed": fp_pass,
                "expected": "aligned" if expected_aligned else "misaligned",
                "observed": "aligned" if aligned else "misaligned",
                "floor_confirmed": floor_confirmed,
                "consistent": expected_aligned == aligned and (aligned or floor_confirmed),
            }
        )

    checks.sort(key=lambda c: c["name"])
    consistent = all(e["consistent"] for e in expectations)
    report = {
        "spacings": spacings,
        "channel": channel,
        "transforms": list(transforms),
        "corpus_size": len(corpus),
        "tolerances": {
            "tol_factor": TOL_FACTOR,
            "floor_factor": FLOOR_FACTOR,
            "finest_tol": tol_fine,
            "floor": floor,
            "scale": scale,
        },
        "expectations": expectations,
        "consistent": consistent,
        "checks": checks,
        "scope": (
            "Aligner necessity is demonstrated over the finite candidate aligner "
            "set and the fixed corpus, not over all conceivable operators."
        ),
    }
    return AuditResult(report=_json_safe(report), artifacts=artifacts)
