"""Generators of translation-covariant operators.

A translation-covariant operator Phi is pinned down by its generator
mu(f) = (Phi f)(0): covariance gives (Phi f)(x) = mu(f shifted by -x), so the
scalar functional carries everything. This module evaluates generators,
rebuilds operators from them, probes semi-locality (does mu only read inside
some radius r?), and produces contraction sequences under expanding maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .conv import (
    CnnModel,
    ConvLayer,
    Filter,
    convolve,
    layer_forward,
    receptive_radius,
)
from .errors import DomainFitError, TransformClassError
from .grid import (
    FeatureStack,
    Grid,
    GridGeometry,
    _sum_grids,
    make_bump,
    pairwise_sum,
    resample_affine,
    support_estimate,
    translate,
    zeros,
)
from .transform import LinearMap2, classify, iterate

__all__ = [
    "OperatorHandle",
    "GeneratorRecord",
    "ContractionStep",
    "identity_operator",
    "constant_operator",
    "convolution_operator",
    "model_channel_operator",
    "conjugate_operator",
    "global_average_operator",
    "generator_eval",
    "operator_from_generator",
    "estimate_semilocal_radius",
    "is_nonconstant",
    "contraction_sequence",
]


@dataclass(frozen=True, eq=False)
class OperatorHandle:
    """A grid-to-grid operator with an optional declared receptive radius.

    The radius is a promise used for domain checks, not a measurement; pass
    None when nothing is known.
    """

    fn: Callable[[Grid], Grid]
    declared_receptive_radius: Optional[float] = None
    name: str = ""

    def __call__(self, f: Grid) -> Grid:
        return self.fn(f)


@dataclass(frozen=True)
class GeneratorRecord:
    """One generator evaluation: which probe, what value, spare context."""

    descriptor: str
    value: float
    metadata: dict = field(default_factory=dict)


def identity_operator() -> OperatorHandle:
    return OperatorHandle(lambda f: f, 0.0, "identity")


def constant_operator(value: float) -> OperatorHandle:
    value = float(value)

    def fn(f: Grid) -> Grid:
        return Grid(f.geometry, np.full(f.values.shape, value))

    return OperatorHandle(fn, None, f"const[{value!r}]")


def convolution_operator(lam: Filter) -> OperatorHandle:
    return OperatorHandle(
        lambda f: convolve(f, lam), lam.support_radius, "convolution"
    )


def model_channel_operator(
    model: CnnModel, depth: Optional[int] = None, channel: int = 0, exact: bool = True
) -> OperatorHandle:
    """One output channel of the model truncated at ``depth`` layers.

    The last layer is cut to the audited channel when its nonlinearity is
    pointwise (softmax mixes channels, so a softmax layer stays whole), and
    the result equals ``model_forward_stages(f, model)[depth].channels[channel]``
    bit for bit. ``exact=False`` runs every convolution on convolve's FFT
    engine, for checks judged against tol(h) only.
    """
    L = model.depth
    depth = L if depth is None else int(depth)
    if not 0 <= depth <= L:
        raise ValueError(f"depth {depth} outside [0, {L}]")
    radius = receptive_radius(model, depth)
    layers = list(model.layers[:depth])
    count = layers[-1].out_channels if layers else 1
    if not 0 <= channel < count:
        raise ValueError(f"channel {channel} outside [0, {count})")
    pick = channel
    if layers and layers[-1].nonlinearity.kind != "softmax":
        last = layers[-1]
        kernels = tuple((row[channel],) for row in last.kernels)
        layers[-1] = ConvLayer(kernels, (last.biases[channel],), last.nonlinearity)
        pick = 0

    def fn(f: Grid) -> Grid:
        stack = FeatureStack((f,))
        for layer in layers:
            stack = layer_forward(stack, layer, exact)
        return stack.channels[pick]

    return OperatorHandle(fn, radius, f"model[depth={depth},channel={channel}]")


def conjugate_operator(op: OperatorHandle, T: LinearMap2) -> OperatorHandle:
    """x -> (op applied in the warped frame): resample by T, apply, resample back.

    If op reads within radius r, the conjugate reads within |T^-1| r of the
    warped point, which is the declared radius here.
    """
    inv = T.inverse()

    def fn(f: Grid) -> Grid:
        return resample_affine(op(resample_affine(f, T)), inv)

    radius = None
    if op.declared_receptive_radius is not None:
        radius = inv.operator_norm() * op.declared_receptive_radius
    return OperatorHandle(fn, radius, f"conj[{op.name}]")


def global_average_operator() -> OperatorHandle:
    """Mean over the whole domain: translation covariant but not semi-local."""

    def fn(f: Grid) -> Grid:
        mean = pairwise_sum(f.values) / f.values.size
        return Grid(f.geometry, np.full(f.values.shape, mean))

    return OperatorHandle(fn, None, "global_average")


def generator_eval(op: OperatorHandle, f: Grid) -> float:
    """mu(f) = (op f)(0); errors out when the declared radius cannot fit."""
    r = op.declared_receptive_radius
    if r is not None and r > f.extent + 1e-12:
        raise DomainFitError(
            f"operator reads within radius {r} but the grid extent is {f.extent}"
        )
    return op(f).origin_value


def operator_from_generator(
    mu: Callable[[Grid], float], geometry: GridGeometry
) -> OperatorHandle:
    """Rebuild the operator from its generator: (Phi f)(x) = mu(f(. + x)).

    Costs one full generator evaluation per sample (n^2 translations), so this
    is a correctness tool for small grids, not a fast path. Values near the
    boundary read shifted-in zeros and are only trustworthy on the interior.
    """

    def fn(f: Grid) -> Grid:
        n = geometry.size
        m = geometry.half_count
        h = geometry.spacing
        out = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                x = (j - m) * h
                y = (m - i) * h
                out[i, j] = mu(translate(f, (-x, -y)))
        return Grid(geometry, out)

    return OperatorHandle(fn, None, "from_generator")


def estimate_semilocal_radius(
    op: OperatorHandle,
    base: Grid,
    radii: Sequence[float],
    tol: float,
) -> float:
    """Smallest radius in ``radii`` at which mu ignores far-away edits.

    For each candidate r, plant 32 random bumps centered beyond r (plus their
    own radius, so the perturbation stays strictly outside the disc) and
    require |mu(base + bump) - mu(base)| <= tol for all of them. Returns inf
    when every candidate fails. A passing r is evidence, not proof: the
    probes are random, drawn from a generator seeded with 0.
    """
    rng = np.random.default_rng(0)
    geom = base.geometry
    R = geom.extent
    h = geom.spacing
    mu_base = generator_eval(op, base)
    amp_scale = max(base.sup_norm(), 1.0)
    for r in sorted(float(r) for r in radii):
        rho = min(0.1 * R, (R - r - 2.0 * h) / 2.0)
        if rho < 2.0 * h:
            raise DomainFitError(
                f"candidate radius {r} leaves no room for probe bumps "
                f"(extent {R}, spacing {h})"
            )
        ok = True
        for _ in range(32):
            dist = rng.uniform(r + rho + h, R - rho - h)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            amp = rng.uniform(0.5, 1.5) * amp_scale * rng.choice([-1.0, 1.0])
            bump = make_bump(
                (dist * math.cos(ang), dist * math.sin(ang)), rho, amp, geom
            )
            probe = _sum_grids([base, bump])
            if abs(generator_eval(op, probe) - mu_base) > tol:
                ok = False
                break
        if ok:
            return r
    return math.inf


def is_nonconstant(op: OperatorHandle, corpus: Sequence[Grid]) -> Optional[GeneratorRecord]:
    """First corpus entry whose generator value differs from mu(0) by more
    than 1e-9, or None.

    A None result means the generator looked constant on this corpus, which
    disqualifies it as a feature detector.
    """
    if not corpus:
        return None
    mu0 = generator_eval(op, zeros(corpus[0].geometry))
    for i, f in enumerate(corpus):
        v = generator_eval(op, f)
        if abs(v - mu0) > 1e-9:
            return GeneratorRecord(
                f"corpus[{i}]", v, {"baseline": mu0, "delta": v - mu0}
            )
    return None


@dataclass(frozen=True)
class ContractionStep:
    n: int
    grid: Grid
    support_measure: float
    mu_value: Optional[float]


def contraction_sequence(
    f: Grid,
    T: LinearMap2,
    chi_radius: float,
    n_max: int,
    op: Optional[OperatorHandle] = None,
) -> Tuple[ContractionStep, ...]:
    """f_n = chi * (chi f)(T^-n x) for an expanding map T.

    chi is the sharp indicator of the disc |x| <= chi_radius. As n grows the
    inner content spreads beyond the window and the product collapses toward
    zero; the support measures record the collapse, and mu values (when an
    operator is given) track how a generator sees it. Maps with any
    contracting direction (spectral radius of T^-1 above 1) are rejected.
    """
    eigs = np.linalg.eigvals(T.matrix)
    if np.abs(eigs).min() < 1.0 - 1e-9:
        raise TransformClassError(
            f"map {T} contracts some direction (|eigenvalue| "
            f"{np.abs(eigs).min():.6g} < 1); the sequence would not collapse"
        )
    geom = f.geometry
    X, Y = geom.coords()
    chi = (np.hypot(X, Y) <= chi_radius).astype(np.float64)
    g0 = Grid(geom, chi * f.values)
    steps = []
    for n in range(n_max + 1):
        warped = resample_affine(g0, iterate(T, n)) if n else g0
        fn = Grid(geom, chi * warped.values)
        mu = generator_eval(op, fn) if op is not None else None
        steps.append(
            ContractionStep(n, fn, support_estimate(fn, 0.0).measure, mu)
        )
    return tuple(steps)
