"""The alignment residual of one linear layer against its closed form.

A Gaussian input f = g_{Sf}(. - c) and a Gaussian filter lam = g_{Sl}, with
g_S(x) = exp(-x^T S^-1 x / 2), convolve in closed form:
g_{S1} * g_{S2} = K(S1, S2) g_{S1+S2}, K = 2 pi sqrt(det S1 det S2 / det(S1+S2)).
Realigning the response to the warped input by T^-1 convolves f with
|det T| lam(T .) = |det T| g_{S'}, S' = T^-1 Sl T^-T, so the continuum
alignment residual is the sup of

    | |det T| K(Sf, S') g_{Sf+S'}(x - c) - K(Sf, Sl) g_{Sf+Sl}(x - c) |,

which is 0 exactly when T^-1 Sl T^-T = Sl. The measured residuals are the
audit's alignment sweep (FFT engine, interior mask of the aligner) at
h = 0.04 / 2^k; they must converge to that limit at order about 2.

The oracle covers identity layers only: a pointwise nonlinearity has no
closed form. A model of two linear layers composes by adding covariances,
but is not covered here.
"""

import math

import numpy as np
import pytest

from equiaudit import (
    CnnModel,
    ConvLayer,
    GridGeometry,
    Nonlinearity,
    distance,
    gaussian_filter,
    interior_mask,
    model_channel_operator,
    render,
    resample_affine,
)
from equiaudit.transform import parse_transform

EXTENT = 1.6
SPACINGS = [0.04 / 2**k for k in range(4)]
SIGMA_F, CENTER = 0.15, (0.1, -0.05)
SIGMA_L = 0.06
LIMIT_STEP = 0.001  # the closed form's sup is taken on this lattice of [-1, 1]^2
MAPS = ("scale:2", "shear:0.5", "shear:1", "rot:45")
ORDER_GATED = ("scale:2", "shear:0.5", "rot:45")


def _gaussian_input(geom):
    cx, cy = CENTER

    def src(x, y):
        r2 = (np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2
        return np.where(r2 <= (8 * SIGMA_F) ** 2, np.exp(-r2 / (2 * SIGMA_F**2)), 0.0)

    return render(geom, src)


def _measured(T, aligner):
    """The alignment sweep's residual of the one-layer Gaussian model at
    every spacing, realigning by ``aligner``."""
    out = []
    for h in SPACINGS:
        lam = gaussian_filter(SIGMA_L, GridGeometry(8 * SIGMA_L, h))
        model = CnnModel((ConvLayer(((lam,),), (0.0,), Nonlinearity("identity")),))
        op = model_channel_operator(model, exact=False)
        f = _gaussian_input(GridGeometry(EXTENT, h))
        base = op(f)
        geom = base.geometry
        mask = interior_mask(geom, op.declared_receptive_radius + geom.spacing, warp=aligner)
        lhs = resample_affine(op(resample_affine(f, T)), aligner)
        out.append(distance(lhs, base, "sup", mask))
    return out


def _weight(S1, S2):
    return 2 * math.pi * math.sqrt(
        np.linalg.det(S1) * np.linalg.det(S2) / np.linalg.det(S1 + S2)
    )


def _limit(T):
    """Sup of the continuum residual over the LIMIT_STEP lattice of [-1, 1]^2,
    a strip of rows at a time."""
    M = np.linalg.inv(T.matrix)
    Sf = SIGMA_F**2 * np.eye(2)
    Sl = SIGMA_L**2 * np.eye(2)
    Sw = SIGMA_L**2 * M @ M.T
    terms = [
        (abs(T.det) * _weight(Sf, Sw), np.linalg.inv(Sf + Sw)),
        (-_weight(Sf, Sl), np.linalg.inv(Sf + Sl)),
    ]
    axis = np.linspace(-1.0, 1.0, round(2 / LIMIT_STEP) + 1)
    u = (axis - CENTER[0])[np.newaxis, :]
    best = 0.0
    for rows in np.array_split(axis - CENTER[1], 20):
        v = rows[:, np.newaxis]
        total = sum(
            w * np.exp(-0.5 * (P[0, 0] * u * u + 2 * P[0, 1] * u * v + P[1, 1] * v * v))
            for w, P in terms
        )
        best = max(best, float(np.abs(total).max()))
    return best


def _gate_failures(spec, residuals, limit):
    """The gates fixed for the oracle, as a list of the ones that fail."""
    errors = [abs(r - limit) for r in residuals]
    aligned = limit <= 1e-12  # an orthogonal map's limit is 0 up to rounding
    failed = []
    if any(b > a for a, b in zip(errors, errors[1:])):
        failed.append("errors increase")
    if spec in ORDER_GATED:
        orders = [math.log2(a / b) if b > 0 else math.inf for a, b in zip(errors, errors[1:])]
        if min(orders) < 1.0:
            failed.append(f"step order {min(orders):.3g} < 1")
        if errors[-1] == 0 or math.log2(errors[0] / errors[-1]) / (len(errors) - 1) < 1.8:
            failed.append("overall order < 1.8")
    if not aligned and errors[-1] / limit > 5e-3:
        failed.append(f"finest relative error {errors[-1] / limit:.3g} > 5e-3")
    if aligned and residuals[-1] > 1e-5:
        failed.append(f"finest residual {residuals[-1]:.3g} > 1e-5")
    return failed


@pytest.mark.parametrize(
    "spec, want",
    [
        ("scale:2", 2.249947e-3),
        ("shear:0.5", 5.135291e-4),
        ("shear:1", 1.167503e-3),
        ("rot:45", 0.0),
    ],
)
def test_closed_form_limit(spec, want):
    assert _limit(parse_transform(spec)) == pytest.approx(want, rel=1e-6, abs=1e-15)


@pytest.mark.parametrize("spec", MAPS)
def test_alignment_residual_converges_to_the_closed_form(spec):
    T = parse_transform(spec)
    residuals = _measured(T, T.inverse())
    assert _gate_failures(spec, residuals, _limit(T)) == [], residuals


@pytest.mark.parametrize("spec", MAPS)
def test_realigning_by_the_map_itself_fails_the_oracle(spec):
    # the same sweep with the aligner T in place of T^-1
    T = parse_transform(spec)
    assert _gate_failures(spec, _measured(T, T), _limit(T)) != []
