"""2x2 real linear maps: closed-form algebra, norms, and the dynamical
classification (rotation-conjugate / shear-like / stretch-like / reflection /
scaling) that decides which maps admit feature alignment.

Rotation and reflection constructors snap entries that are within 1e-12 of an
integer, so quarter-turn maps permute the sampling lattice exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularMapError

__all__ = [
    "LinearMap2",
    "TransformClass",
    "classify",
    "iterate",
    "alignment_admits_invariance",
    "parse_transform",
]

_SING_TOL = 1e-12
_ENTRY_SNAP = 1e-12


def _snap(v: float) -> float:
    r = round(v)
    return float(r) if abs(v - r) <= _ENTRY_SNAP else float(v)


@dataclass(frozen=True)
class LinearMap2:
    """Matrix (a b; c d) acting on column vectors (x, y)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"matrix entry {name} must be finite, got {v}")
            object.__setattr__(self, name, v)

    @classmethod
    def identity(cls) -> "LinearMap2":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def rotation(cls, degrees: float) -> "LinearMap2":
        t = math.radians(degrees)
        co, si = _snap(math.cos(t)), _snap(math.sin(t))
        return cls(co, -si, si, co)

    @classmethod
    def scaling(cls, sx: float, sy: Optional[float] = None) -> "LinearMap2":
        return cls(float(sx), 0.0, 0.0, float(sx if sy is None else sy))

    @classmethod
    def shear(cls, k: float) -> "LinearMap2":
        return cls(1.0, float(k), 0.0, 1.0)

    @classmethod
    def reflection(cls, axis_degrees: float) -> "LinearMap2":
        """Reflection across the line through the origin at the given angle."""
        t = 2.0 * math.radians(axis_degrees)
        co, si = _snap(math.cos(t)), _snap(math.sin(t))
        return cls(co, si, si, -co)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=np.float64)

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> float:
        return self.a + self.d

    def inverse(self) -> "LinearMap2":
        dt = self.det
        if abs(dt) <= _SING_TOL:
            raise SingularMapError(f"map {self} is singular (det = {dt})")
        return LinearMap2(self.d / dt, -self.b / dt, -self.c / dt, self.a / dt)

    def compose(self, other: "LinearMap2") -> "LinearMap2":
        """self after other: (self . other)(x) = self(other(x))."""
        return LinearMap2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def matvec(self, v) -> np.ndarray:
        x, y = float(v[0]), float(v[1])
        return np.array([self.a * x + self.b * y, self.c * x + self.d * y])

    def operator_norm(self) -> float:
        """Largest singular value by the closed 2x2 form."""
        s = self.a**2 + self.b**2 + self.c**2 + self.d**2
        dt = abs(self.det)
        gap = max(s * s - 4.0 * dt * dt, 0.0)
        return math.sqrt((s + math.sqrt(gap)) / 2.0)

    def max_entry_distance(self, other: "LinearMap2") -> float:
        return max(
            abs(self.a - other.a),
            abs(self.b - other.b),
            abs(self.c - other.c),
            abs(self.d - other.d),
        )

    def __str__(self):
        return f"[[{self.a:.6g}, {self.b:.6g}], [{self.c:.6g}, {self.d:.6g}]]"


def iterate(T: LinearMap2, n: int) -> LinearMap2:
    """T^n by repeated squaring; negative n uses the inverse."""
    n = int(n)
    if n < 0:
        return iterate(T.inverse(), -n)
    result = LinearMap2.identity()
    base = T
    while n:
        if n & 1:
            result = result.compose(base)
        n >>= 1
        if n:
            base = base.compose(base)
    return result


@dataclass(frozen=True)
class TransformClass:
    """Outcome of :func:`classify`.

    kind is one of identity, elliptic_finite_order, elliptic_infinite,
    parabolic, hyperbolic, reflection_conjugate, contracting_or_expanding.
    For rotation-conjugate maps, conjugator B satisfies B T B^-1 = R(angle).
    """

    kind: str
    order: Optional[int] = None
    canonical_angle: Optional[float] = None
    conjugator: Optional[LinearMap2] = None

    def label(self) -> str:
        if self.kind == "elliptic_finite_order":
            return f"elliptic_finite_order({self.order})"
        return self.kind


def _eigvec_for(T: LinearMap2, lam: complex) -> np.ndarray:
    """A (possibly complex) eigenvector from whichever matrix row is better conditioned."""
    r1 = (T.a - lam, T.b)
    r2 = (T.c, T.d - lam)
    # rows of T - lam*I are (a-lam, b) and (c, d-lam); v = (-row[1], row[0])
    # satisfies row . v = 0, so it spans the null space; pick the bigger row.
    if abs(r1[0]) + abs(r1[1]) >= abs(r2[0]) + abs(r2[1]):
        v = np.array([-r1[1], r1[0]])
    else:
        v = np.array([-r2[1], r2[0]])
    nrm = math.hypot(abs(v[0]), abs(v[1]))  # no squares, so no overflow
    if nrm == 0.0:
        return np.array([1.0, 0.0])
    return v / nrm


def _finite_order(T: LinearMap2, tol: float, n_max: int) -> Optional[int]:
    ident = LinearMap2.identity()
    thresh = tol * max(1.0, T.operator_norm())
    power = T
    for k in range(1, n_max + 1):
        if power.max_entry_distance(ident) <= thresh:
            return k
        power = power.compose(T)
    return None


def classify(T: LinearMap2, tol: float = 1e-9, n_max: int = 360) -> TransformClass:
    """Classify by determinant sign and eigenvalue layout.

    Branch order: identity, then modulus (|det| away from 1 means some
    eigenvalue leaves the unit circle: contracting_or_expanding), then the
    unimodular cases split by sign of det and of the discriminant.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if abs(T.det) <= _SING_TOL:
        raise SingularMapError(f"cannot classify singular map {T}")
    ident = LinearMap2.identity()
    if T.max_entry_distance(ident) <= tol:
        return TransformClass("identity", order=1, canonical_angle=0.0, conjugator=ident)

    dt = T.det
    tr = T.trace
    if abs(abs(dt) - 1.0) > tol:
        return TransformClass("contracting_or_expanding")

    if dt < 0.0:
        # eigenvalues are real with product -1; both on the unit circle
        # exactly when the trace vanishes, i.e. T*T = I.
        t2 = T.compose(T)
        if t2.max_entry_distance(ident) <= 10.0 * tol * max(1.0, T.operator_norm() ** 2):
            disc = math.sqrt(max(tr * tr - 4.0 * dt, 0.0))
            vp = _eigvec_for(T, (tr + disc) / 2.0).real
            vm = _eigvec_for(T, (tr - disc) / 2.0).real
            basis = LinearMap2(vp[0], vm[0], vp[1], vm[1])
            conj = None
            if abs(basis.det) > _SING_TOL:
                conj = basis.inverse()
            return TransformClass("reflection_conjugate", order=2, conjugator=conj)
        return TransformClass("contracting_or_expanding")

    # det = +1 branch
    if T.max_entry_distance(LinearMap2(-1.0, 0.0, 0.0, -1.0)) <= tol:
        # half-turn: rotation by pi, not a reflection (det = +1 governs)
        return TransformClass(
            "elliptic_finite_order", order=2, canonical_angle=math.pi, conjugator=ident
        )

    disc = tr * tr - 4.0 * dt
    band = 4.0 * tol * max(1.0, abs(tr))
    if disc < -band:
        alpha = tr / 2.0
        beta = math.sqrt(-disc) / 2.0
        angle = math.atan2(beta, alpha)
        v = _eigvec_for(T, complex(alpha, beta))
        u, w = v.real, v.imag
        basis = LinearMap2(u[0], -w[0], u[1], -w[1])
        scale = math.sqrt(abs(basis.det)) if abs(basis.det) > _SING_TOL else 1.0
        basis = LinearMap2(basis.a / scale, basis.b / scale, basis.c / scale, basis.d / scale)
        conj = basis.inverse() if abs(basis.det) > _SING_TOL else None
        order = _finite_order(T, tol, n_max)
        if order is None:
            return TransformClass("elliptic_infinite", canonical_angle=angle, conjugator=conj)
        return TransformClass(
            "elliptic_finite_order", order=order, canonical_angle=angle, conjugator=conj
        )
    if disc > band:
        # disc/4 = q^2 - s^2 factored, so neither it nor the roots overflow
        # when the trace is huge; the small root follows from the product dt
        q = tr / 2.0
        s = math.sqrt(dt)
        root = math.sqrt(max(abs(q) - s, 0.0)) * math.sqrt(abs(q) + s)
        big = q + math.copysign(root, q)
        lp, lm = (big, dt / big) if q > 0.0 else (dt / big, big)
        vp = _eigvec_for(T, lp).real
        vm = _eigvec_for(T, lm).real
        basis = LinearMap2(vp[0], vm[0], vp[1], vm[1])
        conj = basis.inverse() if abs(basis.det) > _SING_TOL else None
        return TransformClass("hyperbolic", conjugator=conj)

    # repeated real eigenvalue +-1 and T != +-I: a shear conjugate
    lam = tr / 2.0
    nil = LinearMap2(T.a - lam, T.b, T.c, T.d - lam)
    w = (
        np.array([1.0, 0.0])
        if math.hypot(nil.a, nil.c) >= math.hypot(nil.b, nil.d)
        else np.array([0.0, 1.0])
    )
    v = nil.matvec(w)
    basis = LinearMap2(v[0], w[0], v[1], w[1])
    conj = basis.inverse() if abs(basis.det) > _SING_TOL else None
    return TransformClass("parabolic", conjugator=conj)


def alignment_admits_invariance(T: LinearMap2) -> str:
    """'yes_with_invariant_features' only for maps conjugate to a rotation or
    reflection (or the identity); 'no' for shear-like, stretch-like, and
    scaling maps."""
    kind = classify(T).kind
    if kind in ("identity", "elliptic_finite_order", "elliptic_infinite", "reflection_conjugate"):
        return "yes_with_invariant_features"
    return "no"


def _try_parse(spec: str) -> Optional[LinearMap2]:
    try:
        return parse_transform(spec)
    except ValueError:
        return None


def parse_transform(spec: str) -> LinearMap2:
    """Parse a CLI map spec.

    Forms: rot:<degrees>, scale:<sx>[,<sy>], shear:<k>, reflect:<axis-degrees>,
    mat:a,b,c,d, and conj:<B-spec>:<inner-spec> for B . inner . B^-1.
    Singular maps, maps whose det is not finite and maps whose inverse is
    singular (or not finite) are rejected here, so config errors surface
    before any work.
    """
    T = _parse_transform_any(spec)
    if not math.isfinite(T.det):
        raise ValueError(f"malformed transform spec {spec!r}: det is not finite")
    if abs(T.det) <= _SING_TOL:
        raise ValueError(f"malformed transform spec {spec!r}: map is singular")
    try:
        inv = T.inverse()
    except ValueError:  # an entry of the inverse overflows
        inv = None
    if inv is None or not abs(inv.det) > _SING_TOL:
        raise ValueError(
            f"malformed transform spec {spec!r}: inverse map is singular or not finite"
        )
    return T


def _parse_transform_any(spec: str) -> LinearMap2:
    s = spec.strip()
    head, sep, rest = s.partition(":")
    if not sep:
        raise ValueError(f"malformed transform spec {spec!r}: missing ':'")
    try:
        if head == "rot":
            return LinearMap2.rotation(float(rest))
        if head == "scale":
            parts = [float(p) for p in rest.split(",")]
            if len(parts) == 1:
                return LinearMap2.scaling(parts[0])
            if len(parts) == 2:
                return LinearMap2.scaling(parts[0], parts[1])
            raise ValueError("scale takes one or two factors")
        if head == "shear":
            return LinearMap2.shear(float(rest))
        if head == "reflect":
            return LinearMap2.reflection(float(rest))
        if head == "mat":
            parts = [float(p) for p in rest.split(",")]
            if len(parts) != 4:
                raise ValueError("mat takes four entries a,b,c,d")
            return LinearMap2(*parts)
        if head == "conj":
            # rest is "<B-spec>:<inner-spec>"; both sub-specs contain colons, so
            # try each split point until both halves parse.
            positions = [i for i, ch in enumerate(rest) if ch == ":"]
            for i in positions:
                b = _try_parse(rest[:i])
                inner = _try_parse(rest[i + 1 :])
                if b is not None and inner is not None:
                    return b.compose(inner).compose(b.inverse())
            raise ValueError("conj:<B-spec>:<inner-spec> did not split into two valid specs")
    except ValueError as e:
        raise ValueError(f"malformed transform spec {spec!r}: {e}") from None
    raise ValueError(f"malformed transform spec {spec!r}: unknown form {head!r}")
