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
_CLASSIFY_TOL = 1e-9  # entry tolerance of every comparison classify makes
_MAX_ORDER = 360  # highest finite order classify looks for


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
        """Largest singular value by the closed 2x2 form; a norm that overflows
        a float is a ValueError."""
        try:
            s = self.a**2 + self.b**2 + self.c**2 + self.d**2
        except OverflowError:
            s = math.inf
        dt = abs(self.det)
        gap = max(s * s - 4.0 * dt * dt, 0.0)
        norm = math.sqrt((s + math.sqrt(gap)) / 2.0)
        if not math.isfinite(norm):
            raise ValueError(f"map {self} has entries too large for its operator norm")
        return norm

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
    """

    kind: str
    order: Optional[int] = None
    canonical_angle: Optional[float] = None

    def label(self) -> str:
        if self.kind == "elliptic_finite_order":
            return f"elliptic_finite_order({self.order})"
        return self.kind


def _finite_order(angle: float) -> Optional[int]:
    """Smallest k <= _MAX_ORDER with k * angle within _CLASSIFY_TOL of a
    multiple of 2 pi: the order of a map conjugate to the rotation by angle."""
    for k in range(1, _MAX_ORDER + 1):
        turns = k * angle
        if abs(turns - 2.0 * math.pi * round(turns / (2.0 * math.pi))) <= _CLASSIFY_TOL:
            return k
    return None


def classify(T: LinearMap2) -> TransformClass:
    """Classify by determinant sign and eigenvalue layout.

    Branch order: identity, then modulus (|det| away from 1 means some
    eigenvalue leaves the unit circle: contracting_or_expanding), then the
    unimodular cases split by sign of det and of the discriminant. Only the
    conjugacy invariants trace and det are compared, to within 1e-9 (the
    identity and half-turn tests compare entries), and a rotation-conjugate
    map counts as of finite order when some multiple up to the 360th of its
    canonical angle is a whole number of turns.
    """
    if abs(T.det) <= _SING_TOL:
        raise SingularMapError(f"cannot classify singular map {T}")
    ident = LinearMap2.identity()
    if T.max_entry_distance(ident) <= _CLASSIFY_TOL:
        return TransformClass("identity", order=1, canonical_angle=0.0)

    dt = T.det
    tr = T.trace
    if abs(abs(dt) - 1.0) > _CLASSIFY_TOL:
        return TransformClass("contracting_or_expanding")

    if dt < 0.0:
        # eigenvalues are real with product -1; both on the unit circle
        # exactly when the trace vanishes, since T*T - I = tr T here
        if abs(tr) <= 4.0 * _CLASSIFY_TOL * max(1.0, abs(T.a) + abs(T.d)):
            return TransformClass("reflection_conjugate", order=2)
        return TransformClass("contracting_or_expanding")

    # det = +1 branch
    if T.max_entry_distance(LinearMap2(-1.0, 0.0, 0.0, -1.0)) <= _CLASSIFY_TOL:
        # half-turn: rotation by pi, not a reflection (det = +1 governs)
        return TransformClass("elliptic_finite_order", order=2, canonical_angle=math.pi)

    # a huge trace overflows disc to +inf, which still reads as hyperbolic
    disc = tr * tr - 4.0 * dt
    band = 4.0 * _CLASSIFY_TOL * max(1.0, abs(tr))
    if disc < -band:
        angle = math.atan2(math.sqrt(-disc) / 2.0, tr / 2.0)
        order = _finite_order(angle)
        if order is None:
            return TransformClass("elliptic_infinite", canonical_angle=angle)
        return TransformClass("elliptic_finite_order", order=order, canonical_angle=angle)
    if disc > band:
        return TransformClass("hyperbolic")
    # repeated real eigenvalue +-1 and T != +-I: a shear conjugate
    return TransformClass("parabolic")


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
