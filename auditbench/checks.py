"""Output checks for one audit run, and a self-test that proves they can fail.

The checks do not compare against a stored report. They test properties the
paper fixes in advance and recompute two kernels independently:

- the run exits 0 and reports ``consistent: true``;
- with radial filters a map aligns exactly when T^T T = I, computed here from
  the transform's own matrix, and each observed verdict must say so;
- every naturality curve ends within tol(h) = 5 h scale, and a lattice shear
  (integer ``shear:k``) has naturality residual exactly 0.0;
- one convolution agrees with ``scipy.signal.convolve2d(mode="same") * h^2``
  within 1e-12 of the sup;
- ``resample_affine(f, rot:90)`` equals ``np.rot90(f.values)`` bit for bit.
"""

from __future__ import annotations

import copy
import math

import numpy as np

TOL_FACTOR = 5.0  # the package's documented first-order tolerance tol(h) = 5 h scale
CONV_REL = 1e-12


def transform_matrix(spec: str) -> np.ndarray:
    """The 2x2 matrix of a ``rot``, ``reflect``, ``shear`` or ``scale`` spec."""
    head, _, rest = spec.partition(":")
    vals = [float(v) for v in rest.split(",")]
    if head == "rot":
        t = math.radians(vals[0])
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    if head == "reflect":
        t = 2.0 * math.radians(vals[0])
        return np.array([[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]])
    if head == "shear":
        return np.array([[1.0, vals[0]], [0.0, 1.0]])
    if head == "scale":
        return np.diag([vals[0], vals[-1]])
    raise ValueError(f"no matrix for transform spec {spec!r}")


def expect_aligned(spec: str) -> bool:
    """Radial filters are fixed by exactly the orthogonal maps."""
    T = transform_matrix(spec)
    return bool(np.allclose(T.T @ T, np.eye(2), rtol=0.0, atol=1e-12))


def is_lattice_shear(spec: str) -> bool:
    head, _, rest = spec.partition(":")
    return head == "shear" and float(rest).is_integer()


def check_report(report: dict, exit_code: int, transforms) -> list:
    """Failures of the report-level checks, as messages; empty when all pass."""
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    if report.get("consistent") is not True:
        failures.append("report is not consistent")
    expectations = {e["transform"]: e for e in report.get("expectations", [])}
    checks = {c["name"]: c for c in report.get("checks", [])}
    for spec in transforms:
        want = "aligned" if expect_aligned(spec) else "misaligned"
        exp = expectations.get(spec)
        if exp is None or exp["observed"] != want:
            failures.append(f"{spec}: observed verdict is not {want}")
        alignment = checks.get(f"alignment[{spec}]")
        verdict = "aligned_within_tol" if want == "aligned" else "misaligned(floor)"
        if alignment is None or alignment["verdict"] != verdict:
            failures.append(f"alignment[{spec}]: verdict is not {verdict}")
        nat = checks.get(f"naturality[{spec}]")
        if nat is None or not nat.get("spacing_curve"):
            failures.append(f"naturality[{spec}]: no residual curve")
            continue
        curve = nat["spacing_curve"]
        # the report writes inf and nan as strings
        last = float(curve["residuals"][-1])
        tol = TOL_FACTOR * float(curve["spacings"][-1]) * float(curve["scale"])
        if not last <= tol:
            failures.append(f"naturality[{spec}]: final residual {last!r} exceeds tol {tol!r}")
        if is_lattice_shear(spec) and (last != 0.0 or float(nat["residual"]) != 0.0):
            failures.append(f"naturality[{spec}]: lattice shear residual {last!r} is not 0.0")
    return failures


def check_convolve(got: np.ndarray, want: np.ndarray) -> list:
    sup = float(np.abs(want).max())
    err = float(np.abs(got - want).max())
    if not (sup > 0.0 and err <= CONV_REL * sup):
        return [f"convolve differs from convolve2d by {err!r} (sup {sup!r})"]
    return []


def check_rot90(got: np.ndarray, want: np.ndarray) -> list:
    if got.shape != want.shape or not np.array_equal(got, want):
        return ["resample_affine(f, rot:90) is not np.rot90(f.values) bit for bit"]
    return []


def selftest(report: dict, transforms, conv_pair, rot_pair) -> list:
    """Feed the checks deliberately broken outputs; each must be caught.

    Returns one message per mutation the checks let through.
    """
    missed = []

    def expect_caught(label, failures):
        if not failures:
            missed.append(f"self-test: {label} was not caught")

    flipped = copy.deepcopy(report)
    exp = flipped["expectations"][0]
    exp["observed"] = "misaligned" if exp["observed"] == "aligned" else "aligned"
    expect_caught("a flipped verdict", check_report(flipped, 0, transforms))

    spec = transforms[0]
    loose = copy.deepcopy(report)
    curve = next(c for c in loose["checks"] if c["name"] == f"naturality[{spec}]")["spacing_curve"]
    curve["residuals"][-1] = 2.0 * TOL_FACTOR * curve["spacings"][-1] * curve["scale"]
    expect_caught("a naturality residual above tol", check_report(loose, 0, transforms))

    for spec in filter(is_lattice_shear, transforms):
        inexact = copy.deepcopy(report)
        nat = next(c for c in inexact["checks"] if c["name"] == f"naturality[{spec}]")
        nat["residual"] = nat["spacing_curve"]["residuals"][-1] = 5e-324
        expect_caught(f"a nonzero naturality[{spec}] residual", check_report(inexact, 0, transforms))

    got, want = conv_pair
    perturbed = got.copy()
    mid = perturbed.shape[0] // 2
    perturbed[mid, mid] += 1e-10 * float(np.abs(want).max())
    expect_caught("a perturbed convolution", check_convolve(perturbed, want))

    got, want = rot_pair
    nudged = got.copy()
    peak = int(np.argmax(np.abs(nudged)))
    nudged.flat[peak] = np.nextafter(nudged.flat[peak], np.inf)
    expect_caught("a one-ulp change after rot:90", check_rot90(nudged, want))
    return missed
