import math

import numpy as np
import pytest

from equiaudit.transform import (
    LinearMap2,
    alignment_admits_invariance,
    classify,
    iterate,
    parse_transform,
)

GOLDEN_RATIO = 1.618033988749895  # largest singular value of the unit shear


def _random_invertible(rng):
    while True:
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        if abs(np.linalg.det(m)) > 0.3:
            return LinearMap2(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def test_det_inverse_compose_against_numpy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        T = _random_invertible(rng)
        m = T.matrix
        assert T.det == pytest.approx(np.linalg.det(m), rel=1e-12)
        assert np.allclose(T.inverse().matrix, np.linalg.inv(m), atol=1e-12)
        S = _random_invertible(rng)
        assert np.allclose(T.compose(S).matrix, m @ S.matrix, atol=1e-12)
        v = rng.normal(size=2)
        assert np.allclose(T.matvec(v), m @ v, atol=1e-13)


def test_rotation_angles_add():
    for a, b in ((30.0, 45.0), (90.0, 90.0), (-17.0, 200.0)):
        lhs = LinearMap2.rotation(a).compose(LinearMap2.rotation(b)).matrix
        rhs = LinearMap2.rotation(a + b).matrix
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_operator_norm_golden_ratio_for_unit_shear():
    T = LinearMap2(1.0, 1.0, 0.0, 1.0)
    assert T.operator_norm() == pytest.approx(GOLDEN_RATIO, rel=1e-12)


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(8)
    for _ in range(50):
        T = _random_invertible(rng)
        assert T.operator_norm() == pytest.approx(
            np.linalg.svd(T.matrix, compute_uv=False)[0], rel=1e-10
        )


def test_iterate_laws():
    T = parse_transform("rot:36")
    assert np.allclose(iterate(T, 10).matrix, np.eye(2), atol=1e-10)
    assert np.allclose(iterate(T, 0).matrix, np.eye(2), atol=0)
    assert np.allclose(
        iterate(T, -2).matrix, T.inverse().compose(T.inverse()).matrix, atol=1e-12
    )
    rng = np.random.default_rng(4)
    S = _random_invertible(rng)
    assert np.allclose(
        iterate(S, 5).matrix, iterate(S, 2).compose(iterate(S, 3)).matrix, rtol=1e-10
    )


def test_classify_finite_order_rotation():
    c = classify(parse_transform("rot:36"))
    assert c.kind == "elliptic_finite_order"
    assert c.order == 10
    assert c.canonical_angle == pytest.approx(math.radians(36.0))
    assert c.label() == "elliptic_finite_order(10)"


def test_classify_minus_identity_is_order_two():
    c = classify(LinearMap2(-1.0, 0.0, 0.0, -1.0))
    assert c.kind == "elliptic_finite_order"
    assert c.order == 2


def test_classify_irrational_rotation():
    c = classify(LinearMap2.rotation(math.degrees(1.0)))  # 1 radian
    assert c.kind == "elliptic_infinite"
    assert c.order is None


def test_classify_identity_shear_scaling_reflection():
    assert classify(parse_transform("mat:1,0,0,1")).kind == "identity"
    assert classify(parse_transform("shear:1")).kind == "parabolic"
    assert classify(parse_transform("scale:2")).kind == "contracting_or_expanding"
    assert classify(parse_transform("scale:0.5")).kind == "contracting_or_expanding"
    r = classify(parse_transform("reflect:30"))
    assert r.kind == "reflection_conjugate"
    assert r.order == 2
    # swap of the axes is the 45-degree reflection
    assert classify(LinearMap2(0.0, 1.0, 1.0, 0.0)).kind == "reflection_conjugate"


def test_classify_hyperbolic_and_unit_det_mix():
    assert classify(parse_transform("scale:2,0.5")).kind == "hyperbolic"
    # orientation-reversing with unit determinant but no involution
    c = classify(LinearMap2(2.0, 0.0, 0.0, -0.5))
    assert c.kind == "contracting_or_expanding"
    # trace -2 non-diagonalizable: negated unit shear
    assert classify(LinearMap2(-1.0, -1.0, 0.0, -1.0)).kind == "parabolic"


def test_classify_hyperbolic_with_huge_trace():
    # tr^2 overflows to inf; the eigenvalues and eigenvectors must not
    c = classify(parse_transform("mat:1e200,0,0,1e-200"))
    assert c.kind == "hyperbolic"
    assert c.conjugator is not None
    assert c.conjugator.max_entry_distance(LinearMap2.identity()) == 0.0
    # a moderate trace keeps its eigenbasis: large eigenvalue first
    basis = classify(parse_transform("mat:2,1,1,1")).conjugator.inverse().matrix
    M = np.array([[2.0, 1.0], [1.0, 1.0]])
    for col, lam in ((0, (3.0 + math.sqrt(5.0)) / 2.0), (1, (3.0 - math.sqrt(5.0)) / 2.0)):
        assert np.allclose(M @ basis[:, col], lam * basis[:, col], rtol=0.0, atol=1e-12)


def test_classify_is_conjugacy_invariant():
    rng = np.random.default_rng(13)
    reps = {
        "elliptic_finite_order": parse_transform("rot:60"),
        "elliptic_infinite": LinearMap2.rotation(math.degrees(0.5)),
        "parabolic": parse_transform("shear:1"),
        "hyperbolic": parse_transform("scale:2,0.5"),
        "reflection_conjugate": parse_transform("reflect:0"),
        "contracting_or_expanding": parse_transform("scale:1.7"),
    }
    for kind, T in reps.items():
        for _ in range(8):
            B = _random_invertible(rng)
            conj = B.inverse().compose(T).compose(B)
            got = classify(conj)
            assert got.kind == kind, f"{kind}: got {got.kind}"
            if kind == "elliptic_finite_order":
                assert got.order == classify(T).order


def test_classify_singular_raises():
    from equiaudit import SingularMapError

    with pytest.raises(SingularMapError):
        classify(LinearMap2(1.0, 2.0, 2.0, 4.0))


def test_finite_order_detection_against_matrix_powers():
    # independent oracle: smallest n <= 24 with T^n == I, by repeated products
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 5, 6, 8, 12, 24):
        for _ in range(3):
            B = _random_invertible(rng)
            T = B.inverse().compose(LinearMap2.rotation(360.0 / n)).compose(B)
            m = np.eye(2)
            order = None
            for k in range(1, 25):
                m = T.matrix @ m
                if np.abs(m - np.eye(2)).max() < 1e-9:
                    order = k
                    break
            c = classify(T)
            assert c.kind == "elliptic_finite_order"
            assert c.order == order == n


def test_alignment_admits_invariance_gate():
    yes = ["mat:1,0,0,1", "rot:90", "rot:36", "reflect:30", "mat:0,1,1,0"]
    no = ["shear:1", "scale:2", "scale:2,0.5", "scale:0.5", "mat:2,0,0,-0.5"]
    for s in yes:
        got = alignment_admits_invariance(parse_transform(s))
        assert got == "yes_with_invariant_features", s
    for s in no:
        assert alignment_admits_invariance(parse_transform(s)) == "no", s
    got = alignment_admits_invariance(LinearMap2.rotation(math.degrees(0.5)))
    assert got == "yes_with_invariant_features"


def test_parse_transform_forms():
    assert np.allclose(parse_transform("rot:90").matrix, [[0, -1], [1, 0]], atol=1e-15)
    assert np.allclose(parse_transform("scale:2").matrix, [[2, 0], [0, 2]])
    assert np.allclose(parse_transform("scale:2,0.5").matrix, [[2, 0], [0, 0.5]])
    assert np.allclose(parse_transform("shear:0.3").matrix, [[1, 0.3], [0, 1]])
    assert np.allclose(
        parse_transform("mat:1,2,3,4").matrix, [[1.0, 2.0], [3.0, 4.0]]
    )
    refl = parse_transform("reflect:0")
    assert np.allclose(refl.matrix, [[1, 0], [0, -1]], atol=1e-15)
    # conjugation: B . inner . B^-1
    conj = parse_transform("conj:shear:1:rot:90")
    B = parse_transform("shear:1")
    inner = parse_transform("rot:90")
    expect = B.compose(inner).compose(B.inverse()).matrix
    assert np.allclose(conj.matrix, expect, atol=1e-14)


def test_parse_transform_rejects_malformed():
    for bad in (
        "rot",
        "rot:",
        "rot:x",
        "spin:10",
        "mat:1,2,3",
        "mat:1,2,3,4,5",
        "scale:1,2,3",
        "mat:1,2,2,4",  # singular
        "",
        "conj:rot:45",
    ):
        with pytest.raises(ValueError):
            parse_transform(bad)
