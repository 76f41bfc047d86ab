import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from freewalk import (
    DomainError,
    as_matrix,
    as_vector,
    dist_point_hyperplane,
    exterior_square,
    fubini_study,
    operator_norm,
    vector_norm,
)
from freewalk.linalg import (
    adjugate,
    exact_det,
    exact_inv,
    identity,
    matrix_from_json_dict,
    matrix_to_json_dict,
    normalize_representative,
    wedge_pairs,
)

from conftest import is_isometry, random_rational, random_unimodular_int

F = Fraction


def test_vector_norm_examples(real_field, q2):
    assert vector_norm(as_vector([1, 0], real_field), real_field) == 1.0
    assert vector_norm(as_vector([3, 4], real_field), real_field) == 5.0
    assert vector_norm(as_vector([2, F(1, 2)], q2), q2) == 2  # max(1/2, 2)


def test_operator_norm_examples(real_field, q2):
    ident = as_matrix([[1, 0], [0, 1]], real_field)
    assert operator_norm(ident, real_field) == 1.0
    assert operator_norm(as_matrix([[1, 0], [0, 1]], q2), q2) == 1
    diag = as_matrix([[2, 0], [0, 0.5]], real_field)
    assert operator_norm(diag, real_field) == pytest.approx(2.0, abs=1e-12)
    shear = as_matrix([[1, 2], [0, 1]], real_field)
    assert operator_norm(shear, real_field) == pytest.approx(1 + math.sqrt(2), abs=1e-12)


def test_operator_norm_submultiplicative(real_field, q3):
    rng = random.Random(31)
    for _ in range(200):
        g = as_matrix(random_unimodular_int(rng, 2), real_field)
        h = as_matrix(random_unimodular_int(rng, 2), real_field)
        assert operator_norm(g @ h, real_field) <= operator_norm(g, real_field) * operator_norm(
            h, real_field
        ) * (1 + 1e-12)
        gq = as_matrix(random_unimodular_int(rng, 3), q3)
        hq = as_matrix(random_unimodular_int(rng, 3), q3)
        assert operator_norm(gq @ hq, q3) <= operator_norm(gq, q3) * operator_norm(hq, q3)


def test_exterior_square_examples(real_field, q2):
    ident3 = as_matrix(np.eye(3), real_field)
    assert np.allclose(exterior_square(ident3), np.eye(3))
    diag2 = as_matrix([[2, 0], [0, 0.5]], real_field)
    w = exterior_square(diag2)
    assert w.shape == (1, 1) and w[0, 0] == pytest.approx(1.0)
    diag3 = as_matrix([[2, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]], q2)
    w3 = exterior_square(diag3)
    # wedge basis (e1^e2, e1^e3, e2^e3)
    assert [w3[i, i] for i in range(3)] == [F(2), F(1), F(1, 2)]


def test_exterior_square_multiplicative_exact(q3):
    rng = random.Random(8)
    for d in (2, 3):
        for _ in range(50):
            g = as_matrix(random_unimodular_int(rng, d), q3)
            h = as_matrix(random_unimodular_int(rng, d), q3)
            assert (exterior_square(g @ h) == exterior_square(g) @ exterior_square(h)).all()


def test_fubini_study_examples(real_field, q3):
    e1 = as_vector([1, 0], real_field)
    e2 = as_vector([0, 1], real_field)
    assert fubini_study(e1, e2, real_field) == 1.0
    x = as_vector([2, 5], real_field)
    assert fubini_study(x, as_vector([6, 15], real_field), real_field) == 0.0
    assert fubini_study(e1, as_vector([1, 1], real_field), real_field) == pytest.approx(
        1 / math.sqrt(2), abs=1e-12
    )
    assert fubini_study(as_vector([1, 0], q3), as_vector([1, 3], q3), q3) == F(1, 3)
    with pytest.raises(DomainError):
        fubini_study(as_vector([0, 0], real_field), e1, real_field)


def test_dist_point_hyperplane_examples(real_field):
    e1 = as_vector([1, 0], real_field)
    e1s = as_vector([1, 0], real_field)
    e2s = as_vector([0, 1], real_field)
    assert dist_point_hyperplane(e1, e1s, real_field) == 1.0
    assert dist_point_hyperplane(e1, e2s, real_field) == 0.0
    x = as_vector([1, 1], real_field)
    assert dist_point_hyperplane(x, e1s, real_field) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    with pytest.raises(DomainError):
        dist_point_hyperplane(x, as_vector([0, 0], real_field), real_field)


def _random_direction(rng, d, field):
    while True:
        v = as_vector([rng.randint(-9, 9) for _ in range(d)], field)
        if any(x != 0 for x in v):
            return v


def test_triangle_inequality_archimedean(real_field):
    rng = random.Random(77)
    for _ in range(10000):
        x, y, z = (_random_direction(rng, 3, real_field) for _ in range(3))
        dxz = fubini_study(x, z, real_field)
        dxy = fubini_study(x, y, real_field)
        dyz = fubini_study(y, z, real_field)
        assert dxz <= dxy + dyz + 1e-10


def test_triangle_inequality_ultrametric_exact(q2):
    # nonarchimedean Fubini-Study distance is an exact ultrametric
    rng = random.Random(78)
    for _ in range(10000):
        x, y, z = (_random_direction(rng, 2, q2) for _ in range(3))
        dxz = fubini_study(x, z, q2)
        dxy = fubini_study(x, y, q2)
        dyz = fubini_study(y, z, q2)
        assert dxz <= max(dxy, dyz)


def test_isometry_invariance(real_field, q3):
    rng = random.Random(55)
    rng_np = np.random.default_rng(55)
    for _ in range(100):
        q, _ = np.linalg.qr(rng_np.normal(size=(3, 3)))
        x = _random_direction(rng, 3, real_field)
        y = _random_direction(rng, 3, real_field)
        assert fubini_study(q @ x, q @ y, real_field) == pytest.approx(
            fubini_study(x, y, real_field), abs=1e-9
        )
    for _ in range(100):
        k = as_matrix(random_unimodular_int(rng, 2), q3)
        assert is_isometry(k, q3)
        x = _random_direction(rng, 2, q3)
        y = _random_direction(rng, 2, q3)
        assert fubini_study(k @ x, k @ y, q3) == fubini_study(x, y, q3)


def test_exact_det_inv(q3, real_field):
    rng = random.Random(4)
    for d in (2, 3, 4):
        for _ in range(25):
            g = as_matrix(random_unimodular_int(rng, d), q3)
            assert exact_det(g) == 1
            gi = exact_inv(g)
            prod = g @ gi
            for i in range(d):
                for j in range(d):
                    assert prod[i, j] == (1 if i == j else 0)
        # the identity: floats over R, Fractions over Q_p and with no field
        eye = identity(d, real_field)
        assert eye.dtype == float and np.array_equal(eye, np.eye(d))
        for eye in (identity(d), identity(d, q3)):
            assert all(type(x) is F for x in eye.flat) and (eye == np.eye(d)).all()
        # non-integral rationals with det != 1 over Q_3, and float entries over R:
        # g @ exact_inv(g) is the identity exactly, on the exact values of g's entries
        for _ in range(10):
            q = as_matrix([[random_rational(rng) for _ in range(d)] for _ in range(d)], q3)
            r = as_matrix([[rng.uniform(-5.0, 5.0) for _ in range(d)] for _ in range(d)], real_field)
            for g in (q, r):
                gi = exact_inv(g)
                exact = np.array([[F(x) for x in row] for row in g], dtype=object)
                assert exact_det(exact) not in (0, 1) and all(type(x) is F for x in gi.flat)
                assert (exact @ gi == identity(d)).all() and (gi @ exact == identity(d)).all()
        singular = as_matrix([[random_rational(rng) for _ in range(d)] for _ in range(d)], q3)
        singular[-1] = 2 * singular[0]
        with pytest.raises(DomainError, match="matrix is singular"):
            exact_inv(singular)
        with pytest.raises(DomainError, match="matrix is singular"):
            exact_inv(np.zeros((d, d)))


def test_adjugate_times_matrix_is_det(q3):
    rng = random.Random(12)
    for d in (2, 3, 4):
        for trial in range(60):
            a = np.array([[rng.randint(-50, 50) for _ in range(d)] for _ in range(d)], dtype=object)
            if trial % 6 == 0:  # singular: a repeated row
                a[d - 1] = a[0]
            adj = adjugate(a)
            det = exact_det(a)
            assert all(type(x) is int for x in adj.flat)
            scaled = np.array([[det if i == j else 0 for j in range(d)] for i in range(d)], dtype=object)
            assert (adj @ a == scaled).all() and (a @ adj == scaled).all()
        g = as_matrix(random_unimodular_int(rng, d), q3)
        assert (adjugate(g.astype(int)) == exact_inv(g)).all()  # det 1
    assert adjugate(np.array([[7]])).tolist() == [[1]]
    with pytest.raises(TypeError):
        adjugate(np.array([[F(1, 2), 0], [0, 2]], dtype=object))


def _leibniz_det(m):
    """Determinant as the signed sum over permutations, independent of any elimination."""
    d, total = len(m), 0
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(d))
    return total


def _low_rank(rng, d, rank, bits):
    """A d x d integer matrix of rank at most rank: a (d, rank) times a (rank, d) integer product."""
    left = [[rng.randint(-2**bits, 2**bits) for _ in range(rank)] for _ in range(d)]
    right = [[rng.randint(-2**bits, 2**bits) for _ in range(d)] for _ in range(rank)]
    return [[sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(d)] for i in range(d)]


def test_adjugate_is_the_cofactor_matrix():
    # adj @ a == det I holds for adj = 0 on every singular a; the cofactors pin adj itself
    rng = random.Random(23)
    for d in (1, 2, 3, 4, 5):
        for bits in (6, 70, 200):  # 70 and 200 bits: entries beyond 2**63, no float coercion
            cases = [([[rng.randint(-2**bits, 2**bits) for _ in range(d)] for _ in range(d)], d) for _ in range(3)]
            if d >= 2:  # rank d - 1 (adj of rank 1) and rank d - 2 (adj == 0; the zero matrix at d = 2)
                cases += [(_low_rank(rng, d, rank, bits // 2), rank) for rank in (d - 1, d - 2)]
            for a, rank in cases:
                want = [[(-1) ** (i + j) * _leibniz_det([r[:j] + r[j + 1:] for k, r in enumerate(a) if k != i])
                         for i in range(d)] for j in range(d)]
                adj = adjugate(np.array(a, dtype=object))
                assert adj.dtype == object and all(type(x) is int for x in adj.flat)
                assert adj.tolist() == want
                assert exact_det(np.array(a, dtype=object)) == _leibniz_det(a)
                assert any(adj.flat) == (rank >= d - 1)


def test_characteristic_polynomial_is_cayley_hamilton():
    from freewalk.walks import characteristic_polynomial

    rng = random.Random(29)
    for d in (1, 2, 3, 4, 5):
        for den in (1, 6):
            for bits in (5, 80):
                a = [[rng.randint(-2**bits, 2**bits) for _ in range(d)] for _ in range(d)]
                c = characteristic_polynomial(np.array(a, dtype=object), den)
                g = np.array([[F(x, den) for x in row] for row in a], dtype=object)
                assert len(c) == d + 1 and c[d] == 1 and all(type(x) is F for x in c)
                assert c[d - 1] == -F(sum(a[i][i] for i in range(d)), den)
                assert c[0] == (-1) ** d * F(_leibniz_det(a), den**d)
                total, power = np.zeros((d, d), dtype=object), identity(d)
                for ck in c:  # sum_k c_k g**k == 0 exactly
                    total, power = total + ck * power, power @ g
                assert not any(total.flat)


def test_normalize_representative(real_field, q3):
    v = normalize_representative(as_vector([-3, 4], real_field), real_field)
    assert v[0] > 0 and vector_norm(v, real_field) == pytest.approx(1.0)
    w = normalize_representative(as_vector([F(2, 9), F(5, 3)], q3), q3)
    # first nonzero coordinate a power of p, min valuation 0
    from freewalk.fields import valuation

    vals = [valuation(c, 3) for c in w if c != 0]
    assert min(vals) == 0
    lead = next(c for c in w if c != 0)
    assert lead.numerator in (1, 3, 9, 27) and lead.denominator == 1 or (
        lead.denominator in (3, 9, 27) and lead.numerator == 1
    )


def test_matrix_json_roundtrip(real_field, q3):
    for field, rows in ((real_field, [[0.5, 1.25], [-2.0, 1.0]]), (q3, [[F(1, 3), 2], [0, 3]])):
        m = as_matrix(rows, field)
        doc = matrix_to_json_dict(m, field)
        txt = json.dumps(doc)
        m2, field2 = matrix_from_json_dict(json.loads(txt))
        assert field2 == field
        assert (m2 == m).all()


def test_wedge_pairs_lexicographic():
    assert wedge_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
