import math
import random
from fractions import Fraction

import numpy as np
import pytest

from freewalk import (
    DomainError,
    FieldSpec,
    InvariantViolation,
    abs_value,
    as_matrix,
    iwasawa,
    kak,
    operator_norm,
    scaled_identity,
    scaled_multiply,
)
from freewalk.decompositions import (
    _normalize_scaled,
    scaled_log_norm,
    scaled_premultiply,
)
from freewalk.fields import valuation
from freewalk.linalg import exterior_square
from freewalk import corpus
from freewalk.walks import advance, new_walk_state

from conftest import is_isometry, random_unimodular_int, scaled_reconstruct

F = Fraction


def _check_kak(g, field, tol=1e-9):
    dec = kak(g, field)
    if field.is_archimedean:
        rec = dec.reconstruct(field)
        scale = max(1.0, float(np.max(np.abs(g))))
        assert float(np.max(np.abs(rec - g))) <= tol * scale
        assert is_isometry(dec.k, field) and is_isometry(dec.u, field)
        assert abs(np.linalg.det(dec.k) - 1) <= 1e-9
        assert all(dec.a[i] >= dec.a[i + 1] > 0 for i in range(len(dec.a) - 1))
        assert abs(dec.a[0] - operator_norm(g, field)) <= tol * dec.a[0]
    else:
        assert (dec.reconstruct(field) == g).all()
        assert is_isometry(dec.k, field) and is_isometry(dec.u, field)
        p = field.prime
        vals = [valuation(a, p) for a in dec.a]
        assert vals == sorted(vals)
        for a in dec.a:
            assert a.numerator == 1 and a.denominator == p ** (-valuation(a, p)) or (
                a.denominator == 1 and a.numerator == p ** valuation(a, p)
            )
        assert abs_value(dec.a[0], field) == operator_norm(g, field)
    return dec


def test_kak_identity(real_field, q3):
    for field in (real_field, q3):
        ident = as_matrix([[1, 0], [0, 1]], field)
        dec = _check_kak(ident, field)
        assert all(a == 1 for a in dec.a)


def test_kak_diagonal_examples(real_field, q2):
    dec = kak(as_matrix([[4, 0], [0, 0.25]], real_field), real_field)
    assert dec.a == pytest.approx((4.0, 0.25))
    assert np.allclose(np.abs(dec.k), np.eye(2)) and np.allclose(np.abs(dec.u), np.eye(2))

    decq = kak(as_matrix([[2, 0], [0, F(1, 2)]], q2), q2)
    assert decq.a == (F(1, 2), F(2))  # sorted by non-increasing p-adic absolute value
    perm = as_matrix([[0, 1], [1, 0]], q2)
    assert (decq.k == perm).all() and (decq.u == perm).all()


def test_kak_shear_singular_values(real_field):
    dec = kak(as_matrix([[1, 2], [0, 1]], real_field), real_field)
    assert dec.a[0] == pytest.approx(1 + math.sqrt(2), abs=1e-9)
    assert dec.a[1] == pytest.approx(math.sqrt(2) - 1, abs=1e-9)


def test_kak_rejects_non_unimodular(real_field, q2):
    with pytest.raises(InvariantViolation):
        kak(as_matrix([[2, 0], [0, 2]], real_field), real_field)
    with pytest.raises(InvariantViolation):
        kak(as_matrix([[2, 0], [0, 2]], q2), q2)


def test_padic_determinant_check_from_smith_pivots():
    # kak, iwasawa and pole_pair over Q_p check det g = 1 inside the Smith
    # elimination; det != 1 and singular g raise as the separate check did
    from freewalk.decompositions import _kak_padic
    from freewalk.linalg import exact_det
    from freewalk.pingpong import pole_pair

    def checks(g, field):
        yield lambda: kak(g, field)
        yield lambda: iwasawa(g, field)
        yield lambda: pole_pair([g], field)

    rng = random.Random(12)
    swaps = {2: [[0, 1], [-1, 0]], 3: [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}
    for p in (2, 3):
        field = FieldSpec.padic(p)
        bad = [[[p, 0], [0, 1]], [[0, 1], [1, 0]], [[F(1, p), 1], [0, 1]], [[-1, 0], [0, -1 + p]],
               [[1, 2], [2, 4]], [[0, 0], [0, 0]], [[p, 1, 0], [0, 1, 0], [p, 1, 0]]]
        for rows in bad:
            g = as_matrix(rows, field)
            for call in checks(g, field):
                with pytest.raises(InvariantViolation, match="matrix determinant is not 1"):
                    call()
        singular = as_matrix([[1, 2], [2, 4]], field)
        with pytest.raises(DomainError, match="singular"):
            pole_pair([singular], field, unimodular=False)
        # det 1 with row and column swaps, denominators and p-powers; and its negation
        for d in (2, 3):
            for _ in range(20):
                g = as_matrix(random_unimodular_int(rng, d), field) @ as_matrix(swaps[d], field)
                diag = [F(p) ** rng.randint(-3, 3) for _ in range(d - 1)]
                g = g @ as_matrix([[diag[i] if i == j else 0 for j in range(d)] for i in range(d - 1)]
                                  + [[0] * (d - 1) + [1 / np.prod(diag)]], field)
                assert exact_det(g) == 1
                for call in checks(g, field):
                    call()
                flip = g.copy()
                flip[0] = -flip[0]
                for call in checks(flip, field):
                    with pytest.raises(InvariantViolation):
                        call()
                assert _kak_padic(flip, field).reconstruct(field).tolist() == flip.tolist()


def test_kak_random_reconstruction(real_field, q2, q3):
    rng = random.Random(90)
    for d in (2, 3):
        for _ in range(150):
            rows = random_unimodular_int(rng, d)
            _check_kak(as_matrix(rows, real_field), real_field)
            _check_kak(as_matrix(rows, q2), q2)
            _check_kak(as_matrix(rows, q3), q3)


def test_kak_wedge_norm_identity(real_field, q3):
    # ||wedge^2 g|| = |a_1 a_2| in both fields
    rng = random.Random(91)
    for _ in range(60):
        rows = random_unimodular_int(rng, 3)
        g = as_matrix(rows, real_field)
        dec = kak(g, real_field)
        w = operator_norm(exterior_square(g), real_field)
        assert w == pytest.approx(dec.a[0] * dec.a[1], rel=1e-9)
        gq = as_matrix(rows, q3)
        decq = kak(gq, q3)
        assert operator_norm(exterior_square(gq), q3) == abs_value(
            decq.a[0], q3
        ) * abs_value(decq.a[1], q3)


def test_kak_inverse_reverses_a(real_field, q3):
    rng = random.Random(92)
    for _ in range(40):
        rows = random_unimodular_int(rng, 3)
        g = as_matrix(rows, real_field)
        a = kak(g, real_field).a
        a_inv = kak(np.linalg.inv(g), real_field).a
        for x, y in zip(a_inv, reversed(a)):
            assert x == pytest.approx(1.0 / y, rel=1e-8)
        gq = as_matrix(rows, q3)
        from freewalk.linalg import exact_inv

        aq = kak(gq, q3).a
        aq_inv = kak(exact_inv(gq), q3).a
        assert list(aq_inv) == [1 / y for y in reversed(aq)]


def test_iwasawa_examples(real_field, q3):
    for field in (real_field, q3):
        ident = as_matrix([[1, 0], [0, 1]], field)
        dec = iwasawa(ident, field)
        assert (np.asarray(dec.reconstruct(field)) == np.asarray(ident)).all()
        n = as_matrix([[1, 5], [0, 1]], field)
        decn = iwasawa(n, field)
        assert all(a == 1 for a in decn.a)
        assert (np.asarray(decn.n) == np.asarray(n)).all() or np.allclose(
            np.asarray(decn.n, dtype=float), [[1, 5], [0, 1]]
        )
    diag = as_matrix([[3, 0], [0, 1 / 3]], real_field)
    decd = iwasawa(diag, real_field)
    assert decd.a == pytest.approx((3.0, 1 / 3))
    assert np.allclose(decd.k, np.eye(2)) and np.allclose(decd.n, np.eye(2))


def test_iwasawa_random(real_field, q2):
    rng = random.Random(93)
    for d in (2, 3):
        for _ in range(60):
            rows = random_unimodular_int(rng, d)
            g = as_matrix(rows, real_field)
            dec = iwasawa(g, real_field)
            assert np.max(np.abs(dec.reconstruct(real_field) - g)) <= 1e-9 * max(
                1.0, float(np.max(np.abs(g)))
            )
            assert all(a > 0 for a in dec.a)
            assert np.allclose(np.tril(dec.n, -1), 0) and np.allclose(np.diag(dec.n), 1)
            gq = as_matrix(rows, q2)
            decq = iwasawa(gq, q2)
            assert (decq.reconstruct(q2) == gq).all()
            assert is_isometry(decq.k, q2)
            for i in range(d):
                assert decq.n[i, i] == 1
                for j in range(i):
                    assert decq.n[i, j] == 0


def test_kak_kan_ratio_bounded_along_trajectories(positive_measure):
    # A_n (KAN A_n)^{-1} stays in a compact set a.s.: the running max over
    # n in [101, 200] should rarely exceed twice the max over [1, 100].
    ok = 0
    trials = 200
    for traj in range(trials):
        state = new_walk_state(positive_measure, seed=424242, stream=traj)
        first = second = 0.0
        for n in range(1, 201):
            state = advance(state, positive_measure)
            unit = state.right_product.unit
            _, s, _ = np.linalg.svd(unit)
            q, r = np.linalg.qr(unit)
            anorm = np.abs(np.diag(r))
            m = max(s[i] / anorm[i] for i in range(2))
            if n <= 100:
                first = max(first, m)
            else:
                second = max(second, m)
        if second <= 2 * first:
            ok += 1
    assert ok >= 0.9 * trials


def test_scaled_multiply_examples(real_field, q2):
    sm = scaled_identity(2, real_field)
    sm = scaled_multiply(sm, as_matrix([[1, 0], [0, 1]], real_field), real_field)
    assert type(sm.scale) is int and sm.scale == 0
    # over R the scale is the power of two that puts the largest |entry| in [1, 2), and the division is exact
    raw = as_matrix([[100, 0], [0, 0.01]], real_field)
    sm2 = scaled_multiply(scaled_identity(2, real_field), raw, real_field)
    assert type(sm2.scale) is int and sm2.scale == 6
    assert np.array_equal(sm2.unit, raw / 64)

    smq = scaled_identity(2, q2)
    smq = scaled_multiply(smq, as_matrix([[2, 0], [0, F(1, 2)]], q2), q2)
    assert smq.scale == -1  # true = 2^-1 * unit
    assert (scaled_reconstruct(smq, q2) == as_matrix([[2, 0], [0, F(1, 2)]], q2)).all()


def test_scaled_fifty_steps_closed_form(real_field):
    g = as_matrix([[2, 0], [0, 0.5]], real_field)
    sm = scaled_identity(2, real_field)
    for _ in range(50):
        sm = scaled_multiply(sm, g, real_field)
    assert scaled_log_norm(sm, real_field) == pytest.approx(50 * math.log(2), abs=1e-8)


def test_scaled_premultiply_matches_product(q3):
    rng = random.Random(95)
    mats = [as_matrix(random_unimodular_int(rng, 2), q3) for _ in range(8)]
    sm = scaled_identity(2, q3)
    for m in mats:
        sm = scaled_premultiply(m, sm, q3)
    true = mats[-1]
    for m in reversed(mats[:-1]):
        true = true @ m
    assert (scaled_reconstruct(sm, q3) == true).all()


def _per_entry_normalize_scaled(raw, p):
    """The Q_p rule _normalize_scaled used before it read integer forms: one valuation per nonzero entry."""
    vals = [valuation(x, p) for x in raw.flat if x != 0]
    if not vals:
        raise DomainError("cannot scale the zero matrix")
    v = min(vals)
    return raw * Fraction(p) ** (-v), v


@pytest.mark.parametrize("p", (2, 3, 5))
def test_normalize_scaled_matches_per_entry_valuations(p):
    field, rng = FieldSpec.padic(p), random.Random(400 + p)

    def entry():
        if rng.random() < 0.3:
            return 0
        num = rng.choice((-1, 1)) * rng.randint(1, 10**6) * p ** rng.randint(0, 40)
        den = rng.randint(1, 10**3) * p ** rng.randint(0, 40)
        return num if rng.random() < 0.2 else F(num, den)

    for _ in range(400):
        d = rng.randint(1, 4)
        raw = np.array([[entry() for _ in range(d)] for _ in range(d)], dtype=object)
        if not raw.any():
            continue
        unit, v = _per_entry_normalize_scaled(raw, p)
        got = _normalize_scaled(raw, field)
        assert type(got.scale) is int and got.scale == v
        assert all(type(x) is Fraction for x in got.unit.flat) and got.unit.tolist() == unit.tolist()
    for d in (1, 2, 3):
        with pytest.raises(DomainError, match="cannot scale the zero matrix"):
            _normalize_scaled(np.array([[0] * d] * d, dtype=object), field)
    # floats are read exactly (the per-entry rule raised UsageError on them)
    half = np.array([[0.5, 0], [0, 2.0 * p]], dtype=object)
    unit, v = _per_entry_normalize_scaled(np.array([[F(0.5), 0], [0, F(2 * p)]], dtype=object), p)
    got = _normalize_scaled(half, field)
    assert (got.scale, got.unit.tolist()) == (v, unit.tolist())
