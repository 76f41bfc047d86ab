"""The Q_p Smith form, poles, margins and metrics against Fraction references.

The references below are the Fraction elimination, pole, determinant and
metric code the integer paths replaced, kept here verbatim in substance:
every value the integer paths return must be ``==`` to theirs and of the
same Python type.  The pinned literals are the decompositions of the
``exact`` benchmark workload's first random SL_d(Z) matrices at seed 1.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from freewalk import FieldSpec, as_matrix, as_vector, dist_point_hyperplane, fubini_study, iwasawa, kak
from freewalk.decompositions import _iwasawa_padic, _kak_padic
from freewalk.estimators import _exact_delta
from freewalk.fields import abs_value
from freewalk.linalg import adjugate, exact_det, normalize_representative, vector_norm
from freewalk.pingpong import cross_margin_matrix, pole_pair

F = Fraction
PRIMES = (2, 3, 5)


# ---------------------------------------------------------------------------
# Fraction references
# ---------------------------------------------------------------------------


def _ref_valuation(x, p):
    x = F(x)
    if x == 0:
        return float("inf")
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _ref_abs(x, p):
    if x == 0:
        return F(0)
    v = _ref_valuation(x, p)
    return F(1, p**v) if v >= 0 else F(p ** (-v))


def _ref_norm(x, p):
    return max(_ref_abs(c, p) for c in x)


def _ref_dist(x, f, p):
    return _ref_abs(sum(fi * xi for fi, xi in zip(f, x)), p) / (_ref_norm(f, p) * _ref_norm(x, p))


def _ref_fubini_study(x, y, p):
    d = len(x)
    w = [x[i] * y[j] - x[j] * y[i] for i in range(d) for j in range(i + 1, d)]
    if all(c == 0 for c in w):
        return F(0)
    return _ref_norm(w, p) / (_ref_norm(x, p) * _ref_norm(y, p))


def _ref_normalize(x, p):
    lead = next(F(c) for c in x if c != 0)
    scaled = [F(c) / lead for c in x]
    m = min(_ref_valuation(c, p) for c in scaled if c != 0)
    factor = F(p) ** (-m)
    return np.array([c * factor for c in scaled], dtype=object)


def _ref_identity(d):
    return np.array([[F(int(i == j)) for j in range(d)] for i in range(d)], dtype=object)


def _ref_det(m):
    a = [[F(x) for x in row] for row in m]
    d = len(a)
    det = F(1)
    for c in range(d):
        piv = next((r for r in range(c, d) if a[r][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, d):
            if a[r][c] != 0:
                f = a[r][c] * inv
                for k in range(c, d):
                    a[r][k] -= f * a[c][k]
    return det


def _ref_kak(g, p):
    """k, a, u, v, h of the Fraction Smith elimination."""
    d = g.shape[0]
    m = np.array([[F(x) for x in row] for row in g], dtype=object)
    k, u = _ref_identity(d), _ref_identity(d)
    for t in range(d):
        best = best_val = None
        for i in range(t, d):
            for j in range(t, d):
                if m[i, j] != 0 and (best_val is None or _ref_valuation(m[i, j], p) < best_val):
                    best_val, best = _ref_valuation(m[i, j], p), (i, j)
        pi, pj = best
        if pi != t:
            m[[t, pi], :] = m[[pi, t], :]
            k[:, [t, pi]] = k[:, [pi, t]]
        if pj != t:
            m[:, [t, pj]] = m[:, [pj, t]]
            u[[t, pj], :] = u[[pj, t], :]
        piv = m[t, t]
        for r in range(t + 1, d):
            if m[r, t] != 0:
                c = m[r, t] / piv
                m[r, :] = m[r, :] - c * m[t, :]
                k[:, t] = k[:, t] + c * k[:, r]
        for s in range(t + 1, d):
            if m[t, s] != 0:
                c = m[t, s] / piv
                m[:, s] = m[:, s] - c * m[:, t]
                u[t, :] = u[t, :] + c * u[s, :]
    vals = [_ref_valuation(m[i, i], p) for i in range(d)]
    assert vals == sorted(vals)
    a = tuple(F(p) ** v for v in vals)
    for i in range(d):
        u[i, :] = (m[i, i] / a[i]) * u[i, :]
    return k, a, u, _ref_normalize(k[:, 0], p), _ref_normalize(u[0, :], p)


def _ref_iwasawa(g, p):
    """k, a, n of the Fraction row elimination."""
    d = g.shape[0]
    m = np.array([[F(x) for x in row] for row in g], dtype=object)
    k = _ref_identity(d)
    for c in range(d):
        rows = [r for r in range(c, d) if m[r, c] != 0]
        piv_row = min(rows, key=lambda r: (_ref_valuation(m[r, c], p), r))
        if piv_row != c:
            m[[c, piv_row], :] = m[[piv_row, c], :]
            k[:, [c, piv_row]] = k[:, [piv_row, c]]
        for r in range(c + 1, d):
            if m[r, c] != 0:
                coef = m[r, c] / m[c, c]
                m[r, :] = m[r, :] - coef * m[c, :]
                k[:, c] = k[:, c] + coef * k[:, r]
    a = tuple(F(p) ** _ref_valuation(m[i, i], p) for i in range(d))
    n = _ref_identity(d)
    for i in range(d):
        k[:, i] = k[:, i] * (m[i, i] / a[i])
        n[i, :] = m[i, :] / m[i, i]
    return k, a, n


def _ref_integer(m):
    den = math.lcm(*(F(x).denominator for x in np.ravel(m)))
    return np.array([[int(F(x) * den) for x in row] for row in m], dtype=object)


def _ref_pole_pair(gs, p):
    v, h, ratio = [], [], []
    for g in gs:
        k, a, u, v0, h0 = _ref_kak(g, p)
        d = g.shape[0]
        u_inv, k_inv = adjugate(_ref_integer(u)), adjugate(_ref_integer(k))
        a = [_ref_abs(x, p) for x in a]
        v.append([v0, _ref_normalize(u_inv[:, d - 1], p)])
        h.append([h0, _ref_normalize(k_inv[d - 1, :], p)])
        ratio.append([a[1] / a[0], a[d - 1] / a[d - 2]])
    return np.array(v), np.array(h), np.array(ratio)


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------


def _rational(rng, p, big=False):
    if rng.random() < 0.2:
        return F(0)
    if big:
        num = rng.choice((-1, 1)) * rng.randint(2**63, 2**70)
    else:
        num = rng.randint(-30, 30)
    return F(num, rng.randint(1, 30)) * F(p) ** rng.randint(-3, 3)


def _invertible(rng, d, p, big=False):
    """Any invertible rational matrix: denominators, negative valuations, det != 1."""
    while True:
        g = np.array([[_rational(rng, p, big) for _ in range(d)] for _ in range(d)], dtype=object)
        if _ref_det(g) != 0:
            return g


def _unimodular(rng, d, p, big=False):
    """Determinant-1 rational matrix from shears and p-power diagonals."""
    g = _ref_identity(d)
    for _ in range(3 * d):
        i, j = rng.sample(range(d), 2)
        e = _ref_identity(d)
        if rng.random() < 0.3:
            s = rng.randint(1, 3)
            e[i, i], e[j, j] = F(p) ** s, F(p) ** -s
        else:
            e[i, j] = _rational(rng, p, big) or F(1)
        g = g @ e
    return g


def _cases():
    rng = random.Random(1010)
    for d in (2, 3, 4):
        for p in PRIMES:
            for i in range(120):
                kind = ("invertible", "unimodular")[i % 2]
                big = i % 6 >= 4  # a third of the matrices have entries above 2**63
                make = _invertible if kind == "invertible" else _unimodular
                yield d, p, kind == "unimodular", make(rng, d, p, big)


CASES = list(_cases())


def _same(x, y):
    """Equal shapes, and entry for entry equal values of the same Python type."""
    xs, ys = np.asarray(x, dtype=object), np.asarray(y, dtype=object)
    assert xs.shape == ys.shape
    for a, b in zip(xs.ravel(), ys.ravel()):
        assert type(a) is type(b) and a == b, (a, b)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_random_cases_cover_the_required_inputs():
    assert len(CASES) >= 1000
    assert {(d, p) for d, p, _, _ in CASES} == {(d, p) for d in (2, 3, 4) for p in PRIMES}
    entries = [x for *_, g in CASES for x in g.ravel()]
    assert any(abs(x) >= 2**63 for x in entries)
    assert any(x.denominator % p == 0 for (_, p, _, g) in CASES for x in g.ravel())
    assert any(_ref_det(g) != 1 for *_, g in CASES)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_kak_matches_fraction_reference(d):
    for dd, p, unimodular, g in CASES:
        if dd != d:
            continue
        field = FieldSpec.padic(p)
        dec = _kak_padic(g, field, unimodular)
        k, a, u, v, h = _ref_kak(g, p)
        for got, want in ((dec.k, k), (dec.a, a), (dec.u, u), (dec.v, v), (dec.h, h)):
            _same(got, want)
        pv, ph, _ = pole_pair([g], field, unimodular=False)
        _same(pv[0, 0], v)
        _same(ph[0, 0], h)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_iwasawa_matches_fraction_reference(d):
    for dd, p, unimodular, g in CASES:
        if dd != d:
            continue
        field = FieldSpec.padic(p)
        dec = iwasawa(g, field) if unimodular else _iwasawa_padic(g, field)
        k, a, n = _ref_iwasawa(g, p)
        for got, want in ((dec.k, k), (dec.a, a), (dec.n, n)):
            _same(got, want)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_pole_pair_matches_fraction_reference(d):
    for p in PRIMES:
        field = FieldSpec.padic(p)
        for unimodular in (False, True):
            gs = [g for dd, q, uni, g in CASES if dd == d and q == p and uni == unimodular]
            got = pole_pair(gs, field, unimodular=unimodular)
            for x, y in zip(got, _ref_pole_pair(gs, p)):
                _same(x, y)


@pytest.mark.parametrize("p", PRIMES)
def test_cross_margin_matrix_matches_dist_point_hyperplane(p):
    field = FieldSpec.padic(p)
    rng = random.Random(2020 + p)
    for d in (2, 3, 4):
        gs = [g for dd, q, _, g in CASES if dd == d and q == p][:20]
        v, h, _ = pole_pair(gs, field, unimodular=False)
        v, h = v.reshape(-1, 4, d), h.reshape(-1, 4, d)  # normalised: tuples of two matrices
        raw_v = np.array([[[_rational(rng, p) or F(1) for _ in range(d)] for _ in range(3)] for _ in range(8)])
        raw_h = np.array([[[_rational(rng, p, big=True) or F(1) for _ in range(d)] for _ in range(3)] for _ in range(8)])
        raw_h[0, 0] = [-raw_v[0, 1, 1], raw_v[0, 1, 0]] + [F(0)] * (d - 2)  # h_0 . v_1 == 0
        for vs, hs in ((v, h), (raw_v, raw_h)):
            margins = cross_margin_matrix(vs, hs, field)
            assert margins.shape == vs.shape[:-1] + vs.shape[-2:-1]
            for b in range(vs.shape[0]):
                for i in range(vs.shape[1]):
                    for j in range(vs.shape[1]):
                        want = _ref_dist(vs[b, i], hs[b, j], p)
                        _same([margins[b, i, j]], [want])
                        _same([dist_point_hyperplane(vs[b, i], hs[b, j], field)], [want])
        _same([cross_margin_matrix(raw_v, raw_h, field)[0, 1, 0]], [F(0)])


@pytest.mark.parametrize("p", PRIMES)
def test_scalar_metrics_match_fraction_reference(p):
    field = FieldSpec.padic(p)
    rng = random.Random(3030 + p)
    for _ in range(300):
        d = rng.randint(2, 4)
        big = rng.random() < 0.3
        x = [_rational(rng, p, big) for _ in range(d)]
        y = [_rational(rng, p) for _ in range(d)]
        if rng.random() < 0.3:
            x = [c.numerator for c in x]  # plain ints
        if all(c == 0 for c in x) or all(c == 0 for c in y):
            continue
        for c in x:
            _same([abs_value(c, field)], [_ref_abs(c, p)])
        xv, yv = np.array(x, dtype=object), as_vector(y, field)
        _same([vector_norm(xv, field)], [_ref_norm(x, p)])
        _same([dist_point_hyperplane(xv, yv, field)], [_ref_dist(x, y, p)])
        _same([fubini_study(xv, yv, field)], [_ref_fubini_study(x, y, p)])
        _same([fubini_study(xv, 3 * xv, field)], [F(0)])
        _same(normalize_representative(xv, field), _ref_normalize(x, p))
    _same([vector_norm(as_vector([0, 0], field), field)], [F(0)])


@pytest.mark.parametrize("p", PRIMES)
def test_exact_delta_matches_fraction_reference(p):
    # exact replay scores integer direction rows; delta**2 keeps its relative precision far below 1e-16
    field = FieldSpec.padic(p)
    rng = random.Random(5050 + p)
    for _ in range(200):
        d = rng.randint(2, 4)
        x = [rng.randint(-(10**30), 10**30) * p ** rng.randint(0, 40) for _ in range(d)]
        y = [rng.randint(-9, 9) for _ in range(d)]
        if rng.random() < 0.5:  # nearly parallel to x
            y = [c * p ** rng.randint(20, 60) + e for c, e in zip(x, y)]
        if not any(x) or not any(y):
            continue
        sq = _ref_fubini_study(x, y, p) ** 2
        want = 0.0 if sq == 0 else math.exp(0.5 * (math.log(sq.numerator) - math.log(sq.denominator)))
        assert _exact_delta(np.array(x, dtype=object), np.array(y, dtype=object), field) == want
    assert _exact_delta([p, 1], [2 * p, 2], field) == 0.0


def test_exact_det_matches_reference_elimination():
    rng = random.Random(4040)
    for d, p, _, g in CASES[::3]:
        _same([exact_det(g)], [_ref_det(g)])
    singular = np.array([[F(1, 3), F(2)], [F(1, 6), F(1)]], dtype=object)
    _same([exact_det(singular)], [F(0)])
    ints = np.array([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)], dtype=object)
    _same([exact_det(ints)], [_ref_det(ints)])
    _same([exact_det(np.array([[2.5, 1.0], [0.25, 3.0]]))], [F(1, 1) * F(29, 4)])


def _m(rows):
    return np.array([[F(x) for x in row] for row in rows], dtype=object)


# (matrix, prime, kak k, a, u, v, h, iwasawa k, a, n), entries row-major
PINNED = [
    ([[-1, -7], [2, 13]], 2,
     "1 0 -2 1", "1 1", "-1 -7 0 -1", "1 -2", "1 7", "-1 0 2 -1", "1 1", "1 7 0 1"),
    ([[-1, -7], [2, 13]], 3,
     "1 0 -2 1", "1 1", "-1 -7 0 -1", "1 -2", "1 7", "-1 0 2 -1", "1 1", "1 7 0 1"),
    ([[1, -4], [4, -15]], 2,
     "1 0 4 1", "1 1", "1 -4 0 1", "1 4", "1 -4", "1 0 4 1", "1 1", "1 -4 0 1"),
    ([[1, -4], [4, -15]], 3,
     "1 0 4 1", "1 1", "1 -4 0 1", "1 4", "1 -4", "1 0 4 1", "1 1", "1 -4 0 1"),
    ([[1, -9, -12], [1, 13, 17], [0, 3, 4]], 2,
     "1 0 0 1 1 0 0 4/29 1", "1 1 1", "1 -9 -12 0 22 29 0 -1/29 0", "1 1 0", "1 -9 -12",
     "1 0 0 1 22 -1/3 0 3 0", "1 1 1", "1 -9 -12 0 1 4/3 0 0 1"),
    ([[1, -9, -12], [1, 13, 17], [0, 3, 4]], 3,
     "1 0 0 1 1 0 0 3/22 1", "1 1 1", "1 -9 -12 0 22 29 0 0 1/22", "1 1 0", "1 -9 -12",
     "1 0 0 1 22 0 0 3 1/22", "1 1 1", "1 -9 -12 0 1 29/22 0 0 1"),
    ([[5, -4, -2], [-9, 7, 3], [-2, 2, 1]], 2,
     "1 0 0 -9/5 1 0 -2/5 -2 1", "1 1 1", "5 -4 -2 0 -1/5 -3/5 0 0 -1", "1 -9/5 -2/5", "1 -4/5 -2/5",
     "5 0 0 -9 -1/5 0 -2 2/5 -1", "1 1 1", "1 -4/5 -2/5 0 1 3 0 0 1"),
    ([[5, -4, -2], [-9, 7, 3], [-2, 2, 1]], 3,
     "1 0 0 -9/5 1 0 -2/5 -2 1", "1 1 1", "5 -4 -2 0 -1/5 -3/5 0 0 -1", "1 -9/5 -2/5", "1 -4/5 -2/5",
     "5 0 0 -9 -1/5 0 -2 2/5 -1", "1 1 1", "1 -4/5 -2/5 0 1 3 0 0 1"),
    # A A B for the Q_2 contracting atoms A = [[1/2, 1], [0, 2]], B = [[1/2, 0], [1, 2]]
    ([[F(21, 8), 5], [4, 8]], 2,
     "1 0 32/21 1", "1/8 8", "21 40 0 1/21", "1 32/21", "1 40/21", "21 0 32 1/21", "1/8 8", "1 40/21 0 1"),
]


@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"d{len(c[0])}-Q{c[1]}")
def test_pinned_workload_decompositions(case):
    rows, p, *want = case
    field = FieldSpec.padic(p)
    g = as_matrix(rows, field)
    dec, iw = kak(g, field), iwasawa(g, field)
    got = (dec.k, dec.a, dec.u, dec.v, dec.h, iw.k, iw.a, iw.n)
    for x, text in zip(got, want):
        _same(np.ravel(np.asarray(x, dtype=object)), [F(s) for s in text.split()])
