"""Stacked float geometry against the per-row functions it replaces, == row for row.

The estimators over R fold all their walks at once and score the whole
stack with stacked numpy calls.  Every check here compares with ``==``
(or ``np.array_equal``): the stacked row norm, normalisation and log
norms against :func:`vector_norm`, :func:`normalize_representative` and
:func:`scaled_log_norm`; the packed fold and the batched poles against
one unbatched computation per batch; the invariant probe's margins
against a :func:`dist_point_hyperplane` loop.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from freewalk import DomainError, FieldSpec, corpus, decompositions, estimators, linalg
from freewalk.decompositions import ScaledMatrix, scaled_log_norm
from freewalk.linalg import as_vector, dist_point_hyperplane, normalize_representative, vector_norm
from freewalk.pingpong import cross_margin_matrix
from freewalk.walks import make_measure, walk_indices, walk_products

R = FieldSpec.real()


def _random_rows(rng, rows: int, d: int) -> np.ndarray:
    """Gaussian rows scaled by e**U(-30, 30), some with a zero or negative leading coordinate."""
    x = rng.standard_normal((rows, d)) * np.exp(rng.uniform(-30, 30, (rows, 1)))
    x[::5, 0] = 0.0
    x[1::5, 0] = -np.abs(x[1::5, 0])
    x[2::10, :-1] = 0.0  # every coordinate zero but the last
    return x


@pytest.mark.parametrize("d", (2, 3))
def test_row_norms_equal_vector_norm(d):
    x = _random_rows(np.random.default_rng(d), 20000, d)
    got = linalg._row_norms(x)
    want = np.array([vector_norm(row, R) for row in x])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("d", (2, 3, 4, 5, 8))
def test_normalize_rows_equal_normalize_representative(d):
    rng = np.random.default_rng(10 + d)
    x = _random_rows(rng, 20000, d)
    assert np.array_equal(linalg._normalize_rows(x), np.array([normalize_representative(r, R) for r in x]))
    # columns and rows of an SVD stack, as frames reads them (strided and contiguous), each in both
    # layouts: from d = 4 on numpy sums the dot of strided entries in another order
    k, _, u = np.linalg.svd(rng.standard_normal((5000, d, d)) * np.exp(rng.uniform(-30, 30, (5000, 1, 1))))
    for got, rows in ((k[:, :, 0], [m[:, 0] for m in k]), (u[:, 0, :], [m[0, :] for m in u])):
        want = np.array([normalize_representative(r, R) for r in rows])
        assert np.array_equal(linalg._normalize_rows(got), want)
        assert np.array_equal(linalg._normalize_rows(got.copy()), want)
        assert np.array_equal(np.array([normalize_representative(r.copy(), R) for r in rows]), want)
    with pytest.raises(DomainError):
        linalg._normalize_rows(np.zeros((2, d)))


@pytest.mark.parametrize("d", (1, 2, 3))
def test_log_norms_equal_scaled_log_norm(d):
    rng = np.random.default_rng(20 + d)
    units = rng.standard_normal((5000, d, d)) * np.exp(rng.uniform(-30, 30, (5000, 1, 1)))
    if d > 1:
        units[::7, 0, 0] = 0.0
    products = [ScaledMatrix(unit, float(s)) for unit, s in zip(units, rng.uniform(-300, 300, 5000))]
    got = decompositions.log_norms(products, R)
    assert got == [scaled_log_norm(sm, R) for sm in products]
    assert all(type(x) is float for x in got)


def test_log_norms_padic_is_per_matrix():
    q3 = FieldSpec.padic(3)
    m = corpus.padic_contracting(3)
    products = walk_products(m.atoms, walk_indices(m, 12, 3, range(6)), q3)
    assert decompositions.log_norms(products, q3) == [scaled_log_norm(sm, q3) for sm in products]


def _same_products(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.scale == b.scale and type(a.scale) is type(b.scale)
        assert np.array_equal(a.unit, b.unit)


def _sequential_fold(table, idx, field, order):
    """Each row's product one scaled_multiply ("left") or scaled_premultiply ("right") step at a time."""
    out = []
    for row in idx.tolist():
        acc = decompositions.scaled_identity(np.asarray(table[0]).shape[0], field)
        for i in row:
            acc = (decompositions.scaled_multiply(acc, table[i], field) if order == "left"
                   else decompositions.scaled_premultiply(table[i], acc, field))
        out.append(acc)
    return out


def _left_fold(table, idx, field):
    """M_n = X_1 ... X_n of every row through estimators._fold, checked == against the sequential fold."""
    got = estimators._fold([(table, idx, "left")], field)[0]
    _same_products(got, _sequential_fold(table, idx, field, "left"))
    return got


_MEASURES = (corpus.positive_matrices, corpus.slow_contracting, corpus.sl3_integer)


def _padic_measures(p: int) -> tuple:
    """Two d = 2 measures over Q_p and sl3_integer's atoms over Q_p (d = 3)."""
    sl3 = corpus.sl3_integer()
    d3 = make_measure([a.tolist() for a in sl3.exact_atoms], sl3.probs, FieldSpec.padic(p))
    return corpus.padic_contracting(p), corpus.padic_diagonal_point_mass(p), d3


def _wedges(table) -> tuple:
    return tuple(map(linalg.exterior_square, table))


def test_fold_equals_one_walk_products_call_per_job(monkeypatch):
    # mixed lengths, both orders and several tables, over R, Q_2 and Q_3; three matrix sizes, the d = 3
    # atoms and their wedges in one 3 x 3 group, so one walk_products call per size
    for field, measures, steps in ((R, [make() for make in _MEASURES], (5, 40, 17, 1, 33)),
                                   *((FieldSpec.padic(p), _padic_measures(p), (5, 12, 9, 1, 10)) for p in (2, 3))):
        jobs = []
        for i, m in enumerate(measures):
            inv = tuple(np.linalg.inv(np.asarray(a, dtype=float)) if field == R else linalg.exact_inv(a)
                        for a in m.atoms)
            for n, order, table in zip(steps, ("right", "left", "left", "right", "left"),
                                       (m.atoms, inv, m.atoms, _wedges(inv), _wedges(m.atoms))):
                jobs.append((table, walk_indices(m, n, 100 + i, range(7 if field == R else 4)), order))
        calls = []
        monkeypatch.setattr(estimators, "walk_products",
                            lambda *a, **k: calls.append(a[0].shape) or walk_products(*a, **k))
        got = estimators._fold(jobs, field)
        monkeypatch.undo()
        assert sorted(shape[1] for shape in calls) == [1, 2, 3]
        for (table, idx, order), products in zip(jobs, got):
            _same_products(products, walk_products(table, idx, field) if order == "right"
                           else _sequential_fold(table, idx, field, order))


def _unbatched_poles(measure, idx):
    """One batch's poles by the Hodge recipe: one walk_products call per degree and per-row frames and norms."""
    d = measure.d
    powers = estimators._exterior_powers(measure, sorted({1, 2, d - 2, d - 1} - {0, d}))
    walks = {k: walk_products(table, idx, R) for k, table in powers.items()}
    hodge = estimators._hodge(d).astype(float)
    v, h, ratio = [], [], []
    for r in range(len(idx)):
        (k, _, u), (k_dual, _, u_dual) = (np.linalg.svd(walks[j][r].unit) for j in (1, d - 1))
        # the frames of S_n^{-1}: H applied to the normalised frames of wedge^{d-1} S_n, normalised again
        v_dual, h_dual = normalize_representative(k_dual[:, 0], R), normalize_representative(u_dual[0, :], R)
        v.append([normalize_representative(k[:, 0], R), normalize_representative(hodge @ h_dual, R)])
        h.append([normalize_representative(u[0, :], R), normalize_representative(hodge @ v_dual, R)])
        logs = {0: 0.0, d: 0.0, **{j: scaled_log_norm(walks[j][r], R) for j in walks}}
        ratio.append([math.exp(logs[2] - 2 * logs[1]), math.exp(logs[d - 2] - 2 * logs[d - 1])])
    return np.array(v), np.array(h), np.array(ratio)


@pytest.mark.parametrize("make", _MEASURES, ids=lambda f: f.__name__)
def test_batched_walk_poles_equal_one_call_per_batch(make):
    m = make()
    other = corpus.positive_matrices() if make is not corpus.positive_matrices else corpus.sanov()
    if other.d != m.d:
        other = m
    rows = [[walk_indices(m, 8, 5, range(0, 12, 2)), walk_indices(m, 30, 5, range(12, 15))],
            [walk_indices(other, 8, 5, range(1, 12, 2)), walk_indices(other, 3, 5, range(15, 20))]]
    # the flat result holds the blocks in row order: m's two index arrays, then other's
    batches = [(measure, idx) for measure, idxs in zip((m, other), rows) for idx in idxs]
    got = estimators._walk_poles([m, other], rows)
    starts = np.cumsum([0] + [len(idx) for _, idx in batches])
    assert [len(a) for a in got] == [starts[-1]] * 3
    for (measure, idx), lo, hi in zip(batches, starts, starts[1:]):
        alone = estimators._walk_poles([measure], [[idx]])
        want = _unbatched_poles(measure, idx)
        for a, b, c in zip((x[lo:hi] for x in got), alone, want):
            assert a.shape == c.shape == (len(idx),) + c.shape[1:]
            assert np.array_equal(a, b) and np.array_equal(a, c)


@pytest.mark.parametrize("field", (R, FieldSpec.padic(3)), ids=("R", "Q3"))
def test_invariant_margins_equal_dist_point_hyperplane_loop(field):
    if field.is_archimedean:
        m, planes = corpus.positive_matrices(), [[1, 0], [0, 1], [1, -1], [-2, 3]]
    else:
        m, planes = corpus.padic_contracting(3), [[0, 1], [1, -1], [Fraction(1, 3), 9]]
    n, reps, t = 12, 40, 0.8
    covs = [as_vector(f, field) for f in planes]
    x0 = as_vector([1, 0], field)
    lefts = _left_fold(m.atoms, walk_indices(m, n, 9, range(reps)), field)
    loop = [[dist_point_hyperplane(left.unit @ x0, f, field) for f in covs] for left in lefts]
    directions = np.array([left.unit[:, 0] for left in lefts])
    margins = cross_margin_matrix(directions[None], np.array(covs)[None], field)[0]
    assert margins.shape == (reps, len(covs))
    assert margins.tolist() == loop
    if not field.is_archimedean:
        assert all(type(x) is Fraction for x in margins.flat)
    res = estimators.invariant_measure_probe(m, n, reps, planes, t, seed=9)
    counts = [sum(row[i] <= t**n for row in loop) for i in range(len(covs))]
    assert res.fractions == tuple(c / reps for c in counts)
    assert 0 < sum(counts) < reps * len(covs)


def test_fold_of_one_by_one_jobs_equals_sequential_fold():
    # 1x1 tables of non-unit, negative entries over e**+-30, padded at the start by the identity
    rng = np.random.default_rng(61)
    tables = [rng.choice([-1.0, 1.0], (5, 1, 1)) * np.exp(rng.uniform(-30, 30, (5, 1, 1))) for _ in range(3)]
    jobs = [(tables[0], rng.integers(0, 5, (6, 3)), "right"), (tables[1], rng.integers(0, 5, (4, 50)), "left"),
            (tables[2], rng.integers(0, 5, (5, 17)), "left"), (tables[0], rng.integers(0, 5, (2, 0)), "right")]
    got = estimators._fold(jobs, R)
    for (table, idx, order), products in zip(jobs, got):
        _same_products(products, _sequential_fold(table, idx, R, order))
        if order == "right":
            _same_products(products, walk_products(table, idx, R))


@pytest.mark.parametrize("d", (2, 3))
def test_holder_rows_equal_evaluate(d):
    rng = np.random.default_rng(70 + d)
    xs = _random_rows(rng, 4000, d)
    refs = [rng.standard_normal(d) * math.exp(rng.uniform(-30, 30)), np.eye(d)[0], -np.eye(d)[d - 1]]
    xs[3::50] = refs[1] * rng.uniform(-5, 5)  # parallel to a reference: a zero wedge
    for kind in estimators.HOLDER_KINDS:
        for ref, exponent in zip(refs, (1.0, 0.5, 0.25)):
            phi = estimators.holder_function(kind, ref.tolist(), R, exponent)
            got = phi._evaluate_rows(xs)
            assert all(type(x) is float for x in got)
            assert got == [phi.evaluate(x) for x in xs]
        with pytest.raises(DomainError):
            estimators.holder_function(kind, [0.0] * d, R)._evaluate_rows(xs)
