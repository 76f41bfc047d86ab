import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from freewalk import (
    FieldSpec,
    InvariantViolation,
    advance,
    make_measure,
    make_stream,
    new_walk_state,
    run_walk,
)
from freewalk import corpus, estimators, walks
from freewalk.decompositions import (
    log_norms,
    scaled_identity,
    scaled_log_norm,
    scaled_multiply,
    scaled_premultiply,
)
from freewalk.errors import ConfigError, DomainError, UsageError
from freewalk.linalg import _integer_form, exact_det, exact_inv, exterior_square, identity
from freewalk.walks import (
    _sample_index,
    exact_product,
    find_proximal_element,
    integer_products,
    load_measure,
    measure_from_json_dict,
    sample_increment_indices,
    walk_indices,
    walk_products,
)

from conftest import random_unimodular_int, scaled_reconstruct

F = Fraction


def test_measure_validation(real_field, q2):
    with pytest.raises(InvariantViolation):
        make_measure([[[1, 0], [0, 1]]], [F(1, 2)], real_field)  # probs sum != 1
    with pytest.raises(InvariantViolation):
        make_measure([[[2, 0], [0, 1]]], [F(1)], real_field)  # det != 1
    with pytest.raises(InvariantViolation):
        make_measure([[[2, 0], [0, F(1, 3)]]], [F(1)], q2)
    with pytest.raises(InvariantViolation):
        make_measure(
            [[[1, 0], [0, 1]], [[1, 1], [0, 1]]], [F(3, 2), F(-1, 2)], real_field
        )  # negative prob
    for bad in (math.inf, math.nan):  # checked before any exact atom is built
        with pytest.raises(InvariantViolation), np.errstate(invalid="ignore"):
            make_measure([[[1, 0], [0, bad]]], [F(1)], real_field)


def test_measure_atoms_share_one_dimension(real_field):
    with pytest.raises(InvariantViolation):
        make_measure([[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]], [F(1, 2), F(1, 2)], real_field)


def test_rational_measure_file_read_exactly(tmp_path):
    # the rotations by arccos(3/5) about the z and x axes, and their inverses
    a = [[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, 1]]
    b = [[1, 0, 0], [0, F(3, 5), F(-4, 5)], [0, F(4, 5), F(3, 5)]]
    rows = [a, [list(c) for c in zip(*a)], b, [list(c) for c in zip(*b)]]
    path = tmp_path / "rotations.json"
    path.write_text(json.dumps({"field": {"kind": "archimedean"}, "d": 3, "probs": ["1/4"] * 4,
                                "atoms": [[str(F(x)) for row in m for x in row] for m in rows]}))
    m = load_measure(path)
    for atom, exact, want in zip(m.atoms, m.exact_atoms, rows):
        assert exact.tolist() == want and all(type(x) is Fraction for x in exact.flat)
        assert atom.dtype == float and atom.tolist() == [[float(F(x)) for x in row] for row in want]
    for x in m.exact_atoms[::2]:
        assert (x @ x.T == identity(3)).all()
    assert (m.exact_atoms[0] @ m.exact_atoms[1] == identity(3)).all()
    q = corpus.padic_contracting(3)
    assert q.atoms is q.exact_atoms


def test_measure_rejects_scalars_too_long_to_write():
    # 1e4300 passes the exponent cap, but str() of its 4301-digit numerator, which
    # canonical_hash and every writer take, raises ValueError
    doc = {"field": {"kind": "nonarchimedean", "prime": 3}, "d": 2, "probs": ["1"],
           "atoms": [["1e4300", "0", "0", "1e-4300"]]}
    with pytest.raises(ConfigError, match="more than 4300 digits"):
        measure_from_json_dict(doc)
    doc["atoms"] = [["1e4299", "0", "0", "1e-4299"]]
    assert len(measure_from_json_dict(doc).canonical_hash()) == 64


def test_measure_json_roundtrip_and_hash(positive_measure):
    doc = positive_measure.to_json_dict()
    again = measure_from_json_dict(json.loads(json.dumps(doc)))
    assert again.to_json_dict() == doc
    assert again.canonical_hash() == positive_measure.canonical_hash()


def test_load_measure_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_measure(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_measure(bad)
    malformed = tmp_path / "m.json"
    malformed.write_text(json.dumps({"field": {"kind": "archimedean"}, "d": 2, "atoms": [["1"]], "probs": ["1"]}))
    with pytest.raises(ConfigError):
        load_measure(malformed)


def test_point_mass_sampling(real_field):
    m = corpus.diagonal_point_mass()
    assert sample_increment_indices(m, 10, seed=1, stream=0).tolist() == [0] * 10


def test_sampling_frequencies_3sigma(real_field):
    m = corpus.positive_matrices()
    idx = sample_increment_indices(m, 100000, seed=7, stream=0)
    freq = sum(idx) / len(idx)
    sigma = math.sqrt(0.25 / len(idx))
    assert abs(freq - 0.5) <= 3 * sigma

    m2 = make_measure(
        [[[1, 0], [0, 1]], [[1, 1], [0, 1]]], [F(1, 3), F(2, 3)], m.field
    )
    idx2 = sample_increment_indices(m2, 300000, seed=7, stream=1)
    freq2 = sum(idx2) / len(idx2)
    sigma2 = math.sqrt(F(1, 3) * F(2, 3) / len(idx2))
    assert abs(freq2 - 2 / 3) <= 3 * sigma2


def test_walk_determinism(sanov_measure):
    a = run_walk(sanov_measure, 25, seed=11, stream=3)
    b = run_walk(sanov_measure, 25, seed=11, stream=3)
    assert a.increments == b.increments
    assert a.left_product.scale == b.left_product.scale
    assert (a.left_product.unit == b.left_product.unit).all()
    c = run_walk(sanov_measure, 25, seed=11, stream=4)
    assert c.increments != a.increments


def test_advance_matches_run_walk(sanov_measure):
    state = new_walk_state(sanov_measure, 42, 7)
    for _ in range(12):
        state = advance(state, sanov_measure)
    snap = run_walk(sanov_measure, 12, 42, 7)
    assert state.step == snap.step == 12
    assert state.increments == snap.increments
    assert (state.right_product.unit == snap.right_product.unit).all()
    assert state.left_product.scale == snap.left_product.scale


def test_point_mass_walk_is_power(real_field):
    m = corpus.diagonal_point_mass()
    st = run_walk(m, 5, seed=0, stream=0)
    expect = np.diag([2.0**5, 2.0**-5])
    assert np.allclose(scaled_reconstruct(st.left_product, real_field), expect)
    assert np.allclose(scaled_reconstruct(st.right_product, real_field), expect)
    assert st.increments == (0,) * 5


def test_scaled_matches_exact_replay(sanov_measure, q3):
    # for n <= 30 and integer atoms the scaled representation matches the
    # directly recomputed product (relative 1e-8 real, exact p-adic)
    st = run_walk(sanov_measure, 30, seed=5, stream=2)
    exact_m = exact_product(sanov_measure, st.increments[::-1])
    exact_s = exact_product(sanov_measure, st.increments)
    rec_m = scaled_reconstruct(st.left_product, sanov_measure.field)
    rec_s = scaled_reconstruct(st.right_product, sanov_measure.field)
    scale = float(max(abs(Fraction(x)) for x in exact_m.flat))
    assert np.max(np.abs(rec_m - np.array(exact_m, dtype=float))) <= 1e-8 * scale
    scale_s = float(max(abs(Fraction(x)) for x in exact_s.flat))
    assert np.max(np.abs(rec_s - np.array(exact_s, dtype=float))) <= 1e-8 * scale_s

    mq = corpus.padic_contracting(3)
    stq = run_walk(mq, 30, seed=5, stream=2)
    assert (scaled_reconstruct(stq.left_product, mq.field) == exact_product(mq, stq.increments[::-1])).all()
    assert (scaled_reconstruct(stq.right_product, mq.field) == exact_product(mq, stq.increments)).all()


def test_reversed_walk_law_ks(positive_measure):
    # log||M_n|| and log||S_n|| share one law; two-sample KS on disjoint
    # streams must stay below the 1% critical value
    n, reps = 20, 10000
    field = positive_measure.field
    left_idx = walk_indices(positive_measure, n, 31, range(reps))
    lefts = _products(positive_measure.atoms, left_idx, field, "left")
    for row, got in zip(left_idx[:20].tolist(), lefts):
        want = _fold(positive_measure.atoms, row, field, True)
        assert np.array_equal(got.unit, want.unit) and got.scale == want.scale
    rights = walk_products(positive_measure.atoms,
                           walk_indices(positive_measure, n, 31, range(reps, 2 * reps)), field)
    xs = sorted(scaled_log_norm(m, field) for m in lefts)
    ys = sorted(scaled_log_norm(s, field) for s in rights)
    # two-sample KS statistic by merge
    i = j = 0
    d = 0.0
    while i < len(xs) and j < len(ys):
        if xs[i] <= ys[j]:
            i += 1
        else:
            j += 1
        d = max(d, abs(i / len(xs) - j / len(ys)))
    critical = 1.628 * math.sqrt(2 / reps)  # alpha = 0.01
    assert d <= critical


def test_proximal_probe():
    from freewalk.walks import find_proximal_element

    assert find_proximal_element(corpus.positive_matrices(), seed=1) is not None
    assert find_proximal_element(corpus.sanov(), seed=1) is not None
    assert find_proximal_element(corpus.padic_contracting(3), seed=1) is not None
    # isometry supports admit no proximal element at all
    assert find_proximal_element(corpus.rotation_point_mass(), seed=1) is None
    assert find_proximal_element(corpus.padic_isometry_point_mass(3), seed=1) is None


def test_repeated_maximal_roots_are_not_proximal(real_field):
    from freewalk.walks import _unique_max_modulus_root, characteristic_polynomial

    def proximal(rows):
        return _unique_max_modulus_root(characteristic_polynomial(np.array(rows, dtype=object)), real_field)

    # np.roots spreads a triple root 1 over moduli further apart than the 1e-9 criterion
    jordan = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    for rows in (np.eye(2, dtype=int).tolist(), np.eye(3, dtype=int).tolist(), np.eye(4, dtype=int).tolist(), jordan):
        assert not proximal(rows)
    # a repeated root below a simple top root leaves the top proximal; a repeated top root does not
    assert proximal([[4, 0, 0], [0, 1, 1], [0, 0, 1]]) and proximal([[2, 1], [1, 1]])
    assert not proximal([[3, 1, 0], [0, 3, 0], [0, 0, 1]]) and not proximal([[-2, 0, 0], [0, -2, 0], [0, 0, 1]])
    # A * A^-1 * A * A^-1 is the identity: the compact rotation group has no proximal element
    a = [[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, 1]]
    b = [[1, 0, 0], [0, F(3, 5), F(-4, 5)], [0, F(4, 5), F(3, 5)]]
    rotations = make_measure([a, [list(c) for c in zip(*a)], b, [list(c) for c in zip(*b)]], [F(1, 4)] * 4, real_field)
    assert find_proximal_element(rotations, seed=1) is None


def test_characteristic_polynomial_exact():
    from freewalk.walks import characteristic_polynomial

    m = np.array([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    coeffs = characteristic_polynomial(m)  # (x-1)(x^2-3x+1) = x^3 -4x^2 +4x -1
    assert coeffs == [F(-1), F(4), F(-4), F(1)]


# ---------------------------------------------------------------------------
# The batched walk kernel against the per-step reference
# ---------------------------------------------------------------------------


def _kernel_measures(real_field):
    shears = [[[1, k], [0, 1]] for k in range(10)]
    return [
        corpus.positive_matrices(),
        corpus.sanov(),
        corpus.diagonal_point_mass(),  # one atom of probability 1
        make_measure(shears, [F(1, 10)] * 10, real_field),  # float partial sums end below 1
        corpus.sl3_integer(),
        corpus.padic_contracting(3),
    ]


def test_batched_indices_match_per_draw(real_field):
    streams = [0, 1, 5, 2**40 + 3]
    measures = _kernel_measures(real_field)
    for m in measures:
        # the sampling table is the sequence of float partial sums, added in order
        acc, sums = 0.0, []
        for p in m.probs:
            acc += float(p)
            sums.append(acc)
        assert m.cumulative == tuple(sums)
        idx = walk_indices(m, 300, 17, streams)
        assert idx.shape == (len(streams), 300)
        for row, stream in zip(idx.tolist(), streams):
            rng = make_stream(17, stream)
            assert row == [_sample_index(m, rng.random()) for _ in range(300)]
            assert row == sample_increment_indices(m, 300, 17, stream).tolist()
    assert measures[3].cumulative[-1] < 1  # the ten shears
    assert walk_indices(corpus.sanov(), 5, 1, []).shape == (0, 5)


def _wedges(table) -> tuple:
    return tuple(map(exterior_square, table))


def _fold(increments, row, field, left):
    acc = scaled_identity(increments[0].shape[0], field)
    for i in row:
        x = increments[i]
        acc = scaled_multiply(acc, x, field) if left else scaled_premultiply(x, acc, field)
    return acc


def _products(table, idx, field, order):
    """The right fold of walk_products, or the left fold of estimators._fold: walk_products folds right only."""
    return estimators._fold([(table, idx, order)], field)[0] if order == "left" else walk_products(table, idx, field)


def test_stacked_products_match_sequential_fold(real_field):
    for m in (corpus.positive_matrices(), corpus.sanov(), corpus.slow_contracting(), corpus.sl3_integer()):
        inverses = tuple(np.linalg.inv(a) for a in m.atoms)
        wedges = _wedges(m.atoms)  # 1x1 at d = 2
        tables = (m.atoms, inverses, wedges, _wedges(inverses), tuple(-w for w in wedges))
        idx = walk_indices(m, 150, 3, range(6))
        for table in tables:
            for order in ("left", "right"):
                batch = _products(table, idx, real_field, order)
                for row, got in zip(idx.tolist(), batch):
                    want = _fold(table, row, real_field, order == "left")
                    assert np.array_equal(got.unit, want.unit)
                    assert got.scale == want.scale


def test_batch_row_matches_run_walk(real_field):
    n, seed = 60, 23
    for m in _kernel_measures(real_field):
        idx = walk_indices(m, n, seed, range(5))
        rights = walk_products(m.atoms, idx, m.field)
        lefts = _products(m.atoms, idx, m.field, "left")
        for i in range(5):
            st = run_walk(m, n, seed, i)
            assert st.increments == tuple(idx[i].tolist())
            assert (rights[i].unit == st.right_product.unit).all()
            assert rights[i].scale == st.right_product.scale
            assert (lefts[i].unit == st.left_product.unit).all()
            assert lefts[i].scale == st.left_product.scale
            # the stream resumes where the batch row ends
            assert advance(st, m).increments == run_walk(m, n + 1, seed, i).increments


def _padic_kernel_measures():
    q2, q3, q5 = FieldSpec.padic(2), FieldSpec.padic(3), FieldSpec.padic(5)
    return [
        corpus.padic_contracting(2),  # p-power denominators
        corpus.padic_contracting(3),
        corpus.padic_contracting(5),
        # p-unit denominators over Q_2 (1/5, 1/3) next to a 2-power one (1/4)
        make_measure(
            [[[F(1, 5), 2], [F(-2, 5), 1]], [[5, F(1, 4)], [0, F(1, 5)]], [[F(1, 3), 0], [1, 3]]],
            [F(1, 3)] * 3,
            q2,
        ),
        make_measure(
            [
                [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
                [[F(1, 3), 0, 0], [0, 3, 1], [0, 0, 1]],
                [[1, F(1, 2), 0], [0, 1, 0], [F(2, 5), 0, 1]],
            ],
            [F(1, 3)] * 3,
            q3,
        ),
        make_measure(
            [[[5, F(1, 7)], [0, F(1, 5)]], [[1, 0], [F(3, 25), 1]]],
            [F(1, 2)] * 2,
            q5,
        ),
    ]


def test_padic_products_match_sequential_fold():
    for m in _padic_kernel_measures():
        inverses = tuple(exact_inv(a) for a in m.exact_atoms)
        tables = (m.atoms, inverses, _wedges(m.atoms))
        idx = walk_indices(m, 40, 3, range(5))
        for table in tables:
            for order in ("left", "right"):
                batch = _products(table, idx, m.field, order)
                assert len(batch) == 5
                for row, got in zip(idx.tolist(), batch):
                    want = _fold(table, row, m.field, order == "left")
                    assert (got.unit == want.unit).all()
                    assert got.scale == want.scale and isinstance(got.scale, int)
        empty = walk_products(m.atoms, idx[:, :0], m.field)
        assert all((e.unit == identity(m.d)).all() and e.scale == 0 for e in empty)
        assert walk_products(m.atoms, idx[:0], m.field) == []


def test_exact_product_matches_fraction_fold():
    for m in _padic_kernel_measures() + [corpus.sanov(), corpus.slow_contracting(), corpus.sl3_integer()]:
        word = sample_increment_indices(m, 25, 9, 1).tolist()
        for seq in (word, word[::-1]):  # X_1 ... X_n replays the reversed word
            want = identity(m.d)
            for i in seq:
                want = want @ m.exact_atoms[i]
            got = exact_product(m, seq[::-1])
            assert got.dtype == object
            assert all(isinstance(x, Fraction) for x in got.flat)
            assert (got == want).all()
        assert (exact_product(m, []) == identity(m.d)).all()


def test_integer_products_match_fraction_fold():
    # R-exact atoms (d = 2 and 3) and Q_p atoms with p-unit denominators
    real = [corpus.sanov(), corpus.slow_contracting(), corpus.sl3_integer()]
    for m in real + _padic_kernel_measures():
        forms = [_integer_form(a) for a in m.exact_atoms]
        n = 12
        idx = walk_indices(m, n, 5, range(3))
        cps = [n, 0, 5, 1, 5]
        # right folds X_t ... X_1; a left fold X_1 ... X_t is the transposed right fold of the transposed table
        for left in (False, True):
            stacks = integer_products([a.T if left else a for a, _ in forms], idx, cps)
            assert len(stacks) == len(cps)
            for t, stack in zip(cps, stacks):
                assert stack.shape == (3, m.d, m.d) and stack.dtype == object
                for row, got in zip(idx.tolist(), stack.swapaxes(1, 2) if left else stack):
                    want = identity(m.d)
                    for i in row[:t]:
                        want = want @ m.exact_atoms[i] if left else m.exact_atoms[i] @ want
                    assert all(type(x) is int for x in got.flat)
                    assert (got == want * math.prod(forms[i][1] for i in row[:t])).all()
        # a batch with no rows: one empty stack per checkpoint
        empty = integer_products([a for a, _ in forms], idx[:0], cps)
        assert [s.shape for s in empty] == [(0, m.d, m.d)] * len(cps)
    with pytest.raises(UsageError):
        integer_products([a for a, _ in forms], idx, [n + 1])


# ---------------------------------------------------------------------------
# Streams through the reseeded per-thread generator
# ---------------------------------------------------------------------------

_SEEDS = (0, 1, 2**64 + 5)
_STREAMS = (0, 1, 7, 2**40 + 3, 2**63, 2**64 - 1, 2**64 + 9, 3 * 2**64 + 2)
_LENGTHS = (0, 1, 3, 4, 5, 40, 201)


def _indices_from(rng, measure, n):
    return np.minimum(np.searchsorted(measure.cumulative, rng.random(n), side="right"), len(measure.cumulative) - 1)


def test_reseeded_uniforms_equal_make_stream():
    m = corpus.sanov()
    for seed in _SEEDS:
        for stream in _STREAMS:
            for n in _LENGTHS:
                want = make_stream(seed, stream).random(n)
                assert np.array_equal(walks._reseeded(walks._start_state(seed, stream)).random(n), want)
                assert np.array_equal(sample_increment_indices(m, n, seed, stream),
                                      _indices_from(make_stream(seed, stream), m, n))


def test_reseeded_streams_interleaved_with_make_stream_advance_and_probe():
    m = corpus.positive_matrices()
    open_stream = make_stream(5, 3)
    head = open_stream.random(7)
    state = new_walk_state(m, 5, 3)
    for stream in _STREAMS:
        a = sample_increment_indices(m, 40, 5, stream)
        state = advance(state, m)
        b = sample_increment_indices(m, 5, 5, stream)
        assert find_proximal_element(m, seed=stream % 11) is not None
        c = sample_increment_indices(m, 201, 5, stream)
        want = _indices_from(make_stream(5, stream), m, 201)
        assert np.array_equal(a, want[:40]) and np.array_equal(b, want[:5]) and np.array_equal(c, want)
    # neither the open generator nor the trajectory sees the reseeded draws
    fresh = make_stream(5, 3)
    assert np.array_equal(head, fresh.random(7))
    assert np.array_equal(open_stream.random(30), fresh.random(30))
    assert state.increments == run_walk(m, len(_STREAMS), 5, 3).increments
    assert list(state.increments) == sample_increment_indices(m, len(_STREAMS), 5, 3).tolist()


def test_reseeded_streams_from_two_threads():
    m = corpus.positive_matrices()
    streams = range(0, 400, 3)
    want = {s: _indices_from(make_stream(9, s), m, 40) for s in streams}
    start = threading.Barrier(2)
    found, generators = [None, None], [None, None]

    def work(slot):
        start.wait()
        found[slot] = [(s, sample_increment_indices(m, 40, 9, s)) for _ in range(3) for s in streams]
        generators[slot] = walks._reseeded(walks._start_state(9, 0))

    threads = [threading.Thread(target=work, args=(slot,)) for slot in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for rows in found:
        assert len(rows) == 3 * len(streams)
        assert all(np.array_equal(got, want[s]) for s, got in rows)
    # one generator per thread, built once and reused
    mine = walks._reseeded(walks._start_state(9, 0))
    assert mine is walks._reseeded(walks._start_state(1, 2))
    assert len({id(mine), *map(id, generators)}) == 3


def test_import_does_not_import_numpy_random():
    # the reseeded generator is built on first use, not at import
    code = "import sys, freewalk, freewalk.cli; sys.exit('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(walks.__file__).resolve().parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


# ---------------------------------------------------------------------------
# The 1x1 closed form and the buffered step against the sequential fold
# ---------------------------------------------------------------------------


def _random_table(rng, count, m):
    """Gaussian m x m increments scaled by e**U(-30, 30): non-unit, some negative determinants."""
    return rng.standard_normal((count, m, m)) * np.exp(rng.uniform(-30, 30, (count, 1, 1)))


def _block(reps, m):
    """Steps per gather of walk_products over R at this batch width."""
    return max(1, walks._GATHER_BYTES // (reps * m * m * 8))


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_kernel_equals_sequential_fold(real_field, m):
    rng = np.random.default_rng(40 + m)
    block = _block(5, m)
    wide = walks._GATHER_BYTES // (8 * m * m) + 1  # one step's increments overrun the budget
    assert _block(wide, m) == 1
    cases = [(0, 3), (1, 4), (7, 1), (40, 9), (200, 5), (300, 1)]
    # (5, 0): no rows, where the gather block once divided by the batch width
    cases += [(n, 5) for n in (block - 1, block, block + 1, 2 * block + 1)] + [(3, wide), (5, 0)]
    cases = [(n, reps, _random_table(rng, 6, m)) for n, reps in cases]
    # the renormalisation cadence K: its boundaries, entries near 2**300 (K = 1), a singular increment (K = 1)
    mild = np.eye(m) + 0.25 * rng.standard_normal((6, m, m))
    every = walks._renormalize_every(mild)
    assert 10 < every <= 200
    cases += [(n, 5, mild) for n in (every - 1, every, every + 1, 2 * every + 1)]
    huge = _random_table(rng, 6, m) * 2.0**300
    cases.append((60, 4, huge))
    tables = [mild, huge]
    if m > 1:
        singular = mild.copy()
        singular[0, -1] = 0.0  # a zero row: LU finds no inverse
        cases.append((60, 4, singular))
        tables.append(singular)
    assert [walks._renormalize_every(t) for t in tables] == [every, 1, 1][: len(tables)]
    for n, reps, table in cases:
        idx = rng.integers(0, 6, (reps, n))
        for order in ("left", "right"):
            got = _products(table, idx, real_field, order)
            assert len(got) == reps
            for row, g in zip(idx.tolist(), got):
                want = _fold(table, row, real_field, order == "left")
                assert np.array_equal(g.unit, want.unit) and g.scale == want.scale
                assert type(g.scale) is int and 1 <= np.abs(g.unit).max() < 2


def test_kernel_renormalises_tables_that_lu_cannot_invert(real_field):
    # [[N, N - 1], [N + 1, N]] and [[N, N + 1], [N - 1, N]] have det 1, but at N = 1e8 LU finds no inverse;
    # the exact inverses of the float entries give G = H = 2N + 1 < 2**28, so K = 200 // 28
    big = 10**8
    table = np.array([[[big, big - 1], [big + 1, big]], [[big, big + 1], [big - 1, big]]], dtype=float)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(table)
    assert walks._renormalize_every(table) == walks._renormalize_every(np.stack([np.eye(2), *table])) == 7
    idx = np.random.default_rng(9).integers(0, 2, (5, 60))
    for order in ("left", "right"):
        for row, g in zip(idx.tolist(), _products(table, idx, real_field, order)):
            want = _fold(table, row, real_field, order == "left")
            assert np.array_equal(g.unit, want.unit) and g.scale == want.scale


def test_kernel_equals_sequential_fold_past_the_subnormal_threshold(real_field):
    # diag(2, 1/2)**n has unit diag(1, 2**-2n): subnormal from n = 512 on, 0 from n = 538; every
    # power of two rounds alike in both folds, although the kernel renormalises only every 100 steps
    table = np.array([np.diag([2.0, 0.5])])
    assert walks._renormalize_every(table) == 100
    for n in (100, 511, 512, 537, 538, 600):
        (got,) = walk_products(table, np.zeros((1, n), dtype=np.intp), real_field)
        want = _fold(table, [0] * n, real_field, False)
        assert np.array_equal(got.unit, want.unit) and got.scale == want.scale == n
        assert got.unit.tolist() == [[1.0, 0.0], [0.0, math.ldexp(1.0, -2 * n)]]


@pytest.mark.parametrize("entry", (0.0, math.inf, math.nan, 2.0**1023), ids=("zero", "inf", "nan", "overflow"))
def test_kernel_raises_on_a_zero_or_non_finite_product(real_field, entry):
    # every entry 0, inf or nan: the product at once; every entry 2**1023: it overflows at the second step.
    # RuntimeWarnings are errors in this suite, so none may escape the kernel
    table = np.array([np.eye(2), np.full((2, 2), entry)])
    with pytest.raises(DomainError, match="cannot scale the zero matrix"):
        walk_products(table, np.array([[0, 1, 0, 1, 0], [0, 0, 0, 0, 0]]), real_field)
    (ok,) = walk_products(table, np.array([[0, 0, 0]]), real_field)  # an unused entry is never taken
    assert ok.scale == 0 and np.array_equal(ok.unit, np.eye(2))


def test_real_kernel_takes_no_log(real_field, monkeypatch):
    # the scales are sums of integer exponents: no math.log of a step maximum
    m = corpus.slow_contracting()
    idx = walk_indices(m, 300, 1, range(4))
    want = walk_products(m.atoms, idx, real_field)

    def no_log(*args):
        raise AssertionError("walk_products took a logarithm")

    monkeypatch.setattr(math, "log", no_log)
    got = walk_products(m.atoms, idx, real_field)
    monkeypatch.undo()
    assert all(np.array_equal(g.unit, w.unit) and g.scale == w.scale for g, w in zip(got, want))


def _exact_log_norm(s) -> Decimal:
    """log of the operator norm of an exact 2 x 2 integer matrix, to 60 digits."""
    (a, b), (c, d) = s.tolist()
    f, det = Decimal(a * a + b * b + c * c + d * d), Decimal(a * d - b * c)
    return ((f + (f * f - 4 * det * det).sqrt()) / 2).ln() / 2


@pytest.mark.parametrize("n", (1000, 5000))
def test_log_norm_within_two_ulps_of_the_exact_product(real_field, n):
    # the scale takes no rounding; a log of every step maximum, summed, took 13 and 21 ulps here
    m = corpus.positive_matrices()
    idx = walk_indices(m, n, 1, range(20))
    got = log_norms(walk_products(m.atoms, idx, real_field), real_field)
    (exact,) = integer_products([_integer_form(a)[0] for a in m.exact_atoms], idx, [n])
    with localcontext() as ctx:
        ctx.prec = 60
        ulps = [abs(Decimal(g) - _exact_log_norm(s)) / Decimal(math.ulp(g)) for g, s in zip(got, exact)]
    assert max(ulps) <= 2, max(ulps)


def test_wedge_tables_are_the_exact_exterior_squares():
    # integer and fractional atoms (denominators 3, 2 and 5): each wedge is exact, and rounded once over R;
    # at d = 3 it is also wedge^{d-1}, the Hodge dual H^T (a^{-1})^T H of the exact inverse
    rows = [[[2, 1, 0], [1, 1, 0], [0, 0, 1]], [[F(1, 3), 0, 0], [0, 3, 1], [0, 0, 1]],
            [[1, F(1, 2), 0], [0, 1, 0], [F(2, 5), 0, 1]]]
    hodge = estimators._hodge(3)
    for field in (FieldSpec.real(), FieldSpec.padic(3)):
        m = make_measure(rows, [F(1, 3)] * 3, field)
        got = estimators._exterior_powers(m, [2])[2]
        for exact in ([exterior_square(a) for a in m.exact_atoms],
                      [hodge.T @ exact_inv(a).T @ hodge for a in m.exact_atoms]):
            want = [w.astype(float) for w in exact] if field.is_archimedean else exact
            assert len(got) == 3 and all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_exterior_powers_are_the_exact_minors(d):
    # every degree the pole pass folds, from the exact atoms: the k x k minors in lexicographic order,
    # rounded once over R; the N = 1e8 block's float 2 x 2 minor N * N - (N - 1) * (N + 1) reads 0, the exact 1
    big = 10**8
    block = identity(d)
    block[:2, :2] = [[big, big - 1], [big + 1, big]]
    rng = random.Random(d)
    # SL_d(Z) atoms conjugated by diag(1, 1/2, ..., 1/d): denominators up to d
    scale, unscale = np.diag([F(1, i + 1) for i in range(d)]), np.diag([F(i + 1) for i in range(d)])
    rows = [block.tolist()] + [(scale @ np.array(random_unimodular_int(rng, d), dtype=object) @ unscale).tolist()
                               for _ in range(3)]
    degrees = sorted({1, 2, d - 2, d - 1} - {0, d})
    for field in (FieldSpec.real(), FieldSpec.padic(3)):
        m = make_measure(rows, [F(1, 4)] * 4, field)
        got = estimators._exterior_powers(m, degrees)
        assert sorted(got) == degrees
        for k in degrees:
            subsets = list(combinations(range(d), k))
            exact = [np.array([[exact_det(a[np.ix_(i, j)]) for j in subsets] for i in subsets], dtype=object)
                     for a in m.exact_atoms]
            want = [w.astype(float) for w in exact] if field.is_archimedean else exact
            assert len(got[k]) == 4 and all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got[k], want))
        if d > 2 and field.is_archimedean:
            assert exterior_square(m.atoms[0])[0, 0] == 0.0 and got[2][0][0, 0] == 1.0


def test_kernel_memory_does_not_grow_with_gathered_walk(real_field):
    # the increments are gathered a bounded block of steps at a time: doubling n does not
    # add another n * reps * m * m doubles of increments
    import tracemalloc

    m, reps = 3, 10
    table = _random_table(np.random.default_rng(5), 6, m)
    peaks = []
    for n in (2000, 4000):
        idx = np.random.default_rng(n).integers(0, 6, (reps, n))
        tracemalloc.start()
        walk_products(table, idx, real_field)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert _block(reps, m) < 2000
    assert peaks[1] - peaks[0] < 2000 * reps * m * m * 8, peaks


@pytest.mark.parametrize("field", (FieldSpec.real(), FieldSpec.padic(3)), ids=("R", "Q3"))
def test_make_measure_rejects_one_by_one_atoms(field):
    with pytest.raises(InvariantViolation, match="d >= 2"):
        make_measure([[[1]]], [1], field)


def test_one_by_one_walks_with_a_zero_entry(real_field):
    table = np.array([[[2.0]], [[0.0]], [[-3.0]]])
    with pytest.raises(DomainError):
        walk_products(table, np.array([[0, 2, 1, 0]]), real_field)
    # an unused zero entry is never taken: 2 * (-3)**2 = 18 = 2**4 * 1.125, and the negated table gives -18
    for sign in (1, -1):
        (got,) = walk_products(sign * table, np.array([[0, 2, 2]]), real_field)
        want = _fold(sign * table, [0, 2, 2], real_field, False)
        assert got.unit[0, 0] == sign * 1.125 and got.scale == 4
        assert np.array_equal(got.unit, want.unit) and got.scale == want.scale


# ---------------------------------------------------------------------------
# The proximal probe on integer forms
# ---------------------------------------------------------------------------


def _fraction_charpoly(m):
    """Faddeev-LeVerrier on Fractions: the reference the integer form must equal."""
    d = len(m)
    a = np.array([[F(x) for x in row] for row in m], dtype=object)
    coeffs, mk = [F(1)], a.copy()
    for k in range(1, d + 1):
        coeffs.append(-sum(mk[i, i] for i in range(d)) / k)
        if k < d:
            mk = a @ (mk + coeffs[-1] * identity(d))
    return coeffs[::-1]


def test_characteristic_polynomial_of_scaled_integer_matrix():
    from freewalk.walks import characteristic_polynomial

    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 4):
        for _ in range(40):
            a = [[int(x) for x in row] for row in rng.integers(-2**40, 2**40, (d, d))]
            den = int(rng.integers(1, 10**6))
            got = characteristic_polynomial(np.array(a, dtype=object), den)
            assert got == _fraction_charpoly([[F(x, den) for x in row] for row in a])
            assert all(type(c) is Fraction for c in got) and got[-1] == 1
    with pytest.raises(TypeError):
        characteristic_polynomial(np.array([[F(1, 2), 0], [0, 2]], dtype=object))


def test_proximal_probe_results_unchanged(real_field):
    # sha256 of every result, recorded with the Fraction Faddeev-LeVerrier probe on exact_product
    generic = make_measure([[[2, 1, 0], [3, 2, 1], [0, 0, 1]], [[1, 0, 0], [4, 1, 0], [1, 2, 1]],
                            [[1, 3, 0], [0, 1, 0], [0, 2, 1]]], [F(1, 2), F(1, 4), F(1, 4)], real_field)
    measures = [corpus.positive_matrices(), corpus.sanov(), corpus.diagonal_point_mass(),
                corpus.rotation_point_mass(), corpus.slow_contracting(), corpus.sl3_integer(),
                corpus.padic_contracting(2), corpus.padic_contracting(3),
                corpus.padic_isometry_point_mass(3), corpus.padic_diagonal_point_mass(3),
                generic] + _padic_kernel_measures()
    results = [find_proximal_element(m, seed=s) for m in measures for s in range(30)]
    assert sum(r is None for r in results) == 64
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == "df6e75186e9160c90f4188ec2dc18faee4601a0a639c14607b217270c937047e"
