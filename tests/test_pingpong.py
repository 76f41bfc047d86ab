import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from freewalk import (
    DomainError,
    FieldSpec,
    UsageError,
    as_matrix,
    as_vector,
    contraction_data,
    dist_point_hyperplane,
    free_word_oracle,
    fubini_study,
    is_eps_contracting,
    is_pingpong_tuple,
    is_very_proximal,
    pingpong_certificate,
)
from freewalk import cli, corpus, pingpong
from freewalk.fields import Interval, _div, _enclose, _sqrt
from freewalk.decompositions import _kak_real, _smith, kak
from freewalk.linalg import (
    _faddeev_leverrier,
    _integer_form,
    adjugate,
    exact_inv,
    exterior_square,
    normalize_representative,
)
from freewalk.pingpong import (
    _CertifiedPole,
    _certified_bounds,
    _certified_failures_real,
    _certified_pole_real,
    _certified_poles,
    _certified_separation,
    _turned_pole,
    cross_margin_matrix,
    pole_pair,
    tuple_failure_reasons,
)
from freewalk.errors import InvariantViolation
from freewalk.report import dumps_json
from freewalk.walks import exact_product, run_walk

from conftest import random_unimodular_int


def exact_matrix(m) -> np.ndarray:
    """Exact Fraction copy of a matrix (float entries convert exactly)."""
    return np.array([[Fraction(x) for x in row] for row in m], dtype=object)

F = Fraction


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_contraction_data_examples(real_field):
    big = as_matrix([[100, 0], [0, 0.01]], real_field)
    cd = contraction_data(big, real_field)
    assert cd.ratio == pytest.approx(1e-4)
    assert cd.separation == pytest.approx(1.0)
    assert abs(cd.v[0]) == pytest.approx(1.0) and cd.v[1] == pytest.approx(0.0)

    rot = as_matrix(_rot(math.pi / 2), real_field)
    assert contraction_data(rot, real_field).ratio == pytest.approx(1.0)

    shear = as_matrix([[1, 2], [0, 1]], real_field)
    expected = (math.sqrt(2) - 1) / (math.sqrt(2) + 1)
    assert contraction_data(shear, real_field).ratio == pytest.approx(expected, abs=1e-9)


def test_is_eps_contracting(real_field):
    big = as_matrix([[100, 0], [0, 0.01]], real_field)
    ok, data = is_eps_contracting(big, 0.02, real_field)
    assert ok and data.ratio <= 0.02**2
    ident = as_matrix([[1, 0], [0, 1]], real_field)
    assert not is_eps_contracting(ident, 0.9, real_field)[0]
    assert not is_eps_contracting(big, 0.005, real_field)[0]
    with pytest.raises(DomainError):
        is_eps_contracting(big, 1.5, real_field)


def test_is_eps_contracting_monotone(real_field):
    rng = random.Random(41)
    for _ in range(30):
        g = as_matrix(random_unimodular_int(rng, 2, steps=16), real_field)
        hits = [eps for eps in (0.1, 0.2, 0.4, 0.6, 0.8) if is_eps_contracting(g, eps, real_field)[0]]
        # once true, true at every larger eps
        assert hits == [eps for eps in (0.1, 0.2, 0.4, 0.6, 0.8) if eps >= (hits[0] if hits else 2)]


def test_is_eps_contracting_exact_padic(q3):
    g = as_matrix([[9, 0], [0, F(1, 9)]], q3)  # ratio = |1/9| / |9| = 9^-... = 1/81... exactly
    ok, data = is_eps_contracting(g, 0.2, q3)
    assert ok
    assert data.ratio == F(1, 81 * 81) or data.ratio <= F(1, 25)  # exact Fraction comparison ran


def test_is_very_proximal(real_field):
    big = as_matrix([[100, 0], [0, 0.01]], real_field)
    assert is_very_proximal(big, 0.5, 0.02, real_field)
    ident = as_matrix([[1, 0], [0, 1]], real_field)
    assert not is_very_proximal(ident, 0.5, 0.02, real_field)
    conj = _rot(math.pi / 4) @ np.array([[100, 0], [0, 0.01]]) @ _rot(-math.pi / 4)
    assert is_very_proximal(as_matrix(conj, real_field), 0.5, 0.02, real_field)
    with pytest.raises(DomainError):
        is_very_proximal(big, 0.03, 0.02, real_field)


def _random_pole_stack(field, d, rng, reps=6, m=4):
    """Random (v, h, ratio) stacks of reps tuples of m poles, no zero vector."""

    def scalar():
        if field.is_archimedean:
            return rng.gauss(0.0, 1.0)
        return F(rng.randint(-9, 9), field.prime ** rng.randint(0, 2) * rng.choice([1, 5, 7]))

    def vector():
        while True:
            x = np.array([scalar() for _ in range(d)], dtype=float if field.is_archimedean else object)
            if any(c != 0 for c in x):
                return x

    v, h = (np.array([[vector() for _ in range(m)] for _ in range(reps)]) for _ in range(2))
    if field.is_archimedean:
        ratio = np.array([[rng.random() for _ in range(m)] for _ in range(reps)])
    else:
        ratio = np.array([[F(1, field.prime ** rng.randint(0, 4)) for _ in range(m)] for _ in range(reps)])
    return v, h, ratio


def _scalar_failure_reasons(ratio, margins, r, eps):
    """The ping-pong inequalities of one tuple, pole by pole."""
    eps_sq = F(eps) ** 2 if isinstance(ratio[0], F) else eps * eps
    m = len(ratio)
    failures = set()
    if any(x > eps_sq for x in ratio):
        failures.add("own-contraction")
    if any(margins[p][p] <= r for p in range(m)):
        failures.add("own-separation")
    if any(margins[p][q] < r for p in range(m) for q in range(m) if p // 2 != q // 2):
        failures.add("cross-margin")
    return failures


@pytest.mark.parametrize("prime, d", [(None, 2), (None, 3), (2, 2), (3, 3)])
def test_stacked_margins_match_scalar(prime, d):
    field = FieldSpec.real() if prime is None else FieldSpec.padic(prime)
    rng = random.Random(7 * d + (prime or 0))
    v, h, ratio = _random_pole_stack(field, d, rng)
    margins = cross_margin_matrix(v, h, field)
    reps, m = ratio.shape
    assert margins.shape == (reps, m, m)
    table = margins.tolist()
    for t in range(reps):
        for p in range(m):
            for q in range(m):
                want = dist_point_hyperplane(v[t, p], h[t, q], field)
                assert type(table[t][p][q]) is type(want) and table[t][p][q] == want
    # thresholds at the margins themselves probe the strict and non-strict sides
    rs = sorted({float(x) for x in margins.flat})
    seen = set()
    for r in [0.0, *rs[:: max(1, len(rs) // 8)], rs[-1], 1.5]:
        for eps in (0.3, 0.5, 0.9):
            reasons = tuple_failure_reasons(ratio, margins, r, eps)
            assert set(reasons) == {"own-contraction", "own-separation", "cross-margin"}
            for t in range(reps):
                got = {k for k, hit in reasons.items() if hit[t]}
                assert got == _scalar_failure_reasons(ratio[t], table[t], r, eps)
                seen |= got
    assert seen == {"own-contraction", "own-separation", "cross-margin"}


def test_pole_pair_matches_direct_inverse(real_field, q3):
    from freewalk.linalg import exact_inv

    rng = random.Random(42)
    gs, gqs, ks = [], [], []
    for _ in range(25):
        gs.append(as_matrix(random_unimodular_int(rng, 2, steps=16), real_field))
        # p-adic: conjugates of diag(9, 1/9) have a strict gap (SL_2(Z) itself
        # consists of p-adic isometries, where the classes are not canonical)
        ks.append(as_matrix(random_unimodular_int(rng, 2), q3))
        gqs.append(ks[-1] @ as_matrix([[9, 0], [0, F(1, 9)]], q3) @ exact_inv(ks[-1]))
    v, h, ratio = pole_pair(np.array(gs), real_field)
    assert v.shape == h.shape == (25, 2, 2) and ratio.shape == (25, 2)
    vq, hq, ratioq = pole_pair(gqs, q3)
    assert vq.shape == hq.shape == (25, 2, 2) and ratioq.shape == (25, 2)
    for i, (g, gq, k) in enumerate(zip(gs, gqs, ks)):
        plus = contraction_data(g, real_field)
        assert (v[i, 0] == plus.v).all() and (h[i, 0] == plus.h).all() and ratio[i, 0] == plus.ratio
        direct = contraction_data(np.linalg.inv(g), real_field)
        assert ratio[i, 1] == pytest.approx(direct.ratio, rel=1e-7, abs=1e-12)
        if ratio[i, 1] < 0.5:  # classes only canonical when the gap is strict
            assert fubini_study(v[i, 1], direct.v, real_field) <= 1e-6
        direct_q = contraction_data(exact_inv(gq), q3)
        assert ratioq[i, 1] == direct_q.ratio == F(1, 81)
        # attracting classes from two decompositions agree up to the
        # non-uniqueness bound delta <= ratio
        assert fubini_study(vq[i, 1], direct_q.v, q3) <= F(1, 81)
        # |9|_3 = 1/9, so the p-adically attracting direction of g^{-1} is k e1
        eigen = k @ as_vector([1, 0], q3)
        assert fubini_study(vq[i, 1], eigen, q3) <= F(1, 81)


def _per_matrix_pole_pair(gs, field, unimodular):
    """The R pole loop pole_pair replaced: one kak per matrix, then per-row normalisations."""
    v, h, ratio = [], [], []
    for g in gs:
        d = g.shape[0]
        dec = kak(g, field) if unimodular else _kak_real(np.asarray(g, dtype=float))
        ratio.append([dec.a[1] / dec.a[0], dec.a[d - 1] / dec.a[d - 2]])
        v.append([dec.v, normalize_representative(dec.u.T[:, d - 1], field)])
        h.append([dec.h, normalize_representative(dec.k.T[d - 1, :], field)])
    return np.array(v), np.array(h), np.array(ratio)


def _assert_same_outcome(f, gs, field, unimodular):
    """pole_pair and the per-matrix loop both raise the same InvariantViolation, or agree ==."""
    out = []
    for call in (f, _per_matrix_pole_pair):
        try:
            out.append(call(gs, field, unimodular))
        except InvariantViolation as exc:
            out.append(str(exc))
    got, want = out
    if isinstance(want, str) or isinstance(got, str):
        assert got == want == "matrix determinant is not 1"
        return False
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == float and a.shape == b.shape
        assert np.array_equal(a, b)
    return True


def _sanov_words(rng, count, length=14):
    """Reduced Sanov words of the given length as integer object matrices, entries up to about 3e4."""
    gens = [np.array(m, dtype=object) for m in ([[1, 2], [0, 1]], [[1, 0], [2, 1]],
                                                [[1, -2], [0, 1]], [[1, 0], [-2, 1]])]
    words = []
    for _ in range(count):
        m, prev = np.eye(2, dtype=int).astype(object), None
        for _ in range(length):
            prev = rng.choice([s for s in range(4) if prev is None or s != (prev + 2) % 4])
            m = m @ gens[prev]
        words.append(m)
    return words


def test_real_pole_pair_equals_per_matrix_kak_loop(real_field, monkeypatch):
    rng = random.Random(77)
    stacks = [[np.array(random_unimodular_int(rng, d, steps=4 * d), dtype=object) for _ in range(30)]
              for d in (2, 3, 4)]
    stacks.append(_sanov_words(rng, 30))
    assert max(abs(x) for g in stacks[-1] for x in g.flat) >= 10**4
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a[0].shape) or svd(*a, **k))
    for name in ("kak", "normalize_representative"):  # the per-matrix path is gone from pole_pair over R
        monkeypatch.setattr(pingpong, name, lambda *a, **k: pytest.fail("pole_pair over R went per matrix"))
    for exact in stacks:
        # scaled, row-swapped and negated matrices: det != 1, which only unimodular=False admits
        loose = [g * (i % 3 + 1) for i, g in enumerate(exact)] + [g[::-1] for g in exact[:5]]
        loose += [-g for g in exact[:5]]
        for gs in (exact, loose):
            for stack in (gs, [g.astype(float) for g in gs]):
                svds.clear()
                assert _assert_same_outcome(pole_pair, stack, real_field, False)
                assert svds[0] == (len(stack),) + stack[0].shape  # one SVD of the whole stack
                passed = _assert_same_outcome(pole_pair, stack, real_field, True)
                if stack is gs or gs is loose:  # the float check of large exact entries may go either way
                    assert passed == (gs is exact)
    # Sanov words with entries near 1e4: the exact determinant check passes every one, and the
    # float one fails some, for pole_pair as for the loop
    floats = [_assert_same_outcome(pole_pair, [g.astype(float)], real_field, True) for g in stacks[-1]]
    assert not all(floats)


def test_pole_pair_rejects_det_not_one_and_takes_empty_stacks(real_field, q3):
    rng = random.Random(78)
    for field in (real_field, q3):
        g = as_matrix(random_unimodular_int(rng, 3), field)
        with pytest.raises(InvariantViolation, match="matrix determinant is not 1"):
            pole_pair([g, 2 * g], field)
        pole_pair([g, 2 * g], field, unimodular=False)
        empty = pole_pair([], field)
        assert len(empty) == 3 and all(isinstance(a, np.ndarray) and a.size == 0 for a in empty)


def test_padic_inverse_poles_match_exact_inv():
    rng = random.Random(31)
    for p in (2, 3):
        field = FieldSpec.padic(p)
        for d in (2, 3):
            stretch = as_matrix(np.diag([F(p) ** 2] + [F(1)] * (d - 2) + [F(p) ** -2]), field)
            gs = []
            for i in range(12):
                k = as_matrix(random_unimodular_int(rng, d), field)
                g = k @ stretch @ exact_inv(k) if i % 3 else as_matrix(random_unimodular_int(rng, d), field)
                gs.append(g @ as_matrix(random_unimodular_int(rng, d), field) if i % 4 == 0 else g)
            v, h, _ = pole_pair(gs, field)
            for i, g in enumerate(gs):
                dec = kak(g, field)
                assert (v[i, 1] == normalize_representative(exact_inv(dec.u)[:, d - 1], field)).all()
                assert (h[i, 1] == normalize_representative(exact_inv(dec.k)[d - 1, :], field)).all()


def _adjugate_inverse_frames(g, field, unimodular):
    """g^{-1}'s frames by the route pole_pair took over Q_p at every d before the d = 2 J-turn:
    one integer adjugate of g's integer form b, adj(b) K e_d and e_d^T U adj(b).  Kept as the reference."""
    d = g.shape[0]
    k, _, u, _, _, b = _smith(g, field.prime, unimodular=unimodular)
    adj, k, u = adjugate(b), np.array(k, dtype=object), np.array(u, dtype=object)
    return normalize_representative(adj @ k[:, d - 1], field), normalize_representative(u[d - 1] @ adj, field)


def test_padic_inverse_frames_equal_the_adjugate_route():
    # at d = 2 pole_pair takes g^{-1}'s frames as the J-turns of U[0] and K[:, 0], with no adjugate;
    # from d = 3 on it keeps the adjugate; both give the reference's frames, ==
    rng = random.Random(46)
    for p in (2, 3, 5):
        field = FieldSpec.padic(p)
        walk = corpus.padic_contracting(p)
        for d in (2, 3):
            stretch = as_matrix(np.diag([F(p) ** 3] + [F(1)] * (d - 2) + [F(p) ** -3]), field)
            gs = []
            for i in range(30):
                k = as_matrix(random_unimodular_int(rng, d), field)
                if d == 2 and i % 3 == 0:
                    gs.append(exact_product(walk, [rng.randrange(2) for _ in range(rng.randint(1, 8))]))
                elif i % 3 == 1:
                    gs.append(k)  # an isometry: its classes are not canonical, but the identity is algebraic
                else:
                    gs.append(k @ stretch @ exact_inv(k))
            loose = [g * F(p, 7) if i % 2 else g[::-1] for i, g in enumerate(gs)]  # det != 1
            for stack, unimodular in ((gs, True), (loose, False)):
                v, h, ratio = pole_pair(stack, field, unimodular=unimodular)
                for i, g in enumerate(stack):
                    want_v, want_h = _adjugate_inverse_frames(g, field, unimodular)
                    assert (v[i, 1] == want_v).all() and (h[i, 1] == want_h).all(), (p, d, i)


def test_pingpong_pair_example(real_field):
    a = as_matrix([[100, 0], [0, 0.01]], real_field)
    b = as_matrix(_rot(math.pi / 4) @ np.array([[100, 0], [0, 0.01]]) @ _rot(-math.pi / 4), real_field)
    ok, cert = is_pingpong_tuple([a, b], 0.5, 0.02, real_field)
    assert ok and cert.certified
    cross = [cert.margins[p][q] for p in range(2) for q in range(2, 4)]
    for m in cross:
        assert m == pytest.approx(math.cos(math.pi / 4), abs=1e-9)


def test_pingpong_duplicated_generator_fails(real_field):
    a = as_matrix([[100, 0], [0, 0.01]], real_field)
    ok, cert = is_pingpong_tuple([a, a], 0.5, 0.02, real_field)
    assert not ok and cert is None
    report = pingpong_certificate([a, a], 0.5, 0.02, real_field)
    assert "cross-margin" in report.failures


def test_pingpong_identity_pair_fails(real_field):
    ident = as_matrix([[1, 0], [0, 1]], real_field)
    ok, _ = is_pingpong_tuple([ident, ident], 0.5, 0.02, real_field)
    assert not ok


def test_pingpong_preconditions(real_field):
    a = as_matrix([[100, 0], [0, 0.01]], real_field)
    with pytest.raises(DomainError):
        is_pingpong_tuple([a, a], 0.03, 0.02, real_field)
    with pytest.raises(DomainError):
        is_pingpong_tuple([a], 0.5, 0.02, real_field)


def test_pingpong_padic_exact(q3):
    a = as_matrix([[81, 0], [0, F(1, 81)]], q3)
    k = as_matrix([[1, 1], [1, 2]], q3)  # isometry of the max norm
    from freewalk.linalg import exact_inv

    b = k @ a @ exact_inv(k)
    cert = pingpong_certificate([a, b], 0.4, 0.1, q3)
    assert cert.mode == "exact"
    assert cert.certified
    ok, _ = is_pingpong_tuple([a, b], 0.4, 0.1, q3)
    assert ok


def test_certified_interval_mode(real_field):
    a = as_matrix([[100, 0], [0, F(1, 100)]], real_field)
    r345 = np.array([[3 / 5, -4 / 5], [4 / 5, 3 / 5]])
    b = as_matrix(r345 @ np.array([[100, 0], [0, 0.01]]) @ r345.T, real_field)
    cert = pingpong_certificate([a, b], 0.5, 0.02, real_field, certified=True)
    assert cert.mode == "certified-interval"
    assert cert.certified
    ident = as_matrix([[1, 0], [0, 1]], real_field)
    cert2 = pingpong_certificate([ident, ident], 0.5, 0.02, real_field, certified=True)
    assert not cert2.certified


def _pinned_certificate_tuples():
    """Generator tuples of test_certificate_json_pinned: name -> (field, rows)."""
    real = FieldSpec.real()
    rng = random.Random(2024)
    out = {
        "R2-hyperbolic": (real, [[[100, 0], [0, F(1, 100)]], [[F(10001, 200), F(9999, 200)], [F(9999, 200), F(10001, 200)]]]),
        "R2-shears": (real, [random_unimodular_int(rng, 2, steps=16) for _ in range(3)]),
    }
    sl3 = corpus.sl3_integer()
    out["R3-walk"] = (real, [exact_product(sl3, [rng.randrange(4) for _ in range(6)][::-1]).tolist() for _ in range(2)])
    out["R3-shears"] = (real, [random_unimodular_int(rng, 3, steps=24) for _ in range(2)])
    for p in (2, 3):
        q = FieldSpec.padic(p)
        a = as_matrix([[F(p) ** 3, 0], [0, F(p) ** -3]], q)
        conj = []
        for _ in range(2):
            k = as_matrix(random_unimodular_int(rng, 2), q)
            conj.append((k @ a @ exact_inv(k)).tolist())
        out[f"Q{p}-conjugates"] = (q, conj)
        walk = corpus.padic_contracting(p)
        out[f"Q{p}-walk"] = (q, [exact_product(walk, [rng.randrange(2) for _ in range(5)][::-1]).tolist() for _ in range(2)])
    return out


# sha256 prefixes of dumps_json(to_json_dict) per (tuple, r, eps, mode),
# recorded before poles became arrays; float and certified-interval modes over R
_PINNED_CERTIFICATES = {
    ("R2-hyperbolic", 0.5, 0.02, "float"): "5c464358445184c5",
    ("R2-hyperbolic", 0.5, 0.02, "certified-interval"): "88b7ed8c6f280fe3",
    ("R2-hyperbolic", 0.3, 0.1, "float"): "e2b8de00f61418c1",
    ("R2-hyperbolic", 0.3, 0.1, "certified-interval"): "3f472c9801046fb7",
    ("R2-shears", 0.5, 0.02, "float"): "4b9491564b5b9757",
    ("R2-shears", 0.5, 0.02, "certified-interval"): "d904bdb4150d993a",
    ("R2-shears", 0.3, 0.1, "float"): "725c53534066ce87",
    ("R2-shears", 0.3, 0.1, "certified-interval"): "c2691b77bbe3a56a",
    ("R3-walk", 0.5, 0.02, "float"): "ccc671cc2177c112",
    ("R3-walk", 0.5, 0.02, "certified-interval"): "295b91cc53ad5c46",
    ("R3-walk", 0.3, 0.1, "float"): "74e542e219dfee0b",
    ("R3-walk", 0.3, 0.1, "certified-interval"): "821941f3f3f9f9e0",
    ("R3-shears", 0.5, 0.02, "float"): "6dfce8d20c613bcf",
    ("R3-shears", 0.5, 0.02, "certified-interval"): "56b787a4faf58cf5",
    ("R3-shears", 0.3, 0.1, "float"): "7622d34600db5c76",
    ("R3-shears", 0.3, 0.1, "certified-interval"): "ce6053eaacb2e373",
    ("Q2-conjugates", 0.5, 0.02, "exact"): "7edadd55c03cd9c7",
    ("Q2-conjugates", 0.3, 0.1, "exact"): "85bca2677799d134",
    ("Q2-walk", 0.5, 0.02, "exact"): "3db47e60740f61e2",
    ("Q2-walk", 0.3, 0.1, "exact"): "d4b07288efe96e23",
    ("Q3-conjugates", 0.5, 0.02, "exact"): "0965a951864abf9e",
    ("Q3-conjugates", 0.3, 0.1, "exact"): "feec1608aa17811c",
    ("Q3-walk", 0.5, 0.02, "exact"): "ed30f671c89311f2",
    ("Q3-walk", 0.3, 0.1, "exact"): "e2ed2fb9d4fa499e",
}


def test_certificate_json_pinned():
    tuples = _pinned_certificate_tuples()
    for (name, r, eps, mode), digest in _PINNED_CERTIFICATES.items():
        field, rows = tuples[name]
        gs = [as_matrix(x, field) for x in rows]
        cert = pingpong_certificate(gs, r, eps, field, certified=mode == "certified-interval")
        assert cert.mode == mode
        text = dumps_json(cert.to_json_dict(field))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (name, r, eps, mode, text)


def test_certify_cli_output_pinned(tmp_path, capsys):
    # the CLI's emission path, not dumps_json(to_json_dict): stdout and --out certificate.json carry the pinned bytes
    tuples = _pinned_certificate_tuples()
    for (name, r, eps, mode), digest in _PINNED_CERTIFICATES.items():
        field, rows = tuples[name]
        path = tmp_path / f"{name}.json"
        doc = {"field": field.to_dict(), "d": len(rows[0]), "generators": [[str(x) for row in g for x in row] for g in rows]}
        path.write_text(json.dumps(doc))
        out = tmp_path / f"{name}-{r}-{eps}-{mode}"
        args = ["certify", str(path), "--r", str(r), "--eps", str(eps), "--out", str(out)]
        code = cli.main(args + (["--exact"] if mode == "certified-interval" else []))
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (name, r, eps, mode, text)
        assert (out / "certificate.json").read_text() == text
        assert code == (0 if json.loads(text)["verdict"] == "certified-free" else 1)


def test_contraction_mapping_property(real_field, q2):
    # whenever ratio <= eps^2, points eps-away from H land eps-close to v
    rng = random.Random(60)
    eps = 0.1
    t = 1 / eps * 1.5
    for field, mats in (
        (real_field, [np.diag([t, 1 / t]) @ _rot(rng.uniform(0, math.pi)) for _ in range(20)]),
        (q2, None),
    ):
        if mats is None:
            mats = []
            for _ in range(20):
                k = as_matrix(random_unimodular_int(rng, 2), q2)
                from freewalk.linalg import exact_inv

                a = as_matrix([[F(1, 16), 0], [0, 16]], q2)
                mats.append(k @ a @ exact_inv(k))
        for m in mats:
            g = as_matrix(m, field) if field.is_archimedean else m
            ok, data = is_eps_contracting(g, eps, field)
            assert ok
            hits = 0
            tries = 0
            while hits < 100 and tries < 5000:
                tries += 1
                x = as_vector([rng.randint(-20, 20) for _ in range(2)], field)
                if all(v == 0 for v in x):
                    continue
                dxh = dist_point_hyperplane(x, data.h, field)
                if dxh <= eps:
                    continue
                hits += 1
                img = g @ x
                d_img = fubini_study(img, data.v, field)
                bound = data.ratio / dxh
                if field.is_archimedean:
                    assert d_img <= bound + 1e-9
                else:
                    assert d_img <= bound
                assert d_img < eps


def test_isometry_equivariance_of_ratio(real_field):
    rng = np.random.default_rng(3)
    base = np.diag([7.0, 1 / 7.0])
    r = contraction_data(as_matrix(base, real_field), real_field).ratio
    for _ in range(20):
        q1, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        q2_, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        q1 *= np.linalg.det(q1)
        q2_ *= np.linalg.det(q2_)
        g = as_matrix(q1 @ base @ q2_, real_field)
        assert contraction_data(g, real_field).ratio == pytest.approx(r, abs=1e-9)


# ---------------------------------------------------------------------------
# Exact freeness oracle
# ---------------------------------------------------------------------------


def _obj(rows):
    return np.array([[F(x) for x in row] for row in rows], dtype=object)


def test_oracle_sanov_pair_free():
    a = _obj([[1, 2], [0, 1]])
    b = _obj([[1, 0], [2, 1]])
    verdict = free_word_oracle([a, b], 8)
    assert not verdict.found


def test_oracle_braid_relation_found():
    a = _obj([[1, 1], [0, 1]])
    b = _obj([[1, 0], [1, 1]])
    verdict = free_word_oracle([a, b], 6)
    assert verdict.found
    assert len(verdict.relation) == 6
    assert verdict.relation_word() == "abAbaB"
    # no shorter relation exists
    assert not free_word_oracle([a, b], 5).found


def test_oracle_single_identity_generator():
    ident = _obj([[1, 0], [0, 1]])
    verdict = free_word_oracle([ident], 1)
    assert verdict.found and verdict.relation == (0,)
    assert verdict.relation_word() == "a"


def test_oracle_rejects_floats(real_field):
    g = as_matrix([[1.0, 0.5], [0.0, 1.0]], real_field)
    with pytest.raises(UsageError):
        free_word_oracle([g], 3)
    with pytest.raises(UsageError):
        free_word_oracle([_obj([[1, 0], [0, 1]])], 99)


def test_oracle_rejects_float_in_object_array():
    g = np.array([[1, 0.5], [0, 1]], dtype=object)
    with pytest.raises(UsageError):
        free_word_oracle([g], 3)


def test_oracle_accepts_int_arrays():
    a = np.array([[1, 2], [0, 1]])
    b = np.array([[1, 0], [2, 1]])
    assert not free_word_oracle([a, b], 4).found


def _brute_force_oracle(gs, max_len):
    """Depth-first enumeration of reduced words in (length, lex) order."""
    symbols = []
    for g in gs:
        symbols.append(_obj(g))
        symbols.append(exact_inv(_obj(g)))
    d = symbols[0].shape[0]
    ident = _obj([[int(i == j) for j in range(d)] for i in range(d)])
    checked = 0

    def search(prod, word, length):
        nonlocal checked
        if len(word) == length:
            checked += 1
            return tuple(word) if (prod == ident).all() else None
        for s in range(len(symbols)):
            if word and s == word[-1] ^ 1:
                continue
            hit = search(prod @ symbols[s], word + [s], length)
            if hit is not None:
                return hit
        return None

    for length in range(1, max_len + 1):
        hit = search(ident, [], length)
        if hit is not None:
            return hit, checked
    return None, checked


def test_oracle_words_checked_pinned():
    sanov = [_obj([[1, 2], [0, 1]]), _obj([[1, 0], [2, 1]])]
    assert free_word_oracle(sanov, 8).words_checked == 13120
    nonfree = [_obj([[1, 1], [0, 1]]), _obj([[1, 0], [1, 1]])]
    for max_len in (6, 12):
        verdict = free_word_oracle(nonfree, max_len)
        assert verdict.relation_word() == "abAbaB"
        assert verdict.words_checked == 604


def test_oracle_matches_brute_force():
    cases = [
        ([[[0, -1], [1, -1]]], 5),  # one generator of order 3: relation "aaa"
        ([[[1, 0], [0, 1]]], 2),  # the identity
        ([[[1, 1], [0, 1]]], 4),  # one generator of infinite order
        ([[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]], 8),  # d = 3
        ([[[F(1, 2), 0], [0, 2]], [[3, 0], [0, F(1, 3)]]], 5),  # rational, commuting
        ([[[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]], [[2, 1], [1, 1]]], 4),  # rational, free
        ([[[1, 2], [0, 1]], [[1, 0], [2, 1]], [[0, -1], [1, 0]]], 5),  # c b C = A: "acbC"
        ([[[1, 2], [0, 1]], [[1, 0], [2, 1]], [[0, -1], [1, -1]]], 4),  # odd length: "ccc"
        # odd length 5 behind a shear: the companion matrix of x^4+x^3+x^2+x+1 has order 5
        (
            [
                [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]],
            ],
            5,
        ),
        ([[[1, 1], [0, 1]], [[1, 0], [1, 1]]], 7),  # the braid pair, relation of length 6
    ]
    for gens, max_len in cases:
        verdict = free_word_oracle([_obj(g) for g in gens], max_len)
        relation, checked = _brute_force_oracle(gens, max_len)
        assert verdict.relation == relation, gens
        assert verdict.words_checked == checked, gens


# verdicts and failure sets of the certified interval path, recorded with
# the Fraction implementation that preceded the integer one
CERTIFIED_EXPECTED = {
    "rational": ("certified-free", []),
    "hyperbolic": ("certified-free", []),
    "walk0": ("not-certified", ["cross-margin"]),
    "walk1": ("certified-free", []),
    "walk2": ("certified-free", []),
    "walk3": ("not-certified", ["own-separation"]),
    "walk4": ("not-certified", ["cross-margin"]),
    "walk5": ("certified-free", []),
    "walk6": ("certified-free", []),
    "walk7": ("not-certified", ["cross-margin"]),
}


def _certified_fixtures(real_field):
    """The acceptance 3a tuples and eight Sanov walk pairs of length 16."""
    a_exact = _obj([[100, 0], [0, F(1, 100)]])
    r345 = _obj([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]])
    yield "rational", [a_exact, r345 @ a_exact @ r345.T], 0.5, 0.02
    words = [as_matrix([[5, 2], [2, 1]], real_field), as_matrix([[1, 2], [2, 5]], real_field)]
    yield "hyperbolic", words, 0.5, 0.18
    m = corpus.sanov()
    for rep in range(8):
        gs = []
        for stream in (2 * rep, 2 * rep + 1):
            g = exact_product(m, run_walk(m, 16, seed=314, stream=stream).increments)
            gs.append(as_matrix(np.array(g, dtype=float), real_field))
        yield f"walk{rep}", gs, 0.2, 0.05


def test_certified_interval_verdicts_pinned(real_field):
    for name, gs, r, eps in _certified_fixtures(real_field):
        doc = pingpong_certificate(gs, r, eps, real_field, certified=True).to_json_dict(real_field)
        assert doc["mode"] == "certified-interval"
        assert (doc["verdict"], doc["failures"]) == CERTIFIED_EXPECTED[name], name


def _fraction_pole_bounds(g):
    """Reference for the certified pole bounds in plain Fraction arithmetic."""
    gf = np.array(g, dtype=float)
    k, _, u = np.linalg.svd(gf)
    v = [F(float(x)) for x in k[:, 0]]
    h = [F(float(x)) for x in u[0, :]]
    P, S = g @ g.T, g.T @ g
    W = min(max(sum(abs(x) for x in row) for row in exterior_square(M)) for M in (P, S))

    def bounds(A, x):
        xx = sum(c * c for c in x)
        Ax = [sum(a * c for a, c in zip(row, x)) for row in A]
        lam = sum(a * c for a, c in zip(Ax, x)) / xx
        rho_sq = sum((a - lam * c) ** 2 for a, c in zip(Ax, x)) / xx
        gap = lam - W / lam
        if gap <= 0:
            return None
        return lam, Interval(0.0, (Interval.exact(rho_sq).sqrt() / Interval.exact(gap)).hi)

    bv, bh = bounds(P, v), bounds(S, h)
    if bv is None or bh is None:
        return None
    return v, h, W / max(bv[0], bh[0]) ** 2, bv[1], bh[1]


def test_certified_pole_bounds_match_fraction_reference(real_field):
    for name, gs, _, _ in _certified_fixtures(real_field):
        poles, refs = [], []
        for g in gs:
            for x in (exact_matrix(np.asarray(g)), exact_inv(exact_matrix(np.asarray(g)))):
                a, den = _integer_form(x)
                poles += _certified_poles([(a.tolist(), den)])
                # the bounds do not depend on the scale of the integer form
                assert _certified_poles([((7 * a).tolist(), 7 * den)]) == poles[-1:], name
                refs.append(_fraction_pole_bounds(x))
        for pole, (v, h, ratio_sq, sin_v, sin_h) in zip(poles, refs):
            assert pole.ratio_sq_upper == ratio_sq, name
            assert ((0.0, pole.sin_v), (0.0, pole.sin_h)) == ((sin_v.lo, sin_v.hi), (sin_h.lo, sin_h.hi)), name
        for p, (v, _, _, sin_v, _) in zip(poles, refs):
            for q, (_, h, _, _, sin_h) in zip(poles, refs):
                num_sq = sum(a * b for a, b in zip(h, v)) ** 2
                den_sq = sum(a * a for a in v) * sum(b * b for b in h)
                sep = Interval.exact(num_sq).sqrt() / Interval.exact(den_sq).sqrt()
                ref = sep - Interval.exact(2).sqrt() * (sin_v + sin_h)
                assert _certified_separation(p, q) == ref.lo, name


def _svd_candidates(g):
    """Top left and right singular vectors of the float rounding of g: the certified path's candidates."""
    k, _, u = np.linalg.svd(np.asarray([[float(x) for x in row] for row in g], dtype=float))
    return k[:, 0], u[0, :]


def _inverse_candidates(g):
    """Candidates for g^{-1}: at d = 2 g's turned by J (J u_0 for the point, J k_0 for the covector),
    from d = 3 on those of g^{-1}'s own SVD."""
    if len(g) > 2:
        return _svd_candidates(exact_inv(exact_matrix(np.asarray(g))))
    k0, u0 = _svd_candidates(g)
    return np.array([-u0[1], u0[0]]), np.array([-k0[1], k0[0]])


# The Interval-based certified path that preceded the endpoint one, kept
# as the reference for its failure sets.
def _interval_pole(g_exact, candidates):
    vhat, v_den = _integer_form(candidates[0])
    hhat, h_den = _integer_form(candidates[1])
    a, den = _integer_form(g_exact)
    P, S = a @ a.T, a.T @ a
    W = min(max(sum(abs(x) for x in row) for row in exterior_square(M)) for M in (P, S))
    den_sq = den * den

    def bounds(A, x):
        xx = sum(c * c for c in x)
        Ax = A @ x
        ln = sum(c * y for c, y in zip(x, Ax))
        res = xx * Ax - ln * x
        gap_num = ln * ln - W * xx * xx
        if gap_num <= 0:
            return None
        rho_sq = F(sum(c * c for c in res), den_sq * den_sq * xx**3)
        sin_bound = Interval.exact(rho_sq).sqrt() / Interval.exact(F(gap_num, den_sq * xx * ln))
        return F(W * xx * xx, ln * ln), Interval(0.0, sin_bound.hi)

    bv, bh = bounds(P, vhat), bounds(S, hhat)
    if bv is None or bh is None:
        return None
    return vhat, v_den, hhat, h_den, min(bv[0], bh[0]), bv[1], bh[1]


def _interval_separation(p, q):
    v, v_den, sin_v = p[0], p[1], p[5]
    h, h_den, sin_h = q[2], q[3], q[6]
    scale_sq = (v_den * h_den) ** 2
    num_sq = F(sum(a * b for a, b in zip(h, v)) ** 2, scale_sq)
    den_sq = F(sum(a * a for a in v) * sum(b * b for b in h), scale_sq)
    sep = Interval.exact(num_sq).sqrt() / Interval.exact(den_sq).sqrt()
    return sep - Interval.exact(2).sqrt() * (sin_v + sin_h)


def _interval_poles(gs):
    poles = []
    for g in gs:
        ge = exact_matrix(np.asarray(g))
        poles += [_interval_pole(ge, _svd_candidates(ge)), _interval_pole(exact_inv(ge), _inverse_candidates(ge))]
    return poles


def _interval_failures(poles, seps, r, eps):
    """Failure set from the poles and their separations seps[a][b] = _interval_separation(poles[a], poles[b])."""
    if any(p is None for p in poles):
        return {"uncertified-geometry"}
    failures = set()
    if any(not p[4] <= F(eps) ** 4 for p in poles):
        failures.add("own-contraction")
    for a, row in enumerate(seps):
        for b, sep in enumerate(row):
            if a == b and not sep.certainly_gt(r):
                failures.add("own-separation")
            elif a // 2 != b // 2 and not sep.certainly_ge(r):
                failures.add("cross-margin")
    return failures


# The per-matrix certified path that the one-SVD pass replaced (an SVD per pole, W from the
# object exterior_square), kept as the reference for _certified_bounds.
def _per_matrix_pole(a, den, candidates=None):
    rows = a.tolist()
    cols = list(zip(*rows))
    if candidates is None:
        k, _, u = np.linalg.svd(np.array([[x / den for x in row] for row in rows]))
        candidates = k[:, 0], u[0, :]
    vhat, v_den = _integer_form(candidates[0])
    hhat, h_den = _integer_form(candidates[1])
    vhat, hhat = tuple(vhat.tolist()), tuple(hhat.tolist())

    def dot(x, y):
        return sum(p * q for p, q in zip(x, y))

    P = [[dot(r, c) for c in rows] for r in rows]
    S = [[dot(r, c) for c in cols] for r in cols]
    W = min(max(sum(map(abs, row)) for row in exterior_square(np.array(M, dtype=object))) for M in (P, S))
    den_sq = den * den

    def pole_bounds(A, x):
        xx = dot(x, x)
        Ax = [dot(row, x) for row in A]
        ln = dot(x, Ax)
        res = [xx * p - ln * c for p, c in zip(Ax, x)]
        gap_num = ln * ln - W * xx * xx
        if gap_num <= 0:
            return None
        rho = _sqrt(*_enclose(dot(res, res), den_sq * den_sq * xx**3))
        return F(W * xx * xx, ln * ln), _div(*rho, *_enclose(gap_num, den_sq * xx * ln))[1], xx

    bv, bh = pole_bounds(P, vhat), pole_bounds(S, hhat)
    if bv is None or bh is None:
        return None
    return _CertifiedPole(v=vhat, v_den=v_den, vv=bv[2], h=hhat, h_den=h_den, hh=bh[2],
                          ratio_sq_upper=min(bv[0], bh[0]), sin_v=bv[1], sin_h=bh[1])


def _per_matrix_poles(gs, turned=True):
    """Poles of g and g^{-1} per matrix; turned: g^{-1}'s candidates as _certified_bounds takes them
    (J-turns of g's at d = 2), else from g^{-1}'s own SVD, as _certified_poles takes them."""
    poles = []
    for g in gs:
        a, den = _integer_form(g)
        _, adj, det = _faddeev_leverrier(a)
        sign = 1 if det > 0 else -1
        inverse = _inverse_candidates(g) if turned else None
        poles += [_per_matrix_pole(a, den), _per_matrix_pole(sign * den * adj, sign * det, inverse)]
    return poles


def _walk_word_tuples(rng, count):
    """Tuples of walk words over R: Sanov, positive and SL_3(Z) words as
    float matrices, rational rotation-stretch words as exact Fractions."""
    measures = [
        (corpus.sanov(), True),
        (corpus.positive_matrices(), True),
        (corpus.sl3_integer(), True),
        (corpus.slow_contracting(), False),
    ]
    for i in range(count):
        m, as_float = measures[i % len(measures)]
        gs = []
        for _ in range(3 if i % 5 == 0 else 2):
            word = [rng.randrange(len(m.atoms)) for _ in range(rng.randint(2, 24))]
            g = exact_product(m, word[::-1])
            gs.append(np.array(g, dtype=float) if as_float else g)
        yield gs


def test_endpoint_constants_equal_interval_forms():
    sqrt2 = Interval.exact(2).sqrt()
    assert pingpong._SQRT2 == (sqrt2.lo, sqrt2.hi)


def test_certified_failures_match_interval_reference():
    rng = random.Random(909)
    # Fraction thresholds too: the upper enclosure of r, not its nearest double, is compared
    thresholds = [(0.2, 0.05), (0.5, 0.02), (0.3, 0.1), (0.05, 0.01), (0.9, 0.3), (F(1, 3), F(1, 10))]
    checked = boundary = 0
    for i, gs in enumerate(_walk_word_tuples(rng, 1000)):
        poles = _interval_poles(gs)
        seps = []
        cases, belows = [thresholds[i % len(thresholds)]], []
        if all(p is not None for p in poles):
            seps = [[_interval_separation(p, q) for q in poles] for p in poles]
        if seps and i % 3 == 0:
            # r at a separation's lower endpoint: certainly_gt fails there, certainly_ge holds
            own = min(seps[a][a].lo for a in range(len(poles)))
            cross = min(row[b].lo for a, row in enumerate(seps) for b in range(len(row)) if a // 2 != b // 2)
            if own > 0:
                assert "own-separation" in _interval_failures(poles, seps, own, 0.3)
                cases.append((own, 0.3))
            if cross > 0:
                assert "cross-margin" not in _interval_failures(poles, seps, cross, 0.3)
                # just below cross, r rounds to cross, but its upper enclosure lies above it
                below = F(cross) - F(1, 10**40)
                assert "cross-margin" in _interval_failures(poles, seps, below, 0.3)
                cases.append((cross, 0.3))
                belows.append((below, 0.3))
        for r, eps in cases + belows:
            assert _certified_failures_real(gs, r, eps) == _interval_failures(poles, seps, r, eps), (i, r, eps)
            checked += 1
        boundary += len(cases) - 1
    assert checked >= 1000 and boundary >= 200


def _sl4_tuples(rng, count):
    """Pairs of SL_4(Z) matrices as floats: the cube of a hyperbolic block matrix and a random conjugate of it."""
    base = np.array([[12, 5, 0, 1], [7, 3, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=object)
    g = base @ base @ base
    for _ in range(count):
        c = np.array(random_unimodular_int(rng, 4, max_entry=6, steps=8), dtype=object)
        yield [g.astype(float), (c @ g @ exact_inv(c)).astype(float)]


def test_certified_bounds_equal_per_matrix_reference():
    rng = random.Random(3838)
    cases = list(_walk_word_tuples(rng, 400)) + list(_sl4_tuples(rng, 20))
    counts = {}
    for gs in cases:
        d, m = len(gs[0]), len(gs)
        want = _per_matrix_poles(gs)
        forms = []
        for g in gs:
            a, den = _integer_form(g)
            inv, inv_den = _integer_form(exact_inv(exact_matrix(np.asarray(g))))
            forms += [(a.tolist(), den), (inv.tolist(), inv_den)]
        # pole for pole, in one SVD and from any integer form of g^{-1}, with per-matrix SVD candidates
        assert _certified_poles(forms) == _per_matrix_poles(gs, turned=False), gs
        if d > 2:
            assert want == _per_matrix_poles(gs, turned=False)
        bounds = _certified_bounds(gs)
        if any(p is None for p in want):
            assert bounds is None
            continue
        ratio_sq, sep = bounds
        assert ratio_sq.dtype == object and list(ratio_sq) == [p.ratio_sq_upper for p in want]
        ref = [[_certified_separation(p, q) if i == j or i // 2 != j // 2 else np.inf for j, q in enumerate(want)]
               for i, p in enumerate(want)]
        assert sep.dtype == float and np.array_equal(sep, np.array(ref))
        counts[d, m] = counts.get((d, m), 0) + 1
    # certified tuples of 2 and 3 generators at d = 2 and 3, and pairs at d = 4
    assert set(counts) == {(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)}, counts


def _d2_generators(rng, count):
    """2 x 2 generators for the J-turn identities: SL_2(Z) walk words and shears, matrices whose exact
    det is not 1 (scaled, row-swapped, rational and random float ones), multiples of rotations, whose
    spectral gap is 0 and so not certified, and near-isometries."""
    nprng = np.random.default_rng(46)
    sanov, positive = corpus.sanov(), corpus.positive_matrices()
    r345 = np.array([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]], dtype=object)
    for i in range(count):
        m = (sanov, positive)[i % 2]
        g = np.array(exact_product(m, [rng.randrange(len(m.atoms)) for _ in range(rng.randint(1, 20))]), dtype=object)
        kind = i % 7
        if kind == 6:
            n = rng.randint(2, 10**6)
            rot = np.linalg.matrix_power(r345, rng.randint(0, 3)) * rng.choice([1, 3, F(-1, 7)])
            yield rot if i % 2 else rot @ np.array([[F(n + 1, n), 0], [0, F(n, n + 1)]], dtype=object)
            continue
        if kind == 0:
            yield g.astype(float)
        elif kind == 1:
            yield np.array(random_unimodular_int(rng, 2, steps=16), dtype=object) * rng.choice([2, 3, -5])
        elif kind == 2:
            yield g[::-1].astype(float)
        elif kind == 3:
            yield g * F(rng.randint(1, 9), rng.randint(1, 9))
        elif kind == 4:
            yield nprng.standard_normal((2, 2)) * np.exp(nprng.uniform(-5, 5, (2, 1)))
        else:
            yield g


def test_turned_pole_is_the_certified_pole_of_the_adjugate():
    # g^{-1}'s pole at d = 2 is g's turned by J: _certified_pole_real of adj(a) = J a^T J^T with the
    # candidates J h and J v, ==, whatever det(g) is
    rng = random.Random(4646)
    J = np.array([[0, -1], [1, 0]], dtype=object)
    seen = {True: 0, False: 0}
    for g in _d2_generators(rng, 600):
        a, den = _integer_form(g)
        adj = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]], dtype=object)
        assert (adj == J @ a.T @ J.T).all() and (adj == adjugate(a)).all()
        k0, u0 = _svd_candidates(g)
        pole = _certified_pole_real(a.tolist(), den, k0.tolist(), u0.tolist())
        assert _certified_poles([(a.tolist(), den)]) == [pole]
        want = _certified_pole_real(adj.tolist(), den, [-u0[1], u0[0]], [-k0[1], k0[0]])
        if pole is None:
            assert want is None
        else:
            assert _turned_pole(pole) == want
            assert _turned_pole(_turned_pole(pole)) == _certified_pole_real(a.tolist(), den, [-k0[0], -k0[1]],
                                                                            [-u0[0], -u0[1]])
        seen[pole is None] += 1
    assert min(seen.values()) >= 20, seen


def _direct_bounds(poles):
    """ratio_sq and sep of a pole list with every separation computed, none copied."""
    sep = [[_certified_separation(p, q) if i == j or i // 2 != j // 2 else np.inf for j, q in enumerate(poles)]
           for i, p in enumerate(poles)]
    return [p.ratio_sq_upper for p in poles], sep


def test_turned_bounds_and_separations_at_d2():
    # _certified_bounds at d = 2, tuples of 2 and 3 generators: poles g, J-turn of g, ..., every
    # separation equal to a direct _certified_separation, and sep[p~][q~] == sep[q][p]
    rng = random.Random(4647)
    gens = list(_d2_generators(rng, 360))
    counts = {2: 0, 3: 0}
    for t in range(0, len(gens) - 3, 5):
        gs = gens[t:t + 2 + t % 2]
        bounds = _certified_bounds(gs)
        poles = []
        for g in gs:
            a, den = _integer_form(g)
            k0, u0 = _svd_candidates(g)
            poles.append(_certified_pole_real(a.tolist(), den, k0.tolist(), u0.tolist()))
            adj = adjugate(a).tolist()
            poles.append(_certified_pole_real(adj, den, [-u0[1], u0[0]], [-k0[1], k0[0]]))
        if any(p is None for p in poles):
            assert bounds is None
            continue
        ratio_sq, sep = bounds
        want_ratio, want_sep = _direct_bounds(poles)
        assert ratio_sq.dtype == object and list(ratio_sq) == want_ratio
        assert all(ratio_sq[i] == ratio_sq[i ^ 1] for i in range(len(poles)))
        assert sep.dtype == float and np.array_equal(sep, np.array(want_sep))
        for i in range(len(poles)):
            for j in range(len(poles)):
                assert sep[i ^ 1, j ^ 1] == sep[j, i], (i, j)
        counts[len(gs)] += 1
    assert min(counts.values()) >= 10, counts


def test_certified_bounds_call_counts(monkeypatch):
    # per d = 2 pair, 2 poles are bounded and 6 of the 12 separations computed; from d = 3 on, 4 and 12
    calls = {"pole": 0, "sep": 0}
    pole_real, separation = pingpong._certified_pole_real, pingpong._certified_separation

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pingpong, "_certified_pole_real", counted("pole", pole_real))
    monkeypatch.setattr(pingpong, "_certified_separation", counted("sep", separation))
    a = np.array([[2, 1], [1, 1]], dtype=object)
    b = np.array([[1, 1], [1, 2]], dtype=object)
    c = np.array([[5, 2], [2, 1]], dtype=object)
    g3 = np.array([[2, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=object)
    h3 = np.array([[1, 0, 0], [0, 2, 1], [0, 1, 1]], dtype=object)
    for gs, want in (([a, b], (2, 6)), ([a, b, c], (3, 15)), ([g3, h3], (4, 12))):
        calls.update(pole=0, sep=0)
        assert _certified_bounds(gs) is not None
        assert (calls["pole"], calls["sep"]) == want, len(gs)


def test_certified_bounds_rejects_singular():
    # at d = 2 the 2 x 2 integer determinant raises, as the Faddeev-LeVerrier pass does from d = 3 on
    good = np.array([[2, 1], [1, 1]], dtype=object)
    cases = [
        [good, np.array([[1, 2], [2, 4]], dtype=object)],
        [np.array([[F(1, 3), F(2, 3)], [F(1, 2), 1]], dtype=object), good],
        [good, np.zeros((2, 2))],
        [np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=object), np.eye(3, dtype=int).astype(object)],
    ]
    for gs in cases:
        with pytest.raises(DomainError, match="matrix is singular"):
            _certified_bounds(gs)


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_stacked_svd_equals_svd_per_matrix(d):
    # _certified_poles takes every candidate from one SVD of the stack
    rng = np.random.default_rng(38 + d)
    x = rng.standard_normal((2000, d, d)) * np.exp(rng.uniform(-30, 30, (2000, 1, 1)))
    k, s, u = np.linalg.svd(x)
    for i, g in enumerate(x):
        ki, si, ui = np.linalg.svd(g)
        assert np.array_equal(ki, k[i]) and np.array_equal(si, s[i]) and np.array_equal(ui, u[i])


def test_certified_bounds_sound_at_their_own_thresholds():
    # r just below the least separation bound read, eps with eps**4 at the largest ratio bound:
    # every tuple valid there (r > 2 eps) certifies, and the exact oracle finds no relation in it
    rng = random.Random(2024)
    certified = 0
    for gs in _walk_word_tuples(rng, 300):
        bounds = _certified_bounds(gs)
        if bounds is None:
            continue
        ratio_sq, sep = bounds
        assert ratio_sq.shape == (2 * len(gs),) and sep.shape == (2 * len(gs),) * 2
        r = float(np.nextafter(sep.min(), 0))
        eps = float(max(ratio_sq)) ** 0.25
        while F(eps) ** 4 < max(ratio_sq):
            eps = float(np.nextafter(eps, 1))
        if not r > 2 * eps:
            continue
        assert _certified_failures_real(gs, r, eps) == set()
        assert not free_word_oracle([exact_matrix(np.asarray(g)) for g in gs], 8).found
        certified += 1
    assert certified >= 50


def test_tuple_failure_reasons_mixed_dtypes():
    # exact ratios with float margins: eps**2 meets the ratios as a Fraction, r the margins as a float
    r, eps = 0.5, 0.125
    ratio = np.array([[F(1, 64)] * 4, [F(1, 100)] * 4, [F(1, 64) + F(1, 10**30)] * 4], dtype=object)
    margins = np.full((3, 4, 4), 0.75)
    margins[0, 1, 1] = r  # an own separation equal to r
    margins[1, 1, 2] = r  # a cross margin equal to r
    reasons = tuple_failure_reasons(ratio, margins, r, eps)
    assert reasons["own-contraction"].tolist() == [False, False, True]
    assert reasons["own-separation"].tolist() == [True, False, False]
    assert reasons["cross-margin"].tolist() == [False, False, False]


@pytest.mark.parametrize("field_name", ["R", "Q3"])
def test_malformed_generator_tuples_rejected(field_name, real_field, q3):
    field = real_field if field_name == "R" else q3
    a, i3 = as_matrix([[1, 2], [0, 1]], field), as_matrix(np.eye(3, dtype=int), field)
    calls = [
        lambda: free_word_oracle([], 4),
        lambda: free_word_oracle([[[1, 2], [0, 1]], np.eye(3, dtype=int)], 4),
        lambda: free_word_oracle([[[1, 2], [0]]], 4),
        lambda: free_word_oracle([[[1, 2, 0], [0, 1, 0]]], 4),
        lambda: free_word_oracle([[1, 2]], 4),
        lambda: pingpong_certificate([], 0.5, 0.1, field),
        lambda: pingpong_certificate([a, i3], 0.5, 0.1, field),
        lambda: pingpong_certificate([a, i3], 0.5, 0.1, field, certified=True),
        lambda: pingpong_certificate([a, a[:1]], 0.5, 0.1, field, certified=True),
    ]
    for call in calls:
        with pytest.raises((UsageError, DomainError)):
            call()
