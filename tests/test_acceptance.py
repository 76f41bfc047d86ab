"""Acceptance suite: one test (or test group) per criterion, fixed seeds.

Each criterion prints one PASS/FAIL line.  Criteria 3 and 6 carry strict
expected-failure companions where the stated numbers are mathematically
unattainable (minimal-relation length, fractal plateau of the invariant
measure); the xfail reasons carry the analysis.  The phenomena those
criteria target are demonstrated with honest parameters alongside.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import freewalk as fw
from freewalk import corpus
from freewalk.cli import main as cli_main
from freewalk.estimators import Z95
from freewalk.linalg import exact_inv
from freewalk.pingpong import pingpong_certificate
from freewalk.report import dumps_json
from freewalk.walks import exact_product, run_walk

from conftest import is_isometry, random_unimodular_int

F = Fraction
SEED = 20240601
REAL = fw.FieldSpec.real()


def _report(criterion, ok, detail="", t0=None, budget=None):
    extra = ""
    if t0 is not None:
        elapsed = time.monotonic() - t0
        extra = f" [{elapsed:.1f}s of {budget}s]" if budget else f" [{elapsed:.1f}s]"
        if budget is not None:
            ok = ok and elapsed <= budget
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}{extra}")
    return ok


# ---------------------------------------------------------------------------
# 1. Decomposition suite
# ---------------------------------------------------------------------------


def test_acceptance_01_decomposition_suite():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    padic_fields = [fw.FieldSpec.padic(p) for p in (2, 3, 5)]
    count = 0
    for d in (2, 3):
        for _ in range(5000):
            rows = random_unimodular_int(rng, d)
            count += 1
            g = fw.as_matrix(rows, REAL)
            dec = fw.kak(g, REAL)
            scale = max(1.0, float(np.max(np.abs(g))))
            assert float(np.max(np.abs(dec.reconstruct(REAL) - g))) <= 1e-9 * scale
            assert abs(dec.a[0] - fw.operator_norm(g, REAL)) <= 1e-9 * dec.a[0]
            assert is_isometry(dec.k, REAL) and is_isometry(dec.u, REAL)
            field = padic_fields[count % 3]
            gq = fw.as_matrix(rows, field)
            decq = fw.kak(gq, field)
            assert (decq.reconstruct(field) == gq).all()
            assert fw.abs_value(decq.a[0], field) == fw.operator_norm(gq, field)
            assert is_isometry(decq.k, field) and is_isometry(decq.u, field)
    assert _report(1, count == 10000, f"{count} matrices, reconstruction/isometry/norm checks", t0, 60)


# ---------------------------------------------------------------------------
# 2. Contraction mapping property
# ---------------------------------------------------------------------------


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rot3(rng):
    q, _ = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)]))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_acceptance_02_mapping_property():
    t0 = time.monotonic()
    rng = random.Random(SEED + 1)
    checked = 0
    for eps in (0.3, 0.1, 0.02):
        mats = []
        for i in range(100):  # archimedean: 80 in SL_2, 20 in SL_3
            if i < 80:
                t = (1 / eps) * (1 + rng.random())
                m = _rot(rng.uniform(0, math.pi)) @ np.diag([t, 1 / t]) @ _rot(rng.uniform(0, math.pi))
            else:
                t = (1 / eps**2) * (1 + rng.random())
                m = _rot3(rng) @ np.diag([t, 1.0, 1 / t]) @ _rot3(rng)
            mats.append((fw.as_matrix(m, REAL), REAL))
        for i in range(100):  # nonarchimedean, alternating primes
            p = (2, 3, 5)[i % 3]
            field = fw.FieldSpec.padic(p)
            a = 1
            while float(p) ** (-2 * a) > eps * eps:
                a += 1
            k1 = fw.as_matrix(random_unimodular_int(rng, 2), field)
            k2 = fw.as_matrix(random_unimodular_int(rng, 2), field)
            diag = fw.as_matrix([[F(1, p**a), 0], [0, F(p**a)]], field)
            mats.append((k1 @ diag @ k2, field))
        for g, field in mats:
            ok, data = fw.is_eps_contracting(g, eps, field)
            assert ok
            d = g.shape[0]
            points = 0
            while points < 1000:
                x = fw.as_vector([rng.randint(-20, 20) for _ in range(d)], field)
                if all(v == 0 for v in x):
                    continue
                dxh = fw.dist_point_hyperplane(x, data.h, field)
                if dxh <= eps:
                    continue
                points += 1
                checked += 1
                img = fw.fubini_study(g @ x, data.v, field)
                bound = data.ratio / dxh
                if field.is_archimedean:
                    assert img <= bound + 1e-9
                else:
                    assert img <= bound
                assert img < eps
    assert _report(2, checked == 3 * 200 * 1000, f"{checked} point maps, 100% inside the eps-ball", t0, 120)


# ---------------------------------------------------------------------------
# 3. Certificate soundness and the non-free control
# ---------------------------------------------------------------------------


def _exact_rational_pair():
    a = fw.as_matrix([[100, 0], [0, F(1, 100)]], REAL)
    r345 = np.array([[3 / 5, -4 / 5], [4 / 5, 3 / 5]])
    b = fw.as_matrix(r345 @ np.diag([100.0, 0.01]) @ r345.T, REAL)
    a_exact = np.array([[F(100), F(0)], [F(0), F(1, 100)]], dtype=object)
    r = [[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]]
    rq = np.array(r, dtype=object)
    b_exact = rq @ a_exact @ rq.T
    return (a, b), (a_exact, b_exact)


def test_acceptance_03a_certified_tuples_pass_oracle():
    t0 = time.monotonic()
    sound = []

    (a, b), (a_exact, b_exact) = _exact_rational_pair()
    cert = pingpong_certificate([a, b], 0.5, 0.02, REAL)
    assert cert.certified
    cert_iv = pingpong_certificate([a_exact, b_exact], 0.5, 0.02, REAL, certified=True)
    assert cert_iv.certified and cert_iv.mode == "certified-interval"
    assert not fw.free_word_oracle([a_exact, b_exact], 10).found
    sound.append("diagonal/345-conjugate")

    # hyperbolic words in the Sanov generators: shear powers are parabolic,
    # their own-separation collapses onto 2*eps and can never clear r > 2*eps
    ab = np.array([[5, 2], [2, 1]], dtype=object)
    ba = np.array([[1, 2], [2, 5]], dtype=object)
    cert2 = pingpong_certificate(
        [fw.as_matrix(np.array(ab, dtype=float), REAL), fw.as_matrix(np.array(ba, dtype=float), REAL)],
        0.5,
        0.18,
        REAL,
    )
    assert cert2.certified
    assert not fw.free_word_oracle([ab, ba], 10).found
    sound.append("sanov hyperbolic words")

    # random certified pairs from independent Sanov walks at n = 16
    m = corpus.sanov()
    certified_pairs = 0
    for rep in range(8):
        if certified_pairs == 3:
            break
        s1 = run_walk(m, 16, seed=314, stream=2 * rep)
        s2 = run_walk(m, 16, seed=314, stream=2 * rep + 1)
        g1 = exact_product(m, s1.increments)
        g2 = exact_product(m, s2.increments)
        cert = pingpong_certificate(
            [fw.as_matrix(np.array(g1, dtype=float), REAL), fw.as_matrix(np.array(g2, dtype=float), REAL)],
            0.2,
            0.05,
            REAL,
        )
        if not cert.certified:
            continue
        certified_pairs += 1
        assert not fw.free_word_oracle([g1, g2], 10).found
    assert certified_pairs == 3
    sound.append("3 certified walk pairs")
    assert _report("3a", True, "certified tuples all pass the exact oracle: " + ", ".join(sound), t0, 300)


def test_acceptance_03b_nonfree_pair_relation_and_no_certificate():
    t0 = time.monotonic()
    a = np.array([[1, 1], [0, 1]], dtype=object)
    b = np.array([[1, 0], [1, 1]], dtype=object)
    verdict = fw.free_word_oracle([a, b], 12)
    assert verdict.found
    # the braid relation a b^-1 a = b^-1 a b^-1 gives the true minimal
    # identity word, at length 6; the classical relation (a b^-1 a)^4 also
    # holds (verified below) but is not the first one
    assert len(verdict.relation) == 6
    assert verdict.relation_word() == "abAbaB"
    assert not fw.free_word_oracle([a, b], 5).found

    # the length-12 relation the criterion names does hold exactly
    a_inv = exact_inv(a)
    b_inv = exact_inv(b)
    s = a @ b_inv @ a
    s4 = s @ s @ s @ s
    assert all(s4[i][j] == (1 if i == j else 0) for i in range(2) for j in range(2))

    af = fw.as_matrix([[1.0, 1.0], [0.0, 1.0]], REAL)
    bf = fw.as_matrix([[1.0, 0.0], [1.0, 1.0]], REAL)
    tried = [(0.5, 0.02), (0.84, 0.41), (0.9, 0.44), (0.7, 0.3), (0.95, 0.47), (0.3, 0.1), (0.25, 0.06)]
    for r, eps in tried:
        ok, _ = fw.is_pingpong_tuple([af, bf], r, eps, REAL)
        assert not ok
    assert _report(
        "3b",
        True,
        f"non-free pair: relation {verdict.relation_word()} (len 6), (a.b^-1.a)^4 = I, "
        f"never certified at {len(tried)} thresholds",
        t0,
        300,
    )


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the braid relation abAbaB (length 6) "
    "precedes the classical length-12 relation (a b^-1 a)^4, so a "
    "shortest-first oracle necessarily returns the length-6 word",
)
def test_acceptance_03c_literal_length12_first_relation():
    a = np.array([[1, 1], [0, 1]], dtype=object)
    b = np.array([[1, 0], [1, 1]], dtype=object)
    verdict = fw.free_word_oracle([a, b], 12)
    assert verdict.found and len(verdict.relation) == 12


# ---------------------------------------------------------------------------
# 4. Lyapunov closed forms
# ---------------------------------------------------------------------------


def test_acceptance_04_lyapunov_closed_forms():
    t0 = time.monotonic()
    est = fw.lyapunov_estimate(corpus.diagonal_point_mass(), 50, 10, seed=SEED)
    assert abs(est.lambda1_hat - math.log(2)) <= 1e-8
    assert est.ci_half_widths == (0.0, 0.0, 0.0)

    est_rot = fw.lyapunov_estimate(corpus.rotation_point_mass(), 50, 10, seed=SEED)
    assert est_rot.lambda1_hat == 0.0

    est_p = fw.lyapunov_estimate(corpus.padic_diagonal_point_mass(3), 30, 10, seed=SEED)
    assert abs(est_p.lambda1_hat - math.log(3)) <= 1e-8

    sl2_corpus = [
        corpus.positive_matrices(),
        corpus.sanov(),
        corpus.slow_contracting(),
        corpus.diagonal_point_mass(),
        corpus.rotation_point_mass(),
        corpus.padic_contracting(3),
    ]
    for m in sl2_corpus:
        est_m = fw.lyapunov_estimate(m, 60, 20, seed=SEED)
        l1_plus_l2 = est_m.lambda1_hat + est_m.lambda2_hat
        assert abs(l1_plus_l2) <= max(est_m.ci_half_widths[1], 1e-9)
    assert _report(4, True, "log 2 / 0 / log 3 closed forms; |l1+l2| <= CI on 6 SL_2 measures", t0, 60)


# ---------------------------------------------------------------------------
# 5. Gap positivity
# ---------------------------------------------------------------------------


def test_acceptance_05_gap_positivity(positive_measure):
    t0 = time.monotonic()
    est = fw.lyapunov_estimate(positive_measure, 200, 200, seed=SEED)
    verdict = fw.gap_test(est)
    assert verdict.positive and verdict.gap - verdict.half_width > 0
    assert verdict.sl2_balanced
    assert _report(
        5, True, f"gap_hat={est.gap_hat:.4f} +- {verdict.half_width:.4f} (n=200, reps=200)", t0, 120
    )


# ---------------------------------------------------------------------------
# 6. Exponential decay of the non-ping-pong probability
# ---------------------------------------------------------------------------

GRID6 = (8, 16, 24, 32, 40)


def _non_increasing_within_wilson_slack(est):
    halves = [(hi - lo) / 2 for lo, hi in zip(est.ci_lo, est.ci_hi)]
    return all(
        est.p_hat[i + 1] <= est.p_hat[i] + 2 * (halves[i] + halves[i + 1])
        for i in range(len(est.p_hat) - 1)
    )


def _criterion6_conditions(est):
    fit = est.fit
    return (
        _non_increasing_within_wilson_slack(est)
        and fit is not None
        and fit.log_rho < 0
        and fit.r_squared >= 0.85
        and est.p_hat[-1] <= est.p_hat[0] / 4
    )


@pytest.fixture(scope="module")
def decay_stated_params(positive_measure):
    return fw.pingpong_decay(positive_measure, positive_measure, 0.95, 0.9, GRID6, 400, seed=SEED)


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the invariant measure of this walk is a "
    "two-island Cantor set (the two projective maps have disjoint image "
    "intervals), so delta(Z, Z') keeps ~0.5 of its mass below every "
    "threshold 0.95**n with n <= 40 and the pair-failure probability "
    "stalls near 0.75; 06b/06c demonstrate the decay at thresholds "
    "outside the plateau",
)
def test_acceptance_06a_decay_stated_parameters(decay_stated_params):
    est = decay_stated_params
    _report("6a (as stated)", _criterion6_conditions(est),
            f"p_hat={tuple(round(p, 4) for p in est.p_hat)} fit={est.fit}")
    assert _criterion6_conditions(est)


def test_acceptance_06b_decay_demonstrated(positive_measure):
    t0 = time.monotonic()
    est = fw.pingpong_decay(positive_measure, positive_measure, 0.8, 0.7, GRID6, 400, seed=SEED)
    ok = _criterion6_conditions(est)
    assert _report(
        "6b",
        ok,
        f"r_base=0.8 eps_base=0.7: p_hat={tuple(round(p, 4) for p in est.p_hat)} "
        f"slope={est.fit.log_rho:.4f} R2={est.fit.r_squared:.3f} "
        f"p(40)={est.p_hat[-1]:.4f} <= p(8)/4={est.p_hat[0] / 4:.4f}",
        t0,
        600,
    )


def test_acceptance_06c_decay_exact_padic():
    t0 = time.monotonic()
    m = corpus.padic_contracting(2)
    est = fw.pingpong_decay(m, m, 0.8, 0.7, GRID6, 200, seed=SEED)
    ok = (
        _non_increasing_within_wilson_slack(est)
        and est.fit is not None
        and est.fit.log_rho < 0
        and est.p_hat[-1] <= est.p_hat[0] / 4
    )
    assert _report(
        "6c",
        ok,
        f"exact p-adic route: p_hat={tuple(round(p, 4) for p in est.p_hat)} "
        f"slope={est.fit.log_rho:.4f} R2={est.fit.r_squared:.3f}",
        t0,
        600,
    )


# ---------------------------------------------------------------------------
# 7. Direction and KAK-frame convergence
# ---------------------------------------------------------------------------


def test_acceptance_07_direction_and_kak_convergence(positive_measure):
    t0 = time.monotonic()
    grid = [10, 20, 40]
    direction = fw.direction_convergence(positive_measure, [1, 1], grid, 160, 200, seed=SEED)
    frames = fw.kak_convergence(positive_measure, grid, 160, 200, seed=SEED)
    curves = {
        "direction": direction,
        "kak_k": frames.k_curve,
        "kak_u": frames.u_curve,
    }
    ok = True
    details = []
    for name, est in curves.items():
        decreasing = all(est.p_hat[i] > est.p_hat[i + 1] for i in range(len(grid) - 1))
        ok = ok and decreasing and est.fit is not None and est.fit.rho_hat < 1
        details.append(f"{name}: rho={est.fit.rho_hat:.4f}")
    assert _report(7, ok, "; ".join(details) + " (all strictly decreasing)", t0, 300)


# ---------------------------------------------------------------------------
# 8. Asymptotic independence of the KAK frames
# ---------------------------------------------------------------------------


def test_acceptance_08_asymptotic_independence(positive_measure):
    t0 = time.monotonic()
    phi1 = fw.holder_function("dist_to_point", ["1", "0"], REAL)
    phi2 = fw.holder_function("dist_to_point", ["0", "1"], REAL)
    r15 = fw.independence_test(positive_measure, phi1, phi2, 15, 2000, seed=SEED)
    r60 = fw.independence_test(positive_measure, phi1, phi2, 60, 2000, seed=SEED)
    stated = r60.discrepancy < r15.discrepancy
    # companion with a persistent-dependence measure: the decay is far
    # above Monte Carlo noise there (the positive-matrices walk decorrelates
    # within ~6 steps, leaving both stated discrepancies at the noise floor)
    slow = corpus.slow_contracting()
    s15 = fw.independence_test(slow, phi1, phi2, 15, 2000, seed=SEED)
    s60 = fw.independence_test(slow, phi1, phi2, 60, 2000, seed=SEED)
    companion = s60.discrepancy < s15.discrepancy and s15.discrepancy > 5 * s15.se
    assert _report(
        8,
        stated and companion,
        f"stated: {r60.discrepancy:.2e} < {r15.discrepancy:.2e}; "
        f"companion: {s60.discrepancy:.4f} < {s15.discrepancy:.4f} (se {s15.se:.4f})",
        t0,
        300,
    )


# ---------------------------------------------------------------------------
# 9. Tuple experiment
# ---------------------------------------------------------------------------


def test_acceptance_09_tuple_union_bound(positive_measure, decay_stated_params):
    t0 = time.monotonic()
    rho = decay_stated_params.fit.rho_hat
    res = fw.tuple_decay(
        positive_measure, 8, 0.95**40, 0.9**40, 40, 200, seed=SEED, rho_hat=rho
    )
    assert res.within_prediction
    assert _report(
        9,
        True,
        f"failure={res.failure_fraction:.3f} <= prediction={res.prediction:.3f} "
        f"+ 2*SE={2 * res.prediction_se:.3f} (prediction saturates at 1 because the "
        f"fitted pair rate does not decay at these thresholds)",
        t0,
        600,
    )


# ---------------------------------------------------------------------------
# 10. Determinism across runs and thread counts
# ---------------------------------------------------------------------------


def test_acceptance_10_byte_identical_outputs(tmp_path, positive_measure):
    import json

    (tmp_path / "positive.json").write_text(dumps_json(positive_measure.to_json_dict()))
    configs = {
        "decay": {
            "schema": "freewalk/config/v1",
            "kind": "decay",
            "measure": "positive.json",
            "grid": [8, 16],
            "reps": 100,
            "thresholds": {"r_base": 0.8, "eps_base": 0.7},
            "seed": SEED,
        },
        "direction": {
            "schema": "freewalk/config/v1",
            "kind": "direction",
            "measure": "positive.json",
            "grid": [5, 10],
            "horizon": 40,
            "reps": 50,
            "x": ["1", "1"],
            "seed": SEED,
        },
        "lyapunov": {
            "schema": "freewalk/config/v1",
            "kind": "lyapunov",
            "measure": "positive.json",
            "n": 100,
            "reps": 50,
            "seed": SEED,
        },
    }
    compared = 0
    for kind, doc in configs.items():
        cfg = tmp_path / f"{kind}.json"
        cfg.write_text(json.dumps(doc))
        outs = []
        for i, threads in enumerate((1, 3, 1)):
            out = tmp_path / f"{kind}-out{i}"
            code = cli_main([kind, str(cfg), "--out", str(out), "--threads", str(threads)])
            assert code == 0
            outs.append(out)
        for name in (f"{kind}.csv", f"{kind}.json"):
            blobs = [(o / name).read_bytes() for o in outs]
            assert blobs[0] == blobs[1] == blobs[2]
            compared += 1
    assert _report(10, compared == 6, "decay/direction/lyapunov byte-identical at threads 1/3 and rerun")
