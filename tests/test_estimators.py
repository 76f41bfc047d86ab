import math
from fractions import Fraction

import numpy as np
import pytest

from freewalk import (
    DomainError,
    FieldSpec,
    UsageError,
    direction_convergence,
    fit_geometric_decay,
    gap_test,
    holder_function,
    independence_test,
    invariant_measure_probe,
    kak_convergence,
    lyapunov_estimate,
    moment_ratio,
    pingpong_decay,
    tuple_decay,
    wilson_interval,
)
from freewalk import corpus, estimators
from freewalk.decompositions import log_norms, scaled_log_vector_norm
from freewalk.estimators import (
    FAILURE_KEYS,
    Z95,
    DecayEstimate,
    GeometricFit,
    KakFrameConvergence,
    _mean_se,
    _tuple_scores,
    _walk_poles,
)
from freewalk.fields import parse_scalar
from freewalk.linalg import exact_inv, fubini_study
from freewalk.pingpong import cross_margin_matrix, tuple_failure_reasons
from freewalk.walks import exact_product, make_measure, walk_indices, walk_products

F = Fraction


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and 0.95 < lo < 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(DomainError):
        wilson_interval(1, 0)


def test_fit_geometric_decay():
    ns = [1, 2, 3, 4]
    vals = [0.5 * 0.8**n for n in ns]
    fit = fit_geometric_decay(ns, vals, [0.01] * 4)
    assert fit.log_rho == pytest.approx(math.log(0.8), abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert fit.rho_hat == pytest.approx(0.8)
    # endpoint values are dropped
    assert fit_geometric_decay([1, 2, 3], [1.0, 0.0, 0.5], [0.1] * 3) is None


def test_lyapunov_point_mass_closed_form():
    est = lyapunov_estimate(corpus.diagonal_point_mass(), 50, 10, seed=1)
    assert est.lambda1_hat == pytest.approx(math.log(2), abs=1e-10)
    assert est.ci_half_widths == (0.0, 0.0, 0.0)  # zero variance
    assert est.lambda12_hat == 0.0  # SL_2 wedge is the determinant
    assert est.lambda2_hat == pytest.approx(-math.log(2), abs=1e-10)
    v = gap_test(est)
    assert v.positive and v.sl2_balanced


def test_lyapunov_isometry_exact_zero():
    est = lyapunov_estimate(corpus.rotation_point_mass(), 40, 10, seed=1)
    assert est.lambda1_hat == 0.0
    assert not gap_test(est).positive


def test_lyapunov_padic_closed_form():
    est = lyapunov_estimate(corpus.padic_contracting(3), 30, 10, seed=2)
    assert est.lambda1_hat == pytest.approx(math.log(3), abs=1e-9)
    assert est.lambda12_hat == pytest.approx(0.0, abs=1e-12)


def test_lyapunov_positive_measure_gap(positive_measure):
    est = lyapunov_estimate(positive_measure, 100, 60, seed=7)
    assert est.lambda1_hat > 0.5
    verdict = gap_test(est)
    assert verdict.positive and verdict.sl2_balanced
    # lambda_1 from ||S_n x|| agrees with the norm route (within joint CIs;
    # the O(1/n) finite-size offset needs n large enough)
    n, reps = 400, 40
    est_long = lyapunov_estimate(positive_measure, n, reps, seed=7)
    from freewalk import as_vector

    x = as_vector([1, 1], positive_measure.field)
    idx = walk_indices(positive_measure, n, seed=7, streams=range(reps))
    vals = [
        scaled_log_vector_norm(s, x, positive_measure.field) / n
        for s in walk_products(positive_measure.atoms, idx, positive_measure.field)
    ]
    mean, se = _mean_se(vals)
    assert abs(mean - est_long.lambda1_hat) <= Z95 * se + est_long.ci_half_widths[0]


def test_no_estimator_folds_a_wedge_table_at_d2(monkeypatch):
    # the exterior square of an SL_2 matrix is its determinant: every table folded is 2 x 2, on both fields
    shapes = []
    monkeypatch.setattr(estimators, "walk_products",
                        lambda *a, **k: shapes.append(np.shape(a[0])) or walk_products(*a, **k))
    m = corpus.positive_matrices()
    lyapunov_estimate(m, 20, 10, seed=1)
    pingpong_decay(m, m, 0.8, 0.7, [4, 8], 5, seed=1)
    tuple_decay(m, 3, 0.95, 0.9, 8, 4, seed=1)
    lyapunov_estimate(corpus.padic_contracting(3), 20, 10, seed=1)
    assert len(shapes) == 4 and all(shape[1:] == (2, 2) for shape in shapes), shapes


def test_d2_wedge_is_the_exact_determinant():
    # exact determinant 1, float determinant 0.9999999999999999: no float wedge reaches the results
    m = make_measure([[[F(7, 5), F(3, 5)], [1, F(8, 7)]]], [1], FieldSpec.real())
    assert lyapunov_estimate(m, 40, 10, seed=3).lambda12_hat == 0.0
    idx = walk_indices(m, 30, 3, range(6))
    _, _, ratios = _walk_poles([m], [[idx]])
    folds = estimators._fold([(m.atoms, idx, "right"), (m.inverse_atoms, idx, "left")], m.field)
    assert ratios.T.tolist() == [[math.exp(-2 * s) for s in log_norms(fold, m.field)] for fold in folds]


def test_lyapunov_preconditions(positive_measure):
    with pytest.raises(UsageError):
        lyapunov_estimate(positive_measure, 5, 100, seed=1)
    with pytest.raises(UsageError):
        lyapunov_estimate(positive_measure, 100, 5, seed=1)


def test_lyapunov_rerun_bit_exact(positive_measure):
    a = lyapunov_estimate(positive_measure, 60, 20, seed=5)
    b = lyapunov_estimate(positive_measure, 60, 20, seed=5)
    assert a == b


def test_moment_ratio_examples(positive_measure):
    assert moment_ratio(corpus.rotation_point_mass(), 0.5, 30, 5, seed=1) == 1.0
    # reducible control: the basis direction e2 violates the bound, max = 4^eps
    assert moment_ratio(corpus.diagonal_point_mass(), 0.5, 40, 5, seed=1) == pytest.approx(2.0)
    assert moment_ratio(positive_measure, 0.1, 100, 80, seed=1) <= 1.05
    with pytest.raises(DomainError):
        moment_ratio(positive_measure, 1.5, 50, 10, seed=1)


def test_direction_convergence_point_mass_fixed_direction():
    est = direction_convergence(corpus.diagonal_point_mass(), [1, 0], [4, 8], 20, 10, seed=3)
    assert est.p_hat == (0.0, 0.0)
    assert est.fit is None


def test_direction_convergence_diagonal_closed_form():
    horizon = 24
    grid = [2, 4, 6]
    est = direction_convergence(corpus.diagonal_point_mass(), [1, 1], grid, horizon, 10, seed=3)
    for n, v in zip(grid, est.p_hat):
        expect = (4.0**-n - 4.0**-horizon) / math.sqrt((1 + 16.0**-n) * (1 + 16.0**-horizon))
        assert v == pytest.approx(expect, rel=1e-9)
    assert est.fit.rho_hat == pytest.approx(0.25, rel=0.1)


def test_direction_convergence_replays_the_corpus_rationals():
    m = corpus.slow_contracting()
    assert m.exact_atoms[0][0, 0] == Fraction(27, 40)  # (3/5)(9/8), not the double nearest it
    est = direction_convergence(m, [1, 1], [50, 100, 200], 400, 100, seed=1)
    assert [f"{v:.12g}" for v in est.p_hat] == ["0.590381341718", "0.604435929453", "0.605944640027"]


def test_direction_convergence_horizon_check(positive_measure):
    with pytest.raises(UsageError):
        direction_convergence(positive_measure, [1, 1], [10, 20], 30, 10, seed=1)


def test_direction_convergence_positive(positive_measure):
    est = direction_convergence(positive_measure, [1, 1], [5, 10, 20], 40, 40, seed=8)
    assert est.p_hat[0] > est.p_hat[1] > est.p_hat[2] > 0
    assert est.fit.rho_hat < 1 and est.fit.r_squared >= 0.9


def test_kak_convergence_diagonal_point_mass():
    frames = kak_convergence(corpus.diagonal_point_mass(), [4, 8], 40, 5, seed=3)
    # true curves are identically zero; the exact power steps leave only a
    # quadratically smaller residual
    assert all(v <= 1e-12 for v in frames.k_curve.p_hat)
    assert all(v <= 1e-12 for v in frames.u_curve.p_hat)


def test_kak_convergence_positive(positive_measure):
    frames = kak_convergence(positive_measure, [5, 10, 20], 40, 40, seed=8)
    for curve in (frames.k_curve, frames.u_curve):
        assert curve.p_hat[0] > curve.p_hat[1] > curve.p_hat[2] > 0
        assert curve.fit.rho_hat < 1


def test_kak_convergence_padic():
    m = corpus.padic_contracting(3)
    frames = kak_convergence(m, [4, 8], 32, 20, seed=8)
    assert frames.k_curve.p_hat[0] >= frames.k_curve.p_hat[1]
    assert frames.u_curve.p_hat[0] >= frames.u_curve.p_hat[1]


def _mean_curve(p_hat, ci_lo, ci_hi, fit):
    return DecayEstimate(
        kind="mean",
        grid=(2, 4, 6),
        p_hat=p_hat,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        reps=5,
        fit=GeometricFit(*fit),
        extra={"horizon": 12},
    )


# direction, k-part and u-part curves at grid (2, 4, 6), horizon 12, reps 5,
# seed 3, x = (1, 2, ...), recorded from the per-trajectory exact replay
# that the batched integer fold replaced
_PINNED_CONVERGENCE = {
    "positive_matrices": (
        _mean_curve(
            (0.008431940393471421, 0.00018841228480737066, 6.326862286208982e-06),
            (0.0042317357062949265, 7.414587236279833e-05, 3.0877567906250134e-06),
            (0.012632145080647916, 0.000302678697251943, 9.565967781792951e-06),
            (-1.707042329571127, -1.728735249591322, 0.9996764264379112, 3),
        ),
        _mean_curve(
            (0.004137182465666759, 9.852716445992974e-05, 2.9859246603460678e-06),
            (0.00028540324940766904, 8.668193287733562e-06, 2.6451201997549295e-07),
            (0.007988961681925848, 0.00018838613563212591, 5.707337300716642e-06),
            (-1.753428700866942, -2.2011845355135256, 0.9999050896923332, 3),
        ),
        _mean_curve(
            (0.004137182465666759, 9.852716445992974e-05, 2.9859246603460678e-06),
            (0.00028540324940766904, 8.668193287733562e-06, 2.6451201997549295e-07),
            (0.007988961681925848, 0.00018838613563212591, 5.707337300716642e-06),
            (-1.753428700866942, -2.2011845355135256, 0.9999050896923332, 3),
        ),
    ),
    "padic_contracting": (
        _mean_curve(
            (0.012345679012345675, 0.00015241579027587248, 1.8816764231589204e-06),
            (0.012345679012345675, 0.00015241579027587248, 1.8816764231589204e-06),
            (0.012345679012345675, 0.00015241579027587248, 1.8816764231589204e-06),
            (-2.1972245773362222, 0.0, 1.0, 3),
        ),
        _mean_curve(
            (0.002652034750800184, 3.0734048244929035e-05, 3.7788398950681217e-07),
            (0.0008958713575289222, 6.644015415419286e-06, 7.860775701007345e-08),
            (0.004408198144071446, 5.4824081074438784e-05, 6.771602220035509e-07),
            (-2.2000436941446306, -1.588425987389694, 0.999997743258796, 3),
        ),
        _mean_curve(
            (0.002652034750800184, 3.0734048244929035e-05, 3.7788398950681217e-07),
            (0.0008958713575289222, 6.644015415419286e-06, 7.860775701007345e-08),
            (0.004408198144071446, 5.4824081074438784e-05, 6.771602220035509e-07),
            (-2.2000436941446306, -1.588425987389694, 0.999997743258796, 3),
        ),
    ),
    "sl3_integer": (
        _mean_curve(
            (0.08128148408394609, 0.03404729849628797, 0.01049754515239584),
            (0.015941702593582366, 0.003683983327185756, 0.002048432115856655),
            (0.14662126557430982, 0.06441061366539019, 0.018946658188935026),
            (-0.5340173438080371, -1.3392485028576753, 0.9940053237042877, 3),
        ),
        _mean_curve(
            (0.10994464883523374, 0.027544012730000823, 0.004962225395528032),
            (0.052517231164013196, 0.007315395166603886, 0.000439061054684599),
            (0.16737206650645428, 0.04777263029339776, 0.009485389736371464),
            (-0.8050570386596603, -0.4651190699827026, 0.9969008279764754, 3),
        ),
        _mean_curve(
            (0.08434189247053256, 0.02400581260151732, 0.004072741907336306),
            (0.03630149713139841, 0.006626870485956917, 0.0020517983681198723),
            (0.1323822878096667, 0.041384754717077726, 0.006093685446552741),
            (-0.8074208185953442, -0.6501695096374441, 0.9931046235428209, 3),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_CONVERGENCE))
def test_convergence_curves_pinned(name):
    m = corpus.padic_contracting(3) if name == "padic_contracting" else getattr(corpus, name)()
    x = [parse_scalar(v, m.field) for v in ["1", "2", "3"][: m.d]]
    direction, k_curve, u_curve = _PINNED_CONVERGENCE[name]
    assert direction_convergence(m, x, [2, 4, 6], 12, 5, seed=3) == direction
    assert kak_convergence(m, [2, 4, 6], 12, 5, seed=3) == KakFrameConvergence(k_curve, u_curve)


def test_holder_catalog(real_field):
    phi = holder_function("dist_to_point", ["1", "0"], real_field)
    from freewalk import as_vector

    assert phi.evaluate(as_vector([0, 1], real_field)) == 1.0
    assert phi.evaluate(as_vector([1, 0], real_field)) == 0.0
    assert phi.holder_norm_bound == 1.0
    phi2 = holder_function("dist_to_hyperplane", ["1", "0"], real_field)
    assert phi2.evaluate(as_vector([1, 0], real_field)) == 1.0
    assert phi2.holder_norm_bound == pytest.approx(math.sqrt(2))
    phi3 = holder_function("one_minus_dist_to_point", ["1", "0"], real_field)
    assert phi3.evaluate(as_vector([1, 0], real_field)) == 1.0
    with pytest.raises(DomainError):
        holder_function("unknown", ["1", "0"], real_field)
    with pytest.raises(DomainError):
        holder_function("dist_to_point", ["1", "0"], real_field, exponent=2.0)


def test_holder_evaluate_rejects_unknown_kind(real_field):
    from freewalk import HolderTestFunction, as_vector

    phi = HolderTestFunction(kind="bogus", reference=("1", "0"), exponent=1.0, holder_norm_bound=1.0,
                             field=real_field)
    with pytest.raises(DomainError):
        phi.evaluate(as_vector([0, 1], real_field))


def test_independence_point_mass_zero():
    m = corpus.diagonal_point_mass()
    phi = holder_function("dist_to_point", ["1", "0"], m.field)
    res = independence_test(m, phi, phi, 10, 50, seed=1)
    assert res.discrepancy == 0.0


def test_independence_slow_measure_decays():
    m = corpus.slow_contracting()
    phi = holder_function("dist_to_point", ["1", "0"], m.field)
    r15 = independence_test(m, phi, phi, 15, 400, seed=20240601)
    r60 = independence_test(m, phi, phi, 60, 400, seed=20240601)
    assert r60.discrepancy < r15.discrepancy
    assert r15.discrepancy > 5 * r15.se  # real signal, not noise


def test_independence_stability_under_more_reps():
    m = corpus.slow_contracting()
    phi = holder_function("dist_to_point", ["1", "0"], m.field)
    a = independence_test(m, phi, phi, 15, 300, seed=4)
    b = independence_test(m, phi, phi, 15, 1200, seed=4)
    assert abs(a.discrepancy - b.discrepancy) <= 2 * (a.se + b.se)


def test_invariant_probe_reducible_control():
    m = corpus.diagonal_point_mass()
    res = invariant_measure_probe(m, 20, 40, [[1, 0], [0, 1]], 0.9, seed=4)
    assert res.fractions == (0.0, 1.0)  # Ker e1* never hit, Ker e2* always
    assert res.sup_fraction == 1.0
    with pytest.raises(DomainError):
        invariant_measure_probe(m, 20, 40, [[1, 0]], 1.5, seed=4)


def test_invariant_probe_positive(positive_measure):
    res = invariant_measure_probe(positive_measure, 40, 150, [[1, 1]], 0.9, seed=4)
    assert res.fractions[0] == 0.0  # limit directions stay off Ker(e1*+e2*)


def test_pingpong_decay_deterministic_pair_never_fails(real_field):
    from freewalk import make_measure

    a = [[100, 0], [0, F(1, 100)]]
    # the 45-degree conjugate of a: entries (100 +- 1/100) / 2
    b = [[F(10001, 200), F(9999, 200)], [F(9999, 200), F(10001, 200)]]
    m1 = make_measure([a], [F(1)], real_field)
    m2 = make_measure([b], [F(1)], real_field)
    est = pingpong_decay(m1, m2, 0.5, 0.25, [1, 2, 3], 20, seed=1)
    assert est.p_hat == (0.0, 0.0, 0.0)


def test_pingpong_decay_rotation_control_always_fails(real_field):
    m = corpus.rotation_point_mass()
    est = pingpong_decay(m, m, 0.5, 0.25, [1, 2, 4], 20, seed=1)
    assert est.p_hat == (1.0, 1.0, 1.0)
    assert est.extra["breakdown"]["own-contraction"] == [20, 20, 20]


def test_pingpong_decay_thresholds_validity(positive_measure):
    est = pingpong_decay(positive_measure, positive_measure, 0.95, 0.9, [4, 16], 10, seed=1)
    assert est.extra["thresholds_valid"] == [False, True]
    with pytest.raises(DomainError):
        pingpong_decay(positive_measure, positive_measure, 0.6, 0.7, [4], 10, seed=1)


def test_pingpong_decay_rerun_bit_exact(positive_measure):
    a = pingpong_decay(positive_measure, positive_measure, 0.8, 0.7, [6, 12], 30, seed=2)
    b = pingpong_decay(positive_measure, positive_measure, 0.8, 0.7, [6, 12], 30, seed=2)
    assert a.p_hat == b.p_hat
    assert a.extra["breakdown"] == b.extra["breakdown"]


# pingpong_decay at grid (4, 8, 16, 32), reps 8, seed 4 and (r_base, eps_base)
# = (0.8, 0.7), (0.7, 0.3), (0.99, 0.95): p_hat, ci_lo, ci_hi and the
# (own-contraction, own-separation, cross-margin) breakdown; then the
# failures of tuple_decay with l = 3, r = 0.9**n, eps = 0.85**n, reps 8,
# seed 4 at n = 16, 32, 48.  Recorded from the per-tuple scalar scorer.
_ALL_FAIL = ((1.0,) * 4, (0.6755924351161198,) * 4, (1.0,) * 4)
_PINNED_DECAY = {
    "positive_matrices": (
        (
            (1.0, 0.5, 0.25, 0.125),
            (0.6755924351161198, 0.21521606221387757, 0.071479212752109, 0.02241749145005667),
            (1.0, 0.7847839377861224, 0.5907245696898311, 0.4708881822128535),
            ([0, 0, 0, 0], [0, 0, 0, 0], [8, 4, 2, 1]),
        ),
        (*_ALL_FAIL, ([8, 8, 8, 8], [0, 0, 0, 0], [7, 4, 1, 0])),
        (*_ALL_FAIL, ([0, 0, 0, 0], [5, 4, 0, 0], [8, 8, 8, 8])),
        [8, 6, 7],
    ),
    "sl3_integer": (
        (*_ALL_FAIL, ([8, 8, 8, 8], [2, 0, 0, 0], [8, 8, 4, 0])),
        (*_ALL_FAIL, ([8, 8, 8, 8], [0, 0, 0, 0], [8, 6, 1, 0])),
        (*_ALL_FAIL, ([0, 0, 0, 0], [8, 7, 7, 6], [8, 8, 8, 8])),
        [8, 8, 3],
    ),
    "padic_contracting(2)": (
        (
            (0.875, 0.5, 0.125, 0.0),
            (0.5291118177871464, 0.21521606221387757, 0.02241749145005667, 0.0),
            (0.9775825085499433, 0.7847839377861224, 0.4708881822128535, 0.32440756488388023),
            ([0, 0, 0, 0], [0, 0, 0, 0], [7, 4, 1, 0]),
        ),
        (*_ALL_FAIL, ([8, 8, 8, 8], [0, 0, 0, 0], [7, 4, 0, 0])),
        (*_ALL_FAIL, ([0, 0, 0, 0], [0, 0, 0, 0], [8, 8, 8, 8])),
        [8, 6, 3],
    ),
    "padic_contracting(3)": (
        (
            (1.0, 0.5, 0.25, 0.25),
            (0.6755924351161198, 0.21521606221387757, 0.071479212752109, 0.071479212752109),
            (1.0, 0.7847839377861224, 0.5907245696898311, 0.5907245696898311),
            ([0, 0, 0, 0], [0, 0, 0, 0], [8, 4, 2, 2]),
        ),
        (*_ALL_FAIL, ([8, 8, 8, 8], [0, 0, 0, 0], [7, 4, 1, 0])),
        (*_ALL_FAIL, ([0, 0, 0, 0], [0, 0, 0, 0], [8, 8, 8, 8])),
        [8, 6, 7],
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_DECAY))
def test_decay_results_pinned(name):
    p = {"padic_contracting(2)": 2, "padic_contracting(3)": 3}.get(name)
    m = corpus.padic_contracting(p) if p else getattr(corpus, name)()
    *pinned, tuple_failures = _PINNED_DECAY[name]
    for (r_base, eps_base), (p_hat, ci_lo, ci_hi, breakdown) in zip(
        [(0.8, 0.7), (0.7, 0.3), (0.99, 0.95)], pinned
    ):
        est = pingpong_decay(m, m, r_base, eps_base, [4, 8, 16, 32], 8, seed=4)
        assert (est.p_hat, est.ci_lo, est.ci_hi) == (p_hat, ci_lo, ci_hi)
        assert est.extra["breakdown"] == dict(zip(FAILURE_KEYS, breakdown))
    failures = [tuple_decay(m, 3, 0.9**n, 0.85**n, n, 8, seed=4).failures for n in (16, 32, 48)]
    assert failures == tuple_failures


def _float_top_frame(g):
    """Top singular directions of an exact matrix, rounded once to floats."""
    top = max(abs(x) for x in g.flat)
    k, _, u = np.linalg.svd(np.array([[float(x / top) for x in row] for row in g]))
    return k[:, 0], u[0, :]


def test_walk_poles_match_exact_replay_sl3(real_field):
    # by n = 80, a_3/a_1 of S_n is far below float precision: the poles of
    # S_n^{-1} must still agree with those of the exactly replayed inverse
    m = corpus.sl3_integer()
    idx = walk_indices(m, 80, seed=11, streams=range(4))
    vs, hs, ratios = _walk_poles([m], [[idx]])
    assert vs.shape == hs.shape == (4, 2, 3) and ratios.shape == (4, 2)
    for row, v_row, h_row in zip(idx.tolist(), vs, hs):
        s = exact_product(m, row)
        for pole_v, pole_h, g in zip(v_row, h_row, (s, exact_inv(s))):
            v, h = _float_top_frame(g)
            assert fubini_study(pole_v, v, real_field) <= 1e-9
            assert fubini_study(pole_h, h, real_field) <= 1e-9


def test_tuple_decay_l2_matches_pair(positive_measure):
    # a pair at one grid point is the 2-tuple: the same streams, poles and count
    reps = 150
    cases = [(positive_measure, 0.8, 0.7, 16), (corpus.sl3_integer(), 0.9, 0.85, 32),
             (corpus.padic_contracting(2), 0.8, 0.7, 16)]
    for m, r_base, eps_base, n in cases:
        for seed in (1, 6):
            pair = pingpong_decay(m, m, r_base, eps_base, [n], reps, seed=seed)
            tup = tuple_decay(m, 2, r_base**n, eps_base**n, n, reps, seed=seed)
            assert 0 < tup.failures < reps
            assert tup.failures == round(pair.p_hat[0] * reps)
    with pytest.raises(DomainError):
        tuple_decay(positive_measure, 1, 0.8**16, 0.7**16, 16, reps, seed=6)


def test_tuple_of_measures_over_different_fields_or_dimensions_rejected():
    positive, q2, q3 = corpus.positive_matrices(), corpus.padic_contracting(2), corpus.padic_contracting(3)
    for m, m2 in ((positive, q3), (q2, q3), (positive, corpus.sl3_integer())):
        with pytest.raises(UsageError, match="one field and dimension"):
            pingpong_decay(m, m2, 0.8, 0.7, [8, 16], 20, 1)


def test_tuple_decay_deterministic_certified_pair(real_field):
    from freewalk import make_measure

    a = [[100, 0], [0, F(1, 100)]]
    m1 = make_measure([a], [F(1)], real_field)
    res = tuple_decay(m1, 2, 0.5, 0.02, 3, 10, seed=1, rho_hat=0.5)
    # both walks share the point mass: identical generators collide
    assert res.failure_fraction == 1.0
    b = corpus.positive_matrices()
    res2 = tuple_decay(b, 2, 0.8**20, 0.7**20, 20, 50, seed=1, rho_hat=0.92)
    assert res2.prediction == pytest.approx(2 * 0.92**20)
    assert res2.prediction_se is not None


def _failures(ratio, margins, r, eps):
    """Failing tuples, and failures per reason, of one grid point's scores at (r, eps)."""
    reasons = tuple_failure_reasons(ratio, margins, r, eps)
    return int(np.any(list(reasons.values()), axis=0).sum()), {k: int(reasons[k].sum()) for k in FAILURE_KEYS}


# one _tuple_scores pass at reps 60, seed 3, scored at three (r_base, eps_base): the failing pairs per grid point
_RETHRESHOLD = {
    "positive_matrices": ([8, 16, 24], {(0.8, 0.7): [46, 26, 16], (0.9, 0.8): [58, 45, 41], (0.95, 0.9): [60, 60, 41]}),
    "padic_contracting(2)": ([4, 8, 12], {(0.8, 0.7): [44, 43, 24], (0.9, 0.6): [60, 43, 36], (0.7, 0.5): [44, 21, 14]}),
}


@pytest.mark.parametrize("name", sorted(_RETHRESHOLD))
def test_tuple_scores_rethresholded_equal_separate_runs(name):
    # the scores are threshold-free: one pass, thresholded afterwards, equals a
    # separate pingpong_decay or tuple_decay run at each threshold pair
    m = corpus.padic_contracting(2) if name == "padic_contracting(2)" else getattr(corpus, name)()
    grid, pinned = _RETHRESHOLD[name]
    reps, seed = 60, 3
    ratio, margins = _tuple_scores((m, m), grid, reps, seed)
    assert ratio.shape == (len(grid), reps, 4) and margins.shape == (len(grid), reps, 4, 4)
    for (r_base, eps_base), counts in pinned.items():
        scored = [_failures(ratio[gi], margins[gi], r_base**n, eps_base**n) for gi, n in enumerate(grid)]
        est = pingpong_decay(m, m, r_base, eps_base, grid, reps, seed)
        assert [c for c, _ in scored] == counts
        assert est.p_hat == tuple(c / reps for c in counts)
        assert est.extra["breakdown"] == {k: [b[k] for _, b in scored] for k in FAILURE_KEYS}
    assert len({tuple(c) for c in pinned.values()}) == 3  # the thresholds decide: no pair of runs agrees
    n = grid[-1]
    (ratio3,), (margins3,) = _tuple_scores((m,) * 3, [n], reps, seed)
    counts3 = []
    for r_base, eps_base in list(pinned)[:2]:
        counts3.append(_failures(ratio3, margins3, r_base**n, eps_base**n)[0])
        assert counts3[-1] == tuple_decay(m, 3, r_base**n, eps_base**n, n, reps, seed).failures
    assert counts3[0] != counts3[1]


_NO_WALKS = {
    "pingpong_decay, empty grid": lambda m, phi: pingpong_decay(m, m, 0.8, 0.7, [], 10, 1),
    "tuple_decay, reps 0": lambda m, phi: tuple_decay(m, 3, 0.5, 0.2, 8, 0, 1),
    "direction_convergence, empty grid": lambda m, phi: direction_convergence(m, [1, 0], [], 40, 5, 1),
    "direction_convergence, reps 0": lambda m, phi: direction_convergence(m, [1, 0], [5, 10], 40, 0, 1),
    "kak_convergence, empty grid": lambda m, phi: kak_convergence(m, [], 40, 5, 1),
    "kak_convergence, reps 0": lambda m, phi: kak_convergence(m, [5, 10], 40, 0, 1),
    "independence_test, reps 0": lambda m, phi: independence_test(m, phi, phi, 10, 0, 1),
    "invariant_measure_probe, reps 0": lambda m, phi: invariant_measure_probe(m, 10, 0, [[1, 0]], 0.9, 1),
    "moment_ratio, reps 0": lambda m, phi: moment_ratio(m, 0.5, 10, 0, 1),
}


@pytest.mark.parametrize("call", sorted(_NO_WALKS))
@pytest.mark.parametrize("measure", ["positive_matrices", "padic_contracting(2)"])
def test_estimators_reject_a_batch_without_walks(measure, call):
    # no grid point or no rep: a UsageError before any walk, over R and over Q_2
    m = corpus.padic_contracting(2) if measure == "padic_contracting(2)" else corpus.positive_matrices()
    phi = holder_function("dist_to_point", ["1", "0"], m.field)
    with pytest.raises(UsageError, match="at least one grid point"):
        _NO_WALKS[call](m, phi)


_MIXED_TUPLES = {
    "R": (corpus.positive_matrices, corpus.sanov, corpus.slow_contracting),
    "Q2": (lambda: corpus.padic_contracting(2), lambda: corpus.padic_isometry_point_mass(2),
           lambda: corpus.padic_diagonal_point_mass(2)),
}


@pytest.mark.parametrize("field", sorted(_MIXED_TUPLES))
def test_tuple_scores_layout_of_three_different_measures(field):
    # pole 2w + k of tuple rep at grid point gi is pole k of walk w alone, on stream (gi*reps + rep)*3 + w
    measures = tuple(make() for make in _MIXED_TUPLES[field])
    grid, reps, seed = [0, 3, 7], 4, 2
    ratio, margins = _tuple_scores(measures, grid, reps, seed)
    assert ratio.shape == (len(grid), reps, 6) and margins.shape == (len(grid), reps, 6, 6)
    for gi, n in enumerate(grid):
        for rep in range(reps):
            alone = [_walk_poles([m], [[walk_indices(m, n, seed, [(gi * reps + rep) * 3 + w])]])
                     for w, m in enumerate(measures)]
            v, h = (np.concatenate([poles[i][0] for poles in alone]) for i in (0, 1))
            assert ratio[gi, rep].tolist() == [x for poles in alone for x in poles[2][0].tolist()]
            assert np.array_equal(margins[gi, rep], cross_margin_matrix(v, h, measures[0].field))


_NEGATIVE_LENGTHS = {
    "pingpong_decay": lambda m, phi: pingpong_decay(m, m, 0.8, 0.7, [-1, 4], 5, 1),
    "tuple_decay": lambda m, phi: tuple_decay(m, 3, 0.5, 0.2, -3, 5, 1),
    "independence_test": lambda m, phi: independence_test(m, phi, phi, -2, 5, 1),
    "invariant_measure_probe": lambda m, phi: invariant_measure_probe(m, -1, 5, [[1, 0]], 0.9, 1),
    "direction_convergence": lambda m, phi: direction_convergence(m, [1, 0], [-2, 4], 10, 5, 1),
    "moment_ratio": lambda m, phi: moment_ratio(m, 0.5, -1, 5, 1),
}


@pytest.mark.parametrize("call", sorted(_NEGATIVE_LENGTHS))
@pytest.mark.parametrize("measure", ["positive_matrices", "padic_contracting(2)"])
def test_estimators_reject_negative_walk_lengths(measure, call):
    # a UsageError before any walk, over R and over Q_2; moment_ratio divides by n, so it needs n >= 1
    m = corpus.padic_contracting(2) if measure == "padic_contracting(2)" else corpus.positive_matrices()
    phi = holder_function("dist_to_point", ["1", "0"], m.field)
    with pytest.raises(UsageError, match="walk lengths must be >= 0"):
        _NEGATIVE_LENGTHS[call](m, phi)
    if call == "moment_ratio":
        with pytest.raises(UsageError, match="n >= 1"):
            moment_ratio(m, 0.5, 0, 5, 1)


@pytest.mark.parametrize("measure", ["positive_matrices", "padic_contracting(2)"])
def test_estimator_vectors_need_d_entries_not_all_zero(measure):
    # hyperplanes, x and Holder references: a UsageError for a wrong length, a DomainError for the zero vector
    m = corpus.padic_contracting(2) if measure == "padic_contracting(2)" else corpus.positive_matrices()
    phi = holder_function("dist_to_point", ["1", "0"], m.field)
    for bad, error in (([1, 0, 0, 1], UsageError), ([1, 0, 0], UsageError), ([1], UsageError), ([0, 0], DomainError)):
        for planes in ([bad], [[1, 1], bad]):
            with pytest.raises(error):
                invariant_measure_probe(m, 10, 20, planes, 0.9, 1)
        with pytest.raises(error):
            direction_convergence(m, bad, [2, 4], 10, 5, 1)
        for kind in ("dist_to_point", "dist_to_hyperplane"):
            wrong = holder_function(kind, bad, m.field)
            for phis in ((wrong, phi), (phi, wrong)):
                with pytest.raises(error):
                    independence_test(m, *phis, 10, 5, 1)


def test_independence_test_rejects_a_holder_function_over_another_field():
    # phi1 or phi2 over Q_2 on a walk over R, and over R on a walk over Q_2: a UsageError before any walk
    for m, other in ((corpus.positive_matrices(), FieldSpec.padic(2)), (corpus.padic_contracting(2), FieldSpec.real())):
        phi = holder_function("dist_to_point", ["1", "0"], m.field)
        wrong = holder_function("dist_to_point", ["1", "0"], other)
        for phis in ((wrong, wrong), (wrong, phi), (phi, wrong)):
            with pytest.raises(UsageError, match="Holder function over"):
                independence_test(m, *phis, 10, 20, 1)
        independence_test(m, phi, phi, 10, 20, 1)
