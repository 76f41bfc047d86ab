"""Monte Carlo estimators turning the limit theorems into desk-scale checks.

Every estimator is a pure function of (inputs, seed), reduced in trajectory
order: trajectory i runs on RNG stream i, and walk w of ping-pong tuple rep
at grid point gi on stream (gi*reps + rep)*l + w (:func:`_tuple_scores`).
:func:`walk_indices` stacks the index rows of all trajectories and, on both
fields, each estimator call folds its scaled walks (the atoms and, at
d >= 3, their exterior powers; every grid point and measure) in one
:func:`walk_products` call per matrix size (:func:`_fold`: shorter rows
padded at the start with the identity, left folds as transposed right
folds); the exact replays and the Q_p poles fold integer stacks with
:func:`integer_products`.  Over R the poles of S_n^{-1} are the Hodge duals
of the frames of wedge^{d-1} S_n: no estimator folds an inverse walk.  The
whole stack is then scored by stacked calls: :func:`pole_pair` (the KAK
frames of both fields, one SVD of the stack over R), :func:`log_norms`, and
:func:`cross_margin_matrix`; :func:`_walk_poles` scores any index rows in
one pole pass, flat in row order, and the ping-pong estimators apply
:func:`tuple_failure_reasons` at their own (r, eps) to the threshold-free
ratios and margins of :func:`_tuple_scores`.

Decay rates are never asserted against theoretical constants (the
theorems' bounds are not effective); fits report sign, monotonicity and
goodness of fit only.  Confidence intervals are Wilson for proportions
and normal-approximation for means, and are recorded in outputs so
acceptance thresholds stay auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations, islice

import numpy as np

from .decompositions import ScaledMatrix, log_norms, scaled_log_vector_norm
from .errors import DomainError, UsageError
from .fields import FieldSpec
from .linalg import (
    _integer_form,
    _normalize_rows,
    _require_nonzero,
    _row_norms,
    adjugate,
    as_vector,
    dist_point_hyperplane,
    exterior_square,
    fubini_study,
    identity,
    wedge_pairs,
)
from .pingpong import FAIL_CONTRACTION, FAIL_CROSS, FAIL_SEPARATION
from .pingpong import cross_margin_matrix, pole_pair, tuple_failure_reasons
from .walks import WalkMeasure, integer_products, walk_indices, walk_products

Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        raise DomainError("wilson_interval needs at least one trial")
    z2 = Z95 * Z95
    p = successes / trials
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (Z95 / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _mean_se(values) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


@dataclass(frozen=True)
class GeometricFit:
    """Weighted least squares of log(value) against n."""

    log_rho: float
    intercept: float
    r_squared: float
    points_used: int

    @property
    def rho_hat(self) -> float:
        return math.exp(self.log_rho)


def fit_geometric_decay(ns, values, widths) -> GeometricFit | None:
    """WLS fit of log(value) on n, weights = inverse CI widths.

    Points with value outside (0, 1) are dropped; returns None when fewer
    than two usable points remain.
    """
    pts = [
        (float(n), math.log(v), 1.0 / max(w, 1e-12))
        for n, v, w in zip(ns, values, widths)
        if 0.0 < v < 1.0
    ]
    if len(pts) < 2:
        return None
    sw = sum(w for _, _, w in pts)
    sx = sum(w * x for x, _, w in pts)
    sy = sum(w * y for _, y, w in pts)
    sxx = sum(w * x * x for x, _, w in pts)
    sxy = sum(w * x * y for x, y, w in pts)
    denom = sw * sxx - sx * sx
    if denom == 0:
        return None
    slope = (sw * sxy - sx * sy) / denom
    intercept = (sxx * sy - sx * sxy) / denom
    ybar = sy / sw
    ss_tot = sum(w * (y - ybar) ** 2 for _, y, w in pts)
    ss_res = sum(w * (y - intercept - slope * x) ** 2 for x, y, w in pts)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return GeometricFit(log_rho=slope, intercept=intercept, r_squared=r2, points_used=len(pts))


@dataclass(frozen=True)
class DecayEstimate:
    """A grid of walk lengths with empirical values, CIs and a geometric fit."""

    kind: str  # "proportion" or "mean"
    grid: tuple
    p_hat: tuple
    ci_lo: tuple
    ci_hi: tuple
    reps: int
    fit: GeometricFit | None
    extra: dict = dc_field(default_factory=dict)


def _mean_point(values) -> tuple[float, float, float]:
    """(mean, lo, hi) with the normal 95% interval."""
    m, se = _mean_se(values)
    return m, m - Z95 * se, m + Z95 * se


def _proportion_point(count: int, trials: int) -> tuple[float, float, float]:
    """(fraction, lo, hi) with the Wilson 95% interval."""
    return (count / trials, *wilson_interval(count, trials))


def _columns(points) -> tuple:
    """Values, lower and upper bounds as three tuples, from (value, lo, hi) triples."""
    return tuple(zip(*points)) or ((), (), ())


def _decay(kind: str, grid, points, reps: int, extra=None) -> DecayEstimate:
    """The DecayEstimate of one (value, lo, hi) triple per grid point."""
    values, los, his = _columns(points)
    fit = fit_geometric_decay(grid, values, [hi - lo for lo, hi in zip(los, his)])
    return DecayEstimate(
        kind=kind,
        grid=tuple(grid),
        p_hat=values,
        ci_lo=los,
        ci_hi=his,
        reps=reps,
        fit=fit,
        extra=extra or {},
    )


def _require_draws(grid, reps: int) -> None:
    """UsageError unless a batch draws at least one walk: reps >= 1, at least one grid point, none negative."""
    if reps < 1 or len(grid) < 1:
        raise UsageError("need reps >= 1 and at least one grid point")
    if min(grid) < 0:
        raise UsageError(f"walk lengths must be >= 0, got {min(grid)}")


def _require_vector(x, d: int, what: str) -> None:
    """UsageError unless x has d entries, DomainError if every entry is zero."""
    if len(x) != d:
        raise UsageError(f"{what} must have {d} entries, got {len(x)}")
    _require_nonzero(x, what)


def _fold(jobs, field: FieldSpec) -> list:
    """Scaled products of every job (increments, idx, order), one walk_products call per matrix size.

    order "right" is X_n ... X_1, "left" X_1 ... X_n.  walk_products folds right only, so a left fold
    is the right fold of the transposed increments, transposed back.  On both fields the jobs of one
    size share one right fold behind an identity increment, which pads a shorter row at the start and
    leaves its unit and scale as they are.
    """
    tables = [np.asarray(inc) for inc, _, _ in jobs]  # floats over R, exact Fractions over Q_p
    tables = [t.swapaxes(1, 2) if order == "left" else t for t, (_, _, order) in zip(tables, jobs)]
    out = [None] * len(jobs)
    for m in {t.shape[1] for t in tables}:
        group = [j for j, t in enumerate(tables) if t.shape[1] == m]
        n = max(jobs[j][1].shape[1] for j in group)
        offsets = np.cumsum([1] + [len(tables[j]) for j in group])
        idx = [np.concatenate([np.zeros((len(a), n - a.shape[1]), a.dtype), a + base], axis=1)
               for a, base in zip((jobs[j][1] for j in group), offsets)]
        prods = iter(walk_products(np.concatenate([identity(m, field)[None]] + [tables[j] for j in group]),
                                   np.concatenate(idx), field))
        for j in group:
            part = list(islice(prods, len(jobs[j][1])))
            out[j] = [ScaledMatrix(x.unit.T, x.scale) for x in part] if jobs[j][2] == "left" else part
    return out


def _hodge(d: int, k: int = 1) -> np.ndarray:
    """The Hodge star of wedge^k R^d, a signed permutation in Python ints, on lexicographic bases: H[J, I] =
    sign(I J), J the complement of I, which reverses the order.  At k = 1, H[d - 1 - i, i] = (-1)**i."""
    signs = [(-1) ** (sum(s) - k * (k - 1) // 2) for s in combinations(range(d), k)]
    return np.diag(np.array(signs, dtype=object))[::-1]  # H[-1 - i, i] = signs[i]


def _exterior_powers(measure: WalkMeasure, degrees) -> dict:
    """{k: the atoms' wedge^k} for each k of degrees (1, 2, d - 2 or d - 1), exact, rounded once over R.

    With a / den an atom's integer form, wedge^2 is exterior_square(a) / den**2, and wedge^{d-j} for j = 1
    or 2 comes from one Faddeev-LeVerrier pass by Jacobi's complementary minors: det(a) = den**d, so
    wedge^{d-j}(a) = H wedge^j(adj a)^T H^T / den**(d(j - 1)), H = _hodge(d, j).
    """
    d, real = measure.d, measure.field.is_archimedean

    def exact(k, a, den):  # wedge^k(a) over den**e: Python ints when den = 1, no Fraction per entry
        if k == 2:
            w, e = exterior_square(a), 2
        else:
            adj, hodge = adjugate(a), _hodge(d, d - k)
            w, e = hodge @ (adj if k == d - 1 else exterior_square(adj)).T @ hodge.T, k + d * (d - k - 1)
        w = w if den == 1 else w * Fraction(1, den**e)
        return w.astype(float) if real else w

    return {k: measure.atoms if k == 1 else tuple(exact(k, *_integer_form(a)) for a in measure.exact_atoms)
            for k in degrees}


# ---------------------------------------------------------------------------
# Lyapunov exponents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LyapunovEstimate:
    """Estimates of lambda_1 and lambda_1 + lambda_2 with normal CIs."""

    lambda1_hat: float
    lambda12_hat: float
    gap_hat: float  # 2*lambda1 - lambda12 = lambda1 - lambda2
    ci_half_widths: tuple  # (lambda1, lambda12, gap)
    n: int
    reps: int
    d: int

    @property
    def lambda2_hat(self) -> float:
        return self.lambda12_hat - self.lambda1_hat


def lyapunov_estimate(measure: WalkMeasure, n: int, reps: int, seed: int) -> LyapunovEstimate:
    """lambda_1 from (1/n) log ||S_n||, lambda_1 + lambda_2 from the exterior square: at d = 2 that is the
    determinant, 1, so lambda_1 + lambda_2 = 0 exactly and no wedge is folded, over either field."""
    if n < 10 or reps < 10:
        raise UsageError("lyapunov_estimate needs n >= 10 and reps >= 10")
    field = measure.field
    idx = walk_indices(measure, n, seed, range(reps))
    wedge = [(_exterior_powers(measure, [2])[2], idx, "right")] if measure.d > 2 else []
    s, *w = _fold([(measure.atoms, idx, "right"), *wedge], field)
    l1s = [x / n for x in log_norms(s, field)]
    l12s = [x / n for x in log_norms(w[0], field)] if w else [0.0] * reps
    m1, se1 = _mean_se(l1s)
    m12, se12 = _mean_se(l12s)
    gaps = [2 * a - b for a, b in zip(l1s, l12s)]
    mg, seg = _mean_se(gaps)
    return LyapunovEstimate(
        lambda1_hat=m1,
        lambda12_hat=m12,
        gap_hat=mg,
        ci_half_widths=(Z95 * se1, Z95 * se12, Z95 * seg),
        n=n,
        reps=reps,
        d=measure.d,
    )


@dataclass(frozen=True)
class GapVerdict:
    positive: bool
    gap: float
    half_width: float
    sl2_balanced: bool | None  # |lambda1 + lambda2| <= CI, only meaningful for d = 2


def gap_test(est: LyapunovEstimate) -> GapVerdict:
    """Positive iff the top Lyapunov gap clears its CI, floored at d * 2**-52 (a float step's rounding)."""
    hw = max(est.ci_half_widths[2], est.d * 2**-52)
    sl2 = None
    if est.d == 2:
        sl2 = abs(est.lambda12_hat) <= max(est.ci_half_widths[1], 1e-12)
    return GapVerdict(positive=est.gap_hat - hw > 0, gap=est.gap_hat, half_width=hw, sl2_balanced=sl2)


def moment_ratio(measure: WalkMeasure, eps: float, n: int, reps: int, seed: int) -> float:
    """max over basis x of (mean (||S_n|| / ||S_n x||)**eps)**(1/n).

    Near 1 for strongly irreducible contracting measures; a reducible
    point mass is the documented counterexample.
    """
    _require_draws([n], reps)
    if n < 1:
        raise UsageError("moment_ratio needs n >= 1")
    if not 0 < eps <= 1:
        raise DomainError("eps must lie in (0, 1]")
    field = measure.field
    d = measure.d
    basis = [as_vector([1 if i == j else 0 for j in range(d)], field) for i in range(d)]
    sums = [0.0] * d
    prods = walk_products(measure.atoms, walk_indices(measure, n, seed, range(reps)), field)
    for s, log_norm in zip(prods, log_norms(prods, field)):
        for i, e in enumerate(basis):
            sums[i] += math.exp(eps * (log_norm - scaled_log_vector_norm(s, e, field)))
    means = [t / reps for t in sums]
    return max(math.exp(math.log(m) / n) for m in means)


# ---------------------------------------------------------------------------
# Exact-replay projective distances
# ---------------------------------------------------------------------------


def _exact_delta(x, y, field: FieldSpec) -> float:
    """delta([x],[y]) for exact rational vectors, safe far below 1e-16.

    Computed from the exact squared distance via big-integer logs, so
    exponentially small separations keep full relative precision.  The
    value does not change when x or y is scaled, so callers pass integer
    representatives.
    """
    pairs = wedge_pairs(len(x))
    w = [x[i] * y[j] - x[j] * y[i] for i, j in pairs]
    if all(c == 0 for c in w):
        return 0.0
    if field.is_archimedean:
        num = sum(c * c for c in w)
        den = sum(c * c for c in x) * sum(c * c for c in y)
        delta_sq = Fraction(num, den)
    else:
        delta_sq = fubini_study(x, y, field) ** 2
    return math.exp(0.5 * (math.log(delta_sq.numerator) - math.log(delta_sq.denominator)))


def _replay_convergence(measure: WalkMeasure, grid, horizon: int, reps: int, seed: int, sides) -> list:
    """Mean delta between each grid checkpoint's direction and the horizon's, one curve per side.

    sides holds (transposed, directions) pairs: directions maps the stacked exact replays at one
    checkpoint, S_n, or M_n^T (the fold of the transposed atoms) when transposed is set, to one integer
    direction row per trajectory.  Directions are projective, so the replay runs on the atoms' integer
    numerators.  Every side shares one :func:`walk_indices` draw.
    """
    grid = sorted(grid)
    _require_draws(grid, reps)
    if horizon < 2 * max(grid):
        raise UsageError("horizon too small: need horizon >= 2 * max(grid)")
    atoms = [_integer_form(a)[0] for a in measure.exact_atoms]
    idx = walk_indices(measure, horizon, seed, range(reps))
    curves = []
    for transposed, directions in sides:
        table = [a.T for a in atoms] if transposed else atoms
        *dirs, limit = (directions(p) for p in integer_products(table, idx, [*grid, horizon]))
        cols = [[_exact_delta(u, w, measure.field) for u, w in zip(at_n, limit)] for at_n in dirs]
        curves.append(_decay("mean", grid, [_mean_point(c) for c in cols], reps, extra={"horizon": horizon}))
    return curves


def direction_convergence(
    measure: WalkMeasure,
    x,
    grid,
    horizon: int,
    reps: int,
    seed: int,
) -> DecayEstimate:
    """Mean delta(M_n[x], M_N[x]) per grid n, N the horizon checkpoint.

    The horizon direction proxies the almost-sure limit direction; it
    must dominate the grid (N >= 2 max grid).  Products are replayed in
    exact arithmetic so the curve stays meaningful below float precision.
    """
    _require_vector(x, measure.d, "x")
    x_int, _ = _integer_form(x)
    # each row M_n x, as x^T M_n^T
    (curve,) = _replay_convergence(measure, grid, horizon, reps, seed, [(True, lambda mt: x_int @ mt)])
    return curve


@dataclass(frozen=True)
class KakFrameConvergence:
    k_curve: DecayEstimate  # delta(k(M_n) e1, k(M_N) e1)
    u_curve: DecayEstimate  # delta(U_n^{-1} e1*, U_N^{-1} e1*), U from kak(S_n)


def _top_right_directions(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Top right singular direction of each matrix of a stack p, one row each.

    Three power steps on p^T p: angular error O((a2/a1)^6), far below the
    O(a2/a1) scale of the frame-convergence curves.
    """
    w = z[:, None]
    for _ in range(3):
        w = p.swapaxes(1, 2) @ (p @ w)
    return w[..., 0]


def kak_convergence(
    measure: WalkMeasure,
    grid,
    horizon: int,
    reps: int,
    seed: int,
) -> KakFrameConvergence:
    """Decay of the KAK frame directions of M_n (k-part) and S_n (u-part): the top right singular
    directions of M_n^T (k(M_n) e1, from the fold of the transposed atoms) and of S_n."""
    z = np.array([3**j for j in range(measure.d)], dtype=object)
    sides = [(transposed, lambda p: _top_right_directions(p, z)) for transposed in (True, False)]
    k_curve, u_curve = _replay_convergence(measure, grid, horizon, reps, seed, sides)
    return KakFrameConvergence(k_curve=k_curve, u_curve=u_curve)


# ---------------------------------------------------------------------------
# Asymptotic independence of the KAK frames
# ---------------------------------------------------------------------------

HOLDER_KINDS = ("dist_to_point", "dist_to_hyperplane", "one_minus_dist_to_point")


@dataclass(frozen=True)
class HolderTestFunction:
    """A Holder test function from the fixed distance-based catalog.

    Each catalog entry is built from 1-Lipschitz projective distance
    factors, so its Holder norm at exponent e is bounded by the recorded
    constant (sqrt(2) for hyperplane distances, 1 otherwise).
    """

    kind: str
    reference: tuple
    exponent: float
    holder_norm_bound: float
    field: FieldSpec

    def evaluate(self, x) -> float:
        ref = as_vector(self.reference, self.field)
        if self.kind == "dist_to_point":
            return float(fubini_study(x, ref, self.field)) ** self.exponent
        if self.kind == "dist_to_hyperplane":
            return float(dist_point_hyperplane(x, ref, self.field)) ** self.exponent
        if self.kind == "one_minus_dist_to_point":
            return 1.0 - float(fubini_study(x, ref, self.field)) ** self.exponent
        raise DomainError(f"unknown Holder catalog kind {self.kind!r}")

    def _evaluate_rows(self, xs) -> list:
        """:meth:`evaluate` of each row of xs, == row for row; a float array (rows, d) in one pass."""
        if not self.field.is_archimedean or self.kind not in HOLDER_KINDS:
            return [self.evaluate(x) for x in xs]
        ref = as_vector(self.reference, self.field)
        if self.kind == "dist_to_hyperplane":
            _require_nonzero(ref, "hyperplane covector")
            dist = cross_margin_matrix(xs[None], ref[None, None], self.field)[0, :, 0]
        else:  # fubini_study(x, ref): the wedge in its operand order, normed as vector_norm does
            _require_nonzero(ref, "projective representative")
            w = np.stack([xs[:, i] * ref[j] - xs[:, j] * ref[i] for i, j in wedge_pairs(len(ref))], axis=1)
            dist = np.where(w.any(axis=1), _row_norms(w) / (_row_norms(xs) * _row_norms(ref[None])[0]), 0.0)
        vals = [x ** self.exponent for x in dist.tolist()]
        return [1.0 - x for x in vals] if self.kind == "one_minus_dist_to_point" else vals


def holder_function(kind: str, reference, field: FieldSpec, exponent: float = 1.0) -> HolderTestFunction:
    if kind not in HOLDER_KINDS:
        raise DomainError(f"Holder catalog has {HOLDER_KINDS}, not {kind!r}")
    if not 0 < exponent <= 1:
        raise DomainError("Holder exponent must lie in (0, 1]")
    bound = math.sqrt(2.0) if kind == "dist_to_hyperplane" else 1.0
    return HolderTestFunction(
        kind=kind,
        reference=tuple(reference),
        exponent=exponent,
        holder_norm_bound=bound,
        field=field,
    )


@dataclass(frozen=True)
class IndependenceResult:
    discrepancy: float  # |E(phi1 phi2) - E(phi1) E(phi2)|
    se: float  # influence-function SE of the signed covariance
    mean_joint: float
    mean_phi1: float
    mean_phi2: float
    n: int
    reps: int


def independence_test(
    measure: WalkMeasure,
    phi1: HolderTestFunction,
    phi2: HolderTestFunction,
    n: int,
    reps: int,
    seed: int,
) -> IndependenceResult:
    """Empirical covariance gap of phi1(K_n e1) and phi2(U_n^{-1} e1*) along S_n."""
    _require_draws([n], reps)
    for phi in (phi1, phi2):
        if phi.field != measure.field:
            raise UsageError(f"a Holder function over {phi.field} cannot score a walk over {measure.field}")
        _require_vector(phi.reference, measure.d, "Holder reference")
    field = measure.field
    s = walk_products(measure.atoms, walk_indices(measure, n, seed, range(reps)), field)
    v, h, _ = pole_pair([x.unit for x in s], field, unimodular=False)
    rows = list(zip(phi1._evaluate_rows(v[:, 0]), phi2._evaluate_rows(h[:, 0])))
    m1 = sum(r[0] for r in rows) / reps
    m2 = sum(r[1] for r in rows) / reps
    mj = sum(r[0] * r[1] for r in rows) / reps
    # influence function of the covariance functional
    infl = [(a * b - mj) - m2 * (a - m1) - m1 * (b - m2) for a, b in rows]
    var = sum(v * v for v in infl) / max(reps - 1, 1)
    return IndependenceResult(
        discrepancy=abs(mj - m1 * m2),
        se=math.sqrt(var / reps),
        mean_joint=mj,
        mean_phi1=m1,
        mean_phi2=m2,
        n=n,
        reps=reps,
    )


# ---------------------------------------------------------------------------
# Invariant measure regularity probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantProbeResult:
    fractions: tuple  # per hyperplane: P(delta(M_n[e1], H) <= t**n)
    ci_lo: tuple
    ci_hi: tuple
    sup_fraction: float
    t: float
    n: int
    reps: int


def invariant_measure_probe(
    measure: WalkMeasure, n: int, reps: int, hyperplanes, t: float, seed: int
) -> InvariantProbeResult:
    """Tail mass of the limit direction near each supplied hyperplane."""
    _require_draws([n], reps)
    if not 0 < t < 1:
        raise DomainError("t must lie in (0, 1)")
    for f in hyperplanes:
        _require_vector(f, measure.d, "hyperplane covector")
    field = measure.field
    covs = np.array([as_vector(h, field) for h in hyperplanes]).reshape(-1, measure.d)
    idx = walk_indices(measure, n, seed, range(reps))
    # M_n[e1] is the first column of each unit
    directions = np.array([left.unit[:, 0] for left in _fold([(measure.atoms, idx, "left")], field)[0]])
    margins = cross_margin_matrix(directions[None], covs[None], field)[0]
    counts = (margins <= t**n).sum(axis=0).tolist()
    fracs, los, his = _columns(_proportion_point(c, reps) for c in counts)
    return InvariantProbeResult(
        fractions=fracs,
        ci_lo=los,
        ci_hi=his,
        sup_fraction=max(fracs) if fracs else 0.0,
        t=t,
        n=n,
        reps=reps,
    )


# ---------------------------------------------------------------------------
# Ping-pong failure decay
# ---------------------------------------------------------------------------

FAILURE_KEYS = (FAIL_CONTRACTION, FAIL_SEPARATION, FAIL_CROSS)


def _walk_poles(measures, rows) -> tuple:
    """Poles of (S_n, S_n^{-1}) of every row of rows: v, h (k, 2, d), ratios (k, 2), in row order.

    rows[w] lists index arrays of measures[w], of any lengths.  Over R one :func:`_fold` takes wedge^j S_n for
    j in {1, 2, d - 2, d - 1} (:func:`_exterior_powers`, once per distinct measure) and no inverse walk:
    S_n^{-1} = H wedge^{d-1}(S_n)^T H^T (:func:`_hodge`), so its poles are H applied to the frames of
    wedge^{d-1} S_n, v and h swapped; the bottom frames of S_n's float unit are lost once a_1/a_d passes
    float precision.  With L_j the scaled log norms of wedge^j S_n and L_0 = L_d = 0, the ratios are
    exp(L_2 - 2 L_1) and exp(L_{d-2} - 2 L_{d-1}), accurate far below float precision.  One :func:`pole_pair`
    call takes every frame; over Q_p, where every walk is exact, one takes the integer products.
    """
    field, d = measures[0].field, measures[0].d
    if not field.is_archimedean:
        ints = [[_integer_form(a)[0] for a in m.atoms] for m in measures]
        prods = [g for atoms, idxs in zip(ints, rows) for idx in idxs
                 for g in integer_products(atoms, idx, [idx.shape[1]])[0]]
        return pole_pair(prods, field, unimodular=False)
    degrees = sorted({1, 2, d - 2, d - 1} - {0, d})
    powers = {id(m): _exterior_powers(m, degrees) for m in {id(m): m for m in measures}.values()}
    jobs = [(powers[id(m)][k], idx, "right") for k in degrees for m, idxs in zip(measures, rows) for idx in idxs]
    folds, per = _fold(jobs, field), len(jobs) // len(degrees)
    prods = {k: [x for fold in folds[i * per:(i + 1) * per] for x in fold] for i, k in enumerate(degrees)}
    n = len(prods[1])
    v, h, _ = pole_pair([x.unit for k in sorted({1, d - 1}) for x in prods[k]], field, unimodular=False)
    v, h, v_dual, h_dual = v[:n, 0], h[:n, 0], v[-n:, 0], h[-n:, 0]  # at d = 2 wedge^{d-1} S_n is S_n
    inv_v, inv_h = np.split(_normalize_rows(np.concatenate([h_dual, v_dual]) @ _hodge(d).T.astype(float)), 2)
    logs = dict.fromkeys((0, d), [0.0] * n) | {k: log_norms(prods[k], field) for k in degrees}
    ratios = [[math.exp(a - 2 * b), math.exp(c - 2 * e)] for a, b, c, e in zip(*map(logs.get, (2, 1, d - 2, d - 1)))]
    return np.stack([v, inv_v], axis=1), np.stack([h, inv_h], axis=1), np.array(ratios)


def _tuple_scores(measures, grid, reps: int, seed: int) -> tuple:
    """Threshold-free ratio (len(grid), reps, 2l) and margins (len(grid), reps, 2l, 2l), l = len(measures).

    Walk w of tuple rep at grid point gi runs on stream (gi*reps + rep)*l + w of measures[w], row rep of
    rows[w][gi].  One :func:`_walk_poles` call and one margin call; a tuple's poles are S_n, S_n^{-1} of
    walk 0, then of walk 1, and so on.
    """
    _require_draws(grid, reps)
    if len({(m.field, m.d) for m in measures}) != 1:
        raise UsageError("the measures of a tuple must share one field and dimension")
    l, g = len(measures), len(grid)
    rows = [[walk_indices(m, n, seed, [(gi * reps + rep) * l + w for rep in range(reps)]) for gi, n in enumerate(grid)]
            for w, m in enumerate(measures)]
    # (l, G, reps, 2, ...) -> (G, reps, 2l, ...): walk w's S_n, S_n^{-1} become poles 2w, 2w + 1
    v, h, ratio = (np.moveaxis(a.reshape(l, g, reps, *a.shape[1:]), 0, 2).reshape(g, reps, 2 * l, *a.shape[2:])
                   for a in _walk_poles(measures, rows))
    return ratio, cross_margin_matrix(v, h, measures[0].field)


def pingpong_decay(
    measure: WalkMeasure,
    measure2: WalkMeasure,
    r_base: float,
    eps_base: float,
    grid,
    reps: int,
    seed: int,
) -> DecayEstimate:
    """P(the pair (S_n, S'_n) fails the ping-pong pair test at r_base**n, eps_base**n).

    Thresholds are evaluated at every grid point; points where
    r_base**n <= 2 * eps_base**n cannot support the freeness
    interpretation and are marked invalid in extra["thresholds_valid"]
    (the raw inequalities are still scored there).  The pairs are the
    l = 2 tuples of :func:`_tuple_scores`.
    """
    if not 0 < eps_base < r_base < 1:
        raise DomainError("need 0 < eps_base < r_base < 1")
    grid = sorted(grid)
    ratio, margins = _tuple_scores((measure, measure2), grid, reps, seed)
    fails = [tuple_failure_reasons(ratio[gi], margins[gi], r_base**n, eps_base**n) for gi, n in enumerate(grid)]
    counts = [int(np.any(list(f.values()), axis=0).sum()) for f in fails]
    extra = {
        "breakdown": {k: [int(f[k].sum()) for f in fails] for k in FAILURE_KEYS},
        "thresholds_valid": [r_base**n > 2 * eps_base**n for n in grid],
        "r": [r_base**n for n in grid],
        "eps": [eps_base**n for n in grid],
    }
    return _decay("proportion", grid, [_proportion_point(c, reps) for c in counts], reps, extra=extra)


@dataclass(frozen=True)
class TupleDecayResult:
    failure_fraction: float
    failures: int
    reps: int
    l: int
    n: int
    r: float
    eps: float
    prediction: float | None  # union bound l(l-1) rho_hat**n
    prediction_se: float | None

    @property
    def within_prediction(self) -> bool | None:
        if self.prediction is None:
            return None
        return self.failure_fraction <= self.prediction + 2 * (self.prediction_se or 0.0)


def tuple_decay(
    measure: WalkMeasure,
    l: int,
    r: float,
    eps: float,
    n: int,
    reps: int,
    seed: int,
    rho_hat: float | None = None,
) -> TupleDecayResult:
    """Failure fraction of the ping-pong l-tuple test at time n.

    When rho_hat (a fitted pair-failure rate) is given, also reports the
    union-bound prediction l(l-1) rho_hat**n with its binomial SE.
    """
    if l < 2:
        raise DomainError("tuple size l must be at least 2")
    (ratio,), (margins,) = _tuple_scores((measure,) * l, [n], reps, seed)
    failures = int(np.any(list(tuple_failure_reasons(ratio, margins, r, eps).values()), axis=0).sum())
    prediction = None
    prediction_se = None
    if rho_hat is not None:
        prediction = min(1.0, l * (l - 1) * rho_hat**n)
        prediction_se = math.sqrt(max(prediction * (1 - prediction), 1e-12) / reps)
    return TupleDecayResult(
        failure_fraction=failures / reps,
        failures=failures,
        reps=reps,
        l=l,
        n=n,
        r=r,
        eps=eps,
        prediction=prediction,
        prediction_se=prediction_se,
    )
