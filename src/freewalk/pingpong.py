"""Contraction predicates, ping-pong certification and the exact freeness oracle.

Certification is one-sided throughout: a positive verdict witnesses that
the generators form a ping-pong tuple (hence generate a free group), a
negative verdict proves nothing.  The contraction test uses the
sufficient singular-value criterion ratio <= eps**2, not the mapping
definition of eps-contraction, which is strictly weaker to check and
never needed here.

Poles are arrays from decomposition to score: :func:`pole_pair` gives
v, h (m, 2, d) and ratios (m, 2) for a stack of m matrices (index 0
holds the KAK frames, which the walk estimators read),
:func:`cross_margin_matrix` every delta(v_p, Ker h_q) of a stack of
tuples, own-separations on its diagonal, and :func:`tuple_failure_reasons`
is the one comparer of tuple bounds with thresholds: the decay and tuple
estimators, :func:`pingpong_certificate`, :func:`is_very_proximal` and the
certified bounds of :func:`_certified_bounds` all score through it.

Three evaluation modes:

* float (archimedean default): plain SVD arithmetic, adequate for
  Monte Carlo experiments;
* exact (nonarchimedean default): Fractions end to end, every comparison
  is exact;
* certified (archimedean with exact rational inputs): candidate
  attracting/repelling data from one float SVD of the whole stack
  g_0, g_0^{-1}, g_1, ... is verified with exact Rayleigh-quotient and
  residual bounds on Python-int lists (g^{-1} comes from the integer
  adjugate), in one pass per tuple, which meet floats only as outward-rounded
  (lo, hi) endpoint pairs from the same endpoint functions that
  :class:`~freewalk.fields.Interval` uses, so a positive verdict holds
  at interval endpoints.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .decompositions import _smith, kak
from .errors import DomainError, UsageError
from .fields import FieldSpec, _div, _down, _enclose, _p_power, _sqrt, _up, abs_value
from .linalg import (
    _faddeev_leverrier,
    _int_list,
    _integer_form,
    _normalize_rows,
    _padic_margin,
    _padic_vector,
    _row_norms,
    adjugate,
    dist_point_hyperplane,
    exact_inv,
    normalize_representative,
    require_unimodular,
    vector_to_strings,
    wedge_pairs,
)


@dataclass(frozen=True)
class ContractionData:
    """Attracting point, repelling hyperplane covector, and their margins."""

    v: np.ndarray
    h: np.ndarray
    ratio: object  # float or Fraction, |a_2 / a_1|
    separation: object  # float or Fraction, delta(v, Ker h)


def contraction_data(g: np.ndarray, field: FieldSpec) -> ContractionData:
    """Contraction data of a determinant-1 matrix, via its KAK decomposition."""
    dec = kak(g, field)
    ratio = abs_value(dec.a[1], field) / abs_value(dec.a[0], field)
    return ContractionData(dec.v, dec.h, ratio, dist_point_hyperplane(dec.v, dec.h, field))


def _check_r_eps(r: float, eps: float) -> None:
    # a finite r > 1 is a valid threshold that no margin meets; an infinite one has no exact form
    if not np.inf > r > 2 * eps > 0:
        raise DomainError(f"need r > 2*eps > 0 with r finite, got r={r}, eps={eps}")


def _check_generators(gs, least: int) -> None:
    """Reject fewer than `least` generators, or generators that are not square matrices of one size."""
    if len(gs) < least:
        raise DomainError(f"a generator tuple needs at least {least} matrices, got {len(gs)}")
    try:
        shapes = {np.shape(g) for g in gs}
    except ValueError:  # numpy refuses a ragged row list
        shapes = set()
    if len(shapes) != 1 or len(d := next(iter(shapes))) != 2 or d[0] != d[1] or not d[0]:
        raise UsageError("generators must be square matrices of one size")


def is_eps_contracting(g: np.ndarray, eps: float, field: FieldSpec):
    """Sufficient contraction certificate: true iff |a_2/a_1| <= eps**2."""
    if not 0 < eps < 1:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    data = contraction_data(g, field)
    if field.is_archimedean:
        ok = data.ratio <= eps * eps
    else:
        ok = data.ratio <= Fraction(eps) ** 2  # exact comparison
    return ok, data


def pole_pair(gs, field: FieldSpec, unimodular: bool = True) -> tuple:
    """Poles of g and g^{-1} for each matrix g of a stack: the KAK-frames primitive of both fields.

    Returns v, h of shape (m, 2, d) and ratios |a_2/a_1| of shape (m, 2);
    index 0 is g and index 1 is g^{-1}.  If g = K A U then
    g^{-1} = (U^{-1} J)(J A^{-1} J)(J K^{-1}) with J the index reversal,
    so the attracting point of g^{-1} is the class of U^{-1} e_d and its
    repelling covector the last row of K^{-1}, and |a_i / a_j| is read
    off A, which matches the reversed-reciprocal a-part identity.  Over R
    the whole stack takes one SVD and no inverse: K^{-1} = K^T and
    U^{-1} = U^T, so the four frames are rows and columns of K and U,
    normalised in one stack (scale- and sign-invariant, so with
    unimodular=False any invertible g will do).  Over Q_p, with K, U the
    integer Smith factors and b the integer form of g, one integer
    adjugate gives both: adj(b) K e_d spans U^{-1} e_d and e_d^T U adj(b)
    spans e_d^T K^{-1}; |a_i / a_j| is p**(v_i - v_j) of the pivot
    valuations.  It suits matrices of moderate condition number; for long
    products, whose unit cannot resolve U^{-1} e_d in floats once a_1/a_d
    passes 1e16 (d >= 3), the walk estimators take index 0 of S_n and of
    wedge^{d-1} S_n, whose frames are the Hodge duals of S_n^{-1}'s.
    """
    if field.is_archimedean and len(gs):  # an empty stack, which svd rejects, gets the loop's empty arrays
        if unimodular:
            for g in gs:
                require_unimodular(g, field)
        k, s, u = np.linalg.svd(np.asarray(gs, dtype=float))
        f = _normalize_rows(np.concatenate([k[:, :, 0], u[:, -1, :], u[:, 0, :], k[:, :, -1]])).reshape(4, len(k), -1)
        v, h = np.stack([f[0], f[1]], axis=1), np.stack([f[2], f[3]], axis=1)
        return v, h, np.stack([s[:, 1] / s[:, 0], s[:, -1] / s[:, -2]], axis=1)
    v, h, ratio = [], [], []
    p = field.prime
    for g in gs:  # normalize_representative is scale-invariant: an adjugate stands in for the inverse
        d = g.shape[0]
        k, _, u, _, pivots, b = _smith(g, p, unimodular=unimodular)
        vals = [val for *_, val in pivots]
        ratio.append([_p_power(p, vals[0] - vals[1]), _p_power(p, vals[d - 2] - vals[d - 1])])
        # object arrays: a list of ints near 2**64 would pass through a fixed-width numpy int and wrap
        adj, k, u = adjugate(b), np.array(k, dtype=object), np.array(u, dtype=object)
        v.append([normalize_representative(k[:, 0], field), normalize_representative(adj @ k[:, d - 1], field)])
        h.append([normalize_representative(u[0], field), normalize_representative(u[d - 1] @ adj, field)])
    return np.array(v), np.array(h), np.array(ratio)


def is_very_proximal(g: np.ndarray, r: float, eps: float, field: FieldSpec) -> bool:
    """(r, eps)-very proximal: g and g^{-1} both contract and are r-separated."""
    _check_r_eps(r, eps)
    v, h, ratio = pole_pair([g], field)
    return not any(tuple_failure_reasons(ratio, cross_margin_matrix(v, h, field), r, eps).values())


# ---------------------------------------------------------------------------
# Tuple certification
# ---------------------------------------------------------------------------

FAIL_CONTRACTION = "own-contraction"
FAIL_SEPARATION = "own-separation"
FAIL_CROSS = "cross-margin"
FAIL_UNCERTIFIED = "uncertified-geometry"


def cross_margin_matrix(v: np.ndarray, h: np.ndarray, field: FieldSpec) -> np.ndarray:
    """margins[..., p, q] = delta(v_p, Ker h_q) for points v (..., m, d) and covectors h (..., n, d).

    For poles (n = m) the own-separations lie on the diagonal.  Entry for
    entry this is :func:`dist_point_hyperplane`: the norms of all points
    and covectors are one stacked :func:`vector_norm` and h_q . v_p is
    summed in coordinate order.  Over Q_p each margin is one exponent of
    integer valuations and one exact Fraction.
    """
    d, m, n = v.shape[-1], v.shape[-2], h.shape[-2]
    if not field.is_archimedean:
        p = field.prime
        vs, hs = ([_padic_vector(x, p) for x in a.reshape(-1, d)] for a in (v, h))
        rows = [[_padic_margin(*x, *hs[i // m * n + j], p) for j in range(n)] for i, x in enumerate(vs)]
        return np.array(rows, dtype=object).reshape(v.shape[:-1] + (n,))
    num = np.abs(sum(h[..., None, :, k] * v[..., :, None, k] for k in range(d)))
    norms = _row_norms(np.concatenate([v.reshape(-1, d), h.reshape(-1, d)]))
    norm_v, norm_h = norms[: v.size // d].reshape(v.shape[:-1]), norms[v.size // d:].reshape(h.shape[:-1])
    return num / (norm_h[..., None, :] * norm_v[..., :, None])


def tuple_failure_reasons(ratio: np.ndarray, margins: np.ndarray, r: float, eps: float) -> dict:
    """Each failure reason at thresholds (r, eps), as a boolean array over a stack of tuples.

    ratio (..., m) and margins (..., m, m) hold tuples of m poles ordered
    g_0, g_0^{-1}, g_1, ...  Unguarded: evaluates the raw inequalities
    whether or not r > 2*eps, so decay experiments can score scheduled
    thresholds at every walk length.  Each threshold takes the exactness
    of the array it meets: eps**2 and r are converted to Fractions once
    against object arrays, and float arrays keep float comparisons.
    """
    eps_sq = Fraction(eps) ** 2 if ratio.dtype == object else eps * eps
    r = Fraction(r) if margins.dtype == object else r
    block = np.arange(ratio.shape[-1]) // 2
    other = block[:, None] != block[None, :]
    return {
        FAIL_CONTRACTION: (ratio > eps_sq).any(axis=-1),
        FAIL_SEPARATION: (np.diagonal(margins, axis1=-2, axis2=-1) <= r).any(axis=-1),
        FAIL_CROSS: ((margins < r) & other).any(axis=(-2, -1)),
    }


@dataclass(frozen=True)
class ProximalityCertificate:
    """Witness data for a ping-pong tuple certification attempt."""

    generators: tuple
    r: float
    eps: float
    mode: str  # "float" | "exact" | "certified-interval"
    v: np.ndarray  # attracting points (2m, d), ordered g_0, g_0^{-1}, g_1, ...
    h: np.ndarray  # repelling covectors (2m, d), in the same order
    ratio: np.ndarray  # |a_2/a_1| of each pole, (2m,)
    margins: tuple  # full delta(v_p, Ker h_q) matrix, own-separations on the diagonal
    certified: bool
    failures: tuple

    def to_json_dict(self, field: FieldSpec) -> dict:
        pole_docs = [
            {
                "generator": i // 2,
                "inverse": bool(i % 2),
                "ratio": float(self.ratio[i]),
                "separation": float(self.margins[i][i]),
                "v": vector_to_strings(self.v[i], field),
                "h": vector_to_strings(self.h[i], field),
            }
            for i in range(len(self.ratio))
        ]
        return {
            "schema": "freewalk/certificate/v1",
            "verdict": "certified-free" if self.certified else "not-certified",
            "one_sided": "a negative verdict is not a proof of non-freeness",
            "mode": self.mode,
            "r": self.r,
            "eps": self.eps,
            "generators": [vector_to_strings(g.ravel(), field) for g in self.generators],
            "poles": pole_docs,
            "cross_margins": [[float(x) for x in row] for row in self.margins],
            "failures": sorted(self.failures),
        }


def pingpong_certificate(
    gs, r: float, eps: float, field: FieldSpec, certified: bool = False
) -> ProximalityCertificate:
    """Full certification report for a tuple of determinant-1 matrices."""
    _check_r_eps(r, eps)
    _check_generators(gs, 2)
    # poles ordered g_0, g_0^{-1}, g_1, ...
    v, h, ratio = (a.reshape(-1, *a.shape[2:]) for a in pole_pair(gs, field))
    margins = cross_margin_matrix(v, h, field)
    if certified and field.is_archimedean:
        mode, failures = "certified-interval", _certified_failures_real(gs, r, eps)
    else:
        mode = "float" if field.is_archimedean else "exact"
        failures = {k for k, hit in tuple_failure_reasons(ratio, margins, r, eps).items() if hit}
    return ProximalityCertificate(
        generators=tuple(gs),
        r=r,
        eps=eps,
        mode=mode,
        v=v,
        h=h,
        ratio=ratio,
        margins=tuple(map(tuple, margins.tolist())),
        certified=not failures,
        failures=tuple(sorted(failures)),
    )


def is_pingpong_tuple(gs, r: float, eps: float, field: FieldSpec):
    """True plus the certificate when the tuple certifies, else (False, None)."""
    cert = pingpong_certificate(gs, r, eps, field)
    return (True, cert) if cert.certified else (False, None)


# ---------------------------------------------------------------------------
# Certified interval mode (archimedean)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CertifiedPole:
    v: tuple  # integer candidate; the attracting point is v / v_den
    v_den: int
    vv: int  # v . v
    h: tuple  # integer candidate; the repelling covector is h / h_den
    h_den: int
    hh: int  # h . h
    ratio_sq_upper: Fraction
    sin_v: float  # upper endpoints of the sin-angle bounds; both lower ones are 0.0
    sin_h: float


_SQRT2 = _sqrt(2.0, 2.0)


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _wedge_bound(M: list, pairs: list) -> int:
    """The infinity norm of the exterior square of the integer row list M: its largest absolute row sum."""
    return max(sum(abs(M[i][k] * M[j][l] - M[i][l] * M[j][k]) for k, l in pairs) for i, j in pairs)


def _certified_pole_real(a: list, den: int, k0: list, u0: list) -> Optional[_CertifiedPole]:
    """Verified geometry bounds for the matrix g = a / den, a an integer row list.

    k0 and u0 are float candidates for the top left and right singular
    vectors of g (:func:`_certified_poles` takes them from an SVD of the
    correctly rounded a_ij / den); the verification is exact: Rayleigh
    quotients lower-bound sigma_1**2, the infinity norm of the exterior
    square upper-bounds (sigma_1 sigma_2)**2, and residual (Davis-Kahan)
    bounds control the angle to the true singular directions.  Returns
    None when the spectral gap cannot be certified.

    The arithmetic runs on Python ints: with the dyadic candidates x = xi / c,
    P = a a^T (or a^T a), xx = xi.xi and ln = xi.P xi, the bounds are
    lam = ln / (den**2 xx), rho**2 = |xx P xi - ln xi|**2 / (den**4 xx**3)
    and gap = (ln**2 - W xx**2) / (den**2 xx ln), W the integer
    exterior-square bound.  rho and gap meet float endpoints only through
    the enclosures of these quotients.  Every bound is invariant under
    scaling (a, den) by c > 0, so any integer form of g gives the same one.
    """
    vhat, v_den = _int_list(k0)
    hhat, h_den = _int_list(u0)
    cols = list(zip(*a))
    P = [[_dot(r, s) for s in a] for r in a]  # a a^T, eigvec for sigma_1^2: attracting point
    S = [[_dot(r, s) for s in cols] for r in cols]  # a^T a, eigvec for sigma_1^2: repelling covector
    pairs = wedge_pairs(len(a))
    W = min(_wedge_bound(P, pairs), _wedge_bound(S, pairs))
    den_sq = den * den

    def pole_bounds(A, x):
        xx = _dot(x, x)
        Ax = [_dot(row, x) for row in A]
        ln = _dot(x, Ax)
        res = [xx * p - ln * c for p, c in zip(Ax, x)]
        gap_num = ln * ln - W * xx * xx
        if gap_num <= 0:
            return None
        rho = _sqrt(*_enclose(_dot(res, res), den_sq * den_sq * xx**3))
        sin_hi = _div(*rho, *_enclose(gap_num, den_sq * xx * ln))[1]
        # W xx**2 / ln**2 = W / lam**2, the bound on (sigma_2 / sigma_1)**2 from this candidate
        return W * xx * xx, ln * ln, sin_hi, xx

    bv = pole_bounds(P, vhat)
    bh = pole_bounds(S, hhat)
    if bv is None or bh is None:
        return None
    wv, lv, sin_v, vv = bv
    wh, lh, sin_h, hh = bh
    # the smaller of the two ratio bounds, compared cross-multiplied (both ln**2 > 0), as one Fraction
    ratio_sq = Fraction(wh, lh) if wh * lv < wv * lh else Fraction(wv, lv)
    return _CertifiedPole(v=tuple(vhat), v_den=v_den, vv=vv, h=tuple(hhat), h_den=h_den, hh=hh,
                          ratio_sq_upper=ratio_sq, sin_v=sin_v, sin_h=sin_h)


def _certified_poles(forms: list) -> list:
    """:func:`_certified_pole_real` of each matrix a / den of forms, a list of (a, den), from one SVD.

    The float stack of every a_ij / den takes one LAPACK call; a stacked
    SVD decomposes matrix by matrix, so each candidate is bit for bit the
    one an SVD of its own matrix gives.
    """
    k, _, u = np.linalg.svd(np.array([[[x / den for x in row] for row in a] for a, den in forms]))
    return [_certified_pole_real(a, den, kk[:, 0].tolist(), uu[0].tolist())
            for (a, den), kk, uu in zip(forms, k, u)]


def _certified_separation(p: _CertifiedPole, q: _CertifiedPole) -> float:
    """Lower endpoint of delta(v_p, Ker h_q), corrected for candidate error.

    delta(., Ker .) is sqrt(2)-Lipschitz in the summed projective metric,
    so the true separation is at least the candidate one minus
    sqrt(2) * (angle errors).  The endpoint is rounded as the Interval
    expression sqrt(num_sq) / sqrt(den_sq) - sqrt(2) * (sin_v + sin_h)
    rounds its lower end.
    """
    scale_sq = (p.v_den * q.h_den) ** 2
    dot = _dot(q.h, p.v)
    num = _sqrt(*_enclose(dot * dot, scale_sq))
    lo = _div(*num, *_sqrt(*_enclose(p.vv * q.hh, scale_sq)))[0]
    return _down(lo - _up(_SQRT2[1] * _up(p.sin_v + q.sin_h)))


def _certified_bounds(gs) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Certified bounds of a tuple over R, or None when a pole's spectral gap is not certified.

    ratio_sq (2m,) holds exact upper bounds on |a_2/a_1|**2 and sep (2m, 2m) lower endpoints
    of delta(v_p, Ker h_q), poles ordered as by :func:`pole_pair`; sep is inf where
    :func:`tuple_failure_reasons` reads nothing (two poles of one generator).
    g^{-1} = den adj(a) / det(a) for g = a / den: adj(a) and det(a) come from one pass, and the
    2m matrices g_0, g_0^{-1}, g_1, ... take one SVD (:func:`_certified_poles`).
    """
    forms = []
    for g in gs:
        a, den = _integer_form(g)
        a = a.tolist()
        _, adj, det = _faddeev_leverrier(a)
        if det == 0:
            raise DomainError("matrix is singular")
        scale = den if det > 0 else -den
        forms += [(a, den), ([[scale * x for x in row] for row in adj.tolist()], abs(det))]
    poles = _certified_poles(forms)  # every pole is bounded, so a later pole's error still raises
    if any(p is None for p in poles):
        return None
    sep = [[_certified_separation(p, q) if i == j or i // 2 != j // 2 else np.inf for j, q in enumerate(poles)]
           for i, p in enumerate(poles)]
    return np.array([p.ratio_sq_upper for p in poles], dtype=object), np.array(sep)


def _certified_failures_real(gs, r: float, eps: float) -> set[str]:
    """Failure reasons of a tuple over R whose verdict holds at interval endpoints.

    :func:`tuple_failure_reasons` compares the bounds on |a_2/a_1|**2 with (eps**2)**2 and the
    lower separation endpoints with the upper enclosure of r, as certainly_gt / certainly_ge would.
    """
    bounds = _certified_bounds(gs)
    if bounds is None:
        return {FAIL_UNCERTIFIED}
    reasons = tuple_failure_reasons(*bounds, _enclose(*Fraction(r).as_integer_ratio())[1], Fraction(eps) ** 2)
    return {k for k, hit in reasons.items() if hit}


# ---------------------------------------------------------------------------
# Exact freeness oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleVerdict:
    """Result of the reduced-word search.

    relation is None when no word up to max_len equals the identity;
    otherwise it is the first such word in length-then-lexicographic
    order, encoded as symbol indices (2i = generator i, 2i+1 = its
    inverse).  words_checked is the number of nonempty reduced words up
    to and including the relation in that order, or all of them up to
    max_len when there is none: the words a one-by-one enumeration would
    have tested.
    """

    relation: Optional[tuple]
    max_len: int
    words_checked: int

    @property
    def found(self) -> bool:
        return self.relation is not None

    def relation_word(self) -> Optional[str]:
        if self.relation is None:
            return None
        letters = []
        for s in self.relation:
            c = chr(ord("a") + s // 2)
            letters.append(c.upper() if s % 2 else c)
        return "".join(letters)


MAX_ORACLE_LEN = 16


def _exact_rows(g) -> tuple:
    arr = np.asarray(g)
    if arr.dtype != object and not np.issubdtype(arr.dtype, np.integer):
        raise UsageError("free_word_oracle needs exact integer or rational entries")
    rows = []
    for row in arr:
        out = []
        for x in row:
            if isinstance(x, float):
                raise UsageError("free_word_oracle needs exact integer or rational entries")
            q = Fraction(x)
            out.append(q.numerator if q.denominator == 1 else q)
        rows.append(tuple(out))
    return tuple(rows)


def _mul_rows(a, b, d):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)) for i in range(d)
    )


def _words_checked(nsym: int, max_len: int, relation) -> int:
    """Reduced words up to and including relation in (length, lex) order.

    With no relation, every reduced word of length 1 to max_len.
    """
    if relation is None:
        return sum(nsym * (nsym - 1) ** (j - 1) for j in range(1, max_len + 1))
    k = len(relation)
    shorter = sum(nsym * (nsym - 1) ** (j - 1) for j in range(1, k))
    rank = 0  # reduced words of length k before the relation
    for i, s in enumerate(relation):
        # symbols below s that may follow the previous one in a reduced word
        smaller = s - (i > 0 and relation[i - 1] ^ 1 < s)
        rank += smaller * (nsym - 1) ** (k - 1 - i)
    return shorter + rank + 1


def free_word_oracle(gs, max_len: int) -> OracleVerdict:
    """Search all nonempty reduced words up to max_len for an identity relation.

    Exact arithmetic only; the search is entirely independent of the
    certification path, so it serves as a soundness oracle for it.  It
    meets in the middle: a word of length k is a prefix of length
    ceil(k/2) followed by a suffix of length floor(k/2), and it is the
    identity exactly when the suffix's product equals the product of the
    prefix's inverse word.  Prefixes are scanned in lex order against a
    table of suffix products, taking the lex-smallest suffix that keeps
    the word reduced at the junction, so the first hit is the first
    relation in (length, lex) order.
    """
    if not 1 <= max_len <= MAX_ORACLE_LEN:
        raise UsageError(f"max_len must be in [1, {MAX_ORACLE_LEN}]")
    _check_generators(gs, 1)
    base = [_exact_rows(g) for g in gs]
    d = len(base[0])
    ident = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    symbols = []
    for rows in base:
        symbols.append(rows)
        symbols.append(_exact_rows(exact_inv(np.array(rows, dtype=object))))
    nsym = len(symbols)

    # levels[j]: every reduced word of length j, in lex order, with its product
    levels = [{(): ident}]
    suffixes = {}  # j -> {product: [lex-first word, lex-first word starting otherwise]}
    for k in range(1, max_len + 1):
        half, rest = (k + 1) // 2, k // 2
        while len(levels) <= half:
            levels.append({
                w + (s,): _mul_rows(m, symbols[s], d)
                for w, m in levels[-1].items()
                for s in range(nsym)
                if not w or s != w[-1] ^ 1
            })
        if rest not in suffixes:
            table = {}
            for w, m in levels[rest].items():
                entry = table.setdefault(m, [w, None])
                if entry[1] is None and w and w[0] != entry[0][0]:
                    entry[1] = w
            suffixes[rest] = table
        prefixes = levels[half]
        for w in prefixes:
            entry = suffixes[rest].get(prefixes[tuple(s ^ 1 for s in reversed(w))])
            if entry is None:
                continue
            first, other = entry
            suffix = first if not first or first[0] != w[-1] ^ 1 else other
            if suffix is not None:
                relation = w + suffix
                return OracleVerdict(relation, max_len, _words_checked(nsym, max_len, relation))
    return OracleVerdict(None, max_len, _words_checked(nsym, max_len, None))
