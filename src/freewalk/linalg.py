"""Vectors, covectors, determinant-1 matrices and projective metrics.

Archimedean objects are float numpy arrays; nonarchimedean ones are
object-dtype numpy arrays holding exact Fractions, so every identity in
the ultrametric world can be checked with ``==``.  Exact work clears the
denominators of such an array once (:func:`_integer_form`) and runs on
Python ints instead, which skips the gcd every Fraction operation pays:
p-adic walk products, exact replay, certified poles, the determinant,
adjugate and characteristic polynomial (one Faddeev-LeVerrier pass gives
all three), the inverse and every p-adic metric.  A
p-adic norm, distance or margin is scale-invariant up to the valuation
of the common denominator, so it is one exponent of integer valuations
and one Fraction.  Values turn back to Fractions only where they leave.
Covectors act by f(x) = sum_i f_i x_i and hyperplanes are always stored
as the class of a defining covector.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from itertools import repeat

import numpy as np

from .errors import ConfigError, DomainError, InvariantViolation
from .fields import (
    INFINITE_VALUATION,
    FieldSpec,
    _int_valuation,
    _p_power,
    abs_value,
    format_scalar,
    parse_scalar,
)

UNIMODULAR_TOL = 1e-9


def as_matrix(rows, field: FieldSpec) -> np.ndarray:
    """Build a d x d matrix with field-appropriate entries."""
    if field.is_archimedean:
        return np.array([[float(x) for x in row] for row in rows], dtype=float)
    return np.array([[Fraction(x) for x in row] for row in rows], dtype=object)


def as_vector(entries, field: FieldSpec) -> np.ndarray:
    if field.is_archimedean:
        return np.array([float(x) for x in entries], dtype=float)
    return np.array([Fraction(x) for x in entries], dtype=object)


def identity(d: int, field: FieldSpec | None = None) -> np.ndarray:
    """The d x d identity: floats over R, exact Fractions over Q_p or with no field."""
    return np.eye(d) if field is not None and field.is_archimedean else np.eye(d, dtype=object) * Fraction(1)


def _ratio(x) -> tuple[int, int]:
    """Numerator and positive denominator of an exact scalar (floats convert exactly)."""
    if type(x) is Fraction or type(x) is int:
        return x.numerator, x.denominator
    if isinstance(x, float):
        return x.as_integer_ratio()
    q = Fraction(x)
    return q.numerator, q.denominator


def _int_list(xs) -> tuple[list, int]:
    """Exact scalars as a list of Python ints over their least common denominator den > 0."""
    qs = [_ratio(x) for x in xs]
    den = math.lcm(*(q for _, q in qs))
    return [p if q == den else p * (den // q) for p, q in qs], den


def _integer_form(m) -> tuple[np.ndarray, int]:
    """Clear the denominators of an exact array once: m == a / den.

    a is an object array of Python ints shaped like m, and den > 0 the
    least common denominator of the entries (floats convert exactly).
    """
    m = np.asarray(m, dtype=object)
    a, den = _int_list(m.flat)
    return np.array(a, dtype=object).reshape(m.shape), den


def _faddeev_leverrier(a) -> tuple[list, np.ndarray, int]:
    """Char poly [c_0, ..., c_d] (monic), adjugate and determinant of a square int matrix, in one pass.

    Faddeev-LeVerrier on Python ints: B_0 = I, B_k = a B_{k-1} + c_{d-k} I with c_{d-k} =
    -tr(a B_{k-1}) / k, each division exact.  a B_{d-1} = -c_0 I, so adj(a) = (-1)**(d-1) B_{d-1}
    (an object array) after d - 2 matrix products, and det(a) = a[0] . adj[:, 0] = (-1)**d c_0.
    """
    # dtype=object: numpy turns a list mixing negative ints and ints >= 2**63 into floats
    rows = [[operator.index(x) for x in row] for row in np.asarray(a, dtype=object).tolist()]
    d = len(rows)
    coeffs, ab = [1], rows  # c_d, c_{d-1}, ..., c_1; ab = a B_{k-1}
    b = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(1, d):
        coeffs.append(-sum(ab[i][i] for i in range(d)) // k)
        b = [[x + coeffs[-1] if i == j else x for j, x in enumerate(row)] for i, row in enumerate(ab)]
        if k < d - 1:
            ab = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in rows]
    adj = np.array(b, dtype=object) * (-1) ** (d - 1)
    det = sum(x * y for x, y in zip(rows[0], adj[:, 0]))
    return [(-1) ** d * det, *reversed(coeffs)], adj, det


def exact_det(m: np.ndarray) -> Fraction:
    """Exact determinant: det(a) / den**d for the integer form m == a / den."""
    a, den = _integer_form(m)
    return Fraction(_faddeev_leverrier(a)[2], den ** len(a))


def adjugate(a) -> np.ndarray:
    """Adjugate of a square integer matrix: adjugate(a) @ a == det(a) * I.

    Entries must be ints (Python or numpy); the result is an object array of Python ints from
    :func:`_faddeev_leverrier`, so no Fraction is built.  For invertible a, a^{-1} = adjugate(a) /
    det(a), and a column or row of it spans the same projective point as that of a^{-1}.
    """
    return _faddeev_leverrier(a)[1]


def exact_inv(m: np.ndarray) -> np.ndarray:
    """Exact inverse as Fractions: den * adj(a) / det(a) for the integer form m == a / den,
    both from one :func:`_faddeev_leverrier` pass."""
    a, den = _integer_form(m)
    _, adj, det = _faddeev_leverrier(a)
    if det == 0:
        raise DomainError("matrix is singular")
    return adj * Fraction(den, det)


def is_unimodular(m: np.ndarray, field: FieldSpec) -> bool:
    if field.is_archimedean:
        return abs((float(np.linalg.det(m)) if m.dtype != object else exact_det(m)) - 1.0) <= UNIMODULAR_TOL
    return exact_det(m) == 1


def require_unimodular(m: np.ndarray, field: FieldSpec) -> None:
    if not is_unimodular(m, field):
        raise InvariantViolation("matrix determinant is not 1")


def vector_norm(x: np.ndarray, field: FieldSpec):
    """Canonical norm: Euclidean (archimedean) or max of |entries| (p-adic, any shape)."""
    if field.is_archimedean:
        return float(math.sqrt(float(sum(float(v) ** 2 for v in x))))
    p = field.prime
    a, den = _int_list(np.asarray(x, dtype=object).flat)
    e = min(_int_valuation(c, p) for c in a)
    return Fraction(0) if e == INFINITE_VALUATION else _p_power(p, _int_valuation(den, p) - e)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The real :func:`vector_norm` of every row of a float array (rows, d), row for row ==.

    Squares by Python's pow, as ``float ** 2`` does (x * x can differ in
    the last bit), added in coordinate order from 0.0, as ``sum`` does up
    to Python 3.11.
    """
    sq = np.fromiter(map(pow, x.ravel().tolist(), repeat(2)), float, x.size).reshape(x.shape)
    return np.sqrt(sum(sq.T, 0.0))


def operator_norm(g: np.ndarray, field: FieldSpec):
    """Operator norm of the canonical norm: top singular value, or max |entry|."""
    if field.is_archimedean:
        return float(np.linalg.norm(np.asarray(g, dtype=float), 2))
    return vector_norm(g, field)


def _padic_vector(x, p: int) -> tuple[list, int]:
    """An integer multiple of an exact vector as a list, and the least valuation of its entries."""
    a, _ = _int_list(x)
    return a, min(_int_valuation(c, p) for c in a)


def _padic_margin(x: list, x_min: int, f: list, f_min: int, p: int) -> Fraction:
    """delta([x], Ker f) over Q_p from integer forms and their least valuations.

    |f.x| / (||f|| ||x||) is scale-invariant in x and f, so it is
    p**-(v_p(f.x) - x_min - f_min) on any integer multiples, and 0 when f.x is.
    """
    dot = sum(a * b for a, b in zip(f, x))
    return Fraction(0) if dot == 0 else _p_power(p, x_min + f_min - _int_valuation(dot, p))


def wedge_pairs(d: int) -> list[tuple[int, int]]:
    """Lexicographic basis order e_i ^ e_j, i < j, of the exterior square."""
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def exterior_square(g: np.ndarray) -> np.ndarray:
    """Matrix of the induced action on wedge basis e_i ^ e_j (i < j).

    Multiplicative: exterior_square(g @ h) == exterior_square(g) @ exterior_square(h).
    """
    d = g.shape[0]
    pairs = wedge_pairs(d)
    out = np.empty((len(pairs), len(pairs)), dtype=g.dtype)
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            out[a, b] = g[i, k] * g[j, l] - g[i, l] * g[j, k]
    return out


def _require_nonzero(x: np.ndarray, what: str) -> None:
    if all(v == 0 for v in x):
        raise DomainError(f"{what} must be nonzero")


def fubini_study(x: np.ndarray, y: np.ndarray, field: FieldSpec):
    """Projective distance ||x ^ y|| / (||x|| ||y||); exact in the p-adic case."""
    _require_nonzero(x, "projective representative")
    _require_nonzero(y, "projective representative")
    if not field.is_archimedean:
        p = field.prime
        (a, a_min), (b, b_min) = _padic_vector(x, p), _padic_vector(y, p)
        w = min(_int_valuation(a[i] * b[j] - a[j] * b[i], p) for i, j in wedge_pairs(len(a)))
        return Fraction(0) if w == INFINITE_VALUATION else _p_power(p, a_min + b_min - w)
    w = np.array([x[i] * y[j] - x[j] * y[i] for i, j in wedge_pairs(len(x))], dtype=x.dtype)
    if all(v == 0 for v in w):
        return 0.0
    return vector_norm(w, field) / (vector_norm(x, field) * vector_norm(y, field))


def dist_point_hyperplane(x: np.ndarray, f: np.ndarray, field: FieldSpec):
    """Distance delta([x], Ker f) = |f(x)| / (||f|| ||x||)."""
    _require_nonzero(x, "point representative")
    _require_nonzero(f, "hyperplane covector")
    if not field.is_archimedean:
        p = field.prime
        return _padic_margin(*_padic_vector(x, p), *_padic_vector(f, p), p)
    val = sum(fi * xi for fi, xi in zip(f, x))
    return abs_value(val, field) / (vector_norm(f, field) * vector_norm(x, field))


def normalize_representative(x: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Deterministic representative of a projective class.

    Archimedean: unit Euclidean norm, first nonzero coordinate positive.
    Nonarchimedean: minimal entry valuation 0, first nonzero coordinate a
    power of the prime (exactly p**m for some m >= 0).
    """
    _require_nonzero(x, "projective representative")
    if field.is_archimedean:
        v = np.ascontiguousarray(x, dtype=float)  # from d = 4 on, v @ v sums strided entries in another order
        n = math.sqrt(float(v @ v))
        v = v / n
        lead = next(c for c in v if c != 0.0)
        return -v if lead < 0 else v
    # scale-invariant: x / lead * p**(v_p(lead) - min v_p) on any integer multiple of x
    a, a_min = _padic_vector(x, field.prime)
    lead = next(c for c in a if c)
    scale = field.prime ** (_int_valuation(lead, field.prime) - a_min)
    return np.array([Fraction(c * scale, lead) for c in a], dtype=object)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    """The real :func:`normalize_representative` of every row of a float array, row for row ==."""
    if not x.any(axis=1).all():
        raise DomainError("projective representative must be nonzero")
    x = np.ascontiguousarray(x)  # as normalize_representative: strided rows sum in another order from d = 4 on
    # a (1, d) @ (d, 1) matmul takes the same dot as v @ v; a sum of squares differs in the last bit
    v = x / np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0])
    lead = v[np.arange(len(v)), (v != 0).argmax(axis=1)]
    return np.where(lead[:, None] < 0, -v, v)


# ---------------------------------------------------------------------------
# Serialization: JSON files; row-major scalar strings plus a header
# ---------------------------------------------------------------------------


def _load_json(path) -> dict:
    """The JSON document in a file; an unreadable file or invalid JSON raises ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


def matrix_to_json_dict(m: np.ndarray, field: FieldSpec) -> dict:
    return {"field": field.to_dict(), "d": m.shape[0], "entries": vector_to_strings(m.ravel(), field)}


def flat_matrices(doc: dict, key: str, single: bool = False) -> tuple[FieldSpec, list[list]]:
    """The field and exact matrix rows of a document of row-major entry lists.

    doc["field"] is a field spec, doc["d"] an integer >= 2 (SL_1 is the
    trivial group and P^0 has no hyperplanes) and doc[key] a list of flat
    d*d entry lists, or one such list when single is set.  Each matrix is d rows
    of the Fractions :func:`parse_scalar` reads, in both fields; a caller that needs
    field-typed entries rounds them once with :func:`as_matrix`.  Any malformed part raises ConfigError.
    """
    try:
        field = FieldSpec.from_dict(doc["field"])
        d = doc["d"]
        if type(d) is not int or d < 2:
            raise ConfigError(f"d must be an integer >= 2, got {d!r}")
        mats = []
        for flat in [doc[key]] if single else doc[key]:
            if not isinstance(flat, list) or len(flat) != d * d:
                raise ConfigError(f"{key}: a {d}x{d} matrix is a list of {d * d} entries, got {flat!r}")
            mats.append([[parse_scalar(flat[i * d + j], field) for j in range(d)] for i in range(d)])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed matrix document: {exc}") from exc
    return field, mats


def matrix_from_json_dict(doc: dict) -> tuple[np.ndarray, FieldSpec]:
    """The exact matrix of a matrix document, an object array of Fractions in both fields, and its field."""
    field, (rows,) = flat_matrices(doc, "entries", single=True)
    return np.array(rows, dtype=object), field


def vector_to_strings(x: np.ndarray, field: FieldSpec) -> list[str]:
    return [format_scalar(v, field) for v in x]
