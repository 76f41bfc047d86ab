"""Cartan (KAK) and Iwasawa (KAN) decompositions in SL_d, with scaled products.

The archimedean KAK is the polar/SVD decomposition with singular values
sorted descending; determinant signs are repaired by negating the last
column of k and the last row of u together (det g = 1 forces the two
signs to agree).  The nonarchimedean KAK is a Smith normal form over the
localization of the integers at p: pivots are chosen with minimal
valuation (ties at the smallest (row, col) index), so the diagonal
valuations come out ascending and |a_1| equals the operator norm.  The
elimination (:func:`_smith`, shared with the Iwasawa decomposition and
the p-adic poles) runs on Python ints over common denominators; Fractions
are built only for the returned k, a and u.  Both constructors are
deterministic, which keeps regression output bit-stable.

k and u are isometries of the canonical norm: orthogonal with det 1 in
the archimedean case, entries in the valuation ring with unit determinant
in the nonarchimedean case (unit diagonal factors from the elimination
are absorbed into the isometries, never into a).

A :class:`ScaledMatrix` holds a long product as base**scale * unit with an
integer scale on both fields: base 2 over R, the unit's largest |entry| in
[1, 2), and base p over Q_p, the unit's least entry valuation 0.  Over R
the renormalisation divides by a power of two, which is exact, so the
unit alone carries the rounding of the products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, InvariantViolation
from .fields import FieldSpec, _int_valuation, _p_power
from .linalg import (
    _integer_form,
    identity,
    normalize_representative,
    operator_norm,
    require_unimodular,
    vector_norm,
)


@dataclass(frozen=True)
class KakDecomposition:
    """g = k . diag(a) . u with |a_1| >= ... >= |a_d|.

    v is the attracting point k.e1 and h the repelling-hyperplane covector
    u^{-1}.e1* (equal to the first row of u), both stored as normalized
    projective representatives.
    """

    k: np.ndarray
    a: tuple
    u: np.ndarray
    v: np.ndarray
    h: np.ndarray

    def reconstruct(self, field: FieldSpec) -> np.ndarray:
        return (self.k * np.array(self.a, dtype=float if field.is_archimedean else object)) @ self.u


@dataclass(frozen=True)
class IwasawaDecomposition:
    """g = k . diag(a) . n with n upper unitriangular."""

    k: np.ndarray
    a: tuple
    n: np.ndarray

    def reconstruct(self, field: FieldSpec) -> np.ndarray:
        return (self.k * np.array(self.a, dtype=float if field.is_archimedean else object)) @ self.n


def kak(g: np.ndarray, field: FieldSpec) -> KakDecomposition:
    """Cartan decomposition of a determinant-1 matrix.

    The determinant is always checked: InvariantViolation unless det g = 1.
    This is the single-matrix API (and the CLI ``kak`` command); stacks of
    frames and poles of any invertible matrices, unchecked, come from
    :func:`freewalk.pingpong.pole_pair` with unimodular=False.
    """
    if not field.is_archimedean:
        return _kak_padic(g, field, unimodular=True)
    require_unimodular(g, field)
    return _kak_real(np.asarray(g, dtype=float))


def _kak_real(g: np.ndarray) -> KakDecomposition:
    k, s, u = np.linalg.svd(g)
    if np.linalg.det(k) < 0:
        # det g = 1 > 0, so det k and det u carry the same sign.
        k = k.copy()
        u = u.copy()
        k[:, -1] = -k[:, -1]
        u[-1, :] = -u[-1, :]
    v, h = (normalize_representative(x, FieldSpec.real()) for x in (k[:, 0], u[0, :]))
    return KakDecomposition(k=k, a=tuple(float(x) for x in s), u=u, v=v, h=h)


def _kak_padic(g: np.ndarray, field: FieldSpec, unimodular: bool = False) -> KakDecomposition:
    p = field.prime
    k, dk, u, du, pivots, _ = _smith(g, p, unimodular=unimodular)
    units = [_unit(row[0], den, val, p) for row, den, val in pivots]
    # m = diag(a) * diag(units); fold the unit part into the rows of u
    return KakDecomposition(
        k=np.array([[Fraction(x, dk) for x in row] for row in k], dtype=object),
        a=tuple(_p_power(p, val) for *_, val in pivots),
        u=np.array([[Fraction(n * x, q * du) for x in row] for row, (n, q) in zip(u, units)], dtype=object),
        v=normalize_representative([row[0] for row in k], field),
        h=normalize_representative(u[0], field),
    )


def _smith(g, p: int, full: bool = True, unimodular: bool = False) -> tuple:
    """Exact elimination g == k @ m @ u of an invertible g over Q_p, on Python ints.

    Returns k_int, dk, u_int, du, pivots, a: k = k_int / dk and u = u_int / du
    (lists of int rows; a denominator may be negative), a the integer form of
    g it eliminates.  full: the Smith form, m diagonal,
    each pivot of minimal valuation in the remaining block (ties at the
    smallest (row, col) index), so the valuations come out ascending.
    Otherwise rows only, as for Iwasawa: m upper triangular, each pivot of
    minimal valuation in its column (ties at the smallest row), u = 1.
    pivots[t] is (row, den, v): row / den is row t of m from column t on
    (before the column operations) and v = v_p(m[t, t]).

    The remaining block of m is kept as ints over one common denominator,
    so its entries' valuations order like those of m.  Each pivot P scales
    the block and k (or u) by P, which makes the row (column) operations
    integer ones, and one gcd per pass keeps the entries small.

    unimodular: raise InvariantViolation unless det g = 1 (singular g
    included); k and u carry only swaps and unit-triangular operations, so
    det g is the product of the pivots, negated once per swap.
    """
    a, db = _integer_form(g)
    b = a.tolist()
    d = len(b)
    k = [[int(i == j) for j in range(d)] for i in range(d)]
    u = [row[:] for row in k]
    dk = du = 1
    pivots = []
    sign = 1
    for t in range(d):
        cells = [(i, j) for i in range(d - t) for j in (range(d - t) if full else (0,)) if b[i][j]]
        if not cells:
            raise InvariantViolation("matrix determinant is not 1") if unimodular else DomainError("matrix is singular")
        i, j = min(cells, key=lambda c: _int_valuation(b[c[0]][c[1]], p))
        sign *= (-1) ** ((i > 0) + (j > 0))
        if i:
            b[0], b[i] = b[i], b[0]
            for row in k:
                row[t], row[t + i] = row[t + i], row[t]
        if j:
            for row in b:
                row[0], row[j] = row[j], row[0]
            u[t], u[t + j] = u[t + j], u[t]
        top = b[0]
        piv = top[0]
        pivots.append((top, db, _int_valuation(piv, p) - _int_valuation(db, p)))
        col = [row[0] for row in b[1:]]
        if any(col):
            # k[:, t] += (m[r, t] / piv) k[:, r]; m[r, :] -= (m[r, t] / piv) m[t, :]
            for row in k:
                head = piv * row[t] + sum(c * x for c, x in zip(col, row[t + 1:]))
                row[:] = [piv * x for x in row]
                row[t] = head
            dk, k = _reduce(dk * piv, k)
            b = [[piv * x - c * y for x, y in zip(row[1:], top[1:])] for c, row in zip(col, b[1:])]
            db, b = _reduce(db * piv, b)
        else:
            b = [row[1:] for row in b[1:]]
        if full and any(top[1:]):
            # u[t, :] += (m[t, s] / piv) u[s, :]; m[t, s] becomes 0
            head = [piv * x + sum(c * r[j] for c, r in zip(top[1:], u[t + 1:])) for j, x in enumerate(u[t])]
            u = [[piv * x for x in row] for row in u]
            u[t] = head
            du, u = _reduce(du * piv, u)
    if unimodular and sign * math.prod(row[0] for row, _, _ in pivots) != math.prod(den for _, den, _ in pivots):
        raise InvariantViolation("matrix determinant is not 1")
    if full and any(pivots[i][2] > pivots[i + 1][2] for i in range(d - 1)):
        raise AssertionError("pivot valuations not ascending")
    return k, dk, u, du, pivots, a


def _reduce(den: int, rows: list) -> tuple[int, list]:
    """rows / den with the common factor cancelled."""
    g = math.gcd(den, *(x for row in rows for x in row))
    if g == 1:
        return den, rows
    return den // g, [[x // g for x in row] for row in rows]


def _unit(piv: int, den: int, v: int, p: int) -> tuple[int, int]:
    """Numerator and denominator of the unit (piv / den) / p**v."""
    return (piv, den * p**v) if v >= 0 else (piv * p ** (-v), den)


def iwasawa(g: np.ndarray, field: FieldSpec) -> IwasawaDecomposition:
    """Iwasawa decomposition of a determinant-1 matrix."""
    if not field.is_archimedean:
        return _iwasawa_padic(g, field, unimodular=True)
    require_unimodular(g, field)
    q, r = np.linalg.qr(np.asarray(g, dtype=float))
    signs = np.sign(np.diag(r))
    q = q * signs[np.newaxis, :]
    r = r * signs[:, np.newaxis]
    a = np.diag(r).copy()
    n = r / a[:, np.newaxis]
    return IwasawaDecomposition(k=q, a=tuple(float(x) for x in a), n=n)


def _iwasawa_padic(g: np.ndarray, field: FieldSpec, unimodular: bool = False) -> IwasawaDecomposition:
    p = field.prime
    k, dk, _, _, pivots, _ = _smith(g, p, full=False, unimodular=unimodular)
    units = [_unit(row[0], den, v, p) for row, den, v in pivots]
    # m = diag(a) * diag(units) * n; fold the unit part into the columns of k
    k = np.array([[Fraction(x * n, dk * q) for x, (n, q) in zip(row, units)] for row in k], dtype=object)
    n = np.array(
        [[Fraction(0)] * t + [Fraction(x, row[0]) for x in row] for t, (row, _, _) in enumerate(pivots)],
        dtype=object,
    )
    return IwasawaDecomposition(k=k, a=tuple(_p_power(p, v) for _, _, v in pivots), n=n)


# ---------------------------------------------------------------------------
# Scaled long products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaledMatrix:
    """A matrix stored as a normalized unit part and an integer exponent.

    Archimedean: true = 2**scale * unit with max |entry| of unit in [1, 2).
    Scaling by a power of two is exact, so the unit carries the rounding of
    the products and the scale none of it.
    Nonarchimedean: true = p**scale * unit with minimal entry valuation 0,
    so the operator norm of unit is exactly 1 and ||true|| = p**(-scale).
    """

    unit: np.ndarray
    scale: int


def scaled_identity(d: int, field: FieldSpec) -> ScaledMatrix:
    return ScaledMatrix(identity(d, field), 0)


def _normalize_scaled(raw: np.ndarray, field: FieldSpec) -> ScaledMatrix:
    """raw over the power of two that puts its largest |entry| in [1, 2), exactly (R), or
    :func:`_padic_scaled` of its exact integer form (Q_p)."""
    if field.is_archimedean:
        top = float(np.max(np.abs(raw)))
        if not 0 < top < math.inf:
            raise DomainError("cannot scale the zero matrix")
        e = math.frexp(top)[1] - 1
        return ScaledMatrix(np.ldexp(raw, -e), e)
    return _padic_scaled(*_integer_form(raw), field.prime)


def _padic_scaled(num: np.ndarray, den: int, p: int) -> ScaledMatrix:
    """num / den over Q_p (num an int array, den > 0): scale v = v_p(gcd(num)) - v_p(den), unit num / den / p**v."""
    content = math.gcd(*num.flat)
    if content == 0:
        raise DomainError("cannot scale the zero matrix")
    v = _int_valuation(content, p) - _int_valuation(den, p)
    return ScaledMatrix(num * (Fraction(p) ** -v / den), v)


def scaled_multiply(acc: ScaledMatrix, g: np.ndarray, field: FieldSpec) -> ScaledMatrix:
    """acc . g, renormalized."""
    out = _normalize_scaled(acc.unit @ g, field)
    return ScaledMatrix(out.unit, acc.scale + out.scale)


def scaled_premultiply(g: np.ndarray, acc: ScaledMatrix, field: FieldSpec) -> ScaledMatrix:
    """g . acc, renormalized."""
    out = _normalize_scaled(g @ acc.unit, field)
    return ScaledMatrix(out.unit, acc.scale + out.scale)


def _log_size(scale, n, field: FieldSpec) -> float:
    """log(2**scale n) over R, log(p**-scale n) over Q_p, n a size of a ScaledMatrix's unit; math.log, not np.log."""
    if field.is_archimedean:
        return scale * math.log(2) + math.log(float(n))
    return -scale * math.log(field.prime) + math.log(float(n))


def scaled_log_norm(sm: ScaledMatrix, field: FieldSpec) -> float:
    """log of the operator norm of the represented matrix."""
    return _log_size(sm.scale, operator_norm(sm.unit, field), field)


def log_norms(products, field: FieldSpec) -> list:
    """:func:`scaled_log_norm` of every ScaledMatrix of a list, element for element ==.

    Over R: one stacked ``svd(compute_uv=False)``.
    """
    if not field.is_archimedean:
        return [scaled_log_norm(sm, field) for sm in products]
    tops = np.linalg.svd(np.array([sm.unit for sm in products]), compute_uv=False)[:, 0].tolist()
    return [_log_size(sm.scale, top, field) for sm, top in zip(products, tops)]


def scaled_log_vector_norm(sm: ScaledMatrix, x: np.ndarray, field: FieldSpec) -> float:
    """log || (represented matrix) @ x ||."""
    n = vector_norm(sm.unit @ x, field)
    if n == 0:
        raise DomainError("matrix application produced the zero vector")
    return _log_size(sm.scale, n, field)
