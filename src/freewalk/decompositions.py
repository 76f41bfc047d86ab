"""Cartan (KAK) and Iwasawa (KAN) decompositions in SL_d, with scaled products.

The archimedean KAK is the polar/SVD decomposition with singular values
sorted descending; determinant signs are repaired by negating the last
column of k and the last row of u together (det g = 1 forces the two
signs to agree).  The nonarchimedean KAK is a Smith normal form over the
localization of the integers at p: pivots are chosen with minimal
valuation (ties at the smallest (row, col) index), so the diagonal
valuations come out ascending and |a_1| equals the operator norm.  Both
constructors are deterministic, which keeps regression output bit-stable.

k and u are isometries of the canonical norm: orthogonal with det 1 in
the archimedean case, entries in the valuation ring with unit determinant
in the nonarchimedean case (unit diagonal factors from the elimination
are absorbed into the isometries, never into a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .fields import FieldSpec, valuation
from .linalg import (
    exterior_square,
    identity,
    normalize_representative,
    operator_norm,
    require_unimodular,
)


class _DiagonalPart:
    """The a-part diag(a_1, ..., a_d) shared by both decompositions."""

    def a_matrix(self, field: FieldSpec) -> np.ndarray:
        d = len(self.a)
        m = identity(d, field)
        for i in range(d):
            m[i, i] = self.a[i] if not field.is_archimedean else float(self.a[i])
        return m


@dataclass(frozen=True)
class KakDecomposition(_DiagonalPart):
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
        return self.k @ self.a_matrix(field) @ self.u


@dataclass(frozen=True)
class IwasawaDecomposition(_DiagonalPart):
    """g = k . diag(a) . n with n upper unitriangular."""

    k: np.ndarray
    a: tuple
    n: np.ndarray

    def reconstruct(self, field: FieldSpec) -> np.ndarray:
        return self.k @ self.a_matrix(field) @ self.n


def kak(g: np.ndarray, field: FieldSpec, unimodular: bool = True) -> KakDecomposition:
    """Cartan decomposition of a determinant-1 matrix.

    With unimodular=False the determinant is not checked, so g may be any
    invertible matrix with positive determinant, such as the unit part of
    a scaled product; k, u and the frames (v, h) are scale-invariant.
    """
    if unimodular:
        require_unimodular(g, field)
    if field.is_archimedean:
        return _kak_real(np.asarray(g, dtype=float))
    return _kak_padic(g, field)


def frames(units, field: FieldSpec) -> tuple[list, list]:
    """KAK frames (v, h) of every matrix of a stack, as two lists.

    v is the attracting point k.e1 and h the repelling covector u^{-1}.e1*
    of g = k a u, both normalized projective representatives; they do not
    depend on the scale of g.  Archimedean stacks take one stacked SVD,
    nonarchimedean ones the exact Smith form of each matrix.
    """
    if not field.is_archimedean:
        decs = [_kak_padic(g, field) for g in units]
        return [dec.v for dec in decs], [dec.h for dec in decs]
    k, _, u = np.linalg.svd(np.asarray(units, dtype=float))
    pairs = [_frame(ki, ui, field) for ki, ui in zip(k, u)]
    return [v for v, _ in pairs], [h for _, h in pairs]


def _frame(k: np.ndarray, u: np.ndarray, field: FieldSpec) -> tuple:
    """(k.e1, e1*.u) as normalized projective representatives."""
    return normalize_representative(k[:, 0], field), normalize_representative(u[0, :], field)


def _kak_real(g: np.ndarray) -> KakDecomposition:
    k, s, u = np.linalg.svd(g)
    if np.linalg.det(k) < 0:
        # det g = 1 > 0, so det k and det u carry the same sign.
        k = k.copy()
        u = u.copy()
        k[:, -1] = -k[:, -1]
        u[-1, :] = -u[-1, :]
    v, h = _frame(k, u, FieldSpec.real())
    return KakDecomposition(k=k, a=tuple(float(x) for x in s), u=u, v=v, h=h)


def _kak_padic(g: np.ndarray, field: FieldSpec) -> KakDecomposition:
    p = field.prime
    d = g.shape[0]
    m = np.array([[Fraction(x) for x in row] for row in g], dtype=object)
    k = identity(d, field)
    u = identity(d, field)
    # Invariant throughout: g == k @ m @ u.
    for t in range(d):
        pi, pj = _min_valuation_pivot(m, t, p)
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
    vals = [valuation(m[i, i], p) for i in range(d)]
    if any(vals[i] > vals[i + 1] for i in range(d - 1)):
        raise AssertionError("pivot valuations not ascending")
    a = tuple(Fraction(p) ** v for v in vals)
    # m = diag(a) * diag(units); fold the unit part into u.
    for i in range(d):
        unit = m[i, i] / a[i]
        u[i, :] = unit * u[i, :]
    v, h = _frame(k, u, field)
    return KakDecomposition(k=k, a=a, u=u, v=v, h=h)


def _min_valuation_pivot(m: np.ndarray, t: int, p: int) -> tuple[int, int]:
    d = m.shape[0]
    best = None
    best_val = None
    for i in range(t, d):
        for j in range(t, d):
            if m[i, j] == 0:
                continue
            v = valuation(m[i, j], p)
            if best_val is None or v < best_val:
                best_val, best = v, (i, j)
    if best is None:
        raise DomainError("matrix is singular")
    return best


def iwasawa(g: np.ndarray, field: FieldSpec) -> IwasawaDecomposition:
    """Iwasawa decomposition of a determinant-1 matrix."""
    require_unimodular(g, field)
    if field.is_archimedean:
        q, r = np.linalg.qr(np.asarray(g, dtype=float))
        signs = np.sign(np.diag(r))
        q = q * signs[np.newaxis, :]
        r = r * signs[:, np.newaxis]
        a = np.diag(r).copy()
        n = r / a[:, np.newaxis]
        return IwasawaDecomposition(k=q, a=tuple(float(x) for x in a), n=n)
    return _iwasawa_padic(g, field)


def _iwasawa_padic(g: np.ndarray, field: FieldSpec) -> IwasawaDecomposition:
    p = field.prime
    d = g.shape[0]
    m = np.array([[Fraction(x) for x in row] for row in g], dtype=object)
    k = identity(d, field)
    # Invariant: g == k @ m; m becomes upper triangular.
    for c in range(d):
        rows = [r for r in range(c, d) if m[r, c] != 0]
        if not rows:
            raise DomainError("matrix is singular")
        piv_row = min(rows, key=lambda r: (valuation(m[r, c], p), r))
        if piv_row != c:
            m[[c, piv_row], :] = m[[piv_row, c], :]
            k[:, [c, piv_row]] = k[:, [piv_row, c]]
        for r in range(c + 1, d):
            if m[r, c] != 0:
                coef = m[r, c] / m[c, c]
                m[r, :] = m[r, :] - coef * m[c, :]
                k[:, c] = k[:, c] + coef * k[:, r]
    vals = [valuation(m[i, i], p) for i in range(d)]
    a = tuple(Fraction(p) ** v for v in vals)
    n = identity(d, field)
    for i in range(d):
        unit = m[i, i] / a[i]
        k[:, i] = k[:, i] * unit
        n[i, :] = m[i, :] / m[i, i]
    return IwasawaDecomposition(k=k, a=a, n=n)


# ---------------------------------------------------------------------------
# Scaled long products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaledMatrix:
    """A matrix stored as a normalized unit part and a separated magnitude.

    Archimedean: true = exp(scale) * unit with max |entry| of unit equal 1.
    Nonarchimedean: true = p**scale * unit with minimal entry valuation 0,
    so the operator norm of unit is exactly 1 and ||true|| = p**(-scale).
    """

    unit: np.ndarray
    scale: float | int


def scaled_identity(d: int, field: FieldSpec) -> ScaledMatrix:
    return ScaledMatrix(identity(d, field), 0.0 if field.is_archimedean else 0)


def _normalize_scaled(raw: np.ndarray, field: FieldSpec) -> ScaledMatrix:
    if field.is_archimedean:
        m = float(np.max(np.abs(raw)))
        if m == 0.0:
            raise DomainError("cannot scale the zero matrix")
        return ScaledMatrix(raw / m, math.log(m))
    p = field.prime
    vals = [valuation(x, p) for x in raw.flat if x != 0]
    if not vals:
        raise DomainError("cannot scale the zero matrix")
    v = min(vals)
    factor = Fraction(p) ** (-v)
    return ScaledMatrix(raw * factor, v)


def scaled_multiply(acc: ScaledMatrix, g: np.ndarray, field: FieldSpec) -> ScaledMatrix:
    """acc . g, renormalized."""
    out = _normalize_scaled(acc.unit @ g, field)
    return ScaledMatrix(out.unit, acc.scale + out.scale)


def scaled_premultiply(g: np.ndarray, acc: ScaledMatrix, field: FieldSpec) -> ScaledMatrix:
    """g . acc, renormalized."""
    out = _normalize_scaled(g @ acc.unit, field)
    return ScaledMatrix(out.unit, acc.scale + out.scale)


def scaled_log_norm(sm: ScaledMatrix, field: FieldSpec) -> float:
    """log of the operator norm of the represented matrix."""
    if field.is_archimedean:
        return float(sm.scale) + math.log(operator_norm(sm.unit, field))
    n = operator_norm(sm.unit, field)
    return -sm.scale * math.log(field.prime) + math.log(float(n))


def scaled_log_vector_norm(sm: ScaledMatrix, x: np.ndarray, field: FieldSpec) -> float:
    """log || (represented matrix) @ x ||."""
    from .linalg import vector_norm  # local import to keep module load cheap

    w = sm.unit @ x
    n = vector_norm(w, field)
    if n == 0:
        raise DomainError("matrix application produced the zero vector")
    if field.is_archimedean:
        return float(sm.scale) + math.log(float(n))
    return -sm.scale * math.log(field.prime) + math.log(float(n))


def scaled_reconstruct(sm: ScaledMatrix, field: FieldSpec) -> np.ndarray:
    if field.is_archimedean:
        return math.exp(sm.scale) * sm.unit
    return sm.unit * (Fraction(field.prime) ** sm.scale)


def exterior_square_atoms(atoms) -> tuple:
    """Precomputed wedge representatives for walk increments."""
    return tuple(exterior_square(a) for a in atoms)
