"""Named measures used across tests, docs and CLI demos.

Only the positive-matrices and p-adic contracting measures satisfy the
strong irreducibility and contraction hypotheses of the decay theorems;
the point masses are closed-form controls (some deliberately violating
the hypotheses).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import FieldSpec
from .walks import WalkMeasure, make_measure

F = Fraction


def positive_matrices() -> WalkMeasure:
    """Uniform on [[2,1],[1,1]] and [[1,1],[1,2]] over R; strongly irreducible and contracting."""
    return make_measure(
        [[[2, 1], [1, 1]], [[1, 1], [1, 2]]],
        [F(1, 2), F(1, 2)],
        FieldSpec.real(),
    )


def sanov() -> WalkMeasure:
    """Uniform on the Sanov pair and inverses; the support generates a free group."""
    return make_measure(
        [
            [[1, 2], [0, 1]],
            [[1, -2], [0, 1]],
            [[1, 0], [2, 1]],
            [[1, 0], [-2, 1]],
        ],
        [F(1, 4)] * 4,
        FieldSpec.real(),
    )


def diagonal_point_mass() -> WalkMeasure:
    """Point mass at diag(2, 1/2); reducible control with lambda_1 = log 2."""
    return make_measure([[[2, 0], [0, F(1, 2)]]], [F(1)], FieldSpec.real())


def rotation_point_mass() -> WalkMeasure:
    """Point mass at the quarter turn; an isometry, lambda_1 = 0 exactly."""
    return make_measure([[[0, -1], [1, 0]]], [F(1)], FieldSpec.real())


def slow_contracting() -> WalkMeasure:
    """Rational rotations composed with mild stretches; tiny Lyapunov gap.

    Decorrelation of the KAK frames persists to large n here, which makes
    decay-in-n effects visible above Monte Carlo noise at desk scale
    (the positive-matrices measure decorrelates within a handful of steps).
    """
    r1 = np.array([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]], dtype=object)
    r2 = np.array([[F(5, 13), F(-12, 13)], [F(12, 13), F(5, 13)]], dtype=object)
    return make_measure(
        [r1 * np.array([F(9, 8), F(8, 9)], dtype=object), r2 * np.array([F(13, 12), F(12, 13)], dtype=object)],
        [F(1, 2), F(1, 2)],
        FieldSpec.real(),
    )


def sl3_integer() -> WalkMeasure:
    """Uniform on four SL_3(Z) matrices over R: [[2,1],[1,1]] embedded in two
    corners, and the all-ones upper and lower unitriangular matrices.

    Its products reach a_1/a_3 far beyond 1e16 within a few dozen steps,
    which is where float poles of S_n^{-1} must come from the exterior
    square walk rather than from the bottom singular vectors of S_n.
    """
    return make_measure(
        [
            [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 2, 1], [0, 1, 1]],
            [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
            [[1, 0, 0], [1, 1, 0], [1, 1, 1]],
        ],
        [F(1, 4)] * 4,
        FieldSpec.real(),
    )


def padic_contracting(p: int = 3) -> WalkMeasure:
    """Uniform on [[1/p,1],[0,p]] and [[1/p,0],[1,p]] over Q_p.

    Every length-n product has operator norm exactly p**n (the top-left
    entry stays a p-adic unit times p**-n), so lambda_1 = log p
    deterministically and the walk is contracting.
    """
    field = FieldSpec.padic(p)
    return make_measure(
        [
            [[F(1, p), 1], [0, p]],
            [[F(1, p), 0], [1, p]],
        ],
        [F(1, 2), F(1, 2)],
        field,
    )


def padic_isometry_point_mass(p: int = 3) -> WalkMeasure:
    """Point mass at the quarter turn over Q_p; exact isometry control."""
    return make_measure([[[0, -1], [1, 0]]], [F(1)], FieldSpec.padic(p))


def padic_diagonal_point_mass(p: int = 3) -> WalkMeasure:
    """Point mass at diag(p, 1/p) over Q_p; lambda_1 = log p exactly."""
    return make_measure([[[p, 0], [0, F(1, p)]]], [F(1)], FieldSpec.padic(p))
