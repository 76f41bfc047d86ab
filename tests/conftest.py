import math
import random
from fractions import Fraction

import numpy as np
import pytest

from freewalk import FieldSpec
from freewalk import corpus
from freewalk.fields import abs_value
from freewalk.linalg import UNIMODULAR_TOL, exact_det, operator_norm

REAL = FieldSpec.real()


@pytest.fixture(scope="session")
def real_field():
    return REAL


@pytest.fixture(scope="session")
def q2():
    return FieldSpec.padic(2)


@pytest.fixture(scope="session")
def q3():
    return FieldSpec.padic(3)


@pytest.fixture(scope="session")
def positive_measure():
    return corpus.positive_matrices()


@pytest.fixture(scope="session")
def sanov_measure():
    return corpus.sanov()


def random_rational(rng: random.Random, max_num: int = 60) -> Fraction:
    num = rng.randint(-max_num, max_num)
    den = rng.randint(1, max_num)
    return Fraction(num, den)


def random_unimodular_int(rng: random.Random, d: int, max_entry: int = 20, steps: int = 12):
    """Random SL_d(Z) matrix with bounded entries, via elementary shears."""
    while True:
        m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        for _ in range(steps):
            i, j = rng.randrange(d), rng.randrange(d)
            if i == j:
                continue
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            cand = [row[:] for row in m]
            for k in range(d):
                cand[i][k] += c * m[j][k]
            if max(abs(x) for row in cand for x in row) <= max_entry:
                m = cand
        if any(m[i][j] != (1 if i == j else 0) for i in range(d) for j in range(d)):
            return m


def scaled_reconstruct(sm, field):
    """The matrix a ScaledMatrix represents: 2**scale * unit over R, p**scale * unit over Q_p."""
    if field.is_archimedean:
        return math.ldexp(1.0, sm.scale) * sm.unit
    return sm.unit * (Fraction(field.prime) ** sm.scale)


def is_isometry(k, field) -> bool:
    """Whether k preserves the canonical norm.

    Archimedean: orthogonal.  Nonarchimedean: entries in the valuation ring
    and unit determinant (the full isometry group of the max norm).
    """
    if field.is_archimedean:
        return bool(np.max(np.abs(k.T @ k - np.eye(k.shape[0]))) <= UNIMODULAR_TOL)
    return operator_norm(k, field) <= 1 and abs_value(exact_det(k), field) == 1
