"""Benchmark inputs, generated from the workload seed with the standard library only.

Nothing here imports freewalk, so a change to the program cannot alter the
inputs it is measured on.  Every document is written in the formats the
freewalk CLI reads: measure files (freewalk/measure/v1), experiment configs
(freewalk/config/v1) and generator files for ``certify``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

REAL = {"kind": "archimedean"}


def padic(p: int) -> dict:
    return {"kind": "nonarchimedean", "prime": p}


def _flat(m) -> list[str]:
    return [str(Fraction(x)) for row in m for x in row]


def _mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _measure(field: dict, atoms) -> dict:
    return {
        "schema": "freewalk/measure/v1",
        "field": field,
        "d": len(atoms[0]),
        "atoms": [_flat(a) for a in atoms],
        "probs": [f"1/{len(atoms)}"] * len(atoms),
    }


def positive_measure() -> dict:
    """Uniform on [[2,1],[1,1]] and [[1,1],[1,2]] over R."""
    return _measure(REAL, [[[2, 1], [1, 1]], [[1, 1], [1, 2]]])


def slow_contracting_measure() -> dict:
    """Rational rotations composed with mild stretches; tiny Lyapunov gap."""
    f = Fraction
    r1 = [[f(3, 5), f(-4, 5)], [f(4, 5), f(3, 5)]]
    r2 = [[f(5, 13), f(-12, 13)], [f(12, 13), f(5, 13)]]
    return _measure(
        REAL,
        [_mul(r1, [[f(9, 8), 0], [0, f(8, 9)]]), _mul(r2, [[f(13, 12), 0], [0, f(12, 13)]])],
    )


def padic_contracting_measure(p: int) -> dict:
    """Uniform on [[1/p,1],[0,p]] and [[1/p,0],[1,p]] over Q_p."""
    f = Fraction
    return _measure(padic(p), [[[f(1, p), 1], [0, p]], [[f(1, p), 0], [1, p]]])


SL3_ATOMS = (
    [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 2, 1], [0, 1, 1]],
    [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
    [[1, 0, 0], [1, 1, 0], [1, 1, 1]],
)


def sl3_measure() -> dict:
    """Four-atom SL_3(Z) measure over R (the only d = 3 walk of the benchmark)."""
    return _measure(REAL, list(SL3_ATOMS))


SANOV = ([[1, 2], [0, 1]], [[1, -2], [0, 1]], [[1, 0], [2, 1]], [[1, 0], [-2, 1]])
HYPERBOLIC_PAIR = ([[5, 2], [2, 1]], [[1, 2], [2, 5]])
NONFREE_PAIR = ([[1, 1], [0, 1]], [[1, 0], [1, 1]])


def sanov_word(rng: random.Random, n: int):
    """Product X_n ... X_1 of n independent uniform Sanov letters (exact integers)."""
    prod = [[1, 0], [0, 1]]
    for _ in range(n):
        prod = _mul(SANOV[rng.randrange(4)], prod)
    return prod


def sanov_pairs(seed: int, count: int, n: int) -> list:
    rng = random.Random(f"sanov-pairs/{seed}")
    return [(sanov_word(rng, n), sanov_word(rng, n)) for _ in range(count)]


def random_unimodular(rng: random.Random, d: int, max_entry: int = 20, steps: int = 12):
    """Random non-identity SL_d(Z) matrix with bounded entries, via elementary shears."""
    while True:
        m = [[int(i == j) for j in range(d)] for i in range(d)]
        for _ in range(steps):
            i, j = rng.randrange(d), rng.randrange(d)
            if i == j:
                continue
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            cand = [row[:] for row in m]
            for k in range(d):
                cand[i][k] += c * m[j][k]
            if max(abs(x) for row in cand for x in row) <= max_entry:
                m = cand
        if any(m[i][j] != int(i == j) for i in range(d) for j in range(d)):
            return m


def unimodular_batch(seed: int, d: int, count: int) -> list:
    rng = random.Random(f"sl{d}z/{seed}")
    return [random_unimodular(rng, d) for _ in range(count)]


def exact_det(m) -> Fraction:
    """Determinant by fraction-free elimination (exact)."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def config(kind: str, measure: str, seed: int, **fields) -> dict:
    doc = {"schema": "freewalk/config/v1", "kind": kind, "measure": measure, "seed": seed}
    doc.update(fields)
    return doc


def generators_doc(pair) -> dict:
    return {"field": REAL, "d": 2, "generators": [_flat(g) for g in pair]}


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path
