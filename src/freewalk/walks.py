"""Finitely supported measures on SL_d over a local field, and seeded walks.

RNG contract
------------
All randomness comes from numpy's Philox bit generator (Philox4x64, a
named, versioned, counter-based generator).  Stream splitting is by key:
the stream with index ``i`` under master seed ``s`` is
``Generator(Philox(key=[s mod 2**64, i mod 2**64]))``.  Distinct stream
indices give statistically independent, individually reproducible
streams, so trajectory ``i`` of an experiment can be regenerated in
isolation from ``(seed, i)``.  Sampling one increment consumes exactly
one uniform draw; n increments are drawn with one ``random(n)`` call,
which yields the same uniforms as n single draws.  The walks and the proximal
probe draw them from one generator per thread, reset to where :func:`make_stream`
starts and built on first use (importing freewalk skips ``numpy.random``).

Walk kernel
-----------
Both walk orders come from one increment sequence: the natural product
M_n = X_1 ... X_n and the reversed product S_n = X_n ... X_1, each as a
ScaledMatrix so products of any length never overflow.  Every estimator
walks through one kernel: :func:`walk_indices` stacks the index rows of a
batch of streams into an array of shape (reps, n), and :func:`walk_products`
folds a table of increments (the atoms or, at d >= 3, an exterior power of
them) into S_n along every row at once.  Over R the batch is one stack of
float matrices, one matmul a step; every K steps, K from the table's norms,
each row is scaled by a power of two, exactly, so each row is bit-identical
to the per-step sequential fold of :func:`scaled_premultiply`, and the scale
is a sum of integer exponents with no logarithm.  On both fields an
estimator call makes one fold per matrix size (``estimators._fold``, which
alone decides fold direction): shorter rows are padded at the start with an
identity increment, and M_n is the transposed right fold X_n^T ... X_1^T of
the transposed increments.  Every exact product goes through
:func:`integer_products`, one right fold of stacked integer matrices with no
gcd and no renormalisation: over Q_p each row's numerator N is divided by
its denominator and by the p-power of its content once, at the end, which
gives the unit and scale of the exact sequential fold; the exact replays
(:func:`exact_product` and the direction and KAK-frame estimators, which
take M_n^T as the fold of the transposed atoms) and the proximal probe use
the same fold.  :func:`advance` is the one sequential fold: it takes one
step of one trajectory, :func:`run_walk` iterates it, and the kernel is
checked against it.  One trajectory reruns from (seed, stream) through the
same kernel, with a one-element stream list.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .decompositions import (
    ScaledMatrix,
    _padic_scaled,
    scaled_identity,
    scaled_multiply,
    scaled_premultiply,
)
from .errors import ConfigError, DomainError, InvariantViolation, UsageError
from .fields import FieldSpec, parse_scalar, valuation
from .linalg import (
    _faddeev_leverrier,
    _integer_form,
    _load_json,
    as_matrix,
    exact_inv,
    flat_matrices,
    is_unimodular,
    vector_to_strings,
)

GENERATOR_NAME = "philox4x64"

_MASK64 = 2**64
_local = threading.local()  # each thread's reseeded generator, see _reseeded


def make_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent, reproducible stream `stream` of master seed `seed`."""
    key = np.array([seed % _MASK64, stream % _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _reseeded(state: dict) -> np.random.Generator:
    """This thread's private generator, built on first use, set to a Philox state."""
    if not hasattr(_local, "rng"):
        _local.rng = np.random.Generator(np.random.Philox(key=0))
    _local.rng.bit_generator.state = state
    return _local.rng


def _start_state(seed: int, stream: int) -> dict:
    """The state make_stream(seed, stream) starts from: counter 0, that key, an empty buffer."""
    key, zero = np.array([seed % _MASK64, stream % _MASK64], dtype=np.uint64), np.zeros(4, dtype=np.uint64)
    return {"bit_generator": "Philox", "state": {"counter": zero, "key": key}, "buffer": zero, "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}


MEASURE_SCHEMA = "freewalk/measure/v1"


@dataclass(frozen=True)
class WalkMeasure:
    """A finitely supported probability measure on SL_d(k).

    exact_atoms hold the given entries (a document's rationals as read) as Fractions, for
    the exact replays, the freeness oracle and the exterior powers the estimators fold.
    Over Q_p they are the atoms; over R the atoms are the floats rounded once from them.
    """

    atoms: tuple
    probs: tuple  # Fractions, positive, exact sum 1
    field: FieldSpec
    d: int
    exact_atoms: tuple
    cumulative: tuple  # float partial sums for sampling

    def to_json_dict(self) -> dict:
        return {
            "schema": MEASURE_SCHEMA,
            "field": self.field.to_dict(),
            "d": self.d,
            "atoms": [vector_to_strings(a.ravel(), self.field) for a in self.atoms],
            "probs": [f"{p.numerator}/{p.denominator}" for p in self.probs],
        }

    def canonical_hash(self) -> str:
        doc = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode()).hexdigest()


def make_measure(atom_rows, probs, field: FieldSpec) -> WalkMeasure:
    """Validated measure from raw nested rows and rational probabilities."""
    atoms = tuple(as_matrix(rows, field) for rows in atom_rows)
    if not atoms:
        raise InvariantViolation("measure needs at least one atom")
    d = atoms[0].shape[0]
    if d < 2:
        raise InvariantViolation(f"atoms must be d x d with d >= 2, got d = {d}")
    probs = tuple(Fraction(p) for p in probs)
    if len(probs) != len(atoms):
        raise InvariantViolation("probs and atoms differ in length")
    if any(p <= 0 for p in probs):
        raise InvariantViolation("probabilities must be positive")
    if sum(probs) != 1:
        raise InvariantViolation(f"probabilities sum to {sum(probs)}, not 1")
    for a, rows in zip(atoms, atom_rows):
        if a.shape != (d, d):
            raise InvariantViolation("atoms must share one dimension")
        # rounding entries near 10**6 can move a float determinant 1e-5 off 1: retake a failed check exactly
        if not (is_unimodular(a, field) or field.is_archimedean and np.isfinite(a).all()
                and is_unimodular(np.array(rows, dtype=object), field)):
            raise InvariantViolation("atom determinant is not 1")
    return WalkMeasure(
        atoms=atoms,
        probs=probs,
        field=field,
        d=d,
        exact_atoms=atoms if not field.is_archimedean else tuple(
            np.array([[Fraction(x) for x in row] for row in rows], dtype=object) for rows in atom_rows),
        cumulative=tuple(accumulate(map(float, probs))),
    )


def measure_from_json_dict(doc: dict) -> WalkMeasure:
    field, atoms = flat_matrices(doc, "atoms")
    if doc.get("schema", MEASURE_SCHEMA) != MEASURE_SCHEMA:
        raise ConfigError(f"measure schema must be {MEASURE_SCHEMA!r}, got {doc['schema']!r}")
    probs = doc.get("probs")
    if not isinstance(probs, list):
        raise ConfigError(f"probs must be a list of strings or numbers, got {probs!r}")
    return make_measure(atoms, [parse_scalar(p, field) for p in probs], field)


def load_measure(path) -> WalkMeasure:
    return measure_from_json_dict(_load_json(path))


# ---------------------------------------------------------------------------
# Walk states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkState:
    """One trajectory checkpoint; immutable, safe to retain across steps."""

    step: int
    left_product: ScaledMatrix  # M_n = X_1 ... X_n
    right_product: ScaledMatrix  # S_n = X_n ... X_1
    increments: tuple  # sampled atom indices, oldest first
    rng_state: dict


def new_walk_state(measure: WalkMeasure, seed: int, stream: int = 0) -> WalkState:
    ident = scaled_identity(measure.d, measure.field)
    return WalkState(
        step=0,
        left_product=ident,
        right_product=ident,
        increments=(),
        rng_state=_start_state(seed, stream),
    )


def _sample_index(measure: WalkMeasure, u: float) -> int:
    return min(bisect_right(measure.cumulative, u), len(measure.cumulative) - 1)


def advance(state: WalkState, measure: WalkMeasure) -> WalkState:
    """One step: the same increment extends both walk orders."""
    rng = _reseeded(state.rng_state)
    idx = _sample_index(measure, rng.random())
    x = measure.atoms[idx]
    field = measure.field
    return WalkState(
        step=state.step + 1,
        left_product=scaled_multiply(state.left_product, x, field),
        right_product=scaled_premultiply(x, state.right_product, field),
        increments=state.increments + (idx,),
        rng_state=rng.bit_generator.state,
    )


def run_walk(measure: WalkMeasure, n: int, seed: int, stream: int = 0) -> WalkState:
    """The state after n steps on one stream, by iterating :func:`advance`."""
    state = new_walk_state(measure, seed, stream)
    for _ in range(n):
        state = advance(state, measure)
    return state


def sample_increment_indices(measure: WalkMeasure, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """The first n atom indices of a stream: :func:`_sample_index` of one uniform each."""
    cum = measure.cumulative
    u = _reseeded(_start_state(seed, stream)).random(n)
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def walk_indices(measure: WalkMeasure, n: int, seed: int, streams) -> np.ndarray:
    """Index array of shape (len(streams), n); row i samples stream streams[i]."""
    rows = [sample_increment_indices(measure, n, seed, s) for s in streams]
    return np.array(rows, dtype=np.intp).reshape(len(rows), n)


#: Bytes of increments :func:`walk_products` gathers at once over R: a block of
#: steps (at least one) whose (reps, m, m) increments fit, not the whole walk.
_GATHER_BYTES = 1 << 16

#: How far, in powers of two, a product's largest |entry| may move between two
#: renormalisations of :func:`walk_products` over R: far inside the float range.
_DRIFT_BITS = 200


def _renormalize_every(table: np.ndarray) -> int:
    """Steps K between renormalisations of a float table's products.

    Over K steps the largest |entry| of a product grows by at most G**K and shrinks by at most H**K,
    G and H the largest row-sum norms of the increments and of their inverses, and K keeps both
    within 2**_DRIFT_BITS.  Where LU finds no inverse, as of [[N, N - 1], [N + 1, N]] at N = 1e8, each
    float increment, an exact rational, is inverted exactly.  A table with a non-finite entry, an
    exactly singular increment or a norm beyond the float range gets K = 1.
    """
    if not np.isfinite(table).all():
        return 1
    try:
        inverses = np.linalg.inv(table)
    except np.linalg.LinAlgError:
        try:
            inverses = [exact_inv(x).astype(float) for x in table]
        except (DomainError, OverflowError):  # singular, or an inverse entry beyond the float range
            return 1
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf, and gets K = 1 below
        norms = np.abs(np.stack([table, inverses])).sum(axis=-1).max()
    return max(1, _DRIFT_BITS // max(1, math.frexp(norms)[1])) if math.isfinite(norms) else 1


def walk_products(increments, idx: np.ndarray, field: FieldSpec) -> list:
    """Scaled reversed products X_n ... X_1 (the S walk) along each row of an index array.

    X_t = increments[idx[row, t]].  Returns one ScaledMatrix per row, == the sequential fold of
    :func:`scaled_premultiply`; ``estimators._fold`` makes left folds as transposed right folds.

    Over R a step is one matmul of the whole batch into a second buffer,
    and the two buffers swap.  Every K steps (:func:`_renormalize_every`)
    and after the last, each row is scaled by the power of two that puts its
    largest |entry| in [1, 2), and the exponents add up to the scale.
    Scaling by a power of two is exact and commutes with float rounding,
    so the units and scales equal the per-step sequential fold bit for bit,
    at any K.  The one exception is an entry below 2**-822 of its product's
    largest |entry|, which can round as a subnormal in one fold and not in
    the other.  The increments are gathered a block of steps at a time, as many
    as fit in _GATHER_BYTES (at least one), so memory does not grow with
    n * reps * m * m.
    """
    if not field.is_archimedean:
        forms = [_integer_form(x) for x in increments]
        return [_padic_scaled(num, den, field.prime) for num, den in zip(*_exact_products(forms, idx))]
    table = np.asarray(increments, dtype=float)
    (reps, n), m = idx.shape, table.shape[1]
    every = _renormalize_every(table)
    prod, spare = np.broadcast_to(np.eye(m), (reps, m, m)).copy(), np.empty((reps, m, m))
    mag, top, scales = np.empty((m * m, reps)), np.ones(reps), np.zeros(reps, dtype=np.int64)
    block = max(1, _GATHER_BYTES // (max(reps, 1) * m * m * 8))
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite product raises below, not a warning
        for start in range(0, n, block):
            for t, x in enumerate(table[idx[:, start:start + block].T], start + 1):
                np.matmul(x, prod, out=spare)
                prod, spare = spare, prod
                if t % every == 0 or t == n:
                    # |entries| entry-major: a max across rows of a short axis is slow, one down a long axis is not
                    np.maximum.reduce(np.abs(prod.reshape(reps, m * m).T, out=mag), axis=0, out=top)
                    shift = 1 - np.frexp(top)[1]
                    np.ldexp(prod, shift.reshape(reps, 1, 1), out=prod)
                    scales -= shift
    # a zero product stays zero and a non-finite one non-finite, so the last maxima tell
    if not ((top > 0) & (top < math.inf)).all():
        raise DomainError("cannot scale the zero matrix")
    return [ScaledMatrix(prod[r], scale) for r, scale in enumerate(scales.tolist())]


def integer_products(table, idx: np.ndarray, checkpoints) -> list:
    """Exact reversed products X_t ... X_1 of integer matrices along each row of an index array.

    table holds integer matrices (object arrays of Python ints) and
    X_t = table[idx[row, t]].  Returns one (reps, m, m) object stack per
    entry of checkpoints, in the order given: row r of the stack for t is
    the exact product of the row's first t increments, with no gcd and no
    renormalisation (t = 0 is the identity).  The left product X_1 ... X_t
    is the transpose of the fold of the transposed table.
    """
    reps, n = idx.shape
    checkpoints = list(checkpoints)
    if any(not 0 <= t <= n for t in checkpoints):
        raise UsageError(f"checkpoints must lie in [0, {n}]")
    ints = np.array(list(table), dtype=object)
    m = ints.shape[1]
    prod = np.empty((reps, m, m), dtype=object)
    prod[:] = np.eye(m, dtype=object)
    snaps = {}
    done = 0
    for stop in sorted(set(checkpoints)):
        for col in idx.T[done:stop]:
            prod = ints[col] @ prod
        snaps[stop] = prod
        done = stop
    return [snaps[t] for t in checkpoints]


def _exact_products(forms, idx: np.ndarray) -> tuple:
    """The exact reversed product along each row of idx as a numerator stack N and one denominator per row.

    forms holds the :func:`_integer_form` (A, D) of each matrix; with
    X_t = A_t / D_t, row r's product is N[r] / prod(D), N folded by
    :func:`integer_products`.
    """
    (num,) = integer_products([a for a, _ in forms], idx, [idx.shape[1]])
    return num, [math.prod(forms[i][1] for i in row) for row in idx.tolist()]


def exact_product(measure: WalkMeasure, increments) -> np.ndarray:
    """Exact replay X_n ... X_1 (the S walk) of logged atom indices.

    The M walk X_1 ... X_n is the replay of the reversed word, ``increments[::-1]``.
    """
    forms = [_integer_form(a) for a in measure.exact_atoms]
    num, (den,) = _exact_products(forms, np.array([increments], dtype=np.intp).reshape(1, -1))
    return num[0] * Fraction(1, den)


def characteristic_polynomial(a, den: int = 1) -> list:
    """Exact char poly coefficients [c_0, ..., c_d] (monic) of a / den, a an integer matrix:
    those of a from :func:`linalg._faddeev_leverrier`, and c_k(a / den) = c_k(a) / den**(d - k)."""
    coeffs = _faddeev_leverrier(a)[0]
    d = len(coeffs) - 1
    return [Fraction(c, den ** (d - k)) for k, c in enumerate(coeffs)]


def _poly_divmod(a, b) -> tuple:
    """Quotient and remainder over Q of coefficient lists, lowest degree first (b's last entry nonzero)."""
    rem, quot = [Fraction(x) for x in a], []
    while len(rem) >= len(b):
        q = rem[-1] / b[-1]
        quot.append(q)
        for i, y in enumerate(b[:-1], len(rem) - len(b)):
            rem[i] -= q * y
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quot[::-1], rem


def _root_moduli(coeffs) -> list:
    """Absolute values of the roots of a coefficient list (lowest degree first), largest first."""
    return sorted((abs(r) for r in np.roots([float(c) for c in reversed(coeffs)])), reverse=True)


def _unique_max_modulus_root(coeffs, field: FieldSpec) -> bool:
    """Whether the monic polynomial has a single root of maximal absolute value."""
    if field.is_archimedean:
        mags = _root_moduli(coeffs)
        if not (len(mags) >= 2 and mags[0] > mags[1] * (1 + 1e-9)):
            return False
        # np.roots spreads a multiple root over moduli further apart than 1e-9, so decide
        # multiplicity exactly: the multiple roots of c are the roots of g = gcd(c, c'), and
        # c / g has the roots of c, each once
        a, b = coeffs, [k * c for k, c in enumerate(coeffs)][1:]
        while b:
            a, b = b, _poly_divmod(a, b)[1]
        if len(a) < 2:
            return True
        return _root_moduli(_poly_divmod(coeffs, a)[0])[0] > _root_moduli(a)[0] * (1 + 1e-9)
    # Newton polygon: the largest-modulus roots live on the final (steepest)
    # lower-hull segment; a unique one means that segment has length 1
    p = field.prime
    pts = [(k, valuation(c, p)) for k, c in enumerate(coeffs) if c != 0]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    if len(hull) < 2:
        return False
    return hull[-1][0] - hull[-2][0] == 1


#: Products the proximal probe samples, and their longest length.
PROXIMAL_TRIES = 64
PROXIMAL_MAX_LEN = 12


def find_proximal_element(measure: WalkMeasure, seed: int = 0):
    """Heuristic probe: a proximal element among short sampled products.

    Strong irreducibility and contraction of the generated semigroup are
    not decidable from the atoms; a proximal element (unique eigenvalue of
    maximal modulus) among PROXIMAL_TRIES sampled products of length <=
    PROXIMAL_MAX_LEN is the practical witness for contraction.  Returns
    {"length", "word"} or None.
    """
    rng = _reseeded(_start_state(seed, 0))  # stream 0; nothing in the loop reseeds this generator
    forms = [_integer_form(a) for a in measure.exact_atoms]
    for _ in range(PROXIMAL_TRIES):
        length = int(rng.integers(1, PROXIMAL_MAX_LEN + 1))
        word = [_sample_index(measure, rng.random()) for _ in range(length)]
        num, (den,) = _exact_products(forms, np.array([word], dtype=np.intp))
        coeffs = characteristic_polynomial(num[0], den)
        if _unique_max_modulus_root(coeffs, measure.field):
            return {"length": length, "word": word}
    return None
