"""The benchmark's workloads: timed calls through freewalk's public API.

A workload is a list of operations (``decay_s`` times the decay operation).
An operation is a list of units; each unit is one call into freewalk, either
a CLI invocation through ``freewalk.cli.main`` or one public API call, and is
timed on its own.  Correctness checks run after the timed units and use no
freewalk code, so a traced run counts only the work the units did.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import inputs

GRID = [8, 16, 24, 32, 40]
KNOWN_DEFECT = "matrix determinant is not 1"

# CSV header of each experiment kind; rows(config) is the expected row count.
CSV_SHAPES = {
    "lyapunov": (["n", "lambda1_hat", "lambda1_ci", "lambda12_hat", "lambda12_ci",
                  "gap_hat", "gap_ci", "reps"], lambda c: 1),
    "decay": (["n", "p_hat", "ci_lo", "ci_hi", "reps", "fail_contraction", "fail_separation",
               "fail_cross", "r", "eps", "thresholds_valid"], lambda c: len(c["grid"])),
    "direction": (["n", "p_hat", "ci_lo", "ci_hi", "reps", "curve"], lambda c: 3 * len(c["grid"])),
    "independence": (["n", "p_hat", "ci_lo", "ci_hi", "reps", "mean_joint", "mean_phi1",
                      "mean_phi2"], lambda c: len(c["grid"])),
    "invariant": (["n", "p_hat", "ci_lo", "ci_hi", "reps", "hyperplane"],
                  lambda c: len(c["hyperplanes"])),
    "tuple": (["n", "p_hat", "ci_lo", "ci_hi", "reps", "l", "prediction", "prediction_se",
               "within_prediction"], lambda c: 1),
}


@dataclass
class Outcome:
    """What one pass of an operation did: calls attempted and failed, output bytes, problems."""

    attempted: int = 0
    failed: int = 0
    blobs: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for blob in self.blobs:
            h.update(len(blob).to_bytes(8, "little"))
            h.update(blob)
        return h.hexdigest()


def _cli(argv, fw):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fw.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _canon(x) -> str:
    """10 significant digits for floats and float literals, so digests ignore last-ulp BLAS drift."""
    try:
        return format(float(x), ".10g") if not isinstance(x, Fraction) else str(x)
    except (TypeError, ValueError):
        return str(x)


def _canon_json(obj):
    if isinstance(obj, dict):
        return {k: _canon_json(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_canon_json(v) for v in obj]
    if isinstance(obj, (float, str)):
        return _canon(obj)
    return obj


class Experiment:
    """One CLI experiment (lyapunov, decay, ...) on a generated measure and config file."""

    def __init__(self, name: str, kind: str, measure: str, measure_doc: dict, fields: dict):
        self.name, self.kind, self.measure, self.measure_doc, self.fields = (
            name, kind, measure, measure_doc, fields)

    def prepare(self, work: Path, seed: int, fw) -> None:
        inputs.write_json(work / self.measure, self.measure_doc)
        self.config = inputs.config(self.kind, self.measure, seed, **self.fields)
        self.config_path = inputs.write_json(work / f"{self.name}.config.json", self.config)
        self.out = work / f"{self.name}.out"
        self.units = [functools.partial(_cli, [self.kind, str(self.config_path), "--out", str(self.out)])]

    def input_files(self) -> list:
        return [("config", self.config_path), ("measure", self.config_path.parent / self.measure)]

    def check(self, results) -> Outcome:
        (code, _, err), = results
        outcome = Outcome(attempted=1)
        if code != 0:
            outcome.failed = 1
            outcome.problems.append(f"{self.name}: exit {code}: {err.strip()[:200]}")
            return outcome
        csv_bytes = (self.out / f"{self.kind}.csv").read_bytes()
        json_bytes = (self.out / f"{self.kind}.json").read_bytes()
        outcome.blobs += [csv_bytes, json_bytes]
        header, rows = CSV_SHAPES[self.kind]
        lines = csv_bytes.decode().splitlines()
        if lines[0].split(",") != header:
            outcome.problems.append(f"{self.name}: CSV header {lines[0]!r}")
        if len(lines) - 1 != rows(self.config):
            outcome.problems.append(f"{self.name}: {len(lines) - 1} CSV rows, want {rows(self.config)}")
        if "ci_lo" in header:
            i_p, i_lo, i_hi = header.index("p_hat"), header.index("ci_lo"), header.index("ci_hi")
            for line in lines[1:]:
                cells = line.split(",")
                if not float(cells[i_lo]) <= float(cells[i_p]) <= float(cells[i_hi]):
                    outcome.problems.append(f"{self.name}: ci_lo <= p_hat <= ci_hi fails: {line}")
        doc = json.loads(json_bytes)
        if doc.get("kind") != self.kind or doc.get("config", {}).get("seed") != self.config["seed"]:
            outcome.problems.append(f"{self.name}: sidecar kind/seed mismatch")
        return outcome


class Certify:
    """``certify --exact`` on Sanov walk pairs, one CLI call per pair.

    Exit 2 with "matrix determinant is not 1" on a pair whose exact
    determinant is 1 is the known float-tolerance defect of the unimodular
    check: the call counts as failed.  Any other exit 2 is a correctness
    problem.
    """

    name = "certify"

    def __init__(self, count: int, length: int = 16, r: float = 0.2, eps: float = 0.05):
        self.count, self.length, self.r, self.eps = count, length, r, eps

    def prepare(self, work: Path, seed: int, fw) -> None:
        self.pairs = inputs.sanov_pairs(seed, self.count, self.length)
        self.paths = [
            inputs.write_json(work / f"certify-{i:03d}.json", inputs.generators_doc(pair))
            for i, pair in enumerate(self.pairs)
        ]
        opts = ["--r", str(self.r), "--eps", str(self.eps), "--exact"]
        self.units = [functools.partial(_cli, ["certify", str(p)] + opts) for p in self.paths]

    def input_files(self) -> list:
        return [("generators", p) for p in self.paths]

    def check(self, results) -> Outcome:
        outcome = Outcome()
        for pair, (code, out, err) in zip(self.pairs, results):
            outcome.attempted += 1
            if code in (0, 1):
                cert = json.loads(out)
                outcome.blobs.append(f"{code}\n{json.dumps(_canon_json(cert), sort_keys=True)}".encode())
                if cert["verdict"] != ("certified-free" if code == 0 else "not-certified"):
                    outcome.problems.append(f"certify: exit {code} with verdict {cert['verdict']}")
                continue
            outcome.failed += 1
            outcome.blobs.append(f"{code}\n{err}".encode())
            if not (code == 2 and KNOWN_DEFECT in err and all(inputs.exact_det(g) == 1 for g in pair)):
                outcome.problems.append(f"certify: exit {code}: {err.strip()[:200]}")
        return outcome


class Oracle:
    """The exact word oracle on a free, a hyperbolic and a non-free pair."""

    name = "oracle"
    CASES = (
        ("sanov", (inputs.SANOV[0], inputs.SANOV[2]), 8, None),
        ("hyperbolic", inputs.HYPERBOLIC_PAIR, 8, None),
        ("nonfree", inputs.NONFREE_PAIR, 12, "abAbaB"),
    )

    def prepare(self, work: Path, seed: int, fw) -> None:
        self.units = [
            functools.partial(_oracle, [np.array(g, dtype=object) for g in pair], L)
            for _, pair, L, _ in self.CASES
        ]

    def input_files(self) -> list:
        return []

    def check(self, results) -> Outcome:
        outcome = Outcome()
        for (label, _, L, want), verdict in zip(self.CASES, results):
            outcome.attempted += 1
            word = verdict.relation_word()
            outcome.blobs.append(f"{label}:{L}:{word}:{verdict.words_checked}".encode())
            if word != want:
                outcome.failed += 1
                outcome.problems.append(f"oracle {label}: relation {word}, want {want}")
        return outcome


def _oracle(gens, max_len, fw):
    return fw.free_word_oracle(gens, max_len)


def _decompose(g, field, fw):
    return fw.kak(g, field), fw.iwasawa(g, field)


def _valuation(q: Fraction, p: int) -> float:
    if q == 0:
        return math.inf
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


class Decompose:
    """kak and iwasawa of random SL_d(Z) matrices, d in {2, 3}, over R, Q_2 and Q_3."""

    name = "decompose"
    FIELDS = (("R", None), ("Q2", 2), ("Q3", 3))

    def __init__(self, count: int):
        self.count = count

    def prepare(self, work: Path, seed: int, fw) -> None:
        self.cases, self.units = [], []
        for d in (2, 3):
            for m in inputs.unimodular_batch(seed, d, self.count):
                for label, p in self.FIELDS:
                    if p is None:
                        f, g = fw.FieldSpec.real(), np.array(m, dtype=float)
                    else:
                        f = fw.FieldSpec.padic(p)
                        g = np.array([[Fraction(x) for x in row] for row in m], dtype=object)
                    self.cases.append((d, label, p, m))
                    self.units.append(functools.partial(_decompose, g, f))

    def input_files(self) -> list:
        return []

    def check(self, results) -> Outcome:
        outcome = Outcome()
        h = hashlib.sha256()
        for (d, label, p, m), (kd, iw) in zip(self.cases, results):
            outcome.attempted += 2
            for kind, dec, right in (("kak", kd, kd.u), ("iwasawa", iw, iw.n)):
                bad = _check_decomposition(m, dec.k, dec.a, right, p, top_is_norm=kind == "kak")
                if bad:
                    outcome.failed += 1
                    outcome.problems.append(f"{kind} d{d} {label}: {bad} for {m}")
                h.update(repr([_canon(x) for x in dec.a]).encode())
            h.update(repr([_canon(x) for x in np.ravel(kd.v)]).encode())
        outcome.blobs.append(h.digest())
        return outcome


def _check_decomposition(m, k, a, right, p, top_is_norm: bool) -> str | None:
    """k diag(a) right == m (exactly over Q_p, within 1e-9 of the norm over R); |a_1| = norm."""
    if p is None:
        g = np.array(m, dtype=float)
        scale = float(np.linalg.norm(g, 2))
        err = float(np.max(np.abs(np.asarray(k) @ np.diag(a) @ np.asarray(right) - g)))
        if err > 1e-9 * scale:
            return f"reconstruction error {err:.3g}"
        if top_is_norm and abs(abs(a[0]) - scale) > 1e-9 * scale:
            return f"|a_1| = {abs(a[0])!r} but operator norm {scale!r}"
        return None
    d = len(m)
    ka = [[Fraction(k[i][j]) * Fraction(a[j]) for j in range(d)] for i in range(d)]
    rec = [[sum(ka[i][t] * Fraction(right[t][j]) for t in range(d)) for j in range(d)]
           for i in range(d)]
    if rec != [[Fraction(x) for x in row] for row in m]:
        return "inexact reconstruction"
    norm_val = min(_valuation(Fraction(x), p) for row in m for x in row)
    if top_is_norm and _valuation(Fraction(a[0]), p) != norm_val:
        return "|a_1|_p differs from the operator norm"
    return None


def build(workload: str) -> list:
    """The operations of one pass of a workload, in run order.

    n, grid, horizon and thresholds are those of the acceptance criteria;
    reps, batch sizes and the oracle's free-pair word length (8, not 10) are
    cut so that each unit takes 5-250 ms and a run repeats it many times:
    the fastest repeat of a short unit is the steadiest time on a shared
    machine (README.md, "Environment and drift").
    """
    positive = inputs.positive_measure()
    if workload == "real-mc":
        return [
            Experiment("lyapunov", "lyapunov", "positive.json", positive, {"n": 200, "reps": 10}),
            Experiment("decay", "decay", "positive.json", positive,
                       {"grid": GRID, "reps": 10, "thresholds": {"r_base": 0.8, "eps_base": 0.7}}),
            Experiment("independence", "independence", "slow.json", inputs.slow_contracting_measure(),
                       {"grid": [15, 60], "reps": 50,
                        "phi1": {"kind": "dist_to_point", "reference": ["1", "0"]},
                        "phi2": {"kind": "dist_to_point", "reference": ["0", "1"]}}),
            Experiment("invariant", "invariant", "positive.json", positive,
                       {"n": 40, "reps": 100, "hyperplanes": [["1", "0"], ["0", "1"], ["1", "-1"]],
                        "thresholds": {"t": 0.9}}),
            Experiment("tuple", "tuple", "positive.json", positive,
                       {"n": 40, "reps": 5, "tuple_size": 8, "rho_hat": 0.99,
                        "thresholds": {"r_base": 0.95, "eps_base": 0.9}}),
        ]
    if workload == "real-long":
        return [
            Experiment("lyapunov", "lyapunov", "positive.json", positive, {"n": 1000, "reps": 10}),
            Experiment("lyapunov_d3", "lyapunov", "sl3.json", inputs.sl3_measure(),
                       {"n": 500, "reps": 10}),
        ]
    if workload == "exact":
        return [
            Experiment("decay", "decay", "padic2.json", inputs.padic_contracting_measure(2),
                       {"grid": GRID, "reps": 10, "thresholds": {"r_base": 0.8, "eps_base": 0.7}}),
            Experiment("lyapunov", "lyapunov", "padic3.json", inputs.padic_contracting_measure(3),
                       {"n": 200, "reps": 10}),
            Experiment("direction", "direction", "positive.json", positive,
                       {"grid": [10, 20, 40], "horizon": 160, "reps": 10, "x": ["1", "1"]}),
            Certify(count=100),
            Oracle(),
            Decompose(count=30),
        ]
    raise ValueError(f"unknown workload {workload!r}")
