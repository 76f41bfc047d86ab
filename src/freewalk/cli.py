"""Batch command-line front end.

Subcommands:
  kak <matrix.json>                      print the Cartan decomposition as JSON
  certify <gens.json> --r R --eps E      certify a ping-pong tuple (exit 0/1)
  lyapunov|decay|direction|independence|invariant|tuple <config.json>
                                         run a seeded experiment, emit CSV + JSON

Exit codes: 0 success / certified, 1 certification not achieved, 2 bad
config or input.  Identical (config, seed) produce byte-identical output
files.  Environment overrides: FREEWALK_SEED, FREEWALK_OUT.  The
--threads option, FREEWALK_THREADS and the config key "threads" are still
accepted so that existing scripts and configs keep working, but have no
effect: every experiment runs as one batched walk in one thread.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import jsonschema

from . import __version__
from .errors import ConfigError, FreewalkError
from .estimators import (
    FAILURE_KEYS,
    HOLDER_KINDS,
    Z95,
    _require_vector,
    direction_convergence,
    gap_test,
    holder_function,
    independence_test,
    invariant_measure_probe,
    kak_convergence,
    lyapunov_estimate,
    pingpong_decay,
    tuple_decay,
    wilson_interval,
)
from .decompositions import kak
from .fields import ARCHIMEDEAN, NONARCHIMEDEAN, FieldSpec, parse_scalar
from .linalg import _load_json, as_matrix, flat_matrices, matrix_from_json_dict, vector_to_strings
from .pingpong import pingpong_certificate
from .report import _write, decay_to_rows, dumps_json, fit_to_dict, write_csv, write_json
from .walks import GENERATOR_NAME, PROXIMAL_MAX_LEN, find_proximal_element, load_measure

_THRESHOLD_BASES = {"required": ["r_base", "eps_base"]}

#: What each experiment kind needs beyond CONFIG_SCHEMA, as one JSON Schema per kind.
KIND_SCHEMAS = {
    "lyapunov": {"required": ["n", "reps"], "properties": {"n": {"minimum": 10}, "reps": {"minimum": 10}}},
    "decay": {"required": ["grid", "reps", "thresholds"], "properties": {"thresholds": _THRESHOLD_BASES}},
    "direction": {"required": ["grid", "horizon", "reps"]},
    # an anyOf would print the whole config in its message
    "independence": {"required": ["reps"], "if": {"not": {"required": ["grid"]}}, "then": {"required": ["n"]}},
    "invariant": {"required": ["n", "reps", "hyperplanes", "thresholds"],
                  "properties": {"thresholds": {"required": ["t"]}}},
    "tuple": {"required": ["n", "reps", "tuple_size", "thresholds"], "properties": {"thresholds": _THRESHOLD_BASES}},
}
EXPERIMENT_KINDS = tuple(KIND_SCHEMAS)

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "kind", "measure", "seed"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": "freewalk/config/v1"},
        "kind": {"enum": list(EXPERIMENT_KINDS)},
        "measure": {"type": "string"},
        "measure2": {"type": "string"},
        "field": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {"kind": {"enum": [ARCHIMEDEAN, NONARCHIMEDEAN]}, "prime": {"type": "integer"}},
        },
        "grid": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}},
        "reps": {"type": "integer", "minimum": 1},
        "horizon": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
        "threads": {"type": "integer", "minimum": 1},
        "tuple_size": {"type": "integer", "minimum": 2},
        "rho_hat": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "x": {"type": "array", "minItems": 2, "items": {"type": ["string", "number"]}},
        "hyperplanes": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "minItems": 2, "items": {"type": ["string", "number"]}},
        },
        "thresholds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "r_base": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "eps_base": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "t": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
        },
        "phi1": {"$ref": "#/$defs/phi"},
        "phi2": {"$ref": "#/$defs/phi"},
    },
    "$defs": {
        "phi": {
            "type": "object",
            "required": ["kind", "reference"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": list(HOLDER_KINDS)},
                "reference": {"type": "array", "minItems": 2, "items": {"type": ["string", "number"]}},
                "exponent": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            },
        }
    },
}


def _env_int(name: str):
    value = os.environ.get(name)
    if not value:
        return None
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc


def _schema_errors(schema: dict, doc) -> list:
    return sorted(jsonschema.Draft202012Validator(schema).iter_errors(doc), key=lambda e: list(e.absolute_path))


def _validate_config(doc: dict, path: str) -> None:
    # the kind's schema runs only once CONFIG_SCHEMA holds, so doc["kind"] is a known kind
    errors = _schema_errors(CONFIG_SCHEMA, doc) or _schema_errors(KIND_SCHEMAS[doc["kind"]], doc)
    if errors:
        e = errors[0]
        loc = "/".join(str(p) for p in e.absolute_path) or "(root)"
        raise ConfigError(f"{path}: field {loc}: {e.message}")
    grid = doc.get("grid")
    if grid is not None and any(a >= b for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{path}: grid must be strictly increasing")
    kind = doc["kind"]
    if kind == "direction" and doc["horizon"] < 2 * max(grid):
        raise ConfigError(f"{path}: field horizon: need horizon >= 2 * max(grid) = {2 * max(grid)}")
    th = doc.get("thresholds", {})
    if kind in ("decay", "tuple") and th["eps_base"] >= th["r_base"]:
        raise ConfigError(f"{path}: field thresholds: need eps_base < r_base")


def _vector(entries, where: str, measure) -> list:
    """A config vector parsed over the measure's field: measure.d scalars, not all zero."""
    try:
        vec = [parse_scalar(v, measure.field) for v in entries]
        _require_vector(vec, measure.d, "vector")
    except FreewalkError as exc:
        raise ConfigError(f"field {where}: {exc}") from exc
    return vec


def _resolve_measures(config: dict, base: Path):
    measure = load_measure(base / config["measure"])
    measure2 = None
    if "measure2" in config:
        measure2 = load_measure(base / config["measure2"])
        if measure2.field != measure.field or measure2.d != measure.d:
            raise ConfigError("measure and measure2 must share field and dimension")
    if "field" in config and FieldSpec.from_dict(config["field"]) != measure.field:
        raise ConfigError("config field spec disagrees with the measure file")
    return measure, measure2


def _sidecar(kind: str, config: dict, measure, measure2, payload: dict, probe=None) -> dict:
    doc = {
        "schema": "freewalk/result/v1",
        "kind": kind,
        "version": __version__,
        "rng": GENERATOR_NAME,
        "config": config,
        "measure_hash": measure.canonical_hash(),
        "proximal_probe": probe,
    }
    if measure2 is not None:
        doc["measure2_hash"] = measure2.canonical_hash()
    doc.update(payload)
    return doc


def _run_experiment(kind: str, config: dict, base: Path, out: Path) -> int:
    measure, measure2 = _resolve_measures(config, base)
    seed = config["seed"]
    reps = config.get("reps")
    th = config.get("thresholds", {})

    # every config vector is parsed and checked, and the output directory made, before any walk runs
    if kind == "direction":
        x = config.get("x", ["1"] * measure.d)
        x_vec = _vector(x, "x", measure)
    elif kind == "invariant":
        planes = [_vector(h, f"hyperplanes/{i}", measure) for i, h in enumerate(config["hyperplanes"])]
    elif kind == "independence":
        e1 = ["1"] + ["0"] * (measure.d - 1)
        phi_docs = {
            name: config.get(name, {"kind": "dist_to_point", "reference": e1, "exponent": 1.0})
            for name in ("phi1", "phi2")
        }
        phi1, phi2 = (
            holder_function(
                doc["kind"],
                _vector(doc["reference"], f"{name}/reference", measure),
                measure.field,
                doc.get("exponent", 1.0),
            )
            for name, doc in phi_docs.items()
        )
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out / kind}.csv: {exc}") from exc

    # contraction/irreducibility of the support are not decidable from the
    # atoms; warn when not even a proximal witness shows up in short products
    probe = find_proximal_element(measure, seed=seed)
    if probe is None:
        print(
            "warning: no proximal element found among sampled products of length "
            f"<= {PROXIMAL_MAX_LEN}; the walk may violate the strong irreducibility / "
            "contraction hypotheses",
            file=sys.stderr,
        )

    if kind == "lyapunov":
        est = lyapunov_estimate(measure, config["n"], reps, seed)
        verdict = gap_test(est)
        header = ["n", "lambda1_hat", "lambda1_ci", "lambda12_hat", "lambda12_ci", "gap_hat", "gap_ci", "reps"]
        rows = [[est.n, est.lambda1_hat, est.ci_half_widths[0], est.lambda12_hat,
                 est.ci_half_widths[1], est.gap_hat, est.ci_half_widths[2], est.reps]]
        payload = {
            "lambda1_hat": est.lambda1_hat,
            "lambda12_hat": est.lambda12_hat,
            "lambda2_hat": est.lambda2_hat,
            "gap_hat": est.gap_hat,
            "ci_half_widths": list(est.ci_half_widths),
            "gap_positive": verdict.positive,
            "sl2_balanced": verdict.sl2_balanced,
        }

    elif kind == "decay":
        est = pingpong_decay(
            measure, measure2 or measure, th["r_base"], th["eps_base"],
            config["grid"], reps, seed,
        )
        header = ["n", "p_hat", "ci_lo", "ci_hi", "reps",
                  "fail_contraction", "fail_separation", "fail_cross", "r", "eps", "thresholds_valid"]
        bd = est.extra["breakdown"]
        rows = [row + [bd[k][i] for k in FAILURE_KEYS] + [est.extra[k][i] for k in ("r", "eps", "thresholds_valid")]
                for i, row in enumerate(decay_to_rows(est))]
        payload = {"fit": fit_to_dict(est.fit), "breakdown": bd,
                   "thresholds_valid": est.extra["thresholds_valid"]}

    elif kind == "direction":
        direction = direction_convergence(measure, x_vec, config["grid"], config["horizon"], reps, seed)
        frames = kak_convergence(measure, config["grid"], config["horizon"], reps, seed)
        header = ["n", "p_hat", "ci_lo", "ci_hi", "reps", "curve"]
        rows = []
        for name, est in (("direction", direction), ("kak_k", frames.k_curve), ("kak_u", frames.u_curve)):
            rows.extend(row + [name] for row in decay_to_rows(est))
        payload = {
            "fits": {
                "direction": fit_to_dict(direction.fit),
                "kak_k": fit_to_dict(frames.k_curve.fit),
                "kak_u": fit_to_dict(frames.u_curve.fit),
            },
            "x": x,
            "horizon": config["horizon"],
        }

    elif kind == "independence":
        ns = config.get("grid") or [config["n"]]
        header = ["n", "p_hat", "ci_lo", "ci_hi", "reps", "mean_joint", "mean_phi1", "mean_phi2"]
        rows = []
        results = {}
        for n in ns:
            res = independence_test(measure, phi1, phi2, n, reps, seed)
            rows.append([n, res.discrepancy, max(0.0, res.discrepancy - Z95 * res.se),
                         res.discrepancy + Z95 * res.se, reps,
                         res.mean_joint, res.mean_phi1, res.mean_phi2])
            results[str(n)] = {"discrepancy": res.discrepancy, "se": res.se}
        payload = {"discrepancies": results, **phi_docs}

    elif kind == "invariant":
        res = invariant_measure_probe(measure, config["n"], reps, planes, th["t"], seed)
        header = ["n", "p_hat", "ci_lo", "ci_hi", "reps", "hyperplane"]
        rows = [
            [res.n, f, lo, hi, reps, i]
            for i, (f, lo, hi) in enumerate(zip(res.fractions, res.ci_lo, res.ci_hi))
        ]
        payload = {"sup_fraction": res.sup_fraction, "t": res.t, "n": res.n}

    elif kind == "tuple":
        n = config["n"]
        rho = config.get("rho_hat")
        pair_fit = None
        if rho is None and config.get("grid"):
            pair = pingpong_decay(measure, measure2 or measure, th["r_base"], th["eps_base"],
                                  config["grid"], reps, seed)
            pair_fit = fit_to_dict(pair.fit)
            rho = pair.fit.rho_hat if pair.fit else None
        res = tuple_decay(measure, config["tuple_size"], th["r_base"] ** n, th["eps_base"] ** n,
                          n, reps, seed, rho_hat=rho)
        header = ["n", "p_hat", "ci_lo", "ci_hi", "reps", "l", "prediction", "prediction_se", "within_prediction"]
        lo, hi = wilson_interval(res.failures, res.reps)
        rows = [[res.n, res.failure_fraction, lo, hi, res.reps, res.l,
                 res.prediction, res.prediction_se, res.within_prediction]]
        payload = {
            "failure_fraction": res.failure_fraction,
            "prediction": res.prediction,
            "prediction_se": res.prediction_se,
            "within_prediction": res.within_prediction,
            "rho_hat": rho,
            "pair_fit": pair_fit,
        }
    else:  # pragma: no cover
        raise ConfigError(f"unknown experiment kind {kind}")

    write_csv(out / f"{kind}.csv", header, rows)
    write_json(out / f"{kind}.json", _sidecar(kind, config, measure, measure2, payload, probe))
    return 0


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _cmd_kak(args) -> int:
    g, field = matrix_from_json_dict(_load_json(args.matrix))
    dec = kak(g, field)  # checks the file's exact determinant, then decomposes its float rounding over R
    out = {"field": field.to_dict(), "d": g.shape[0], "a": vector_to_strings(dec.a, field)}
    for name in ("k", "u", "v", "h"):  # the matrices k and u row-major
        out[name] = vector_to_strings(getattr(dec, name).ravel(), field)
    sys.stdout.write(dumps_json(out))
    return 0


def _cmd_certify(args) -> int:
    field, gens = flat_matrices(_load_json(args.generators), "generators")
    cert = pingpong_certificate([as_matrix(g, field) for g in gens], args.r, args.eps, field, certified=args.exact)
    text = dumps_json(cert.to_json_dict(field), rounded=True)
    out_dir = args.out or os.environ.get("FREEWALK_OUT")
    if out_dir:
        _write(Path(out_dir) / "certificate.json", text)
    sys.stdout.write(text)
    return 0 if cert.certified else 1


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; it reads no environment."""
    parser = argparse.ArgumentParser(
        prog="freewalk",
        description="Random matrix products over local fields: decompositions, "
        "ping-pong certification, decay experiments.",
    )
    parser.add_argument("--version", action="version", version=f"freewalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kak = sub.add_parser("kak", help="print the Cartan decomposition of a matrix file")
    p_kak.add_argument("matrix")

    p_cert = sub.add_parser("certify", help="certify a ping-pong tuple from a generators file")
    p_cert.add_argument("generators")
    p_cert.add_argument("--r", type=float, required=True)
    p_cert.add_argument("--eps", type=float, required=True)
    p_cert.add_argument("--exact", action="store_true",
                        help="verified mode: interval/exact arithmetic at the comparisons")
    p_cert.add_argument("--out", default=None, help="output directory (env FREEWALK_OUT)")

    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment from a config file")
        p.add_argument("config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (env FREEWALK_SEED)")
        p.add_argument("--out", default=None, help="output directory (env FREEWALK_OUT)")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; has no effect")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "kak":
            return _cmd_kak(args)
        if args.command == "certify":
            return _cmd_certify(args)
        config_path = Path(args.config)
        config = _load_json(args.config)
        # the override is validated with the config, so one check covers both
        env_seed = _env_int("FREEWALK_SEED")
        seed = args.seed if args.seed is not None else env_seed
        if seed is not None and isinstance(config, dict):
            config["seed"] = seed
        _validate_config(config, args.config)
        if config["kind"] != args.command:
            raise ConfigError(
                f"config kind {config['kind']!r} does not match subcommand {args.command!r}"
            )
        out = args.out or os.environ.get("FREEWALK_OUT") or config.get("out") or "."
        return _run_experiment(args.command, config, config_path.parent, Path(out))
    except FreewalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
