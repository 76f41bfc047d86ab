"""Deterministic output emission: fixed-precision CSV and JSON sidecars."""

from __future__ import annotations

import json
from pathlib import Path

SIGNIFICANT_DIGITS = 12


def fmt(x) -> str:
    """Fixed significant-digit rendering for any scalar cell."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.{SIGNIFICANT_DIGITS}g}"


def round_floats(obj):
    """Recursively clamp floats to the output precision (keeps JSON stable)."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.{SIGNIFICANT_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [round_floats(v) for v in obj]
    return obj


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) if not isinstance(cell, str) else cell for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_json(obj))


def dumps_json(obj) -> str:
    return json.dumps(round_floats(obj), sort_keys=True, indent=2) + "\n"


def fit_to_dict(fit) -> dict | None:
    if fit is None:
        return None
    return {
        "log_rho": fit.log_rho,
        "rho_hat": fit.rho_hat,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "points_used": fit.points_used,
    }


def decay_to_rows(est) -> list:
    """Base CSV rows (n, p_hat, ci_lo, ci_hi, reps) for a decay estimate."""
    return [
        [n, p, lo, hi, est.reps]
        for n, p, lo, hi in zip(est.grid, est.p_hat, est.ci_lo, est.ci_hi)
    ]
