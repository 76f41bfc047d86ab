"""Deterministic output emission: fixed-precision CSV and JSON sidecars."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .errors import ConfigError

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


def _write(path, text: str) -> None:
    """Write a result file, creating its directory; an unwritable path raises ConfigError."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) if not isinstance(cell, str) else cell for cell in row) for row in rows)
    _write(path, "\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    _write(path, dumps_json(obj))


def dumps_json(obj) -> str:
    return json.dumps(round_floats(obj), sort_keys=True, indent=2) + "\n"


def fit_to_dict(fit) -> dict | None:
    return None if fit is None else {**asdict(fit), "rho_hat": fit.rho_hat}


def decay_to_rows(est) -> list:
    """Base CSV rows (n, p_hat, ci_lo, ci_hi, reps) for a decay estimate."""
    return [
        [n, p, lo, hi, est.reps]
        for n, p, lo, hi in zip(est.grid, est.p_hat, est.ci_lo, est.ci_hi)
    ]
