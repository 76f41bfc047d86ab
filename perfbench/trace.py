"""Outside-in tracing: wrap the public functions of each freewalk layer module.

Nothing under ``src/`` knows about the tracer.  ``Tracer.install`` replaces
every public module-level function of each layer with a timing wrapper, in
every freewalk module that binds it (``estimators`` imports
``sample_increment_indices`` under its own name, the package namespace
re-exports ``kak``, and so on).  A layer module or name that no longer
exists is skipped; its metrics are then absent from the report.

Per wrapped function the tracer keeps calls, inclusive time and self time
(inclusive minus the time of wrapped callees).  A few hooks read counts
off arguments or results: walk steps, oracle words, certified tuples,
bytes written, and per-(d, field) decomposition timings.  A counter is
reported only when every function that feeds it was wrapped.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import sys
import time
from pathlib import Path

LAYERS = ("fields", "linalg", "decompositions", "walks", "pingpong", "estimators", "report", "cli")


class Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


def _field_label(field) -> str:
    return "R" if field.is_archimedean else f"Q{field.prime}"


def _written_bytes(args, kwargs, result) -> int:
    return Path(args[0] if args else kwargs["path"]).stat().st_size


def _bucket(key: str, args, kwargs) -> str:
    """Per-(dimension, field) key of a decomposition call, e.g. decompositions.kak.d3.Q2."""
    g, field = args[0], args[1] if len(args) > 1 else kwargs["field"]
    return f"{key}.d{len(g)}.{_field_label(field)}"


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[float] = []
        self._patched: list = []  # (module, attribute, original)
        # wrapped function -> (counter, amount read off the call's arguments and result)
        self._hooks = {
            "walks.sample_increment_indices": ("walks.steps", lambda a, k, r: len(r)),
            "walks.advance": ("walks.steps", lambda a, k, r: 1),
            "pingpong.free_word_oracle": (
                "pingpong.free_word_oracle.words_checked", lambda a, k, r: r.words_checked),
            "pingpong.pingpong_certificate": ("pingpong.certified", lambda a, k, r: int(r.certified)),
            "report.write_csv": ("report.bytes_written", _written_bytes),
            "report.write_json": ("report.bytes_written", _written_bytes),
        }
        self._bucketed = ("decompositions.kak", "decompositions.iwasawa")

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        hook = self._hooks.get(key)
        bucketed = key in self._bucketed
        clock = time.perf_counter
        stats = self.stats
        counters = self.counters
        if hook is not None:
            counter, amount = hook
            counters.setdefault(counter, 0)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                counters[counter] += amount(args, kwargs, result)
            if bucketed:
                b = stats.setdefault(_bucket(key, args, kwargs), Stat())
                b.calls += 1
                b.total += dt
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every public function of every layer module, wherever it is bound."""
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"freewalk.{layer}")
            except ImportError:
                continue
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for base in self._bucketed:
            if base in self.stats:
                for d in (2, 3):
                    for label in ("R", "Q2", "Q3"):
                        self.stats.setdefault(f"{base}.d{d}.{label}", Stat())
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "freewalk" or mod_name.startswith("freewalk.")):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def calls_digest(self) -> str:
        """sha256 of every call count; two traced runs of one workload and seed must agree."""
        doc = sorted((k, s.calls) for k, s in self.stats.items())
        return hashlib.sha256(repr(doc).encode()).hexdigest()

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict:
        """Flat ``<module>.<function>.<stat>`` values for every function that exists.

        A counter is left out unless every function that feeds it exists, so a
        renamed source shows as an absent metric rather than a wrong count.
        """
        out = {
            c: v for c, v in self.counters.items()
            if all(k in self.stats for k, (counter, _) in self._hooks.items() if counter == c)
        }
        for key, s in self.stats.items():
            out[f"{key}.calls"] = s.calls
            out[f"{key}.self_s"] = s.self
            out[f"{key}.us_per_call"] = 1e6 * s.total / s.calls if s.calls else 0.0
            out[f"{key}.total_s"] = s.total
        return out
