#!/usr/bin/env python3
"""freewalk benchmark.

    python3 perfbench/run.py --workload real-mc|real-long|exact \\
        [--seed N] [--seconds S] [--trace 0|1] [--write-goldens]

Run from the root of a checkout that holds ``src/freewalk``.  The workload's
inputs are generated from ``--seed`` with the standard library only, then:

* ``--trace 0`` times several fresh interpreters that import freewalk and
  load the inputs (``setup_s``, their median), then makes a fixed number of
  passes over the workload's operations, sized so that they take about
  ``--seconds`` (``PASS_SECONDS``, at least three passes).
  ``wall_s`` sums, over every timed unit, its fastest repeat; ``peak_rss_mb``
  is the peak resident memory of this process.
* ``--trace 1`` runs an untraced pass, a pass with every public function of
  every freewalk layer wrapped (``trace.py``), and another untraced pass, and
  reports the per-layer metrics named in ``BENCHMARK.json``.

Every pass is checked (``workloads.py``); outputs must repeat byte for byte
across passes and, at a seed with recorded goldens, match them.  Text lines
give per-operation times and failure shares; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
GOLDENS = BENCH_DIR / "goldens.json"
DEFAULT_SEED = 1
SETUP_PROBES = 7
MIN_PASSES = 3
# Time of one untraced pass of each workload on a slow phase of a shared
# 2-core x86-64 host, seconds.  A run makes round(--seconds / this) passes:
# the pass count, and with it attempted and failed, depends only on the
# workload and --seconds, never on how fast the machine happens to be.
PASS_SECONDS = {"real-mc": 0.6, "real-long": 0.55, "exact": 1.8}


@dataclass
class Pass:
    times: dict  # operation -> time of each unit, seconds
    outcomes: dict  # operation -> workloads.Outcome
    traced: bool

    def total(self) -> float:
        return sum(map(sum, self.times.values()))


def _parse(argv, spec):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-goldens", action="store_true",
                    help="record this run's output digests as the goldens of its workload and seed")
    return ap.parse_args(argv)


def _environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return f"python {platform.python_version()}, numpy {np.__version__}, blas {blas}, nproc {os.cpu_count()}"


def _setup_times(listing: Path) -> list:
    """Wall time of fresh interpreters that import freewalk and load the listed inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT), str(listing)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-300:]}")
    return times


def _run_pass(ops, fw, traced: bool = False) -> Pass:
    """Run and time every unit of every operation once, then check the outputs."""
    gc.collect()
    p = Pass({}, {}, traced)
    clock = time.perf_counter
    for op in ops:
        results, ts = [], []
        for unit in op.units:
            t0 = clock()
            results.append(unit(fw))
            ts.append(clock() - t0)
        p.times[op.name] = ts
        p.outcomes[op.name] = op.check(results)
    return p


def _op_time(passes, name: str) -> float:
    """Sum over the operation's units of each unit's fastest time in the untraced passes.

    Other tenants of the machine only ever add time.  Their bursts are often
    shorter than a pass, so the fastest repeat of each unit discards them;
    a slowdown that lasts the whole run still shows.
    """
    per_unit = zip(*(p.times[name] for p in passes if not p.traced))
    return sum(min(ts) for ts in per_unit)


def _pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def _end_to_end(ops, fw, work: Path, workload: str, seconds: float) -> tuple:
    listing = work / "setup-inputs.json"
    listing.write_text(json.dumps([[kind, str(path)] for op in ops for kind, path in op.input_files()]))
    setup = _setup_times(listing)
    passes = [_run_pass(ops, fw) for _ in range(_pass_count(workload, seconds))]
    values = {
        "wall_s": sum(_op_time(passes, op.name) for op in ops),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return passes, values


def _per_layer(ops, fw) -> tuple:
    from perfbench import trace

    tracer = trace.Tracer()
    passes = [_run_pass(ops, fw)]
    tracer.install()
    try:
        passes.append(_run_pass(ops, fw, traced=True))
    finally:
        tracer.uninstall()
    passes.append(_run_pass(ops, fw))
    untraced_s = min(passes[0].total(), passes[2].total())
    traced_s = passes[1].total()
    print(f"calls digest: {tracer.calls_digest()}")

    m = tracer.metrics()
    if "walks.steps" in m:
        m["walks.steps_per_s"] = m["walks.steps"] / untraced_s
    if "pingpong.certified" in m:
        calls = m["pingpong.pingpong_certificate.calls"]
        m["pingpong.certified_share"] = m["pingpong.certified"] / calls if calls else 0.0
    writes = [m.get(f"report.{f}.total_s") for f in ("write_csv", "write_json")]
    if None not in writes:
        m["report.write_s"] = sum(writes)
    m["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return passes, m


def _verify(passes, key: str, write_goldens: bool) -> list:
    """Problems found: failed checks, outputs that differ between passes or from the goldens."""
    problems = [msg for p in passes for o in p.outcomes.values() for msg in o.problems]
    first = {name: o.digest() for name, o in passes[0].outcomes.items()}
    for name in first:
        if len({p.outcomes[name].digest() for p in passes}) != 1:
            problems.append(f"{name}: output digests differ between passes")
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    if write_goldens:
        goldens[key] = first
        GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    elif key in goldens and goldens[key] != first:
        bad = sorted(n for n in first if goldens[key].get(n) != first[n])
        problems.append(f"output digests differ from the goldens for {key}: {', '.join(bad)}")
    print(f"goldens for {key}: {'checked' if key in goldens else 'none recorded'}")
    return problems


def _report(ops, passes) -> None:
    for op in ops:
        ts = sorted(sum(p.times[op.name]) for p in passes if not p.traced)
        q1, _, q3 = statistics.quantiles(ts, n=4) if len(ts) > 1 else ts * 3
        att = sum(p.outcomes[op.name].attempted for p in passes)
        failed = sum(p.outcomes[op.name].failed for p in passes)
        print(f"  {op.name}_s {_op_time(passes, op.name):.4f} s  (whole pass: median "
              f"{statistics.median(ts):.4f} q1 {q1:.4f} q3 {q3:.4f} n={len(ts)})  "
              f"fail_share {failed / att:.4f} ({failed}/{att})  "
              f"digest {passes[0].outcomes[op.name].digest()[:16]}")
    print("  pass totals: " + " ".join(f"{p.total():.3f}" for p in passes))


def run(args, spec, fw, work: Path) -> dict:
    from perfbench import workloads

    ops = workloads.build(args.workload)
    for op in ops:
        op.prepare(work, args.seed, fw)
    if args.trace:
        passes, values = _per_layer(ops, fw)
        wanted = spec["per_layer"]
    else:
        passes, values = _end_to_end(ops, fw, work, args.workload, args.seconds)
        wanted = spec["end_to_end"]

    print(f"environment: {_environment()}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes")
    problems = _verify(passes, f"{args.workload}/seed={args.seed}", args.write_goldens)
    _report(ops, passes)
    attempted = sum(o.attempted for p in passes for o in p.outcomes.values())
    failed = sum(o.failed for p in passes for o in p.outcomes.values())
    print(f"  fail_share {failed / attempted:.6f} ({failed}/{attempted})")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent:
        print(f"  absent (no such function at this commit): {', '.join(absent)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "freewalk" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} is not a freewalk checkout (no src/freewalk)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, spec)
    # the script's own directory would shadow stdlib modules (trace) with ours
    sys.path[:] = [str(src), str(ROOT)] + [p for p in sys.path if Path(p or ".").resolve() != BENCH_DIR]
    for var in ("FREEWALK_SEED", "FREEWALK_OUT", "FREEWALK_THREADS", "FREEWALK_TRACE"):
        os.environ.pop(var, None)
    import freewalk
    import freewalk.cli  # noqa: F401  (the CLI entry point is freewalk.cli.main)

    if not Path(freewalk.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported freewalk from {freewalk.__file__}, not {src}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, spec, freewalk, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
