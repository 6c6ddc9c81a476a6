"""Runs one workload: set-up, passes, checks, metrics and the report."""

from __future__ import annotations

import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import spans
from workloads import WORKLOADS, Outcome, Workload

# Set-up repeats at least SETUP_MIN_REPEATS times and until SETUP_SECONDS have
# passed, so cheap set-ups get enough samples for a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_SECONDS = 1.0
# (name, unit) of the end-to-end metrics every workload reports.
END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def environment() -> dict:
    cores = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS would use, read from the library itself."""
    found = {}
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "lib*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    found[package.__name__] = int(getter())
                    break
    return found


class Tally:
    """Attempts, failures, check errors and fingerprints across passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.fingerprints: dict[str, str] = {}

    def add(self, step: str, outcome: Outcome, pass_index: int) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.failures += [f"pass {pass_index}: {m}" for m in outcome.failures]
        self.errors += [f"pass {pass_index}: {m}" for m in outcome.errors]
        if outcome.fingerprint is None:
            return
        first = self.fingerprints.setdefault(step, outcome.fingerprint)
        if first != outcome.fingerprint:
            self.errors.append(f"pass {pass_index}: {step}: output differs from the first pass")


def run_pass(workload: Workload, tally: Tally, index: int,
             tracer: spans.Tracer | None = None) -> tuple[float, dict[str, float]]:
    """One pass: every step in order. Returns wall seconds and per-step seconds."""
    workload.before_pass()
    gc.collect()
    step_s = {}
    if tracer is not None:
        tracer.pass_index = index
        tracer.install()
        root = tracer.open("pass")
    start = time.perf_counter()
    for name, step in workload.steps():
        t0 = time.perf_counter()
        if tracer is not None:
            span = tracer.open(f"step.{name}")
        outcome = step()
        if tracer is not None:
            tracer.close(span, failed=bool(outcome.failed), counts=outcome.counts)
        step_s[name] = time.perf_counter() - t0
        tally.add(name, outcome, index)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
    return wall, step_s


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "values": values}


def run(args, root: Path) -> int:
    env = environment()
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, work, env["cores"])
        return _measure(args, workload, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _time_setup(workload: Workload, once: bool) -> list[float]:
    times = []
    while True:
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
        if once or len(times) == SETUP_MAX_REPEATS:
            return times
        if len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_SECONDS:
            return times


def _measure(args, workload: Workload, env: dict) -> int:
    tally = Tally()
    setup_s = _time_setup(workload, once=bool(args.trace))

    tracer = spans.Tracer(workload.name) if args.trace else None
    passes, traced, steps = [], [], {}
    start = time.perf_counter()
    index = 0
    while True:
        wall, step_s = run_pass(workload, tally, index)
        passes.append(wall)
        for name, s in step_s.items():
            steps.setdefault(name, []).append(s)
        index += 1
        cycle = wall
        if tracer is not None:
            wall, _ = run_pass(workload, tally, index, tracer)
            traced.append(wall)
            index += 1
            cycle += wall
        if time.perf_counter() - start + cycle > args.seconds:
            break

    if tracer is None:
        measured = {
            "pass_s": statistics.median(passes),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = _layer_metrics(tracer, passes, traced)
        extras = workload.trace_extras(
            statistics.median(passes), lambda step, outcome: tally.add(step, outcome, index))
        for name, value in extras.items():
            metrics[name]["value"] = value

    step_median = {name: statistics.median(v) for name, v in steps.items()}
    named = [("error_rate", tally.failed / tally.attempted, "failed/attempted")]
    named += workload.named_metrics(step_median)
    report = {
        "workload": workload.name, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "size": workload.size, "environment": env,
        "passes": _summary(passes), "setup_s": _summary(setup_s),
        "steps": {name: _summary(v) for name, v in steps.items()},
        "named_metrics": {n: {"value": v, "unit": u} for n, v, u in named},
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures, "check_errors": tally.errors,
    }
    if traced:
        report["traced_passes"] = _summary(traced)
    report["metrics"] = metrics
    args.out.mkdir(parents=True, exist_ok=True)
    stem = args.out / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(Path(f"{stem}-spans.jsonl"))

    _print_report(report, named)
    correct = not tally.errors
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def _layer_metrics(tracer: spans.Tracer, passes: list[float], traced: list[float]) -> dict:
    """Per-layer metrics: medians over the traced passes of each pass's value."""
    per_pass: dict[int, list[spans.Span]] = {}
    for span in tracer.spans:
        per_pass.setdefault(span.pass_index, []).append(span)
    layer = [spans.layer_metrics(s) for s in per_pass.values()]
    metrics = {name: {"value": statistics.median(m[name] for m in layer), "unit": unit}
               for name, unit, _ in spans.LAYER_METRICS}
    for name, unit in spans.RUN_METRICS:
        metrics[name] = {"value": 0.0, "unit": unit}
    metrics["trace.overhead_ratio"]["value"] = statistics.median(traced) / statistics.median(passes)
    return metrics


def _print_report(report: dict, named) -> None:
    env = report["environment"]
    print(f"workload {report['workload']} seed {report['seed']}"
          f"{' (smoke)' if report['smoke'] else ''}: {report['passes']['n']} passes, "
          f"set-up x{report['setup_s']['n']}")
    print("environment " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, value, unit in named:
        print(f"  {name:<24} {value:.6g} {unit}")
    for name, s in report["steps"].items():
        print(f"  step {name:<19} median {s['median']:.4f} s  min {s['min']:.4f}  "
              f"max {s['max']:.4f}  n {s['n']}")
    for message in report["failures"]:
        print(f"failure: {message}")
    for message in report["check_errors"]:
        print(f"CHECK FAILED: {message}")
    sys.stdout.flush()
