"""paneldid benchmark: one seeded workload per run, checked and timed.

    python3 perfbench/run.py --workload cli_185k --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports paneldid from the
checkout's `src/` and exits non-zero without a result if that is missing.

A run sets the workload up at least three times and for at least a second
(the median is `setup_s`), then runs closed-loop passes, each call starting
when the previous one returned, until `--seconds` would be exceeded (at
least one pass). A pass is the workload's fixed sequence of calls. With `--trace 0` the last stdout line
reports the end-to-end metrics, measured untraced. With `--trace 1` the run
alternates untraced and traced passes and reports the per-layer metrics from
the traced ones, plus the tracing overhead. Lines before the last one give
the workload's named metrics, the environment and any failures; the same,
and with `--trace 1` every span, go to `--out` (default `.perfbench_out/`).

Every pass is checked: outputs must be bit-identical across passes, every
reported estimate and standard error finite, and workload-specific identities
must hold (see workloads.py). A failed check prints `"correct": false` and
exits 1. Calls that fail (non-zero exit, a raise, a failed race cell) are
counted in `failed`, not fatal.

Seeds: develop against seed 1 and confirm a claimed gain on the hold-out
seed 20261017 as well, which no change should be tuned on.

`--smoke` runs every workload at toy size; test_smoke.py checks it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_185k", "estimators_185k", "race_default", "covariates_default")


def pin_blas_threads() -> None:
    """One BLAS thread per process, so the race's workers are the only parallelism."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "paneldid" / "__init__.py").is_file():
        sys.exit(f"perfbench: no paneldid sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import paneldid

    if Path(paneldid.__file__).resolve().parent != (src / "paneldid").resolve():
        sys.exit(f"perfbench: imported paneldid from {paneldid.__file__}, not {src}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out",
                        help="directory for the report and spans")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory belongs to it."""
    results, code = {}, 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(args.out), *(["--smoke"] if args.smoke else [])]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1]) if lines else None
        code = code or done.returncode
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    pin_blas_threads()
    import_program()
    from harness import run

    return run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
