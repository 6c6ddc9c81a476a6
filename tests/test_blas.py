"""Outputs do not depend on the BLAS thread count.

OpenBLAS splits large products over threads, and a split product sums in
another order. The command line and the race therefore run with the bundled
OpenBLAS pinned to one thread.
"""

import os
import subprocess
import sys
from pathlib import Path

import paneldid
from paneldid import _blas
from paneldid.cli import main

SRC = Path(paneldid.__file__).resolve().parent.parent


def thread_counts():
    return [get() for get, _ in _blas._thread_controls()]


def test_single_thread_pins_and_restores():
    before = thread_counts()
    with _blas.single_thread():
        assert thread_counts() == [1] * len(before)
    assert thread_counts() == before


def test_single_thread_without_openblas_changes_nothing(monkeypatch):
    monkeypatch.setattr(_blas, "_thread_controls", lambda: ())
    with _blas.single_thread():
        pass


def test_race_output_does_not_depend_on_blas_threads(tmp_path):
    # At two threads the event study's level solve used to move the sa row.
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from paneldid.cli import main; sys.exit(main())",
             "race", "--preset", "heterogeneous", "--seed", "1", "--replications", "12",
             "--draws", "0", "--format", "json", "--out", str(out)],
            env=env, capture_output=True, check=True,
        )
        outputs.append((done.stdout, (out / "race.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_estimate_output_does_not_depend_on_blas_threads(tmp_path):
    assert main(["simulate", "--preset", "heterogeneous", "--seed", "1",
                 "--out", str(tmp_path / "sim")]) == 0
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = event_study\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from paneldid.cli import main; sys.exit(main())",
             "estimate", "--panel", str(tmp_path / "sim" / "panel.csv"),
             "--design", str(tmp_path / "sim" / "design.csv"), "--spec", str(spec),
             "--no-log", "--out", str(out)],
            env=env, capture_output=True, check=True,
        )
        outputs.append((done.stdout, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    assert outputs[0] == outputs[1]
