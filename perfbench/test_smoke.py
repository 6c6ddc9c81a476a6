"""Smoke test for the benchmark: every workload at toy size, both run kinds.

Not part of the tier-1 suite (pytest collects `tests/` only). Run it with

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Named end-to-end metrics per workload, with their units.
NAMED = {
    "cli_185k": {"simulate_s": "s", "estimate_s": "s", "bite_s": "s"},
    "estimators_185k": {"event_study_s": "s", "sa_s": "s", "cs_s": "s", "impute_s": "s"},
    "race_default": {"race_reps_per_s": "reps/s"},
    "covariates_default": {"cs_cov_s": "s", "impute_cov_s": "s", "sa_cov_s": "s"},
}
EVERY_WORKLOAD = {"error_rate": "failed/attempted"}
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "panel.ingest_panel.s", "panel.ingest_panel.rows", "panel.serialize_panel.s",
    "panel.log_outcome.s", "panel.arrays.s", "panel.drop_covariates.s",
    "panel.balance_report.s",
    "bite.read_csv.s", "bite.read_csv.rows", "bite.wage_gap.s",
    "bite.build_treatment_design.s",
    "designs.build_design.s", "designs.build_staggered_twfe.s",
    "designs.expand_covariates.s", "designs.columns",
    "engine.wls_fit.calls", "engine.wls_fit.self_s", "engine.demean_two_way.s",
    "engine.cluster_vcov.s", "engine.design_cells", "engine.columns_dropped",
    "engine.wls_fit.failed",
    "staggered.sa_event_study.self_s", "staggered.cs_att.self_s",
    "staggered.impute_att.self_s", "staggered.cs_aggregate.s",
    "staggered.bootstrap_draws", "staggered.cs_att.finite_draw_ratio",
    "bacon.bacon_decompose.self_s", "bacon.components",
    "simulate.generate.s", "simulate.generate.rows", "simulate.race.failed_cells",
    "simulate.race.scaling_efficiency",
    "cli.simulate.self_s", "cli.estimate.self_s", "cli.bite.self_s",
    "cli.race.self_s", "cli.bytes_written",
    "trace.overhead_ratio", "trace.unspanned_ratio",
}
# Layers that do work in each workload: their time metrics must be positive.
RUNS_IN = {
    "cli_185k": ("panel.ingest_panel.s", "panel.serialize_panel.s", "bite.read_csv.s",
                 "bacon.bacon_decompose.self_s", "cli.estimate.self_s",
                 "simulate.generate.s", "engine.wls_fit.self_s"),
    "estimators_185k": ("engine.demean_two_way.s", "staggered.sa_event_study.self_s",
                        "staggered.cs_att.self_s", "staggered.impute_att.self_s",
                        "designs.build_design.s"),
    "race_default": ("simulate.generate.s", "engine.wls_fit.self_s", "cli.race.self_s",
                     "simulate.race.scaling_efficiency"),
    "covariates_default": ("designs.expand_covariates.s", "engine.wls_fit.self_s",
                           "staggered.impute_att.self_s"),
}


def run(workload: str, trace: int, out: Path) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((out / f"{workload}-seed3-trace{trace}.json").read_text())
    return result, report


def test_benchmark_json_lists_the_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(NAMED)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"] for m in BENCHMARK["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", list(NAMED))
def test_untraced_run(workload, tmp_path):
    result, report = run(workload, 0, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    named = report["named_metrics"]
    for name, unit in {**NAMED[workload], **EVERY_WORKLOAD}.items():
        assert named[name]["unit"] == unit
    assert named["error_rate"]["value"] == 0
    assert report["environment"]["blas_threads"]
    assert all(n == 1 for n in report["environment"]["blas_threads"].values())


@pytest.mark.parametrize("workload", list(NAMED))
def test_traced_run(workload, tmp_path):
    result, _ = run(workload, 1, tmp_path)
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    for name in RUNS_IN[workload]:
        assert result["metrics"][name]["value"] > 0, name
    assert 0 <= result["metrics"]["trace.unspanned_ratio"]["value"] < 0.05
    spans = (tmp_path / f"{workload}-seed3-trace1-spans.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert first["name"] == "pass" and first["workload"] == workload
