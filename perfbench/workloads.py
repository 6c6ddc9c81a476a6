"""The benchmark's four workloads: seeded inputs, the calls they time, checks.

Every input is generated here from the workload seed; the program only sees
the generated files and objects. A workload's `setup()` builds its inputs
(the runner repeats it to time set-up), `steps()` lists the calls of one pass
in order, and each step returns an `Outcome` carrying a fingerprint of what
it produced, so the runner can demand bit-identical results across passes.

Why these workloads (each one stresses a different layer):

- cli_185k: the analyst's command line on a 185,000-row panel. Panel write
  and read paths and per-row objects dominate; the engine fits one column.
- estimators_185k: library estimators on a 185,000-row unbalanced, weighted
  panel with no CSV I/O. The engine and the batched bootstraps dominate.
- race_default: the estimator race on many default-size panels. Per-
  replication overhead and small-design engine work dominate; draws are 0
  so bootstrap changes predict no change here. The traced run also races
  with one worker per core.
- covariates_default: covariate-adjusted estimators on one default-size
  panel. Their bootstraps are per-draw Python loops no other workload runs.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from paneldid import bite, cli, designs, engine, panel, simulate, staggered
from paneldid.periods import Period

START = Period(2013, 1)
EARLY = Period(2014, 3)
LATE = Period(2019, 1)
N_PERIODS = 37
PERIODS = [START.shift(j) for j in range(N_PERIODS)]
# The heterogeneous preset's schedules: early effects keep growing.
EFFECT_EARLY = tuple(-0.004 * (e + 1) for e in range(40))
EFFECT_LATE = -0.05
LEVEL_SHIFT = 7.0  # levels outcome is exp(y + LEVEL_SHIFT)
ESTIMATORS = "twfe,cs_never,cs_notyet,sa,imputation"
# Relative tolerance for the decomposition identity; scale-free by design.
RECONSTRUCT_RTOL = 1e-9


@dataclass
class Outcome:
    """What one step did: attempts, failures, a fingerprint, check errors."""

    attempted: int = 1
    failed: int = 0
    fingerprint: str | None = None
    errors: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def child_seed(seed: int, *path: int) -> int:
    state = np.random.SeedSequence(seed, spawn_key=path).generate_state(1, np.uint32)
    return int(state[0])


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dir_fingerprint(out: Path) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + _sha(path).encode())
        size += path.stat().st_size
    return digest.hexdigest(), size


def _values_fingerprint(values: list[float]) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


def _nonfinite(label: str, values: list[float]) -> list[str]:
    bad = sum(1 for v in values if not math.isfinite(v))
    return [f"{label}: {bad} of {len(values)} values are not finite"] if bad else []


def _library_step(label: str, call: Callable[[], list[float]]) -> Outcome:
    """Run one library call; a raise counts as a failure, not an abort."""
    try:
        values = call()
    except Exception as error:  # noqa: BLE001 - counted for error_rate
        return Outcome(failed=1, failures=[f"{label}: {type(error).__name__}: {error}"])
    return Outcome(
        fingerprint=_values_fingerprint(values), errors=_nonfinite(label, values)
    )


def _run_cli(label: str, argv: list[str], out: Path) -> Outcome:
    """Run one command in-process; a non-zero exit counts as a failure."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out)])
    if code != 0:
        return Outcome(failed=1, failures=[f"{label}: exit {code}: {stderr.getvalue().strip()}"])
    fingerprint, size = _dir_fingerprint(out)
    return Outcome(fingerprint=fingerprint, counts={"bytes_written": size})


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as stream:
        return list(csv.DictReader(stream))


# -- synthetic panels -------------------------------------------------------


@dataclass(frozen=True)
class SyntheticPanel:
    """A staggered panel drawn with the heterogeneous preset's recipe."""

    units: list[str]
    cohorts: dict[str, Period | None]
    y: np.ndarray  # (units, PERIODS) on the log scale


def synthetic_panel(rng: np.random.Generator, n_early: int, n_late: int,
                    n_never: int) -> SyntheticPanel:
    groups = (("E", n_early, EARLY), ("L", n_late, LATE), ("N", n_never, None))
    units = [f"{prefix}{i + 1:04d}" for prefix, n, _ in groups for i in range(n)]
    cohorts = {f"{prefix}{i + 1:04d}": c for prefix, n, c in groups for i in range(n)}
    start = np.asarray([math.inf if cohorts[u] is None else cohorts[u].index for u in units])
    event = (START.index + np.arange(N_PERIODS))[None, :] - start[:, None]
    early = np.asarray(EFFECT_EARLY)[np.clip(event, 0, len(EFFECT_EARLY) - 1).astype(int)]
    is_early = (start == EARLY.index)[:, None]
    effect = np.where(event >= 0, np.where(is_early, early, EFFECT_LATE), 0.0)
    alpha = rng.normal(0.0, 0.5, size=len(units))
    noise = rng.normal(0.0, 0.02, size=(len(units), N_PERIODS))
    y = alpha[:, None] + 0.002 * np.arange(N_PERIODS)[None, :] + effect + noise
    return SyntheticPanel(units, cohorts, y)


def write_panel_csv(path: Path, units: list[str], periods: list[Period],
                    outcome: np.ndarray, weight: np.ndarray,
                    keep: np.ndarray | None = None,
                    covariates: dict[str, np.ndarray] | None = None) -> None:
    """Long panel CSV; per-unit `weight` and `covariates`, cells where `keep`."""
    covariates = {k: np.asarray(v, dtype=float).tolist() for k, v in (covariates or {}).items()}
    header = ["unit", "year", "quarter", "outcome", "weight", *covariates]
    lines = [",".join(header)]
    stamps = [f"{p.year},{p.quarter}" for p in periods]
    for i, unit in enumerate(units):
        tail = "".join(f",{values[i]!r}" for values in covariates.values())
        w = repr(float(weight[i]))
        kept = [True] * len(stamps) if keep is None else keep[i].tolist()
        for stamp, y, k in zip(stamps, outcome[i].tolist(), kept):
            if k:
                lines.append(f"{unit},{stamp},{y!r},{w}{tail}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def treatment_design(cohorts: dict[str, Period | None],
                     weights: dict[str, float]) -> bite.TreatmentDesign:
    regions = {}
    for unit, cohort in cohorts.items():
        high_first, high_second = cohort == EARLY, cohort is not None
        regions[unit] = bite.RegionTreatment(
            gap_first=0.3 if high_first else 0.1,
            gap_second=0.3 if high_second else 0.1,
            high_first=high_first,
            high_second=high_second,
            group=bite.SwitcherGroup.from_flags(high_first, high_second),
            cohort=cohort,
            population_weight=weights[unit],
        )
    return bite.TreatmentDesign(regions, early_cohort=EARLY, late_cohort=LATE)


# -- workloads ----------------------------------------------------------------


class Workload:
    """Base: subclasses set `name`, `SIZES`, `setup`, `steps`, `named_metrics`."""

    name = ""
    SIZES: dict[str, dict] = {}

    def __init__(self, seed: int, smoke: bool, work: Path, cores: int) -> None:
        self.seed = seed
        self.size = self.SIZES["smoke" if smoke else "full"]
        self.work = work
        self.cores = cores

    def setup(self) -> None:
        raise NotImplementedError

    def before_pass(self) -> None:
        """Untimed preparation before each pass."""

    def steps(self) -> list[tuple[str, Callable[[], Outcome]]]:
        raise NotImplementedError

    def named_metrics(self, step_s: dict[str, float]) -> list[tuple[str, float, str]]:
        """Workload-specific end-to-end metrics from median step seconds."""
        return [(f"{name}_s", value, "s") for name, value in step_s.items()]

    def trace_extras(self, untraced_pass_s: float,
                     record: Callable[[str, Outcome], None]) -> dict[str, float]:
        """Per-layer metrics measured outside the traced passes."""
        return {}


class Cli185k(Workload):
    """simulate, estimate --bacon and bite through the command line."""

    name = "cli_185k"
    SIZES = {
        "full": {"n_early": 2000, "n_late": 1500, "n_never": 1500,
                 "workers": 400_000, "regions": 400},
        "smoke": {"n_early": 20, "n_late": 15, "n_never": 15,
                  "workers": 4_000, "regions": 40},
    }

    def setup(self) -> None:
        size, work = self.size, self.work
        self.config = work / "dgp.txt"
        self.config.write_text(
            f"n_early = {size['n_early']}\nn_late = {size['n_late']}\n"
            f"n_never = {size['n_never']}\nstart = {START}\nn_periods = {N_PERIODS}\n"
            f"early_cohort = {EARLY}\nlate_cohort = {LATE}\n"
            f"effect_early = {', '.join(repr(v) for v in EFFECT_EARLY)}\n"
            f"effect_late = {EFFECT_LATE!r}\n"
        )
        # The set-up copy of what `simulate` must write, bit for bit.
        config = dataclasses.replace(
            simulate.heterogeneous_config(self.seed),
            n_early=size["n_early"], n_late=size["n_late"], n_never=size["n_never"],
        )
        data, design, _ = simulate.generate(config)
        reference = work / "reference_panel.csv"
        panel.serialize_panel(data, reference)
        self.reference_sha = _sha(reference)

        # A balanced levels-scale copy, so estimate checks positivity and logs.
        obs = data.observations
        units = list(dict.fromkeys(o.unit for o in obs))
        y = np.asarray([o.outcome for o in obs]).reshape(len(units), N_PERIODS)
        self.levels = work / "levels.csv"
        write_panel_csv(self.levels, units, PERIODS, np.exp(y + LEVEL_SHIFT),
                        np.ones(len(units)))
        self.design = work / "design.csv"
        design.write_csv(self.design)
        self.spec = work / "spec.txt"
        self.spec.write_text("kind = staggered_twfe\n")

        rng = np.random.default_rng(child_seed(self.seed, 1))
        regions = [f"R{r + 1:03d}" for r in range(size["regions"])]
        level = rng.normal(np.log(11.0), 0.15, size=len(regions))
        self.waves = []
        for wave, growth in enumerate((0.0, 0.1)):
            region_of = rng.permutation(np.arange(size["workers"]) % len(regions))
            wage = np.exp(level[region_of] + growth + rng.normal(0.0, 0.35, size["workers"]))
            path = work / f"wave{wave + 1}.csv"
            path.write_text(
                "region,hourly_wage\n"
                + "".join(f"{regions[r]},{w:.2f}\n"
                          for r, w in zip(region_of.tolist(), np.maximum(wage, 1.0).tolist())),
                encoding="utf-8",
            )
            self.waves.append(path)
        self.weights = work / "weights.csv"
        self.weights.write_text(
            "region,weight\n" + "".join(
                f"{r},{w!r}\n" for r, w in zip(regions, rng.uniform(0.5, 3.0, len(regions)).tolist())
            )
        )
        self.n_regions = len(regions)

    def before_pass(self) -> None:
        for name in ("simulate", "estimate", "bite"):
            shutil.rmtree(self.work / name, ignore_errors=True)

    def steps(self):
        return [("simulate", self.simulate), ("estimate", self.estimate), ("bite", self.bite)]

    def simulate(self) -> Outcome:
        out = self.work / "simulate"
        outcome = _run_cli("simulate", ["simulate", "--config", str(self.config),
                                        "--seed", str(self.seed)], out)
        if not outcome.failed and _sha(out / "panel.csv") != self.reference_sha:
            outcome.errors.append("simulate: panel.csv differs from the set-up copy")
        return outcome

    def estimate(self) -> Outcome:
        out = self.work / "estimate"
        outcome = _run_cli("estimate", [
            "estimate", "--panel", str(self.levels), "--design", str(self.design),
            "--spec", str(self.spec), "--bacon",
        ], out)
        if outcome.failed:
            return outcome
        coef = {row["term"]: row for row in _read_rows(out / "coefficients.csv")}
        values = [float(row[k]) for row in coef.values() for k in ("estimate", "se")]
        outcome.errors += _nonfinite("estimate: coefficients", values)
        estimate = float(coef["post_adoption"]["estimate"])
        rebuilt = math.fsum(float(r["weight"]) * float(r["estimate"])
                            for r in _read_rows(out / "bacon.csv"))
        if not math.isclose(rebuilt, estimate, rel_tol=RECONSTRUCT_RTOL, abs_tol=0.0):
            outcome.errors.append(
                f"estimate: post_adoption {estimate!r} but bacon.csv reconstructs {rebuilt!r}"
            )
        return outcome

    def bite(self) -> Outcome:
        out = self.work / "bite"
        first, second = self.waves
        outcome = _run_cli("bite", [
            "bite", "--micro", str(first), "--mw", "8.50", "--survey-year", "2014",
            "--micro", str(second), "--mw", "9.35", "--survey-year", "2018",
            "--weights", str(self.weights),
        ], out)
        if outcome.failed:
            return outcome
        for name in ("gap_first.csv", "gap_second.csv"):
            rows = _read_rows(out / name)
            outcome.errors += _nonfinite(f"bite: {name}", [float(r["gap"]) for r in rows])
            if len(rows) != self.n_regions:
                outcome.errors.append(f"bite: {name} has {len(rows)} regions")
        return outcome


class Estimators185k(Workload):
    """Library estimators on a large unbalanced, weighted, logged panel."""

    name = "estimators_185k"
    SIZES = {
        "full": {"n_early": 2000, "n_late": 1500, "n_never": 1500, "draws": 199},
        "smoke": {"n_early": 20, "n_late": 15, "n_never": 15, "draws": 19},
    }
    DROP_SHARE = 0.03

    def setup(self) -> None:
        self.data = None  # release the previous set-up's panel first
        size = self.size
        rng = np.random.default_rng(child_seed(self.seed, 2))
        sp = synthetic_panel(rng, size["n_early"], size["n_late"], size["n_never"])
        weight = rng.uniform(0.5, 3.0, size=len(sp.units))
        keep = rng.random(sp.y.shape) >= self.DROP_SHARE
        path = self.work / "panel_levels.csv"
        write_panel_csv(path, sp.units, PERIODS, np.exp(sp.y + LEVEL_SHIFT), weight, keep)
        self.data = panel.log_outcome(panel.ingest_panel(path))
        self.data.arrays  # noqa: B018 - fill the lazy array view before timing
        self.design = treatment_design(sp.cohorts, dict(zip(sp.units, weight.tolist())))
        self.cohorts = self.design.cohort_map()

    def steps(self):
        return [("event_study", self.event_study), ("sa", self.sa),
                ("cs", self.cs), ("impute", self.impute)]

    def event_study(self) -> Outcome:
        def call():
            spec = designs.DidSpec(kind=designs.DesignKind.EVENT_STUDY)
            fit = engine.wls_fit(designs.build_design(self.data, self.design, spec))
            return [v for c in fit.columns for v in (fit.coefficients[c], fit.se(c))]
        return _library_step("event_study", call)

    def sa(self) -> Outcome:
        return _library_step("sa", lambda: _sa_values(
            staggered.sa_event_study(self.data, self.cohorts)))

    def cs(self) -> Outcome:
        def call():
            result = staggered.cs_att(
                self.data, self.cohorts, "not_yet_treated",
                bootstrap_draws=self.size["draws"], seed=child_seed(self.seed, 3),
            )
            overall = staggered.cs_aggregate(result, "overall").values["overall"]
            return _cs_values(result) + [overall.estimate, overall.se]
        return _library_step("cs", call)

    def impute(self) -> Outcome:
        return _library_step("impute", lambda: _impute_values(staggered.impute_att(
            self.data, self.cohorts, bootstrap_draws=self.size["draws"],
            seed=child_seed(self.seed, 4),
        )))


class RaceDefault(Workload):
    """`paneldid race` with all five estimators.

    Timed passes use one worker: on a small shared machine a race with one
    worker thread per core spreads about three times as widely from pass to
    pass (GIL hand-offs amplify any stall of either core), too widely for a
    steady end-to-end figure. The traced run times one race with a worker
    per core as well, for `simulate.race.scaling_efficiency`.
    """

    name = "race_default"
    SIZES = {"full": {"replications": 12}, "smoke": {"replications": 2}}

    def setup(self) -> None:
        # Warm-up: one replication of every estimator fills lazy imports and
        # caches, so the first timed race does not pay for them.
        config = simulate.heterogeneous_config(child_seed(self.seed, 5))
        simulate.estimator_race(config, ESTIMATORS.split(","), 1, bootstrap_draws=0)

    def before_pass(self) -> None:
        shutil.rmtree(self.work / "race", ignore_errors=True)

    def steps(self):
        return [("race", self.race)]

    def race(self, threads: int = 1) -> Outcome:
        out = self.work / "race"
        reps = self.size["replications"]
        outcome = _run_cli("race", [
            "race", "--preset", "heterogeneous", "--seed", str(self.seed),
            "--estimators", ESTIMATORS, "--replications", str(reps), "--draws", "0",
            "--threads", str(threads),
        ], out)
        outcome.attempted = reps * len(ESTIMATORS.split(","))
        if outcome.failed:
            outcome.failed = outcome.attempted
            return outcome
        rows = _read_rows(out / "race.csv")
        outcome.failed = sum(int(r["n_failed"]) for r in rows)
        outcome.errors += _nonfinite("race: mean_estimate, sd", [
            float(r[k]) for r in rows for k in ("mean_estimate", "sd")
        ])
        return outcome

    def named_metrics(self, step_s):
        return [("race_reps_per_s", self.size["replications"] / step_s["race"], "reps/s")]

    def trace_extras(self, untraced_pass_s, record):
        # Efficiency of the worker pool: reps/s at one worker per core over
        # cores x reps/s at one worker, both untraced. The race with a
        # worker per core must also write the same bytes as the others.
        self.before_pass()
        start = perf_counter()
        record("race", self.race(threads=self.cores))
        pooled_s = perf_counter() - start
        return {"simulate.race.scaling_efficiency": untraced_pass_s / (self.cores * pooled_s)}


class CovariatesDefault(Workload):
    """Covariate-adjusted estimators on one default-size panel."""

    name = "covariates_default"
    SIZES = {
        "full": {"n_early": 60, "n_late": 45, "n_never": 50, "draws": 199},
        "smoke": {"n_early": 12, "n_late": 9, "n_never": 10, "draws": 9},
    }

    def setup(self) -> None:
        size = self.size
        rng = np.random.default_rng(child_seed(self.seed, 6))
        sp = synthetic_panel(rng, size["n_early"], size["n_late"], size["n_never"])
        # Half of every group is east, so the covariate varies among controls.
        east = np.concatenate([
            rng.permutation(np.arange(n) % 2).astype(float)
            for n in (size["n_early"], size["n_late"], size["n_never"])
        ])
        popshare = rng.uniform(0.001, 0.02, size=len(sp.units))
        path = self.work / "panel_covariates.csv"
        write_panel_csv(path, sp.units, PERIODS, sp.y, np.ones(len(sp.units)),
                        covariates={"east": east, "popshare": popshare})
        self.data = panel.ingest_panel(path, require_positive_outcome=False)
        self.data.arrays  # noqa: B018 - fill the lazy array view before timing
        self.cohorts = dict(sp.cohorts)
        self.east_by_time = (designs.CovariateTerm("east", by_time=True),)

    def steps(self):
        return [("cs_cov", self.cs_cov), ("impute_cov", self.impute_cov),
                ("sa_cov", self.sa_cov)]

    def cs_cov(self) -> Outcome:
        return _library_step("cs_cov", lambda: _cs_values(staggered.cs_att(
            self.data, self.cohorts, covariates=["east", "popshare"],
            bootstrap_draws=self.size["draws"], seed=child_seed(self.seed, 7),
        )))

    def impute_cov(self) -> Outcome:
        return _library_step("impute_cov", lambda: _impute_values(staggered.impute_att(
            self.data, self.cohorts, covariates=self.east_by_time,
            bootstrap_draws=self.size["draws"], seed=child_seed(self.seed, 8),
        )))

    def sa_cov(self) -> Outcome:
        return _library_step("sa_cov", lambda: _sa_values(staggered.sa_event_study(
            self.data, self.cohorts, covariates=self.east_by_time)))


def _sa_values(result) -> list[float]:
    values = [v for e in sorted(result.entries)
              for v in (result.entries[e].estimate, result.entries[e].se)]
    return values + list(result.overall())


def _cs_values(result) -> list[float]:
    return [v for cell in result.entries for v in (cell.att, cell.se)]


def _impute_values(result) -> list[float]:
    return [result.aggregate, result.se]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Cli185k, Estimators185k, RaceDefault, CovariatesDefault)
}
