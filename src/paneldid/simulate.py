"""Synthetic staggered-adoption panels and an estimator comparison harness.

Outcomes follow unit effects plus a common trend plus cohort-specific effect
schedules switched on at adoption, with normal noise on top. All randomness
flows through the Philox counter-based generator; independent streams come
from SeedSequence spawn keys, so replication r and estimator slot s always
see the same draws no matter how many worker threads run the race.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Mapping, Sequence

import numpy as np
from scipy import stats

from . import textio
from .bite import RegionTreatment, SwitcherGroup, TreatmentDesign
from .designs import DesignKind, DidSpec, build_staggered_twfe
from .engine import wls_fit
from .panel import PanelDataset
from .periods import Period
from .staggered import cs_aggregate, cs_att, impute_att, sa_event_study
from .textio import format_float, read_key_values

_Z95 = float(stats.norm.ppf(0.975))


def _rng(seed: int, *path: int) -> np.random.Generator:
    sequence = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(sequence))


def _child_seed(seed: int, *path: int) -> int:
    sequence = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return int(sequence.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class EffectSchedule:
    """Treatment effect by event time; the last listed value persists."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("an effect schedule needs at least one value")

    def at(self, event: int) -> float:
        if event < 0:
            return 0.0
        return self.values[min(event, len(self.values) - 1)]

    @classmethod
    def constant(cls, value: float) -> EffectSchedule:
        return cls((float(value),))

    @classmethod
    def parse(cls, text: str) -> EffectSchedule:
        values = tuple(float(tok.strip()) for tok in text.split(",") if tok.strip())
        return cls(values)

    def __str__(self) -> str:
        return ", ".join(repr(v) for v in self.values)


@dataclass(frozen=True)
class DgpConfig:
    """Data-generating recipe for a three-group staggered panel."""

    n_early: int = 60
    n_late: int = 45
    n_never: int = 50
    start: Period = Period(2013, 1)
    n_periods: int = 37
    early_cohort: Period = Period(2014, 3)
    late_cohort: Period = Period(2019, 1)
    unit_fe_mean: float = 0.0
    unit_fe_sd: float = 0.5
    trend: float = 0.002
    effect_early: EffectSchedule = EffectSchedule.constant(-0.05)
    effect_late: EffectSchedule = EffectSchedule.constant(-0.05)
    noise_sd: float = 0.02
    seed: int | None = None

    def __post_init__(self) -> None:
        if min(self.n_early, self.n_late, self.n_never) < 0:
            raise ValueError("group sizes must be non-negative")
        if self.n_early + self.n_late + self.n_never < 2:
            raise ValueError("the panel needs at least two units")
        if self.n_periods < 2:
            raise ValueError("the panel needs at least two periods")
        if self.noise_sd < 0 or self.unit_fe_sd < 0:
            raise ValueError("standard deviations must be non-negative")
        last = self.start.shift(self.n_periods - 1)
        if self.n_early > 0 and not (self.start < self.early_cohort <= last):
            raise ValueError(
                f"early cohort {self.early_cohort} must fall inside "
                f"({self.start}, {last}]"
            )
        if self.n_late > 0 and not (self.start < self.late_cohort <= last):
            raise ValueError(
                f"late cohort {self.late_cohort} must fall inside "
                f"({self.start}, {last}]"
            )
        if self.n_early > 0 and self.n_late > 0 and self.late_cohort <= self.early_cohort:
            raise ValueError("late cohort must start after the early cohort")

    @property
    def periods(self) -> list[Period]:
        return [self.start.shift(i) for i in range(self.n_periods)]


_CONFIG_KEYS = (
    "n_early", "n_late", "n_never", "start", "n_periods", "early_cohort",
    "late_cohort", "unit_fe_mean", "unit_fe_sd", "trend", "effect_early",
    "effect_late", "noise_sd", "seed",
)


def load_dgp_config(source: IO[str] | str | Path) -> DgpConfig:
    """Parse a flat `key = value` generator config file."""
    raw = read_key_values(source, _CONFIG_KEYS)
    kwargs: dict = {}
    for key in ("n_early", "n_late", "n_never", "n_periods", "seed"):
        if key in raw:
            kwargs[key] = int(raw[key])
    for key in ("unit_fe_mean", "unit_fe_sd", "trend", "noise_sd"):
        if key in raw:
            kwargs[key] = float(raw[key])
    for key in ("start", "early_cohort", "late_cohort"):
        if key in raw:
            kwargs[key] = Period.parse(raw[key])
    for key in ("effect_early", "effect_late"):
        if key in raw:
            kwargs[key] = EffectSchedule.parse(raw[key])
    return DgpConfig(**kwargs)


def dump_dgp_config(config: DgpConfig) -> str:
    lines = [
        f"n_early = {config.n_early}",
        f"n_late = {config.n_late}",
        f"n_never = {config.n_never}",
        f"start = {config.start}",
        f"n_periods = {config.n_periods}",
        f"early_cohort = {config.early_cohort}",
        f"late_cohort = {config.late_cohort}",
        f"unit_fe_mean = {format_float(config.unit_fe_mean)}",
        f"unit_fe_sd = {format_float(config.unit_fe_sd)}",
        f"trend = {format_float(config.trend)}",
        f"effect_early = {config.effect_early}",
        f"effect_late = {config.effect_late}",
        f"noise_sd = {format_float(config.noise_sd)}",
    ]
    if config.seed is not None:
        lines.append(f"seed = {config.seed}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GroundTruth:
    """Injected effects: per cohort-event cell, per event time, and overall."""

    overall: float
    by_cohort_event: Mapping[tuple[Period, int], float]
    by_event_time: Mapping[int, float]

    def to_json_dict(self) -> dict:
        return {
            "overall": self.overall,
            "by_event_time": {str(e): v for e, v in sorted(self.by_event_time.items())},
            "by_cohort_event": {
                f"{cohort}|{event}": value
                for (cohort, event), value in sorted(
                    self.by_cohort_event.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
                )
            },
        }


def _truth(config: DgpConfig) -> GroundTruth:
    last_index = config.start.shift(config.n_periods - 1).index
    groups = (
        (config.early_cohort, config.effect_early, config.n_early),
        (config.late_cohort, config.effect_late, config.n_late),
    )
    by_cell: dict[tuple[Period, int], float] = {}
    event_num: dict[int, float] = {}
    event_den: dict[int, float] = {}
    total, count = 0.0, 0.0
    for cohort, schedule, n_units in groups:
        if n_units == 0:
            continue
        for event in range(last_index - cohort.index + 1):
            value = schedule.at(event)
            by_cell[(cohort, event)] = value
            event_num[event] = event_num.get(event, 0.0) + n_units * value
            event_den[event] = event_den.get(event, 0.0) + n_units
            total += n_units * value
            count += n_units
    overall = total / count if count else 0.0
    by_event = {e: event_num[e] / event_den[e] for e in event_num}
    return GroundTruth(overall=overall, by_cohort_event=by_cell, by_event_time=by_event)


def _make_design(config: DgpConfig) -> TreatmentDesign:
    regions: dict[str, RegionTreatment] = {}

    def add(prefix: str, count: int, high_first: bool, high_second: bool) -> None:
        cohort = (
            config.early_cohort
            if high_first
            else config.late_cohort if high_second else None
        )
        for i in range(count):
            regions[f"{prefix}{i + 1:03d}"] = RegionTreatment(
                gap_first=0.3 if high_first else 0.1,
                gap_second=0.3 if high_second else 0.1,
                high_first=high_first,
                high_second=high_second,
                group=SwitcherGroup.from_flags(high_first, high_second),
                cohort=cohort,
                population_weight=1.0,
            )

    add("E", config.n_early, True, True)
    add("L", config.n_late, False, True)
    add("N", config.n_never, False, False)
    return TreatmentDesign(
        regions, early_cohort=config.early_cohort, late_cohort=config.late_cohort
    )


def generate(
    config: DgpConfig, *, stream: int = 0
) -> tuple[PanelDataset, TreatmentDesign, GroundTruth]:
    """Draw one panel. Equal seeds and streams reproduce it bit for bit.

    The outcome is built on the regression scale (effects are additive), so
    feed it to the estimators directly rather than log-transforming again.
    """
    if config.seed is None:
        raise ValueError("config.seed must be set to generate data")
    design = _make_design(config)
    truth = _truth(config)
    rng = _rng(config.seed, stream)
    periods = config.periods
    units = sorted(design.regions)
    cohort_of = design.cohort_map()
    alpha = rng.normal(config.unit_fe_mean, config.unit_fe_sd, size=len(units))
    noise = rng.normal(0.0, config.noise_sd, size=(len(units), len(periods)))
    period_index = np.asarray([p.index for p in periods])

    def effects(cohort: Period | None) -> np.ndarray:
        """Effect in every period for a unit adopting at `cohort`."""
        if cohort is None:
            return np.zeros(len(periods))
        schedule = (
            config.effect_early if cohort == config.early_cohort else config.effect_late
        )
        event = period_index - cohort.index
        values = np.asarray(schedule.values, dtype=float)
        return np.where(event >= 0, values[np.clip(event, 0, len(values) - 1)], 0.0)

    by_cohort = {cohort: effects(cohort) for cohort in set(cohort_of.values())}
    effect = np.stack([by_cohort[cohort_of[unit]] for unit in units])
    y = alpha[:, None] + config.trend * np.arange(len(periods)) + effect + noise
    data = PanelDataset._from_columns(
        units, np.repeat(np.arange(len(units)), len(periods)),
        periods, np.tile(np.arange(len(periods)), len(units)),
        y.ravel(), np.ones(y.size),
    )
    return data, design, truth


@dataclass(frozen=True)
class EstimateRecord:
    estimate: float
    se: float
    conf_low: float
    conf_high: float


def _run_twfe(data, design, draws, seed) -> EstimateRecord:
    spec = DidSpec(kind=DesignKind.STAGGERED_TWFE)
    fit = wls_fit(build_staggered_twfe(data, design, spec))
    name = "post_adoption"
    low, high = fit.conf_int(name)
    return EstimateRecord(fit.coefficients[name], fit.se(name), low, high)


def _run_cs(rule: str):
    def run(data, design, draws, seed) -> EstimateRecord:
        result = cs_att(
            data,
            design.cohort_map(),
            control_rule=rule,
            bootstrap_draws=draws,
            seed=seed,
        )
        overall = cs_aggregate(result, "overall").values["overall"]
        low, high = overall.conf_int()
        return EstimateRecord(overall.estimate, overall.se, low, high)

    return run


def _run_sa(data, design, draws, seed) -> EstimateRecord:
    result = sa_event_study(data, design.cohort_map())
    estimate, se = result.overall()
    crit = float(stats.t.ppf(0.975, result.fit.df_inference))
    return EstimateRecord(estimate, se, estimate - crit * se, estimate + crit * se)


def _run_impute(data, design, draws, seed) -> EstimateRecord:
    result = impute_att(
        data, design.cohort_map(), bootstrap_draws=draws, seed=seed
    )
    low, high = result.conf_int()
    return EstimateRecord(result.aggregate, result.se, low, high)


# Estimator slots feed the per-replication stream split, so results do not
# depend on which other estimators run alongside.
ESTIMATORS: dict[str, tuple[int, Callable]] = {
    "twfe": (1, _run_twfe),
    "cs_never": (2, _run_cs("never_treated")),
    "cs_notyet": (3, _run_cs("not_yet_treated")),
    "sa": (4, _run_sa),
    "imputation": (5, _run_impute),
}


@dataclass(frozen=True)
class RaceRow:
    estimator: str
    n_reps: int
    n_failed: int
    mean_estimate: float
    bias: float
    sd: float
    coverage: float


@dataclass(frozen=True)
class RaceResult:
    """Per-replication estimates and the summary table built from them."""

    estimators: tuple[str, ...]
    replications: int
    seed: int
    bootstrap_draws: int
    truth: GroundTruth
    estimates: Mapping[str, np.ndarray]
    ses: Mapping[str, np.ndarray]
    conf_lows: Mapping[str, np.ndarray]
    conf_highs: Mapping[str, np.ndarray]

    def rows(self) -> list[RaceRow]:
        out = []
        for name in self.estimators:
            est = self.estimates[name]
            valid = np.isfinite(est)
            n_ok = int(valid.sum())
            mean = float(est[valid].mean()) if n_ok else math.nan
            sd = float(est[valid].std(ddof=1)) if n_ok > 1 else math.nan
            low, high = self.conf_lows[name], self.conf_highs[name]
            cover_ok = valid & np.isfinite(low) & np.isfinite(high)
            coverage = (
                float(
                    np.mean(
                        (low[cover_ok] <= self.truth.overall)
                        & (self.truth.overall <= high[cover_ok])
                    )
                )
                if cover_ok.any()
                else math.nan
            )
            out.append(
                RaceRow(
                    estimator=name,
                    n_reps=len(est),
                    n_failed=int(len(est) - n_ok),
                    mean_estimate=mean,
                    bias=mean - self.truth.overall if n_ok else math.nan,
                    sd=sd,
                    coverage=coverage,
                )
            )
        return out

    def write_csv(self, sink: IO[str] | str | Path) -> None:
        textio.write_csv(
            sink,
            ["estimator", "n_reps", "n_failed", "mean_estimate", "bias", "sd",
             "coverage", "truth"],
            (
                [
                    row.estimator, str(row.n_reps), str(row.n_failed),
                    format_float(row.mean_estimate), format_float(row.bias), format_float(row.sd),
                    format_float(row.coverage), format_float(self.truth.overall),
                ]
                for row in self.rows()
            ),
        )

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "replications": self.replications,
            "bootstrap_draws": self.bootstrap_draws,
            "truth": self.truth.to_json_dict(),
            "estimators": {
                row.estimator: {
                    "n_reps": row.n_reps,
                    "n_failed": row.n_failed,
                    "mean_estimate": row.mean_estimate,
                    "bias": row.bias,
                    "sd": row.sd,
                    "coverage": row.coverage,
                }
                for row in self.rows()
            },
        }


def estimator_race(
    config: DgpConfig,
    estimators: Sequence[str],
    replications: int,
    *,
    bootstrap_draws: int = 199,
    threads: int = 1,
) -> RaceResult:
    """Run every named estimator on `replications` fresh panels.

    Failures are caught per estimator and replication, excluded from the
    summary statistics, and counted. Results are independent of the estimator
    order and the thread count: each (replication, estimator) pair draws from
    its own pre-assigned stream, and replications are reduced in index order.
    """
    if config.seed is None:
        raise ValueError("config.seed must be set to run a race")
    if replications < 1:
        raise ValueError("need at least one replication")
    unknown = [name for name in estimators if name not in ESTIMATORS]
    if unknown:
        raise ValueError(
            f"unknown estimator(s) {unknown}; valid names: {sorted(ESTIMATORS)}"
        )
    if len(set(estimators)) != len(estimators):
        raise ValueError("estimator names must be unique")
    # Canonical order keeps the output identical however the list was given.
    ordered = tuple(sorted(estimators, key=lambda n: ESTIMATORS[n][0]))
    truth = _truth(config)

    def one_rep(rep: int) -> dict[str, EstimateRecord | None]:
        data, design, _ = generate(config, stream=rep)
        out: dict[str, EstimateRecord | None] = {}
        for name in ordered:
            slot, run = ESTIMATORS[name]
            try:
                out[name] = run(
                    data, design, bootstrap_draws, _child_seed(config.seed, rep, slot)
                )
            except (ValueError, np.linalg.LinAlgError):
                out[name] = None
        return out

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_rep, range(replications)))
    else:
        results = [one_rep(rep) for rep in range(replications)]

    def collect(attr: str) -> dict[str, np.ndarray]:
        return {
            name: np.asarray(
                [
                    getattr(results[rep][name], attr) if results[rep][name] else math.nan
                    for rep in range(replications)
                ]
            )
            for name in ordered
        }

    return RaceResult(
        estimators=ordered,
        replications=replications,
        seed=config.seed,
        bootstrap_draws=bootstrap_draws,
        truth=truth,
        estimates=collect("estimate"),
        ses=collect("se"),
        conf_lows=collect("conf_low"),
        conf_highs=collect("conf_high"),
    )


def homogeneous_config(seed: int, *, noise_sd: float = 0.02) -> DgpConfig:
    """Constant effect of -0.05 for both cohorts at the default panel size."""
    return DgpConfig(
        effect_early=EffectSchedule.constant(-0.05),
        effect_late=EffectSchedule.constant(-0.05),
        noise_sd=noise_sd,
        seed=seed,
    )


def heterogeneous_config(seed: int, *, noise_sd: float = 0.02) -> DgpConfig:
    """Early-cohort effects that keep growing; the pooled coefficient cannot
    track the treated-cell average here because late adopters get compared
    against the still-trending early cohort."""
    growing = EffectSchedule(tuple(-0.004 * (e + 1) for e in range(40)))
    return DgpConfig(
        effect_early=growing,
        effect_late=EffectSchedule.constant(-0.05),
        noise_sd=noise_sd,
        seed=seed,
    )


def null_config(
    seed: int,
    *,
    n_early: int = 12,
    n_late: int = 12,
    n_never: int = 16,
    n_periods: int = 12,
    noise_sd: float = 0.02,
) -> DgpConfig:
    """Zero effects everywhere, sized for rejection-rate checks."""
    return DgpConfig(
        n_early=n_early,
        n_late=n_late,
        n_never=n_never,
        n_periods=n_periods,
        early_cohort=Period(2013, 1).shift(max(2, n_periods // 4)),
        late_cohort=Period(2013, 1).shift(max(3, (2 * n_periods) // 3)),
        effect_early=EffectSchedule.constant(0.0),
        effect_late=EffectSchedule.constant(0.0),
        noise_sd=noise_sd,
        seed=seed,
    )
