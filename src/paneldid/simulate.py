"""Synthetic staggered-adoption panels and an estimator comparison harness.

Regions fall into the groups of one table (`_groups`); a group's cohort, if
any, is the one `bite.assigned_cohort` gives its two waves' flags. Outcomes
follow unit effects plus a common trend plus the group's effect schedule
switched on at adoption, with normal noise on top. All randomness flows
through the Philox counter-based generator; independent streams come from
SeedSequence spawn keys, so replication r and estimator slot s always see
the same draws no matter how many worker threads run the race.

Every replication of a config has the same layout; only the outcome changes.
So the race takes its replications in chunks of a fixed size, stacks each
chunk's outcomes on one panel and runs every estimator once per chunk.

The three presets (`homogeneous_config`, `heterogeneous_config`,
`null_config`) take only a seed and return plain `DgpConfig` values; any other
setting is a `DgpConfig` field, a config file line or a `dataclasses.replace`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ._blas import single_thread
from .bite import (DEFAULT_EARLY_COHORT, DEFAULT_LATE_COHORT, RegionTreatment, SwitcherGroup,
                   TreatmentDesign, assigned_cohort, cohort_pair)
from .designs import DesignKind, DidSpec, build_staggered_twfe
from .engine import Estimate, wls_fit
from .panel import PanelDataset
from .periods import Period
from .staggered import cs_aggregate, cs_att, impute_att, sa_event_study
from .textio import (dump_key_values, field_names, field_values, format_float, read_key_values,
                     to_number, to_numbers, write_records)


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
        return cls(to_numbers(text))

    def __str__(self) -> str:
        return ", ".join(repr(v) for v in self.values)


@dataclass(frozen=True)
class DgpConfig:
    """Data-generating recipe for the groups of `_groups`; an empty group's cohort is unchecked."""

    n_early: int = 60
    n_late: int = 45
    n_never: int = 50
    start: Period = Period(2013, 1)
    n_periods: int = 37
    early_cohort: Period = DEFAULT_EARLY_COHORT
    late_cohort: Period = DEFAULT_LATE_COHORT
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
        for group in _groups(self):
            if group.size and group.cohort and not (self.start < group.cohort <= last):
                raise ValueError(f"{group.name} cohort {group.cohort} must fall inside "
                                 f"({self.start}, {last}]")
        if self.n_early > 0 and self.n_late > 0 and self.late_cohort <= self.early_cohort:
            raise ValueError("late cohort must start after the early cohort")

    @property
    def periods(self) -> list[Period]:
        return [self.start.shift(i) for i in range(self.n_periods)]


def _integer(text: str) -> int:
    return to_number(text, int)


# Field order; an unset seed is left out.
_CONFIG_FIELDS = {
    "n_early": (_integer, str), "n_late": (_integer, str), "n_never": (_integer, str),
    "start": (Period.parse, str), "n_periods": (_integer, str),
    "early_cohort": (Period.parse, str), "late_cohort": (Period.parse, str),
    "unit_fe_mean": (to_number, format_float), "unit_fe_sd": (to_number, format_float),
    "trend": (to_number, format_float),
    "effect_early": (EffectSchedule.parse, str), "effect_late": (EffectSchedule.parse, str),
    "noise_sd": (to_number, format_float),
    "seed": (_integer, lambda seed: None if seed is None else str(seed)),
}


def load_dgp_config(source: IO[str] | str | Path) -> DgpConfig:
    """Parse a flat `key = value` generator config file; '#' starts a comment."""
    return DgpConfig(**read_key_values(source, _CONFIG_FIELDS))


def dump_dgp_config(config: DgpConfig) -> str:
    """`config` as the `key = value` text that `load_dgp_config` reads back."""
    return dump_key_values(config, _CONFIG_FIELDS)


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


class _Group(NamedTuple):
    """One simulated group: its regions' id prefix and count, their two
    waves' high flags, the cohort those assign, and its effect schedule."""

    name: str
    prefix: str
    size: int
    high_first: bool
    high_second: bool
    cohort: Period | None
    effect: EffectSchedule | None


def _groups(config: DgpConfig) -> tuple[_Group, ...]:
    """The simulated groups, in region-id order: early, late and never-treated."""
    def group(name, prefix, size, high_first, high_second, effect):
        cohort = assigned_cohort(high_first, high_second, config.early_cohort, config.late_cohort)
        return _Group(name, prefix, size, high_first, high_second, cohort, effect)

    return (group("early", "E", config.n_early, True, True, config.effect_early),
            group("late", "L", config.n_late, False, True, config.effect_late),
            group("never", "N", config.n_never, False, False, None))


def _truth(config: DgpConfig) -> GroundTruth:
    last_index = config.start.shift(config.n_periods - 1).index
    by_cell: dict[tuple[Period, int], float] = {}
    event_num: dict[int, float] = {}
    event_den: dict[int, float] = {}
    total, count = 0.0, 0.0
    for group in _groups(config):
        if group.size == 0 or group.cohort is None:
            continue
        for event in range(last_index - group.cohort.index + 1):
            value = group.effect.at(event)
            by_cell[(group.cohort, event)] = value
            event_num[event] = event_num.get(event, 0.0) + group.size * value
            event_den[event] = event_den.get(event, 0.0) + group.size
            total += group.size * value
            count += group.size
    overall = total / count if count else 0.0
    by_event = {e: event_num[e] / event_den[e] for e in event_num}
    return GroundTruth(overall=overall, by_cohort_event=by_cell, by_event_time=by_event)


def _make_design(config: DgpConfig) -> TreatmentDesign:
    """Every group's regions; the design's cohort pair is that of the non-empty groups."""
    regions: dict[str, RegionTreatment] = {}
    for group in _groups(config):
        treatment = RegionTreatment(
            gap_first=0.3 if group.high_first else 0.1,
            gap_second=0.3 if group.high_second else 0.1,
            high_first=group.high_first,
            high_second=group.high_second,
            group=SwitcherGroup.from_flags(group.high_first, group.high_second),
            cohort=group.cohort,
            population_weight=1.0,
        )
        regions.update((f"{group.prefix}{i + 1:03d}", treatment) for i in range(group.size))
    early, late = (config.early_cohort if config.n_early else None,
                   config.late_cohort if config.n_late else None)
    return TreatmentDesign(regions, *cohort_pair(early, late))


def _effects(config: DgpConfig, design: TreatmentDesign) -> np.ndarray:
    """The (units, periods) treatment effect, units in sorted order."""
    def effects(group: _Group) -> np.ndarray:
        """Effect in every period for a unit of `group`; 0 without a cohort."""
        return np.asarray([group.effect.at(p.index - group.cohort.index) if group.cohort else 0.0
                           for p in config.periods], dtype=float)

    by_group = {SwitcherGroup.from_flags(group.high_first, group.high_second): effects(group)
                for group in _groups(config)}
    group_of = design.group_map()
    return np.stack([by_group[group_of[unit]] for unit in sorted(design.regions)])


def _outcome(config: DgpConfig, stream: int, effect: np.ndarray) -> np.ndarray:
    """Replication `stream`'s outcome rows, in (unit, period) order."""
    rng = _rng(config.seed, stream)
    alpha = rng.normal(config.unit_fe_mean, config.unit_fe_sd, size=len(effect))
    noise = rng.normal(0.0, config.noise_sd, size=effect.shape)
    y = alpha[:, None] + config.trend * np.arange(effect.shape[1]) + effect + noise
    return y.ravel()


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
    periods = config.periods
    units = sorted(design.regions)
    y = _outcome(config, stream, _effects(config, design))
    data = PanelDataset._from_columns(
        units, np.repeat(np.arange(len(units)), len(periods)),
        periods, np.tile(np.arange(len(periods)), len(units)),
        y, np.ones(y.size),
    )
    return data, design, truth


def _stacked_panel(
    config: DgpConfig, streams: Sequence[int]
) -> tuple[PanelDataset, TreatmentDesign]:
    """One panel holding the outcomes of `streams` as columns, on their shared layout.

    The layout comes from `generate` for the first stream, whose outcome is
    column 0; every further column equals `generate(config, stream=s)`'s
    outcome bit for bit. A single stream gives `generate`'s panel itself.
    """
    data, design, _ = generate(config, stream=streams[0])
    if len(streams) > 1:
        effect = _effects(config, design)
        data = data.with_outcome(np.column_stack(
            [data.arrays.outcome, *(_outcome(config, s, effect) for s in streams[1:])]
        ))
    return data, design


def _single_outcomes(data: PanelDataset) -> list[PanelDataset]:
    """The one-outcome panels of a stacked panel, in column order."""
    y = data.arrays.outcome
    return [data] if y.ndim == 1 else [data.with_outcome(column) for column in y.T]


def _run_twfe(data, design, draws, seed) -> Estimate:
    spec = DidSpec(kind=DesignKind.STAGGERED_TWFE)
    return wls_fit(build_staggered_twfe(data, design, spec)).estimate("post_adoption")


def _run_cs(rule: str):
    def run(data, design, draws, seed) -> Estimate:
        result = cs_att(
            data,
            design.cohort_map(),
            control_rule=rule,
            bootstrap_draws=draws,
            seed=seed,
        )
        return cs_aggregate(result, "overall").values["overall"]

    return run


def _run_sa(data, design, draws, seed) -> Estimate:
    result = sa_event_study(data, design.cohort_map())
    return Estimate(*result.overall(), result.fit.df_inference)


def _run_impute(data, design, draws, seed) -> Estimate:
    result = impute_att(
        data, design.cohort_map(), bootstrap_draws=draws, seed=seed
    )
    return Estimate(result.aggregate, result.se)


# Replications per chunk of the race. Fixed, so that which replications share
# an estimator call, and so every result, does not depend on the thread count.
_CHUNK = 32

# Estimator slots feed the per-replication stream split, so results do not
# depend on which other estimators run alongside. An adapter is
# `run(data, design, draws, seed)` and returns one `Estimate` for all of the
# panel's outcomes. A panel of stacked outcomes comes with seed None; one
# replication's panel comes with that replication's child seed.
ESTIMATORS: dict[str, tuple[int, Callable]] = {
    "twfe": (1, _run_twfe),
    "cs_never": (2, _run_cs("never_treated")),
    "cs_notyet": (3, _run_cs("not_yet_treated")),
    "sa": (4, _run_sa),
    "imputation": (5, _run_impute),
}

# Estimators that resample: with bootstrap draws each replication needs its
# own seed, so they run one replication at a time.
_RESAMPLING = frozenset({"cs_never", "cs_notyet", "imputation"})


def _fields(value: Estimate) -> np.ndarray:
    """(estimate, se, conf_low, conf_high), one row per outcome."""
    return np.stack(np.broadcast_arrays(value.estimate, value.se, *value.conf_int()), axis=-1)


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
        write_records(sink, (*field_names(RaceRow), "truth"),
                      ((*field_values(row), self.truth.overall) for row in self.rows()))

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "replications": self.replications,
            "bootstrap_draws": self.bootstrap_draws,
            "truth": self.truth.to_json_dict(),
            "estimators": {
                row.estimator: {k: v for k, v in asdict(row).items() if k != "estimator"}
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

    Replications are taken in chunks of a fixed size (`_CHUNK`), and worker
    threads map over the chunks. Each chunk builds its panel layout once,
    stacks its replications' outcomes on it, and calls every estimator once.
    With bootstrap draws, the group-time and imputation estimators run one
    replication at a time instead, each on its own child seed. A chunk's
    call that raises `ValueError` or `LinAlgError` is retried the same way,
    so failures are caught per estimator and replication, excluded from the
    summary statistics, and counted; any other exception propagates.

    Results are independent of the estimator order and the thread count:
    each (replication, estimator) pair draws from its own pre-assigned
    stream, the chunks do not depend on `threads`, and replications are
    reduced in index order. The replications run with the bundled OpenBLAS
    on one thread (`_blas.single_thread`), so results do not depend on the
    BLAS thread count either. The last bits of a replication's estimate may
    depend on the chunk it falls in, since a batched fit rounds otherwise
    than a single one. Coverage counts the 95% intervals of each estimator's
    `engine.Estimate`.
    """
    if config.seed is None:
        raise ValueError("config.seed must be set to run a race")
    if replications < 1:
        raise ValueError("need at least one replication")
    if bootstrap_draws < 0:
        raise ValueError("bootstrap_draws must be non-negative")
    if threads < 1:
        raise ValueError(f"need at least one worker thread, got {threads}")
    if not estimators:
        raise ValueError("no estimators to race")
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

    def attempt(run: Callable, data: PanelDataset, design, seed) -> np.ndarray | None:
        """`_fields` of one adapter call; None if the estimator failed."""
        try:
            return _fields(run(data, design, bootstrap_draws, seed))
        except (ValueError, np.linalg.LinAlgError):
            return None

    def one_chunk(reps: range) -> np.ndarray:
        """(replication, estimator, field) for `reps`; nans where an estimator failed."""
        data, design = _stacked_panel(config, reps)
        out = np.full((len(reps), len(ordered), 4), math.nan)
        for i, name in enumerate(ordered):
            slot, run = ESTIMATORS[name]
            alone = bootstrap_draws > 0 and name in _RESAMPLING
            batch = None if alone else attempt(run, data, design, None)
            if batch is not None:
                out[:, i] = batch
            elif alone or len(reps) > 1:  # so each has its own seed and failure
                for j, one in enumerate(_single_outcomes(data)):
                    single = attempt(run, one, design, _child_seed(config.seed, reps[j], slot))
                    if single is not None:
                        out[j, i] = single
        return out

    chunks = [range(lo, min(lo + _CHUNK, replications)) for lo in range(0, replications, _CHUNK)]
    with single_thread():
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(one_chunk, chunks))
        else:
            results = [one_chunk(reps) for reps in chunks]
    table = np.concatenate(results)  # (replication, estimator, field)
    estimates, ses, conf_lows, conf_highs = (
        {name: table[:, i, k].copy() for i, name in enumerate(ordered)} for k in range(4)
    )
    return RaceResult(
        estimators=ordered,
        replications=replications,
        seed=config.seed,
        bootstrap_draws=bootstrap_draws,
        truth=truth,
        estimates=estimates,
        ses=ses,
        conf_lows=conf_lows,
        conf_highs=conf_highs,
    )


def homogeneous_config(seed: int) -> DgpConfig:
    """Constant effect of -0.05 for both cohorts at the default panel size: the defaults."""
    return DgpConfig(seed=seed)


def heterogeneous_config(seed: int) -> DgpConfig:
    """Early-cohort effects that keep growing; the pooled coefficient cannot
    track the treated-cell average here because late adopters get compared
    against the still-trending early cohort."""
    return DgpConfig(effect_early=EffectSchedule(tuple(-0.004 * (e + 1) for e in range(40))),
                     seed=seed)


def null_config(seed: int) -> DgpConfig:
    """Zero effects everywhere, sized for rejection-rate checks: 40 units over 12 quarters."""
    return DgpConfig(
        n_early=12, n_late=12, n_never=16, n_periods=12,
        early_cohort=Period(2013, 4), late_cohort=Period(2015, 1),
        effect_early=EffectSchedule.constant(0.0), effect_late=EffectSchedule.constant(0.0),
        seed=seed,
    )
