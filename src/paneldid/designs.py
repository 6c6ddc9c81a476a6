"""Design-matrix builders for the regional exposure regressions.

Every builder turns a panel plus a treatment design into a DesignMatrix for
the engine: indicator treatment columns first, then any planned covariate
columns. Fixed effects are never built here; the engine absorbs them.

Every block is one rule, `_block`: a value per row times its period's flags
in each window of `_windows` (post and pre cutoff) or, in `by_period`, in each
period. The default cutoff is the quarter before `bite`'s early cohort.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .bite import DEFAULT_EARLY_COHORT, SwitcherGroup, TreatmentDesign
from .engine import DesignMatrix
from .panel import PanelDataset, cohort_start, unit_values
from .periods import Period
from .textio import dump_key_values, read_key_values, to_numbers

DEFAULT_CUTOFF = DEFAULT_EARLY_COHORT.prev()
FULL_INCREASE_YEARS = (2016, 2018, 2019, 2020, 2021)
SHORT_INCREASE_YEARS = (2016, 2018)
_WINDOW_NAMES = ("post", "pre")  # the cutoff windows of `_windows`, in column order


class DesignKind(enum.Enum):
    BASELINE = "baseline"
    EVENT_STUDY = "event_study"
    GROWTH_INTERACTION = "growth_interaction"
    INCREASES = "increases"
    MULTI_GROUP = "multi_group"
    STAGGERED_TWFE = "staggered_twfe"


@dataclass(frozen=True)
class CovariateTerm:
    """One planned covariate block.

    `characteristic` names a per-region constant carried by the panel. With
    `by_time` the block expands into one column per period (the first period
    omitted); `by_flag` further multiplies by a second region constant.
    """

    characteristic: str
    by_time: bool = True
    by_flag: str | None = None

    def __str__(self) -> str:
        parts = [self.characteristic]
        if self.by_time:
            parts.append("time")
        if self.by_flag:
            parts.append(self.by_flag)
        return "*".join(parts)

    @classmethod
    def parse(cls, text: str) -> CovariateTerm:
        tokens = [t.strip() for t in text.split("*") if t.strip()]
        if not tokens:
            raise ValueError(f"empty covariate term in {text!r}")
        characteristic, by_time, by_flag = tokens[0], False, None
        for tok in tokens[1:]:
            if tok == "time":
                by_time = True
            elif by_flag is None:
                by_flag = tok
            else:
                raise ValueError(f"covariate term {text!r} names two flags")
        return cls(characteristic, by_time=by_time, by_flag=by_flag)


@dataclass(frozen=True)
class DidSpec:
    """Estimation recipe: which design to build and with what settings."""

    kind: DesignKind
    cutoff: Period = DEFAULT_CUTOFF
    baseline: Period = DEFAULT_CUTOFF
    increase_years: tuple[int, ...] = FULL_INCREASE_YEARS
    placebo: bool = False
    covariates: tuple[CovariateTerm, ...] = ()

    def __post_init__(self) -> None:
        years = tuple(self.increase_years)
        if len(set(years)) != len(years):
            raise ValueError(f"increase years contain duplicates: {years}")
        if any(years[i] >= years[i + 1] for i in range(len(years) - 1)):
            raise ValueError(f"increase years must be strictly increasing: {years}")
        object.__setattr__(self, "increase_years", years)


def _design_kind(text: str) -> DesignKind:
    try:
        return DesignKind(text)
    except ValueError:
        valid = ", ".join(k.value for k in DesignKind)
        raise ValueError(f"unknown design kind {text!r}; valid kinds: {valid}") from None


def _true_or_false(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected 'true' or 'false', got {text!r}")
    return text.lower() == "true"


# Field order; empty covariates are left out.
_SPEC_FIELDS = {
    "kind": (_design_kind, lambda kind: kind.value),
    "cutoff": (Period.parse, str),
    "baseline": (Period.parse, str),
    "increase_years": (lambda text: to_numbers(text, int),
                       lambda years: ", ".join(map(str, years))),
    "placebo": (_true_or_false, lambda flag: "true" if flag else "false"),
    "covariates": (
        lambda text: tuple(CovariateTerm.parse(tok) for tok in text.split(",") if tok.strip()),
        lambda terms: ", ".join(map(str, terms)) or None,
    ),
}


def load_spec(source: IO[str] | str | Path) -> DidSpec:
    """Parse a flat `key = value` spec file.

    Recognized keys: kind, cutoff, baseline, increase_years, placebo,
    covariates. '#' starts a comment. `covariates` is a comma-separated list
    of terms like `east*time` or `popshare*time*east`.
    """
    values = read_key_values(source, _SPEC_FIELDS)
    if "kind" not in values:
        raise ValueError("spec file must set 'kind'")
    return DidSpec(**values)


def dump_spec(spec: DidSpec) -> str:
    """`spec` as the `key = value` text that `load_spec` reads back."""
    return dump_key_values(spec, _SPEC_FIELDS)


def _windows(data: PanelDataset, spec: DidSpec, placebo: bool = False,
             later: Sequence[Period] = ()) -> np.ndarray:
    """(T, W) flags: each period after `spec.cutoff`, then after each `later` cutoff,
    then, for a kind that takes a `placebo` and with `spec.placebo` set, before
    `spec.cutoff`. The cutoff period itself is in no window."""
    t = data.arrays.period_index[:, None]
    flags = t > [spec.cutoff.index, *(c.index for c in later)]
    if placebo and spec.placebo:
        flags = np.column_stack([flags, t[:, 0] < spec.cutoff.index])
    return flags


def _block(data: PanelDataset, values, flags: np.ndarray) -> np.ndarray:
    """Each row's `values`, (n,) or (n, G), times its period's (T, W) `flags`: (n, W*G)
    columns, window by window; an off-window cell keeps the sign of its value."""
    values = np.asarray(values, dtype=float)
    on = flags[data.arrays.period_codes]
    return (values.reshape(len(values), 1, -1) * on[:, :, None]).reshape(len(on), -1)


def _by_row(data: PanelDataset, values: Mapping[str, object], what: str) -> np.ndarray:
    """Each unit's `values` (a number or a row of them) on each of its rows."""
    return np.asarray(unit_values(data, values, what), dtype=float)[data.arrays.unit_codes]


def by_period(
    data: PanelDataset, values: np.ndarray, omit: Period | None
) -> tuple[list[Period], np.ndarray]:
    """The periods of `data` other than `omit`, and `values` (one per row) times the
    indicator of each; off-period cells keep the sign of `values`, so -0.0 where negative."""
    periods = data.arrays.periods
    kept = [j for j, period in enumerate(periods) if period != omit]
    flags = np.arange(len(periods))[:, None] == kept
    return [periods[j] for j in kept], _block(data, values, flags)


def expand_covariates(
    data: PanelDataset,
    plan: Sequence[CovariateTerm],
) -> tuple[list[str], np.ndarray]:
    """Expand planned covariate blocks into design columns.

    Time-interacted blocks emit one column per period except the first, so a
    panel with T periods contributes T-1 columns per block. Characteristics
    and flags must be per-region constants already carried by the panel.
    """
    a = data.arrays
    names: list[str] = []
    cols: list[np.ndarray] = []  # columns and period blocks
    for term in plan:
        char = data.region_constant(term.characteristic)[a.unit_codes]
        if term.by_flag is not None:
            char = char * data.region_constant(term.by_flag)[a.unit_codes]
        if not term.by_time:
            names.append(str(term))
            cols.append(char)
            continue
        periods, block = by_period(data, char, a.periods[0])
        names.extend(f"{term}@{period}" for period in periods)
        cols.append(block)
    matrix = np.column_stack(cols) if cols else np.empty((data.n_obs, 0))
    return names, matrix


def _assemble(
    data: PanelDataset,
    names: Sequence[str],
    cols: Sequence[np.ndarray],
    spec: DidSpec,
) -> DesignMatrix:
    cov_names, cov_matrix = expand_covariates(data, spec.covariates)
    x = np.column_stack([*cols, cov_matrix])
    return DesignMatrix.from_panel(data, [*names, *cov_names], x)


def _high_first(data: PanelDataset, design: TreatmentDesign) -> np.ndarray:
    return _by_row(data, design.high_first_map(), "first-wave exposure flag")


def build_baseline(
    data: PanelDataset,
    design: TreatmentDesign,
    spec: DidSpec,
) -> DesignMatrix:
    """High-exposure x post-cutoff indicator, optional pre-cutoff placebo.

    The cutoff period itself loads on neither column, so anticipation around
    the adoption quarter stays out of both estimates.
    """
    flags = _windows(data, spec, placebo=True)
    names = [f"treated_{window}" for window in _WINDOW_NAMES[:flags.shape[1]]]
    return _assemble(data, names, [_block(data, _high_first(data, design), flags)], spec)


def build_event_study(
    data: PanelDataset,
    design: TreatmentDesign,
    spec: DidSpec,
) -> DesignMatrix:
    """One high-exposure x period indicator per period except the baseline."""
    if spec.baseline not in data.arrays.periods:
        raise ValueError(f"event study baseline {spec.baseline} is not a period of the panel")
    periods, block = by_period(data, _high_first(data, design), spec.baseline)
    if not periods:
        raise ValueError("event study needs at least one non-baseline period")
    return _assemble(data, [f"treated@{period}" for period in periods], [block], spec)


def build_growth_interaction(
    data: PanelDataset,
    design: TreatmentDesign,
    growth_flags: Mapping[str, bool],
    spec: DidSpec,
) -> DesignMatrix:
    """Baseline effect plus its extra shift in low-growth regions.

    Alongside the interaction column, low-growth status enters as a full
    time-interacted covariate block so the level response of slack regions is
    controlled for separately from the exposure response.
    """
    high = _high_first(data, design)
    low = _by_row(data, growth_flags, "low-growth flag")
    periods, block = by_period(data, low, data.arrays.periods[0])
    names = ["treated_post", "treated_post_lowgrowth", *(f"low_growth@{p}" for p in periods)]
    post = _block(data, np.column_stack([high, high * low]), _windows(data, spec))
    return _assemble(data, names, [post, block], spec)


def build_increases(
    data: PanelDataset,
    design: TreatmentDesign,
    spec: DidSpec,
) -> DesignMatrix:
    """Baseline effect plus one step per later statutory raise.

    Each raise year tau adds a high-exposure x (t > Q4 of tau) column named
    for the year the raise takes effect, so the coefficients read as
    incremental shifts after each increase.
    """
    if not spec.increase_years:
        raise ValueError("increases design needs at least one raise year")
    flags = _windows(data, spec, later=[Period(tau, 4) for tau in spec.increase_years])
    names = ["treated_post", *(f"raise_{tau + 1}" for tau in spec.increase_years)]
    return _assemble(data, names, [_block(data, _high_first(data, design), flags)], spec)


def build_multi_group(
    data: PanelDataset,
    design: TreatmentDesign,
    spec: DidSpec,
) -> DesignMatrix:
    """Separate post-cutoff effects for the three exposed switcher groups.

    The never-high group is the omitted category. With `placebo`, matching
    pre-cutoff columns are added for all three groups.
    """
    tracked = [group for group in SwitcherGroup if group is not SwitcherGroup.LOW_LOW]
    member = {unit: [group is g for g in tracked] for unit, group in design.group_map().items()}
    flags = _windows(data, spec, placebo=True)
    names = [f"{g.name.lower()}_{w}" for w in _WINDOW_NAMES[:flags.shape[1]] for g in tracked]
    block = _block(data, _by_row(data, member, "switcher group"), flags)
    return _assemble(data, names, [block], spec)


def build_staggered_twfe(
    data: PanelDataset,
    design: TreatmentDesign,
    spec: DidSpec,
) -> DesignMatrix:
    """Single absorbing-treatment indicator, switched on from each cohort start."""
    event = data.arrays.event_time(cohort_start(data, design.cohort_map()))
    return _assemble(data, ["post_adoption"], [(event >= 0).astype(float)], spec)


_BUILDERS = {
    DesignKind.BASELINE: build_baseline,
    DesignKind.EVENT_STUDY: build_event_study,
    DesignKind.INCREASES: build_increases,
    DesignKind.MULTI_GROUP: build_multi_group,
    DesignKind.STAGGERED_TWFE: build_staggered_twfe,
}


def build_design(
    data: PanelDataset,
    design: TreatmentDesign,
    spec: DidSpec,
    *,
    growth_flags: Mapping[str, bool] | None = None,
) -> DesignMatrix:
    """Dispatch to the builder for `spec.kind`."""
    if spec.kind is DesignKind.GROWTH_INTERACTION:
        if growth_flags is None:
            raise ValueError("growth_interaction design needs per-region low-growth flags")
        return build_growth_interaction(data, design, growth_flags, spec)
    return _BUILDERS[spec.kind](data, design, spec)
