"""Design-matrix builders for the regional exposure regressions.

Every builder turns a panel plus a treatment design into a DesignMatrix for
the engine: indicator treatment columns first, then any planned covariate
columns. Fixed effects are never built here; the engine absorbs them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .bite import SwitcherGroup, TreatmentDesign
from .engine import DesignMatrix
from .panel import PanelDataset, cohort_start, unit_values
from .periods import Period
from .textio import dump_key_values, read_key_values, to_numbers

DEFAULT_CUTOFF = Period(2014, 2)
FULL_INCREASE_YEARS = (2016, 2018, 2019, 2020, 2021)
SHORT_INCREASE_YEARS = (2016, 2018)


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


def by_period(
    data: PanelDataset, values: np.ndarray, omit: Period | None
) -> tuple[list[Period], np.ndarray]:
    """The periods of `data` other than `omit`, and `values` interacted with each.

    Column j of the block is `values` (one per row) times the indicator of the
    j-th kept period; off-period cells keep the sign of `values`, so a
    negative value gives -0.0.
    """
    a = data.arrays
    kept = [j for j, period in enumerate(a.periods) if period != omit]
    block = np.asarray(values, dtype=float)[:, None] * (a.period_codes[:, None] == kept)
    return [a.periods[j] for j in kept], block


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


def _high_first_by_row(data: PanelDataset, design: TreatmentDesign) -> np.ndarray:
    flags = design.high_first_map()
    per_unit = np.asarray(unit_values(data, flags, "first-wave exposure flag"), dtype=float)
    return per_unit[data.arrays.unit_codes]


def _period_index_by_row(data: PanelDataset) -> np.ndarray:
    a = data.arrays
    return a.period_index[a.period_codes]


def build_baseline(
    data: PanelDataset,
    design: TreatmentDesign,
    spec: DidSpec,
) -> DesignMatrix:
    """High-exposure x post-cutoff indicator, optional pre-cutoff placebo.

    The cutoff period itself loads on neither column, so anticipation around
    the adoption quarter stays out of both estimates.
    """
    high = _high_first_by_row(data, design)
    t = _period_index_by_row(data)
    cut = spec.cutoff.index
    names = ["treated_post"]
    cols = [high * (t > cut)]
    if spec.placebo:
        names.append("treated_pre")
        cols.append(high * (t < cut))
    return _assemble(data, names, cols, spec)


def build_event_study(
    data: PanelDataset,
    design: TreatmentDesign,
    spec: DidSpec,
) -> DesignMatrix:
    """One high-exposure x period indicator per period except the baseline."""
    periods, block = by_period(data, _high_first_by_row(data, design), spec.baseline)
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
    high = _high_first_by_row(data, design)
    t = _period_index_by_row(data)
    low = np.asarray(unit_values(data, growth_flags, "low-growth flag"), dtype=float)
    low_row = low[data.arrays.unit_codes]
    post = (t > spec.cutoff.index).astype(float)
    periods, block = by_period(data, low_row, data.arrays.periods[0])
    names = ["treated_post", "treated_post_lowgrowth", *(f"low_growth@{p}" for p in periods)]
    return _assemble(data, names, [high * post, high * post * low_row, block], spec)


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
    high = _high_first_by_row(data, design)
    t = _period_index_by_row(data)
    names = ["treated_post"]
    cols = [high * (t > spec.cutoff.index)]
    for tau in spec.increase_years:
        threshold = Period(tau, 4).index
        names.append(f"raise_{tau + 1}")
        cols.append(high * (t > threshold))
    return _assemble(data, names, cols, spec)


def build_multi_group(
    data: PanelDataset,
    design: TreatmentDesign,
    spec: DidSpec,
) -> DesignMatrix:
    """Separate post-cutoff effects for the three exposed switcher groups.

    The never-high group is the omitted category. With `placebo`, matching
    pre-cutoff columns are added for all three groups.
    """
    groups = unit_values(data, design.group_map(), "switcher group")
    t = _period_index_by_row(data)
    a = data.arrays
    post = (t > spec.cutoff.index).astype(float)
    pre = (t < spec.cutoff.index).astype(float)
    # Each exposed group's indicator by row, named after the group, in enum order.
    tracked = {
        member.name.lower(): np.asarray([float(g is member) for g in groups])[a.unit_codes]
        for member in SwitcherGroup if member is not SwitcherGroup.LOW_LOW
    }
    names = [f"{label}_post" for label in tracked]
    cols = [member * post for member in tracked.values()]
    if spec.placebo:
        names += [f"{label}_pre" for label in tracked]
        cols += [member * pre for member in tracked.values()]
    return _assemble(data, names, cols, spec)


def build_staggered_twfe(
    data: PanelDataset,
    design: TreatmentDesign,
    spec: DidSpec,
) -> DesignMatrix:
    """Single absorbing-treatment indicator, switched on from each cohort start."""
    start = cohort_start(data, design.cohort_map())
    t = _period_index_by_row(data)
    treated = (t >= start[data.arrays.unit_codes]).astype(float)
    return _assemble(data, ["post_adoption"], [treated], spec)


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
