"""Design-matrix builders for the regional exposure regressions.

Every builder turns a panel plus a treatment design into a DesignMatrix for
the engine: indicator treatment columns first, then any planned covariate
columns. Fixed effects are never built here; the engine absorbs them.

Every block is one rule, `_fill`: a value per row times its period's flags
in each window of `_windows` (post and pre cutoff) or, in `by_period`, in each
period, written straight into its columns of the design's one n x K array.
The default cutoff is the quarter before `bite`'s early cohort.
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


def _fill(data: PanelDataset, blocks, out: np.ndarray) -> np.ndarray:
    """Write the blocks side by side into `out`'s columns and return `out`.

    A block is (values, flags): each row's `values`, (n,) or (n, G), times its
    period's (T, W) `flags`, so W*G columns, window by window; an off-window
    cell keeps the sign of its value.
    """
    n, start = out.shape[0], 0
    for values, flags in blocks:
        values = np.asarray(values, dtype=float).reshape(n, 1, -1)
        stop = start + flags.shape[1] * values.shape[2]
        cells = out[:, start:stop].reshape(n, flags.shape[1], values.shape[2])  # a view
        np.multiply(values, flags[data.arrays.period_codes][:, :, None], out=cells)
        start = stop
    if start != out.shape[1]:
        raise ValueError(f"design blocks fill {start} of {out.shape[1]} columns")
    return out


def _always(data: PanelDataset) -> np.ndarray:
    """(T, 1) flags: one window holding every period."""
    return np.ones((len(data.arrays.periods), 1), dtype=bool)


def _by_row(data: PanelDataset, values: Mapping[str, object], what: str) -> np.ndarray:
    """Each unit's `values` (a number or a row of them) on each of its rows."""
    return np.asarray(unit_values(data, values, what), dtype=float)[data.arrays.unit_codes]


def _period_flags(data: PanelDataset, omit: Period | None) -> tuple[list[Period], np.ndarray]:
    """The periods of `data` other than `omit`, and their (T, W) flags: one window each."""
    periods = data.arrays.periods
    kept = [j for j, period in enumerate(periods) if period != omit]
    return [periods[j] for j in kept], np.arange(len(periods))[:, None] == kept


def by_period(
    data: PanelDataset, values: np.ndarray, omit: Period | None
) -> tuple[list[Period], np.ndarray]:
    """The periods of `data` other than `omit`, and `values` (one per row) times the
    indicator of each; off-period cells keep the sign of `values`, so -0.0 where negative."""
    periods, flags = _period_flags(data, omit)
    return periods, _fill(data, [(values, flags)], np.empty((data.n_obs, len(periods))))


def _covariate_names(data: PanelDataset, plan: Sequence[CovariateTerm]) -> list[str]:
    """The columns of `plan`, in `expand_covariates` order."""
    later = data.arrays.periods[1:]
    names: list[str] = []
    for term in plan:
        names.extend([f"{term}@{period}" for period in later] if term.by_time else [str(term)])
    return names


def expand_covariates(
    data: PanelDataset,
    plan: Sequence[CovariateTerm],
    out: np.ndarray | None = None,
) -> tuple[list[str], np.ndarray]:
    """Expand planned covariate blocks into design columns, written into `out` if given.

    Time-interacted blocks emit one column per period except the first, so a
    panel with T periods contributes T-1 columns per block. Characteristics
    and flags must be per-region constants already carried by the panel.
    """
    a = data.arrays
    names = _covariate_names(data, plan)
    by_time = _period_flags(data, a.periods[0])[1]
    blocks = []
    for term in plan:
        char = data.region_constant(term.characteristic)[a.unit_codes]
        if term.by_flag is not None:
            char = char * data.region_constant(term.by_flag)[a.unit_codes]
        blocks.append((char, by_time if term.by_time else _always(data)))
    if out is None:
        out = np.empty((data.n_obs, len(names)))
    return names, _fill(data, blocks, out)


def _assemble(
    data: PanelDataset,
    names: Sequence[str],
    blocks: Sequence[tuple],
    spec: DidSpec,
) -> DesignMatrix:
    """The design of the treatment `blocks` (see `_fill`), one column per name in
    `names`, then the covariates of `spec`: one n x K array, written in place."""
    cov_names = _covariate_names(data, spec.covariates)
    x = np.empty((data.n_obs, len(names) + len(cov_names)))
    _fill(data, blocks, x[:, :len(names)])
    expand_covariates(data, spec.covariates, out=x[:, len(names):])
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
    return _assemble(data, names, [(_high_first(data, design), flags)], spec)


def build_event_study(
    data: PanelDataset,
    design: TreatmentDesign,
    spec: DidSpec,
) -> DesignMatrix:
    """One high-exposure x period indicator per period except the baseline."""
    if spec.baseline not in data.arrays.periods:
        raise ValueError(f"event study baseline {spec.baseline} is not a period of the panel")
    periods, flags = _period_flags(data, spec.baseline)
    if not periods:
        raise ValueError("event study needs at least one non-baseline period")
    names = [f"treated@{period}" for period in periods]
    return _assemble(data, names, [(_high_first(data, design), flags)], spec)


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
    periods, by_time = _period_flags(data, data.arrays.periods[0])
    names = ["treated_post", "treated_post_lowgrowth", *(f"low_growth@{p}" for p in periods)]
    post = (np.column_stack([high, high * low]), _windows(data, spec))
    return _assemble(data, names, [post, (low, by_time)], spec)


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
    return _assemble(data, names, [(_high_first(data, design), flags)], spec)


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
    block = (_by_row(data, member, "switcher group"), flags)
    return _assemble(data, names, [block], spec)


def build_staggered_twfe(
    data: PanelDataset,
    design: TreatmentDesign,
    spec: DidSpec,
) -> DesignMatrix:
    """Single absorbing-treatment indicator, switched on from each cohort start."""
    event = data.arrays.event_time(cohort_start(data, design.cohort_map()))
    return _assemble(data, ["post_adoption"], [(event >= 0, _always(data))], spec)


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
