"""Regional wage-gap exposure and treatment-group classification.

The treatment intensity behind every design here is the average shortfall of
hourly wages below a statutory minimum, computed per region from worker-level
microdata. Regions are split at the population-weighted median gap into high
and low exposure halves, once per survey wave, and the two splits combine
into switcher groups and staggered adoption cohorts, which start at the two
adoption dates `DEFAULT_EARLY_COHORT` and `DEFAULT_LATE_COHORT`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping

import numpy as np

from . import textio
from .periods import Period
from .textio import (Codes, IngestError, Number, cell_values, field_names, field_values,
                     first_repeat, read_columns, stripped, write_records)

# The one source of the adoption dates; the designs' cutoff is the quarter before the early one.
DEFAULT_EARLY_COHORT = Period(2014, 3)
DEFAULT_LATE_COHORT = Period(2019, 1)
_EMPTY_REGION = "region id must be a non-empty string"


@dataclass(frozen=True)
class WageRecord:
    """One worker: region id and gross hourly wage; a record, not checked."""

    region: str
    hourly_wage: float


class WageMicrodata:
    """Worker-level wages from one survey wave, with the minimum wage they face.

    Held as columns: the distinct `regions`, one `region_codes` entry (an
    index into `regions`) and one `wages` entry per worker, both read-only and
    in input order. Read from a file by `read_csv`, or built from
    `WageRecord`s.
    """

    def __init__(
        self, records: Iterable[WageRecord], minimum_wage: float, survey_year: int
    ) -> None:
        records = tuple(records)
        self.__dict__.update(vars(self._from_columns(
            [r.region for r in records], range(len(records)), [r.hourly_wage for r in records],
            minimum_wage, survey_year,
        )))

    @classmethod
    def _from_columns(cls, regions, region_codes, wages, minimum_wage, survey_year):
        """Check and store columns; `region_codes` index `regions`, merged once stripped."""
        if not (math.isfinite(minimum_wage) and minimum_wage > 0):
            raise ValueError(f"minimum wage must be positive, got {minimum_wage!r}")
        if len(wages) == 0:
            raise ValueError("microdata needs at least one wage record")
        if not all(isinstance(r, str) and r.strip() for r in regions):
            raise ValueError(_EMPTY_REGION)
        index: dict[str, int] = {}
        merged = np.array([index.setdefault(r.strip(), len(index)) for r in regions], dtype=np.intp)
        regions, region_codes = tuple(index), merged[np.asarray(region_codes, dtype=np.intp)]
        wages = np.asarray(wages, dtype=float)
        bad = np.flatnonzero(~(np.isfinite(wages) & (wages > 0)))
        if bad.size:
            raise ValueError(f"hourly wage must be positive, got {float(wages[bad[0]])!r}")
        region_codes.flags.writeable = wages.flags.writeable = False
        self = cls.__new__(cls)
        self.__dict__.update(
            regions=regions, region_codes=region_codes, wages=wages,
            minimum_wage=minimum_wage, survey_year=survey_year,
        )
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, WageMicrodata):
            return NotImplemented
        return (
            (self.regions, self.minimum_wage, self.survey_year)
            == (other.regions, other.minimum_wage, other.survey_year)
            and np.array_equal(self.region_codes, other.region_codes)
            and np.array_equal(self.wages, other.wages)
        )

    @cached_property
    def records(self) -> tuple[WageRecord, ...]:
        """One `WageRecord` per worker: a read-only view built on first access."""
        return tuple(
            WageRecord(self.regions[code], wage)
            for code, wage in zip(self.region_codes.tolist(), self.wages.tolist())
        )

    @classmethod
    def read_csv(
        cls,
        source: IO[str] | str | Path,
        minimum_wage: float,
        survey_year: int,
    ) -> WageMicrodata:
        """Read `region,hourly_wage` rows (header required).

        The header and row widths follow the rules of `textio.read_csv`. Ids
        are stripped of surrounding whitespace. A row of the wrong width, a
        wage that is not a positive number or an empty id (read in that order)
        raises `IngestError` naming the first such row in file order and its
        column.
        """
        regions = Codes(stripped(f"column 'region': {_EMPTY_REGION}"))
        with textio.read_csv(source, "microdata") as table:
            wages, codes = read_columns(
                table, [("hourly_wage", Number(positive=True)), ("region", regions)])
        return cls._from_columns(tuple(regions.keys), codes, wages, minimum_wage, survey_year)


@dataclass(frozen=True)
class RegionGap:
    gap: float
    worker_count: int


@dataclass(frozen=True)
class WageGapTable:
    """Per-region average wage shortfall below the minimum, one survey wave."""

    gaps: Mapping[str, RegionGap]
    minimum_wage: float
    survey_year: int

    @property
    def regions(self) -> tuple[str, ...]:
        return tuple(sorted(self.gaps))

    def gap_values(self) -> dict[str, float]:
        return {r: self.gaps[r].gap for r in self.regions}

    def write_csv(self, sink: IO[str] | str | Path) -> None:
        write_records(sink, ("region", *field_names(RegionGap)),
                      ((region, *field_values(self.gaps[region])) for region in self.regions))


def wage_gap(
    micro: WageMicrodata,
    regions: Iterable[str] | None = None,
) -> WageGapTable:
    """Average per-worker shortfall below the minimum wage, by region.

    For each region the gap is sum(max(minimum_wage - wage, 0)) over workers,
    divided by the region's worker count. Workers at or above the minimum
    contribute zero. When `regions` is given, every listed region must appear
    in the microdata; a region with no workers has an undefined gap and is
    reported as an error rather than silently dropped.
    """
    n_regions = len(micro.regions)
    shortfall = np.maximum(micro.minimum_wage - micro.wages, 0.0)
    # bincount adds each region's shortfalls in input order, so every total is
    # the sequential sum, bit for bit.
    totals = np.bincount(micro.region_codes, weights=shortfall, minlength=n_regions)
    counts = np.bincount(micro.region_codes, minlength=n_regions)
    if regions is not None:
        missing = sorted(set(regions) - set(micro.regions))
        if missing:
            raise ValueError(
                f"no wage records for region(s) {missing}: "
                "the average gap would divide by zero"
            )
    gaps = {
        region: RegionGap(total / count, count)
        for region, total, count in zip(micro.regions, totals.tolist(), counts.tolist())
    }
    return WageGapTable(gaps, micro.minimum_wage, micro.survey_year)


def weighted_median(values: Mapping[str, float], weights: Mapping[str, float]) -> float:
    """Smallest value whose cumulative weight reaches half the total.

    Ties share their full weight: the cumulative weight at value g counts
    every key with value <= g. Weights are summed as exact fractions, so the
    median does not depend on the order or the labels of the keys.
    """
    if set(values) != set(weights):
        _raise_region_mismatch(set(values), set(weights), "gap table", "weights")
    if not values:
        raise ValueError("weighted median of an empty collection is undefined")
    for key, w in weights.items():
        if not (math.isfinite(w) and w > 0):
            raise ValueError(f"weight for {key!r} must be positive, got {w!r}")
    keys = list(values)
    order = np.argsort(np.array([values[k] for k in keys], dtype=float), kind="stable")
    v = [float(values[keys[j]]) for j in order]
    w = [Fraction(float(weights[keys[j]])) for j in order]
    total = sum(w)
    cum = Fraction(0)
    for i in range(len(v) - 1):
        cum += w[i]
        # Value-level cumulative weight: a tie block is tested at its last key.
        if v[i + 1] != v[i] and 2 * cum >= total:
            return v[i]
    return v[-1]  # the last block's cumulative weight is the total


def weighted_median_split(
    gaps: WageGapTable | Mapping[str, float],
    weights: Mapping[str, float],
    *,
    strict: bool = False,
) -> dict[str, bool]:
    """Flag regions whose gap reaches the weighted median gap.

    The default rule is inclusive: a region at the median is treated, so the
    treated half's cumulative weight is at least half the total. `strict=True`
    switches to a strictly-above rule for sensitivity checks.
    """
    values = gaps.gap_values() if isinstance(gaps, WageGapTable) else dict(gaps)
    median = weighted_median(values, weights)
    if strict:
        return {r: values[r] > median for r in values}
    return {r: values[r] >= median for r in values}


class SwitcherGroup(enum.Enum):
    """Exposure classification across the two survey waves."""

    LOW_LOW = "low/low"
    LOW_HIGH = "low/high"
    HIGH_LOW = "high/low"
    HIGH_HIGH = "high/high"

    @classmethod
    def from_flags(cls, high_first: bool, high_second: bool) -> SwitcherGroup:
        return {
            (False, False): cls.LOW_LOW,
            (False, True): cls.LOW_HIGH,
            (True, False): cls.HIGH_LOW,
            (True, True): cls.HIGH_HIGH,
        }[(bool(high_first), bool(high_second))]


def _raise_region_mismatch(a: set, b: set, name_a: str, name_b: str) -> None:
    only_a = sorted(a - b)
    only_b = sorted(b - a)
    if only_a or only_b:
        raise ValueError(
            f"region sets differ between {name_a} and {name_b}: "
            f"only in {name_a}: {only_a}; only in {name_b}: {only_b}"
        )


def classify_switchers(
    high_first: Mapping[str, bool],
    high_second: Mapping[str, bool],
) -> dict[str, SwitcherGroup]:
    """Combine two waves' high/low flags into the four switcher groups."""
    _raise_region_mismatch(set(high_first), set(high_second), "first wave", "second wave")
    return {
        region: SwitcherGroup.from_flags(high_first[region], high_second[region])
        for region in high_first
    }


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of `values`, tied values sharing the mean of their ranks; all nan
    if any value is nan. Each rank is a half-integer, so it is exact."""
    if np.isnan(values).any():
        return np.full(len(values), math.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    bounds = np.r_[np.flatnonzero(starts), len(values)]  # each tie group's first position, then n
    ranks = np.empty(len(values))
    ranks[order] = (0.5 * (bounds[:-1] + bounds[1:] + 1))[np.cumsum(starts) - 1]
    return ranks


def gap_correlations(
    first: WageGapTable | Mapping[str, float],
    second: WageGapTable | Mapping[str, float],
) -> tuple[float, float]:
    """Pearson and Spearman correlation of two waves' regional gaps.

    Both are unweighted across regions; the Spearman coefficient is the
    Pearson coefficient of mean-ranked values, so ties get averaged ranks.
    """
    a = first.gap_values() if isinstance(first, WageGapTable) else dict(first)
    b = second.gap_values() if isinstance(second, WageGapTable) else dict(second)
    _raise_region_mismatch(set(a), set(b), "first wave", "second wave")
    regions = sorted(a)
    if len(regions) < 2:
        raise ValueError("correlations need at least two regions")
    x = np.array([a[r] for r in regions])
    y = np.array([b[r] for r in regions])
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise ValueError("correlation is undefined for a constant gap series")
    pearson = float(np.corrcoef(x, y)[0, 1])
    spearman = float(np.corrcoef(_average_ranks(x), _average_ranks(y))[0, 1])
    return pearson, spearman


def low_growth_flag(growth: Mapping[str, float]) -> dict[str, bool]:
    """Flag regions in the bottom quartile of a growth measure.

    The quartile boundary is the smallest observed value whose empirical CDF
    reaches 0.25, so ties at the boundary are all flagged.
    """
    if len(growth) < 4:
        raise ValueError(f"quartile split needs at least 4 regions, got {len(growth)}")
    values = sorted(growth.values())
    boundary = values[math.ceil(0.25 * len(values)) - 1]
    return {region: growth[region] <= boundary for region in growth}


def assigned_cohort(
    high_first: bool, high_second: bool, early: Period, late: Period
) -> Period | None:
    """The cohort two waves' flags assign: `early` if high first, `late` if high only second."""
    return early if high_first else late if high_second else None


def cohort_pair(early: Period | None, late: Period | None) -> tuple[Period, Period]:
    """A design's (early, late) cohorts from those in use, either of which may be None:
    a missing one is its default if that keeps the order, else next to the other."""
    if late is None:
        late = (DEFAULT_LATE_COHORT if early is None or DEFAULT_LATE_COHORT > early
                else early.shift(1))
    if early is None:
        early = DEFAULT_EARLY_COHORT if DEFAULT_EARLY_COHORT < late else late.shift(-1)
    return early, late


@dataclass(frozen=True)
class RegionTreatment:
    """One region's exposure measurements and derived treatment assignment."""

    gap_first: float
    gap_second: float
    high_first: bool
    high_second: bool
    group: SwitcherGroup
    cohort: Period | None
    population_weight: float


# A design file's columns: the region id, then `RegionTreatment`'s fields.
DESIGN_COLUMNS = ("region", *field_names(RegionTreatment))


def design_rules() -> dict[str, Codes | Number]:
    """The cell rule of each design-file column, in `DESIGN_COLUMNS` order."""
    return {
        "region": Codes(stripped("column 'region': empty region id")),
        "gap_first": Number(),
        "gap_second": Number(),
        "high_first": Codes(_stripped_cell("high_first", _flag)),
        "high_second": Codes(_stripped_cell("high_second", _flag)),
        "group": Codes(_stripped_cell("group", _group)),
        "cohort": Codes(_stripped_cell("cohort", lambda c: Period.parse(c) if c else None)),
        "population_weight": Number(positive=True),
    }


def _stripped_cell(column: str, parse: Callable[[str], object]) -> Callable[[str, int], object]:
    """A `Codes` key: `parse` of the stripped cell; its `ValueError` names the row and column."""
    def key(raw: str, row: int) -> object:
        try:
            return parse(raw.strip())
        except ValueError as exc:
            raise IngestError(f"row {row}: column {column!r}: {exc}") from None
    return key


def _flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {cell!r}")
    return cell == "1"


def _group(cell: str) -> SwitcherGroup:
    names = [g.value for g in SwitcherGroup]
    if cell not in names:
        raise ValueError(f"unknown group {cell!r}; expected one of {names}")
    return SwitcherGroup(cell)


def one_row_per_region(regions: Codes, message: str) -> Callable:
    """The rule across rows that a region, the first rule's, is on one row; `message`
    is formatted with the repeated `region`, its `row` and its `first` row."""
    def check(values: list[np.ndarray], rows: np.ndarray) -> tuple[int, str] | None:
        repeat = first_repeat(values[0])
        if repeat is None:
            return None
        (row, first), region = rows[list(repeat)].tolist(), list(regions.keys)[values[0][repeat[0]]]
        return row, message.format(region=region, row=row, first=first)
    return check


@dataclass(frozen=True)
class TreatmentDesign:
    """Region-level treatment assignment shared by all estimation designs.

    Every region's cohort is the one `assigned_cohort` gives its flags.
    """

    regions: Mapping[str, RegionTreatment]
    early_cohort: Period = DEFAULT_EARLY_COHORT
    late_cohort: Period = DEFAULT_LATE_COHORT

    def __post_init__(self) -> None:
        if self.late_cohort <= self.early_cohort:
            raise ValueError(
                f"late cohort {self.late_cohort} must follow early cohort {self.early_cohort}"
            )
        for region, rt in self.regions.items():
            expected = assigned_cohort(rt.high_first, rt.high_second,
                                       self.early_cohort, self.late_cohort)
            if rt.cohort != expected:
                raise ValueError(
                    f"region {region!r}: cohort {rt.cohort} does not match its "
                    f"flags (expected {expected})"
                )
            if rt.group is not SwitcherGroup.from_flags(rt.high_first, rt.high_second):
                raise ValueError(f"region {region!r}: group does not match its flags")

    def high_first_map(self) -> dict[str, bool]:
        return {r: rt.high_first for r, rt in self.regions.items()}

    def high_second_map(self) -> dict[str, bool]:
        return {r: rt.high_second for r, rt in self.regions.items()}

    def cohort_map(self) -> dict[str, Period | None]:
        return {r: rt.cohort for r, rt in self.regions.items()}

    def group_map(self) -> dict[str, SwitcherGroup]:
        return {r: rt.group for r, rt in self.regions.items()}

    def group_counts(self) -> dict[SwitcherGroup, int]:
        counts = {g: 0 for g in SwitcherGroup}
        for rt in self.regions.values():
            counts[rt.group] += 1
        return counts

    def write_csv(self, sink: IO[str] | str | Path) -> None:
        write_records(sink, DESIGN_COLUMNS, ((region, *field_values(rt))
                                             for region, rt in sorted(self.regions.items())))

    @classmethod
    def read_csv(cls, source: IO[str] | str | Path) -> TreatmentDesign:
        """Read a design file by `design_rules`; `IngestError` names a bad cell's row and
        column, or both rows of a region listed twice."""
        rules = design_rules()
        with textio.read_csv(source, "treatment design file") as table:
            arrays = read_columns(table, rules.items(), one_row_per_region(
                rules["region"], "row {row}: column 'region': duplicate region {region!r}, "
                "first listed at row {first}"))
        columns = map(cell_values, rules.values(), arrays)
        regions = {region: RegionTreatment(*fields) for region, *fields in zip(*columns)}
        if not regions:
            raise ValueError("treatment design file has no regions")
        cohorts = {rt.cohort for rt in regions.values()} - {None}
        early, late = min(cohorts, default=None), max(cohorts, default=None)
        if early == late:  # one cohort or none: the flags tell which it is
            early_seen = any(rt.high_first for rt in regions.values())
            early, late = (early, None) if early_seen else (None, late)
        return cls(regions, *cohort_pair(early, late))


def build_treatment_design(
    gaps_first: WageGapTable,
    gaps_second: WageGapTable,
    population_weights: Mapping[str, float],
    *,
    strict: bool = False,
) -> TreatmentDesign:
    """Split both waves at the weighted median and classify every region.

    The same population weights (one base year, shared across waves) drive
    both median splits, so the two waves are classified on a common scale.
    Cohorts are the adoption dates `DEFAULT_EARLY_COHORT` and `DEFAULT_LATE_COHORT`.
    """
    first = gaps_first.gap_values()
    second = gaps_second.gap_values()
    _raise_region_mismatch(set(first), set(second), "first wave", "second wave")
    _raise_region_mismatch(set(first), set(population_weights), "gap tables", "population weights")
    high_first = weighted_median_split(first, population_weights, strict=strict)
    high_second = weighted_median_split(second, population_weights, strict=strict)
    groups = classify_switchers(high_first, high_second)
    regions = {}
    for region in first:
        regions[region] = RegionTreatment(
            gap_first=first[region],
            gap_second=second[region],
            high_first=high_first[region],
            high_second=high_second[region],
            group=groups[region],
            cohort=assigned_cohort(high_first[region], high_second[region],
                                   DEFAULT_EARLY_COHORT, DEFAULT_LATE_COHORT),
            population_weight=float(population_weights[region]),
        )
    return TreatmentDesign(regions)
