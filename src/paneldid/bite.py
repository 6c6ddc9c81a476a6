"""Regional wage-gap exposure and treatment-group classification.

The treatment intensity behind every design here is the average shortfall of
hourly wages below a statutory minimum, computed per region from worker-level
microdata. Regions are split at the population-weighted median gap into high
and low exposure halves, once per survey wave, and the two splits combine
into switcher groups and staggered adoption cohorts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np
from scipy import stats

from . import textio
from .periods import Period
from .textio import IngestError, format_float, is_blank, parse_number

DEFAULT_EARLY_COHORT = Period(2014, 3)
DEFAULT_LATE_COHORT = Period(2019, 1)
DESIGN_COLUMNS = (
    "region", "gap_first", "gap_second", "high_first",
    "high_second", "group", "cohort", "population_weight",
)


@dataclass(frozen=True)
class WageRecord:
    """One worker: region id and gross hourly wage."""

    region: str
    hourly_wage: float

    def __post_init__(self) -> None:
        if not self.region:
            raise ValueError("region id must be a non-empty string")
        if not (math.isfinite(self.hourly_wage) and self.hourly_wage > 0):
            raise ValueError(f"hourly wage must be positive, got {self.hourly_wage!r}")


class WageMicrodata:
    """Worker-level wages from one survey wave, with the minimum wage they face.

    Held as columns: the distinct `regions`, one `region_codes` entry (an
    index into `regions`) and one `wages` entry per worker, both read-only and
    in input order. Built from `WageRecord`s, or from a file by `read_csv`.
    """

    def __init__(
        self, records: Iterable[WageRecord], minimum_wage: float, survey_year: int
    ) -> None:
        records = tuple(records)
        index: dict[str, int] = {}
        codes = [index.setdefault(r.region, len(index)) for r in records]
        self.__dict__.update(vars(self._from_columns(
            tuple(index), codes, [r.hourly_wage for r in records], minimum_wage, survey_year,
        )))

    @classmethod
    def _from_columns(cls, regions, region_codes, wages, minimum_wage, survey_year):
        """Store checked columns; `region_codes` index the distinct `regions`."""
        if not (math.isfinite(minimum_wage) and minimum_wage > 0):
            raise ValueError(f"minimum wage must be positive, got {minimum_wage!r}")
        if len(wages) == 0:
            raise ValueError("microdata needs at least one wage record")
        region_codes = np.asarray(region_codes, dtype=np.intp)
        wages = np.asarray(wages, dtype=float)
        region_codes.flags.writeable = wages.flags.writeable = False
        self = cls.__new__(cls)
        self.__dict__.update(
            regions=tuple(regions), region_codes=region_codes, wages=wages,
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
        """One `WageRecord` per worker, built on first access."""
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

        The header follows the rules of `textio.read_csv`. Ids are stripped
        of surrounding whitespace. A short row, a wage that is not a positive
        number or an empty id raises `IngestError` naming the first such row
        in file order and its column.
        """
        with textio.read_csv(source, "microdata") as table:
            columns = table.columns(("region", "hourly_wage"))
            raw_ids: dict[str, int] = {}
            codes, wages = [np.empty(0, np.intp)], [np.empty(0)]
            # Batches bound the rows held at once; a batch that fails the
            # array checks is checked row by row to name its first bad row.
            for first_row, rows in table.batches():
                try:
                    batch = _parse_batch(rows, columns, raw_ids)
                except (IndexError, ValueError):
                    batch = _parse_batch(_checked_rows(rows, first_row, columns), columns, raw_ids)
                codes.append(batch[0])
                wages.append(batch[1])
        # Ids that differ only in surrounding whitespace are one region.
        index: dict[str, int] = {}
        merged = np.array([index.setdefault(r.strip(), len(index)) for r in raw_ids], dtype=np.intp)
        return cls._from_columns(
            tuple(index), merged[np.concatenate(codes)], np.concatenate(wages),
            minimum_wage, survey_year,
        )


def _parse_batch(
    rows: list[list[str]], columns: Mapping[str, int], raw_ids: dict[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Raw-id codes and wages of `rows`, adding their new raw ids to `raw_ids`.

    Raises `IndexError` or `ValueError`, leaving `raw_ids` as it was, if a row
    is short, blank, has an empty id or a wage that is not a positive number.
    """
    region_col, wage_col = columns["region"], columns["hourly_wage"]
    region = [row[region_col] for row in rows]
    wages = np.fromiter(map(float, [row[wage_col] for row in rows]), float, len(rows))
    new = [r for r in dict.fromkeys(region) if r not in raw_ids]
    if not (all(r.strip() for r in new) and np.all(np.isfinite(wages) & (wages > 0))):
        raise ValueError("a row failed the microdata checks")
    for r in new:
        raw_ids[r] = len(raw_ids)
    return np.fromiter(map(raw_ids.__getitem__, region), np.intp, len(rows)), wages


def _checked_rows(
    rows: list[list[str]], first_row: int, columns: Mapping[str, int]
) -> list[list[str]]:
    """The rows that are not blank; raises `IngestError` at the first bad row."""
    kept = []
    for row_number, row in enumerate(rows, start=first_row):
        if is_blank(row):
            continue
        for name, col in columns.items():
            if col >= len(row):
                raise IngestError(f"row {row_number}: column {name!r} is missing")
        wage = parse_number(row[columns["hourly_wage"]], row_number, "hourly_wage", positive=True)
        try:
            WageRecord(row[columns["region"]].strip(), wage)
        except ValueError as exc:
            raise IngestError(f"row {row_number}: column 'region': {exc}") from None
        kept.append(row)
    return kept


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
        textio.write_csv(sink, ["region", "gap", "worker_count"], (
            [region, format_float(self.gaps[region].gap), str(self.gaps[region].worker_count)]
            for region in self.regions
        ))


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
    every key with value <= g.
    """
    if set(values) != set(weights):
        _raise_region_mismatch(set(values), set(weights), "gap table", "weights")
    if not values:
        raise ValueError("weighted median of an empty collection is undefined")
    for key, w in weights.items():
        if not (math.isfinite(w) and w > 0):
            raise ValueError(f"weight for {key!r} must be positive, got {w!r}")
    v = np.array([values[k] for k in sorted(values)])
    w = np.array([weights[k] for k in sorted(values)])
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    cum = np.cumsum(w)
    half = cum[-1] / 2.0
    # Value-level cumulative weight: for ties, use the last index of the block.
    for i in range(len(v)):
        if i + 1 < len(v) and v[i + 1] == v[i]:
            continue
        if cum[i] >= half:
            return float(v[i])
    return float(v[-1])


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
    spearman = float(np.corrcoef(stats.rankdata(x), stats.rankdata(y))[0, 1])
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


@dataclass(frozen=True)
class TreatmentDesign:
    """Region-level treatment assignment shared by all estimation designs.

    A region joins the early cohort if its first-wave gap is high, the late
    cohort if only its second-wave gap is high, and no cohort otherwise.
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
            expected = (
                self.early_cohort
                if rt.high_first
                else self.late_cohort if rt.high_second else None
            )
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
        textio.write_csv(sink, DESIGN_COLUMNS, (
            [
                region,
                format_float(rt.gap_first),
                format_float(rt.gap_second),
                "1" if rt.high_first else "0",
                "1" if rt.high_second else "0",
                rt.group.value,
                "" if rt.cohort is None else str(rt.cohort),
                format_float(rt.population_weight),
            ]
            for region, rt in sorted(self.regions.items())
        ))

    @classmethod
    def read_csv(cls, source: IO[str] | str | Path) -> TreatmentDesign:
        """Read a design file; a bad cell raises `IngestError` naming its row and column."""
        with textio.read_csv(source, "treatment design file") as table:
            at = table.columns(DESIGN_COLUMNS)
            regions: dict[str, RegionTreatment] = {}
            first_row: dict[str, int] = {}
            cohorts: set[Period] = set()
            for row_number, cells in table.rows():
                for column, i in at.items():
                    if i >= len(cells):
                        raise IngestError(f"row {row_number}: column {column!r} is missing")
                row = {column: cells[i].strip() for column, i in at.items()}
                region = row["region"]
                if not region:
                    raise IngestError(f"row {row_number}: column 'region': empty region id")
                if region in first_row:
                    raise IngestError(
                        f"row {row_number}: column 'region': duplicate region {region!r}, "
                        f"first listed at row {first_row[region]}"
                    )
                first_row[region] = row_number
                for column in ("high_first", "high_second"):
                    if row[column] not in ("0", "1"):
                        raise IngestError(f"row {row_number}: column {column!r}: "
                                          f"expected 0 or 1, got {row[column]!r}")
                try:
                    group = SwitcherGroup(row["group"])
                except ValueError:
                    raise IngestError(
                        f"row {row_number}: column 'group': unknown group {row['group']!r}; "
                        f"expected one of {[g.value for g in SwitcherGroup]}"
                    ) from None
                try:
                    cohort = Period.parse(row["cohort"]) if row["cohort"] else None
                except ValueError as exc:
                    raise IngestError(f"row {row_number}: column 'cohort': {exc}") from None
                if cohort is not None:
                    cohorts.add(cohort)
                regions[region] = RegionTreatment(
                    gap_first=parse_number(row["gap_first"], row_number, "gap_first"),
                    gap_second=parse_number(row["gap_second"], row_number, "gap_second"),
                    high_first=row["high_first"] == "1",
                    high_second=row["high_second"] == "1",
                    group=group,
                    cohort=cohort,
                    population_weight=parse_number(
                        row["population_weight"], row_number, "population_weight"
                    ),
                )
        if not regions:
            raise ValueError("treatment design file has no regions")
        early = min(cohorts) if cohorts else DEFAULT_EARLY_COHORT
        late = max(cohorts) if cohorts else DEFAULT_LATE_COHORT
        if early == late:
            # Only one cohort present; keep the default spacing for the other.
            early_seen = any(rt.high_first for rt in regions.values())
            if early_seen:
                late = DEFAULT_LATE_COHORT if DEFAULT_LATE_COHORT > early else early.shift(1)
            else:
                early = DEFAULT_EARLY_COHORT if DEFAULT_EARLY_COHORT < late else late.shift(-1)
        return cls(regions, early_cohort=early, late_cohort=late)


def build_treatment_design(
    gaps_first: WageGapTable,
    gaps_second: WageGapTable,
    population_weights: Mapping[str, float],
    *,
    early_cohort: Period = DEFAULT_EARLY_COHORT,
    late_cohort: Period = DEFAULT_LATE_COHORT,
    strict: bool = False,
) -> TreatmentDesign:
    """Split both waves at the weighted median and classify every region.

    The same population weights (one base year, shared across waves) drive
    both median splits, so the two waves are classified on a common scale.
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
        cohort = (
            early_cohort
            if high_first[region]
            else late_cohort if high_second[region] else None
        )
        regions[region] = RegionTreatment(
            gap_first=first[region],
            gap_second=second[region],
            high_first=high_first[region],
            high_second=high_second[region],
            group=groups[region],
            cohort=cohort,
            population_weight=float(population_weights[region]),
        )
    return TreatmentDesign(regions, early_cohort=early_cohort, late_cohort=late_cohort)
