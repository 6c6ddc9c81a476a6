"""Long-format panel container and delimited-text ingestion.

A `PanelDataset` is a set of read-only columns: unit and period codes into the
sorted `units` and `periods`, outcome, weight, a covariate matrix, and cluster
codes into the sorted `clusters`. Those codes are the one home of the cluster
assignment: `PanelDataset.cluster` reads each unit's label off its first row.
Rows are sorted by (unit, period), so every downstream computation is
independent of input row order. Transformations return new instances.

`PanelArrays` owns the units x periods layout: `grid` lays any row values out
as a (units, periods, ...) array, and `period_index` and `event_time` give each
period's quarter index and each row's quarters since its cohort start.

A panel is built by `PanelDataset.from_columns` or read by `ingest_panel`.
`with_outcome` may also stack R outcomes on one layout: the outcome column
is then (n, R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import IO, Callable, Hashable, Mapping, Sequence

import numpy as np

from .periods import Period
from .textio import (Codes, IngestError, Number, first_repeat, parse_number, read_columns,
                     read_csv, stripped, write_csv)

# Canonical field names. Any further mapped column is carried as a covariate.
REQUIRED_FIELDS = ("unit", "year", "quarter", "outcome", "weight")
CLUSTER_FIELD = "cluster"


@dataclass(frozen=True)
class Observation:
    """One (unit, period) row of `PanelDataset.observations`; a record, not checked."""

    unit: str
    period: Period
    outcome: float
    weight: float
    covariates: tuple[float, ...] = ()


@dataclass(frozen=True)
class BalanceReport:
    """Missing (unit, period) pairs relative to the full units x periods grid."""

    n_units: int
    n_periods: int
    n_observations: int
    missing: tuple[tuple[str, Period], ...]

    @property
    def is_balanced(self) -> bool:
        return not self.missing


@dataclass(frozen=True)
class PanelArrays:
    """Dense array view of a dataset, shared by the estimation code."""

    unit_codes: np.ndarray
    period_codes: np.ndarray
    cluster_codes: np.ndarray
    outcome: np.ndarray  # (n,), or (n, R) on a stacked panel
    weight: np.ndarray
    covariates: np.ndarray  # (n, n_covariates), empty second axis when none
    units: tuple[str, ...]
    periods: tuple[Period, ...]
    period_index: np.ndarray  # (T,) `Period.index` of each period
    clusters: tuple[str, ...]

    def grid(self, values, fill=0) -> np.ndarray:
        """Row `values` as a units x periods (x any trailing shape) array; `fill` where no row."""
        values = np.asarray(values)
        out = np.full((len(self.units), len(self.periods), *values.shape[1:]), fill,
                      dtype=np.result_type(values, fill))
        out[self.unit_codes, self.period_codes] = values
        return out

    def event_time(self, start: np.ndarray) -> np.ndarray:
        """Each row's quarters since its unit's `cohort_start`: -inf for a unit never treated."""
        return self.period_index[self.period_codes] - start[self.unit_codes]


def _factorize(values: Sequence[Hashable]) -> tuple[tuple, np.ndarray]:
    """Sorted distinct values, and each value's position among them."""
    first: dict = {}
    codes = [first.setdefault(v, len(first)) for v in values]
    labels = sorted(first)
    # argsort of the first-seen positions in sorted order inverts that order.
    return tuple(labels), np.argsort([first[v] for v in labels])[codes]


def _stripped(labels: tuple, what: str) -> tuple[str, ...]:
    """`labels` stripped of surrounding whitespace; `ValueError` if one is blank or no str."""
    stripped = tuple(label.strip() if isinstance(label, str) else "" for label in labels)
    if not all(stripped):
        raise ValueError(f"{what} must be a non-empty string")
    return stripped


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _require(ok: np.ndarray, message: str, values: np.ndarray) -> None:
    if not ok.all():
        raise ValueError(f"{message}, got {float(values[~ok][0])!r}")


def _gather(labels: Sequence, codes: np.ndarray) -> list:
    return np.asarray(labels, dtype=object)[codes].tolist()


class PanelDataset:
    """Immutable long-format panel with at most one observation per (unit, period).

    Built by `from_columns`. Equality compares the columns (cluster codes and
    labels among them) and the covariate names.
    """

    @classmethod
    def from_columns(cls, unit, period, outcome, weight, covariates=None,
                     cluster=None) -> PanelDataset:
        """A panel from one unit label, `Period`, outcome and weight per row, in any order.

        `covariates` maps each name to one value per row; units missing from
        `cluster` are their own cluster. Unit ids, and the keys and labels of
        `cluster`, are stripped as `ingest_panel` strips them and must not be
        blank. A column of the wrong length is named.
        """
        covariates = dict(covariates or {})
        for name, column in (("unit", unit), ("period", period), ("weight", weight),
                             *covariates.items()):
            if len(column) != len(outcome):
                raise ValueError(f"column {name!r} has {len(column)} values for "
                                 f"{len(outcome)} outcome rows")
        if not all(isinstance(u, str) for u in set(unit)):
            raise ValueError("unit id must be a non-empty string")
        if not all(isinstance(p, Period) for p in set(period)):
            raise ValueError("period labels must be Period values")
        units, unit_codes = _factorize(unit)
        stripped = _stripped(units, "unit id")
        if stripped != units:  # ids that merge once stripped share one code
            units, merged = _factorize(stripped)
            unit_codes = merged[unit_codes]
        labels: dict[str, str] = {}
        for u, label in zip(_stripped(tuple(cluster or ()), "unit id"),
                            _stripped(tuple((cluster or {}).values()), "cluster label")):
            if labels.setdefault(u, label) != label:
                raise ValueError(f"unit {u!r} has conflicting cluster labels "
                                 f"{labels[u]!r} and {label!r}")
        return cls._from_columns(
            units, unit_codes, *_factorize(period), outcome, weight,
            np.array(list(covariates.values()), dtype=float).T, tuple(covariates), labels,
        )

    @classmethod
    def _from_columns(cls, units, unit_codes, periods, period_codes, outcome, weight,
                      covariates=(), covariate_names=(), cluster=None) -> PanelDataset:
        """Validate row columns and store them sorted by (unit, period).

        `units` and `periods` are sorted, distinct and all used; the codes index
        them. Units missing from `cluster` are their own cluster.
        """
        covariate_names = tuple(covariate_names)
        if len(set(covariate_names)) != len(covariate_names):
            raise ValueError("covariate names must be unique")
        n = len(outcome)
        if n == 0:
            raise ValueError("a panel needs at least one observation")
        outcome = np.asarray(outcome, dtype=float)
        weight = np.asarray(weight, dtype=float)
        covariates = np.asarray(covariates, dtype=float).reshape(n, len(covariate_names))
        _require(np.isfinite(outcome), "outcome must be finite", outcome)
        _require(np.isfinite(weight) & (weight > 0), "weight must be positive", weight)
        _require(np.isfinite(covariates), "covariate values must be finite", covariates)
        key = np.asarray(unit_codes) * len(periods) + np.asarray(period_codes)
        order = np.argsort(key, kind="stable")
        dup = _first(np.diff(key[order]) == 0)
        if dup is not None:
            u, t = divmod(int(key[order[dup]]), len(periods))
            raise ValueError(f"duplicate observation for unit {units[u]!r} period {periods[t]}")
        cluster = {u: (cluster or {}).get(u, u) for u in units}
        clusters, unit_cluster = _factorize(list(cluster.values()))
        unit_codes = np.asarray(unit_codes, dtype=np.intp)[order]
        columns = PanelArrays(
            unit_codes=unit_codes, period_codes=np.asarray(period_codes, dtype=np.intp)[order],
            cluster_codes=unit_cluster[unit_codes], outcome=outcome[order],
            weight=weight[order], covariates=covariates[order], units=tuple(units),
            periods=tuple(periods), period_index=np.asarray([p.index for p in periods]),
            clusters=clusters,
        )
        return cls._of(columns, covariate_names)

    @classmethod
    def _of(cls, columns: PanelArrays, covariate_names: tuple[str, ...]) -> PanelDataset:
        for column in vars(columns).values():
            if isinstance(column, np.ndarray):
                column.flags.writeable = False
        self = cls.__new__(cls)
        self.__dict__.update(
            _columns=columns, covariate_names=covariate_names,
            units=columns.units, periods=columns.periods,
        )
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PanelDataset):
            return NotImplemented
        mine, theirs = vars(self._columns), vars(other._columns)
        return (self.covariate_names == other.covariate_names
                and all(np.array_equal(mine[name], theirs[name]) for name in mine))

    def __repr__(self) -> str:
        return (f"PanelDataset({self.n_obs} observations, {len(self.units)} units, "
                f"{len(self.periods)} periods, covariates {list(self.covariate_names)})")

    @property
    def n_obs(self) -> int:
        return len(self._columns.outcome)

    @property
    def cluster(self) -> dict[str, str]:
        """Cluster label of every unit, read off its first row."""
        a = self._columns
        first = np.flatnonzero(np.diff(a.unit_codes, prepend=-1))
        return dict(zip(a.units, _gather(a.clusters, a.cluster_codes[first])))

    @cached_property
    def arrays(self) -> PanelArrays:
        return self._columns

    @cached_property
    def observations(self) -> tuple[Observation, ...]:
        """One `Observation` per row in (unit, period) order; a view built on first use."""
        a = self._columns
        return tuple(map(
            Observation, _gather(a.units, a.unit_codes), _gather(a.periods, a.period_codes),
            a.outcome.tolist(), a.weight.tolist(), map(tuple, a.covariates.tolist()),
        ))

    def covariate_column(self, name: str) -> np.ndarray:
        if name not in self.covariate_names:
            raise ValueError(f"unknown covariate {name!r}; have {list(self.covariate_names)}")
        return self._columns.covariates[:, self.covariate_names.index(name)].copy()

    def region_constant(self, name: str) -> np.ndarray:
        """The (U,) values, in unit order, of a covariate that must not vary within unit."""
        col = self.covariate_column(name)
        codes = self._columns.unit_codes
        first = col[np.flatnonzero(np.diff(codes, prepend=-1))]
        i = _first(col != first[codes])
        if i is not None:
            raise ValueError(
                f"covariate {name!r} varies within unit {self.units[codes[i]]!r} "
                f"({float(first[codes[i]])!r} vs {float(col[i])!r}); "
                "a per-region constant is required"
            )
        return first

    def _subset(self, rows) -> PanelDataset:
        """The panel's `rows`, with the units and periods they use."""
        a = self._columns
        units, unit_codes = np.unique(a.unit_codes[rows], return_inverse=True)
        periods, period_codes = np.unique(a.period_codes[rows], return_inverse=True)
        return self._from_columns(
            [a.units[u] for u in units.tolist()], unit_codes,
            [a.periods[t] for t in periods.tolist()], period_codes,
            a.outcome[rows], a.weight[rows], a.covariates[rows], self.covariate_names,
            self.cluster,
        )

    def with_outcome(self, outcome) -> PanelDataset:
        """This panel's rows and layout with `outcome`, (n,) or (n, R), in row order.

        An (n, R) outcome stacks R outcomes on one layout, e.g. replications
        of one design; the estimators then fit all R in one pass.
        """
        outcome = np.array(outcome, dtype=float)
        if outcome.ndim not in (1, 2) or len(outcome) != self.n_obs:
            raise ValueError(f"replacement outcome has shape {outcome.shape}; "
                             f"the panel has {self.n_obs} rows")
        _require(np.isfinite(outcome), "outcome must be finite", outcome)
        columns = replace(self._columns, outcome=outcome)
        return self._of(columns, self.covariate_names)

    def drop_covariates(self) -> PanelDataset:
        columns = replace(self._columns, covariates=np.empty((self.n_obs, 0)))
        return self._of(columns, ())


def unit_values(data: PanelDataset, values: Mapping[str, object], what: str) -> list:
    """`values` of every unit of the panel, in unit order; names units that have none."""
    missing = [u for u in data.units if u not in values]
    if missing:
        raise ValueError(f"{what} missing for unit(s) {missing[:5]}" +
                         (" ..." if len(missing) > 5 else ""))
    return [values[u] for u in data.units]


def cohort_start(data: PanelDataset, cohorts: Mapping[str, Period | None]) -> np.ndarray:
    """Each unit's cohort start period index, in unit order.

    Units never treated, or first treated after the panel's last period, get
    inf: they stay untreated throughout the panel.
    """
    last = data.periods[-1]
    return np.asarray([
        math.inf if c is None or c > last else float(c.index)
        for c in unit_values(data, cohorts, "cohort")
    ])


def cohorts_in(start: np.ndarray) -> tuple[Period, ...]:
    """The distinct cohorts of a `cohort_start` vector that start in the window, sorted."""
    return tuple(Period.from_index(int(i)) for i in np.unique(start[np.isfinite(start)]))


def ingest_panel(
    source: IO[str] | str | Path,
    schema: Mapping[str, str] | None = None,
    *,
    require_positive_outcome: bool = True,
) -> PanelDataset:
    """Read a comma-separated panel with a header row.

    Parameters
    ----------
    source
        Text stream or path. Must be UTF-8 with columns named by `schema`.
    schema
        Map from canonical field names (unit, year, quarter, outcome, weight,
        optionally cluster, plus one entry per covariate) to column names in
        the file. When omitted, the required columns are looked up under their
        canonical names and every remaining column becomes a covariate named
        by its header.
    require_positive_outcome
        Reject non-positive outcomes (the default; levels are logged later).
        Pass False for panels whose outcome is already on a transformed scale.

    The header follows the rules of `textio.read_csv`; a header problem
    raises ValueError, as does, without a `schema`, a column with no name.
    Covariates are attached in header order. Each row's unit, (year, quarter),
    outcome, weight, covariates and cluster are read, then the rules across
    rows: one row per (unit, period), one cluster label per unit. IngestError
    names the first bad row in file order, and a bad cell's column.
    """
    with read_csv(source, "panel") as table:
        if schema is None:
            if "" in table.header:
                raise ValueError(f"panel column {table.header.index('') + 1} has no name")
            mapping = {name: name for name in (*REQUIRED_FIELDS, *table.header)}
        else:
            mapping = dict(schema)
            for f in REQUIRED_FIELDS:
                if f not in mapping:
                    raise IngestError(f"schema is missing required field {f!r}")
        at = table.columns(mapping.values())
        covariates = sorted((c for c in mapping if c not in (*REQUIRED_FIELDS, CLUSTER_FIELD)),
                            key=lambda c: (at[mapping[c]], c))  # in header order
        units = Codes(stripped("empty unit id"))
        periods = Codes(_period_key(mapping["year"], mapping["quarter"]))
        rules = [(mapping["unit"], units), ((mapping["year"], mapping["quarter"]), periods),
                 (mapping["outcome"], Number(positive=require_positive_outcome)),
                 (mapping["weight"], Number(positive=True)),
                 *((mapping[canonical], Number()) for canonical in covariates)]
        checks = [_one_row_per_unit_period(units, periods)]
        if CLUSTER_FIELD in mapping:
            labels = Codes(stripped("empty cluster label"))
            rules.append((mapping[CLUSTER_FIELD], labels))
            checks.append(_one_label_per_unit(units, labels))
        unit_codes, period_codes, outcome, weight, *columns = read_columns(table, rules, *checks)
    if not len(outcome):
        raise IngestError("no data rows after the header")
    names = list(units.keys)
    cluster = {}
    if CLUSTER_FIELD in mapping:  # each unit has one label, so any of its rows gives it
        cluster = dict(zip(_gather(names, unit_codes), _gather(list(labels.keys), columns.pop())))
    unit_labels, unit_rank = _factorize(names)
    period_labels, period_rank = _factorize(list(periods.keys))
    return PanelDataset._from_columns(
        unit_labels, unit_rank[unit_codes], period_labels, period_rank[period_codes], outcome,
        weight, np.array(columns, dtype=float).reshape(len(columns), len(outcome)).T,
        covariates, cluster,
    )


def _one_row_per_unit_period(units: Codes, periods: Codes) -> Callable:
    """The rule across panel rows that no (unit, period) is on two rows."""
    def check(values: list[np.ndarray], rows: np.ndarray) -> tuple[int, str] | None:
        unit, period = values[0], values[1]
        repeat = first_repeat(unit * len(periods.keys) + period)
        if repeat is None:
            return None
        (row, first), at = rows[list(repeat)].tolist(), repeat[0]
        return row, (f"row {row}: duplicate observation for unit {list(units.keys)[unit[at]]!r} "
                     f"period {list(periods.keys)[period[at]]} (first seen at row {first})")
    return check


def _one_label_per_unit(units: Codes, labels: Codes) -> Callable:
    """The rule across panel rows that a unit has one cluster label, the last rule's."""
    def check(values: list[np.ndarray], rows: np.ndarray) -> tuple[int, str] | None:
        unit, label = values[0], values[-1]
        # Each (unit, label) pair's first row, in file order: among them a unit
        # repeats at the first row that gives it a second label.
        pairs = np.sort(np.unique(unit * len(labels.keys) + label, return_index=True)[1])
        repeat = first_repeat(unit[pairs])
        if repeat is None:
            return None
        at, first = pairs[list(repeat)].tolist()
        row, names = int(rows[at]), list(labels.keys)
        return row, (f"row {row}: unit {list(units.keys)[unit[at]]!r} has conflicting cluster "
                     f"labels {names[label[first]]!r} and {names[label[at]]!r}")
    return check


def _period_key(year_column: str, quarter_column: str):
    """A `Codes` key: the `Period` of a (year, quarter) cell pair."""
    def key(stamp: tuple[str, str], row_number: int) -> Period:
        year = parse_number(stamp[0], row_number, year_column, kind=int)
        quarter = parse_number(stamp[1], row_number, quarter_column, kind=int)
        try:
            return Period(year, quarter)
        except ValueError as exc:
            raise IngestError(f"row {row_number}: {exc}") from None
    return key


def serialize_panel(data: PanelDataset, sink: IO[str] | str | Path) -> None:
    """Write the panel as CSV under its canonical column names, as `ingest_panel` reads it."""
    a = data.arrays
    cluster = data.cluster
    header = list(REQUIRED_FIELDS)
    columns = [
        _gather(a.units, a.unit_codes),
        _gather([str(p.year) for p in a.periods], a.period_codes),
        _gather([str(p.quarter) for p in a.periods], a.period_codes),
        list(map(repr, a.outcome.tolist())),
        list(map(repr, a.weight.tolist())),
    ]
    if any(label != u for u, label in cluster.items()):
        header.append(CLUSTER_FIELD)
        columns.append(_gather([cluster[u] for u in a.units], a.unit_codes))
    header.extend(data.covariate_names)
    columns.extend(list(map(repr, column.tolist())) for column in a.covariates.T)

    write_csv(sink, header, zip(*columns))


def log_outcome(data: PanelDataset) -> PanelDataset:
    """Replace outcomes with their natural logs. Outcomes must be positive."""
    a = data.arrays
    i = _first(a.outcome <= 0)
    if i is not None:
        raise ValueError(
            f"cannot log non-positive outcome {float(a.outcome[i])!r} for unit "
            f"{a.units[a.unit_codes[i]]!r} period {a.periods[a.period_codes[i]]}"
        )
    return data.with_outcome(np.log(a.outcome))


def balance_report(data: PanelDataset) -> BalanceReport:
    """List the (unit, period) cells absent from the full grid."""
    a = data.arrays
    present = a.grid(np.ones(data.n_obs, dtype=bool), fill=False)
    missing = tuple((a.units[u], a.periods[t]) for u, t in np.argwhere(~present).tolist())
    return BalanceReport(len(a.units), len(a.periods), data.n_obs, missing)
