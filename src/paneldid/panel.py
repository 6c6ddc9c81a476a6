"""Long-format panel container and delimited-text ingestion.

A `PanelDataset` is a set of read-only columns: unit and period codes into the
sorted `units` and `periods`, outcome, weight, a covariate matrix, and cluster
codes. Rows are sorted by (unit, period), so every downstream computation is
independent of input row order. Transformations return new instances.

`PanelArrays` owns the units x periods layout: `grid` lays any row values out
as a (units, periods, ...) array and `period_index` holds each period's
quarter index, so no estimator rebuilds either.

Inside the package a panel may also stack R outcomes on one layout: its
outcome column is then (n, R) (`PanelDataset._with_outcome`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import IO, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .periods import Period
from .textio import IngestError, parse_number, read_csv, write_csv

# Canonical field names. Any further mapped column is carried as a covariate.
REQUIRED_FIELDS = ("unit", "year", "quarter", "outcome", "weight")
CLUSTER_FIELD = "cluster"


@dataclass(frozen=True)
class Observation:
    """One (unit, period) cell: outcome, estimation weight, covariate values."""

    unit: str
    period: Period
    outcome: float
    weight: float
    covariates: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.unit:
            raise ValueError("unit id must be a non-empty string")
        if not math.isfinite(self.outcome):
            raise ValueError(f"outcome must be finite, got {self.outcome!r}")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"weight must be positive, got {self.weight!r}")
        for v in self.covariates:
            if not math.isfinite(v):
                raise ValueError(f"covariate values must be finite, got {v!r}")


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


def _factorize(values: Sequence[Hashable]) -> tuple[tuple, np.ndarray]:
    """Sorted distinct values, and each value's position among them."""
    first: dict = {}
    codes = [first.setdefault(v, len(first)) for v in values]
    labels = sorted(first)
    # argsort of the first-seen positions in sorted order inverts that order.
    return tuple(labels), np.argsort([first[v] for v in labels])[codes]


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _gather(labels: Sequence, codes: np.ndarray) -> list:
    return np.asarray(labels, dtype=object)[codes].tolist()


class PanelDataset:
    """Immutable long-format panel with at most one observation per (unit, period).

    Built from `Observation`s, or inside the package from columns. Equality
    compares the columns and labels.
    """

    def __init__(
        self,
        observations: Iterable[Observation],
        covariate_names: Sequence[str] = (),
        cluster: Mapping[str, str] | None = None,
    ) -> None:
        observations = tuple(observations)
        for obs in observations:
            if len(obs.covariates) != len(covariate_names):
                raise ValueError(
                    f"unit {obs.unit!r} period {obs.period}: expected "
                    f"{len(covariate_names)} covariate values, got {len(obs.covariates)}"
                )
        self.__dict__.update(vars(self._from_columns(
            *_factorize([o.unit for o in observations]),
            *_factorize([o.period for o in observations]),
            [o.outcome for o in observations], [o.weight for o in observations],
            [o.covariates for o in observations], covariate_names, cluster,
        )))

    @classmethod
    def _from_columns(cls, units, unit_codes, periods, period_codes, outcome, weight,
                      covariates=None, covariate_names=(), cluster=None) -> PanelDataset:
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
        if not all(units):
            raise ValueError("unit id must be a non-empty string")
        outcome = np.asarray(outcome, dtype=float)
        weight = np.asarray(weight, dtype=float)
        covariates = np.asarray(
            np.empty((n, 0)) if covariates is None else covariates, dtype=float
        ).reshape(n, len(covariate_names))
        for bad, message, values in (
            (~np.isfinite(outcome), "outcome must be finite", outcome),
            (~(weight > 0) | ~np.isfinite(weight), "weight must be positive", weight),
            (~np.isfinite(covariates), "covariate values must be finite", covariates),
        ):
            if bad.any():
                raise ValueError(f"{message}, got {float(values[bad][0])!r}")
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
        return cls._of(columns, cluster, covariate_names)

    @classmethod
    def _of(cls, columns: PanelArrays, cluster: dict[str, str],
            covariate_names: tuple[str, ...]) -> PanelDataset:
        for column in vars(columns).values():
            if isinstance(column, np.ndarray):
                column.flags.writeable = False
        self = cls.__new__(cls)
        self.__dict__.update(
            _columns=columns, _cluster=cluster, covariate_names=covariate_names,
            units=columns.units, periods=columns.periods,
        )
        return self

    def _with_outcome(self, outcome: np.ndarray) -> PanelDataset:
        """This panel's rows and layout with `outcome`, (n,) or (n, R), put in unchecked.

        An (n, R) outcome stacks R outcomes on one layout, e.g. replications
        of one design; the estimators then fit all R in one pass.
        """
        outcome = np.array(outcome, dtype=float)
        if len(outcome) != self.n_obs:
            raise ValueError("replacement outcome length does not match the panel")
        columns = replace(self._columns, outcome=outcome)
        return self._of(columns, self._cluster, self.covariate_names)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PanelDataset):
            return NotImplemented
        mine, theirs = vars(self._columns), vars(other._columns)
        return (
            (self.covariate_names, self._cluster) == (other.covariate_names, other._cluster)
            and all(np.array_equal(mine[name], theirs[name]) for name in mine)
        )

    def __repr__(self) -> str:
        return (f"PanelDataset({self.n_obs} observations, {len(self.units)} units, "
                f"{len(self.periods)} periods, covariates {list(self.covariate_names)})")

    @property
    def n_obs(self) -> int:
        return len(self._columns.outcome)

    @property
    def cluster(self) -> dict[str, str]:
        """Cluster label of every unit."""
        return dict(self._cluster)

    @cached_property
    def arrays(self) -> PanelArrays:
        return self._columns

    @cached_property
    def observations(self) -> tuple[Observation, ...]:
        """One `Observation` per row, in (unit, period) order; built on first use."""
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

    def _subset(self, rows=slice(None), **replace) -> PanelDataset:
        """The panel's `rows`, with the columns named in `replace` substituted."""
        a = self._columns
        units, unit_codes = np.unique(a.unit_codes[rows], return_inverse=True)
        periods, period_codes = np.unique(a.period_codes[rows], return_inverse=True)
        columns = {"outcome": a.outcome[rows], "covariates": a.covariates[rows],
                   "covariate_names": self.covariate_names, **replace}
        return self._from_columns(
            [a.units[u] for u in units.tolist()], unit_codes,
            [a.periods[t] for t in periods.tolist()], period_codes,
            weight=a.weight[rows], cluster=self._cluster, **columns,
        )

    def with_outcome(self, outcome: Sequence[float]) -> PanelDataset:
        if len(outcome) != self.n_obs:
            raise ValueError("replacement outcome length does not match the panel")
        return self._subset(outcome=outcome)

    def drop_covariates(self) -> PanelDataset:
        return self._subset(covariates=None, covariate_names=())


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
    raises ValueError. Covariates are attached in header order. Any malformed
    cell raises IngestError naming the offending row and column.
    """
    with read_csv(source, "panel") as table:
        if schema is None:
            mapping = {name: name for name in (*REQUIRED_FIELDS, *table.header)}
        else:
            mapping = dict(schema)
            for f in REQUIRED_FIELDS:
                if f not in mapping:
                    raise IngestError(f"schema is missing required field {f!r}")
        at = table.columns(mapping.values())
        col = {canonical: at[column] for canonical, column in mapping.items()}

        # Covariates keep the order their columns appear in the header.
        covariate_fields = sorted(
            (col[canonical], canonical, column) for canonical, column in mapping.items()
            if canonical not in REQUIRED_FIELDS and canonical != CLUSTER_FIELD
        )

        # Rows are parsed straight into columns. Each distinct (year, quarter)
        # text pair is parsed once; pairs naming one period share its code.
        units, period_codes, outcome, weight = [], [], [], []
        covariates: list[list[float]] = [[] for _ in covariate_fields]
        period_code: dict[tuple[str, str], int] = {}
        code_of: dict[Period, int] = {}
        seen: dict[tuple[str, int], int] = {}
        cluster: dict[str, str] = {}
        for row_number, row in table.rows():
            unit = row[col["unit"]].strip()
            if not unit:
                raise IngestError(f"row {row_number}: empty unit id")
            stamp = (row[col["year"]], row[col["quarter"]])
            code = period_code.get(stamp)
            if code is None:
                year = parse_number(stamp[0], row_number, mapping["year"], kind=int)
                quarter = parse_number(stamp[1], row_number, mapping["quarter"], kind=int)
                try:
                    period = Period(year, quarter)
                except ValueError as exc:
                    raise IngestError(f"row {row_number}: {exc}") from None
                code = period_code[stamp] = code_of.setdefault(period, len(code_of))
            y = parse_number(row[col["outcome"]], row_number, mapping["outcome"],
                             positive=require_positive_outcome)
            w = parse_number(row[col["weight"]], row_number, mapping["weight"], positive=True)
            for values, (at, _, column) in zip(covariates, covariate_fields):
                cell = row[at].strip()
                if not cell:
                    raise IngestError(
                        f"row {row_number}: column {column!r}: missing covariate value"
                    )
                values.append(parse_number(cell, row_number, column))
            key = (unit, code)
            if key in seen:
                raise IngestError(
                    f"row {row_number}: duplicate observation for unit {unit!r} "
                    f"period {list(code_of)[code]} (first seen at row {seen[key]})"
                )
            seen[key] = row_number
            if CLUSTER_FIELD in col:
                label = row[col[CLUSTER_FIELD]].strip()
                if not label:
                    raise IngestError(f"row {row_number}: empty cluster label")
                prev = cluster.setdefault(unit, label)
                if prev != label:
                    raise IngestError(
                        f"row {row_number}: unit {unit!r} has conflicting cluster "
                        f"labels {prev!r} and {label!r}"
                    )
            units.append(unit)
            period_codes.append(code)
            outcome.append(y)
            weight.append(w)
    if not units:
        raise IngestError("no data rows after the header")
    periods, rank = _factorize(list(code_of))
    return PanelDataset._from_columns(
        *_factorize(units), periods, rank[period_codes], outcome, weight,
        np.array(covariates).T if covariates else None,
        tuple(canonical for _, canonical, _ in covariate_fields), cluster,
    )


def serialize_panel(
    data: PanelDataset,
    sink: IO[str] | str | Path,
    schema: Mapping[str, str] | None = None,
) -> None:
    """Write the panel back as CSV with the same schema ingest accepts."""
    mapping = dict(schema) if schema is not None else {}
    def name(canonical: str) -> str:
        return mapping.get(canonical, canonical)

    a = data.arrays
    cluster = data.cluster
    header = [name(f) for f in REQUIRED_FIELDS]
    columns = [
        _gather(a.units, a.unit_codes),
        _gather([str(p.year) for p in a.periods], a.period_codes),
        _gather([str(p.quarter) for p in a.periods], a.period_codes),
        list(map(repr, a.outcome.tolist())),
        list(map(repr, a.weight.tolist())),
    ]
    if any(label != u for u, label in cluster.items()):
        header.append(name(CLUSTER_FIELD))
        columns.append(_gather([cluster[u] for u in a.units], a.unit_codes))
    header.extend(name(c) for c in data.covariate_names)
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
