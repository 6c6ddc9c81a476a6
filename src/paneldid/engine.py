"""Weighted least squares with absorbed two-way fixed effects.

Unit and period effects are never materialized as dummy columns. They are
solved for exactly, for the outcome and every regressor at once: the unit
effects are eliminated from the weighted normal equations by a Schur
complement, and the T x T period system that remains is solved with one
period anchored at zero in each connected component of the unit-period graph
(Gaure 2013; Correia 2016). The residuals are the demeaned system, whose
slope coefficients coincide with the ones a full dummy-variable regression
would produce.

One Householder QR of the weighted demeaned [X | y] then does the rest.
Read left to right, |R_jj| is the norm of column j after projecting out the
columns before it; a column whose pivot does not exceed PIVOT_RTOL times the
largest pivot, or times its own weighted norm before absorption, is dropped
as collinear. R gives the coefficients; that much is `_absorbed_slopes`,
which the imputation estimator also runs on its own untreated-sample solve.
`wls_fit` adds the bread (X'WX)^(-1) = R^(-1) R^(-T) and cluster-robust
inference:

    V = c * (X'WX)^(-1) (sum_g s_g s_g') (X'WX)^(-1),
    s_g = sum_{i in g} w_i * x_i * e_i,
    c = G/(G-1) * (N-1)/(N-K),

with X the demeaned retained regressors, G the number of clusters and K the
number of retained slope parameters. Test statistics use a t reference
distribution with G-1 degrees of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
from scipy import linalg, sparse, stats
from scipy.sparse.csgraph import connected_components

from .panel import PanelDataset
from .periods import Period

PIVOT_RTOL = 1e-9
_BLOCK_ROWS = 1024  # rows per chunk: residuals and QR blocks stay in cache


@dataclass(frozen=True)
class DesignMatrix:
    """Regression-ready view of a panel: outcome, regressors, group labels.

    Rows follow the dataset's (unit, period) ordering. `x` has one column per
    name in `columns`; group labels are integer codes into the label tuples.
    """

    columns: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    weight: np.ndarray
    unit_codes: np.ndarray
    period_codes: np.ndarray
    cluster_codes: np.ndarray
    units: tuple[str, ...]
    periods: tuple[Period, ...]
    clusters: tuple[str, ...]
    # Connected components of the unit-period graph; set once the fixed
    # effects have been absorbed by demean_two_way.
    fe_components: int | None = None

    def __post_init__(self) -> None:
        n = len(self.y)
        if self.x.shape != (n, len(self.columns)):
            raise ValueError(
                f"x has shape {self.x.shape}, expected ({n}, {len(self.columns)})"
            )
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("design matrix column names must be unique")
        for arr, label in (
            (self.weight, "weight"),
            (self.unit_codes, "unit_codes"),
            (self.period_codes, "period_codes"),
            (self.cluster_codes, "cluster_codes"),
        ):
            if len(arr) != n:
                raise ValueError(f"{label} length {len(arr)} does not match {n} rows")
        if np.any(self.weight <= 0):
            raise ValueError("all weights must be positive")

    @property
    def n(self) -> int:
        return len(self.y)

    @classmethod
    def from_panel(
        cls,
        data: PanelDataset,
        columns: Sequence[str],
        x: np.ndarray,
        *,
        weight: np.ndarray | None = None,
    ) -> DesignMatrix:
        a = data.arrays
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        return cls(
            columns=tuple(columns),
            x=x,
            y=a.outcome.copy(),
            weight=a.weight.copy() if weight is None else np.asarray(weight, float),
            unit_codes=a.unit_codes,
            period_codes=a.period_codes,
            cluster_codes=a.cluster_codes,
            units=a.units,
            periods=a.periods,
            clusters=a.clusters,
        )


def _row_chunks(n: int):
    for start in range(0, n, _BLOCK_ROWS):
        yield slice(start, min(start + _BLOCK_ROWS, n))


class TwoWaySolver:
    """Exact weighted least squares of columns on unit and period effects.

    Unit effects are eliminated by a Schur complement of the normal
    equations. The T x T period system left is singular once per connected
    component of the unit-period graph, so one period per component is
    anchored at zero; it is factorised once and serves any number of
    columns. Units that carry no weight get nan effects.
    """

    def __init__(
        self,
        weight: np.ndarray,
        unit_codes: np.ndarray,
        period_codes: np.ndarray,
        n_units: int,
        n_periods: int,
    ) -> None:
        n = len(weight)
        rows = np.arange(n)
        self._unit_codes, self._period_codes = unit_codes, period_codes
        self._to_unit = sparse.csr_matrix((weight, (unit_codes, rows)), (n_units, n))
        self._to_period = sparse.csr_matrix((weight, (period_codes, rows)), (n_periods, n))
        cells = np.ravel_multi_index((unit_codes, period_codes), (n_units, n_periods))
        self._cells = np.bincount(cells, weight, n_units * n_periods).reshape(n_units, -1)
        unit_weight = self._cells.sum(axis=1)
        self.period_weight = self._cells.sum(axis=0)
        active = unit_weight > 0
        self._inv_unit = np.where(active, 1.0, np.nan) / np.where(active, unit_weight, 1.0)
        self._scaled = self._cells * np.nan_to_num(self._inv_unit)[:, None]
        nodes = n_units + n_periods
        graph = sparse.csr_matrix((weight, (unit_codes, n_units + period_codes)), (nodes, nodes))
        _, labels = connected_components(graph, directed=False)
        self.components = len(np.unique(labels[:n_units][active]))
        self._free = np.ones(n_periods, dtype=bool)
        self._free[np.unique(labels[n_units:], return_index=True)[1]] = False
        schur = np.diag(self.period_weight) - self._cells.T @ self._scaled
        free = np.ix_(self._free, self._free)
        self._factor = linalg.cho_factor(schur[free])

    def effects(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unit effects (U, ...) and period effects (T, ...) fitted to m."""
        unit_sums = self._to_unit @ m
        rhs = self._to_period @ m - self._scaled.T @ unit_sums
        period = np.zeros_like(rhs)
        period[self._free] = linalg.cho_solve(self._factor, rhs[self._free])
        inv = self._inv_unit if m.ndim == 1 else self._inv_unit[:, None]
        return (unit_sums - self._cells @ period) * inv, period

    def residuals(self, m: np.ndarray) -> np.ndarray:
        """m minus its fitted unit and period effects, formed in row chunks."""
        m = np.asarray(m, dtype=float)
        unit, period = self.effects(m)
        out = np.empty_like(m)
        for rows in _row_chunks(len(m)):
            np.subtract(m[rows], unit[self._unit_codes[rows]], out=out[rows])
            out[rows] -= period[self._period_codes[rows]]
        return out


def demean_two_way(design: DesignMatrix) -> DesignMatrix:
    """Remove exactly fitted weighted unit and period effects from every column.

    The outcome and the regressors share one factorised period system. On a
    balanced panel with equal weights this is the classical
    x - mean_i - mean_t + mean transform.
    """
    solver = TwoWaySolver(
        design.weight, design.unit_codes, design.period_codes,
        len(design.units), len(design.periods),
    )
    return replace(
        design,
        y=solver.residuals(design.y),
        x=solver.residuals(design.x),
        fe_components=solver.components,
    )


def _weighted_r(
    root_w: np.ndarray,
    x: np.ndarray,
    y: np.ndarray | None = None,
    keep: np.ndarray | None = None,
) -> np.ndarray:
    """Square R of the Householder QR of root_w * [x[:, keep] | y].

    A tall-skinny QR: each block of rows is reduced to its own R, and the
    stacked block factors are reduced once more.
    """
    k = x.shape[1] if keep is None else len(keep)
    buffer = np.empty((_BLOCK_ROWS, k + (y is not None)))
    factors = []
    for rows in _row_chunks(len(root_w)):
        block = buffer[: rows.stop - rows.start]
        block[:, :k] = x[rows] if keep is None else x[rows][:, keep]
        if y is not None:
            block[:, k] = y[rows]
        block *= root_w[rows, None]
        factors.append(np.linalg.qr(block, mode="r"))
    r = np.linalg.qr(np.vstack(factors), mode="r")
    square = np.zeros((r.shape[1], r.shape[1]))
    square[: len(r)] = r
    return square


def cluster_vcov(
    x_demeaned: np.ndarray,
    weight: np.ndarray,
    residuals: np.ndarray,
    cluster_codes: np.ndarray,
    *,
    r: np.ndarray | None = None,
) -> np.ndarray:
    """Cluster-robust sandwich covariance with the small-sample factor.

    `x_demeaned` must contain only retained columns. `r` is the triangular
    factor of sqrt(weight) * x_demeaned, so that X'WX = R'R; it is computed
    when not given. Raises if X'WX is singular.
    """
    n, k = x_demeaned.shape
    codes = np.asarray(cluster_codes)
    n_clusters = int(codes.max()) + 1 if len(codes) else 0
    g = len(np.unique(codes))
    if g < 2:
        raise ValueError(f"cluster-robust covariance needs at least 2 clusters, got {g}")
    if r is None:
        r = _weighted_r(np.sqrt(weight), x_demeaned)
    try:
        r_inv = linalg.solve_triangular(r, np.eye(k))
    except np.linalg.LinAlgError:
        raise ValueError(
            "X'WX is singular; drop collinear columns before computing the covariance"
        ) from None
    to_cluster = sparse.csr_matrix(
        (weight * residuals, (codes, np.arange(n))), shape=(n_clusters, n)
    )
    # scores @ (X'WX)^-1, one row per cluster
    half = (to_cluster @ x_demeaned) @ r_inv @ r_inv.T
    factor = (g / (g - 1)) * ((n - 1) / (n - k))
    v = factor * half.T @ half
    return (v + v.T) / 2.0


@dataclass(frozen=True)
class RegressionFit:
    """Slope estimates from a two-way fixed-effects weighted regression."""

    columns: tuple[str, ...]
    coefficients: Mapping[str, float]
    vcov: np.ndarray
    residuals: np.ndarray
    n_obs: int
    n_clusters: int
    dropped_collinear: tuple[str, ...]
    # Solver diagnostics: |R_jj| / max |R_jj| of each dropped column, the
    # 2-norm condition number of the retained R, and the number of connected
    # components of the unit-period graph.
    pivot_ratios: Mapping[str, float]
    condition: float
    fe_components: int

    @property
    def df_inference(self) -> int:
        return self.n_clusters - 1

    def coef_vector(self) -> np.ndarray:
        return np.array([self.coefficients[c] for c in self.columns])

    def se(self, name: str) -> float:
        i = self.columns.index(name)
        return float(np.sqrt(self.vcov[i, i]))

    def tstat(self, name: str) -> float:
        """Coefficient over standard error; +-inf or nan when the error is 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(self.coefficients[name]) / self.se(name))

    def pvalue(self, name: str) -> float:
        t = self.tstat(name)
        return float(2.0 * stats.t.sf(abs(t), self.df_inference)) if math.isfinite(t) else math.nan

    def conf_int(self, name: str, level: float = 0.95) -> tuple[float, float]:
        crit = float(stats.t.ppf(0.5 + level / 2.0, self.df_inference))
        est, se = self.coefficients[name], self.se(name)
        return est - crit * se, est + crit * se

    def stars(self, name: str) -> str:
        p = self.pvalue(name)
        return "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.10 else ""

    def linear_combination(self, weights: Mapping[str, float]) -> tuple[float, float]:
        """Estimate and standard error of sum_j weights[j] * coefficient[j]."""
        vec = np.zeros(len(self.columns))
        for name, w in weights.items():
            vec[self.columns.index(name)] = w
        est = float(vec @ self.coef_vector())
        var = float(vec @ self.vcov @ vec)
        return est, math.sqrt(max(var, 0.0))

    def to_json_dict(self, level: float = 0.95) -> dict:
        ci = {c: self.conf_int(c, level) for c in self.columns}
        return {
            "coefficients": {c: self.coefficients[c] for c in self.columns},
            "se": {c: self.se(c) for c in self.columns},
            "t": {c: self.tstat(c) for c in self.columns},
            "p": {c: self.pvalue(c) for c in self.columns},
            "conf_low": {c: ci[c][0] for c in self.columns},
            "conf_high": {c: ci[c][1] for c in self.columns},
            "n_obs": self.n_obs,
            "n_clusters": self.n_clusters,
            "dropped": list(self.dropped_collinear),
            "solver": {
                "dropped_pivot_ratios": dict(self.pivot_ratios),
                "condition": self.condition,
                "fe_components": self.fe_components,
            },
        }


def _absorbed_slopes(
    weight: np.ndarray, x_raw: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Slopes of y on x once both have been demeaned, collinear columns dropped.

    `x_raw` is x before absorption, with at least one column; it scales the
    pivot rule. Returns the mask of kept columns, their slopes, R of the
    kept columns (X'WX = R'R) and every column's pivot relative to the
    largest.
    """
    raw_norm = np.sqrt(np.einsum("i,ij,ij->j", weight, x_raw, x_raw))
    root_w = np.sqrt(weight)
    r = _weighted_r(root_w, x, y)
    pivots = np.abs(np.diag(r))[:-1]
    largest = pivots.max()
    keep = (pivots > PIVOT_RTOL * largest) & (pivots > PIVOT_RTOL * raw_norm)
    kept = np.flatnonzero(keep)
    if not len(kept):
        raise ValueError(
            "every regressor column is collinear with the fixed effects; nothing to estimate"
        )
    if len(weight) < len(kept) + 2:
        raise ValueError(
            f"{len(weight)} rows cannot support {len(kept)} retained parameters; "
            "need at least two more rows than parameters"
        )
    if not keep.all():
        r = _weighted_r(root_w, x, y, kept)
    k = len(kept)
    beta = linalg.solve_triangular(r[:k, :k], r[:k, k])
    return keep, beta, r[:k, :k], pivots / largest


def wls_fit(design: DesignMatrix) -> RegressionFit:
    """Absorb the fixed effects, drop collinear columns, and solve by QR.

    Residuals are reported on the demeaned scale, which matches the residuals
    of the equivalent dummy-variable regression. Dropped columns are recorded
    by name and excluded from the covariance.
    """
    if design.x.shape[1] == 0:
        raise ValueError("design matrix has no regressor columns")
    g = len(np.unique(design.cluster_codes))
    if g < 2:
        raise ValueError(f"need at least 2 clusters for inference, got {g}")
    dm = demean_two_way(design)
    x, y, components = dm.x, dm.y, dm.fe_components
    del dm  # lets x go once the retained columns are copied out
    keep, beta, r, ratios = _absorbed_slopes(design.weight, design.x, x, y)
    if not keep.all():
        x = x[:, keep]
    residuals = y - x @ beta
    vcov = cluster_vcov(x, design.weight, residuals, design.cluster_codes, r=r)
    columns = tuple(c for c, k in zip(design.columns, keep) if k)
    return RegressionFit(
        columns=columns,
        coefficients={c: float(v) for c, v in zip(columns, beta)},
        vcov=vcov,
        residuals=residuals,
        n_obs=design.n,
        n_clusters=g,
        dropped_collinear=tuple(c for c, k in zip(design.columns, keep) if not k),
        pivot_ratios={
            c: float(ratio) for c, k, ratio in zip(design.columns, keep, ratios) if not k
        },
        condition=float(np.linalg.cond(r)),
        fe_components=components,
    )
