"""Weighted least squares with absorbed two-way fixed effects.

Unit and period effects are never materialized as dummy columns. They are
solved for exactly, for the outcome and every regressor at once: the unit
effects are eliminated from the weighted normal equations by a Schur
complement, and the T x T period system that remains is solved with one
period anchored at zero in each connected component of the unit-period graph
(Gaure 2013; Correia 2016). The residuals are the demeaned system, whose
slope coefficients coincide with the ones a full dummy-variable regression
would produce.

A fit never demeans x as a whole: its effects are fitted once
(`DemeanedRows`), and each read forms one block of demeaned rows anew, so a
fit holds one n x K array, the caller's. One Householder QR of the weighted
demeaned [X | y], taken over fixed 1,024-row blocks, then does the rest.
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
number of retained slope parameters. One more pass over the rows forms the
residuals, over the same 1,024-row blocks, and the scores s_g from the same
reads (`cluster_sums`): each cluster's running sum is carried from one group
of rows to the next, so it adds its rows in row order, as one product over
the whole panel would. `cr1_vcov` is the one home of c * H H'
for a (k, G) influence matrix H, here H = (X'WX)^(-1) [s_1 ... s_G]; the
Sun-Abraham fit passes its own H to it. Test statistics use a t reference
distribution with G-1 degrees of freedom. Its p-values and 95% critical
values, and the normal critical value, come from `scipy.special`'s `stdtr`,
`stdtrit` and `ndtri`: the kernels that `scipy.stats.t` and `scipy.stats.norm`
call, so they equal those bit for bit without loading `scipy.stats`.

`Estimate` holds one estimate and its standard error and is the one home of
the toolkit's 95% interval: a t(df) critical value for these CR1 errors
(df = G-1), a normal one for bootstrap errors (no df).

Several outcomes can share one design: with y of shape (n, R), `wls_fit`
absorbs, pivots and factorises the regressors once, and the slopes, residuals
and covariances gain a trailing (for the covariances a leading) axis of R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np
from scipy import linalg, sparse, special
from scipy.sparse.csgraph import connected_components

from .panel import PanelDataset
from .periods import Period

PIVOT_RTOL = 1e-9
_BLOCK_ROWS = 1024  # rows per chunk: residuals and QR blocks stay in cache
# Regressor bytes per row group of `cluster_sums`: each group pays one sparse
# product per outcome, so smaller groups cost more calls, and a group of
# demeaned rows is held while it is summed.
_SCORE_BYTES = 1 << 21
_Z95 = float(special.ndtri(0.975))


@lru_cache(maxsize=None)
def _t95(df: int) -> float:
    return float(special.stdtrit(df, 0.975))


def _scalar(value):
    """`value` as a Python float when it holds one number; arrays pass through."""
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class Estimate:
    """An estimate, its standard error and the df of its t reference, if any.

    Estimate and standard error may be (R,) arrays, one entry per outcome.
    """

    estimate: float | np.ndarray
    se: float | np.ndarray
    df: int | None = None

    def conf_int(self) -> tuple[float, float]:
        """95% interval, elementwise: normal critical value without df, t(df) with it."""
        crit = _Z95 if self.df is None else _t95(self.df)
        return self.estimate - crit * self.se, self.estimate + crit * self.se

    def to_json_dict(self) -> dict:
        low, high = self.conf_int()
        return {"estimate": self.estimate, "se": self.se, "conf_low": low, "conf_high": high}


@dataclass(frozen=True)
class DesignMatrix:
    """Regression-ready view of a panel: outcome, regressors, group labels.

    Rows follow the dataset's (unit, period) ordering. `x` has one column per
    name in `columns`; group labels are integer codes into the label tuples.
    `y` is (n,), or (n, R) for R outcomes fitted on the same regressors.
    The second fixed effect need not be the period: `period_codes` may index
    any levels, with one label per level in `periods` (the Sun-Abraham fit
    passes cohort x period levels, each labelled with its calendar period).
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
    # The solver that absorbed the fixed effects; set by demean_two_way.
    solver: TwoWaySolver | None = field(default=None, repr=False, compare=False)

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

    @property
    def fe_components(self) -> int | None:
        """Connected components of the unit-period graph, once absorbed."""
        return None if self.solver is None else self.solver.components

    @classmethod
    def from_panel(cls, data: PanelDataset, columns: Sequence[str], x: np.ndarray) -> DesignMatrix:
        """The panel's outcome, weights and codes with regressors `x`; other weights
        go through `dataclasses.replace`, which `__post_init__` checks."""
        a = data.arrays
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        return cls(
            columns=tuple(columns),
            x=x,
            y=a.outcome.copy(),
            weight=a.weight.copy(),
            unit_codes=a.unit_codes,
            period_codes=a.period_codes,
            cluster_codes=a.cluster_codes,
            units=a.units,
            periods=a.periods,
            clusters=a.clusters,
        )


def _fe_labels(
    weight: np.ndarray,
    unit_codes: np.ndarray,
    period_codes: np.ndarray,
    n_units: int,
    n_periods: int,
) -> np.ndarray:
    """Component label of each unit, then each period, of the unit-period graph."""
    nodes = n_units + n_periods
    graph = _grouped(weight, unit_codes, (nodes, nodes), n_units + period_codes)
    return connected_components(graph, directed=False)[1]


def _grouped(
    weight: np.ndarray, codes: np.ndarray, shape: tuple[int, int],
    columns: np.ndarray | None = None,
) -> sparse.csr_matrix:
    """The CSR of `shape` whose row c holds, in row order, each row with code
    c at its weight, in the column `columns` gives that row (default: its
    own index).

    Built from a stable argsort of the codes and their cumulative counts, so
    it holds what a COO build would, less the summing of repeated entries.
    """
    # numpy radix-sorts codes of 16 bits or fewer
    order = np.argsort(codes.astype(np.min_scalar_type(max(shape[0] - 1, 0))), kind="stable")
    index = np.int32 if max(len(codes), *shape) < np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(np.bincount(codes, minlength=shape[0]), out=indptr[1:])
    indices = order.astype(index) if columns is None else columns[order].astype(index)
    return sparse.csr_matrix((weight[order], indices, indptr), shape)


def fe_components(
    weight: np.ndarray,
    unit_codes: np.ndarray,
    period_codes: np.ndarray,
    n_units: int,
    n_periods: int,
) -> int:
    """Connected components of the unit-period graph that hold a weighted unit."""
    labels = _fe_labels(weight, unit_codes, period_codes, n_units, n_periods)
    active = np.bincount(unit_codes, weight, n_units) > 0
    return len(np.unique(labels[:n_units][active]))


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
        # the graph's labels first, so its transient does not stack on the CSRs
        labels = _fe_labels(weight, unit_codes, period_codes, n_units, n_periods)
        self._unit_codes, self._period_codes = unit_codes, period_codes
        self._to_unit = _grouped(weight, unit_codes, (n_units, len(weight)))
        self._to_period = _grouped(weight, period_codes, (n_periods, len(weight)))
        cells = np.ravel_multi_index((unit_codes, period_codes), (n_units, n_periods))
        self._cells = np.bincount(cells, weight, n_units * n_periods).reshape(n_units, -1)
        unit_weight = self._cells.sum(axis=1)
        self.period_weight = self._cells.sum(axis=0)
        active = unit_weight > 0
        self._inv_unit = np.where(active, 1.0, np.nan) / np.where(active, unit_weight, 1.0)
        self._scaled = self._cells * np.nan_to_num(self._inv_unit)[:, None]
        self.components = len(np.unique(labels[:n_units][active]))
        # Each period's component label: period effects compare only within one.
        self.period_labels = labels[n_units:]
        self._free = np.ones(n_periods, dtype=bool)
        self._free[np.unique(self.period_labels, return_index=True)[1]] = False
        schur = np.diag(self.period_weight) - self._cells.T @ self._scaled
        free = np.ix_(self._free, self._free)
        self._factor = linalg.cho_factor(schur[free])
        self._weight = weight

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The period system's solution for `rhs` (T, ...): zero at anchored periods."""
        out = np.zeros_like(rhs)
        out[self._free] = linalg.cho_solve(self._factor, rhs[self._free])
        return out

    def effects(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unit effects (U, ...) and period effects (T, ...) fitted to m."""
        unit_sums = self._to_unit @ m
        period = self.solve(self._to_period @ m - self._scaled.T @ unit_sums)
        inv = self._inv_unit if m.ndim == 1 else self._inv_unit[:, None]
        return (unit_sums - self._cells @ period) * inv, period

    def cluster_scores(self, residuals: np.ndarray, cluster_codes: np.ndarray) -> np.ndarray:
        """(T, clusters) scores of each cluster's residuals on the period effects.

        Column c sums, over cluster c's rows, w * e times the row's period
        indicator less its unit's period weight shares: the period columns
        with the unit effects partialled out. `solve` turns a score into the
        cluster's influence on the period effects. Residuals of shape (n, R)
        give (R, T, clusters).

        Two conditions must hold: the residuals come from this solver's fit,
        so their weighted sum in each unit is zero, and every cluster holds
        whole units. The unit shares then sum to zero in each cluster, so
        only the period indicators are summed.
        """
        n_clusters, n_periods = int(cluster_codes.max()) + 1, len(self._free)
        cells = cluster_codes * n_periods + self._period_codes
        we = self._weight * residuals.reshape(len(cells), -1).T
        scores = np.stack([np.bincount(cells, one, n_clusters * n_periods) for one in we])
        return np.swapaxes(scores.reshape(*residuals.shape[1:], n_clusters, n_periods), -1, -2)

    def demeaned(
        self, m: np.ndarray, effects: tuple[np.ndarray, np.ndarray], rows: slice
    ) -> np.ndarray:
        """Rows `rows` of m less its fitted (unit, period) `effects`."""
        unit, period = effects
        out = m[rows] - unit[self._unit_codes[rows]]
        out -= period[self._period_codes[rows]]
        return out

    def residuals(self, m: np.ndarray) -> np.ndarray:
        """m minus its fitted unit and period effects, formed in row chunks."""
        m = np.asarray(m, dtype=float)
        effects = self.effects(m)
        out = np.empty_like(m)
        for rows in _row_chunks(len(m)):
            out[rows] = self.demeaned(m, effects, rows)
        return out


@dataclass(frozen=True)
class DemeanedRows:
    """The columns `columns` (all when None) of `raw` less their fitted effects.

    It reads like an (n, k) array of the demeaned columns, by rows only. A
    fit reads its regressors through it, block by block, so it holds no
    demeaned copy of x next to `raw`: `[rows]` forms those rows anew through
    `TwoWaySolver.demeaned`.
    """

    solver: TwoWaySolver
    raw: np.ndarray
    effects: tuple[np.ndarray, np.ndarray]
    columns: np.ndarray | None = None

    @classmethod
    def of(cls, solver: TwoWaySolver, raw: np.ndarray) -> DemeanedRows:
        return cls(solver, raw, solver.effects(raw))

    @property
    def shape(self) -> tuple[int, int]:
        k = self.raw.shape[1] if self.columns is None else len(self.columns)
        return len(self.raw), k

    def __getitem__(self, rows: slice) -> np.ndarray:
        block = self.solver.demeaned(self.raw, self.effects, rows)
        return block if self.columns is None else block[:, self.columns]


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
        design, y=solver.residuals(design.y), x=solver.residuals(design.x), solver=solver
    )


def _weighted_r(
    root_w: np.ndarray, x: np.ndarray | DemeanedRows, y: np.ndarray | None = None
) -> np.ndarray:
    """Square R of the Householder QR of root_w * [x | y], y (n,) or (n, R).

    A tall-skinny QR: each block of rows is reduced to its own R, and the
    stacked block factors are reduced once more. The blocks are fixed, so R
    does not depend on whether x is an array or read through `DemeanedRows`.
    """
    k = x.shape[1]
    y_cols = 0 if y is None else int(np.prod(y.shape[1:]))
    buffer = np.empty((_BLOCK_ROWS, k + y_cols))
    factors = []
    for rows in _row_chunks(len(root_w)):
        block = buffer[: rows.stop - rows.start]
        block[:, :k] = x[rows]
        if y is not None:
            block[:, k:] = y[rows].reshape(len(block), y_cols)
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
    when not given. Residuals of shape (n, R) give one (k, k) covariance per
    outcome, stacked as (R, k, k). Raises if X'WX is singular.
    """
    cluster_codes = np.asarray(cluster_codes)
    g = inference_clusters(cluster_codes)
    if r is None:
        r = _weighted_r(np.sqrt(weight), x_demeaned)
    sums = cluster_sums(x_demeaned, weight, residuals, cluster_codes)
    return _sandwich(sums, r, g, len(weight))


def _sandwich(sums: np.ndarray, r: np.ndarray, n_clusters: int, n: int) -> np.ndarray:
    """CR1 covariance from the clusters' scores `sums` (..., clusters, k) and R of
    X'WX = R'R. Raises if X'WX is singular."""
    try:
        r_inv = linalg.solve_triangular(r, np.eye(len(r)))
    except np.linalg.LinAlgError:
        raise ValueError(
            "X'WX is singular; drop collinear columns before computing the covariance"
        ) from None
    half = sums @ r_inv @ r_inv.T  # scores @ (X'WX)^-1, one row per cluster
    return cr1_vcov(np.swapaxes(half, -1, -2), n_clusters, n, len(r))


def cluster_sums(
    x: np.ndarray | DemeanedRows,
    weight: np.ndarray,
    residuals: np.ndarray,
    cluster_codes: np.ndarray,
) -> np.ndarray:
    """Each cluster's sum of w * e * x over its rows: (clusters, k), or (R, clusters, k)."""
    return _score_pass(x, weight, cluster_codes, residuals=residuals)[1]


def _score_pass(
    x: np.ndarray | DemeanedRows,
    weight: np.ndarray,
    cluster_codes: np.ndarray,
    *,
    residuals: np.ndarray | None = None,
    fit: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The residuals and `cluster_sums`, from one read of x.

    Give either the `residuals` or `fit` = (y, beta). With `fit`, the
    residuals y - x @ beta are formed into a new array, chunk by chunk, from
    the rows that the sums read, so a fit demeans its regressors once for
    both. x is read in row order, in groups of whole `_BLOCK_ROWS` chunks
    holding about `_SCORE_BYTES` of it. Each group's sums are one sparse
    product per outcome that adds every cluster's rows in row order, after
    its running sum from the groups before (an extra row with coefficient 1),
    so each sum equals, bit for bit, the one a single product over the whole
    panel gives.
    """
    if residuals is None:
        residuals = np.empty_like(fit[0])
    n, k = x.shape
    sums = np.zeros((int(np.prod(residuals.shape[1:])), int(cluster_codes.max()) + 1, k))
    seen = np.zeros(sums.shape[1], dtype=bool)
    step = _BLOCK_ROWS * max(1, _SCORE_BYTES // (_BLOCK_ROWS * 8 * max(k, 1)))
    buffer = np.empty((min(step, n) + min(step, n, sums.shape[1]), k))
    for start in range(0, n, step):
        group = slice(start, min(start + step, n))
        codes = cluster_codes[group]
        order = np.argsort(codes, kind="stable")
        ordered = codes[order]
        runs = np.flatnonzero(np.append(True, ordered[1:] != ordered[:-1]))
        clusters = ordered[runs]
        carried = seen[clusters]  # clusters that go on from a running sum
        seen[clusters] = True
        size, m = len(codes), int(carried.sum())
        block = buffer[: size + m]  # the group's rows, then the running sums
        for chunk in _row_chunks(size):
            rows = slice(start + chunk.start, start + chunk.stop)
            block[chunk] = x_rows = x[rows]
            if fit is not None:
                residuals[rows] = fit[0][rows] - x_rows @ fit[1]
        we = weight[group] * residuals[group].reshape(size, -1).T
        at = runs[carried]
        product = sparse.csr_matrix(
            (
                np.ones(size + m),
                np.insert(order, at, size + np.arange(m)),
                np.append(runs, size) + np.append(0, np.cumsum(carried)),
            ),
            (len(runs), size + m),
        )
        for one, total in zip(we, sums):
            product.data = np.insert(one[order], at, 1.0)
            block[size:] = total[clusters[carried]]
            total[clusters] = product @ block
    return residuals, sums.reshape(*residuals.shape[1:], *sums.shape[1:])


def cr1_vcov(half: np.ndarray, n_clusters: int, n: int, k: int) -> np.ndarray:
    """The CR1 covariance c * H H', symmetrised, of a (..., k, clusters) influence
    matrix H, with the small-sample factor c = G/(G-1) * (N-1)/(N-K)."""
    v = (n_clusters / (n_clusters - 1)) * ((n - 1) / (n - k)) * half @ np.swapaxes(half, -1, -2)
    return (v + np.swapaxes(v, -1, -2)) / 2.0


@dataclass(frozen=True)
class RegressionFit:
    """Slope estimates from a two-way fixed-effects weighted regression.

    A fit of R outcomes at once holds (R,) coefficient arrays, an (R, k, k)
    `vcov` and (n, R) residuals; the columns and solver diagnostics are shared.
    `se`, `estimate` and `linear_combination` then return (R,) arrays.
    """

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

    @cached_property
    def _position(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.columns)}

    @cached_property
    def _coefs(self) -> np.ndarray:
        return np.array([self.coefficients[c] for c in self.columns])

    def coef_vector(self) -> np.ndarray:
        return self._coefs.copy()

    def se(self, name: str) -> float:
        i = self._position[name]
        return _scalar(np.sqrt(self.vcov[..., i, i]))

    def tstat(self, name: str) -> float:
        """Coefficient over standard error; +-inf or nan when the error is 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(self.coefficients[name]) / self.se(name))

    def pvalue(self, name: str) -> float:
        t = self.tstat(name)
        if not math.isfinite(t):
            return math.nan
        return float(2.0 * special.stdtr(self.df_inference, -abs(t)))

    def estimate(self, name: str) -> Estimate:
        return Estimate(self.coefficients[name], self.se(name), self.df_inference)

    def conf_int(self, name: str) -> tuple[float, float]:
        return self.estimate(name).conf_int()

    def stars(self, name: str) -> str:
        p = self.pvalue(name)
        return "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.10 else ""

    def linear_combination(self, weights: Mapping[str, float]) -> tuple[float, float]:
        """Estimate and standard error of sum_j weights[j] * coefficient[j]."""
        vec = np.zeros(len(self.columns))
        for name, w in weights.items():
            vec[self._position[name]] = w
        est = vec @ self._coefs
        var = vec @ self.vcov @ vec
        if np.ndim(est):
            return est, np.sqrt(np.maximum(var, 0.0))
        return float(est), math.sqrt(max(float(var), 0.0))

    def to_json_dict(self) -> dict:
        ci = {c: self.conf_int(c) for c in self.columns}
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


class AbsorbedError(ValueError):
    """Every regressor column is collinear with the fixed effects."""


def check_support(n: int, k: int) -> None:
    """Raise unless some of the slopes are kept and n rows exceed the k kept by two."""
    if not k:
        raise AbsorbedError(
            "every regressor column is collinear with the fixed effects; nothing to estimate"
        )
    if n < k + 2:
        raise ValueError(
            f"{n} rows cannot support {k} retained parameters; "
            "need at least two more rows than parameters"
        )


def inference_clusters(cluster_codes: np.ndarray) -> int:
    """The number of clusters; raises below the two that t(G-1) inference needs."""
    g = len(np.unique(cluster_codes))
    if g < 2:
        raise ValueError(f"need at least 2 clusters for inference, got {g}")
    return g


def kept_fit(
    names: Sequence[str], keep: np.ndarray, beta: np.ndarray, ratios: np.ndarray, **fit
) -> RegressionFit:
    """The `RegressionFit` of the kept columns' slopes `beta`; `fit` gives its other fields.

    The columns `keep` leaves out are recorded as dropped, with their pivot `ratios`.
    """
    columns = tuple(c for c, k in zip(names, keep) if k)
    return RegressionFit(
        columns=columns,
        coefficients={c: _scalar(v) for c, v in zip(columns, beta)},
        dropped_collinear=tuple(c for c, k in zip(names, keep) if not k),
        pivot_ratios={c: float(ratio) for c, k, ratio in zip(names, keep, ratios) if not k},
        n_obs=len(fit["residuals"]),
        **fit,
    )


def _absorbed_slopes(
    weight: np.ndarray, x: DemeanedRows, y: np.ndarray
) -> tuple[DemeanedRows, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Slopes of the demeaned y on the demeaned x, collinear columns dropped.

    x has at least one column; its columns before absorption scale the pivot
    rule. Returns x narrowed to the kept columns, their mask, their slopes
    ((k,), or (k, R) for an (n, R) y), R of the kept columns (X'WX = R'R)
    and every column's pivot relative to the largest.
    """
    raw_norm = np.sqrt(np.einsum("i,ij,ij->j", weight, x.raw, x.raw))
    root_w = np.sqrt(weight)
    r = _weighted_r(root_w, x, y)
    pivots = np.abs(np.diag(r))[: x.shape[1]]
    largest = pivots.max()
    keep = (pivots > PIVOT_RTOL * largest) & (pivots > PIVOT_RTOL * raw_norm)
    kept = np.flatnonzero(keep)
    check_support(len(weight), len(kept))
    if not keep.all():
        x = replace(x, columns=kept)
        r = _weighted_r(root_w, x, y)
    k = len(kept)
    beta = linalg.solve_triangular(r[:k, :k], r[:k, k:].reshape(k, *y.shape[1:]))
    return x, keep, beta, r[:k, :k], pivots / largest


def wls_fit(design: DesignMatrix) -> RegressionFit:
    """Absorb the fixed effects, drop collinear columns, and solve by QR.

    Residuals are reported on the demeaned scale, which matches the residuals
    of the equivalent dummy-variable regression. Dropped columns are recorded
    by name and excluded from the covariance. An (n, R) `design.y` is fitted
    as R outcomes on the shared regressors. Raises `AbsorbedError` when the
    fixed effects absorb every column.
    """
    if design.x.shape[1] == 0:
        raise ValueError("design matrix has no regressor columns")
    g = inference_clusters(design.cluster_codes)
    # Absorb through the outcome alone: `DemeanedRows` demeans the regressors
    # as they are read.
    dm = demean_two_way(replace(design, columns=(), x=design.x[:, :0]))
    x = DemeanedRows.of(dm.solver, design.x)
    x, keep, beta, r, ratios = _absorbed_slopes(design.weight, x, dm.y)
    residuals, sums = _score_pass(x, design.weight, design.cluster_codes, fit=(dm.y, beta))
    return kept_fit(
        design.columns, keep, beta, ratios,
        vcov=_sandwich(sums, r, g, design.n),
        residuals=residuals,
        n_clusters=g,
        condition=float(np.linalg.cond(r)),
        fe_components=dm.fe_components,
    )
