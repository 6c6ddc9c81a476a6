"""Heterogeneity-robust estimators for staggered adoption.

Three estimators, all anchored to each cohort's last untreated period:

* group-time ATTs from long differences against a clean control pool,
  aggregated with treated-share weights;
* an interaction-weighted event study that saturates cohort x relative
  period cells and averages them with cohort-share weights;
* an imputation estimator that fits unit and period effects on untreated
  observations only and reads effects off the treated residuals.

Group-time and imputation standard errors come from a cluster bootstrap over
units; duplicated units re-enter as multiplicity weights, which leaves every
within-unit mean unchanged, so every draw's normal equations, covariate
columns included, are one matrix product of per-unit blocks and are solved in
one batch. A draw whose pivots fail a fixed margin (an empty period, unlinked
units and periods, a nearly collinear column) is re-fit alone by the routine
the point estimate uses. The event study inherits the engine's analytic
covariance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
from scipy import stats

from .designs import CovariateTerm, expand_covariates
from .engine import DesignMatrix, RegressionFit, TwoWaySolver, _absorbed_slopes, wls_fit
from .panel import PanelDataset, cohort_start, unit_values
from .periods import Period

NEVER = -1
_Z95 = float(stats.norm.ppf(0.975))
# Least ratio of each pivot of a bootstrap draw's normal equations to its
# column's squared norm (the squared sine of the column's angle to the columns
# before it) for the draw to be solved in the batch. At this margin the
# normal equations lose at most about six of the sixteen digits.
_MARGIN = 1e-6
# About the bytes of the covariate blocks and systems of one batch of
# imputation draws.
_CHUNK_BYTES = 1 << 21


@dataclass(frozen=True)
class _Grid:
    """Per-unit view of a panel: outcome and weight laid out unit x period."""

    y: np.ndarray       # (U, T), nan where missing
    w: np.ndarray       # (U, T), 0 where missing
    mask: np.ndarray    # (U, T) bool
    units: tuple[str, ...]
    periods: tuple[Period, ...]
    unit_weight: np.ndarray   # (U,) scalar weight used for group means
    start: np.ndarray         # (U,) cohort start period index, math.inf if never
    cohort_starts: tuple[Period, ...]  # distinct in-window cohorts, sorted

    @property
    def never(self) -> np.ndarray:
        return ~np.isfinite(self.start)


def _build_grid(
    data: PanelDataset,
    cohorts: Mapping[str, Period | None],
    weights: Mapping[str, float] | None,
) -> _Grid:
    a = data.arrays
    u_count, t_count = len(a.units), len(a.periods)
    start = cohort_start(data, cohorts)
    y = np.full((u_count, t_count), np.nan)
    w = np.zeros((u_count, t_count))
    y[a.unit_codes, a.period_codes] = a.outcome
    w[a.unit_codes, a.period_codes] = a.weight
    mask = w > 0
    if weights is None:
        unit_weight = w.sum(axis=1) / mask.sum(axis=1)
    else:
        unit_weight = np.asarray(unit_values(data, weights, "unit weight"), dtype=float)
        if np.any(unit_weight <= 0):
            raise ValueError("unit weights must be positive")
    cohort_starts = tuple(
        Period.from_index(int(i)) for i in np.unique(start[np.isfinite(start)])
    )
    return _Grid(y, w, mask, a.units, a.periods, unit_weight, start, cohort_starts)


def _region_constant_matrix(
    data: PanelDataset, names: Sequence[str]
) -> np.ndarray:
    cols = []
    for name in names:
        values = data.region_constant(name)
        cols.append([values[u] for u in data.units])
    return np.asarray(cols, dtype=float).T if cols else np.empty((len(data.units), 0))


# ---------------------------------------------------------------------------
# group-time ATTs


@dataclass(frozen=True)
class GroupTimeCell:
    cohort: Period
    period: Period
    att: float
    se: float
    treated_weight: float

    @property
    def event_time(self) -> int:
        return self.period.index - self.cohort.index

    def conf_int(self) -> tuple[float, float]:
        return self.att - _Z95 * self.se, self.att + _Z95 * self.se


@dataclass(frozen=True)
class GroupTimeATT:
    """Group-time effects plus the bootstrap draws behind their uncertainty."""

    entries: tuple[GroupTimeCell, ...]
    control_rule: str
    seed: int | None
    bootstrap_draws: int
    boot: np.ndarray | None  # (draws, n_entries), aligned with entries

    estimator = "cs_att"

    def entry(self, cohort: Period, period: Period) -> GroupTimeCell:
        for cell in self.entries:
            if cell.cohort == cohort and cell.period == period:
                return cell
        raise KeyError(f"no entry for cohort {cohort} period {period}")

    def to_json_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "control_rule": self.control_rule,
            "seed": self.seed,
            "bootstrap_draws": self.bootstrap_draws,
            "entries": [
                {
                    "cohort": str(c.cohort),
                    "period": str(c.period),
                    "event_time": c.event_time,
                    "att": c.att,
                    "se": c.se,
                    "conf_low": c.conf_int()[0],
                    "conf_high": c.conf_int()[1],
                }
                for c in self.entries
            ],
        }


CONTROL_RULES = ("never_treated", "not_yet_treated")


def cs_att(
    data: PanelDataset,
    cohorts: Mapping[str, Period | None],
    control_rule: str = "never_treated",
    weights: Mapping[str, float] | None = None,
    *,
    covariates: Sequence[str] = (),
    include_pre: bool = False,
    bootstrap_draws: int = 999,
    seed: int | None = None,
) -> GroupTimeATT:
    """Group-time average treatment effects by long differences.

    ATT(g, t) compares the outcome change from g's last pre-period to t
    between cohort g and a control pool: units never treated in the window,
    or (under `not_yet_treated`) units still untreated at the later of t and
    the base period. With `covariates`, the control change is first adjusted
    by a weighted linear fit on the named region-constant covariates.

    Cohorts whose base period is not in the panel are skipped with a warning,
    as are cells with an empty treated or control set. Standard errors come
    from a multinomial cluster bootstrap over units; `seed` is required
    whenever `bootstrap_draws` is positive.
    """
    if control_rule not in CONTROL_RULES:
        raise ValueError(
            f"unknown control rule {control_rule!r}; valid rules: {CONTROL_RULES}"
        )
    if bootstrap_draws < 0:
        raise ValueError("bootstrap_draws must be non-negative")
    if bootstrap_draws > 0 and seed is None:
        raise ValueError("a seed is required when bootstrap draws are requested")
    grid = _build_grid(data, cohorts, weights)
    z = _region_constant_matrix(data, covariates)
    period_ix = {p: j for j, p in enumerate(grid.periods)}
    period_index = np.asarray([p.index for p in grid.periods])

    specs = []  # (cohort, period, delta, treated_sel, control_sel)
    for g in grid.cohort_starts:
        base = g.prev()
        if base not in period_ix:
            warnings.warn(
                f"cohort {g}: base period {base} is not in the panel; cohort skipped"
            )
            continue
        b_col = period_ix[base]
        in_cohort = grid.start == g.index
        for j, t in enumerate(grid.periods):
            if t == base:
                continue
            if not include_pre and t < g:
                continue
            valid = grid.mask[:, j] & grid.mask[:, b_col]
            treated_sel = in_cohort & valid
            horizon = max(period_index[j], base.index)
            if control_rule == "never_treated":
                control_sel = grid.never & valid
            else:
                control_sel = (grid.start > horizon) & ~in_cohort & valid
            if not treated_sel.any():
                warnings.warn(f"ATT({g}, {t}): no treated units observed; entry omitted")
                continue
            if not control_sel.any():
                warnings.warn(f"ATT({g}, {t}): control set is empty; entry omitted")
                continue
            delta = grid.y[:, j] - grid.y[:, b_col]
            specs.append((g, t, delta, treated_sel, control_sel))

    def cell_att(delta, tsel, csel, uw) -> float:
        tw, cw = uw[tsel], uw[csel]
        if tw.sum() <= 0 or cw.sum() <= 0:
            return np.nan
        if z.shape[1] == 0:
            return float(
                np.average(delta[tsel], weights=tw) - np.average(delta[csel], weights=cw)
            )
        design = np.column_stack([np.ones(csel.sum()), z[csel]])
        root = np.sqrt(cw)
        beta, *_ = np.linalg.lstsq(design * root[:, None], delta[csel] * root, rcond=None)
        predicted = np.column_stack([np.ones(tsel.sum()), z[tsel]]) @ beta
        return float(np.average(delta[tsel] - predicted, weights=tw))

    atts = np.asarray([cell_att(d, t, c, grid.unit_weight) for _, _, d, t, c in specs])

    boot = None
    if bootstrap_draws > 0 and specs:
        rng = np.random.Generator(np.random.Philox(key=_philox_key(seed, 0)))
        u_count, k = z.shape
        m = rng.multinomial(
            u_count, np.full(u_count, 1.0 / u_count), size=bootstrap_draws
        ).astype(float)
        uw = grid.unit_weight
        # Control regressions in Frisch-Waugh form on z centred once:
        # ATT = (tn/td - cn/cd) - (mean z treated - mean z control)' gamma.
        z0 = z - np.average(z, axis=0, weights=uw)
        zz = (z0[:, :, None] * z0[:, None, :]).reshape(u_count, k * k)
        boot = np.full((bootstrap_draws, len(specs)), np.nan)
        for e, (_, _, delta, tsel, csel) in enumerate(specs):
            d0 = np.where(np.isnan(delta), 0.0, delta)
            tn = m @ (uw * d0 * tsel)
            td = m @ (uw * tsel)
            cn = m @ (uw * d0 * csel)
            cd = m @ (uw * csel)
            live = np.flatnonzero((td > 0) & (cd > 0))
            cw = uw * csel
            sz = (m @ (cw[:, None] * z0))[live]
            zc = sz / cd[live, None]
            gram = (m @ (cw[:, None] * zz))[live].reshape(len(live), k, k)
            raw = np.diagonal(gram, axis1=1, axis2=2)
            gamma, ok = _certified_solve(
                gram - sz[:, :, None] * zc[:, None, :],
                (m @ ((cw * d0)[:, None] * z0))[live] - sz * (cn[live] / cd[live])[:, None],
                raw,
            )
            zt = (m @ ((uw * tsel)[:, None] * z0))[live] / td[live, None]
            boot[live, e] = (
                tn[live] / td[live] - cn[live] / cd[live] - ((zt - zc) * gamma).sum(axis=1)
            )
            for b in live[~ok]:
                keep = m[b] > 0
                boot[b, e] = cell_att(delta, tsel & keep, csel & keep, uw * m[b])

    entries = []
    for e, (g, t, _, tsel, _) in enumerate(specs):
        se = math.nan if boot is None else _boot_se(boot[:, e])
        entries.append(
            GroupTimeCell(
                cohort=g,
                period=t,
                att=float(atts[e]),
                se=se,
                treated_weight=float(grid.unit_weight[tsel].sum()),
            )
        )
    return GroupTimeATT(
        entries=tuple(entries),
        control_rule=control_rule,
        seed=seed,
        bootstrap_draws=bootstrap_draws if boot is not None else 0,
        boot=boot,
    )


@dataclass(frozen=True)
class AggregateValue:
    estimate: float
    se: float

    def conf_int(self) -> tuple[float, float]:
        return self.estimate - _Z95 * self.se, self.estimate + _Z95 * self.se


@dataclass(frozen=True)
class Aggregation:
    """Treated-share-weighted summaries of group-time effects."""

    kind: str
    values: Mapping[object, AggregateValue]

    def to_json_dict(self) -> dict:
        out = {}
        for key, v in self.values.items():
            low, high = v.conf_int()
            out[str(key)] = {
                "estimate": v.estimate, "se": v.se,
                "conf_low": low, "conf_high": high,
            }
        return {"kind": self.kind, "values": out}


AGGREGATION_KINDS = ("overall", "by_event_time", "by_cohort")


def cs_aggregate(result: GroupTimeATT, kind: str = "overall") -> Aggregation:
    """Aggregate group-time effects with weights proportional to treated weight.

    `overall` averages every post-treatment entry into one number;
    `by_event_time` groups entries by t - g (pre-treatment entries appear at
    negative keys when present); `by_cohort` averages each cohort's
    post-treatment entries. Weights are renormalized within each reported
    key, so they sum to one per value.
    """
    if kind not in AGGREGATION_KINDS:
        raise ValueError(f"unknown aggregation {kind!r}; valid kinds: {AGGREGATION_KINDS}")
    post = [
        (i, cell) for i, cell in enumerate(result.entries)
        if cell.period >= cell.cohort
    ]
    if kind == "by_event_time":
        pool = list(enumerate(result.entries))
        keyed: dict[object, list[tuple[int, GroupTimeCell]]] = {}
        for i, cell in pool:
            keyed.setdefault(cell.event_time, []).append((i, cell))
    elif kind == "by_cohort":
        keyed = {}
        for i, cell in post:
            keyed.setdefault(cell.cohort, []).append((i, cell))
    else:
        keyed = {"overall": post}
    if not any(keyed.values()):
        raise ValueError("no entries to aggregate")
    values: dict[object, AggregateValue] = {}
    for key in sorted(keyed, key=str):
        members = keyed[key]
        if not members:
            continue
        w = np.asarray([cell.treated_weight for _, cell in members])
        w = w / w.sum()
        estimate = float(np.dot(w, [cell.att for _, cell in members]))
        if result.boot is not None:
            cols = result.boot[:, [i for i, _ in members]]
            combined = cols @ w
            valid = np.isfinite(combined)
            se = float(np.std(combined[valid], ddof=1)) if valid.sum() > 1 else math.nan
        else:
            se = math.nan
        values[key] = AggregateValue(estimate, se)
    return Aggregation(kind=kind, values=values)


# ---------------------------------------------------------------------------
# interaction-weighted event study


@dataclass(frozen=True)
class EventTimeValue:
    estimate: float
    se: float
    df: int

    def conf_int(self) -> tuple[float, float]:
        crit = float(stats.t.ppf(0.975, self.df))
        return self.estimate - crit * self.se, self.estimate + crit * self.se


@dataclass(frozen=True)
class EventStudyResult:
    """Cohort-share-weighted event-time path and the saturated fit behind it."""

    entries: Mapping[int, EventTimeValue]
    cohort_shares: Mapping[int, Mapping[Period, float]]
    fit: RegressionFit

    estimator = "sa_event_study"

    def overall(self) -> tuple[float, float]:
        """Post-treatment average weighted by treated share at each horizon."""
        weights: dict[str, float] = {}
        total = 0.0
        for e, shares in self.cohort_shares.items():
            if e < 0:
                continue
            horizon_weight = sum(shares.values())
            total += horizon_weight
            for cohort, share in shares.items():
                name = _sa_name(cohort, e)
                weights[name] = weights.get(name, 0.0) + share
        if total <= 0:
            raise ValueError("no post-treatment horizons to average")
        weights = {k: v / total for k, v in weights.items()}
        return self.fit.linear_combination(weights)

    def to_json_dict(self) -> dict:
        out = {}
        for e in sorted(self.entries):
            v = self.entries[e]
            low, high = v.conf_int()
            out[str(e)] = {
                "estimate": v.estimate, "se": v.se,
                "conf_low": low, "conf_high": high,
            }
        return {"estimator": self.estimator, "entries": out}


def _sa_name(cohort: Period, event: int) -> str:
    return f"e{event}@{cohort}"


def sa_event_study(
    data: PanelDataset,
    cohorts: Mapping[str, Period | None],
    covariates: Sequence[CovariateTerm] = (),
    weights: Mapping[str, float] | None = None,
) -> EventStudyResult:
    """Event study from saturated cohort x relative-period interactions.

    Each cohort gets its own indicator for every relative period except -1;
    never-treated units carry no interactions and act as the comparison. When
    no never-treated units exist, the last cohort serves as the control and
    periods from its start onward are dropped (with a warning). Event-time
    estimates average cohort coefficients with weights proportional to each
    contributing cohort's total unit weight; covariance comes from the
    engine's cluster-robust fit via the same linear combination.
    """
    grid = _build_grid(data, cohorts, weights)
    if not grid.cohort_starts:
        raise ValueError("no treated cohorts in the panel window")
    interacted = list(grid.cohort_starts)
    sample = data
    if not grid.never.any():
        if len(interacted) < 2:
            raise ValueError(
                "need never-treated units or at least two cohorts to identify the event study"
            )
        control_cohort = interacted.pop()
        warnings.warn(
            f"no never-treated units: cohort {control_cohort} serves as the "
            f"control and periods from {control_cohort} on are dropped"
        )
        keep = {p for p in data.periods if p < control_cohort}
        sample = _restrict_periods(data, keep)
        grid = _build_grid(sample, cohorts, weights)

    a = sample.arrays
    unit_start = grid.start[:]
    names: list[str] = []
    cols: list[np.ndarray] = []
    events_of: dict[str, tuple[Period, int]] = {}
    for g in interacted:
        in_cohort = (unit_start == g.index)[a.unit_codes]
        for j, t in enumerate(a.periods):
            e = t.index - g.index
            if e == -1:
                continue
            name = _sa_name(g, e)
            names.append(name)
            cols.append(in_cohort * (a.period_codes == j).astype(float))
            events_of[name] = (g, e)
    if not names:
        raise ValueError("no cohort x period cells to estimate")
    cov_names, cov_matrix = expand_covariates(sample, tuple(covariates))
    x = np.column_stack(cols + ([cov_matrix] if cov_matrix.size else []))
    row_weight = None if weights is None else grid.unit_weight[a.unit_codes]
    design = DesignMatrix.from_panel(sample, names + cov_names, x, weight=row_weight)
    fit = wls_fit(design)

    cohort_weight = {
        g: float(grid.unit_weight[unit_start == g.index].sum()) for g in interacted
    }
    by_event: dict[int, dict[Period, float]] = {}
    for name in fit.columns:
        if name not in events_of:
            continue
        g, e = events_of[name]
        by_event.setdefault(e, {})[g] = cohort_weight[g]
    entries: dict[int, EventTimeValue] = {}
    shares: dict[int, dict[Period, float]] = {}
    for e, contrib in sorted(by_event.items()):
        total = sum(contrib.values())
        share = {g: w / total for g, w in contrib.items()}
        est, se = fit.linear_combination(
            {_sa_name(g, e): s for g, s in share.items()}
        )
        entries[e] = EventTimeValue(est, se, fit.df_inference)
        shares[e] = {g: contrib[g] for g in contrib}
    return EventStudyResult(entries=entries, cohort_shares=shares, fit=fit)


def _restrict_periods(data: PanelDataset, keep: set[Period]) -> PanelDataset:
    rows = np.asarray([p in keep for p in data.periods])[data.arrays.period_codes]
    if not rows.any():
        raise ValueError("restriction removed every observation")
    return data._subset(rows)


# ---------------------------------------------------------------------------
# imputation


@dataclass(frozen=True)
class ImputedCell:
    unit: str
    period: Period
    effect: float
    weight: float


@dataclass(frozen=True, eq=False)
class ImputationResult:
    """Treated-cell effects measured against an untreated-sample prediction.

    The per-cell effects are kept as arrays over the treated rows: unit and
    period codes into `units` and `periods`, effect, and weight. `effects`
    turns them into `ImputedCell`s on first access.
    """

    aggregate: float
    se: float
    n_treated: int
    n_untreated: int
    dropped_collinear: tuple[str, ...]
    seed: int | None
    bootstrap_draws: int
    units: tuple[str, ...]
    periods: tuple[Period, ...]
    unit_codes: np.ndarray
    period_codes: np.ndarray
    effect_values: np.ndarray
    effect_weights: np.ndarray

    estimator = "impute_att"

    @cached_property
    def effects(self) -> tuple[ImputedCell, ...]:
        return tuple(map(
            ImputedCell,
            [self.units[c] for c in self.unit_codes.tolist()],
            [self.periods[c] for c in self.period_codes.tolist()],
            self.effect_values.tolist(),
            self.effect_weights.tolist(),
        ))

    def conf_int(self) -> tuple[float, float]:
        return self.aggregate - _Z95 * self.se, self.aggregate + _Z95 * self.se

    def to_json_dict(self) -> dict:
        low, high = self.conf_int()
        return {
            "estimator": self.estimator,
            "aggregate": self.aggregate,
            "se": self.se,
            "conf_low": low,
            "conf_high": high,
            "n_treated": self.n_treated,
            "n_untreated": self.n_untreated,
            "seed": self.seed,
            "bootstrap_draws": self.bootstrap_draws,
        }


def _untreated_gaps(
    x: np.ndarray, w: np.ndarray, sample: np.ndarray, data: PanelDataset
) -> tuple[np.ndarray, np.ndarray]:
    """Gaps of the outcome from a fit on the sample rows only.

    One two-way solve on the sample gives the slopes on the columns of x and
    then the unit and period effects of the outcome net of those slopes.
    Every row gets a gap; rows of units without sample weight get nan. Also
    returns the mask of columns of x kept by the slope fit. Raises unless
    the sample rows tie every period and weighted unit together.
    """
    a = data.arrays
    ws = w[sample]
    solver = TwoWaySolver(
        ws, a.unit_codes[sample], a.period_codes[sample], len(a.units), len(a.periods)
    )
    if solver.components > 1 or np.any(solver.period_weight <= 0):
        raise ValueError(
            "untreated observations do not connect all units and periods; "
            "the fixed effects are not identified"
        )
    y, keep = a.outcome, np.ones(x.shape[1], dtype=bool)
    if x.shape[1]:
        xs, ys = x[sample], y[sample]
        keep, beta, *_ = _absorbed_slopes(ws, xs, solver.residuals(xs), solver.residuals(ys))
        y = y - x[:, keep] @ beta
    alpha, lam = solver.effects(y[sample])
    return y - alpha[a.unit_codes] - lam[a.period_codes], keep


def impute_att(
    data: PanelDataset,
    cohorts: Mapping[str, Period | None],
    covariates: Sequence[CovariateTerm] = (),
    weights: Mapping[str, float] | None = None,
    *,
    bootstrap_draws: int = 999,
    seed: int | None = None,
) -> ImputationResult:
    """Impute untreated outcomes for treated cells and average the gaps.

    Stage one fits unit effects, period effects, and any planned covariate
    columns on untreated observations only. Stage two predicts each treated
    cell's untreated outcome and records the difference; the aggregate is the
    treated-weight-weighted mean of those differences. Standard errors use a
    multinomial cluster bootstrap over units.
    """
    if bootstrap_draws < 0:
        raise ValueError("bootstrap_draws must be non-negative")
    if bootstrap_draws > 0 and seed is None:
        raise ValueError("a seed is required when bootstrap draws are requested")
    a = data.arrays
    grid = _build_grid(data, cohorts, weights)
    period_index = np.asarray([p.index for p in a.periods])
    treated_rows = period_index[a.period_codes] >= grid.start[a.unit_codes]
    if not treated_rows.any():
        raise ValueError("no treated observations; nothing to impute")
    if treated_rows.all():
        raise ValueError(
            "every observation is treated; the untreated sample is empty"
        )

    untr = ~treated_rows
    treated_units_without_pre = sorted(
        {a.units[c] for c in np.unique(a.unit_codes[treated_rows])}
        - {a.units[c] for c in np.unique(a.unit_codes[untr])}
    )
    if treated_units_without_pre:
        raise ValueError(
            f"treated unit(s) {treated_units_without_pre[:5]} have no untreated "
            "observations; their unit effects cannot be estimated"
        )
    periods_without_untreated = sorted(
        {str(a.periods[c]) for c in np.unique(a.period_codes[treated_rows])}
        - {str(a.periods[c]) for c in np.unique(a.period_codes[untr])}
    )
    if periods_without_untreated:
        raise ValueError(
            f"period(s) {periods_without_untreated[:5]} have treated observations "
            "but no untreated ones; their period effects cannot be estimated"
        )

    row_weight = a.weight if weights is None else grid.unit_weight[a.unit_codes]
    cov_names, cov_matrix = expand_covariates(data, tuple(covariates))
    effect_rows, keep = _untreated_gaps(cov_matrix, row_weight, untr, data)
    cov_matrix = cov_matrix[:, keep]
    t_ix = np.flatnonzero(treated_rows)
    w_treated = row_weight[t_ix]
    aggregate = float(np.average(effect_rows[t_ix], weights=w_treated))

    se = math.nan if bootstrap_draws <= 0 else _impute_bootstrap(
        data, cov_matrix, row_weight, untr, treated_rows, bootstrap_draws, seed
    )
    return ImputationResult(
        aggregate=aggregate,
        se=se,
        n_treated=int(treated_rows.sum()),
        n_untreated=int(untr.sum()),
        dropped_collinear=tuple(c for c, k in zip(cov_names, keep) if not k),
        seed=seed,
        bootstrap_draws=bootstrap_draws,
        units=a.units,
        periods=a.periods,
        unit_codes=a.unit_codes[t_ix],
        period_codes=a.period_codes[t_ix],
        effect_values=effect_rows[t_ix],
        effect_weights=w_treated,
    )


def _philox_key(seed: int, stream: int) -> np.ndarray:
    return np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)


def _boot_se(draws: np.ndarray) -> float:
    """Standard deviation of the finite bootstrap draws; nan with fewer than two."""
    finite = draws[np.isfinite(draws)]
    return float(np.std(finite, ddof=1)) if len(finite) > 1 else math.nan


def _certified_solve(
    a: np.ndarray, rhs: np.ndarray, raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve in one batch the draws' systems a x = rhs that their pivots certify.

    A draw is certified when each pivot of an LDL' elimination in column
    order (a column's squared norm once the columns before it are projected
    out) exceeds _MARGIN times its raw squared norm `raw`. Returns the
    solutions, zero for the other draws, and the certified mask.
    """
    work = a.copy()
    ok = np.ones(len(a), dtype=bool)
    for j in range(a.shape[1]):
        pivot = work[:, j, j]
        clear = pivot > _MARGIN * raw[:, j]
        ok &= clear
        scale = np.divide(1.0, pivot, out=np.zeros_like(pivot), where=clear)
        col = work[:, j + 1:, j]
        work[:, j + 1:, j + 1:] -= col[:, :, None] * (col * scale[:, None])[:, None, :]
    x = np.zeros(rhs.shape)
    x[ok] = np.linalg.solve(a[ok], rhs[ok][:, :, None])[:, :, 0]
    return x, ok


def _impute_bootstrap(
    data: PanelDataset,
    x: np.ndarray,
    w: np.ndarray,
    untr: np.ndarray,
    treated_rows: np.ndarray,
    draws: int,
    seed: int,
) -> float:
    """Batched bootstrap SE of the imputation aggregate with covariate columns x.

    Resampled units enter as multinomial multiplicities, which leave every
    within-unit mean unchanged. With the unit effects eliminated, each draw's
    system in the period effects (first period anchored) and the slopes, and
    its treated sums, are linear in the multiplicities. A draw the pivots do
    not certify is re-fit alone by `_untreated_gaps`.
    """
    a = data.arrays
    u_count, t_count, k = len(a.units), len(a.periods), x.shape[1]

    def grid(values, rows):
        out = np.zeros((u_count, t_count) + values.shape[1:])
        out[a.unit_codes[rows], a.period_codes[rows]] = values
        return out

    uu, wu, yu = a.unit_codes[untr], w[untr], a.outcome[untr]
    ut, wt = a.unit_codes[treated_rows], w[treated_rows]
    wsum_u = np.bincount(uu, weights=wu, minlength=u_count)
    wy_u = np.bincount(uu, weights=wu * yu, minlength=u_count)
    ty_sum = np.bincount(ut, weights=wt * a.outcome[treated_rows], minlength=u_count)
    tw_sum = np.bincount(ut, weights=wt, minlength=u_count)
    a_grid, wy_grid, tw_grid = grid(wu, untr), grid(wu * yu, untr), grid(wt, treated_rows)
    active = wsum_u > 0
    ratio_u = np.where(active, wy_u / np.where(active, wsum_u, 1.0), 0.0)
    inv = np.where(active, 1.0 / np.where(active, wsum_u, 1.0), 0.0)
    rng = np.random.Generator(np.random.Philox(key=_philox_key(seed, 0)))
    m = rng.multinomial(u_count, np.full(u_count, 1.0 / u_count), size=draws).astype(float)
    # Each draw's period block: the period weights on the diagonal, less the
    # per-unit outer products of the period weights over the unit's weight.
    # It and the periods' right-hand side are one product over all draws, as
    # without covariates: a product split by rows differs in its last bits.
    d_t = m @ a_grid                                  # (draws, T)
    p_unit = a_grid[:, :, None] * a_grid[:, None, :]
    p_unit *= inv[:, None, None]
    b_all = m @ p_unit.reshape(u_count, t_count * t_count)
    del p_unit
    b_all = np.negative(b_all, out=b_all).reshape(draws, t_count, t_count)
    b_all[:, np.arange(t_count), np.arange(t_count)] += d_t
    c_all = m @ (wy_grid - a_grid * ratio_u[:, None])  # (draws, T)
    # Per-unit blocks of the slopes' columns: cross products of x centred on
    # its untreated unit mean, with itself, the outcome and the periods.
    x_grid = grid(x, slice(None))
    tx_u = np.einsum("ut,utk->uk", tw_grid, x_grid)
    sx_u = np.einsum("ut,utk->uk", a_grid, x_grid)
    xsq_u = np.einsum("ut,utk,utk->uk", a_grid, x_grid, x_grid)
    x_grid -= (sx_u * inv[:, None])[:, None, :]
    xy_u = np.einsum("ut,utk->uk", wy_grid, x_grid)
    xx_u = np.einsum("ut,utk,utl->ukl", a_grid, x_grid, x_grid).reshape(u_count, k * k)
    x_grid *= a_grid[:, :, None]
    tx_grid = x_grid[:, 1:].reshape(u_count, (t_count - 1) * k)
    n, p = t_count - 1 + k, t_count - 1
    theta = np.zeros((draws, n))
    ok = np.zeros(draws, dtype=bool)
    step = max(1, _CHUNK_BYTES // (32 * n * n))
    for lo in range(0, draws, step):
        rows = slice(lo, lo + step)
        mc = m[rows]
        q = (mc @ tx_grid).reshape(len(mc), p, k)
        system = np.block([[b_all[rows, 1:, 1:], q],
                           [q.transpose(0, 2, 1), (mc @ xx_u).reshape(len(mc), k, k)]])
        rhs = np.hstack([c_all[rows, 1:], mc @ xy_u])
        raw = np.hstack([d_t[rows, 1:], mc @ xsq_u])
        theta[rows], ok[rows] = _certified_solve(system, rhs, raw)
    lam = np.hstack([np.zeros((draws, 1)), theta[:, :p]])  # first period anchored at 0
    gamma = theta[:, p:]
    # alpha per draw: within-unit means are multiplicity-invariant.
    alpha = (wy_u[None, :] - lam @ a_grid.T - gamma @ sx_u.T) * inv[None, :]   # (draws, U)
    contrib = ty_sum[None, :] - alpha * tw_sum[None, :] - lam @ tw_grid.T - gamma @ tx_u.T
    num = (m * contrib).sum(axis=1)
    den = (m * tw_sum[None, :]).sum(axis=1)
    out = np.full(draws, np.nan)
    np.divide(num, den, out=out, where=ok & (den > 0))
    for i in np.flatnonzero(~ok & (den > 0)):
        wb = w * m[i][a.unit_codes]
        try:
            gaps = _untreated_gaps(x, wb, untr & (wb > 0), data)[0]
        except ValueError:
            continue
        drawn = treated_rows & (wb > 0)
        out[i] = np.average(gaps[drawn], weights=wb[drawn])
    return _boot_se(out)
