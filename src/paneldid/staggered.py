"""Heterogeneity-robust estimators for staggered adoption.

Three estimators, all anchored to each cohort's last untreated period:

* group-time ATTs from long differences against a clean control pool,
  aggregated with treated-share weights;
* an interaction-weighted event study that saturates cohort x relative
  period cells and averages them with cohort-share weights;
* an imputation estimator that fits unit and period effects on untreated
  observations only and reads effects off the treated residuals.

Each reads the panel's units x periods layout, calendar time and cohorts
from `panel`: `PanelArrays.grid`, `PanelArrays.period_index`,
`cohort_start` and `cohorts_in`.

Group-time and imputation standard errors come from a multinomial bootstrap
over units, not over the panel's clusters (a warning says so when clusters
hold several units); the event study, like the TWFE engine, uses the
clusters for its CR1 covariance. Duplicated units re-enter as multiplicity
weights, which leaves every within-unit mean unchanged, so every draw's
normal equations, covariate columns included, are products of the
(draws, U) multiplicities with per-unit columns. The group-time bootstrap
stacks the columns of a chunk of cells into one product and solves the
chunk's draws in one batch; the imputation bootstrap forms the upper
triangle of its period block only, packed, in column blocks of one product
each. Each draw's matrix is factorised alone, but the products round by
chunk, so bootstrap SEs depend in their last bits on the BLAS build and on
the chunk layout (`_CHUNK_BYTES`). A draw whose pivots fail a
fixed margin (an empty period, unlinked units and periods, a nearly collinear
column) is re-fit alone by the routine the point estimate uses. The event
study has an analytic CR1 covariance from one two-way solve over cohort x
period levels, its covariate slopes partialled out by Frisch-Waugh. Every
interval is an `engine.Estimate`'s: a normal critical value for the
bootstrap errors and t(G-1) for the event study's.

A panel may stack R outcomes on one layout (`PanelDataset.with_outcome`).
Every estimator then returns its point estimates, and the event study its
CR1 errors, as (R,) arrays from one pass over the layout; each group-time
cell's ATT still rounds as it would alone. The bootstrap takes one outcome
at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .designs import CovariateTerm, expand_covariates
from .engine import (
    AbsorbedError, DemeanedRows, DesignMatrix, Estimate, RegressionFit, TwoWaySolver,
    _absorbed_slopes, _scalar, check_support, cluster_sums, cr1_vcov, fe_components,
    inference_clusters, kept_fit, wls_fit,
)
from .panel import PanelArrays, PanelDataset, cohort_start, cohorts_in, unit_values
from .periods import Period

NEVER = -1
# Least ratio of each pivot of a bootstrap draw's normal equations to its
# column's squared norm (the squared sine of the column's angle to the columns
# before it) for the draw to be solved in the batch. At this margin the
# normal equations lose at most about six of the sixteen digits.
_MARGIN = 1e-6
# About the bytes of one chunk of the bootstraps' work: the per-unit columns
# and draw sums of a chunk of group-time cells, a column block of the
# imputation period block's packed triangle, and a batch of imputation draws
# (32 n^2 bytes a draw, four (n, n) arrays: its system, its Cholesky factor
# or the copy that is solved, and their slack). A product rounds by chunk,
# so another size moves bootstrap SEs in their last bits.
_CHUNK_BYTES = 1 << 21


def _mean(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted mean along the last axis, each row summed as `np.average` sums it."""
    return (values * weights).sum(axis=-1) / weights.sum()


def _unit_weight(data: PanelDataset, weights: Mapping[str, float] | None) -> np.ndarray:
    """Each unit's weight in group means: `weights`, else its mean row weight."""
    if weights is None:  # summed on the grid: a bincount rounds in another order
        w = data.arrays.grid(data.arrays.weight)
        return w.sum(axis=1) / (w > 0).sum(axis=1)
    unit_weight = np.asarray(unit_values(data, weights, "unit weight"), dtype=float)
    bad = np.flatnonzero(~(np.isfinite(unit_weight) & (unit_weight > 0)))
    if bad.size:
        raise ValueError(f"unit weights must be finite and positive; unit "
                         f"{data.units[bad[0]]!r} has {float(unit_weight[bad[0]])!r}")
    return unit_weight


# ---------------------------------------------------------------------------
# group-time ATTs


@dataclass(frozen=True)
class GroupTimeCell:
    cohort: Period
    period: Period
    att: float | np.ndarray  # (R,) on a stacked panel
    se: float
    treated_weight: float

    @property
    def event_time(self) -> int:
        return self.period.index - self.cohort.index

    def conf_int(self) -> tuple[float, float]:
        return Estimate(self.att, self.se).conf_int()


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
    as are cells with an empty treated or control set and cells whose
    weighted control design [1, covariates] has rank below its column count.
    Standard errors come from a multinomial bootstrap over units, not over
    the panel's clusters, which TWFE and `sa_event_study` use for CR1; with
    draws on a panel whose clusters hold several units, a `UserWarning` says
    so. A draw whose control design is rank-deficient is not identified and
    is skipped. `seed` is required whenever `bootstrap_draws` is positive.
    """
    if control_rule not in CONTROL_RULES:
        raise ValueError(
            f"unknown control rule {control_rule!r}; valid rules: {CONTROL_RULES}"
        )
    _check_bootstrap(data, bootstrap_draws, seed)
    a = data.arrays
    start = cohort_start(data, cohorts)
    unit_weight = _unit_weight(data, weights)
    # (U, T), or (R, U, T) for stacked outcomes; nan where unobserved
    y = np.moveaxis(a.grid(a.outcome, fill=np.nan), (0, 1), (-2, -1))
    observed = a.grid(np.ones(len(a.weight), dtype=bool), fill=False)
    # A transposed (K, U) array: the bootstrap's column means round in this layout.
    z = np.asarray([data.region_constant(c) for c in covariates]).reshape(-1, len(a.units)).T
    period_ix = {p: j for j, p in enumerate(a.periods)}

    def cell_att(delta, tsel, csel, uw) -> float:
        """ATT of one cell; nan if a side has no weight or the control design lacks rank.

        Stacked long differences (R, U) give (R,) ATTs; each row's means are
        taken over a contiguous row, so they round as a single outcome's do.
        """
        tw, cw = uw[tsel], uw[csel]
        if tw.sum() <= 0 or cw.sum() <= 0:
            return np.nan
        treated, control = np.compress(tsel, delta, axis=-1), np.compress(csel, delta, axis=-1)
        if z.shape[1] == 0:
            return _scalar(_mean(treated, tw) - _mean(control, cw))
        design = np.column_stack([np.ones(csel.sum()), z[csel]])
        root = np.sqrt(cw)
        beta, _, rank, _ = np.linalg.lstsq(design * root[:, None], (control * root).T, rcond=None)
        if rank < design.shape[1]:
            return np.nan
        predicted = np.column_stack([np.ones(tsel.sum()), z[tsel]]) @ beta
        return _scalar(_mean(treated - predicted.T, tw))

    specs = []  # (cohort, period, delta, treated_sel, control_sel)
    atts = []
    for g in cohorts_in(start):
        base = g.prev()
        if base not in period_ix:
            warnings.warn(
                f"cohort {g}: base period {base} is not in the panel; cohort skipped"
            )
            continue
        b_col = period_ix[base]
        in_cohort = start == g.index
        for j, t in enumerate(a.periods):
            if t == base:
                continue
            if not include_pre and t < g:
                continue
            delta = y[..., j] - y[..., b_col]
            valid = observed[:, j] & observed[:, b_col]
            treated_sel = in_cohort & valid
            horizon = max(a.period_index[j], base.index)
            if control_rule == "never_treated":
                control_sel = ~np.isfinite(start) & valid
            else:
                control_sel = (start > horizon) & ~in_cohort & valid
            if not treated_sel.any():
                warnings.warn(f"ATT({g}, {t}): no treated units observed; entry omitted")
                continue
            if not control_sel.any():
                warnings.warn(f"ATT({g}, {t}): control set is empty; entry omitted")
                continue
            att = cell_att(delta, treated_sel, control_sel, unit_weight)
            if np.all(np.isnan(att)):
                warnings.warn(
                    f"ATT({g}, {t}): the controls' covariates are collinear; entry omitted"
                )
                continue
            specs.append((g, t, delta, treated_sel, control_sel))
            atts.append(att)

    boot = None
    if bootstrap_draws > 0 and specs:
        u_count, k = z.shape
        m = _unit_draws(seed, u_count, bootstrap_draws)
        uw = unit_weight
        # Control regressions in Frisch-Waugh form on z centred once:
        # ATT = (tn/td - cn/cd) - (mean z treated - mean z control)' gamma.
        z0 = z - np.average(z, axis=0, weights=uw)
        zz = (z0[:, :, None] * z0[:, None, :]).reshape(u_count, k * k)
        # Each cell's per-unit columns: tn, td, cn, cd, then z0 summed over
        # its controls, its treated and its controls' changes, and z0 z0'
        # over its controls. A chunk of cells meets m in one product.
        width = 4 + k * (3 + k)
        step = max(1, _CHUNK_BYTES // (8 * width * (u_count + bootstrap_draws)))
        boot = np.full((bootstrap_draws, len(specs)), np.nan)
        for lo in range(0, len(specs), step):
            chunk = specs[lo:lo + step]
            block = np.empty((u_count, len(chunk), width))
            for i, (_, _, delta, tsel, csel) in enumerate(chunk):
                d0 = np.where(np.isnan(delta), 0.0, delta)
                tw, cw = uw * tsel, uw * csel
                block[:, i] = np.column_stack([
                    uw * d0 * tsel, tw, uw * d0 * csel, cw, cw[:, None] * z0,
                    tw[:, None] * z0, (cw * d0)[:, None] * z0, cw[:, None] * zz])
            sums = (m @ block.reshape(u_count, -1)).reshape(bootstrap_draws, len(chunk), width)
            del block
            b_ix, c_ix = np.nonzero((sums[..., 1] > 0) & (sums[..., 3] > 0))  # live draws
            live = sums[b_ix, c_ix]
            tn, td, cn, cd = live[:, :4].T
            boot[b_ix, lo + c_ix] = tn / td - cn / cd
            if k == 0:
                continue
            sz, zt, szy, gram = np.split(live[:, 4:], np.cumsum([k, k, k]), axis=1)
            zc = sz / cd[:, None]
            gram = gram.reshape(len(live), k, k)
            gamma, ok = _certified_solve(gram - sz[:, :, None] * zc[:, None, :],
                                         szy - sz * (cn / cd)[:, None],
                                         np.diagonal(gram, axis1=1, axis2=2))
            boot[b_ix, lo + c_ix] -= ((zt / td[:, None] - zc) * gamma).sum(axis=1)
            for b, c in zip(b_ix[~ok], c_ix[~ok]):
                _, _, delta, tsel, csel = chunk[c]
                keep = m[b] > 0
                boot[b, lo + c] = cell_att(delta, tsel & keep, csel & keep, uw * m[b])

    entries = []
    for e, (g, t, _, tsel, _) in enumerate(specs):
        se = math.nan if boot is None else _boot_se(boot[:, e])
        entries.append(
            GroupTimeCell(
                cohort=g,
                period=t,
                att=atts[e],
                se=se,
                treated_weight=float(unit_weight[tsel].sum()),
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
class Aggregation:
    """Treated-share-weighted summaries of group-time effects."""

    kind: str
    values: Mapping[object, Estimate]

    def to_json_dict(self) -> dict:
        values = {str(key): v.to_json_dict() for key, v in self.values.items()}
        return {"kind": self.kind, "values": values}


# Each kind's key for an entry; only `by_event_time` keeps pre-treatment entries.
_GROUP_KEYS = {
    "overall": lambda cell: "overall",
    "by_event_time": lambda cell: cell.event_time,
    "by_cohort": lambda cell: cell.cohort,
}
AGGREGATION_KINDS = tuple(_GROUP_KEYS)


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
    groups: dict[object, list[int]] = {}
    for i, cell in enumerate(result.entries):
        if kind == "by_event_time" or cell.period >= cell.cohort:
            groups.setdefault(_GROUP_KEYS[kind](cell), []).append(i)
    if not groups:
        raise ValueError("no entries to aggregate")
    values: dict[object, Estimate] = {}
    for key in sorted(groups, key=str):
        members = groups[key]
        w = np.asarray([result.entries[i].treated_weight for i in members])
        w = w / w.sum()
        atts = np.asarray([result.entries[i].att for i in members])
        # One dot product per outcome, so each rounds as it would alone.
        estimate = _scalar(np.array([np.dot(w, col) for col in atts.T.copy()])
                           if atts.ndim > 1 else np.dot(w, atts))
        se = math.nan if result.boot is None else _boot_se(result.boot[:, members] @ w)
        values[key] = Estimate(estimate, se)
    return Aggregation(kind=kind, values=values)


# ---------------------------------------------------------------------------
# interaction-weighted event study


@dataclass(frozen=True)
class EventStudyResult:
    """Cohort-share-weighted event-time path and the saturated fit behind it."""

    entries: Mapping[int, Estimate]
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
        entries = {str(e): self.entries[e].to_json_dict() for e in sorted(self.entries)}
        return {"estimator": self.estimator, "entries": entries}


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
    periods from its start onward are dropped (with a warning); a cohort that
    starts after the last period kept is then never treated in the sample,
    and its units serve as controls (with a warning). A cohort with no row at
    its base period g-1 cannot be compared with it; its units are dropped
    (with a warning). Event-time estimates average cohort
    coefficients with weights proportional to each contributing cohort's
    total unit weight; covariance comes from the cluster-robust fit via the
    same linear combination. The fit is one two-way solve over cohort x
    period levels (`_sa_fit`); covariates add their slopes to it, and
    without them it is the same fit with no slopes.
    """
    start = cohort_start(data, cohorts)
    interacted = list(cohorts_in(start))
    if not interacted:
        raise ValueError("no treated cohorts in the panel window")
    a = data.arrays
    keep = True  # the rows kept: all, until some are dropped
    if np.isfinite(start).all():
        if len(interacted) < 2:
            raise ValueError(
                "need never-treated units or at least two cohorts to identify the event study"
            )
        control_cohort = interacted.pop()
        warnings.warn(
            f"no never-treated units: cohort {control_cohort} serves as the "
            f"control and periods from {control_cohort} on are dropped"
        )
        kept = a.period_index < control_cohort.index
        if not kept.any():
            raise ValueError(f"no period of the panel precedes control cohort {control_cohort}")
        keep = kept[a.period_codes]
        # as `cohort_start` of the kept rows: never treated if it starts after them
        last = a.periods[np.flatnonzero(kept)[-1]]
        for g in interacted:
            if g > last:
                warnings.warn(f"cohort {g} starts after the last kept period {last}; "
                              f"its units serve as controls")
        interacted = [g for g in interacted if g <= last]
        start = np.where(start > last.index, np.inf, start)

    based = set(start[a.unit_codes[a.event_time(start) == -1]].tolist())
    unbased = [g for g in interacted if g.index not in based]
    for g in unbased:
        warnings.warn(f"cohort {g}: no row at its base period {g.prev()}; its units are dropped")
    interacted = [g for g in interacted if g.index in based]
    if not interacted:
        raise ValueError("no treated cohort has a row at its base period")
    if unbased:
        keep = keep & ~np.isin(start, [g.index for g in unbased])[a.unit_codes]
    sample = data
    if keep is not True:
        sample = data._subset(keep)
        start = cohort_start(sample, cohorts)
        a = sample.arrays

    unit_weight = _unit_weight(sample, weights)
    row_weight = a.weight if weights is None else unit_weight[a.unit_codes]
    events_of = {  # every cohort's cells but its base period's (e = -1), in fit order
        _sa_name(g, e): (g, e)
        for g in interacted for e in (a.period_index - g.index).tolist() if e != -1
    }
    if not events_of:
        raise ValueError("no cohort x period cells to estimate")
    names = list(events_of)
    fit = _sa_fit(sample, start, interacted, names, row_weight, covariates)

    cohort_weight = {
        g: float(unit_weight[start == g.index].sum()) for g in interacted
    }
    by_event: dict[int, dict[Period, float]] = {}
    for name in fit.columns:
        if name not in events_of:
            continue
        g, e = events_of[name]
        by_event.setdefault(e, {})[g] = cohort_weight[g]
    entries: dict[int, Estimate] = {}
    shares: dict[int, dict[Period, float]] = {}
    for e, contrib in sorted(by_event.items()):
        total = sum(contrib.values())
        share = {g: w / total for g, w in contrib.items()}
        est, se = fit.linear_combination(
            {_sa_name(g, e): s for g, s in share.items()}
        )
        entries[e] = Estimate(est, se, fit.df_inference)
        shares[e] = {g: contrib[g] for g in contrib}
    return EventStudyResult(entries=entries, cohort_shares=shares, fit=fit)


def _sa_levels(
    a: PanelArrays, start: np.ndarray, interacted: Sequence[Period]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Each row's level, each cell's level and period, and the number of levels.

    A control row, and a cohort's row at its base period g-1, has its period
    as its level; the i-th cohort's row at any other period t gets a level of
    its own, T + i*T + t. The cells are every cohort x period pair but the
    cohorts' base periods, cohort by cohort and, within a cohort, period by
    period. A cell is identified when its level and period t's are connected
    in the unit-level graph.
    """
    u_count, t_count = len(a.units), len(a.periods)
    unit_cohort = np.full(u_count, -1)
    for i, g in enumerate(interacted):
        unit_cohort[start == g.index] = i
    base = np.searchsorted(a.period_index, [g.index - 1 for g in interacted])
    row_cohort = unit_cohort[a.unit_codes]
    in_cell = (row_cohort >= 0) & (a.period_codes != base[row_cohort])
    levels = np.where(in_cell, t_count * (row_cohort + 1) + a.period_codes, a.period_codes)
    cell_cohort = np.repeat(np.arange(len(interacted)), t_count)
    cell_period = np.tile(np.arange(t_count), len(interacted))
    not_base = cell_period != base[cell_cohort]
    cell_period = cell_period[not_base]
    cell_level = t_count * (cell_cohort[not_base] + 1) + cell_period
    return levels, cell_level, cell_period, t_count * (len(interacted) + 1)


def _sa_fit(
    sample: PanelDataset,
    start: np.ndarray,
    interacted: Sequence[Period],
    names: list[str],
    row_weight: np.ndarray,
    covariates: Sequence[CovariateTerm],
) -> RegressionFit:
    """The saturated fit as one two-way solve over cohort x period levels.

    Unit and level effects (`_sa_levels`) fit the same model as unit and
    period effects plus a column per cell, named by `names` in `_sa_levels`
    order: cell (g, t)'s coefficient is its level's effect less period t's.
    A cell is dropped, with pivot ratio 0, when its level and period t's are
    not connected, which includes a cell with no rows. The covariate slopes
    gamma come from `wls_fit` with the levels as its second fixed effect (if
    it absorbs every column, all are dropped with ratio 0), and the cells
    from the levels of y - X gamma. A cluster's CR1 score on the cells is its
    score on the levels less the cells' loading on gamma times its score on
    gamma. Stacked outcomes share the solves and get a covariance each.
    """
    a = sample.arrays
    u_count, t_count = len(a.units), len(a.periods)
    levels, cell_level, cell_period, n_levels = _sa_levels(a, start, interacted)
    n_clusters = inference_clusters(a.cluster_codes)
    cov_names, x = expand_covariates(sample, covariates)
    slopes = None
    if cov_names:
        try:
            slopes = wls_fit(DesignMatrix(
                tuple(cov_names), x, a.outcome, row_weight, a.unit_codes, levels,
                a.cluster_codes, a.units, a.periods * (len(interacted) + 1), a.clusters,
            ))
        except AbsorbedError:
            pass
    x_keep = np.isin(cov_names, [] if slopes is None else slopes.columns)
    solver = TwoWaySolver(row_weight, a.unit_codes, levels, u_count, n_levels)
    keep = solver.period_labels[cell_level] == solver.period_labels[cell_period]
    n, k = len(levels), int(keep.sum()) + int(x_keep.sum())
    check_support(n, k)
    cell_level, cell_period = cell_level[keep], cell_period[keep]

    def contrast(m: np.ndarray) -> np.ndarray:
        return m[cell_level] - m[cell_period]

    y = a.outcome if slopes is None else a.outcome - x[:, x_keep] @ slopes.coef_vector()
    unit, level = solver.effects(y)
    beta = contrast(level)
    residuals = y - unit[a.unit_codes] - level[levels]
    solved = solver.solve(contrast(np.eye(len(level))).T)  # F^-1 A', A the contrasts
    bread = contrast(solved)  # (X'WX)^-1 of the cell columns
    half = solved.T @ solver.cluster_scores(residuals, a.cluster_codes)  # (cells, clusters)
    if slopes is not None:  # x_dd: the kept covariates net of unit and level effects
        x = x[:, x_keep]
        unit_x, level_x = solver.effects(x)
        x_dd = solver.demeaned(x, (unit_x, level_x), slice(None))
        h_inv = np.linalg.inv(x_dd.T @ (x_dd * row_weight[:, None]))
        loading = contrast(level_x)  # of the cells on gamma
        scores = cluster_sums(x_dd, row_weight, residuals, a.cluster_codes)
        half_x = h_inv @ np.swapaxes(scores, -1, -2)  # (covariates, clusters)
        half = np.concatenate([half - loading @ half_x, half_x], axis=-2)
        cross = -loading @ h_inv
        bread = np.block([[bread - cross @ loading.T, cross], [cross.T, h_inv]])
        beta = np.concatenate([beta, slopes.coef_vector()])
    pivots = {} if slopes is None else slopes.pivot_ratios
    return kept_fit(
        names + cov_names, np.append(keep, x_keep), beta,
        [pivots.get(c, 0.0) for c in names + cov_names],
        vcov=cr1_vcov(half, n_clusters, n, k),
        residuals=residuals,
        n_clusters=n_clusters,
        condition=float(np.sqrt(np.linalg.cond(bread))),
        fe_components=fe_components(row_weight, a.unit_codes, a.period_codes, u_count, t_count),
    )


# ---------------------------------------------------------------------------
# imputation


@dataclass(frozen=True, eq=False)
class ImputationResult:
    """Treated-cell effects measured against an untreated-sample prediction.

    The per-cell effects are kept as arrays over the treated rows: unit and
    period codes into `units` and `periods`, effect, and weight.
    """

    aggregate: float | np.ndarray  # (R,) on a stacked panel
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

    def conf_int(self) -> tuple[float, float]:
        return Estimate(self.aggregate, self.se).conf_int()

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
    returns the mask of columns of x kept by the slope fit; when the effects
    absorb them all, none is kept and the fit has no slopes. Raises unless
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
        try:
            _, keep, beta, *_ = _absorbed_slopes(
                ws, DemeanedRows.of(solver, xs), solver.residuals(ys)
            )
            y = y - x[:, keep] @ beta
        except AbsorbedError:  # the effects absorb every column: fit without slopes
            keep = np.zeros(x.shape[1], dtype=bool)
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
    multinomial bootstrap over units, not over the panel's clusters, which
    TWFE and `sa_event_study` use for CR1; with draws on a panel whose
    clusters hold several units, a `UserWarning` says so.
    """
    _check_bootstrap(data, bootstrap_draws, seed)
    a = data.arrays
    treated_rows = a.event_time(cohort_start(data, cohorts)) >= 0
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

    row_weight = a.weight if weights is None else _unit_weight(data, weights)[a.unit_codes]
    cov_names, cov_matrix = expand_covariates(data, tuple(covariates))
    effect_rows, keep = _untreated_gaps(cov_matrix, row_weight, untr, data)
    cov_matrix = cov_matrix[:, keep]
    t_ix = np.flatnonzero(treated_rows)
    w_treated = row_weight[t_ix]
    aggregate = _scalar(np.average(effect_rows[t_ix], axis=0, weights=w_treated))

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


def _check_bootstrap(data: PanelDataset, bootstrap_draws: int, seed: int | None) -> None:
    if bootstrap_draws < 0:
        raise ValueError("bootstrap_draws must be non-negative")
    if bootstrap_draws > 0 and seed is None:
        raise ValueError("a seed is required when bootstrap draws are requested")
    if bootstrap_draws > 0 and data.arrays.outcome.ndim > 1:
        raise ValueError("bootstrap draws need a single outcome; the panel stacks "
                         f"{data.arrays.outcome.shape[1]} outcomes")
    n_clusters = len(data.arrays.clusters)
    if bootstrap_draws > 0 and n_clusters < len(data.units):
        warnings.warn(
            f"the bootstrap resamples units, not the panel's clusters ({len(data.units)} "
            f"units in {n_clusters}); its standard errors ignore dependence within a cluster",
            UserWarning,
        )


def _unit_draws(seed: int, u_count: int, draws: int) -> np.ndarray:
    """(draws, U) multiplicities: each draw resamples the U units with replacement."""
    key = np.array([np.uint64(seed), np.uint64(0)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.multinomial(u_count, np.full(u_count, 1.0 / u_count), size=draws).astype(float)


def _boot_se(draws: np.ndarray) -> float:
    """Standard deviation of the finite bootstrap draws; nan with fewer than two."""
    finite = draws[np.isfinite(draws)]
    return float(np.std(finite, ddof=1)) if len(finite) > 1 else math.nan


def _pivots(a: np.ndarray) -> np.ndarray:
    """Squared Cholesky diagonal of each matrix in `a`, zero where LAPACK rejects it.

    A batch holding a rejected matrix is split in halves until each rejected
    matrix is alone, so k of them cost at most 1 + 2k ceil(log2(len(a))) calls.
    """
    try:
        return np.square(np.diagonal(np.linalg.cholesky(a), axis1=1, axis2=2))
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros(a.shape[:2])
        half = len(a) // 2
        return np.concatenate([_pivots(a[:half]), _pivots(a[half:])])


def _certified_solve(
    a: np.ndarray, rhs: np.ndarray, raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve in one batch the draws' systems a x = rhs that their pivots certify.

    The pivots of an LDL' elimination in column order (a column's squared
    norm once the columns before it are projected out) are the squared
    diagonal of the Cholesky factor, which LAPACK computes for the whole
    batch in one call. A batch that LAPACK rejects (some draw has a pivot at
    most zero) is split in halves until each rejected draw is alone, and
    that draw gets zero pivots. A draw is certified when each pivot exceeds
    _MARGIN times its raw squared norm `raw`; a nan pivot certifies nothing.
    Certified draws are solved by `np.linalg.solve`. Returns the solutions,
    zero for the other draws, and the certified mask.
    """
    ok = (_pivots(a) > _MARGIN * raw).all(axis=1)
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
    n, p = t_count - 1 + k, t_count - 1

    # Row weights zeroed off each side: a zero adds nothing to a unit's sum.
    wu, wt = w * untr, w * treated_rows
    wy = wu * a.outcome
    wsum_u = np.bincount(a.unit_codes, wu, u_count)
    wy_u = np.bincount(a.unit_codes, wy, u_count)
    ty_sum = np.bincount(a.unit_codes, wt * a.outcome, u_count)
    tw_sum = np.bincount(a.unit_codes, wt, u_count)
    a_grid, tw_grid, wy_grid = a.grid(wu), a.grid(wt), a.grid(wy)
    del wu, wt, wy
    active = wsum_u > 0
    ratio_u = np.where(active, wy_u / np.where(active, wsum_u, 1.0), 0.0)
    inv = np.where(active, 1.0 / np.where(active, wsum_u, 1.0), 0.0)
    m = _unit_draws(seed, u_count, draws)
    # Per-unit blocks of the slopes' columns: cross products of x centred on
    # its untreated unit mean, with itself, the outcome and the periods.
    x_grid = a.grid(x)
    tx_u = np.einsum("ut,utk->uk", tw_grid, x_grid)
    sx_u = np.einsum("ut,utk->uk", a_grid, x_grid)
    xsq_u = np.einsum("ut,utk,utk->uk", a_grid, x_grid, x_grid)
    x_grid -= (sx_u * inv[:, None])[:, None, :]
    xy_u = np.einsum("ut,utk->uk", wy_grid, x_grid)
    xw_grid = x_grid * a_grid[:, :, None]
    xx_u = (np.swapaxes(xw_grid, 1, 2) @ x_grid).reshape(u_count, k * k)
    tx_grid = xw_grid[:, 1:].reshape(u_count, p * k)
    del x_grid, xw_grid
    d_t = m @ a_grid                                   # (draws, T)
    c_all = m @ (wy_grid - a_grid * ratio_u[:, None])  # (draws, T)
    # A draw's treated gaps less its unit effects', alpha_u = (wy_u - a_u'lam
    # - sx_u'gamma) / w_u (within-unit means are multiplicity-invariant), sum
    # to the product of its multiplicities with these per-unit columns.
    r = tw_sum * inv
    gap_cols = np.column_stack([ty_sum - r * wy_u, tw_sum, (tw_grid - r[:, None] * a_grid)[:, 1:],
                                tx_u - r[:, None] * sx_u])
    at = np.ascontiguousarray(a_grid[:, 1:].T)         # (T-1, U)
    del a_grid, tw_grid, wy_grid
    # Each draw's block in the free periods (the first is anchored): the
    # period weights on the diagonal, less the per-unit outer products of
    # the period weights over the unit's weight. Only its upper triangle is
    # formed, packed row by row, one product of m per block of whole rows of
    # about _CHUNK_BYTES (at least one row).
    upper = np.triu_indices(p)
    start = np.append(0, np.cumsum(np.arange(p, 0, -1)))  # where each row starts
    packed = np.empty((draws, start[-1]))
    first = 0
    while first < p:
        last = np.searchsorted(start, start[first] + _CHUNK_BYTES // (8 * u_count), "right") - 1
        last = max(first + 1, last)
        outer = np.empty((start[last] - start[first], u_count))
        for i in range(first, last):
            np.multiply(at[i], at[i:], out=outer[start[i] - start[first]:][:p - i])
        outer *= inv
        packed[:, start[first]:start[last]] = m @ outer.T
        del outer  # before the next block's is formed
        first = last
    np.negative(packed, out=packed)
    packed[:, upper[0] == upper[1]] += d_t[:, 1:]
    theta = np.zeros((draws, n))
    ok = np.zeros(draws, dtype=bool)
    step = max(1, _CHUNK_BYTES // (32 * n * n))
    for lo in range(0, draws, step):
        rows = slice(lo, lo + step)
        mc = m[rows]
        system = np.empty((len(mc), n, n))
        system[:, upper[0], upper[1]] = system[:, upper[1], upper[0]] = packed[rows]
        system[:, :p, p:] = (mc @ tx_grid).reshape(len(mc), p, k)
        system[:, p:, :p] = system[:, :p, p:].transpose(0, 2, 1)
        system[:, p:, p:] = (mc @ xx_u).reshape(len(mc), k, k)
        rhs = np.hstack([c_all[rows, 1:], mc @ xy_u])
        raw = np.hstack([d_t[rows, 1:], mc @ xsq_u])
        theta[rows], ok[rows] = _certified_solve(system, rhs, raw)
    sums = m @ gap_cols
    num = sums[:, 0] - (theta * sums[:, 2:]).sum(axis=1)  # theta: free periods, slopes
    den = sums[:, 1]
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
