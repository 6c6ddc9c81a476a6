"""Decomposition of the staggered two-way fixed-effects coefficient.

On a balanced panel with a single absorbing treatment and no covariates, the
unweighted TWFE coefficient is a convex combination of simple two-group,
two-window comparisons: each treatment cohort against the never-treated pool
over the whole window, earlier cohorts against later cohorts before the later
ones adopt, and later cohorts against earlier ones after the earlier ones
have adopted. The weights depend only on group sizes and treatment-time
shares; with unit shares n and treated-time shares D the raw weights are

    cohort k vs never:        n_k * n_U * D_k * (1 - D_k)
    early k vs late l:        n_k * n_l * (D_k - D_l) * (1 - D_k)
    late l vs early k:        n_k * n_l * D_l * (D_k - D_l)

normalized to sum to one. The late-vs-early terms are where an effect that is
still growing contaminates the implicit control group, which is what makes
the aggregate coefficient unreliable under dynamics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping

import numpy as np

from .panel import PanelDataset, balance_report, cohort_start
from .periods import Period
from .textio import format_float, write_csv


class ComparisonKind(enum.Enum):
    TREATED_VS_NEVER = "treated_vs_never"
    EARLY_VS_LATE = "early_vs_late"
    LATE_VS_EARLY = "late_vs_early"


@dataclass(frozen=True)
class BaconComponent:
    """One two-by-two comparison: its DiD estimate and decomposition weight."""

    kind: ComparisonKind
    treated_cohort: Period
    control_cohort: Period | None  # None when the control pool is never treated
    estimate: float
    weight: float


def _mean(y: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    block = y[np.ix_(rows, cols)]
    return float(block.mean())


def bacon_decompose(
    data: PanelDataset,
    cohorts: Mapping[str, Period | None],
) -> tuple[BaconComponent, ...]:
    """Split the unweighted staggered TWFE coefficient into 2x2 comparisons.

    Requires a balanced covariate-free panel and at least two distinct
    cohorts, or one cohort plus never-treated units. Observation weights are
    ignored: the decomposition identity holds for the unweighted coefficient.
    The returned weights are non-negative, sum to one, and satisfy
    sum(weight * estimate) == unweighted TWFE coefficient.
    """
    if data.covariate_names:
        raise ValueError(
            "the decomposition is defined for covariate-free panels; "
            "drop covariate columns first (covariate adjustment is out of scope)"
        )
    report = balance_report(data)
    if not report.is_balanced:
        raise ValueError(
            f"panel is unbalanced: {len(report.missing)} missing (unit, period) "
            f"cells, e.g. {report.missing[0]}"
        )
    start = cohort_start(data, cohorts)

    periods = data.periods
    first = periods[0]
    early = np.flatnonzero(start <= first.index)
    if early.size:
        unit = data.units[early[0]]
        raise ValueError(
            f"unit {unit!r} is treated from {cohorts[unit]}, on or before the first "
            f"period {first}; an always-treated group has no pre-period"
        )

    # Cohorts that switch inside the window, and the rows of their units.
    timing = [Period.from_index(int(i)) for i in np.unique(start[np.isfinite(start)])]
    rows = {k: np.flatnonzero(start == k.index) for k in timing}
    never_rows = np.flatnonzero(~np.isfinite(start))
    if len(timing) + (1 if never_rows.size else 0) < 2:
        raise ValueError(
            "decomposition needs at least two cohorts, or one cohort plus "
            "never-treated units"
        )

    # Dense outcome grid, units in rows.
    a = data.arrays
    y = np.empty((len(a.units), len(periods)))
    y[a.unit_codes, a.period_codes] = a.outcome

    period_index = np.asarray([p.index for p in periods])
    n_total = len(data.units)
    share = {c: len(rows[c]) / n_total for c in timing}
    share_never = len(never_rows) / n_total
    # Fraction of the window each cohort spends treated.
    dbar = {c: float(np.mean(period_index >= c.index)) for c in timing}

    raw: list[tuple[ComparisonKind, Period, Period | None, float, float]] = []

    if never_rows.size:
        for k in timing:
            post = period_index >= k.index
            est = (
                _mean(y, rows[k], post) - _mean(y, rows[k], ~post)
            ) - (
                _mean(y, never_rows, post) - _mean(y, never_rows, ~post)
            )
            weight = share[k] * share_never * dbar[k] * (1.0 - dbar[k])
            raw.append((ComparisonKind.TREATED_VS_NEVER, k, None, est, weight))

    for i, k in enumerate(timing):
        for l in timing[i + 1:]:
            pre = period_index < k.index
            mid = (period_index >= k.index) & (period_index < l.index)
            post = period_index >= l.index
            # Early cohort as treatment, late cohort as control, before l adopts.
            est_early = (
                _mean(y, rows[k], mid) - _mean(y, rows[k], pre)
            ) - (
                _mean(y, rows[l], mid) - _mean(y, rows[l], pre)
            )
            w_early = share[k] * share[l] * (dbar[k] - dbar[l]) * (1.0 - dbar[k])
            raw.append((ComparisonKind.EARLY_VS_LATE, k, l, est_early, w_early))
            # Late cohort as treatment, early cohort as control, after k adopts.
            est_late = (
                _mean(y, rows[l], post) - _mean(y, rows[l], mid)
            ) - (
                _mean(y, rows[k], post) - _mean(y, rows[k], mid)
            )
            w_late = share[k] * share[l] * dbar[l] * (dbar[k] - dbar[l])
            raw.append((ComparisonKind.LATE_VS_EARLY, l, k, est_late, w_late))

    total = sum(w for *_, w in raw)
    if total <= 0:
        raise ValueError("treatment indicator has no residual variation to decompose")
    return tuple(
        BaconComponent(kind, treated, control, est, w / total)
        for kind, treated, control, est, w in raw
    )


def reconstruct(components: tuple[BaconComponent, ...]) -> float:
    """Weight-average the component estimates back into the TWFE coefficient."""
    return float(sum(c.weight * c.estimate for c in components))


def write_components_csv(
    components: tuple[BaconComponent, ...],
    sink: IO[str] | str | Path,
) -> None:
    write_csv(sink, ["comparison", "treated_cohort", "control_cohort", "estimate", "weight"], (
        [
            c.kind.value,
            str(c.treated_cohort),
            "" if c.control_cohort is None else str(c.control_cohort),
            format_float(c.estimate),
            format_float(c.weight),
        ]
        for c in components
    ))
