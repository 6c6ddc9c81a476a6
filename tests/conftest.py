"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the library's own linear algebra paths:
regression coefficients come from explicit dummy variables and lstsq, and the
cluster covariance is the textbook sandwich written as plain loops.
"""

from __future__ import annotations

import numpy as np
import pytest

from paneldid.panel import Observation, PanelDataset
from paneldid.periods import Period

P = Period  # shorthand for fixtures


def panel_of(observations, covariate_names=(), cluster=None):
    """Build a PanelDataset from `Observation` rows, one covariate value per name."""
    observations = tuple(observations)
    return PanelDataset.from_columns(
        [o.unit for o in observations], [o.period for o in observations],
        [o.outcome for o in observations], [o.weight for o in observations],
        {name: [o.covariates[i] for o in observations]
         for i, name in enumerate(covariate_names)},
        cluster,
    )


def make_panel(values, weights=None, covariates=None, clusters=None):
    """Build a PanelDataset from {(unit, Period): outcome} mappings."""
    observations = []
    for (unit, period), outcome in values.items():
        weight = 1.0 if weights is None else weights[(unit, period)]
        covs = () if covariates is None else tuple(covariates[(unit, period)])
        observations.append(Observation(unit, period, float(outcome), float(weight), covs))
    names = ()
    if covariates is not None:
        arity = len(next(iter(covariates.values())))
        names = tuple(f"z{i}" for i in range(arity))
    return panel_of(observations, covariate_names=names, cluster=dict(clusters or {}))


def grid_panel(n_units, n_periods, outcome, weight=None, start=P(2013, 1)):
    """Balanced panel with outcome(i, j) and optional weight(i, j) callables."""
    values, weights = {}, {}
    for i in range(n_units):
        for j in range(n_periods):
            key = (f"u{i:02d}", start.shift(j))
            values[key] = outcome(i, j)
            weights[key] = 1.0 if weight is None else weight(i, j)
    return make_panel(values, weights)


def dummy_wls_coefficients(x, y, w, unit_codes, period_codes):
    """Weighted least squares with explicit unit and period dummies.

    Returns the coefficients on the x columns only. Periods after the first
    get a dummy; all units do, so there is no intercept.
    """
    x = np.asarray(x, float)
    n = len(y)
    n_units = int(unit_codes.max()) + 1
    n_periods = int(period_codes.max()) + 1
    unit_d = np.zeros((n, n_units))
    unit_d[np.arange(n), unit_codes] = 1.0
    period_d = np.zeros((n, n_periods - 1))
    mask = period_codes > 0
    period_d[np.flatnonzero(mask), period_codes[mask] - 1] = 1.0
    full = np.column_stack([x, unit_d, period_d])
    sw = np.sqrt(np.asarray(w, float))
    beta, *_ = np.linalg.lstsq(full * sw[:, None], np.asarray(y, float) * sw, rcond=None)
    return beta[: x.shape[1]]


def direct_cr1(x_demeaned, w, residuals, cluster_codes):
    """Textbook CR1 sandwich, written as per-cluster loops."""
    x_demeaned = np.asarray(x_demeaned, float)
    n, k = x_demeaned.shape
    labels = np.unique(cluster_codes)
    g = len(labels)
    bread = np.linalg.inv(x_demeaned.T @ (w[:, None] * x_demeaned))
    meat = np.zeros((k, k))
    for label in labels:
        rows = cluster_codes == label
        score = (w[rows, None] * x_demeaned[rows] * residuals[rows, None]).sum(axis=0)
        meat += np.outer(score, score)
    factor = (g / (g - 1.0)) * ((n - 1.0) / (n - k))
    return factor * bread @ meat @ bread


@pytest.fixture
def canonical_2x2():
    """Treated unit log-change 0.2, control 0.1: the DiD effect is 0.1."""
    p1, p2 = P(2014, 2), P(2014, 3)
    data = make_panel({
        ("treated", p1): 1.0, ("treated", p2): 1.2,
        ("control", p1): 2.0, ("control", p2): 2.1,
    })
    return data, p1, p2, 0.1
