"""Every race estimator ignores unit names, the order of the rows and the
scale of the weights, and follows an affine map of the outcome.

Panels are drawn by `simulate.generate`, then unbalanced (treated and
late-cohort units lose random post-adoption rows) and given random row
weights, so that sums taken in unit or row order would show a difference.
Draws are 0: bootstrap draws follow unit order by design.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P, panel_of
from paneldid.bite import TreatmentDesign
from paneldid.panel import Observation, PanelDataset
from paneldid.simulate import ESTIMATORS, DgpConfig, generate

REL = 1e-9
# Estimators whose standard error is analytic, not bootstrapped.
ANALYTIC_SE = {"twfe", "sa"}


def drawn_panel(seed: int) -> tuple[PanelDataset, TreatmentDesign, np.random.Generator]:
    config = DgpConfig(n_early=4, n_late=3, n_never=4, start=P(2013, 1), n_periods=8,
                       early_cohort=P(2013, 3), late_cohort=P(2014, 2), seed=seed)
    data, design, _ = generate(config)
    rng = np.random.default_rng(seed)
    never = {u for u, c in design.cohort_map().items() if c is None}
    obs = [
        Observation(o.unit, o.period, o.outcome, float(rng.uniform(0.5, 2.0)))
        for o in data.observations
        if o.unit in never or o.period < P(2013, 3) or rng.random() > 0.15
    ]
    return panel_of(obs), design, rng


def reversed_names(data: PanelDataset, design: TreatmentDesign):
    """The panel and design with units renamed so that their sorted order reverses."""
    n = len(data.units)
    rename = {u: f"r{n - i:03d}" for i, u in enumerate(data.units)}
    obs = [Observation(rename[o.unit], o.period, o.outcome, o.weight)
           for o in data.observations]
    regions = {rename[r]: rt for r, rt in design.regions.items()}
    return panel_of(obs), TreatmentDesign(
        regions, early_cohort=design.early_cohort, late_cohort=design.late_cohort)


def estimate(name: str, data: PanelDataset, design: TreatmentDesign):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ESTIMATORS[name][1](data, design, 0, None)


def assert_same(name: str, got, want, b: float = 1.0) -> None:
    """`got` is `want` with the outcome times b: estimate, SE and 95% interval."""
    assert got.estimate == pytest.approx(b * want.estimate, rel=REL, abs=0)
    if name in ANALYTIC_SE:
        assert got.se == pytest.approx(abs(b) * want.se, rel=REL, abs=0)
        low, high = sorted(b * end for end in want.conf_int())
        assert got.conf_int()[0] == pytest.approx(low, rel=REL, abs=0)
        assert got.conf_int()[1] == pytest.approx(high, rel=REL, abs=0)
    else:
        assert math.isnan(got.se) and math.isnan(want.se)
        assert all(map(math.isnan, got.conf_int()))


def mapped(data: PanelDataset, outcome=lambda y: y, weight=lambda w: w) -> PanelDataset:
    return panel_of([Observation(o.unit, o.period, outcome(o.outcome), weight(o.weight))
                         for o in data.observations])


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_unit_names_do_not_matter(name, seed):
    data, design, _ = drawn_panel(seed)
    assert_same(name, estimate(name, *reversed_names(data, design)),
                estimate(name, data, design))


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_row_order_does_not_matter(name, seed):
    data, design, rng = drawn_panel(seed)
    shuffled = panel_of([data.observations[i] for i in rng.permutation(data.n_obs)])
    assert_same(name, estimate(name, shuffled, design), estimate(name, data, design))


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       shift=st.floats(-3.0, 3.0),
       b=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1))
def test_affine_outcome_moves_estimates_affinely(name, seed, shift, b):
    data, design, _ = drawn_panel(seed)
    a = shift * max(abs(o.outcome) for o in data.observations)  # on the data's scale
    assert_same(name, estimate(name, mapped(data, outcome=lambda y: a + b * y), design),
                estimate(name, data, design), b)


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), power=st.floats(-3.0, 3.0))
def test_weight_scale_does_not_matter(name, seed, power):
    data, design, _ = drawn_panel(seed)
    c = 10.0**power
    assert_same(name, estimate(name, mapped(data, weight=lambda w: c * w), design),
                estimate(name, data, design))
