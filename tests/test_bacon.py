import numpy as np
import pytest

from conftest import P, panel_of
from paneldid.bacon import (
    BaconComponent,
    ComparisonKind,
    bacon_decompose,
    reconstruct,
    write_components_csv,
)
from paneldid.engine import DesignMatrix, wls_fit
from paneldid.panel import Observation
from paneldid.periods import period_range

PERIODS = tuple(period_range(P(2013, 1), P(2014, 4)))


def staggered_panel(cohorts, periods=PERIODS, effect=0.0, noise=0.0, seed=0):
    """Balanced unit-weight panel with an absorbing effect from each cohort."""
    rng = np.random.default_rng(seed)
    obs = []
    for u, g in cohorts.items():
        alpha = rng.normal()
        for j, p in enumerate(periods):
            treated = g is not None and p >= g
            y = alpha + 0.1 * j + (effect if treated else 0.0)
            if noise:
                y += noise * rng.normal()
            obs.append(Observation(u, p, float(y), 1.0))
    return panel_of(tuple(obs))


def twfe_coefficient(data, cohorts):
    d = np.array([
        1.0 if (cohorts[o.unit] is not None and o.period >= cohorts[o.unit]) else 0.0
        for o in data.observations
    ])
    design = DesignMatrix.from_panel(data, ["d"], d)
    return wls_fit(design).coefficients["d"]


def random_cohorts(rng, n_units, periods):
    """At least one never-treated unit and one interior cohort."""
    candidates = [None] + list(periods[1:])
    cohorts = {"u00": None, "u01": periods[1]}
    for i in range(2, n_units):
        cohorts[f"u{i:02d}"] = candidates[rng.integers(0, len(candidates))]
    return cohorts


class TestComponentCounts:
    def test_one_cohort_plus_never_is_single_comparison(self):
        cohorts = {"a": P(2013, 3), "b": P(2013, 3), "n": None}
        data = staggered_panel(cohorts, noise=0.05)
        comps = bacon_decompose(data, cohorts)
        assert len(comps) == 1
        only = comps[0]
        assert only.kind is ComparisonKind.TREATED_VS_NEVER
        assert only.control_cohort is None
        assert only.weight == pytest.approx(1.0, abs=1e-12)
        assert only.estimate == pytest.approx(twfe_coefficient(data, cohorts), abs=1e-8)

    def test_two_cohorts_plus_never_is_four(self):
        cohorts = {"a": P(2013, 2), "b": P(2014, 1), "n": None}
        comps = bacon_decompose(staggered_panel(cohorts, noise=0.05), cohorts)
        kinds = [c.kind for c in comps]
        assert len(comps) == 4
        assert kinds.count(ComparisonKind.TREATED_VS_NEVER) == 2
        assert kinds.count(ComparisonKind.EARLY_VS_LATE) == 1
        assert kinds.count(ComparisonKind.LATE_VS_EARLY) == 1

    def test_two_cohorts_without_never_is_two(self):
        cohorts = {"a": P(2013, 2), "b": P(2014, 1)}
        comps = bacon_decompose(staggered_panel(cohorts, noise=0.05), cohorts)
        assert len(comps) == 2
        early, late = sorted(comps, key=lambda c: c.kind.value)
        assert early.kind is ComparisonKind.EARLY_VS_LATE
        assert early.treated_cohort == P(2013, 2)
        assert early.control_cohort == P(2014, 1)
        assert late.treated_cohort == P(2014, 1)
        assert late.control_cohort == P(2013, 2)

    def test_cohort_beyond_window_counts_as_never(self):
        cohorts = {"a": P(2013, 3), "b": P(2030, 1), "n": None}
        comps = bacon_decompose(staggered_panel(cohorts, noise=0.05), cohorts)
        assert len(comps) == 1
        assert comps[0].kind is ComparisonKind.TREATED_VS_NEVER


class TestIdentity:
    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_matches_twfe(self, seed):
        rng = np.random.default_rng(seed)
        n_units = int(rng.integers(4, 9))
        n_periods = int(rng.integers(4, 9))
        periods = tuple(period_range(P(2013, 1), P(2013, 1).shift(n_periods - 1)))
        cohorts = random_cohorts(rng, n_units, periods)
        data = staggered_panel(cohorts, periods, noise=0.3, seed=seed + 100)
        comps = bacon_decompose(data, cohorts)
        assert reconstruct(comps) == pytest.approx(
            twfe_coefficient(data, cohorts), abs=1e-8
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_weights_convex(self, seed):
        rng = np.random.default_rng(seed + 50)
        periods = tuple(period_range(P(2013, 1), P(2014, 2)))
        cohorts = random_cohorts(rng, 6, periods)
        comps = bacon_decompose(
            staggered_panel(cohorts, periods, noise=0.3, seed=seed), cohorts
        )
        weights = np.array([c.weight for c in comps])
        assert weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert (weights >= 0.0).all()

    def test_constant_effect_appears_in_every_component(self):
        cohorts = {"a": P(2013, 2), "b": P(2013, 4), "c": P(2014, 2), "n": None}
        data = staggered_panel(cohorts, effect=0.7, noise=0.0)
        comps = bacon_decompose(data, cohorts)
        for c in comps:
            assert c.estimate == pytest.approx(0.7, abs=1e-10), c

    def test_observation_weights_ignored(self):
        cohorts = {"a": P(2013, 3), "b": None, "c": None}
        data = staggered_panel(cohorts, noise=0.1)
        reweighted = panel_of(
            tuple(
                Observation(o.unit, o.period, o.outcome, 2.0 if o.unit == "a" else 0.5)
                for o in data.observations
            ),
            cluster=dict(data.cluster),
        )
        assert bacon_decompose(data, cohorts) == bacon_decompose(reweighted, cohorts)


class TestRejections:
    def test_covariates_rejected(self):
        cohorts = {"a": P(2013, 3), "n": None}
        base = staggered_panel(cohorts)
        data = panel_of(
            tuple(
                Observation(o.unit, o.period, o.outcome, o.weight, (1.0,))
                for o in base.observations
            ),
            covariate_names=("z",),
        )
        with pytest.raises(ValueError, match="covariate-free"):
            bacon_decompose(data, cohorts)

    def test_unbalanced_rejected_with_missing_cells(self):
        cohorts = {"a": P(2013, 3), "n": None}
        base = staggered_panel(cohorts)
        data = panel_of(base.observations[1:])
        with pytest.raises(ValueError, match="unbalanced.*missing"):
            bacon_decompose(data, cohorts)

    def test_always_treated_rejected(self):
        cohorts = {"a": P(2013, 1), "n": None}
        with pytest.raises(ValueError, match="always-treated"):
            bacon_decompose(staggered_panel(cohorts), cohorts)

    def test_single_group_rejected(self):
        cohorts = {"a": P(2013, 3), "b": P(2013, 3)}
        with pytest.raises(ValueError, match="at least two cohorts"):
            bacon_decompose(staggered_panel(cohorts), cohorts)
        never = {"a": None, "b": None}
        with pytest.raises(ValueError, match="at least two cohorts"):
            bacon_decompose(staggered_panel(never), never)

    def test_unit_without_cohort_rejected(self):
        cohorts = {"a": P(2013, 3), "n": None}
        data = staggered_panel(cohorts)
        with pytest.raises(ValueError, match="'n'"):
            bacon_decompose(data, {"a": P(2013, 3)})


def test_csv_export_round_trips_values(tmp_path):
    cohorts = {"a": P(2013, 2), "b": P(2014, 1), "n": None}
    comps = bacon_decompose(staggered_panel(cohorts, noise=0.05), cohorts)
    path = tmp_path / "bacon.csv"
    write_components_csv(comps, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "comparison,treated_cohort,control_cohort,estimate,weight"
    assert len(lines) == 1 + len(comps)
    first = lines[1].split(",")
    assert first[0] in {k.value for k in ComparisonKind}
    assert float(first[4]) == comps[0].weight


def test_reconstruct_is_weighted_sum():
    comps = (
        BaconComponent(ComparisonKind.TREATED_VS_NEVER, P(2013, 2), None, 2.0, 0.25),
        BaconComponent(ComparisonKind.EARLY_VS_LATE, P(2013, 2), P(2014, 1), -1.0, 0.75),
    )
    assert reconstruct(comps) == pytest.approx(2.0 * 0.25 - 1.0 * 0.75, abs=1e-15)
