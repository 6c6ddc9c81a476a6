import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import P, direct_cr1, dummy_wls_coefficients, grid_panel, make_panel
from paneldid.engine import (
    DesignMatrix,
    cluster_vcov,
    demean_two_way,
    wls_fit,
)


def random_design(rng, n_units=6, n_periods=5, n_x=2, unbalanced=False,
                  cluster_units=None):
    """Random panel design with continuous regressors and random weights."""
    rows = []
    for i in range(n_units):
        for j in range(n_periods):
            if unbalanced and i > 0 and j > 0 and rng.random() < 0.15:
                continue
            rows.append((i, j))
    unit_codes = np.array([r[0] for r in rows], dtype=np.intp)
    period_codes = np.array([r[1] for r in rows], dtype=np.intp)
    n = len(rows)
    x = rng.normal(size=(n, n_x))
    y = rng.normal(size=n)
    w = rng.uniform(0.5, 3.0, size=n)
    if cluster_units is None:
        cluster_codes = unit_codes.copy()
        clusters = tuple(f"u{i}" for i in range(n_units))
    else:
        assignment = rng.integers(0, cluster_units, size=n_units)
        cluster_codes = assignment[unit_codes].astype(np.intp)
        clusters = tuple(f"c{i}" for i in range(cluster_units))
    return DesignMatrix(
        columns=tuple(f"x{k}" for k in range(n_x)),
        x=x, y=y, weight=w,
        unit_codes=unit_codes, period_codes=period_codes,
        cluster_codes=cluster_codes,
        units=tuple(f"u{i}" for i in range(n_units)),
        periods=tuple(P(2013, 1).shift(j) for j in range(n_periods)),
        clusters=clusters,
    )


class TestDemean:
    def test_singleton_zeroes_everything(self):
        d = DesignMatrix(
            columns=("x",), x=np.array([[3.0]]), y=np.array([5.0]),
            weight=np.array([2.0]), unit_codes=np.array([0]),
            period_codes=np.array([0]), cluster_codes=np.array([0]),
            units=("u",), periods=(P(2013, 1),), clusters=("u",),
        )
        out = demean_two_way(d)
        assert out.y == pytest.approx([0.0], abs=1e-12)
        assert out.x[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_balanced_equal_weights_matches_double_demeaning(self):
        rng = np.random.default_rng(7)
        n_units, n_periods = 4, 3
        d = random_design(rng, n_units, n_periods, n_x=1)
        d = DesignMatrix(
            columns=d.columns, x=d.x, y=d.y, weight=np.ones(d.n),
            unit_codes=d.unit_codes, period_codes=d.period_codes,
            cluster_codes=d.cluster_codes, units=d.units, periods=d.periods,
            clusters=d.clusters,
        )
        out = demean_two_way(d)
        grid = d.y.reshape(n_units, n_periods)
        closed = (grid - grid.mean(axis=1, keepdims=True)
                  - grid.mean(axis=0, keepdims=True) + grid.mean())
        np.testing.assert_allclose(out.y, closed.ravel(), atol=1e-10)

    def test_unbalanced_weighted_fixed_point(self):
        rng = np.random.default_rng(11)
        d = random_design(rng, n_units=3, n_periods=4, n_x=2, unbalanced=True)
        out = demean_two_way(d)
        for codes in (out.unit_codes, out.period_codes):
            for g in np.unique(codes):
                rows = codes == g
                w = out.weight[rows]
                assert abs(np.average(out.y[rows], weights=w)) < 1e-10
                for k in range(out.x.shape[1]):
                    assert abs(np.average(out.x[rows, k], weights=w)) < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        d = random_design(rng, unbalanced=True)
        once = demean_two_way(d)
        twice = demean_two_way(once)
        np.testing.assert_allclose(twice.y, once.y, atol=1e-9)
        np.testing.assert_allclose(twice.x, once.x, atol=1e-9)


class TestWlsFit:
    def test_canonical_2x2(self, canonical_2x2):
        data, p1, p2, dd = canonical_2x2
        x = np.array([
            1.0 if (obs.unit == "treated" and obs.period == p2) else 0.0
            for obs in data.observations
        ])
        design = DesignMatrix.from_panel(data, ["treated_post"], x)
        fit = wls_fit(design)
        assert fit.coefficients["treated_post"] == pytest.approx(dd, abs=1e-12)

    def test_zero_outcome_zero_coefficients(self):
        rng = np.random.default_rng(2)
        d = random_design(rng)
        d = DesignMatrix(
            columns=d.columns, x=d.x, y=np.zeros(d.n), weight=d.weight,
            unit_codes=d.unit_codes, period_codes=d.period_codes,
            cluster_codes=d.cluster_codes, units=d.units, periods=d.periods,
            clusters=d.clusters,
        )
        fit = wls_fit(d)
        assert np.allclose(fit.coef_vector(), 0.0, atol=1e-12)
        # a zero standard error gives a non-finite t, a nan p and no stars
        payload = fit.to_json_dict()
        for c in fit.columns:
            assert fit.se(c) == 0.0
            assert not math.isfinite(payload["t"][c]) and math.isnan(payload["p"][c])
            assert fit.stars(c) == ""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dummy_wls(self, seed):
        rng = np.random.default_rng(seed)
        d = random_design(rng, n_units=rng.integers(3, 8), n_periods=rng.integers(3, 7),
                          n_x=rng.integers(1, 4), unbalanced=bool(seed % 2))
        fit = wls_fit(d)
        oracle = dummy_wls_coefficients(d.x, d.y, d.weight, d.unit_codes, d.period_codes)
        np.testing.assert_allclose(fit.coef_vector(), oracle, atol=1e-8)

    def test_collinear_duplicate_drops_later_column(self):
        rng = np.random.default_rng(9)
        d = random_design(rng, n_x=1)
        x = np.column_stack([d.x[:, 0], d.x[:, 0]])
        dup = DesignMatrix(
            columns=("first", "second"), x=x, y=d.y, weight=d.weight,
            unit_codes=d.unit_codes, period_codes=d.period_codes,
            cluster_codes=d.cluster_codes, units=d.units, periods=d.periods,
            clusters=d.clusters,
        )
        fit = wls_fit(dup)
        assert fit.dropped_collinear == ("second",)
        assert "first" in fit.coefficients
        assert len(fit.coefficients) + len(fit.dropped_collinear) == 2

    def test_column_constant_within_fixed_effects_dropped(self):
        # a pure unit-level column is absorbed by unit effects
        rng = np.random.default_rng(13)
        d = random_design(rng, n_x=1)
        unit_level = d.unit_codes.astype(float)
        x = np.column_stack([d.x[:, 0], unit_level])
        design = DesignMatrix(
            columns=("x0", "unit_level"), x=x, y=d.y, weight=d.weight,
            unit_codes=d.unit_codes, period_codes=d.period_codes,
            cluster_codes=d.cluster_codes, units=d.units, periods=d.periods,
            clusters=d.clusters,
        )
        fit = wls_fit(design)
        assert fit.dropped_collinear == ("unit_level",)

    def test_all_collinear_rejected(self):
        rng = np.random.default_rng(17)
        d = random_design(rng, n_x=1)
        design = DesignMatrix(
            columns=("flat",), x=np.zeros((d.n, 1)),
            y=d.y, weight=d.weight, unit_codes=d.unit_codes,
            period_codes=d.period_codes, cluster_codes=d.cluster_codes,
            units=d.units, periods=d.periods, clusters=d.clusters,
        )
        with pytest.raises(ValueError, match="collinear"):
            wls_fit(design)

    def test_single_cluster_rejected(self):
        rng = np.random.default_rng(19)
        d = random_design(rng)
        design = DesignMatrix(
            columns=d.columns, x=d.x, y=d.y, weight=d.weight,
            unit_codes=d.unit_codes, period_codes=d.period_codes,
            cluster_codes=np.zeros(d.n, dtype=np.intp), units=d.units,
            periods=d.periods, clusters=("all",),
        )
        with pytest.raises(ValueError, match="cluster"):
            wls_fit(design)

    def test_residuals_weight_orthogonal_to_regressors(self):
        rng = np.random.default_rng(23)
        d = random_design(rng, unbalanced=True)
        fit = wls_fit(d)
        demeaned = demean_two_way(d)
        scale = np.abs(demeaned.weight[:, None] * demeaned.x).sum()
        for k in range(demeaned.x.shape[1]):
            dot = float(np.sum(demeaned.weight * demeaned.x[:, k] * fit.residuals))
            assert abs(dot) <= 1e-8 * max(scale, 1.0)

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(29)
        d = random_design(rng)
        fit = wls_fit(d)
        scaled = DesignMatrix(
            columns=d.columns, x=d.x, y=d.y, weight=d.weight * 17.5,
            unit_codes=d.unit_codes, period_codes=d.period_codes,
            cluster_codes=d.cluster_codes, units=d.units, periods=d.periods,
            clusters=d.clusters,
        )
        fit2 = wls_fit(scaled)
        np.testing.assert_allclose(fit2.coef_vector(), fit.coef_vector(), rtol=1e-10)
        np.testing.assert_allclose(fit2.vcov, fit.vcov, rtol=1e-9)

    def test_outcome_shift_invariance(self):
        rng = np.random.default_rng(31)
        d = random_design(rng)
        fit = wls_fit(d)
        shifted = DesignMatrix(
            columns=d.columns, x=d.x, y=d.y + 100.0, weight=d.weight,
            unit_codes=d.unit_codes, period_codes=d.period_codes,
            cluster_codes=d.cluster_codes, units=d.units, periods=d.periods,
            clusters=d.clusters,
        )
        np.testing.assert_allclose(
            wls_fit(shifted).coef_vector(), fit.coef_vector(), atol=1e-8
        )

    def test_deterministic(self):
        rng = np.random.default_rng(37)
        d = random_design(rng)
        a, b = wls_fit(d), wls_fit(d)
        assert np.array_equal(a.coef_vector(), b.coef_vector())
        assert np.array_equal(a.vcov, b.vcov)


    def test_outcome_scale_moves_coefficients_not_tstats(self):
        rng = np.random.default_rng(71)
        d = random_design(rng, n_units=40, n_periods=12, n_x=2, unbalanced=True)
        fit = wls_fit(d)
        big = wls_fit(replace(d, y=d.y * 1e8))
        np.testing.assert_allclose(big.coef_vector(), fit.coef_vector() * 1e8, rtol=1e-9)
        for name in fit.columns:
            assert big.tstat(name) == pytest.approx(fit.tstat(name), rel=1e-9)

    def test_disconnected_panel_matches_dummy_wls(self):
        # units 0-3 are seen in periods 0-4 only, units 4-7 in periods 5-9 only;
        # a few cells are dropped, never the first unit or period of a block
        rng = np.random.default_rng(73)
        rows = [(i, j) for i in range(8) for j in range(10)
                if (i < 4) == (j < 5) and not (i % 4 and j % 5 and rng.random() < 0.2)]
        unit_codes = np.array([r[0] for r in rows], dtype=np.intp)
        period_codes = np.array([r[1] for r in rows], dtype=np.intp)
        n = len(rows)
        d = DesignMatrix(
            columns=("x0", "x1"), x=rng.normal(size=(n, 2)), y=rng.normal(size=n),
            weight=rng.uniform(0.5, 3.0, size=n),
            unit_codes=unit_codes, period_codes=period_codes,
            cluster_codes=unit_codes.copy(),
            units=tuple(f"u{i}" for i in range(8)),
            periods=tuple(P(2013, 1).shift(j) for j in range(10)),
            clusters=tuple(f"u{i}" for i in range(8)),
        )
        fit = wls_fit(d)
        assert fit.fe_components == 2
        assert not fit.dropped_collinear
        oracle = dummy_wls_coefficients(d.x, d.y, d.weight, d.unit_codes, d.period_codes)
        np.testing.assert_allclose(fit.coef_vector(), oracle, atol=1e-8)

    @pytest.mark.parametrize("scale", [1.0, 1e8])
    def test_lone_period_only_regressor_rejected(self, scale):
        rng = np.random.default_rng(79)
        d = random_design(rng, n_units=7, n_periods=6, n_x=1, unbalanced=True)
        period_level = np.sin(d.period_codes + 1.0).reshape(-1, 1)
        design = replace(d, columns=("period_level",), x=period_level, y=d.y * scale)
        with pytest.raises(ValueError, match="every regressor column is collinear"):
            wls_fit(design)

    def test_solver_diagnostics(self):
        rng = np.random.default_rng(83)
        d = random_design(rng, n_x=2)
        x = np.column_stack([d.x, d.x[:, 0] - d.x[:, 1]])
        fit = wls_fit(replace(d, columns=("a", "b", "a_minus_b"), x=x))
        solver = fit.to_json_dict()["solver"]
        assert set(solver["dropped_pivot_ratios"]) == {"a_minus_b"}
        assert solver["dropped_pivot_ratios"]["a_minus_b"] < 1e-9
        assert 1.0 <= solver["condition"] < 1e3
        assert solver["fe_components"] == 1


class TestClusterVcov:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(41)
        d = random_design(rng, n_units=8, n_periods=5, cluster_units=4)
        fit = wls_fit(d)
        demeaned = demean_two_way(d)
        oracle = direct_cr1(demeaned.x, demeaned.weight, fit.residuals,
                            demeaned.cluster_codes)
        np.testing.assert_allclose(fit.vcov, oracle, atol=1e-12)

    def test_singleton_clusters_close_to_hc1(self):
        rng = np.random.default_rng(43)
        n = 40
        x = rng.normal(size=(n, 1))
        y = rng.normal(size=n)
        w = np.ones(n)
        vcov = cluster_vcov(x, w, y - x @ np.linalg.lstsq(x, y, rcond=None)[0],
                            np.arange(n, dtype=np.intp))
        e = y - x @ np.linalg.lstsq(x, y, rcond=None)[0]
        bread = np.linalg.inv(x.T @ x)
        hc1 = (n / (n - 1)) * bread @ (x * e[:, None] ** 2).T @ x @ bread
        # CR1 with singleton clusters differs from HC1 only in the df factor
        np.testing.assert_allclose(vcov, hc1 * ((n - 1) / (n - 1)), rtol=0.05)

    def test_duplicating_cluster_rows_keeps_coefficients(self):
        rng = np.random.default_rng(47)
        d = random_design(rng, n_units=4, n_periods=4)
        fit = wls_fit(d)
        # stack every row twice, same labels: point estimates unchanged
        doubled = DesignMatrix(
            columns=d.columns, x=np.vstack([d.x, d.x]),
            y=np.concatenate([d.y, d.y]), weight=np.concatenate([d.weight, d.weight]),
            unit_codes=np.concatenate([d.unit_codes, d.unit_codes]),
            period_codes=np.concatenate([d.period_codes, d.period_codes]),
            cluster_codes=np.concatenate([d.cluster_codes, d.cluster_codes]),
            units=d.units, periods=d.periods, clusters=d.clusters,
        )
        fit2 = wls_fit(doubled)
        np.testing.assert_allclose(fit2.coef_vector(), fit.coef_vector(), atol=1e-9)

    def test_vcov_psd(self):
        rng = np.random.default_rng(53)
        d = random_design(rng, n_units=7, n_periods=5, n_x=3)
        fit = wls_fit(d)
        eigenvalues = np.linalg.eigvalsh(fit.vcov)
        assert eigenvalues.min() >= -1e-10


class TestInference:
    def test_t_and_p_match_scipy(self):
        rng = np.random.default_rng(59)
        d = random_design(rng, n_units=9, n_periods=6)
        fit = wls_fit(d)
        name = fit.columns[0]
        t = fit.coefficients[name] / fit.se(name)
        assert fit.tstat(name) == pytest.approx(t, rel=1e-12)
        assert fit.df_inference == fit.n_clusters - 1
        p = 2.0 * stats.t.sf(abs(t), fit.n_clusters - 1)
        assert fit.pvalue(name) == pytest.approx(p, rel=1e-12)
        low, high = fit.conf_int(name)
        crit = stats.t.ppf(0.975, fit.n_clusters - 1)
        assert low == pytest.approx(fit.coefficients[name] - crit * fit.se(name), rel=1e-10)
        assert high == pytest.approx(fit.coefficients[name] + crit * fit.se(name), rel=1e-10)

    def test_stars_thresholds(self):
        rng = np.random.default_rng(61)
        d = random_design(rng, n_units=20, n_periods=8)
        fit = wls_fit(d)
        name = fit.columns[0]
        p = fit.pvalue(name)
        stars = fit.stars(name)
        if p < 0.01:
            assert stars == "***"
        elif p < 0.05:
            assert stars == "**"
        elif p < 0.10:
            assert stars == "*"
        else:
            assert stars == ""

    def test_json_dict_shape(self):
        rng = np.random.default_rng(67)
        d = random_design(rng)
        payload = wls_fit(d).to_json_dict()
        assert set(payload) == {
            "coefficients", "se", "t", "p", "conf_low", "conf_high",
            "n_obs", "n_clusters", "dropped", "solver",
        }
        assert set(payload["coefficients"]) == set(d.columns)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fwl_property_small_panels(seed):
    rng = np.random.default_rng(seed)
    d = random_design(
        rng,
        n_units=int(rng.integers(3, 9)),
        n_periods=int(rng.integers(3, 7)),
        n_x=int(rng.integers(1, 3)),
        unbalanced=bool(rng.integers(0, 2)),
    )
    fit = wls_fit(d)
    if fit.dropped_collinear:
        return
    oracle = dummy_wls_coefficients(d.x, d.y, d.weight, d.unit_codes, d.period_codes)
    np.testing.assert_allclose(fit.coef_vector(), oracle, atol=1e-8)
