import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, sparse, stats
from scipy.sparse.csgraph import connected_components

from conftest import P, direct_cr1, dummy_wls_coefficients, grid_panel, make_panel
from paneldid import _blas, engine
from paneldid.engine import (
    AbsorbedError,
    DesignMatrix,
    Estimate,
    RegressionFit,
    TwoWaySolver,
    cluster_sums,
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
        with pytest.raises(AbsorbedError, match="collinear"):
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


class TestTwoWaySolver:
    def test_cluster_scores_partial_out_unit_effects(self):
        # The solver's own residuals, and clusters that hold whole units: each
        # cluster's sum of w * e times the period dummies less their weighted
        # projection on the units.
        rng = np.random.default_rng(5)
        d = random_design(rng, n_units=7, n_periods=5, unbalanced=True)
        clusters = rng.permutation(np.arange(7) % 3)[d.unit_codes]
        solver = TwoWaySolver(d.weight, d.unit_codes, d.period_codes, 7, 5)
        e = solver.residuals(rng.normal(size=d.n))
        units, periods = np.eye(7)[d.unit_codes], np.eye(5)[d.period_codes]
        wu = d.weight[:, None] * units
        z = periods - units @ np.linalg.solve(wu.T @ units, wu.T @ periods)
        want = np.stack([(d.weight * e * (clusters == c)) @ z for c in range(3)], axis=1)
        got = solver.cluster_scores(e, clusters)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @staticmethod
    def assert_same_csr(got, want):
        for part in ("indptr", "indices", "data"):
            assert getattr(got, part).dtype == getattr(want, part).dtype, part
            assert np.array_equal(getattr(got, part), getattr(want, part)), part

    @pytest.mark.parametrize("n_units, n_periods", [(40, 300), (300, 40), (3, 70_000)])
    def test_csrs_equal_the_coo_build(self, n_units, n_periods):
        # Random codes, repeated cells included; the last unit and the last
        # period have no rows, and about a fifth of the rows weigh zero.
        rng = np.random.default_rng(n_units)
        n = 500
        unit_codes = rng.integers(0, n_units - 1, n)
        period_codes = rng.integers(0, n_periods - 1, n)
        weight = rng.uniform(0.5, 3.0, n) * (rng.random(n) >= 0.2)
        rows = np.arange(n)
        for codes, groups in ((unit_codes, n_units), (period_codes, n_periods)):
            self.assert_same_csr(engine._grouped(weight, codes, (groups, n)),
                                 sparse.csr_matrix((weight, (codes, rows)), (groups, n)))
        nodes = n_units + n_periods
        graph = sparse.csr_matrix((weight, (unit_codes, n_units + period_codes)), (nodes, nodes))
        labels = engine._fe_labels(weight, unit_codes, period_codes, n_units, n_periods)
        assert np.array_equal(labels, connected_components(graph, directed=False)[1])

    def test_solver_csrs_equal_the_coo_build(self):
        rng = np.random.default_rng(6)
        d = random_design(rng, n_units=9, n_periods=6, unbalanced=True)
        solver = TwoWaySolver(d.weight, d.unit_codes, d.period_codes, 9, 6)
        rows = np.arange(d.n)
        self.assert_same_csr(solver._to_unit,
                             sparse.csr_matrix((d.weight, (d.unit_codes, rows)), (9, d.n)))
        self.assert_same_csr(solver._to_period,
                             sparse.csr_matrix((d.weight, (d.period_codes, rows)), (6, d.n)))


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


class TestStreamedFit:
    """`wls_fit` reads its regressors through `DemeanedRows`, which demeans
    them anew on every read of a row block. Its output equals, bit for bit,
    the route that holds the whole demeaned x: `demean_two_way`, a QR over
    arrays and one sparse cluster sum over the whole panel."""

    @staticmethod
    def whole_panel_sums(x, weight, residuals, cluster_codes):
        """`cluster_sums` as one sparse product over all rows per outcome."""
        n, clusters = len(x), int(cluster_codes.max()) + 1
        return np.stack([
            sparse.csr_matrix((we, (cluster_codes, np.arange(n))), (clusters, n)) @ x
            for we in weight * residuals.reshape(n, -1).T
        ]).reshape(*residuals.shape[1:], clusters, x.shape[1])

    @staticmethod
    def sandwich(sums, r, cluster_codes):
        k = len(r)
        r_inv = linalg.solve_triangular(r, np.eye(k))
        half = np.swapaxes(sums @ r_inv @ r_inv.T, -1, -2)
        return engine.cr1_vcov(half, len(np.unique(cluster_codes)), len(cluster_codes), k)

    @classmethod
    def reference(cls, d):
        """(slopes, vcov, residuals, condition, pivot ratios) from whole arrays."""
        demeaned = demean_two_way(d)
        root_w = np.sqrt(d.weight)
        r = engine._weighted_r(root_w, demeaned.x, demeaned.y)
        pivots = np.abs(np.diag(r))[: d.x.shape[1]]
        raw_norm = np.sqrt(np.einsum("i,ij,ij->j", d.weight, d.x, d.x))
        keep = (pivots > engine.PIVOT_RTOL * pivots.max()) & (
            pivots > engine.PIVOT_RTOL * raw_norm)
        x = demeaned.x
        if not keep.all():
            x = x[:, keep]
            r = engine._weighted_r(root_w, x, demeaned.y)
        k = x.shape[1]
        r = r[:k]
        beta = linalg.solve_triangular(r[:, :k], r[:, k:].reshape(k, *d.y.shape[1:]))
        residuals = demeaned.y - x @ beta
        sums = cls.whole_panel_sums(x, d.weight, residuals, d.cluster_codes)
        vcov = cls.sandwich(sums, r[:, :k], d.cluster_codes)
        ratios = (pivots / pivots.max())[~keep]
        return beta, vcov, residuals, float(np.linalg.cond(r[:, :k])), ratios

    @pytest.mark.parametrize("score_bytes", [engine._SCORE_BYTES, 1], ids=["default", "small"])
    @pytest.mark.parametrize("outcomes", [None, 3])
    @pytest.mark.parametrize("cluster_units", [None, 9], ids=["units", "coarse"])
    @pytest.mark.parametrize("collinear", [False, True])
    def test_matches_the_whole_array_route_bit_for_bit(
        self, monkeypatch, score_bytes, outcomes, cluster_units, collinear
    ):
        # About 4,000 rows: four 1,024-row QR blocks. At the default group
        # size the scores are one group; at one byte ("small") they run over
        # one-chunk groups, with clusters that go on across groups in row
        # order (units) or shuffled (coarse).
        monkeypatch.setattr(engine, "_SCORE_BYTES", score_bytes)
        rng = np.random.default_rng(100 + 2 * collinear + (outcomes or 0))
        d = random_design(rng, n_units=150, n_periods=32, n_x=3, unbalanced=True,
                          cluster_units=cluster_units)
        assert d.n > 3 * engine._BLOCK_ROWS
        if collinear:
            x = d.x.copy()
            x[:, 1] = 2.0 * x[:, 0] - x[:, 2]
            d = replace(d, x=x)
        if outcomes:
            d = replace(d, y=rng.normal(size=(d.n, outcomes)))
        with _blas.single_thread():
            fit = wls_fit(d)
            beta, vcov, residuals, condition, ratios = self.reference(d)
        assert len(fit.dropped_collinear) == collinear
        assert np.array_equal(fit.coef_vector(), beta)
        assert np.array_equal(fit.vcov, vcov)
        assert np.array_equal(fit.residuals, residuals)
        assert fit.condition == condition
        assert np.array_equal(list(fit.pivot_ratios.values()), ratios)

    @pytest.mark.parametrize("outcomes", [None, 3])
    @pytest.mark.parametrize("cluster_units", [None, 9], ids=["units", "coarse"])
    def test_cluster_vcov_of_an_array_matches_the_whole_panel_sum(
        self, monkeypatch, outcomes, cluster_units
    ):
        # An array x in one-chunk groups: each group's rows are copied, and
        # clusters go on across groups, in row order (units) or shuffled
        # (coarse).
        monkeypatch.setattr(engine, "_SCORE_BYTES", 1)
        rng = np.random.default_rng(200 + (outcomes or 0))
        d = random_design(rng, n_units=150, n_periods=32, n_x=3, unbalanced=True,
                          cluster_units=cluster_units)
        assert d.n > 3 * engine._BLOCK_ROWS
        x = demean_two_way(d).x
        e = rng.normal(size=(d.n, outcomes) if outcomes else d.n)
        with _blas.single_thread():
            sums = cluster_sums(x, d.weight, e, d.cluster_codes)
            vcov = cluster_vcov(x, d.weight, e, d.cluster_codes)
            want = self.whole_panel_sums(x, d.weight, e, d.cluster_codes)
            r = engine._weighted_r(np.sqrt(d.weight), x)
        assert np.array_equal(sums, want)
        assert np.array_equal(vcov, self.sandwich(want, r, d.cluster_codes))

    def test_cluster_sums_carry_over_a_group_without_the_cluster(self, monkeypatch):
        # One-chunk groups of 1,024 rows. Cluster 0 has rows in groups 0 and 2
        # but none in group 1, so its running sum skips a group; cluster 9
        # first appears in group 2. Of the R = 3 outcomes, one is all zeros and
        # one holds exact +0 and -0 entries, so comparing bytes checks the sign
        # of every zero sum as well.
        monkeypatch.setattr(engine, "_SCORE_BYTES", 1)
        rng = np.random.default_rng(301)
        n, block = 3500, engine._BLOCK_ROWS
        cluster_codes = rng.integers(1, 9, size=n)
        cluster_codes[rng.choice(block, 40, replace=False)] = 0
        cluster_codes[2 * block + rng.choice(block, 40, replace=False)] = 0
        cluster_codes[2 * block + rng.choice(block, 30, replace=False)] = 9
        assert not np.isin([0, 9], cluster_codes[block:2 * block]).any()
        x = rng.normal(size=(n, 3))
        weight = rng.uniform(0.5, 3.0, size=n)
        e = rng.normal(size=(n, 3))
        e[:, 1] = 0.0
        e[rng.random(n) < 0.3, 2] = 0.0
        e[rng.random(n) < 0.3, 2] = -0.0
        e[cluster_codes == 0, 2] = -0.0
        with _blas.single_thread():
            sums = cluster_sums(x, weight, e, cluster_codes)
            want = self.whole_panel_sums(x, weight, e, cluster_codes)
        assert sums.shape == (3, 10, 3)
        assert sums.tobytes() == want.tobytes()

    def test_holds_no_demeaned_copy_of_the_regressors(self):
        # 50,000 x 24: a demeaned copy of x alone would
        # add 1.0 x.nbytes to the fit's traced peak.
        rng = np.random.default_rng(7)
        n_units, n_periods, k = 1250, 40, 24
        unit_codes = np.repeat(np.arange(n_units), n_periods)
        period_codes = np.tile(np.arange(n_periods), n_units)
        d = DesignMatrix(
            columns=tuple(f"x{j}" for j in range(k)),
            x=rng.normal(size=(len(unit_codes), k)), y=rng.normal(size=len(unit_codes)),
            weight=rng.uniform(0.5, 3.0, size=len(unit_codes)),
            unit_codes=unit_codes, period_codes=period_codes, cluster_codes=unit_codes,
            units=tuple(f"u{i}" for i in range(n_units)),
            periods=tuple(P(2013, 1).shift(j) for j in range(n_periods)),
            clusters=tuple(f"u{i}" for i in range(n_units)),
        )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            wls_fit(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 0.75 * d.x.nbytes


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

    def test_critical_values_equal_scipy_stats_bit_for_bit(self):
        # the engine calls the scipy.special kernels behind norm.ppf and t.ppf
        assert engine._Z95 == float(stats.norm.ppf(0.975))
        for df in range(1, 1001):
            assert engine._t95(df) == float(stats.t.ppf(0.975, df)), df

    @pytest.mark.parametrize("df", [1, 2, 7, 30, 499, 10_000])
    def test_pvalue_equals_scipy_stats_bit_for_bit(self, df):
        grid = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 0.3, -1.96, 2.5, -12.7, 40.0]
        names = tuple(f"b{i}" for i in range(len(grid)))
        # unit standard errors, so each t statistic is its coefficient
        fit = RegressionFit(
            columns=names, coefficients=dict(zip(names, grid)), vcov=np.eye(len(grid)),
            residuals=np.zeros(1), n_obs=1, n_clusters=df + 1, dropped_collinear=(),
            pivot_ratios={}, condition=1.0, fe_components=1,
        )
        for name, t in zip(names, grid):
            assert fit.tstat(name) == t
            assert fit.pvalue(name) == float(2.0 * stats.t.sf(abs(t), df)), t

    def test_estimate_interval_rule(self):
        # normal without df (bootstrap SEs), t(df) with it (CR1 SEs)
        z, t = float(stats.norm.ppf(0.975)), float(stats.t.ppf(0.975, 7))
        assert Estimate(0.3, 0.1).conf_int() == (0.3 - z * 0.1, 0.3 + z * 0.1)
        assert Estimate(0.3, 0.1, 7).conf_int() == (0.3 - t * 0.1, 0.3 + t * 0.1)
        assert Estimate(0.3, 0.1, 7).to_json_dict() == {
            "estimate": 0.3, "se": 0.1, "conf_low": 0.3 - t * 0.1, "conf_high": 0.3 + t * 0.1,
        }

    def test_estimate_interval_is_elementwise(self):
        est, se = np.array([0.3, -1.5, 2.0]), np.array([0.1, 0.4, 0.0])
        for df in (None, 7):
            low, high = Estimate(est, se, df).conf_int()
            for i in range(3):
                assert (low[i], high[i]) == Estimate(est[i], se[i], df).conf_int()

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_outcomes_fit_like_single_ones(self, seed):
        # Columns of an (n, R) outcome share the regressors' absorption, pivots
        # and dropped columns; slopes, SEs and combinations match lone fits.
        rng = np.random.default_rng(90 + seed)
        d = random_design(rng, n_units=12, n_periods=6, n_x=3, unbalanced=True,
                          cluster_units=5 if seed % 2 else None)
        x = d.x.copy()
        x[:, 2] = x[:, 0] - 2.0 * x[:, 1]  # collinear: dropped for every outcome
        d = replace(d, x=x)
        y = rng.normal(size=(d.n, 4)) * np.array([1.0, 1e-3, 1e3, 5.0])
        both = wls_fit(replace(d, y=y))
        weights = {"x0": 0.25, "x1": -1.0}
        for r in range(y.shape[1]):
            one = wls_fit(replace(d, y=y[:, r]))
            assert both.columns == one.columns and both.dropped_collinear == one.dropped_collinear
            assert both.condition == pytest.approx(one.condition, rel=1e-12, abs=0)
            assert both.fe_components == one.fe_components
            scale = np.abs(one.coef_vector()).max()
            assert np.abs(both.coef_vector()[:, r] - one.coef_vector()).max() <= 1e-12 * scale
            assert np.abs(both.vcov[r] - one.vcov).max() <= 1e-12 * np.abs(one.vcov).max()
            assert np.abs(both.residuals[:, r] - one.residuals).max() <= (
                1e-12 * np.abs(one.residuals).max())
            for name in both.columns:
                assert both.se(name)[r] == pytest.approx(one.se(name), rel=1e-12, abs=0)
            est, se = both.linear_combination(weights)
            want = one.linear_combination(weights)
            assert est[r] == pytest.approx(want[0], rel=1e-10, abs=0)
            assert se[r] == pytest.approx(want[1], rel=1e-12, abs=0)

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
