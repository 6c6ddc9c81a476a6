import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import P, panel_of
from paneldid import staggered
from paneldid.bite import RegionTreatment, SwitcherGroup, TreatmentDesign
from paneldid.designs import (
    CovariateTerm, DesignKind, DidSpec, build_event_study, by_period, expand_covariates,
)
from paneldid.engine import PIVOT_RTOL, DesignMatrix, _fe_labels, wls_fit
from paneldid.panel import Observation, PanelDataset
from paneldid.periods import Period, period_range
from paneldid.simulate import DgpConfig, generate, heterogeneous_config, null_config
from paneldid.staggered import (
    CONTROL_RULES,
    cs_aggregate,
    cs_att,
    impute_att,
    sa_event_study,
)

Z95 = float(stats.norm.ppf(0.975))
EIGHT = tuple(period_range(P(2013, 1), P(2014, 4)))


def build(cohorts, periods=EIGHT, effect=None, noise=0.0, seed=0,
          constants=None, trend=0.3):
    """Balanced panel: unit level + common trend + cohort effect at each cell.

    `effect(g, e)` gives the treatment effect for cohort g at event time e;
    `constants` maps covariate name -> unit -> value.
    """
    rng = np.random.default_rng(seed)
    names = tuple(constants) if constants else ()
    obs = []
    for u, g in cohorts.items():
        alpha = float(rng.normal())
        covs = tuple(constants[name][u] for name in names) if names else ()
        for j, p in enumerate(periods):
            y = alpha + trend * j
            if g is not None and p >= g and effect is not None:
                y += effect(g, p.index - g.index)
            if noise:
                y += noise * float(rng.normal())
            obs.append(Observation(u, p, float(y), 1.0, covs))
    return panel_of(tuple(obs), covariate_names=names)


def multinomial_draws(seed, n_units, draws):
    key = np.array([seed, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.multinomial(n_units, np.full(n_units, 1.0 / n_units), size=draws)


def impute_bruteforce_se(data, cohorts, draws, seed):
    """Loop-written bootstrap SE of the imputation aggregate, no covariates.

    Each draw fits unit and period dummies by lstsq on its untreated rows. A
    draw whose dummies are not of full rank (a period without untreated rows,
    or untreated rows in unlinked blocks) is skipped. Returns the SE and the
    number of skipped draws.
    """
    a = data.arrays
    u_count, t_count = len(a.units), len(a.periods)
    treated = np.array([
        cohorts[o.unit] is not None and o.period >= cohorts[o.unit]
        for o in data.observations
    ])
    m = multinomial_draws(seed, u_count, draws)
    reps, skipped = [], 0
    for b in range(draws):
        wb = a.weight * m[b][a.unit_codes]
        rows = np.flatnonzero(~treated & (wb > 0))
        dummies = np.zeros((len(rows), u_count + t_count - 1))
        dummies[np.arange(len(rows)), a.unit_codes[rows]] = 1.0
        late = a.period_codes[rows] > 0
        dummies[np.flatnonzero(late), u_count + a.period_codes[rows][late] - 1] = 1.0
        used = dummies.any(axis=0)
        if (len(np.unique(a.period_codes[rows])) < t_count
                or np.linalg.matrix_rank(dummies[:, used]) < used.sum()):
            skipped += 1
            continue
        root = np.sqrt(wb[rows])
        coef = np.zeros(u_count + t_count - 1)
        coef[used] = np.linalg.lstsq(dummies[:, used] * root[:, None],
                                     a.outcome[rows] * root, rcond=None)[0]
        lam = np.concatenate([[0.0], coef[u_count:]])
        gaps = a.outcome - coef[a.unit_codes] - lam[a.period_codes]
        keep = treated & (wb > 0)
        if keep.any():
            reps.append(np.average(gaps[keep], weights=wb[keep]))
    return float(np.std(reps, ddof=1)), skipped


def random_staggered_panel(seed, never=True):
    """Unbalanced panel with random row weights over ten quarters.

    Units adopt in 2013Q3, 2014Q1 or 2014Q3, or never (`never`); clusters
    hold up to three units. Each row is kept with probability 0.75, except
    that one control unit (never treated, or of the last cohort when `never`
    is false) keeps every row, so every period has a control row. The
    2013Q3 cohort loses its 2013Q1 rows and its 2015Q2 rows, so those cells
    have no rows. Half the seeds also return a unit-weight mapping. Every
    unit carries two constants drawn from a stream of their own, a 0/1
    `east` and a `share` in (0, 1), so the outcomes do not depend on them.
    """
    rng = np.random.default_rng(seed)
    periods = [P(2013, 1).shift(j) for j in range(10)]
    starts = [P(2013, 3), P(2014, 1), P(2014, 3)]
    n_units = int(rng.integers(10, 16))
    cohorts = {}
    for i in range(n_units):
        if never and i < 3:
            cohorts[f"u{i:02d}"] = None
        else:
            cohorts[f"u{i:02d}"] = starts[i % 3 if i < 6 else int(rng.integers(3))]
    anchor = "u00" if never else "u05"
    constants = np.random.default_rng([seed, 1])
    east = {u: float(constants.integers(2)) for u in cohorts}
    share = {u: float(constants.uniform()) for u in cohorts}
    obs = []
    for u, g in cohorts.items():
        alpha = float(rng.normal())
        for j, p in enumerate(periods):
            if g == starts[0] and p in (periods[0], periods[-1]):
                continue
            if u != anchor and rng.random() < 0.25:
                continue
            y = alpha + 0.1 * j + float(rng.normal(0.0, 0.3))
            if g is not None and p >= g:
                y += 0.5 + 0.1 * (p.index - g.index)
            obs.append(Observation(u, p, y, float(rng.uniform(0.5, 3.0)), (east[u], share[u])))
    cluster = {u: f"c{i // 3}" for i, u in enumerate(cohorts)}
    data = panel_of(tuple(obs), covariate_names=("east", "share"), cluster=cluster)
    weights = None if seed % 2 else {u: float(rng.uniform(0.5, 3.0)) for u in cohorts}
    return data, cohorts, weights


def sa_dense_fit(sample, start, interacted, names, row_weight, covariates=()):
    """Oracle: the saturated fit as one dense design, a column per cohort x period cell.

    Takes `staggered._sa_fit`'s arguments; `names` names the cells as
    `staggered._sa_levels` orders them. A cell the level graph does not
    identify gets no column; it is reported dropped with pivot ratio 0, ahead
    of the engine's own pivot rule over the cell and covariate columns.
    """
    a = sample.arrays
    levels, cell_level, cell_period, n_levels = staggered._sa_levels(a, start, interacted)
    labels = _fe_labels(row_weight, a.unit_codes, levels, len(a.units), n_levels)[len(a.units):]
    linked = labels[cell_level] == labels[cell_period]
    blocks = [
        by_period(sample, (start == g.index)[a.unit_codes], g.prev())[1] for g in interacted
    ]
    cov_names, cov_matrix = expand_covariates(sample, covariates)
    x = np.column_stack([*blocks, cov_matrix])
    kept = [c for c, ok in zip(names, linked) if ok]
    if len(kept) < len(names):
        x = x[:, np.flatnonzero(np.append(linked, np.ones(len(cov_names), dtype=bool)))]
    fit = wls_fit(replace(DesignMatrix.from_panel(sample, kept + cov_names, x), weight=row_weight))
    ratios = {c: 0.0 for c, ok in zip(names, linked) if not ok} | dict(fit.pivot_ratios)
    ratios = {c: ratios[c] for c in names + cov_names if c in ratios}
    return replace(fit, dropped_collinear=tuple(ratios), pivot_ratios=ratios)


def assert_close(got, want, rel):
    """`got` within `rel` of `want`, measured against the largest entry of `want`."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestCsAtt:
    def test_canonical_2x2(self, canonical_2x2):
        data, p1, p2, dd = canonical_2x2
        cohorts = {"treated": p2, "control": None}
        for rule in ("never_treated", "not_yet_treated"):
            res = cs_att(data, cohorts, control_rule=rule, bootstrap_draws=0)
            assert len(res.entries) == 1
            cell = res.entry(p2, p2)
            assert cell.att == pytest.approx(dd, abs=1e-12)
            assert cell.event_time == 0

    def test_zero_noise_recovers_every_cell(self):
        cohorts = {"a": P(2013, 3), "b": P(2014, 2), "n1": None, "n2": None}
        effect = lambda g, e: 0.5 + 0.25 * e
        data = build(cohorts, effect=effect)
        for rule in ("never_treated", "not_yet_treated"):
            res = cs_att(data, cohorts, control_rule=rule, bootstrap_draws=0)
            assert res.entries
            for cell in res.entries:
                assert cell.att == pytest.approx(
                    effect(cell.cohort, cell.event_time), abs=1e-10
                ), (rule, cell)

    def test_pre_period_placebos_vanish(self):
        cohorts = {"a": P(2014, 1), "n": None}
        data = build(cohorts, effect=lambda g, e: 1.0)
        res = cs_att(data, cohorts, include_pre=True, bootstrap_draws=0)
        pre = [c for c in res.entries if c.period < c.cohort]
        assert pre
        for cell in pre:
            assert cell.att == pytest.approx(0.0, abs=1e-10)
            assert cell.event_time <= -2  # the base period itself is never estimated
        events = {c.event_time for c in res.entries}
        assert -1 not in events

    def test_base_period_has_no_entry_without_pre(self):
        cohorts = {"a": P(2013, 4), "n": None}
        data = build(cohorts, effect=lambda g, e: 1.0)
        res = cs_att(data, cohorts, bootstrap_draws=0)
        assert {c.event_time for c in res.entries} == {0, 1, 2, 3, 4}

    def test_control_rules_agree_with_single_cohort(self):
        cohorts = {"a": P(2013, 4), "b": P(2013, 4), "n1": None, "n2": None}
        data = build(cohorts, effect=lambda g, e: -0.3, noise=0.2, seed=5)
        never = cs_att(data, cohorts, "never_treated", bootstrap_draws=50, seed=9)
        notyet = cs_att(data, cohorts, "not_yet_treated", bootstrap_draws=50, seed=9)
        assert never.entries == notyet.entries

    def test_not_yet_treated_uses_later_cohorts(self):
        # late cohort units serve as controls before adoption, so the rules
        # disagree when the late cohort is on a different level path
        cohorts = {"a": P(2013, 3), "b": P(2014, 3), "n": None}
        data = build(cohorts, effect=lambda g, e: 1.0, noise=0.1, seed=11)
        never = cs_att(data, cohorts, "never_treated", bootstrap_draws=0)
        notyet = cs_att(data, cohorts, "not_yet_treated", bootstrap_draws=0)
        a_cells_never = [c.att for c in never.entries if c.cohort == P(2013, 3)]
        a_cells_notyet = [c.att for c in notyet.entries if c.cohort == P(2013, 3)]
        assert a_cells_never != a_cells_notyet

    def test_unknown_rule_rejected(self):
        data = build({"a": P(2013, 3), "n": None})
        with pytest.raises(ValueError, match="not_yet_treated"):
            cs_att(data, {"a": P(2013, 3), "n": None}, "nearest", bootstrap_draws=0)

    def test_seed_required_for_bootstrap(self):
        cohorts = {"a": P(2013, 3), "n": None}
        data = build(cohorts)
        with pytest.raises(ValueError, match="seed"):
            cs_att(data, cohorts, bootstrap_draws=10)

    def test_cohort_without_base_period_skipped(self):
        cohorts = {"a": P(2013, 1), "n": None}
        data = build(cohorts, effect=lambda g, e: 1.0)
        with pytest.warns(UserWarning, match="base period.*skipped"):
            res = cs_att(data, cohorts, bootstrap_draws=0)
        assert res.entries == ()

    def test_weight_rescaling_invariance(self):
        cohorts = {"a": P(2013, 4), "b": P(2014, 2), "n1": None, "n2": None}
        data = build(cohorts, effect=lambda g, e: 0.4, noise=0.3, seed=2)
        w1 = {u: 1.0 + i for i, u in enumerate(cohorts)}
        w7 = {u: 7.0 * v for u, v in w1.items()}
        r1 = cs_att(data, cohorts, weights=w1, bootstrap_draws=40, seed=4)
        r7 = cs_att(data, cohorts, weights=w7, bootstrap_draws=40, seed=4)
        for c1, c7 in zip(r1.entries, r7.entries):
            assert c7.att == pytest.approx(c1.att, rel=1e-12)
            assert c7.se == pytest.approx(c1.se, rel=1e-12)

    def test_unit_weights_tilt_group_means(self):
        p2 = P(2013, 2)
        obs = []
        for u, tau in (("t1", 1.0), ("t2", 3.0)):
            obs.append(Observation(u, P(2013, 1), 0.0, 1.0))
            obs.append(Observation(u, p2, tau, 1.0))
        obs.append(Observation("n", P(2013, 1), 0.0, 1.0))
        obs.append(Observation("n", p2, 0.0, 1.0))
        data = panel_of(tuple(obs))
        cohorts = {"t1": p2, "t2": p2, "n": None}
        res = cs_att(data, cohorts, weights={"t1": 3.0, "t2": 1.0, "n": 1.0},
                     bootstrap_draws=0)
        assert res.entry(p2, p2).att == pytest.approx((3 * 1.0 + 1 * 3.0) / 4, abs=1e-12)
        assert res.entry(p2, p2).treated_weight == pytest.approx(4.0)

    def test_covariate_adjustment_recovers_effect(self):
        # control deltas are linear in z; the unadjusted contrast mixes the
        # z slope into the effect, the adjusted one removes it exactly
        p1, p2 = P(2013, 1), P(2013, 2)
        z = {"t1": 3.0, "t2": 3.0, "c0": 0.0, "c1": 1.0, "c2": 2.0}
        tau = 0.7
        obs = []
        for u, zu in z.items():
            treated = u.startswith("t")
            obs.append(Observation(u, p1, 0.0, 1.0, (zu,)))
            delta = 2.0 * zu + (tau if treated else 0.0)
            obs.append(Observation(u, p2, delta, 1.0, (zu,)))
        data = panel_of(tuple(obs), covariate_names=("z",))
        cohorts = {u: (p2 if u.startswith("t") else None) for u in z}
        raw = cs_att(data, cohorts, bootstrap_draws=0)
        adj = cs_att(data, cohorts, covariates=("z",), bootstrap_draws=0)
        assert abs(raw.entry(p2, p2).att - tau) > 0.5
        assert adj.entry(p2, p2).att == pytest.approx(tau, abs=1e-10)

    def test_bootstrap_matches_bruteforce(self):
        cohorts = {"a1": P(2013, 3), "a2": P(2013, 3), "b": P(2014, 2),
                   "n1": None, "n2": None, "n3": None}
        data = build(cohorts, effect=lambda g, e: 0.5, noise=0.4, seed=21)
        draws, seed = 150, 77
        res = cs_att(data, cohorts, bootstrap_draws=draws, seed=seed)
        m = multinomial_draws(seed, len(data.units), draws)

        y = {(o.unit, o.period): o.outcome for o in data.observations}
        units = data.units
        start = {u: cohorts[u] for u in units}
        for k, cell in enumerate(res.entries):
            base = cell.cohort.prev()
            delta = np.array([y[(u, cell.period)] - y[(u, base)] for u in units])
            tsel = np.array([start[u] == cell.cohort for u in units])
            csel = np.array([start[u] is None for u in units])
            reps = []
            for b in range(draws):
                tw, cw = m[b][tsel], m[b][csel]
                if tw.sum() <= 0 or cw.sum() <= 0:
                    continue
                reps.append(np.average(delta[tsel], weights=tw)
                            - np.average(delta[csel], weights=cw))
            expected = float(np.std(reps, ddof=1))
            assert cell.se == pytest.approx(expected, rel=1e-10), cell
            np.testing.assert_allclose(
                np.nanstd(res.boot[:, k], ddof=1), expected, rtol=1e-10
            )

    @pytest.mark.parametrize("rule, controls, tilt", [
        *((r, 3, None) for r in CONTROL_RULES), ("never_treated", 6, 1e-3)])
    def test_covariate_bootstrap_matches_bruteforce(self, rule, controls, tilt):
        # three never-treated units for an intercept and two slopes: many
        # draws hold fewer distinct controls than that, so their control
        # design is rank-deficient and the draw is skipped. With a tilt, z2
        # is z1 plus tilt times noise, so a draw's pivot for z2 is near 1e-6
        # of its squared norm, where normal equations lose about 1e-8
        # relative; such draws must take the exact re-fit too.
        cohorts = {"a1": P(2013, 3), "a2": P(2013, 3), "b": P(2014, 2)}
        cohorts.update({f"n{k}": None for k in range(1, controls + 1)})
        rng = np.random.default_rng(3)
        names = ("z1", "z2")
        constants = {n: {u: float(rng.normal()) for u in cohorts} for n in names}
        if tilt is not None:
            constants["z2"] = {u: constants["z1"][u] + tilt * v
                               for u, v in constants["z2"].items()}
        weights = {u: 0.5 + float(rng.uniform()) for u in cohorts}
        data = build(cohorts, effect=lambda g, e: 0.5, noise=0.4, seed=8,
                     constants=constants)
        draws, seed = 150, 41
        res = cs_att(data, cohorts, rule, weights, covariates=names,
                     bootstrap_draws=draws, seed=seed)
        m = multinomial_draws(seed, len(data.units), draws)

        units = data.units
        y = {(o.unit, o.period): o.outcome for o in data.observations}
        z = np.array([[constants[n][u] for n in names] for u in units])
        uw = np.array([weights[u] for u in units])
        start = [cohorts[u] for u in units]
        thin = 0
        for cell in res.entries:
            base = cell.cohort.prev()
            horizon = max(cell.period, base)
            delta = np.array([y[(u, cell.period)] - y[(u, base)] for u in units])
            tsel = np.array([s == cell.cohort for s in start])
            csel = np.array([
                s is None or (rule == "not_yet_treated" and s > horizon) for s in start
            ])
            reps = []
            for b in range(draws):
                w = uw * m[b]
                t, c = tsel & (w > 0), csel & (w > 0)
                if not (t.any() and c.any()):
                    continue
                thin += len(np.unique(z[c], axis=0)) < 1 + len(names)
                root = np.sqrt(w[c])
                design = np.column_stack([np.ones(c.sum()), z[c]])
                if np.linalg.matrix_rank(design * root[:, None]) < 1 + len(names):
                    continue
                beta = np.linalg.lstsq(design * root[:, None], delta[c] * root,
                                       rcond=None)[0]
                gaps = delta[t] - np.column_stack([np.ones(t.sum()), z[t]]) @ beta
                reps.append(np.average(gaps, weights=w[t]))
            assert cell.se == pytest.approx(float(np.std(reps, ddof=1)), rel=1e-9), cell
        assert thin > 0

    def test_covariate_shift_moves_no_att_or_se(self):
        # Draws whose controls cannot identify an intercept and two slopes are
        # skipped, not fit by a minimum-norm solution that depends on where
        # the covariates are centred; so adding 10 to z1 moves nothing.
        cohorts = {"a1": P(2013, 3), "a2": P(2013, 3), "b": P(2014, 2)}
        cohorts.update({f"n{k}": None for k in range(1, 4)})
        rng = np.random.default_rng(3)
        constants = {n: {u: float(rng.normal()) for u in cohorts} for n in ("z1", "z2")}
        weights = {u: 0.5 + float(rng.uniform()) for u in cohorts}
        shifted = {**constants, "z1": {u: v + 10.0 for u, v in constants["z1"].items()}}
        base, moved = (
            cs_att(build(cohorts, effect=lambda g, e: 0.5, noise=0.4, seed=8, constants=c),
                   cohorts, "never_treated", weights, covariates=("z1", "z2"),
                   bootstrap_draws=150, seed=41)
            for c in (constants, shifted)
        )
        scale = max(cell.se for cell in base.entries)
        assert len(base.entries) == len(moved.entries) > 0
        for cell, other in zip(base.entries, moved.entries):
            assert other.att == pytest.approx(cell.att, rel=1e-9)
            assert abs(other.se - cell.se) <= 1e-9 * scale

    def test_collinear_control_covariates_omit_cell(self):
        # z is the same for every never-treated unit, so no cell's control
        # design identifies its slope: every entry is omitted with a warning.
        cohorts = {"a": P(2013, 4), "n1": None, "n2": None}
        constants = {"z": {"a": 1.0, "n1": 2.0, "n2": 2.0}}
        data = build(cohorts, effect=lambda g, e: 1.0, noise=0.1, seed=1, constants=constants)
        with pytest.warns(UserWarning, match="collinear; entry omitted"):
            res = cs_att(data, cohorts, covariates=("z",), bootstrap_draws=0)
        assert res.entries == ()

    def test_json_payload(self):
        cohorts = {"a": P(2013, 4), "n": None}
        data = build(cohorts, effect=lambda g, e: 1.0, noise=0.1, seed=1)
        res = cs_att(data, cohorts, bootstrap_draws=25, seed=3)
        payload = res.to_json_dict()
        assert payload["estimator"] == "cs_att"
        assert payload["control_rule"] == "never_treated"
        assert payload["bootstrap_draws"] == 25
        first = payload["entries"][0]
        assert set(first) == {"cohort", "period", "event_time", "att", "se",
                              "conf_low", "conf_high"}
        assert first["conf_high"] == pytest.approx(first["att"] + Z95 * first["se"])

    def test_missing_entry_lookup(self):
        cohorts = {"a": P(2013, 4), "n": None}
        res = cs_att(build(cohorts), cohorts, bootstrap_draws=0)
        with pytest.raises(KeyError):
            res.entry(P(2013, 4), P(2013, 3))


class TestCsAggregate:
    @staticmethod
    def two_cohort_fixture():
        periods = tuple(period_range(P(2013, 1), P(2013, 4)))
        cohorts = {"g1a": P(2013, 2), "g1b": P(2013, 2)}
        cohorts.update({f"g2{k}": P(2013, 4) for k in "abcdef"})
        cohorts.update({f"n{k}": None for k in "abcd"})
        effects = {P(2013, 2): 1.0, P(2013, 4): 3.0}
        data = build(cohorts, periods, effect=lambda g, e: effects[g])
        return data, cohorts

    def test_overall_weighted_by_treated_cells(self):
        data, cohorts = self.two_cohort_fixture()
        res = cs_att(data, cohorts, bootstrap_draws=0)
        overall = cs_aggregate(res, "overall")
        # 3 entries of weight 2 at effect 1, 1 entry of weight 6 at effect 3
        assert overall.values["overall"].estimate == pytest.approx(2.0, abs=1e-10)

    def test_by_cohort(self):
        data, cohorts = self.two_cohort_fixture()
        agg = cs_aggregate(cs_att(data, cohorts, bootstrap_draws=0), "by_cohort")
        assert agg.values[P(2013, 2)].estimate == pytest.approx(1.0, abs=1e-10)
        assert agg.values[P(2013, 4)].estimate == pytest.approx(3.0, abs=1e-10)

    def test_by_event_time_mixes_cohorts_at_zero(self):
        data, cohorts = self.two_cohort_fixture()
        agg = cs_aggregate(cs_att(data, cohorts, bootstrap_draws=0), "by_event_time")
        assert agg.values[0].estimate == pytest.approx((2 * 1.0 + 6 * 3.0) / 8, abs=1e-10)
        assert agg.values[1].estimate == pytest.approx(1.0, abs=1e-10)
        assert agg.values[2].estimate == pytest.approx(1.0, abs=1e-10)

    def test_dynamic_profile_by_event_time(self):
        cohorts = {"a": P(2013, 3), "b": P(2014, 1), "n": None}
        data = build(cohorts, effect=lambda g, e: float(e + 1))
        agg = cs_aggregate(cs_att(data, cohorts, bootstrap_draws=0), "by_event_time")
        for e, v in agg.values.items():
            assert v.estimate == pytest.approx(e + 1.0, abs=1e-10)

    def test_json_payload_keys_values_by_their_text(self):
        data, cohorts = self.two_cohort_fixture()
        agg = cs_aggregate(cs_att(data, cohorts, bootstrap_draws=30, seed=2), "by_cohort")
        payload = agg.to_json_dict()
        assert payload["kind"] == "by_cohort"
        assert list(payload["values"]) == ["2013Q2", "2013Q4"]
        for entry, value in zip(payload["values"].values(), agg.values.values()):
            assert entry == value.to_json_dict()
            assert set(entry) == {"estimate", "se", "conf_low", "conf_high"}
        assert payload["values"]["2013Q4"]["estimate"] == pytest.approx(3.0, abs=1e-10)

    def test_unknown_kind_rejected(self):
        data, cohorts = self.two_cohort_fixture()
        res = cs_att(data, cohorts, bootstrap_draws=0)
        with pytest.raises(ValueError, match="by_event_time"):
            cs_aggregate(res, "median")

    def test_empty_result_rejected(self):
        cohorts = {"a": P(2013, 1), "n": None}
        data = build(cohorts)
        with pytest.warns(UserWarning):
            res = cs_att(data, cohorts, bootstrap_draws=0)
        with pytest.raises(ValueError, match="aggregate"):
            cs_aggregate(res)

    def test_aggregate_se_comes_from_combined_draws(self):
        cohorts = {"a": P(2013, 4), "b": P(2014, 2), "n1": None, "n2": None}
        data = build(cohorts, effect=lambda g, e: 0.2, noise=0.3, seed=8)
        res = cs_att(data, cohorts, bootstrap_draws=120, seed=15)
        agg = cs_aggregate(res, "overall")
        w = np.array([c.treated_weight for c in res.entries])
        w = w / w.sum()
        combined = res.boot @ w
        expected = float(np.std(combined[np.isfinite(combined)], ddof=1))
        assert agg.values["overall"].se == pytest.approx(expected, rel=1e-12)
        v = agg.values["overall"]
        assert v.conf_int()[0] == pytest.approx(v.estimate - Z95 * v.se, rel=1e-12)


EARLY = P(2014, 3)


def early_design(units_high):
    rows = {}
    for u, high in units_high.items():
        group = SwitcherGroup.from_flags(high, high)
        rows[u] = RegionTreatment(
            gap_first=0.8 if high else 0.2,
            gap_second=0.8 if high else 0.2,
            high_first=high,
            high_second=high,
            group=group,
            cohort=EARLY if high else None,
            population_weight=1.0,
        )
    return TreatmentDesign(rows)


class TestSaEventStudy:
    def test_zero_noise_path_recovery(self):
        cohorts = {"a": P(2013, 3), "b": P(2013, 3), "n1": None, "n2": None}
        effect = lambda g, e: 0.5 * (e + 1)
        data = build(cohorts, effect=effect, noise=0.0)
        res = sa_event_study(data, cohorts)
        for e, v in res.entries.items():
            want = effect(P(2013, 3), e) if e >= 0 else 0.0
            assert v.estimate == pytest.approx(want, abs=1e-8), e

    def test_matches_saturated_event_study_design(self):
        # single early cohort: the interaction fit is the classic event
        # study with the pre-adoption quarter as baseline
        periods = tuple(period_range(P(2014, 1), P(2015, 2)))
        units_high = {"a": True, "b": True, "n1": False, "n2": False}
        cohorts = {u: (EARLY if h else None) for u, h in units_high.items()}
        data = build(cohorts, periods, effect=lambda g, e: 0.3 * e, noise=0.25, seed=33)
        res = sa_event_study(data, cohorts)
        spec = DidSpec(kind=DesignKind.EVENT_STUDY, baseline=EARLY.prev())
        fit = wls_fit(build_event_study(data, early_design(units_high), spec))
        for name, est in fit.coefficients.items():
            period = Period.parse(name.split("@")[1])
            e = period.index - EARLY.index
            assert res.fit.coefficients[f"e{e}@{EARLY}"] == pytest.approx(est, abs=1e-8)

    def test_cohort_share_weighting_at_event_zero(self):
        periods = tuple(period_range(P(2013, 1), P(2013, 4)))
        cohorts = {"a": P(2013, 2)}
        cohorts.update({f"b{k}": P(2013, 3) for k in "123"})
        cohorts.update({"n1": None, "n2": None})
        effects = {P(2013, 2): 4.0, P(2013, 3): 0.0}
        data = build(cohorts, periods, effect=lambda g, e: effects[g])
        res = sa_event_study(data, cohorts)
        assert res.entries[0].estimate == pytest.approx(1.0, abs=1e-8)
        shares = res.cohort_shares[0]
        assert shares[P(2013, 2)] == pytest.approx(1.0)
        assert shares[P(2013, 3)] == pytest.approx(3.0)

    def test_overall_on_constant_effect(self):
        cohorts = {"a": P(2013, 3), "b": P(2014, 1), "n1": None, "n2": None}
        data = build(cohorts, effect=lambda g, e: -0.05)
        est, se = sa_event_study(data, cohorts).overall()
        assert est == pytest.approx(-0.05, abs=1e-8)
        assert se >= 0.0

    def test_no_never_units_drops_tail_with_warning(self):
        cohorts = {"a": P(2013, 3), "b1": P(2014, 2), "b2": P(2014, 2)}
        data = build(cohorts, effect=lambda g, e: 1.0)
        with pytest.warns(UserWarning, match="2014Q2.*control"):
            res = sa_event_study(data, cohorts)
        seen = {Period.parse(n.split("@")[1]) for n in res.fit.columns}
        assert max(seen) < P(2014, 2)
        for e, v in res.entries.items():
            want = 1.0 if e >= 0 else 0.0
            assert v.estimate == pytest.approx(want, abs=1e-8)

    def test_single_cohort_without_controls_rejected(self):
        cohorts = {"a": P(2013, 3), "b": P(2013, 3)}
        data = build(cohorts)
        with pytest.raises(ValueError, match="never-treated units or at least two"):
            sa_event_study(data, cohorts)

    def test_weight_rescaling_invariance(self):
        cohorts = {"a": P(2013, 3), "b": P(2014, 1), "n1": None, "n2": None}
        data = build(cohorts, effect=lambda g, e: 0.2, noise=0.2, seed=6)
        w1 = {u: float(i + 1) for i, u in enumerate(cohorts)}
        w9 = {u: 9.0 * v for u, v in w1.items()}
        r1 = sa_event_study(data, cohorts, weights=w1)
        r9 = sa_event_study(data, cohorts, weights=w9)
        for e in r1.entries:
            assert r9.entries[e].estimate == pytest.approx(
                r1.entries[e].estimate, rel=1e-10
            )
            assert r9.entries[e].se == pytest.approx(r1.entries[e].se, rel=1e-9)

    def test_json_payload(self):
        cohorts = {"a": P(2013, 3), "n": None}
        data = build(cohorts, effect=lambda g, e: 0.1, noise=0.1, seed=2)
        res = sa_event_study(data, cohorts)
        payload = res.to_json_dict()
        assert payload["estimator"] == "sa_event_study"
        assert all(set(v) == {"estimate", "se", "conf_low", "conf_high"}
                   for v in payload["entries"].values())
        crit = stats.t.ppf(0.975, res.fit.df_inference)  # CR1 SEs: t(G-1), not normal
        first = payload["entries"]["0"]
        assert first["conf_high"] == pytest.approx(first["estimate"] + crit * first["se"],
                                                   rel=1e-12)

    @staticmethod
    def level_and_dense(data, cohorts, weights, covariates, monkeypatch):
        """The event study as fitted, and as fitted by the dense oracle."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            level = sa_event_study(data, cohorts, covariates, weights)
            monkeypatch.setattr(staggered, "_sa_fit", sa_dense_fit)
            dense = sa_event_study(data, cohorts, covariates, weights)
        return level, dense

    @staticmethod
    def assert_matches_dense(level, dense):
        a, b = level.fit, dense.fit
        assert a.columns == b.columns
        assert a.dropped_collinear == b.dropped_collinear
        assert a.n_obs == b.n_obs and a.n_clusters == b.n_clusters
        assert a.fe_components == b.fe_components
        assert_close(a.coef_vector(), b.coef_vector(), 1e-9)
        for name in a.columns:
            assert a.se(name) == pytest.approx(b.se(name), rel=1e-9)
        assert_close(a.vcov, b.vcov, 1e-9)
        assert_close(a.residuals, b.residuals, 1e-9)
        assert a.condition == pytest.approx(b.condition, rel=1e-9)
        assert level.entries.keys() == dense.entries.keys()
        assert level.cohort_shares == dense.cohort_shares
        assert_close([v.estimate for v in level.entries.values()],
                     [v.estimate for v in dense.entries.values()], 1e-9)
        for e, v in level.entries.items():
            assert v.se == pytest.approx(dense.entries[e].se, rel=1e-9)
        assert level.overall() == pytest.approx(dense.overall(), rel=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_level_fit_matches_dense_fit(self, seed, monkeypatch):
        # The fit is one solve over cohort x period levels; the dense fit,
        # a column per cell, is its oracle.
        data, cohorts, weights = random_staggered_panel(seed, never=seed % 3 > 0)
        level, dense = self.level_and_dense(data, cohorts, weights, (), monkeypatch)
        self.assert_matches_dense(level, dense)
        assert "e-2@2013Q3" in level.fit.dropped_collinear  # a cell with no rows
        assert level.fit.n_clusters < len(data.units)

    @pytest.mark.parametrize("seed, plan", [
        *((seed, "share*time") for seed in range(12)),
        (4, "east + share"),  # unit-constant columns: the unit effects absorb both
        (5, "east*time + share"),
    ])
    def test_covariate_fit_matches_dense_fit(self, seed, plan, monkeypatch):
        # Covariates enter the level solve by Frisch-Waugh; the dense fit puts
        # them beside the cell columns in one QR.
        data, cohorts, weights = random_staggered_panel(seed, never=seed % 3 > 0)
        covariates = tuple(CovariateTerm.parse(t) for t in plan.split(" + "))
        level, dense = self.level_and_dense(data, cohorts, weights, covariates, monkeypatch)
        self.assert_matches_dense(level, dense)
        cov_columns = expand_covariates(data, covariates)[0]
        dropped = [c for c in level.fit.dropped_collinear if c in cov_columns]
        assert all(level.fit.pivot_ratios[c] <= PIVOT_RTOL for c in dropped)
        absorbed = {"share*time": [], "east + share": ["east", "share"],
                    "east*time + share": ["share"]}[plan]
        assert dropped == absorbed

    @pytest.mark.parametrize("seed", range(12))
    def test_covariate_fit_invariance(self, seed):
        # With a time-interacted covariate, rescaled weights leave every
        # estimate and SE as it is, and y -> a + b*y scales estimates by b
        # and SEs by |b|.
        data, cohorts, weights = random_staggered_panel(seed, never=seed % 3 > 0)

        def summary(data, weights):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = sa_event_study(data, cohorts, (CovariateTerm("share"),), weights)
            pairs = [(v.estimate, v.se) for v in res.entries.values()] + [res.overall()]
            return np.array(pairs).T

        (est, se) = summary(data, weights)
        for factor in (3.0, 2.0**-7):
            rows = tuple(replace(o, weight=factor * o.weight) for o in data.observations)
            scaled = panel_of(rows, data.covariate_names, data.cluster)
            unit = None if weights is None else {u: factor * w for u, w in weights.items()}
            got_est, got_se = summary(scaled, unit)
            assert_close(got_est, est, 1e-9)
            assert_close(got_se, se, 1e-9)
        for shift, scale in ((3.0, 2.5), (-40.0, -0.01), (1e4, 1e3)):
            got_est, got_se = summary(data.with_outcome(shift + scale * data.arrays.outcome),
                                      weights)
            assert_close(got_est, scale * est, 1e-9)
            assert_close(got_se, abs(scale) * se, 1e-9)

    def test_level_fit_drops_cells_of_a_period_without_controls(self):
        # Every 2014Q1 row is a treated cell's: the period's effect, and so every
        # cell coefficient at 2014Q1, is not identified.
        cohorts = {"a": P(2013, 3), "b": P(2013, 4), "n1": None, "n2": None}
        full = build(cohorts, effect=lambda g, e: 1.0, noise=0.1, seed=4)
        data = panel_of(tuple(
            o for o in full.observations
            if not (cohorts[o.unit] is None and o.period == P(2014, 1))
        ))
        fit = sa_event_study(data, cohorts).fit
        assert fit.dropped_collinear == ("e2@2013Q3", "e1@2013Q4")
        assert fit.pivot_ratios == {"e2@2013Q3": 0.0, "e1@2013Q4": 0.0}

    def test_dense_fit_drops_cells_of_a_period_without_controls(self):
        # The covariate path drops the same cells by the same rule, rather
        # than keeping the earlier cohort's cell as a contrast with the later.
        cohorts = {"a": P(2013, 3), "b": P(2013, 4), "n1": None, "n2": None}
        constants = {"east": {"a": 1.0, "b": 0.0, "n1": 1.0, "n2": 0.0}}
        full = build(cohorts, effect=lambda g, e: 1.0, noise=0.1, seed=4, constants=constants)
        data = panel_of(tuple(
            o for o in full.observations
            if not (cohorts[o.unit] is None and o.period == P(2014, 1))
        ), covariate_names=("east",))
        fit = sa_event_study(data, cohorts, covariates=(CovariateTerm("east"),)).fit
        cells = [c for c in fit.dropped_collinear if not c.startswith("east")]
        assert cells == ["e2@2013Q3", "e1@2013Q4"]
        assert {c: fit.pivot_ratios[c] for c in cells} == {"e2@2013Q3": 0.0, "e1@2013Q4": 0.0}
        level = sa_event_study(data, cohorts).fit
        assert [c for c in fit.columns if not c.startswith("east")] == list(level.columns)

    @pytest.mark.parametrize("with_covariates", [False, True])
    @pytest.mark.parametrize("case", ["adopts at the first period", "no row at g-1"])
    def test_cohort_without_base_row_dropped(self, case, with_covariates):
        cohorts = {"a": P(2013, 1), "b": P(2013, 4), "c": P(2013, 4), "n1": None,
                   "n2": None, "n3": None}
        if case == "no row at g-1":
            cohorts["a"] = P(2013, 3)
        effect = lambda g, e: 0.5 if g == cohorts["a"] else 0.2
        constants = {"east": {u: float(i % 2) for i, u in enumerate(cohorts)}}
        full = build(cohorts, effect=effect, noise=0.0, seed=3, constants=constants)
        data = panel_of(tuple(
            o for o in full.observations if not (o.unit == "a" and o.period == P(2013, 2))
        ), covariate_names=("east",))
        covariates = (CovariateTerm("east"),) if with_covariates else ()
        with pytest.warns(UserWarning, match=rf"cohort {cohorts['a']}: no row at its base"):
            res = sa_event_study(data, cohorts, covariates=covariates)
        assert f"e0@{cohorts['a']}" not in res.fit.columns + res.fit.dropped_collinear
        assert all(cohorts["a"] not in shares for shares in res.cohort_shares.values())
        assert res.fit.n_obs == data.n_obs - 7
        for e, v in res.entries.items():
            assert v.estimate == pytest.approx(0.2 if e >= 0 else 0.0, abs=1e-8)

    def test_cohort_after_last_kept_period_serves_as_controls(self):
        # no never-treated unit; the 2017Q1 cohort starts in the gap the panel has
        # from 2017Q1 up to the control cohort's start
        data, design, _ = generate(DgpConfig(n_never=0, n_early=5, n_late=5, seed=7))
        cohorts = design.cohort_map()
        moved = sorted(u for u, g in cohorts.items() if g == P(2019, 1))[:3]
        a = data.arrays
        gap = (a.period_index >= P(2017, 1).index) & (a.period_index <= P(2018, 4).index)
        data = data._subset(~gap[a.period_codes])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = sa_event_study(data, {**cohorts, **{u: P(2017, 1) for u in moved}})
        assert [str(w.message) for w in caught] == [
            "no never-treated units: cohort 2019Q1 serves as the control and periods "
            "from 2019Q1 on are dropped",
            "cohort 2017Q1 starts after the last kept period 2016Q4; its units serve as controls",
        ]
        assert res.fit.n_obs == int((data.arrays.period_index < P(2017, 1).index).sum()) * 10
        with pytest.warns(UserWarning, match="2019Q1.*control"):
            control = sa_event_study(data, cohorts)
        assert res.fit.coef_vector().tobytes() == control.fit.coef_vector().tobytes()
        assert res.fit.vcov.tobytes() == control.fit.vcov.tobytes()

    def test_no_cohort_with_base_row_rejected(self):
        cohorts = {"a": P(2013, 1), "n": None}
        with pytest.warns(UserWarning, match="cohort 2013Q1"):
            with pytest.raises(ValueError, match="no treated cohort has a row at its base"):
                sa_event_study(build(cohorts), cohorts)


class TestImpute:
    def test_exact_recovery_on_additive_grid(self):
        periods = EIGHT
        cohorts = {"a": P(2013, 4), "b": P(2014, 2), "n1": None, "n2": None}
        rng = np.random.default_rng(14)
        alpha = {u: float(rng.normal()) for u in cohorts}
        lam = [float(rng.normal()) for _ in periods]
        obs = []
        for u, g in cohorts.items():
            for j, p in enumerate(periods):
                y = alpha[u] + lam[j]
                if g is not None and p >= g:
                    y += 2.0
                obs.append(Observation(u, p, y, 1.0))
        data = panel_of(tuple(obs))
        res = impute_att(data, cohorts, bootstrap_draws=0)
        assert res.aggregate == pytest.approx(2.0, abs=1e-10)
        assert all(e == pytest.approx(2.0, abs=1e-10) for e in res.effect_values.tolist())
        assert res.n_treated == 5 + 3
        assert res.n_untreated == len(obs) - 8
        assert {res.units[c] for c in res.unit_codes.tolist()} == {"a", "b"}

    def test_no_treated_rejected(self):
        cohorts = {"a": None, "b": None}
        data = build(cohorts)
        with pytest.raises(ValueError, match="nothing to impute"):
            impute_att(data, cohorts, bootstrap_draws=0)

    def test_all_treated_rejected(self):
        p = P(2013, 1)
        cohorts = {"a": p, "b": p}
        data = build(cohorts, periods=(p, p.shift(1)))
        with pytest.raises(ValueError, match="every observation is treated"):
            impute_att(data, cohorts, bootstrap_draws=0)

    def test_unit_without_pretreatment_rows_rejected(self):
        cohorts = {"a": P(2013, 1), "n": None}
        data = build(cohorts)
        with pytest.raises(ValueError, match=r"\['a'\].*no untreated"):
            impute_att(data, cohorts, bootstrap_draws=0)

    def test_period_without_untreated_rows_rejected(self):
        periods = tuple(period_range(P(2013, 1), P(2013, 4)))
        cohorts = {"a": P(2013, 2), "b": P(2013, 3)}
        data = build(cohorts, periods)
        with pytest.raises(ValueError, match="2013Q3.*no untreated"):
            impute_att(data, cohorts, bootstrap_draws=0)

    def test_disconnected_untreated_sample_rejected(self):
        # a and n1 are seen in the first four quarters, b and n2 in the last
        # four: the untreated cells form two unlinked blocks
        cohorts = {"a": EIGHT[2], "n1": None, "b": EIGHT[6], "n2": None}
        obs = [
            Observation(u, p, float(j + i), 1.0)
            for i, u in enumerate(cohorts)
            for j, p in enumerate(EIGHT)
            if (u in ("a", "n1")) == (j < 4)
        ]
        data = panel_of(tuple(obs))
        with pytest.raises(ValueError, match="do not connect all units and periods"):
            impute_att(data, cohorts, bootstrap_draws=0)

    def test_weight_rescaling_invariance(self):
        cohorts = {"a": P(2013, 4), "b": P(2014, 2), "n1": None, "n2": None}
        data = build(cohorts, effect=lambda g, e: 0.3, noise=0.2, seed=10)
        w1 = {u: float(i + 1) for i, u in enumerate(cohorts)}
        w4 = {u: 4.0 * v for u, v in w1.items()}
        r1 = impute_att(data, cohorts, weights=w1, bootstrap_draws=60, seed=12)
        r4 = impute_att(data, cohorts, weights=w4, bootstrap_draws=60, seed=12)
        assert r4.aggregate == pytest.approx(r1.aggregate, rel=1e-12)
        assert r4.se == pytest.approx(r1.se, rel=1e-10)

    def test_bootstrap_matches_bruteforce(self):
        cohorts = {"a1": P(2013, 3), "a2": P(2013, 4), "b": P(2014, 2),
                   "n1": None, "n2": None, "n3": None}
        data = build(cohorts, effect=lambda g, e: 0.5, noise=0.4, seed=19)
        draws, seed = 200, 123
        res = impute_att(data, cohorts, bootstrap_draws=draws, seed=seed)
        expected, _ = impute_bruteforce_se(data, cohorts, draws, seed)
        assert res.se == pytest.approx(expected, rel=1e-9)

    @staticmethod
    def trend_fixture():
        """Two treated and three control units whose trend loads on z."""
        periods = tuple(period_range(P(2013, 1), P(2013, 4)))
        z = {"t1": 3.0, "t2": 3.0, "c0": 0.0, "c1": 1.0, "c2": 2.0}
        cohorts = {u: (P(2013, 3) if u.startswith("t") else None) for u in z}
        obs = []
        for u, zu in z.items():
            for j, p in enumerate(periods):
                y = 0.1 * j + 0.8 * zu * j   # characteristic-specific slope
                if cohorts[u] is not None and p >= cohorts[u]:
                    y += 2.0
                obs.append(Observation(u, p, y, 1.0, (zu,)))
        return panel_of(tuple(obs), covariate_names=("z",)), cohorts, None

    def test_covariate_adjustment_removes_characteristic_trend(self):
        data, cohorts, _ = self.trend_fixture()
        raw = impute_att(data, cohorts, bootstrap_draws=0)
        adj = impute_att(data, cohorts, covariates=(CovariateTerm("z"),),
                         bootstrap_draws=0)
        assert abs(raw.aggregate - 2.0) > 0.5
        assert adj.aggregate == pytest.approx(2.0, abs=1e-8)
        # 8 of the 30 draws leave a z x period column collinear with the
        # fixed effects; they are re-fit exactly, dropping that column
        se = impute_att(data, cohorts, covariates=(CovariateTerm("z"),),
                        bootstrap_draws=30, seed=7).se
        assert se == pytest.approx(1.7207322686083057, rel=1e-9)

    def test_disconnected_draws_skipped(self):
        # Untreated a and d are seen in 2013Q1-Q2, b in Q2-Q3, c and e in
        # Q3-Q4; t is seen in all four and treated from Q3. A draw without b
        # leaves the untreated cells in two unlinked blocks, so its period
        # effects are not identified and the draw must be skipped.
        quarters = tuple(period_range(P(2013, 1), P(2013, 4)))
        spans = {"a": (0, 1), "d": (0, 1), "b": (1, 2), "c": (2, 3), "e": (2, 3),
                 "t": (0, 3)}
        obs = [
            Observation(u, quarters[j],
                        0.3 * k + 0.1 * j + 0.05 * ((7 * k + 3 * j) % 5)
                        + (1.0 if u == "t" and j >= 2 else 0.0),
                        (0.7, 1.3, 0.9, 2.1)[j])
            for k, (u, (first, last)) in enumerate(spans.items())
            for j in range(first, last + 1)
        ]
        data = panel_of(tuple(obs))
        cohorts = {u: (quarters[2] if u == "t" else None) for u in spans}
        res = impute_att(data, cohorts, bootstrap_draws=400, seed=5)
        expected, skipped = impute_bruteforce_se(data, cohorts, 400, 5)
        assert skipped == 174
        assert res.se == pytest.approx(expected, rel=1e-9)
        assert res.se == pytest.approx(0.0191, abs=5e-5)

    @staticmethod
    def covariate_fixture(seed=23):
        """Two cohorts and eight never-treated units whose trend loads on z."""
        cohorts = {"a1": P(2013, 3), "a2": P(2013, 4), "b1": P(2014, 2),
                   "b2": P(2014, 2)}
        cohorts.update({f"n{k}": None for k in range(8)})
        rng = np.random.default_rng(seed)
        z = {u: float(rng.normal()) for u in cohorts}
        obs = []
        for u, g in cohorts.items():
            alpha = float(rng.normal())
            for j, p in enumerate(EIGHT):
                y = alpha + 0.2 * j + 0.6 * z[u] * j + 0.4 * float(rng.normal())
                if g is not None and p >= g:
                    y += 0.5
                obs.append(Observation(u, p, y, 1.0, (z[u],)))
        weights = {u: 0.5 + float(rng.uniform()) for u in cohorts}
        return panel_of(tuple(obs), covariate_names=("z",)), cohorts, weights

    def test_covariate_bootstrap_matches_bruteforce(self):
        data, cohorts, weights = self.covariate_fixture()
        draws, seed = 150, 31
        res = impute_att(data, cohorts, covariates=(CovariateTerm("z"),),
                         weights=weights, bootstrap_draws=draws, seed=seed)

        a = data.arrays
        u_count, t_count = len(a.units), len(a.periods)
        z = a.covariates[:, 0]
        treated = np.array([
            cohorts[o.unit] is not None and o.period >= cohorts[o.unit]
            for o in data.observations
        ])
        unit_w = np.array([weights[u] for u in a.units])
        m = multinomial_draws(seed, u_count, draws)
        reps = np.full(draws, np.nan)
        for b in range(draws):
            wb = unit_w[a.unit_codes] * m[b][a.unit_codes]
            rows = np.flatnonzero(~treated & (wb > 0))
            present = np.zeros(t_count)
            np.add.at(present, a.period_codes[rows], wb[rows])
            if present.min() <= 0:
                continue
            # unit dummies, period dummies (first omitted), z x period (first omitted)
            design = np.zeros((len(a.outcome), u_count + 2 * (t_count - 1)))
            for i in range(len(a.outcome)):
                design[i, a.unit_codes[i]] = 1.0
                t = a.period_codes[i]
                if t > 0:
                    design[i, u_count + t - 1] = 1.0
                    design[i, u_count + t_count - 1 + t - 1] = z[i]
            used = np.flatnonzero(np.abs(design[rows]).sum(axis=0) > 0)
            sub = design[np.ix_(rows, used)]
            assert np.linalg.matrix_rank(sub) == len(used), b
            root = np.sqrt(wb[rows])
            coef, *_ = np.linalg.lstsq(sub * root[:, None], a.outcome[rows] * root,
                                       rcond=None)
            gaps = a.outcome - design[:, used] @ coef
            keep = treated & (wb > 0)
            if not keep.any():
                continue
            reps[b] = np.average(gaps[keep], weights=wb[keep])
        finite = reps[np.isfinite(reps)]
        assert len(finite) > draws // 2
        assert res.se == pytest.approx(float(np.std(finite, ddof=1)), rel=1e-9)

    def test_absorbed_covariates_fit_without_slopes(self):
        # The unit effects absorb a unit-constant column: the fit has no
        # slopes and is the fit without covariates, bootstrap included.
        cohorts = {"a": P(2013, 4), "b": P(2014, 2), "n1": None, "n2": None, "n3": None}
        constants = {"east": {"a": 1.0, "b": 0.0, "n1": 1.0, "n2": 0.0, "n3": 1.0}}
        data = build(cohorts, effect=lambda g, e: 0.3, noise=0.2, seed=8, constants=constants)
        absorbed = (CovariateTerm("east", by_time=False),)
        for draws in (0, 49):
            plain = impute_att(data, cohorts, bootstrap_draws=draws, seed=3)
            res = impute_att(data, cohorts, absorbed, bootstrap_draws=draws, seed=3)
            assert res.dropped_collinear == ("east",)
            assert np.array_equal([res.aggregate, res.se], [plain.aggregate, plain.se],
                                  equal_nan=True)
        assert np.isfinite(res.se)

    def test_covariates_on_single_cluster_panel(self):
        # clusters play no part in the imputation estimator or its bootstrap
        data, cohorts, weights = self.covariate_fixture()
        a = data.arrays
        pooled = panel_of(data.observations, covariate_names=data.covariate_names,
                              cluster={u: "all" for u in a.units})
        kwargs = dict(covariates=(CovariateTerm("z"),), weights=weights,
                      bootstrap_draws=40, seed=5)
        one = impute_att(pooled, cohorts, **kwargs)
        many = impute_att(data, cohorts, **kwargs)
        assert np.isfinite(one.aggregate) and np.isfinite(one.se)
        assert (one.aggregate, one.se) == (many.aggregate, many.se)

    def test_covariates_build_one_solver_per_sample(self, monkeypatch):
        # one solver for the point estimate, one more per draw whose pivots
        # fail the margin and is re-fit exactly
        from paneldid import engine

        setups = []
        original = engine.TwoWaySolver.__init__

        def counting(self, *args, **kwargs):
            setups.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(engine.TwoWaySolver, "__init__", counting)
        for fixture, draws, seed, refits in ((self.covariate_fixture, 25, 4, 0),
                                             (self.trend_fixture, 30, 7, 8)):
            data, cohorts, weights = fixture()
            setups.clear()
            impute_att(data, cohorts, covariates=(CovariateTerm("z"),), weights=weights,
                       bootstrap_draws=draws, seed=seed)
            assert len(setups) == 1 + refits

    @staticmethod
    def covariate_estimates(data, cohorts, weights, estimator):
        """(estimates, standard errors) of a covariate-adjusted estimator."""
        if estimator == "impute_att":
            res = impute_att(data, cohorts, covariates=(CovariateTerm("z"),),
                             weights=weights, bootstrap_draws=60, seed=12)
            return np.array([res.aggregate]), np.array([res.se])
        res = cs_att(data, cohorts, weights=weights, covariates=("z",),
                     bootstrap_draws=60, seed=12)
        return (np.array([c.att for c in res.entries]),
                np.array([c.se for c in res.entries]))

    def test_covariate_weight_rescaling_invariance(self):
        data, cohorts, weights = self.covariate_fixture()
        for estimator in ("impute_att", "cs_att"):
            est1, se1 = self.covariate_estimates(data, cohorts, weights, estimator)
            for factor in (3.0, 2.0**-7):
                scaled = {u: factor * w for u, w in weights.items()}
                est, se = self.covariate_estimates(data, cohorts, scaled, estimator)
                np.testing.assert_allclose(est, est1, rtol=1e-10)
                np.testing.assert_allclose(se, se1, rtol=1e-10)

    @pytest.mark.parametrize("shift,scale", [(3.0, 2.5), (-40.0, -0.01), (1e4, 1e3)])
    def test_covariate_affine_outcome(self, shift, scale):
        data, cohorts, weights = self.covariate_fixture()
        moved_data = data.with_outcome(shift + scale * data.arrays.outcome)
        for estimator in ("impute_att", "cs_att"):
            est, se = self.covariate_estimates(data, cohorts, weights, estimator)
            moved, moved_se = self.covariate_estimates(moved_data, cohorts, weights,
                                                       estimator)
            np.testing.assert_allclose(moved, scale * est, rtol=1e-9)
            np.testing.assert_allclose(moved_se, abs(scale) * se, rtol=1e-9)

    def test_seed_required_for_bootstrap(self):
        cohorts = {"a": P(2013, 4), "n": None}
        data = build(cohorts)
        with pytest.raises(ValueError, match="seed"):
            impute_att(data, cohorts, bootstrap_draws=10)

    def test_json_payload(self):
        cohorts = {"a": P(2013, 4), "n": None}
        data = build(cohorts, effect=lambda g, e: 0.3, noise=0.1, seed=4)
        res = impute_att(data, cohorts, bootstrap_draws=40, seed=2)
        payload = res.to_json_dict()
        assert payload["estimator"] == "impute_att"
        assert payload["conf_low"] == pytest.approx(res.aggregate - Z95 * res.se)
        assert payload["n_treated"] == res.n_treated


class TestCrossEstimator:
    @pytest.mark.parametrize("estimator", [cs_att, impute_att])
    def test_negative_bootstrap_draws_rejected(self, estimator):
        cohorts = {"a": P(2013, 4), "n": None}
        with pytest.raises(ValueError, match="bootstrap_draws must be non-negative"):
            estimator(build(cohorts), cohorts, bootstrap_draws=-3, seed=1)

    @pytest.mark.parametrize("estimator, options", [
        (cs_att, {"bootstrap_draws": 0}), (impute_att, {"bootstrap_draws": 0}),
        (sa_event_study, {}),
    ], ids=["cs_att", "impute_att", "sa_event_study"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_unit_weight_named(self, estimator, options, bad):
        cohorts = {"a": P(2013, 4), "b": P(2014, 2), "n1": None, "n2": None}
        weights = {"a": 1.0, "b": bad, "n1": 2.0, "n2": 1.0}
        with pytest.raises(ValueError, match=f"unit weights must be finite and positive; "
                                             f"unit 'b' has {bad!r}"):
            estimator(build(cohorts), cohorts, weights=weights, **options)

    def test_two_by_two_identities(self, canonical_2x2):
        # on the 2x2 every route reduces to the same difference in differences
        data, p1, p2, dd = canonical_2x2
        cohorts = {"treated": p2, "control": None}
        cs = cs_att(data, cohorts, bootstrap_draws=0).entry(p2, p2).att
        sa = sa_event_study(data, cohorts).entries[0].estimate
        imp = impute_att(data, cohorts, bootstrap_draws=0).aggregate
        assert cs == pytest.approx(dd, abs=1e-8)
        assert sa == pytest.approx(dd, abs=1e-8)
        assert imp == pytest.approx(dd, abs=1e-8)

    def test_constant_effect_consensus(self):
        cohorts = {"a": P(2013, 3), "b": P(2014, 1), "n1": None, "n2": None}
        data = build(cohorts, effect=lambda g, e: -0.08)
        agg = cs_aggregate(cs_att(data, cohorts, bootstrap_draws=0)).values["overall"]
        sa_est, _ = sa_event_study(data, cohorts).overall()
        imp = impute_att(data, cohorts, bootstrap_draws=0).aggregate
        assert agg.estimate == pytest.approx(-0.08, abs=1e-8)
        assert sa_est == pytest.approx(-0.08, abs=1e-8)
        assert imp == pytest.approx(-0.08, abs=1e-8)

    @pytest.mark.parametrize("config", [heterogeneous_config, null_config])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sa_overall_equals_cs_never_treated_overall(self, config, seed):
        # On a balanced panel with never-treated units and no covariates both
        # are the treated-share-weighted mean of the same cohort x period DiDs.
        data, design, _ = generate(config(seed))
        cohorts = design.cohort_map()
        rng = np.random.default_rng(seed)
        weights = None if seed == 1 else {u: float(rng.uniform(0.5, 3.0)) for u in cohorts}
        sa, _ = sa_event_study(data, cohorts, weights=weights).overall()
        cs = cs_aggregate(cs_att(data, cohorts, "never_treated", weights, bootstrap_draws=0))
        scale = np.abs(data.arrays.outcome).max()
        assert abs(sa - cs.values["overall"].estimate) <= 1e-10 * scale


def wide_staggered_panel(seed):
    """Unbalanced, weighted panel of 21 units x 24 quarters for the oracles.

    Five units are never treated; the rest adopt in the 9th, 13th or 17th
    quarter, which gives about 190 treated rows once each row of a unit
    other than the first is dropped with probability 0.08. Rows carry
    weights from U(0.5, 3); every unit carries a 0/1 `east` constant.
    """
    rng = np.random.default_rng(seed)
    periods = [P(2010, 1).shift(j) for j in range(24)]
    starts = [None, periods[8], periods[12], periods[16]]
    cohorts = {f"u{i:02d}": starts[0 if i < 5 else 1 + i % 3] for i in range(21)}
    obs = []
    for i, (u, g) in enumerate(cohorts.items()):
        alpha = float(rng.normal())
        for j, p in enumerate(periods):
            if i and rng.random() < 0.08:
                continue
            y = alpha + 0.05 * j + 0.02 * (i % 2) * j + float(rng.normal(0.0, 0.3))
            if g is not None and p >= g:
                y += 0.5 + 0.05 * (p.index - g.index)
            obs.append(Observation(u, p, y, float(rng.uniform(0.5, 3.0)), (float(i % 2),)))
    return panel_of(tuple(obs), covariate_names=("east",)), cohorts


def two_period_slope(data, cohorts, unit_weight, g, t, rule):
    """Oracle: ATT(g, t) as a `wls_fit` on periods {g - 1, t} alone.

    The rows are those of cohort g and of the rule's controls observed in
    both periods, each weighted by its unit's weight; one dummy marks cohort
    g at t, with unit and period effects absorbed.
    """
    a = data.arrays
    base, horizon = g.index - 1, max(t.index, g.index - 1)
    start = np.array([np.inf if cohorts[u] is None else cohorts[u].index for u in a.units])
    treated = start == g.index
    control = (start > horizon if rule == "not_yet_treated" else np.isinf(start)) & ~treated
    period = a.period_index[a.period_codes]
    window = np.isin(period, [base, t.index]) & (treated | control)[a.unit_codes]
    seen = np.bincount(a.unit_codes[window], minlength=len(a.units)) == 2
    rows = window & seen[a.unit_codes]
    sub = data._subset(rows)
    d = (treated[a.unit_codes] & (period == t.index))[rows].astype(float)
    design = DesignMatrix.from_panel(sub, ("d",), d)
    w = np.array([unit_weight[a.units[u]] for u in a.unit_codes[rows]])
    return wls_fit(replace(design, weight=w)).coefficients["d"]


class TestRegressionOracles:
    """`cs_att` and `impute_att` against `wls_fit` on unbalanced, weighted panels."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("rule", CONTROL_RULES)
    def test_cs_cell_is_a_two_period_regression(self, seed, rule):
        data, cohorts, weights = random_staggered_panel(seed)
        if weights is None:
            rng = np.random.default_rng([seed, 2])
            weights = {u: float(rng.uniform(0.5, 3.0)) for u in cohorts}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # cells without rows are omitted
            res = cs_att(data, cohorts, rule, weights, include_pre=True, bootstrap_draws=0)
        scale = np.abs(data.arrays.outcome).max()
        assert len(res.entries) >= 12
        for cell in res.entries:
            want = two_period_slope(data, cohorts, weights, cell.cohort, cell.period, rule)
            assert abs(cell.att - want) <= 1e-12 * scale, cell

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("covariates", [(), (CovariateTerm("east", by_time=True),)])
    def test_imputed_effects_are_treated_row_dummy_slopes(self, seed, weighted, covariates):
        # Each treated row's own dummy fits it exactly, so the unit and period
        # effects (and covariate slopes) come from the untreated rows alone,
        # and each dummy's slope is that row's imputed effect.
        data, cohorts = wide_staggered_panel(seed)
        a = data.arrays
        weights = None
        if weighted:
            rng = np.random.default_rng([seed, 3])
            weights = {u: float(rng.uniform(0.5, 3.0)) for u in a.units}
        res = impute_att(data, cohorts, covariates, weights, bootstrap_draws=0)
        treated = np.flatnonzero([
            cohorts[a.units[u]] is not None and a.period_index[t] >= cohorts[a.units[u]].index
            for u, t in zip(a.unit_codes, a.period_codes)])
        assert 150 <= len(treated) <= 250
        dummies = np.zeros((len(a.outcome), len(treated)))
        dummies[treated, np.arange(len(treated))] = 1.0
        cov_names, cov_matrix = expand_covariates(data, covariates)
        names = [f"d{i}" for i in range(len(treated))]
        design = DesignMatrix.from_panel(data, names + cov_names,
                                         np.column_stack([dummies, cov_matrix]))
        if weighted:
            design = replace(design, weight=np.array([weights[u] for u in a.units])[a.unit_codes])
        fit = wls_fit(design)
        assert not fit.dropped_collinear
        slopes = np.array([fit.coefficients[c] for c in names])
        scale = np.abs(a.outcome).max()
        np.testing.assert_array_equal(res.unit_codes, a.unit_codes[treated])
        assert np.abs(res.effect_values - slopes).max() <= 1e-12 * scale


def certified_solve_spy(monkeypatch):
    """Record (draws, uncertified draws) of each `_certified_solve` call."""
    calls = []
    solve = staggered._certified_solve

    def recorded(a, rhs, raw):
        x, ok = solve(a, rhs, raw)
        calls.append((len(ok), int((~ok).sum())))
        return x, ok

    monkeypatch.setattr(staggered, "_certified_solve", recorded)
    return calls


def guard_panel(n_units, n_periods, seed=0):
    """Balanced weighted panel with a third of the units in each of two
    cohorts and the rest never treated, built straight from columns."""
    rng = np.random.default_rng(seed)
    units = [f"u{i:04d}" for i in range(n_units)]
    periods = [P(2010, 1).shift(j) for j in range(n_periods)]
    starts = [periods[n_periods // 3], periods[2 * n_periods // 3], None]
    cohorts = {u: starts[i % 3] for i, u in enumerate(units)}
    y = rng.normal(size=(n_units, 1)) + 0.1 * np.arange(n_periods) + rng.normal(
        0.0, 0.3, size=(n_units, n_periods))
    data = PanelDataset.from_columns(
        np.repeat(units, n_periods).tolist(), periods * n_units, y.ravel().tolist(),
        rng.uniform(0.5, 3.0, size=y.size).tolist())
    return data, cohorts


class TestBatchedBootstrap:
    """Products split into chunks round like one product, to 1e-12."""

    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("rule", CONTROL_RULES)
    def test_cs_chunks_match_one_chunk(self, seed, rule, monkeypatch):
        data, cohorts, weights = random_staggered_panel(seed)
        draws, k = 99, 1

        def run():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                return cs_att(data, cohorts, rule, weights, covariates=("share",),
                              include_pre=True, bootstrap_draws=draws, seed=seed)

        whole = run()
        # room for two cells' columns and sums a chunk
        cell_bytes = 8 * (4 + k * (3 + k)) * (len(data.units) + draws)
        monkeypatch.setattr(staggered, "_CHUNK_BYTES", 2 * cell_bytes)
        calls = certified_solve_spy(monkeypatch)
        split = run()
        assert len(split.entries) >= 12
        assert len(calls) >= 3
        assert [c.att for c in split.entries] == [c.att for c in whole.entries]
        assert_close([c.se for c in split.entries], [c.se for c in whole.entries], 1e-12)
        for kind in ("overall", "by_event_time"):
            got, want = (cs_aggregate(r, kind).values for r in (split, whole))
            assert_close([v.se for v in got.values()], [v.se for v in want.values()], 1e-12)

    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("covariates", [(), (CovariateTerm("east", by_time=True),)])
    def test_impute_blocks_match_one_block(self, seed, covariates, monkeypatch):
        data, cohorts, weights = random_staggered_panel(seed)
        p = len(data.periods) - 1

        def run():
            return impute_att(data, cohorts, covariates, weights, bootstrap_draws=99,
                              seed=seed).se

        whole = run()
        # p columns a block: the triangle's first two rows, of p and p - 1
        # entries, take a block each, so it spans at least three blocks
        monkeypatch.setattr(staggered, "_CHUNK_BYTES", 8 * len(data.units) * p)
        calls = certified_solve_spy(monkeypatch)
        assert run() == pytest.approx(whole, rel=1e-12)
        assert len(calls) >= 3

    @pytest.mark.parametrize("rule, controls, tilt", [
        *((r, 3, None) for r in CONTROL_RULES), ("never_treated", 6, 1e-3)])
    def test_cs_chunk_with_uncertified_draws_matches_bruteforce(
            self, rule, controls, tilt, monkeypatch):
        # two cells a chunk, each chunk holding certified and refit draws
        monkeypatch.setattr(staggered, "_CHUNK_BYTES", 2 * 8 * 14 * (3 + controls + 150))
        calls = certified_solve_spy(monkeypatch)
        TestCsAtt().test_covariate_bootstrap_matches_bruteforce(rule, controls, tilt)
        assert len(calls) >= 3
        assert any(0 < bad < draws for draws, bad in calls)

    def test_impute_chunk_with_uncertified_draws_matches_bruteforce(self, monkeypatch):
        # eight draws a chunk of the 3 x 3 period systems; 174 of the 400
        # draws are refit alone and skipped
        monkeypatch.setattr(staggered, "_CHUNK_BYTES", 8 * 32 * 3 * 3)
        calls = certified_solve_spy(monkeypatch)
        TestImpute().test_disconnected_draws_skipped()
        assert len(calls) == 50
        assert any(0 < bad < draws for draws, bad in calls)

    def test_impute_covariate_chunk_with_uncertified_draws_matches_bruteforce(
            self, monkeypatch):
        monkeypatch.setattr(staggered, "_CHUNK_BYTES", 1)  # one draw, one row a block
        calls = certified_solve_spy(monkeypatch)
        TestImpute().test_covariate_bootstrap_matches_bruteforce()
        TestImpute().test_covariate_adjustment_removes_characteristic_trend()
        assert any(bad for _, bad in calls)

    def test_impute_holds_no_unit_period_square(self):
        # 2,000 units x 30 periods, 99 draws: the per-unit outer products of
        # the period weights, (U, T, T), would alone take U T^2 8 bytes.
        n_units, n_periods = 2000, 30
        data, cohorts = guard_panel(n_units, n_periods)
        data.arrays  # noqa: B018 - the lazy array view is the panel's, not the fit's
        impute_att(data, cohorts, bootstrap_draws=3, seed=1)
        tracemalloc.start()
        try:
            impute_att(data, cohorts, bootstrap_draws=99, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n_units * n_periods**2 * 8


def eliminate_in_column_order(a, rhs, raw):
    """Oracle: the certification as a column-order LDL' elimination in NumPy.

    Each pass updates the whole batch by one column's rank-1 term; a column
    whose pivot is not certified is not eliminated. Returns the solutions,
    the certified mask and the pivots.
    """
    work = a.copy()
    ok = np.ones(len(a), dtype=bool)
    pivots = np.zeros(a.shape[:2])
    for j in range(a.shape[1]):
        pivot = pivots[:, j] = work[:, j, j]
        clear = pivot > staggered._MARGIN * raw[:, j]
        ok &= clear
        scale = np.divide(1.0, pivot, out=np.zeros_like(pivot), where=clear)
        col = work[:, j + 1:, j]
        work[:, j + 1:, j + 1:] -= col[:, :, None] * (col * scale[:, None])[:, None, :]
    x = np.zeros(rhs.shape)
    x[ok] = np.linalg.solve(a[ok], rhs[ok][:, :, None])[:, :, 0]
    return x, ok, pivots


def normal_equations(rng, draws, n=6, rows=30, tilt=None):
    """Weighted normal equations of random columns on their own scales, with
    their raw squared norms. With `tilt` (one per draw), the last column is
    the first plus tilt times noise of the same norm, so its pivot is about
    tilt**2 of its squared norm."""
    x = rng.normal(size=(draws, rows, n)) * rng.uniform(0.1, 10.0, size=(draws, 1, n))
    if tilt is not None:
        noise = rng.normal(size=(draws, rows))
        noise *= np.linalg.norm(x[:, :, 0], axis=1, keepdims=True) / np.linalg.norm(
            noise, axis=1, keepdims=True)
        x[:, :, -1] = x[:, :, 0] + tilt[:, None] * noise
    xw = x * rng.uniform(0.5, 3.0, size=(draws, rows, 1))
    a = np.einsum("drk,drl->dkl", xw, x)
    return a, np.einsum("drk,drk->dk", xw, x)


def certification_batch(kind, seed):
    """A batch of systems, right-hand sides and raw norms of one `kind`, and
    the mask of the draws made singular, indefinite or nan."""
    rng = np.random.default_rng(seed)
    if kind == "mixed":  # every other kind, shuffled together
        parts = zip(*(certification_batch(k, seed) for k in
                      ("well", "tilted", "singular", "indefinite", "nan")))
        a, rhs, raw, broken = (np.concatenate(part) for part in parts)
        order = rng.permutation(len(a))
        return a[order], rhs[order], raw[order], broken[order]
    if kind == "tilted":
        a, raw = normal_equations(rng, 40, tilt=np.sqrt(np.logspace(-5, -7, 40)))
    elif kind == "empty":
        a, raw = normal_equations(rng, 0)
    else:
        a, raw = normal_equations(rng, 1 if kind.startswith("one") else 24)
    broken = np.zeros(len(a), dtype=bool)
    if kind == "singular":
        a[::3, 2, :] = a[::3, :, 2] = 0.0       # an empty column: pivot exactly 0
        a[1::3, 3] = a[1::3, 1]                 # a repeated column
        a[1::3, :, 3] = a[1::3, :, 1]
        broken[::3] = broken[1::3] = True
    if kind in ("indefinite", "one_indefinite"):
        a[2::3, 4, 4] *= -1.0
        least = np.abs(np.linalg.eigvalsh(a[::5])[:, :1, None])
        a[::5] -= 2.0 * np.eye(a.shape[1]) * least
        broken[2::3] = broken[::5] = True
    if kind == "nan":
        a[::4, 1, 3] = a[::4, 3, 1] = np.nan
        a[1::4, 2, 2] = np.nan
        broken[::4] = broken[1::4] = True
    return a, rng.normal(size=raw.shape) * raw, raw, broken


class TestCertifiedSolve:
    @pytest.mark.parametrize("kind", ["well", "tilted", "singular", "indefinite", "nan",
                                      "mixed", "one", "one_indefinite", "empty"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_column_order_elimination(self, kind, seed):
        a, rhs, raw, broken = certification_batch(kind, seed)
        x, ok = staggered._certified_solve(a, rhs, raw)
        want_x, want_ok, pivots = eliminate_in_column_order(a, rhs, raw)
        bound = staggered._MARGIN * raw
        near = (np.abs(pivots - bound) <= 1e-9 * bound).any(axis=1)
        np.testing.assert_array_equal(ok[~near], want_ok[~near])
        both = ok & want_ok
        assert x[both].tobytes() == want_x[both].tobytes()
        assert not x[~ok].any()
        if kind == "tilted":  # the margin falls inside the batch
            assert want_ok.any() and not want_ok.all()
        assert not ok[broken].any()
        if kind in ("well", "one"):
            assert ok.all()

    def test_bisection_isolates_rejected_draws(self, monkeypatch):
        a, _ = normal_equations(np.random.default_rng(7), 64)
        bad = [0, 17, 63]
        a[bad, 3, 3] = -a[bad, 3, 3]
        cholesky = np.linalg.cholesky
        alone = [np.square(np.diagonal(cholesky(m))) for m in np.delete(a, bad, axis=0)]
        calls = []

        def counted(m):
            calls.append(len(m))
            return cholesky(m)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        pivots = staggered._pivots(a)
        assert not pivots[bad].any()
        assert np.delete(pivots, bad, axis=0).tobytes() == np.array(alone).tobytes()
        assert len(calls) <= 1 + 2 * len(bad) * int(np.ceil(np.log2(len(a))))
