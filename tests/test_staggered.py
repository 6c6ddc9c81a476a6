import warnings

import numpy as np
import pytest
from scipy import stats

from conftest import P
from paneldid.bite import RegionTreatment, SwitcherGroup, TreatmentDesign
from paneldid.designs import CovariateTerm, DesignKind, DidSpec, build_event_study
from paneldid.engine import wls_fit
from paneldid.panel import Observation, PanelDataset
from paneldid.periods import Period, period_range
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
    return PanelDataset(tuple(obs), covariate_names=names)


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
        data = PanelDataset(tuple(obs))
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
        data = PanelDataset(tuple(obs), covariate_names=("z",))
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
        # draws hold fewer distinct controls than that and are re-fit exactly.
        # With a tilt, z2 is z1 plus tilt times noise, so a draw's pivot for
        # z2 is near 1e-6 of its squared norm, where normal equations lose
        # about 1e-8 relative; such draws must take the exact re-fit too.
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
                beta = np.linalg.lstsq(design * root[:, None], delta[c] * root,
                                       rcond=None)[0]
                gaps = delta[t] - np.column_stack([np.ones(t.sum()), z[t]]) @ beta
                reps.append(np.average(gaps, weights=w[t]))
            assert cell.se == pytest.approx(float(np.std(reps, ddof=1)), rel=1e-9), cell
        assert thin > 0

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
        payload = sa_event_study(data, cohorts).to_json_dict()
        assert payload["estimator"] == "sa_event_study"
        assert all(set(v) == {"estimate", "se", "conf_low", "conf_high"}
                   for v in payload["entries"].values())


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
        data = PanelDataset(tuple(obs))
        res = impute_att(data, cohorts, bootstrap_draws=0)
        assert res.aggregate == pytest.approx(2.0, abs=1e-10)
        assert all(c.effect == pytest.approx(2.0, abs=1e-10) for c in res.effects)
        assert res.n_treated == 5 + 3
        assert res.n_untreated == len(obs) - 8
        assert {c.unit for c in res.effects} == {"a", "b"}

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
        data = PanelDataset(tuple(obs))
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
        return PanelDataset(tuple(obs), covariate_names=("z",)), cohorts, None

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
        data = PanelDataset(tuple(obs))
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
        return PanelDataset(tuple(obs), covariate_names=("z",)), cohorts, weights

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

    def test_covariates_on_single_cluster_panel(self):
        # clusters play no part in the imputation estimator or its bootstrap
        data, cohorts, weights = self.covariate_fixture()
        a = data.arrays
        pooled = PanelDataset(data.observations, covariate_names=data.covariate_names,
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
