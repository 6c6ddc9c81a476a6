import hashlib
import io
import json
import math

import numpy as np
import pytest

from conftest import P
from paneldid.cli import main
from paneldid.designs import DesignKind, DidSpec
from paneldid.engine import Estimate, wls_fit
from paneldid.designs import build_staggered_twfe
from paneldid import simulate
from paneldid.simulate import (
    _CHUNK,
    ESTIMATORS,
    DgpConfig,
    EffectSchedule,
    dump_dgp_config,
    estimator_race,
    generate,
    heterogeneous_config,
    homogeneous_config,
    load_dgp_config,
    null_config,
)
from paneldid.staggered import cs_aggregate, cs_att, impute_att, sa_event_study


def small_config(seed=11, **overrides):
    kwargs = dict(
        n_early=4, n_late=3, n_never=4,
        start=P(2013, 1), n_periods=8,
        early_cohort=P(2013, 3), late_cohort=P(2014, 2),
        noise_sd=0.02, seed=seed,
    )
    kwargs.update(overrides)
    return DgpConfig(**kwargs)


class TestEffectSchedule:
    def test_lookup_and_persistence(self):
        s = EffectSchedule((-0.01, -0.02, -0.03))
        assert s.at(-5) == 0.0
        assert s.at(0) == -0.01
        assert s.at(2) == -0.03
        assert s.at(40) == -0.03  # last value carries forward

    def test_constant(self):
        s = EffectSchedule.constant(-0.05)
        assert s.at(0) == s.at(99) == -0.05

    def test_parse_and_str_round_trip(self):
        s = EffectSchedule.parse(" -0.01 , -0.02 ")
        assert s.values == (-0.01, -0.02)
        assert EffectSchedule.parse(str(s)) == s

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            EffectSchedule(())
        with pytest.raises(ValueError, match="at least one"):
            EffectSchedule.parse("  ")

    @pytest.mark.parametrize("text", ["-0.01, nan", "inf", "-0.01, -1e999"])
    def test_non_finite_values_rejected(self, text):
        with pytest.raises(ValueError, match="^non-finite value "):
            EffectSchedule.parse(text)


class TestDgpConfig:
    def test_defaults(self):
        config = DgpConfig()
        assert (config.n_early, config.n_late, config.n_never) == (60, 45, 50)
        assert config.n_periods == 37
        assert config.periods[0] == P(2013, 1)
        assert config.periods[-1] == P(2022, 1)
        assert config.seed is None

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            small_config(n_early=-1)
        with pytest.raises(ValueError, match="two units"):
            DgpConfig(n_early=1, n_late=0, n_never=0, n_periods=8,
                      early_cohort=P(2013, 3))
        with pytest.raises(ValueError, match="two periods"):
            small_config(n_periods=1)
        with pytest.raises(ValueError, match="deviation"):
            small_config(noise_sd=-0.1)
        with pytest.raises(ValueError, match="early cohort"):
            small_config(early_cohort=P(2013, 1))
        with pytest.raises(ValueError, match="late cohort"):
            small_config(late_cohort=P(2030, 1))
        with pytest.raises(ValueError, match="after the early"):
            small_config(late_cohort=P(2013, 2))

    def test_empty_group_skips_its_cohort_check(self):
        config = small_config(n_early=0, early_cohort=P(2030, 1))
        assert config.n_early == 0

    def test_dump_load_round_trip(self):
        config = small_config(
            seed=99,
            effect_early=EffectSchedule((-0.01, -0.02)),
            effect_late=EffectSchedule.constant(-0.05),
            trend=0.004,
        )
        assert load_dgp_config(io.StringIO(dump_dgp_config(config))) == config

    def test_round_trip_without_seed(self):
        config = DgpConfig()
        assert load_dgp_config(io.StringIO(dump_dgp_config(config))) == config

    def test_unknown_key_lists_valid(self):
        with pytest.raises(ValueError, match="unknown key.*noise_sd"):
            load_dgp_config(io.StringIO("noise = 0.1\n"))

    def test_duplicate_key_line_number(self):
        with pytest.raises(ValueError, match="line 2: duplicate"):
            load_dgp_config(io.StringIO("trend = 0.1\ntrend = 0.2\n"))

    def test_not_key_value_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            load_dgp_config(io.StringIO("just some text\n"))

    @pytest.mark.parametrize("key, value", [
        ("seed", "4_2"), ("n_early", "\u0666_0"), ("n_periods", "\u0663\u0667"),
        ("n_never", "5.0"), ("trend", "0.00_2"), ("noise_sd", "0.0\u0662"),
        ("unit_fe_mean", "\uff11"), ("effect_early", "-0.01, -0.0_2"),
        ("effect_late", "-0.05, \u0665"),
    ])
    def test_numbers_use_the_one_number_rule(self, key, value):
        # int() and float() accept digit grouping and non-ASCII digits
        with pytest.raises(ValueError, match=rf"^line 2: {key}: "):
            load_dgp_config(io.StringIO(f"n_late = 3\n{key} = {value}\n"))

    @pytest.mark.parametrize("key, value", [
        ("noise_sd", "nan"), ("trend", "inf"), ("unit_fe_mean", "-Infinity"),
        ("unit_fe_sd", "NaN"), ("effect_early", "-0.01, nan"), ("effect_late", "1e400"),
    ])
    def test_numbers_must_be_finite(self, key, value):
        # float() reads these; generate() would fail later naming neither line nor key
        with pytest.raises(ValueError, match=rf"^line 2: {key}: non-finite value "):
            load_dgp_config(io.StringIO(f"n_late = 3\n{key} = {value}\n"))


class TestGenerate:
    def test_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            generate(small_config(seed=None))

    def test_deterministic_and_stream_separated(self):
        config = small_config(seed=5)
        data1, _, _ = generate(config)
        data2, _, _ = generate(config)
        assert data1.observations == data2.observations
        other, _, _ = generate(config, stream=1)
        y0 = [o.outcome for o in data1.observations]
        y1 = [o.outcome for o in other.observations]
        assert y0 != y1

    def test_preset_panel_bytes_pinned(self, tmp_path, capsys):
        # The bytes the per-cell generator and CSV writer produced; the
        # vectorised generate and serialize_panel must reproduce them exactly.
        assert main(["simulate", "--preset", "heterogeneous", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "panel.csv").read_bytes()).hexdigest()
        assert digest == "b2beeb41df182d6b2770ad08e7fbdc05fe352e8cc0c69411bbbfc9d29448708f"

    # Configs DgpConfig accepts with an empty group whose cohort is out of order or
    # out of the window: the design's cohort pair comes from the non-empty groups.
    @pytest.mark.parametrize("overrides, cohorts, overall", [
        (dict(n_early=0, early_cohort=P(2030, 1), effect_late=EffectSchedule((-0.01, -0.02))),
         {"L": P(2014, 2), "N": None}, (-0.01 - 0.02 - 0.02) / 3),
        (dict(n_late=0, start=P(2020, 1), early_cohort=P(2021, 1),
              effect_early=EffectSchedule((-0.1, -0.2))),
         {"E": P(2021, 1), "N": None}, (-0.1 - 0.2 - 0.2 - 0.2) / 4),
    ], ids=["no_early", "no_late"])
    def test_generates_every_accepted_config(self, tmp_path, capsys, overrides, cohorts,
                                             overall):
        config = small_config(**overrides)
        data, design, truth = generate(config)
        assert {unit[0] for unit in data.units} == set(cohorts)
        assert design.cohort_map() == {unit: cohorts[unit[0]] for unit in data.units}
        assert truth.overall == pytest.approx(overall, rel=1e-15)
        (tmp_path / "config.txt").write_text(dump_dgp_config(config))
        assert main(["simulate", "--config", str(tmp_path / "config.txt"), "--seed", "11",
                     "--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "truth.json").read_text())["overall"] == (
            truth.overall)
        assert (tmp_path / "out" / "panel.csv").read_text().count("\n") == data.n_obs + 1

    # Digests taken before the generator's groups were read from one table.
    @pytest.mark.parametrize("overrides, panel, truth", [
        (dict(n_late=0), "6fa28956bd510a8ea7e2328cf6c209aaee846ce451fb0db1f306dd34d1907269",
         "e79e736d5d8c2995cb3d53eb3922b7f56b57a8fcf120d6c4b7ea1aeabb69ea0a"),
        (dict(n_never=0), "622ac36d699f3561e0da3c6f23112d150b2c99c620d3bbc6efb184d61a2e8d7a",
         "975c71630b1fdca00ee7b13472a9cb5107156c3a96e065012b33119aa352b546"),
        (dict(n_early=0), "6591621279b53f0c706667923d105b15ce7eea60f0b8e6497a011bcbe9af425c",
         "7858a6cd9b0705d4bf990c13f03022c39404a86e7ccc6ce20e48ebb6eff433eb"),
    ], ids=["no_late", "no_never", "no_early"])
    def test_empty_group_outputs_pinned(self, tmp_path, capsys, overrides, panel, truth):
        config = small_config(effect_early=EffectSchedule((-0.01, -0.02, -0.03)), **overrides)
        (tmp_path / "config.txt").write_text(dump_dgp_config(config))
        assert main(["simulate", "--config", str(tmp_path / "config.txt"), "--seed", "11",
                     "--out", str(tmp_path / "out")]) == 0
        digest = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                  for name in ("panel.csv", "truth.json")}
        assert digest == {"panel.csv": panel, "truth.json": truth}

    def test_panel_layout(self):
        config = small_config()
        data, design, _ = generate(config)
        assert data.n_obs == 11 * 8
        assert all(o.weight == 1.0 for o in data.observations)
        units = set(data.units)
        assert "E001" in units and "L003" in units and "N004" in units
        counts = design.group_counts()
        by_name = {g.name: n for g, n in counts.items()}
        assert by_name["HIGH_HIGH"] == 4
        assert by_name["LOW_HIGH"] == 3
        assert by_name["LOW_LOW"] == 4

    def test_noiseless_outcome_is_trend_plus_effect(self):
        config = small_config(
            unit_fe_sd=0.0, unit_fe_mean=0.0, noise_sd=0.0, trend=0.01,
            effect_early=EffectSchedule.constant(-0.5),
        )
        data, design, _ = generate(config)
        y = {(o.unit, o.period): o.outcome for o in data.observations}
        assert y[("N001", P(2013, 2))] == pytest.approx(0.01, abs=1e-12)
        assert y[("E001", P(2013, 2))] == pytest.approx(0.01, abs=1e-12)
        assert y[("E001", P(2013, 3))] == pytest.approx(0.02 - 0.5, abs=1e-12)

    def test_truth_matches_cellwise_average(self):
        config = small_config(
            effect_early=EffectSchedule((-0.01, -0.03, -0.06)),
            effect_late=EffectSchedule.constant(0.02),
        )
        _, design, truth = generate(config)
        cohort_of = design.cohort_map()
        values = []
        for unit, cohort in cohort_of.items():
            if cohort is None:
                continue
            schedule = (
                config.effect_early if cohort == config.early_cohort
                else config.effect_late
            )
            for period in config.periods:
                if period >= cohort:
                    values.append(schedule.at(period.index - cohort.index))
        assert truth.overall == pytest.approx(float(np.mean(values)), abs=1e-15)
        for (g, e), v in truth.by_cohort_event.items():
            schedule = (
                config.effect_early if g == config.early_cohort
                else config.effect_late
            )
            assert v == schedule.at(e)

    def test_truth_json_keys(self):
        _, _, truth = generate(small_config())
        payload = truth.to_json_dict()
        assert set(payload) == {"overall", "by_event_time", "by_cohort_event"}
        assert "2013Q3|0" in payload["by_cohort_event"]


class TestRace:
    def test_estimator_list_order_is_irrelevant(self):
        config = small_config(seed=21)
        a = estimator_race(config, ["imputation", "twfe"], 3, bootstrap_draws=15)
        b = estimator_race(config, ["twfe", "imputation"], 3, bootstrap_draws=15)
        assert a.estimators == b.estimators == ("twfe", "imputation")
        for name in a.estimators:
            np.testing.assert_array_equal(a.estimates[name], b.estimates[name])
            np.testing.assert_array_equal(a.ses[name], b.ses[name])

    def test_results_unaffected_by_other_estimators(self):
        config = small_config(seed=22)
        alone = estimator_race(config, ["imputation"], 3, bootstrap_draws=15)
        crowd = estimator_race(config, list(ESTIMATORS), 3, bootstrap_draws=15)
        np.testing.assert_array_equal(
            alone.estimates["imputation"], crowd.estimates["imputation"]
        )
        np.testing.assert_array_equal(
            alone.ses["imputation"], crowd.ses["imputation"]
        )

    def test_thread_count_is_irrelevant(self):
        config = small_config(seed=23)
        serial = estimator_race(config, ["twfe", "cs_never"], 4, bootstrap_draws=10)
        threaded = estimator_race(
            config, ["twfe", "cs_never"], 4, bootstrap_draws=10, threads=4
        )
        for name in serial.estimators:
            np.testing.assert_array_equal(
                serial.estimates[name], threaded.estimates[name]
            )
            np.testing.assert_array_equal(serial.ses[name], threaded.ses[name])

    def test_first_replication_matches_direct_call(self):
        config = small_config(seed=24)
        race = estimator_race(config, list(ESTIMATORS), 1, bootstrap_draws=9)
        data, design, _ = generate(config, stream=0)
        cohorts = design.cohort_map()

        def seed(name):  # replication 0's stream for the estimator's slot
            sequence = np.random.SeedSequence(config.seed, spawn_key=(0, ESTIMATORS[name][0]))
            return int(sequence.generate_state(1, np.uint64)[0])

        def cs_overall(name, rule):
            result = cs_att(data, cohorts, rule, bootstrap_draws=9, seed=seed(name))
            return cs_aggregate(result, "overall").values["overall"]

        sa = sa_event_study(data, cohorts)
        imputation = impute_att(data, cohorts, bootstrap_draws=9, seed=seed("imputation"))
        direct = {
            "twfe": wls_fit(build_staggered_twfe(
                data, design, DidSpec(kind=DesignKind.STAGGERED_TWFE)
            )).estimate("post_adoption"),
            "cs_never": cs_overall("cs_never", "never_treated"),
            "cs_notyet": cs_overall("cs_notyet", "not_yet_treated"),
            "sa": Estimate(*sa.overall(), sa.fit.df_inference),
            "imputation": Estimate(imputation.aggregate, imputation.se),
        }
        assert set(direct) == set(race.estimators)
        for name, want in direct.items():
            low, high = want.conf_int()
            assert np.isfinite([want.se, low, high]).all(), name
            assert race.estimates[name][0] == want.estimate, name
            assert race.ses[name][0] == want.se, name
            assert race.conf_lows[name][0] == low, name
            assert race.conf_highs[name][0] == high, name

    def test_unknown_estimator_lists_names(self):
        with pytest.raises(ValueError, match=r"cs_never.*cs_notyet.*imputation"):
            estimator_race(small_config(), ["ols"], 2)

    def test_duplicate_estimators_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            estimator_race(small_config(), ["twfe", "twfe"], 2)

    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            estimator_race(small_config(seed=None), ["twfe"], 2)

    def test_replications_positive(self):
        with pytest.raises(ValueError, match="replication"):
            estimator_race(small_config(), ["twfe"], 0)

    def test_negative_draws_rejected_before_any_replication(self, monkeypatch):
        def no_panels(*args, **kwargs):
            raise AssertionError("a replication ran")
        monkeypatch.setattr("paneldid.simulate.generate", no_panels)
        with pytest.raises(ValueError, match="bootstrap_draws must be non-negative"):
            estimator_race(small_config(), ["twfe", "cs_never", "imputation"], 2,
                           bootstrap_draws=-1)

    @pytest.mark.parametrize("estimators, threads, message", [
        ([], 1, "^no estimators to race$"),
        (["twfe"], 0, "^need at least one worker thread, got 0$"),
        (["twfe"], -3, "^need at least one worker thread, got -3$"),
    ])
    def test_empty_race_rejected_before_any_replication(
        self, monkeypatch, estimators, threads, message
    ):
        def no_panels(*args, **kwargs):
            raise AssertionError("a replication ran")
        monkeypatch.setattr("paneldid.simulate.generate", no_panels)
        with pytest.raises(ValueError, match=message):
            estimator_race(small_config(), estimators, 2, threads=threads)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_failures_are_counted_not_raised(self):
        # a single-cohort panel with no controls breaks every estimator
        config = small_config(n_late=0, n_never=0, seed=31)
        race = estimator_race(config, list(ESTIMATORS), 2, bootstrap_draws=5)
        for row in race.rows():
            assert row.n_failed == 2, row.estimator
            assert math.isnan(row.mean_estimate)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(data, design, draws, seeds):
            raise TypeError("bug in an estimator")

        monkeypatch.setitem(ESTIMATORS, "twfe", (ESTIMATORS["twfe"][0], broken))
        with pytest.raises(TypeError, match="bug in an estimator"):
            estimator_race(small_config(seed=32), ["twfe"], 2, bootstrap_draws=0)

    def test_summary_rows_recompute_from_arrays(self):
        config = small_config(seed=41)
        race = estimator_race(config, ["twfe", "imputation"], 6, bootstrap_draws=25)
        truth = race.truth.overall
        for row in race.rows():
            est = race.estimates[row.estimator]
            assert row.n_reps == 6 and row.n_failed == 0
            assert row.mean_estimate == pytest.approx(float(est.mean()), rel=1e-12)
            assert row.bias == pytest.approx(float(est.mean()) - truth, rel=1e-9)
            assert row.sd == pytest.approx(float(est.std(ddof=1)), rel=1e-12)
            low = race.conf_lows[row.estimator]
            high = race.conf_highs[row.estimator]
            assert row.coverage == pytest.approx(
                float(np.mean((low <= truth) & (truth <= high))), abs=1e-12
            )

    def test_single_replication_has_no_spread(self):
        race = estimator_race(small_config(seed=42), ["twfe"], 1, bootstrap_draws=0)
        row = race.rows()[0]
        assert row.n_reps == 1
        assert math.isnan(row.sd)

    def test_csv_and_json_exports(self, tmp_path):
        config = small_config(seed=43)
        race = estimator_race(config, ["twfe", "sa"], 3, bootstrap_draws=10)
        path = tmp_path / "race.csv"
        race.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "estimator,n_reps,n_failed,mean_estimate,bias,sd,coverage,truth"
        )
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "twfe"
        assert float(first[3]) == race.rows()[0].mean_estimate
        payload = race.to_json_dict()
        assert payload["replications"] == 3
        assert set(payload["estimators"]) == {"twfe", "sa"}
        assert payload["truth"]["overall"] == race.truth.overall


def child_seed(config, rep, name):
    """Replication `rep`'s stream for the estimator's slot."""
    sequence = np.random.SeedSequence(config.seed, spawn_key=(rep, ESTIMATORS[name][0]))
    return int(sequence.generate_state(1, np.uint64)[0])


def direct_estimates(config, rep):
    """Each race estimator's `Estimate` from public calls on replication `rep`'s panel."""
    data, design, _ = generate(config, stream=rep)
    cohorts = design.cohort_map()

    def cs_overall(rule):
        return cs_aggregate(cs_att(data, cohorts, rule, bootstrap_draws=0), "overall")

    sa = sa_event_study(data, cohorts)
    imputation = impute_att(data, cohorts, bootstrap_draws=0)
    return {
        "twfe": wls_fit(build_staggered_twfe(
            data, design, DidSpec(kind=DesignKind.STAGGERED_TWFE)
        )).estimate("post_adoption"),
        "cs_never": cs_overall("never_treated").values["overall"],
        "cs_notyet": cs_overall("not_yet_treated").values["overall"],
        "sa": Estimate(*sa.overall(), sa.fit.df_inference),
        "imputation": Estimate(imputation.aggregate, imputation.se),
    }


class TestBatchedRace:
    """The race fits each chunk of replications in one call per estimator."""

    REPS = _CHUNK + 5  # a full chunk and a partial one

    def test_matches_direct_calls_per_replication(self):
        config = small_config(seed=51)
        race = estimator_race(config, list(ESTIMATORS), self.REPS, bootstrap_draws=0)
        direct = [direct_estimates(config, rep) for rep in range(self.REPS)]
        for name in ESTIMATORS:
            want = np.array([[d[name].estimate, d[name].se, *d[name].conf_int()]
                             for d in direct])
            got = np.column_stack([race.estimates[name], race.ses[name],
                                   race.conf_lows[name], race.conf_highs[name]])
            for k in range(4):
                assert np.array_equal(np.isnan(got[:, k]), np.isnan(want[:, k])), (name, k)
                ok = ~np.isnan(want[:, k])
                if ok.any():
                    scale = np.abs(want[ok, k]).max()
                    assert np.abs(got[ok, k] - want[ok, k]).max() <= 1e-12 * scale, (name, k)
            if name in ("twfe", "sa"):
                assert np.isfinite(got).all(), name
            else:  # no standard error without a bootstrap
                assert np.isfinite(got[:, 0]).all() and np.isnan(got[:, 1:]).all(), name

    def test_threads_map_over_fixed_chunks(self):
        config = small_config(seed=52)
        races = [estimator_race(config, list(ESTIMATORS), self.REPS, bootstrap_draws=0,
                                threads=threads) for threads in (1, 3, 8)]
        for name in ESTIMATORS:
            for field in ("estimates", "ses", "conf_lows", "conf_highs"):
                first = getattr(races[0], field)[name]
                for other in races[1:]:
                    assert np.array_equal(getattr(other, field)[name], first, equal_nan=True)

    def test_stacked_outcomes_equal_generated_panels(self):
        config = small_config(seed=53)
        streams = range(7, 7 + 4)
        stacked, design = simulate._stacked_panel(config, streams)
        assert design == generate(config, stream=7)[1]
        a = stacked.arrays
        assert a.outcome.shape == (stacked.n_obs, len(streams))
        for j, stream in enumerate(streams):
            b = generate(config, stream=stream)[0].arrays
            assert np.array_equal(a.outcome[:, j], b.outcome)
            for name in ("unit_codes", "period_codes", "cluster_codes", "weight",
                         "covariates", "period_index"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert (a.units, a.periods, a.clusters) == (b.units, b.periods, b.clusters)
        single = simulate._stacked_panel(config, [7])[0]
        assert single == generate(config, stream=7)[0]

    def test_failed_batch_is_retried_one_replication_at_a_time(self, monkeypatch):
        # Full-size panels: a cell's mean sums enough units for a batched sum
        # that rounded otherwise than a single one to show.
        config = heterogeneous_config(54)
        reps = 4
        clean = estimator_race(config, list(ESTIMATORS), reps, bootstrap_draws=0)
        slot, run = ESTIMATORS["cs_never"]
        failing = child_seed(config, 1, "cs_never")

        def flaky(data, design, draws, seed):
            if data.arrays.outcome.ndim > 1:
                raise ValueError("the batched call fails")
            if seed == failing:
                raise ValueError("replication 1 fails alone too")
            return run(data, design, draws, seed)

        monkeypatch.setitem(ESTIMATORS, "cs_never", (slot, flaky))
        race = estimator_race(config, list(ESTIMATORS), reps, bootstrap_draws=0)
        rows = {row.estimator: row for row in race.rows()}
        assert rows["cs_never"].n_failed == 1
        assert all(row.n_failed == 0 for name, row in rows.items() if name != "cs_never")
        others = np.arange(reps) != 1
        for name in ESTIMATORS:
            for field in ("estimates", "ses", "conf_lows", "conf_highs"):
                got, want = getattr(race, field)[name], getattr(clean, field)[name]
                if name == "cs_never":
                    assert math.isnan(got[1])
                    got, want = got[others], want[others]
                assert np.array_equal(got, want, equal_nan=True), (name, field)

    def test_resampling_replications_run_once_each(self, monkeypatch):
        # With bootstrap draws, each replication runs alone on its own seed,
        # and one failing replication does not make the others run again.
        config = small_config(seed=55)
        reps = 4
        seeds = [child_seed(config, rep, "cs_never") for rep in range(reps)]
        seen = []

        def recording(*args, seed=None, **kwargs):
            seen.append(seed)
            if seed == seeds[1]:
                raise ValueError("replication 1 fails")
            return cs_att(*args, seed=seed, **kwargs)

        monkeypatch.setattr(simulate, "cs_att", recording)
        race = estimator_race(config, ["cs_never"], reps, bootstrap_draws=9)
        assert race.rows()[0].n_failed == 1
        assert [seen.count(seed) for seed in seeds] == [1, 1, 1, 1]
        assert np.isfinite(np.delete(race.ses["cs_never"], 1)).all()


class TestPresets:
    def test_homogeneous_truth(self):
        config = homogeneous_config(7)
        assert config.seed == 7
        _, _, truth = generate(config)
        assert truth.overall == pytest.approx(-0.05, abs=1e-15)
        assert all(v == -0.05 for v in truth.by_event_time.values())

    def test_heterogeneous_truth_brute_force(self):
        config = heterogeneous_config(7)
        _, _, truth = generate(config)
        last = config.start.shift(config.n_periods - 1).index
        total, count = 0.0, 0
        for e in range(last - config.early_cohort.index + 1):
            total += config.n_early * -0.004 * (min(e, 39) + 1)
            count += config.n_early
        for e in range(last - config.late_cohort.index + 1):
            total += config.n_late * -0.05
            count += config.n_late
        assert truth.overall == pytest.approx(total / count, abs=1e-15)
        # the early path keeps deepening, so the pooled target is well below
        # the late cohort's constant effect
        assert truth.overall < -0.055

    def test_null_truth_and_window(self):
        config = null_config(3)
        assert config.seed == 3
        _, _, truth = generate(config)
        assert truth.overall == 0.0
        assert config.early_cohort == P(2013, 1).shift(3)
        assert config.late_cohort == P(2013, 1).shift(8)

    _COMMON = ("start = 2013Q1\nn_periods = 37\nearly_cohort = 2014Q3\nlate_cohort = 2019Q1\n"
               "unit_fe_mean = 0.0\nunit_fe_sd = 0.5\ntrend = 0.002\n")

    @pytest.mark.parametrize("preset, text", [
        (homogeneous_config,
         "n_early = 60\nn_late = 45\nn_never = 50\n" + _COMMON +
         "effect_early = -0.05\neffect_late = -0.05\nnoise_sd = 0.02\nseed = 7\n"),
        (heterogeneous_config,
         "n_early = 60\nn_late = 45\nn_never = 50\n" + _COMMON +
         "effect_early = -0.004, -0.008, -0.012, -0.016, -0.02, -0.024, -0.028, -0.032, "
         "-0.036000000000000004, -0.04, -0.044, -0.048, -0.052000000000000005, -0.056, -0.06, "
         "-0.064, -0.068, -0.07200000000000001, -0.076, -0.08, -0.084, -0.088, -0.092, -0.096, "
         "-0.1, -0.10400000000000001, -0.108, -0.112, -0.116, -0.12, -0.124, -0.128, -0.132, "
         "-0.136, -0.14, -0.14400000000000002, -0.148, -0.152, -0.156, -0.16\n"
         "effect_late = -0.05\nnoise_sd = 0.02\nseed = 7\n"),
        (null_config,
         "n_early = 12\nn_late = 12\nn_never = 16\nstart = 2013Q1\nn_periods = 12\n"
         "early_cohort = 2013Q4\nlate_cohort = 2015Q1\nunit_fe_mean = 0.0\nunit_fe_sd = 0.5\n"
         "trend = 0.002\neffect_early = 0.0\neffect_late = 0.0\nnoise_sd = 0.02\nseed = 7\n"),
    ])
    def test_preset_text_is_pinned(self, preset, text):
        # The manifests' config_effective holds this text, so it must not move.
        assert dump_dgp_config(preset(7)) == text
        assert load_dgp_config(io.StringIO(text)) == preset(7)

    def test_presets_are_plain_configs(self):
        assert homogeneous_config(7) == DgpConfig(seed=7)
        assert heterogeneous_config(7) == DgpConfig(
            effect_early=EffectSchedule(tuple(-0.004 * (e + 1) for e in range(40))), seed=7)
        assert null_config(7) == DgpConfig(
            n_early=12, n_late=12, n_never=16, n_periods=12,
            early_cohort=P(2013, 4), late_cohort=P(2015, 1),
            effect_early=EffectSchedule.constant(0.0), effect_late=EffectSchedule.constant(0.0),
            seed=7)
