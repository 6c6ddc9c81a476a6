import hashlib
import io

import numpy as np
import pytest

from conftest import P, panel_of
from paneldid.bite import RegionTreatment, SwitcherGroup, TreatmentDesign
from paneldid.designs import (
    CovariateTerm,
    DesignKind,
    DidSpec,
    build_baseline,
    build_design,
    build_event_study,
    build_growth_interaction,
    build_increases,
    build_multi_group,
    build_staggered_twfe,
    dump_spec,
    expand_covariates,
    load_spec,
)
from paneldid.panel import Observation
from paneldid.periods import Period, period_range

EARLY = P(2014, 3)
LATE = P(2019, 1)


def rt(high_first, high_second, weight=1.0):
    group = SwitcherGroup.from_flags(high_first, high_second)
    cohort = EARLY if high_first else (LATE if high_second else None)
    return RegionTreatment(
        gap_first=0.8 if high_first else 0.2,
        gap_second=0.8 if high_second else 0.2,
        high_first=high_first,
        high_second=high_second,
        group=group,
        cohort=cohort,
        population_weight=weight,
    )


FOUR_REGIONS = {
    "high": rt(True, True),
    "fade": rt(True, False),
    "late": rt(False, True),
    "low": rt(False, False),
}


def design_for(units):
    return TreatmentDesign({u: FOUR_REGIONS[u] for u in units})


def panel_for(units, periods, constants=None):
    """Balanced panel; `constants` maps covariate name -> unit -> value."""
    names = tuple(constants) if constants else ()
    obs = []
    for i, u in enumerate(units):
        covs = tuple(constants[name][u] for name in names) if names else ()
        for j, p in enumerate(periods):
            obs.append(Observation(u, p, float(i + 0.1 * j), 1.0, covs))
    return panel_of(tuple(obs), covariate_names=names)


def rows_of(data, unit):
    return [k for k, o in enumerate(data.observations) if o.unit == unit]


def cell(dm, data, unit, period, name):
    j = dm.columns.index(name)
    for k, o in enumerate(data.observations):
        if o.unit == unit and o.period == period:
            return dm.x[k, j]
    raise AssertionError(f"no row for {unit} at {period}")


QUARTERS = tuple(period_range(P(2013, 1), P(2021, 4)))


class TestSpecFile:
    def test_minimal_defaults(self):
        spec = load_spec(io.StringIO("kind = baseline\n"))
        assert spec.kind is DesignKind.BASELINE
        assert spec.cutoff == P(2014, 2)
        assert spec.baseline == P(2014, 2)
        assert spec.increase_years == (2016, 2018, 2019, 2020, 2021)
        assert spec.placebo is False
        assert spec.covariates == ()

    def test_round_trip(self):
        full = DidSpec(
            kind=DesignKind.GROWTH_INTERACTION,
            cutoff=P(2015, 1),
            baseline=P(2014, 4),
            increase_years=(2016, 2018),
            placebo=True,
            covariates=(
                CovariateTerm("east"),
                CovariateTerm("popshare", by_time=True, by_flag="east"),
            ),
        )
        no_increases = DidSpec(kind=DesignKind.INCREASES, increase_years=())
        for spec in (full, no_increases):
            assert load_spec(io.StringIO(dump_spec(spec))) == spec

    def test_comments_and_blanks_skipped(self):
        text = "# a recipe\n\nkind = event_study\nbaseline = 2014Q2\n"
        assert load_spec(io.StringIO(text)).kind is DesignKind.EVENT_STUDY

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(ValueError, match="unknown key.*increase_years"):
            load_spec(io.StringIO("kind = baseline\nwindow = 3\n"))

    def test_unknown_kind_lists_valid_ones(self):
        with pytest.raises(ValueError, match="triple_diff.*staggered_twfe"):
            load_spec(io.StringIO("kind = triple_diff\n"))

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="line 2.*duplicate"):
            load_spec(io.StringIO("kind = baseline\nkind = baseline\n"))

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            load_spec(io.StringIO("placebo = true\n"))

    def test_bad_placebo_rejected(self):
        with pytest.raises(ValueError, match="placebo"):
            load_spec(io.StringIO("kind = baseline\nplacebo = yes\n"))

    @pytest.mark.parametrize("years", [
        "2_016, 2018", "2016, \u0662\u0660\u0661\u0668", "2016.0", "2016, inf",
    ])
    def test_increase_years_use_the_one_number_rule(self, years):
        # digit grouping and non-ASCII digits, which int() accepts, are rejected
        with pytest.raises(ValueError, match=r"^line 2: increase_years: "):
            load_spec(io.StringIO(f"kind = increases\nincrease_years = {years}\n"))

    def test_increase_years_validated(self):
        with pytest.raises(ValueError, match="duplicates"):
            DidSpec(kind=DesignKind.INCREASES, increase_years=(2016, 2016))
        with pytest.raises(ValueError, match="increasing"):
            DidSpec(kind=DesignKind.INCREASES, increase_years=(2018, 2016))

    def test_covariate_term_parse(self):
        t = CovariateTerm.parse("east*time")
        assert t == CovariateTerm("east", by_time=True, by_flag=None)
        t2 = CovariateTerm.parse("popshare*time*east")
        assert t2.by_flag == "east" and t2.by_time
        assert CovariateTerm.parse(str(t2)) == t2
        with pytest.raises(ValueError, match="two flags"):
            CovariateTerm.parse("a*time*b*c")


class TestBaseline:
    def test_cutoff_quarter_loads_on_neither_column(self):
        units = ("high", "low")
        data = panel_for(units, QUARTERS)
        spec = DidSpec(kind=DesignKind.BASELINE, placebo=True)
        dm = build_baseline(data, design_for(units), spec)
        assert dm.columns == ("treated_post", "treated_pre")
        assert cell(dm, data, "high", P(2014, 3), "treated_post") == 1.0
        assert cell(dm, data, "high", P(2014, 2), "treated_post") == 0.0
        assert cell(dm, data, "high", P(2014, 2), "treated_pre") == 0.0
        assert cell(dm, data, "high", P(2014, 1), "treated_pre") == 1.0
        assert cell(dm, data, "high", P(2014, 1), "treated_post") == 0.0

    def test_control_rows_all_zero(self):
        units = ("high", "low")
        data = panel_for(units, QUARTERS)
        dm = build_baseline(data, design_for(units), DidSpec(kind=DesignKind.BASELINE))
        assert np.all(dm.x[rows_of(data, "low")] == 0.0)

    def test_first_wave_exposure_drives_assignment(self):
        # fade is high in the first wave only; it still counts as treated here
        units = ("fade", "late", "low")
        data = panel_for(units, QUARTERS)
        dm = build_baseline(data, design_for(units), DidSpec(kind=DesignKind.BASELINE))
        assert cell(dm, data, "fade", P(2015, 1), "treated_post") == 1.0
        assert cell(dm, data, "late", P(2015, 1), "treated_post") == 0.0


class TestEventStudy:
    def test_one_column_per_nonbaseline_period(self):
        periods = tuple(period_range(P(2013, 1), P(2022, 1)))
        assert len(periods) == 37
        units = ("high", "low")
        data = panel_for(units, periods)
        dm = build_event_study(data, design_for(units),
                               DidSpec(kind=DesignKind.EVENT_STUDY))
        assert len(dm.columns) == 36
        assert all(name.startswith("treated@") for name in dm.columns)
        assert "treated@2014Q2" not in dm.columns

    def test_rows_are_indicator_exclusive(self):
        units = ("high", "low")
        data = panel_for(units, QUARTERS)
        dm = build_event_study(data, design_for(units),
                               DidSpec(kind=DesignKind.EVENT_STUDY))
        sums = dm.x.sum(axis=1)
        for k, o in enumerate(data.observations):
            expected = 1.0 if (o.unit == "high" and o.period != P(2014, 2)) else 0.0
            assert sums[k] == expected
        assert cell(dm, data, "high", P(2016, 1), "treated@2016Q1") == 1.0

    def test_needs_a_nonbaseline_period(self):
        units = ("high", "low")
        data = panel_for(units, (P(2014, 2),))
        with pytest.raises(ValueError, match="non-baseline"):
            build_event_study(data, design_for(units),
                              DidSpec(kind=DesignKind.EVENT_STUDY))


class TestGrowthInteraction:
    FLAGS = {"high": True, "fade": False, "low": False}

    def test_interaction_cells(self):
        units = ("high", "fade", "low")
        data = panel_for(units, QUARTERS)
        dm = build_growth_interaction(
            data, design_for(units), self.FLAGS,
            DidSpec(kind=DesignKind.GROWTH_INTERACTION),
        )
        assert dm.columns[:2] == ("treated_post", "treated_post_lowgrowth")
        post = P(2015, 1)
        pair = lambda u: (cell(dm, data, u, post, "treated_post"),
                          cell(dm, data, u, post, "treated_post_lowgrowth"))
        assert pair("high") == (1.0, 1.0)
        assert pair("fade") == (1.0, 0.0)
        assert pair("low") == (0.0, 0.0)

    def test_lowgrowth_time_block_present(self):
        units = ("high", "fade", "low")
        data = panel_for(units, QUARTERS)
        dm = build_growth_interaction(
            data, design_for(units), self.FLAGS,
            DidSpec(kind=DesignKind.GROWTH_INTERACTION),
        )
        block = [n for n in dm.columns if n.startswith("low_growth@")]
        assert len(block) == len(QUARTERS) - 1
        assert "low_growth@2013Q1" not in dm.columns
        assert cell(dm, data, "high", P(2013, 2), "low_growth@2013Q2") == 1.0
        assert cell(dm, data, "fade", P(2013, 2), "low_growth@2013Q2") == 0.0

    def test_dispatch_requires_flags(self):
        units = ("high", "low")
        data = panel_for(units, QUARTERS)
        with pytest.raises(ValueError, match="low-growth flags"):
            build_design(data, design_for(units),
                         DidSpec(kind=DesignKind.GROWTH_INTERACTION))


class TestIncreases:
    def test_step_columns(self):
        units = ("high", "low")
        data = panel_for(units, QUARTERS)
        spec = DidSpec(kind=DesignKind.INCREASES, increase_years=(2016, 2018))
        dm = build_increases(data, design_for(units), spec)
        assert dm.columns == ("treated_post", "raise_2017", "raise_2019")
        triple = lambda p: tuple(
            cell(dm, data, "high", p, n) for n in dm.columns
        )
        assert triple(P(2016, 4)) == (1.0, 0.0, 0.0)
        assert triple(P(2017, 1)) == (1.0, 1.0, 0.0)
        assert triple(P(2019, 1)) == (1.0, 1.0, 1.0)
        assert triple(P(2014, 2)) == (0.0, 0.0, 0.0)

    def test_empty_years_rejected(self):
        units = ("high", "low")
        data = panel_for(units, QUARTERS)
        spec = DidSpec(kind=DesignKind.INCREASES, increase_years=())
        with pytest.raises(ValueError, match="raise year"):
            build_increases(data, design_for(units), spec)


class TestMultiGroup:
    def test_group_specific_post_columns(self):
        units = ("high", "fade", "late", "low")
        data = panel_for(units, QUARTERS)
        dm = build_multi_group(data, design_for(units),
                               DidSpec(kind=DesignKind.MULTI_GROUP))
        assert dm.columns == ("low_high_post", "high_low_post", "high_high_post")
        post = P(2015, 1)
        vec = lambda u: tuple(cell(dm, data, u, post, n) for n in dm.columns)
        assert vec("late") == (1.0, 0.0, 0.0)
        assert vec("fade") == (0.0, 1.0, 0.0)
        assert vec("high") == (0.0, 0.0, 1.0)
        assert vec("low") == (0.0, 0.0, 0.0)

    def test_groups_mutually_exclusive(self):
        units = ("high", "fade", "late", "low")
        data = panel_for(units, QUARTERS)
        dm = build_multi_group(data, design_for(units),
                               DidSpec(kind=DesignKind.MULTI_GROUP))
        assert dm.x.sum(axis=1).max() <= 1.0

    def test_placebo_adds_pre_block(self):
        units = ("high", "fade", "late", "low")
        data = panel_for(units, QUARTERS)
        dm = build_multi_group(data, design_for(units),
                               DidSpec(kind=DesignKind.MULTI_GROUP, placebo=True))
        assert dm.columns == (
            "low_high_post", "high_low_post", "high_high_post",
            "low_high_pre", "high_low_pre", "high_high_pre",
        )
        assert cell(dm, data, "late", P(2014, 1), "low_high_pre") == 1.0
        assert cell(dm, data, "late", P(2014, 2), "low_high_pre") == 0.0
        assert cell(dm, data, "late", P(2014, 1), "low_high_post") == 0.0

    def test_unit_without_group_named(self):
        data = panel_for(("high", "fade", "late", "low"), QUARTERS)
        with pytest.raises(ValueError, match=r"switcher group missing for unit\(s\) "
                                             r"\['fade', 'low'\]"):
            build_multi_group(data, design_for(("high", "late")),
                              DidSpec(kind=DesignKind.MULTI_GROUP))


class TestStaggered:
    def test_adoption_boundary_inclusive(self):
        units = ("high", "late", "low")
        data = panel_for(units, QUARTERS)
        dm = build_staggered_twfe(data, design_for(units),
                                  DidSpec(kind=DesignKind.STAGGERED_TWFE))
        assert dm.columns == ("post_adoption",)
        assert cell(dm, data, "high", P(2014, 3), "post_adoption") == 1.0
        assert cell(dm, data, "high", P(2014, 2), "post_adoption") == 0.0
        assert cell(dm, data, "late", P(2019, 1), "post_adoption") == 1.0
        assert cell(dm, data, "late", P(2018, 4), "post_adoption") == 0.0
        assert np.all(dm.x[rows_of(data, "low")] == 0.0)

    def test_matches_baseline_when_only_early_adopters(self):
        # with every treated unit in the early cohort, the absorbing
        # indicator and the post-cutoff interaction agree cell for cell
        units = ("high", "fade", "low")
        data = panel_for(units, QUARTERS)
        design = design_for(units)
        stag = build_staggered_twfe(data, design,
                                    DidSpec(kind=DesignKind.STAGGERED_TWFE))
        base = build_baseline(data, design, DidSpec(kind=DesignKind.BASELINE))
        np.testing.assert_array_equal(stag.x[:, 0], base.x[:, 0])


class TestCovariateExpansion:
    CONSTS = {"east": {"high": 1.0, "low": 0.0}, "popshare": {"high": 0.3, "low": 0.7}}

    def test_time_block_shape_and_names(self):
        units = ("high", "low")
        data = panel_for(units, QUARTERS, constants=self.CONSTS)
        names, x = expand_covariates(data, (CovariateTerm("east"),))
        assert len(names) == len(QUARTERS) - 1
        assert names[0] == "east*time@2013Q2"
        assert x.shape == (data.n_obs, len(QUARTERS) - 1)

    def test_static_and_flagged_terms(self):
        units = ("high", "low")
        data = panel_for(units, QUARTERS, constants=self.CONSTS)
        names, x = expand_covariates(
            data, (CovariateTerm("popshare", by_time=False),)
        )
        assert names == ["popshare"]
        k = data.observations.index(
            next(o for o in data.observations if o.unit == "high")
        )
        assert x[k, 0] == 0.3
        names2, x2 = expand_covariates(
            data, (CovariateTerm("popshare", by_time=True, by_flag="east"),)
        )
        # popshare x east zeroes out the non-east unit entirely
        assert all(n.startswith("popshare*time*east@") for n in names2)
        assert np.all(x2[rows_of(data, "low")] == 0.0)

    def test_unknown_characteristic_rejected(self):
        units = ("high", "low")
        data = panel_for(units, QUARTERS, constants=self.CONSTS)
        with pytest.raises(ValueError, match="elevation"):
            expand_covariates(data, (CovariateTerm("elevation"),))

    def test_spec_covariates_appended_to_design(self):
        units = ("high", "low")
        data = panel_for(units, QUARTERS, constants=self.CONSTS)
        spec = DidSpec(kind=DesignKind.BASELINE,
                       covariates=(CovariateTerm("east"),))
        dm = build_design(data, design_for(units), spec)
        assert dm.columns[0] == "treated_post"
        assert sum(n.startswith("east*time@") for n in dm.columns) == len(QUARTERS) - 1


def test_all_treatment_columns_are_indicators():
    units = ("high", "fade", "late", "low")
    data = panel_for(units, QUARTERS)
    design = design_for(units)
    specs = [
        DidSpec(kind=DesignKind.BASELINE, placebo=True),
        DidSpec(kind=DesignKind.EVENT_STUDY),
        DidSpec(kind=DesignKind.INCREASES, increase_years=(2016, 2018)),
        DidSpec(kind=DesignKind.MULTI_GROUP, placebo=True),
        DidSpec(kind=DesignKind.STAGGERED_TWFE),
    ]
    for spec in specs:
        dm = build_design(data, design, spec)
        assert set(np.unique(dm.x)) <= {0.0, 1.0}, spec.kind
    dm = build_design(data, design, DidSpec(kind=DesignKind.GROWTH_INTERACTION),
                      growth_flags={"high": True, "fade": False,
                                    "late": True, "low": False})
    assert set(np.unique(dm.x)) <= {0.0, 1.0}


def _pin_panel():
    """Eight regions, two per switcher group, on an unbalanced 2013Q1-2021Q4 panel.

    Rows are missing at the cutoff quarter, at a cohort start and at the
    start of the panel; `drift` is negative for some regions, so its
    off-period cells are -0.0.
    """
    units = ("high1", "high2", "fade1", "fade2", "late1", "late2", "low1", "low2")
    east = dict(zip(units, (1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0)))
    drift = dict(zip(units, (-0.4, 0.25, 1.5, -2.0, 0.75, -0.125, 3.0, 0.5)))
    missing = {("fade2", p) for p in QUARTERS[:4]} | {
        ("low1", P(2014, 2)), ("late2", P(2019, 1)), ("high2", P(2016, 1)),
        ("high2", P(2016, 2)),
    }
    obs = [Observation(u, p, float(i + 0.1 * j), 1.0 + 0.5 * (i % 3), (east[u], drift[u]))
           for i, u in enumerate(units) for j, p in enumerate(QUARTERS)
           if (u, p) not in missing]
    design = TreatmentDesign({u: FOUR_REGIONS[u[:-1]] for u in units})
    growth = {u: u[-1] == "1" for u in units}
    return panel_of(tuple(obs), covariate_names=("east", "drift")), design, growth


_PIN_COVARIATES = (CovariateTerm("drift"), CovariateTerm("drift", by_flag="east"),
                   CovariateTerm("drift", by_time=False))


def _pin_spec(kind, placebo, shifted):
    if not shifted:
        return DidSpec(kind=kind, placebo=placebo)
    return DidSpec(kind=kind, cutoff=P(2015, 1), baseline=P(2016, 2),
                   increase_years=(2016, 2018), placebo=placebo, covariates=_PIN_COVARIATES)


def _digests(dm):
    columns = hashlib.sha256("\n".join(dm.columns).encode()).hexdigest()[:16]
    x = np.ascontiguousarray(dm.x, dtype=float)
    cells = hashlib.sha256(repr(x.shape).encode() + x.tobytes()).hexdigest()[:16]
    return columns, cells


# (columns, x) digests by (kind, placebo, shifted); `shifted` moves the cutoff
# to 2015Q1, the baseline to 2016Q2 and the raises to 2016 and 2018, and adds
# the three covariate forms.
_PINNED_DESIGNS = {
    (DesignKind.BASELINE, False, False): ('eca1197bf4fa6304', 'a6bdfa3961adbe81'),
    (DesignKind.BASELINE, False, True): ('e6c0866e08f9de19', 'c599d4f4f0aa3764'),
    (DesignKind.BASELINE, True, False): ('814ce29262e89feb', '94d33cfd8f943ee5'),
    (DesignKind.BASELINE, True, True): ('b1b41d9c901ca70f', '44093e9b05721801'),
    (DesignKind.EVENT_STUDY, False, False): ('23bc5eaf73ee4cb8', '6c4ace5bf250f68a'),
    (DesignKind.EVENT_STUDY, False, True): ('4435b234461e649e', '4c54c8cad8551269'),
    (DesignKind.EVENT_STUDY, True, False): ('23bc5eaf73ee4cb8', '6c4ace5bf250f68a'),
    (DesignKind.EVENT_STUDY, True, True): ('4435b234461e649e', '4c54c8cad8551269'),
    (DesignKind.GROWTH_INTERACTION, False, False): ('5dc841772e1ec55d', 'fc23dc7e223dd461'),
    (DesignKind.GROWTH_INTERACTION, False, True): ('53b7d4fc71c55679', '333dd35af1df921d'),
    (DesignKind.GROWTH_INTERACTION, True, False): ('5dc841772e1ec55d', 'fc23dc7e223dd461'),
    (DesignKind.GROWTH_INTERACTION, True, True): ('53b7d4fc71c55679', '333dd35af1df921d'),
    (DesignKind.INCREASES, False, False): ('86e5e47ee51363f9', '2b52e72102324fa5'),
    (DesignKind.INCREASES, False, True): ('0ea083a6afffcc41', 'cff54efcf2cb9160'),
    (DesignKind.INCREASES, True, False): ('86e5e47ee51363f9', '2b52e72102324fa5'),
    (DesignKind.INCREASES, True, True): ('0ea083a6afffcc41', 'cff54efcf2cb9160'),
    (DesignKind.MULTI_GROUP, False, False): ('838b09185bb1df9b', '25ad195080e7e320'),
    (DesignKind.MULTI_GROUP, False, True): ('e5d7292060e7a4ff', '655ca2f29586047f'),
    (DesignKind.MULTI_GROUP, True, False): ('eb5df789e359cc74', 'f0f18d4150468e5b'),
    (DesignKind.MULTI_GROUP, True, True): ('d04bc57b43b43c78', 'e94445ecbd1cf374'),
    (DesignKind.STAGGERED_TWFE, False, False): ('f19ee427580278fa', '2785544f73331d9f'),
    (DesignKind.STAGGERED_TWFE, False, True): ('1cf51bf8309aa7cb', '3b4cdd003a0f9937'),
    (DesignKind.STAGGERED_TWFE, True, False): ('f19ee427580278fa', '2785544f73331d9f'),
    (DesignKind.STAGGERED_TWFE, True, True): ('1cf51bf8309aa7cb', '3b4cdd003a0f9937'),
}


@pytest.mark.parametrize("key", sorted(_PINNED_DESIGNS, key=lambda k: (k[0].value, k[1:])),
                         ids=lambda k: f"{k[0].value}-placebo{k[1]:d}-shifted{k[2]:d}")
def test_design_matrices_pinned(key):
    data, design, growth = _pin_panel()
    dm = build_design(data, design, _pin_spec(*key), growth_flags=growth)
    assert _digests(dm) == _PINNED_DESIGNS[key]


def test_design_pins_cover_every_case():
    assert set(_PINNED_DESIGNS) == {(kind, placebo, shifted) for kind in DesignKind
                                    for placebo in (False, True) for shifted in (False, True)}


def test_placebo_changes_only_baseline_and_multi_group():
    data, design, growth = _pin_panel()
    changed = set()
    for kind in DesignKind:
        off, on = (build_design(data, design, DidSpec(kind=kind, placebo=placebo),
                                growth_flags=growth) for placebo in (False, True))
        if off.columns != on.columns:
            changed.add(kind)
        else:
            np.testing.assert_array_equal(off.x, on.x)
    assert changed == {DesignKind.BASELINE, DesignKind.MULTI_GROUP}
