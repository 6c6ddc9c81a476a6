import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from paneldid import textio
from paneldid.bite import (
    DESIGN_COLUMNS,
    RegionTreatment,
    SwitcherGroup,
    TreatmentDesign,
    WageGapTable,
    WageMicrodata,
    WageRecord,
    _average_ranks,
    assigned_cohort,
    build_treatment_design,
    classify_switchers,
    cohort_pair,
    design_rules,
    gap_correlations,
    low_growth_flag,
    wage_gap,
    weighted_median,
    weighted_median_split,
)
from paneldid.periods import Period
from paneldid.textio import IngestError


def micro(wages_by_region, mw=8.50, year=2014):
    records = tuple(
        WageRecord(region, wage)
        for region, wages in wages_by_region.items()
        for wage in wages
    )
    return WageMicrodata(records, minimum_wage=mw, survey_year=year)


def _table(gaps, mw, year):
    # direct construction: gap values given, one worker per region
    from paneldid.bite import RegionGap

    return WageGapTable({r: RegionGap(g, 1) for r, g in gaps.items()}, mw, year)


class TestWageGap:
    def test_no_wage_below_minimum(self):
        got = wage_gap(micro({"a": [8.50, 9.00]}))
        assert got.gaps["a"].gap == 0.0
        assert got.gaps["a"].worker_count == 2

    def test_one_wage_below(self):
        got = wage_gap(micro({"a": [8.00, 9.00]}))
        assert got.gaps["a"].gap == pytest.approx(0.25, abs=1e-15)

    def test_three_workers(self):
        got = wage_gap(micro({"a": [7.00, 7.50, 10.00]}))
        # (1.50 + 1.00 + 0) / 3
        assert got.gaps["a"].gap == pytest.approx(2.5 / 3.0, abs=1e-12)

    def test_missing_region_named(self):
        with pytest.raises(ValueError, match=r"\['b'\].*divide by zero"):
            wage_gap(micro({"a": [8.0]}), regions=["a", "b"])

    def test_record_order_and_duplication_invariance(self):
        base = micro({"a": [7.0, 8.0], "b": [9.0]})
        reordered = WageMicrodata(tuple(reversed(base.records)), 8.50, 2014)
        doubled = WageMicrodata(base.records + base.records, 8.50, 2014)
        assert wage_gap(reordered).gap_values() == wage_gap(base).gap_values()
        assert wage_gap(doubled).gap_values() == wage_gap(base).gap_values()

    @settings(max_examples=100, deadline=None)
    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        wages=st.lists(st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
                       min_size=1, max_size=6),
    )
    def test_scale_equivariance(self, scale, wages):
        base = wage_gap(micro({"a": wages}, mw=8.50))
        scaled = wage_gap(micro({"a": [w * scale for w in wages]}, mw=8.50 * scale))
        assert scaled.gaps["a"].gap == pytest.approx(scale * base.gaps["a"].gap, rel=1e-12)

    def test_read_csv(self):
        text = "region,hourly_wage\na,8.00\na,9.00\n"
        got = wage_gap(WageMicrodata.read_csv(io.StringIO(text), 8.50, 2014))
        assert got.gaps["a"].gap == pytest.approx(0.25)


    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.one_of(
                st.sampled_from(["", " ,\t"]),  # blank rows are skipped
                st.tuples(st.sampled_from(["a", " a", "b ", "c", "d"]),
                          st.floats(min_value=0.01, max_value=30.0)),
            ),
            min_size=1, max_size=40,
        ).filter(lambda rows: any(isinstance(row, tuple) for row in rows)),
        mw=st.floats(min_value=0.5, max_value=20.0),
        batch=st.integers(min_value=1, max_value=6),
    )
    def test_read_csv_gaps_equal_sequential_sums(self, rows, mw, batch):
        text = "region,hourly_wage\n" + "".join(
            f"{row[0]},{row[1]!r}\n" if isinstance(row, tuple) else f"{row}\n"
            for row in rows
        )
        with mock.patch.object(textio, "BATCH_ROWS", batch):
            got = wage_gap(WageMicrodata.read_csv(io.StringIO(text), mw, 2014))
        totals, counts = {}, {}
        for row in rows:
            if isinstance(row, tuple):
                region = row[0].strip()
                totals[region] = totals.get(region, 0.0) + max(mw - row[1], 0.0)
                counts[region] = counts.get(region, 0) + 1
        exact = {r: (gap.gap.hex(), gap.worker_count) for r, gap in got.gaps.items()}
        assert exact == {r: ((totals[r] / counts[r]).hex(), counts[r]) for r in totals}
        records = [WageRecord(row[0], row[1]) for row in rows if isinstance(row, tuple)]
        assert wage_gap(WageMicrodata(records, mw, 2014)).gaps == got.gaps

    @pytest.mark.parametrize("line, message", [
        ("b", r"row 4: expected 2 fields, got 1"),
        (" ,9.0", r"row 4: column 'region': region id must be a non-empty string"),
        ("b,0", r"row 4: column 'hourly_wage' must be positive, got 0\.0"),
        ("b,-2.5", r"row 4: column 'hourly_wage' must be positive, got -2\.5"),
        ("b,nan", r"row 4: column 'hourly_wage': non-finite value 'nan'"),
        ("b,x", r"row 4: column 'hourly_wage': could not parse 'x'"),
        ("b,8.0,junk", r"row 4: expected 2 fields, got 3"),
        ("b,1_0", r"row 4: column 'hourly_wage': could not parse '1_0'"),
        ("b,\u0663", r"row 4: column 'hourly_wage': could not parse '\u0663'"),
        ("b,8.0\u00a0", r"row 4: column 'hourly_wage': could not parse '8\.0\\xa0'"),
    ])
    @pytest.mark.parametrize("batch", [1, 2, 4096])
    def test_bad_row_named(self, line, message, batch):
        # Row 3 is blank; row 7 is bad too, so the first bad row must win.
        text = f"region,hourly_wage\na,8.0\n\n{line}\na,9.0\nb,7.0\n,0\n"
        with mock.patch.object(textio, "BATCH_ROWS", batch), \
                pytest.raises(IngestError, match=message):
            WageMicrodata.read_csv(io.StringIO(text), 8.50, 2014)

    @pytest.mark.parametrize("record, message", [
        (WageRecord("", 9.0), r"^region id must be a non-empty string$"),
        (WageRecord("b", 0.0), r"^hourly wage must be positive, got 0\.0$"),
        (WageRecord("b", -2.5), r"^hourly wage must be positive, got -2\.5$"),
        (WageRecord("b", float("nan")), r"^hourly wage must be positive, got nan$"),
        (WageRecord("b", float("inf")), r"^hourly wage must be positive, got inf$"),
        (WageRecord(" \t", 9.0), r"^region id must be a non-empty string$"),
    ])
    def test_records_checked_as_columns(self, record, message):
        with pytest.raises(ValueError, match=message):
            WageMicrodata([WageRecord("a", 8.0), record], 8.50, 2014)

    def test_columns_and_record_view(self):
        text = "hourly_wage,region\n8.0, b\n7.5,a\n9.0,b \n"
        data = WageMicrodata.read_csv(io.StringIO(text), 8.50, 2014)
        assert data.regions == ("b", "a")
        assert data.region_codes.tolist() == [0, 1, 0]
        assert data.wages.tolist() == [8.0, 7.5, 9.0]
        assert data.records == (WageRecord("b", 8.0), WageRecord("a", 7.5), WageRecord("b", 9.0))
        assert WageMicrodata(data.records, 8.50, 2014) == data
        padded = [WageRecord(" b", 8.0), WageRecord("a", 7.5), WageRecord("b ", 9.0)]
        assert WageMicrodata(padded, 8.50, 2014) == data
        with pytest.raises(ValueError, match="read-only"):
            data.wages[0] = 1.0
        with pytest.raises(AttributeError):
            data.minimum_wage = 9.0


class TestWeightedMedianSplit:
    def test_three_regions_equal_weights(self):
        gaps = {"a": 1.0, "b": 2.0, "c": 3.0}
        weights = {"a": 1.0, "b": 1.0, "c": 1.0}
        assert weighted_median_split(gaps, weights) == {"a": False, "b": True, "c": True}

    def test_lopsided_weights_tie_at_median_treated(self):
        gaps = {"a": 1.0, "b": 2.0}
        weights = {"a": 0.99, "b": 0.01}
        assert weighted_median(gaps, weights) == 1.0
        assert weighted_median_split(gaps, weights) == {"a": True, "b": True}

    def test_all_equal_gaps_all_treated(self):
        gaps = {"a": 0.4, "b": 0.4, "c": 0.4}
        weights = {"a": 2.0, "b": 1.0, "c": 5.0}
        assert all(weighted_median_split(gaps, weights).values())

    def test_strict_variant_drops_the_median_region(self):
        gaps = {"a": 1.0, "b": 2.0, "c": 3.0}
        weights = {"a": 1.0, "b": 1.0, "c": 1.0}
        got = weighted_median_split(gaps, weights, strict=True)
        assert got == {"a": False, "b": False, "c": True}

    @settings(max_examples=100, deadline=None)
    @given(
        # Gaps on a grid of hundredths: distinct gaps stay distinct and in
        # order under every scale drawn. Arbitrary floats can merge when
        # scaled (underflow, or rounding), which no split can be invariant to.
        st.dictionaries(st.sampled_from("abcdefgh"),
                        st.integers(0, 500).map(lambda k: k / 100),
                        min_size=2),
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    def test_split_invariant_to_gap_scaling(self, gaps, scale):
        weights = {r: 1.0 + i for i, r in enumerate(sorted(gaps))}
        base = weighted_median_split(gaps, weights)
        scaled = weighted_median_split({r: g * scale for r, g in gaps.items()}, weights)
        assert scaled == base

    @given(st.lists(st.floats(min_value=0.0, max_value=9.0, allow_nan=False),
                    min_size=1, max_size=9))
    def test_treated_weight_reaches_half(self, values):
        gaps = {f"r{i}": v for i, v in enumerate(values)}
        weights = {f"r{i}": 1.0 + (i % 3) for i in range(len(values))}
        split = weighted_median_split(gaps, weights)
        treated = sum(weights[r] for r, flag in split.items() if flag)
        assert treated >= sum(weights.values()) / 2.0

    def test_ties_summed_exactly_whatever_the_labels(self):
        # 2 * (.1 + .1 + .7) equals the total exactly, so the median is 1.0;
        # a float running sum in key order reached it only under some labels.
        gaps = {"a": 2.0, "b": 1.0, "c": 1.0, "d": 1.0, "e": 2.0}
        weights = {"a": 0.3, "b": 0.1, "c": 0.1, "d": 0.7, "e": 0.6}
        reverse = dict(zip("abcde", "edcba"))
        assert weighted_median(gaps, weights) == 1.0
        assert weighted_median({reverse[r]: g for r, g in gaps.items()},
                               {reverse[r]: w for r, w in weights.items()}) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 9).map(lambda k: k / 10)),
                    min_size=1, max_size=8),
           st.data())
    def test_split_invariant_to_relabelling_and_order(self, rows, data):
        names = [f"r{i}" for i in range(len(rows))]
        gaps = {r: float(g) for r, (g, _) in zip(names, rows)}
        weights = {r: w for r, (_, w) in zip(names, rows)}
        relabel = dict(zip(names, data.draw(st.permutations(names))))
        order = data.draw(st.permutations(names))
        moved = weighted_median_split({relabel[r]: gaps[r] for r in order},
                                      {relabel[r]: weights[r] for r in reversed(order)})
        base = weighted_median_split(gaps, weights)
        assert moved == {relabel[r]: flag for r, flag in base.items()}

    def test_equal_weights_match_unweighted_median(self):
        # odd count, distinct gaps: same as an unweighted median split
        gaps = {"a": 0.1, "b": 0.5, "c": 0.3, "d": 0.9, "e": 0.7}
        weights = dict.fromkeys(gaps, 1.0)
        split = weighted_median_split(gaps, weights)
        unweighted_median = sorted(gaps.values())[len(gaps) // 2]
        assert split == {r: g >= unweighted_median for r, g in gaps.items()}


class TestSwitchers:
    def test_pairs(self):
        assert SwitcherGroup.from_flags(False, False) is SwitcherGroup.LOW_LOW
        assert SwitcherGroup.from_flags(True, False) is SwitcherGroup.HIGH_LOW
        assert SwitcherGroup.from_flags(False, True) is SwitcherGroup.LOW_HIGH
        assert SwitcherGroup.from_flags(True, True) is SwitcherGroup.HIGH_HIGH

    def test_mismatch_lists_difference(self):
        with pytest.raises(ValueError, match="only in"):
            classify_switchers({"a": True}, {"b": True})

    def test_reported_group_counts(self):
        # group sizes 68 low/low, 45 low/high, 36 high/low, 108 high/high
        sizes = {
            SwitcherGroup.LOW_LOW: 68,
            SwitcherGroup.LOW_HIGH: 45,
            SwitcherGroup.HIGH_LOW: 36,
            SwitcherGroup.HIGH_HIGH: 108,
        }
        first, second = {}, {}
        i = 0
        for group, count in sizes.items():
            hi1 = group in (SwitcherGroup.HIGH_LOW, SwitcherGroup.HIGH_HIGH)
            hi2 = group in (SwitcherGroup.LOW_HIGH, SwitcherGroup.HIGH_HIGH)
            for _ in range(count):
                first[f"r{i:03d}"], second[f"r{i:03d}"] = hi1, hi2
                i += 1
        groups = classify_switchers(first, second)
        counts = {g: 0 for g in SwitcherGroup}
        for g in groups.values():
            counts[g] += 1
        assert counts == sizes
        assert len(groups) == 257

    def test_groups_partition_the_regions(self):
        first = {"a": True, "b": False, "c": True}
        second = {"a": False, "b": False, "c": True}
        groups = classify_switchers(first, second)
        assert set(groups) == {"a", "b", "c"}


class TestCorrelations:
    def test_identical_tables(self):
        t = _table({"a": 0.1, "b": 0.5, "c": 0.3}, 8.50, 2014)
        pearson, spearman = gap_correlations(t, t)
        assert pearson == pytest.approx(1.0, abs=1e-12)
        assert spearman == pytest.approx(1.0, abs=1e-12)

    def test_reversed_ranking(self):
        a = _table({"a": 1.0, "b": 2.0, "c": 3.0}, 8.50, 2014)
        b = _table({"a": 3.0, "b": 2.0, "c": 1.0}, 8.50, 2018)
        _, spearman = gap_correlations(a, b)
        assert spearman == pytest.approx(-1.0, abs=1e-12)

    def test_five_region_fixture(self):
        # rank displacement d = (-1, 1, -2, 1, 1), sum d^2 = 8:
        # rho = 1 - 6*8 / (5*24) = 0.6
        a = _table({"r1": 1.0, "r2": 2.0, "r3": 3.0, "r4": 4.0, "r5": 5.0}, 8.50, 2014)
        b = _table({"r1": 2.0, "r2": 1.0, "r3": 5.0, "r4": 3.0, "r5": 4.0}, 8.50, 2018)
        pearson, spearman = gap_correlations(a, b)
        assert spearman == pytest.approx(0.6, abs=1e-12)
        assert pearson == pytest.approx(0.6, abs=1e-12)  # distinct integer ranks

    def test_constant_side_rejected(self):
        a = _table({"a": 1.0, "b": 1.0}, 8.50, 2014)
        b = _table({"a": 1.0, "b": 2.0}, 8.50, 2018)
        with pytest.raises(ValueError, match="constant"):
            gap_correlations(a, b)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 3.0])
                    | st.floats(allow_nan=False), min_size=1, max_size=200))
    def test_average_ranks_equal_rankdata(self, values):
        # ties (-0.0 with 0.0 among them) share their mean rank, a half-integer
        values = np.array(values)
        assert _average_ranks(values).tobytes() == stats.rankdata(values).tobytes()

    def test_average_ranks_propagate_nan(self):
        assert np.isnan(_average_ranks(np.array([1.0, math.nan, 0.0]))).all()


class TestLowGrowth:
    def test_four_regions(self):
        flags = low_growth_flag({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        assert flags == {"a": True, "b": False, "c": False, "d": False}

    def test_eight_regions(self):
        growth = {f"r{v}": float(v) for v in (10, 20, 30, 40, 50, 60, 70, 80)}
        flags = low_growth_flag(growth)
        assert {r for r, f in flags.items() if f} == {"r10", "r20"}

    def test_all_equal_all_flagged(self):
        assert all(low_growth_flag(dict.fromkeys("abcd", 2.0)).values())

    def test_too_few_regions(self):
        with pytest.raises(ValueError, match="4"):
            low_growth_flag({"a": 1.0, "b": 2.0, "c": 3.0})


class TestTreatmentDesign:
    def build(self, strict=False):
        first = _table({"a": 0.9, "b": 0.1, "c": 0.5, "d": 0.2}, 8.50, 2014)
        second = _table({"a": 0.8, "b": 0.6, "c": 0.2, "d": 0.1}, 9.19, 2018)
        # a carries enough weight that the median lands on the upper half
        weights = {"a": 3.0, "b": 1.0, "c": 1.0, "d": 1.0}
        return build_treatment_design(first, second, weights, strict=strict)

    def test_groups_and_cohorts(self):
        design = self.build()
        # weighted medians: first wave 0.5, second wave 0.6 (inclusive rule)
        assert design.regions["a"].group is SwitcherGroup.HIGH_HIGH
        assert design.regions["b"].group is SwitcherGroup.LOW_HIGH
        assert design.regions["c"].group is SwitcherGroup.HIGH_LOW
        assert design.regions["d"].group is SwitcherGroup.LOW_LOW
        assert design.regions["a"].cohort == Period(2014, 3)
        assert design.regions["b"].cohort == Period(2019, 1)
        assert design.regions["c"].cohort == Period(2014, 3)
        assert design.regions["d"].cohort is None

    def test_missing_population_weight_named(self):
        first = _table({"a": 0.9, "b": 0.1}, 8.50, 2014)
        second = _table({"a": 0.8, "b": 0.6}, 9.19, 2018)
        with pytest.raises(ValueError, match="'b'"):
            build_treatment_design(first, second, {"a": 1.0})

    def test_csv_round_trip(self):
        design = self.build()
        sink = io.StringIO()
        design.write_csv(sink)
        again = TreatmentDesign.read_csv(io.StringIO(sink.getvalue()))
        assert again == design

    def test_reader_has_one_rule_per_written_column(self):
        # A field added to RegionTreatment is written at once, so it needs a
        # rule before any design file can be read back.
        assert tuple(design_rules()) == DESIGN_COLUMNS

    def test_missing_columns_named(self):
        sink = io.StringIO()
        self.build().write_csv(sink)
        lines = sink.getvalue().splitlines()
        header = lines[0].split(",")
        drop = header.index("cohort")
        text = "\n".join(
            ",".join(v for i, v in enumerate(line.split(",")) if i != drop)
            for line in lines
        )
        with pytest.raises(ValueError, match=r"column\(s\) \['cohort'\]"):
            TreatmentDesign.read_csv(io.StringIO(text))

    @pytest.mark.parametrize("row, message", [
        ("b,0.1", r"row 3: expected 8 fields, got 2"),
        ("b,x,0.6,0,1,low/high,2019Q1,1.0", r"row 3: column 'gap_first': could not parse 'x'"),
        ("b,0.1,0.6,0,1,mid,2019Q1,1.0", r"row 3: column 'group': unknown group 'mid'"),
        ("b,0.1,0.6,0,1,low/high,2019Q5,1.0", r"row 3: column 'cohort': expected a period"),
        (" ,0.1,0.6,0,1,low/high,2019Q1,1.0", r"row 3: column 'region': empty region id"),
        (" a ,0.1,0.6,0,1,low/high,2019Q1,1.0",
         r"row 3: column 'region': duplicate region 'a', first listed at row 2"),
        ("b,0.1,0.6,yes,1,low/high,2019Q1,1.0",
         r"row 3: column 'high_first': expected 0 or 1, got 'yes'"),
        ("b,0.1,0.6,0,2,low/high,2019Q1,1.0",
         r"row 3: column 'high_second': expected 0 or 1, got '2'"),
        # a row's cells in column order, then the rule across rows
        ("b,x,0.6,yes,1,low/high,2019Q1,1.0", r"row 3: column 'gap_first': could not parse 'x'"),
        (" a ,0.1,0.6,yes,1,low/high,2019Q1,1.0",
         r"row 3: column 'high_first': expected 0 or 1, got 'yes'"),
    ])
    def test_bad_cell_named(self, row, message):
        sink = io.StringIO()
        self.build().write_csv(sink)
        lines = sink.getvalue().splitlines()
        assert lines[2] == "b,0.1,0.6,0,1,low/high,2019Q1,1.0"
        lines[2] = row
        with pytest.raises(IngestError, match=message):
            TreatmentDesign.read_csv(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("repeat", ["a,0.9,0.8,1,1,high/high,2014Q3,1.0",
                                        "a,0.1,0.2,0,0,low/low,,2.0"])
    def test_duplicate_region_named(self, repeat):
        sink = io.StringIO()
        self.build().write_csv(sink)
        lines = sink.getvalue().splitlines()
        assert lines[1].startswith("a,") and len(lines) == 5
        with pytest.raises(IngestError, match=r"row 6: column 'region': duplicate "
                                              r"region 'a', first listed at row 2"):
            TreatmentDesign.read_csv(io.StringIO("\n".join(lines + [repeat]) + "\n"))

    def test_cohort_map(self):
        design = self.build()
        assert design.cohort_map() == {
            "a": Period(2014, 3), "b": Period(2019, 1),
            "c": Period(2014, 3), "d": None,
        }

    def test_inconsistent_cohort_rejected(self):
        entry = RegionTreatment(
            gap_first=0.9, gap_second=0.8, high_first=True, high_second=True,
            group=SwitcherGroup.HIGH_HIGH, cohort=None, population_weight=1.0,
        )
        with pytest.raises(ValueError, match="cohort"):
            TreatmentDesign(
                {"a": entry},
                early_cohort=Period(2014, 3), late_cohort=Period(2019, 1),
            )


class TestCohortRule:
    """The one rule from two flags to a cohort, and the one rule for a design's pair."""

    @pytest.mark.parametrize("high_first, high_second, cohort", [
        (True, True, "early"), (True, False, "early"), (False, True, "late"), (False, False, None),
    ])
    def test_assigned_cohort(self, high_first, high_second, cohort):
        early, late = Period(2015, 2), Period(2017, 4)
        expected = {"early": early, "late": late, None: None}[cohort]
        assert assigned_cohort(high_first, high_second, early, late) == expected

    @pytest.mark.parametrize("early, late, pair", [
        (None, None, ("2014Q3", "2019Q1")),
        ("2016Q1", "2017Q2", ("2016Q1", "2017Q2")),
        ("2016Q1", None, ("2016Q1", "2019Q1")),
        ("2019Q1", None, ("2019Q1", "2019Q2")),
        ("2030Q4", None, ("2030Q4", "2031Q1")),
        (None, "2016Q1", ("2014Q3", "2016Q1")),
        (None, "2014Q3", ("2014Q2", "2014Q3")),
        (None, "2010Q1", ("2009Q4", "2010Q1")),
    ])
    def test_cohort_pair_keeps_the_default_spacing(self, early, late, pair):
        parse = lambda text: None if text is None else Period.parse(text)
        assert cohort_pair(parse(early), parse(late)) == tuple(map(Period.parse, pair))

    @pytest.mark.parametrize("flags, cohort, pair", [
        ((1, 0), "2016Q1", ("2016Q1", "2019Q1")),
        ((1, 1), "2020Q2", ("2020Q2", "2020Q3")),
        ((0, 1), "2013Q2", ("2013Q1", "2013Q2")),
        ((0, 1), "2019Q1", ("2014Q3", "2019Q1")),
        ((0, 0), "", ("2014Q3", "2019Q1")),
    ])
    def test_design_file_with_one_cohort_or_none(self, flags, cohort, pair):
        high_first, high_second = flags
        group = SwitcherGroup.from_flags(high_first, high_second).value
        text = (",".join(DESIGN_COLUMNS) + "\n"
                f"a,0.3,0.3,{high_first},{high_second},{group},{cohort},1.0\n"
                "b,0.1,0.1,0,0,low/low,,1.0\n")
        design = TreatmentDesign.read_csv(io.StringIO(text))
        assert (design.early_cohort, design.late_cohort) == tuple(map(Period.parse, pair))
