import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P, grid_panel, make_panel, panel_of
from paneldid.panel import (
    IngestError,
    Observation,
    PanelDataset,
    balance_report,
    cohort_start,
    cohorts_in,
    ingest_panel,
    log_outcome,
    serialize_panel,
    unit_values,
)

MINIMAL = """\
unit,year,quarter,outcome,weight
a,2014,1,10.0,1.0
a,2014,2,11.0,1.0
b,2014,1,20.0,2.0
b,2014,2,21.0,2.0
"""


def test_ingest_minimal():
    data = ingest_panel(io.StringIO(MINIMAL))
    assert data.n_obs == 4
    assert data.units == ("a", "b")
    assert data.periods == (P(2014, 1), P(2014, 2))
    assert data.covariate_names == ()


def test_ingest_is_row_order_invariant():
    lines = MINIMAL.splitlines()
    shuffled = "\n".join([lines[0], lines[3], lines[1], lines[4], lines[2]]) + "\n"
    assert ingest_panel(io.StringIO(shuffled)) == ingest_panel(io.StringIO(MINIMAL))


def test_ingest_duplicate_pair_names_the_pair():
    text = MINIMAL + "a,2014,1,12.0,1.0\n"
    with pytest.raises(IngestError, match=r"a.*2014Q1"):
        ingest_panel(io.StringIO(text))


def test_ingest_rejects_zero_outcome():
    text = "unit,year,quarter,outcome,weight\na,2014,1,0.0,1.0\n"
    with pytest.raises(IngestError, match="row 2"):
        ingest_panel(io.StringIO(text))


def test_ingest_allows_negative_outcome_when_not_logging():
    text = "unit,year,quarter,outcome,weight\na,2014,1,-0.5,1.0\nb,2014,1,0.5,1.0\n"
    data = ingest_panel(io.StringIO(text), require_positive_outcome=False)
    assert data.arrays.outcome.min() == -0.5


def test_ingest_rejects_nonpositive_weight():
    text = "unit,year,quarter,outcome,weight\na,2014,1,1.0,0.0\n"
    with pytest.raises(IngestError, match="weight"):
        ingest_panel(io.StringIO(text))


def test_ingest_unparseable_numeric_names_column():
    text = "unit,year,quarter,outcome,weight\na,2014,x,1.0,1.0\n"
    with pytest.raises(IngestError, match="quarter"):
        ingest_panel(io.StringIO(text))


def test_ingest_schema_remap_and_covariates():
    text = "r,yr,q,emp,size,east\nR1,2014,1,5.0,1.0,1.0\nR2,2014,1,6.0,1.5,0.0\n"
    schema = {
        "unit": "r", "year": "yr", "quarter": "q",
        "outcome": "emp", "weight": "size", "east": "east",
    }
    data = ingest_panel(io.StringIO(text), schema)
    assert data.covariate_names == ("east",)
    np.testing.assert_array_equal(data.covariate_column("east"), [1.0, 0.0])


def test_ingest_default_schema_extra_columns_become_covariates():
    text = "unit,year,quarter,outcome,weight,east,urban\na,2014,1,1.0,1.0,0.5,1.0\n"
    data = ingest_panel(io.StringIO(text))
    assert data.covariate_names == ("east", "urban")


def test_ingest_missing_covariate_cell_rejected():
    text = "unit,year,quarter,outcome,weight,east\na,2014,1,1.0,1.0,\n"
    with pytest.raises(IngestError, match="east"):
        ingest_panel(io.StringIO(text))


def test_ingest_conflicting_cluster_rejected():
    text = (
        "unit,year,quarter,outcome,weight,cluster\n"
        "a,2014,1,1.0,1.0,c1\n"
        "a,2014,2,1.0,1.0,c2\n"
    )
    with pytest.raises(IngestError, match="cluster"):
        ingest_panel(io.StringIO(text), {"unit": "unit", "year": "year",
                                         "quarter": "quarter", "outcome": "outcome",
                                         "weight": "weight", "cluster": "cluster"})


def test_cluster_defaults_to_unit():
    data = ingest_panel(io.StringIO(MINIMAL))
    assert data.cluster == {"a": "a", "b": "b"}


def test_serialize_round_trip_is_identity():
    data = ingest_panel(io.StringIO(MINIMAL))
    sink = io.StringIO()
    serialize_panel(data, sink)
    again = ingest_panel(io.StringIO(sink.getvalue()))
    assert again == data


def test_log_outcome_values():
    data = make_panel({("a", P(2014, 1)): 1.0, ("a", P(2014, 2)): math.e,
                       ("b", P(2014, 1)): 100.0, ("b", P(2014, 2)): 200.0})
    logged = log_outcome(data)
    got = {(o.unit, o.period): o.outcome for o in logged.observations}
    assert got[("a", P(2014, 1))] == 0.0
    assert got[("a", P(2014, 2))] == pytest.approx(1.0, abs=1e-15)
    assert got[("b", P(2014, 1))] == pytest.approx(4.605170185988092, abs=1e-12)
    assert got[("b", P(2014, 2))] == pytest.approx(5.298317366548036, abs=1e-12)


def test_log_outcome_rejects_nonpositive():
    data = make_panel({("a", P(2014, 1)): -1.0, ("b", P(2014, 1)): 1.0})
    with pytest.raises(ValueError, match="positive"):
        log_outcome(data)


def test_balance_report_balanced():
    data = grid_panel(2, 2, lambda i, j: 1.0 + i + j)
    report = balance_report(data)
    assert report.is_balanced
    assert (report.n_units, report.n_periods, report.n_observations) == (2, 2, 4)


def test_balance_report_names_gap():
    data = make_panel({
        ("a", P(2014, 1)): 1.0, ("a", P(2014, 2)): 1.0, ("a", P(2014, 3)): 1.0,
        ("b", P(2014, 1)): 1.0, ("b", P(2014, 3)): 1.0,
    })
    report = balance_report(data)
    assert report.missing == (("b", P(2014, 2)),)
    assert not report.is_balanced


def from_rows(units, outcome, weight, covariates=None):
    """`from_columns` over 2014Q1, 2014Q2, ... one period per row."""
    periods = [P(2014, 1).shift(i) for i in range(len(units))]
    return PanelDataset.from_columns(units, periods, outcome, weight, covariates)


def test_from_columns_rejects_bad_values():
    with pytest.raises(ValueError, match="outcome must be finite, got nan"):
        from_rows(["a"], [math.nan], [1.0])
    with pytest.raises(ValueError, match="weight must be positive, got 0.0"):
        from_rows(["a"], [1.0], [0.0])
    for units in ([""], ["a", 1], [1, 2]):
        with pytest.raises(ValueError, match="unit id must be a non-empty string"):
            from_rows(units, [1.0] * len(units), [1.0] * len(units))
    with pytest.raises(ValueError, match="period labels must be Period values"):
        PanelDataset.from_columns(["a"], ["2014Q1"], [1.0], [1.0])


def test_dataset_rejects_covariate_arity_mismatch():
    # Row a has one value of covariate z, row b none.
    with pytest.raises(ValueError, match=r"^column 'z' has 1 values for 2 outcome rows$"):
        from_rows(["a", "b"], [1.0, 1.0], [1.0, 1.0], {"z": [1.0]})


@pytest.mark.parametrize("column", ["unit", "period", "weight", "z"])
@pytest.mark.parametrize("length", [2, 4])
def test_from_columns_names_a_column_of_the_wrong_length(column, length):
    columns = {"unit": ["a", "a", "b"], "period": [P(2014, 1), P(2014, 2), P(2014, 1)],
               "weight": [1.0, 2.0, 3.0], "z": [0.5, 0.5, 1.5]}
    columns[column] = (columns[column] * 2)[:length]
    with pytest.raises(ValueError, match=rf"^column '{column}' has {length} values "
                                         r"for 3 outcome rows$"):
        PanelDataset.from_columns(columns["unit"], columns["period"], [1.0, 2.0, 3.0],
                                  columns["weight"], {"z": columns["z"]})


def test_from_columns_sorts_rows_and_keeps_covariate_order():
    data = PanelDataset.from_columns(
        ["b", "a", "b"], [P(2014, 2), P(2014, 1), P(2014, 1)], [4.0, 1.0, 3.0],
        [1.0, 2.0, 1.0], {"z": [0.5, 1.5, 0.5], "x": [1.0, 2.0, 3.0]}, {"a": "c"},
    )
    assert data.observations == (
        Observation("a", P(2014, 1), 1.0, 2.0, (1.5, 2.0)),
        Observation("b", P(2014, 1), 3.0, 1.0, (0.5, 3.0)),
        Observation("b", P(2014, 2), 4.0, 1.0, (0.5, 1.0)),
    )
    assert data.covariate_names == ("z", "x")
    assert data.cluster == {"a": "c", "b": "b"}
    with pytest.raises(ValueError, match=r"duplicate observation for unit 'a' period 2014Q1"):
        PanelDataset.from_columns(["a", "a"], [P(2014, 1)] * 2, [1.0, 2.0], [1.0, 1.0])


def clustered(cluster):
    """Units a and b over two quarters, c over one, one covariate, with `cluster` labels."""
    return PanelDataset.from_columns(
        ["a", "a", "b", "b", "c"], [P(2014, 1), P(2014, 2)] * 2 + [P(2014, 1)],
        [1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 1.0, 2.0, 1.0], {"z": [0.5] * 5}, cluster,
    )


@pytest.mark.parametrize("other", [
    {"a": "g2", "b": "g2"},  # the same codes under another label
    {"a": "g1", "b": "b"},  # the same labels on other units
])
def test_panels_differing_in_one_cluster_label_compare_unequal(other):
    data = clustered({"a": "g1", "b": "g1"})
    assert data == clustered({"a": "g1", "b": "g1"})
    assert data != clustered(other)


def test_cluster_survives_every_transformation():
    data = clustered({"a": "g1", "c": "g1"})
    expected = {"a": "g1", "b": "b", "c": "g1"}
    assert data.cluster == expected
    assert data.with_outcome(np.arange(5.0)).cluster == expected
    assert data.drop_covariates().cluster == expected
    assert data._subset(np.array([0, 4])).cluster == {"a": "g1", "c": "g1"}
    assert data._subset(np.array([2, 3])).cluster == {"b": "b"}
    sink = io.StringIO()
    serialize_panel(data, sink)
    assert ingest_panel(io.StringIO(sink.getvalue())).cluster == expected


def test_region_constant_validated():
    data = make_panel(
        {("a", P(2014, 1)): 1.0, ("a", P(2014, 2)): 1.0},
        covariates={("a", P(2014, 1)): (1.0,), ("a", P(2014, 2)): (2.0,)},
    )
    with pytest.raises(ValueError, match="constant"):
        data.region_constant("z0")


def test_region_constant_in_unit_order_and_unknown_covariate_named():
    data = make_panel(
        {(u, P(2014, q)): 1.0 for u in "ba" for q in (1, 2)},
        covariates={(u, P(2014, q)): (v,) for u, v in (("a", 3.0), ("b", 4.0)) for q in (1, 2)},
    )
    np.testing.assert_array_equal(data.region_constant("z0"), [3.0, 4.0])
    with pytest.raises(ValueError, match=r"^unknown covariate 'nope'; have \['z0'\]$"):
        data.region_constant("nope")


def test_grid_lays_rows_out_units_by_periods():
    # Unbalanced, with a gap in calendar time: b has no 2014Q2 row, and no unit a 2014Q1 row.
    data = panel_of([
        Observation("b", P(2013, 4), 2.0, 1.0, (20.0, 21.0)),
        Observation("a", P(2014, 2), 3.0, 1.0, (30.0, 31.0)),
        Observation("a", P(2013, 4), 1.0, 1.0, (10.0, 11.0)),
    ], covariate_names=("x", "z"))
    a = data.arrays
    assert a.period_index.tolist() == [P(2013, 4).index, P(2014, 2).index]
    assert not a.period_index.flags.writeable
    np.testing.assert_array_equal(a.grid(a.outcome, fill=np.nan), [[1.0, 3.0], [2.0, np.nan]])
    assert a.grid(a.outcome).tolist() == [[1.0, 3.0], [2.0, 0.0]]
    covariates = a.grid(a.covariates, fill=-1.0)
    assert covariates.shape == (2, 2, 2)
    assert covariates.tolist() == [[[10.0, 11.0], [30.0, 31.0]], [[20.0, 21.0], [-1.0, -1.0]]]
    present = a.grid(np.ones(data.n_obs, dtype=bool), fill=False)
    assert present.dtype == bool and present.tolist() == [[True, True], [True, False]]


def test_cohorts_in_lists_distinct_in_window_starts():
    start = np.array([P(2015, 1).index, np.inf, P(2014, 3).index, P(2015, 1).index])
    assert cohorts_in(start) == (P(2014, 3), P(2015, 1))
    assert cohorts_in(np.array([np.inf])) == ()


def test_with_outcome_replaces_values_only():
    data = ingest_panel(io.StringIO(MINIMAL))
    new = data.with_outcome([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(new.arrays.outcome, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(new.arrays.weight, data.arrays.weight)


def test_with_outcome_stacks_outcomes_on_the_layout():
    data = ingest_panel(io.StringIO(MINIMAL))
    stacked = np.arange(12.0).reshape(4, 3)
    new = data.with_outcome(stacked)
    a, b = data.arrays, new.arrays
    np.testing.assert_array_equal(b.outcome, stacked)
    assert not b.outcome.flags.writeable and stacked.flags.writeable
    for name in ("unit_codes", "period_codes", "cluster_codes", "weight", "covariates"):
        np.testing.assert_array_equal(getattr(b, name), getattr(a, name))
    assert (b.units, b.periods, b.clusters) == (a.units, a.periods, a.clusters)
    np.testing.assert_array_equal(new.with_outcome(stacked[:, 1]).arrays.outcome, [1, 4, 7, 10])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"outcome must be finite, got {bad!r}"):
            data.with_outcome(np.where(stacked == 7.0, bad, stacked))
    for shape in ((3,), (5, 2), (4, 2, 1), ()):
        with pytest.raises(ValueError, match=r"^replacement outcome has shape .* 4 rows$"):
            data.with_outcome(np.ones(shape))


outcome_values = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_serialize_ingest_round_trip_random(data_strategy):
    n_units = data_strategy.draw(st.integers(min_value=1, max_value=5))
    n_periods = data_strategy.draw(st.integers(min_value=1, max_value=5))
    values = {}
    weights = {}
    for i in range(n_units):
        for j in range(n_periods):
            key = (f"u{i}", P(2013, 1).shift(j))
            values[key] = data_strategy.draw(outcome_values)
            weights[key] = data_strategy.draw(outcome_values)
    data = make_panel(values, weights)
    sink = io.StringIO()
    serialize_panel(data, sink)
    assert ingest_panel(io.StringIO(sink.getvalue())) == data


@given(st.lists(outcome_values, min_size=1, max_size=8))
def test_log_then_exp_round_trip(values):
    keys = [("a", P(2013, 1).shift(i)) for i in range(len(values))]
    data = make_panel(dict(zip(keys, values)))
    logged = log_outcome(data)
    back = logged.with_outcome([math.exp(o.outcome) for o in logged.observations])
    for before, after in zip(data.observations, back.observations):
        assert after.outcome == pytest.approx(before.outcome, rel=1e-12)


def _csv_lines(data):
    sink = io.StringIO()
    serialize_panel(data, sink)
    return sink.getvalue().splitlines(keepends=True)


def _array_bytes(data):
    a = data.arrays
    return (
        [getattr(a, name).tobytes() for name in
         ("unit_codes", "period_codes", "cluster_codes", "outcome", "weight", "covariates")],
        a.units, a.periods, a.clusters,
    )


@st.composite
def panels(draw):
    """Possibly unbalanced panels with covariates and non-default clusters."""
    n_units = draw(st.integers(min_value=1, max_value=5))
    n_periods = draw(st.integers(min_value=1, max_value=5))
    n_cov = draw(st.integers(min_value=0, max_value=2))
    finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    values, weights, covariates, clusters = {}, {}, {}, {}
    for i in range(n_units):
        clusters[f"u{i}"] = draw(st.sampled_from(["c0", "c1", f"u{i}"]))
        for j in range(n_periods):
            if draw(st.booleans()) or not values:
                key = (f"u{i}", P(2013, 1).shift(j))
                values[key] = draw(outcome_values)
                weights[key] = draw(outcome_values)
                covariates[key] = tuple(draw(finite) for _ in range(n_cov))
    return make_panel(values, weights, covariates if n_cov else None, clusters)


@settings(max_examples=50, deadline=None)
@given(panels(), st.randoms(use_true_random=False))
def test_shuffled_rows_ingest_to_the_same_columns(data, random):
    lines = _csv_lines(data)
    body = lines[1:]
    random.shuffle(body)
    again = ingest_panel(io.StringIO("".join(lines[:1] + body)))
    assert again == data
    assert _array_bytes(again) == _array_bytes(data)


@settings(max_examples=50, deadline=None)
@given(panels())
def test_serialize_ingest_serialize_is_byte_identical(data):
    first = "".join(_csv_lines(data))
    again = ingest_panel(io.StringIO(first))
    assert "".join(_csv_lines(again)) == first


@settings(max_examples=50, deadline=None)
@given(panels(), st.data())
def test_padded_ids_round_trip_through_serialize_and_ingest(data, draw):
    # from_columns strips ids and cluster labels as ingest does.
    a = data.arrays
    pad = {label: draw.draw(st.sampled_from(["", " ", "\t", "  "])) + label
           + draw.draw(st.sampled_from(["", " ", "\t "]))
           for label in {*a.units, *data.cluster.values()}}
    padded = PanelDataset.from_columns(
        [pad[a.units[c]] for c in a.unit_codes], [a.periods[c] for c in a.period_codes],
        a.outcome, a.weight,
        {name: a.covariates[:, k] for k, name in enumerate(data.covariate_names)},
        {pad[u]: pad[label] for u, label in data.cluster.items()},
    )
    assert padded == data
    sink = io.StringIO()
    serialize_panel(padded, sink)
    assert ingest_panel(io.StringIO(sink.getvalue())) == padded


def test_from_columns_strips_ids_and_cluster_labels():
    data = PanelDataset.from_columns([" a", "a", "b "], [P(2014, 1), P(2014, 2), P(2014, 1)],
                                     [1.0, 2.0, 3.0], [1.0] * 3, cluster={"b\t": " c "})
    assert data.units == ("a", "b")
    assert data.cluster == {"a": "a", "b": "c"}
    with pytest.raises(ValueError, match=r"duplicate observation for unit 'a' period 2014Q1"):
        PanelDataset.from_columns([" a", "a "], [P(2014, 1)] * 2, [1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=r"^unit 'a' has conflicting cluster labels"):
        PanelDataset.from_columns(["a"], [P(2014, 1)], [1.0], [1.0], cluster={"a": "c", " a": "d"})
    for units, cluster in ((["  "], None), (["a"], {" ": "c"}), (["a"], {"a": "\t"})):
        with pytest.raises(ValueError,
                           match=r"^(unit id|cluster label) must be a non-empty string$"):
            PanelDataset.from_columns(units, [P(2014, 1)], [1.0], [1.0], cluster=cluster)


def test_unnamed_column_rejected_without_a_schema():
    text = "unit,year,quarter,outcome,weight,\na,2014,1,1.0,1.0,3\nb,2014,1,2.0,1.0,4\n"
    with pytest.raises(ValueError, match=r"^panel column 6 has no name$") as exc:
        ingest_panel(io.StringIO(text))
    assert exc.type is ValueError
    schema = {f: f for f in ("unit", "year", "quarter", "outcome", "weight")}
    assert ingest_panel(io.StringIO(text), schema).covariate_names == ()


@settings(max_examples=50, deadline=None)
@given(panels(), st.randoms(use_true_random=False), st.data())
def test_outcome_swaps_equal_panels_built_from_columns(data, random, extra):
    # The swaps re-wrap the sorted layout; from_columns sorts shuffled rows.
    a = data.arrays
    order = list(range(data.n_obs))
    random.shuffle(order)

    def built(outcome, covariates=True):
        return PanelDataset.from_columns(
            [a.units[a.unit_codes[i]] for i in order],
            [a.periods[a.period_codes[i]] for i in order],
            outcome[order], a.weight[order],
            {name: a.covariates[order, k] for k, name in enumerate(data.covariate_names)}
            if covariates else None,
            data.cluster,
        )

    other = np.array(extra.draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=data.n_obs, max_size=data.n_obs,
    )))
    assert log_outcome(data) == built(np.log(a.outcome))
    assert data.drop_covariates() == built(a.outcome, covariates=False)
    assert data.with_outcome(other) == built(other)


def test_first_bad_row_in_file_order_is_named():
    rows = [f"u{i},2014,1,{10.0 + i},1.0" for i in range(8)]
    rows[5] = "u5,2014,1,15.0,-2.0"  # bad weight, file row 7
    rows[2] = "u2,2014,1,0.0,1.0"    # non-positive outcome, file row 4
    text = "unit,year,quarter,outcome,weight\n" + "\n".join(rows) + "\n"
    with pytest.raises(IngestError, match=r"^row 4: column 'outcome' must be positive"):
        ingest_panel(io.StringIO(text))


def test_duplicate_names_both_rows():
    text = MINIMAL + "\nb,2014,2,22.0,2.0\n"  # blank line 6 still counts
    with pytest.raises(
        IngestError,
        match=r"^row 7: duplicate observation for unit 'b' period 2014Q2 \(first seen at row 5\)",
    ):
        ingest_panel(io.StringIO(text))


def test_cell_fault_comes_before_a_rule_across_rows():
    # Row 4 repeats row 2's (unit, period) and has a blank cluster label.
    text = ("unit,year,quarter,outcome,weight,cluster\n"
            "a,2014,1,1.0,1.0,k\nb,2014,1,1.0,1.0,k\na,2014,1,2.0,1.0, \n")
    with pytest.raises(IngestError, match=r"^row 4: empty cluster label$"):
        ingest_panel(io.StringIO(text))


def test_equivalent_period_text_is_one_period():
    text = "unit,year,quarter,outcome,weight\na,2014,1,1.0,1.0\na, 2014,1,2.0,1.0\n"
    with pytest.raises(IngestError, match="row 3: duplicate.*2014Q1.*row 2"):
        ingest_panel(io.StringIO(text))


def test_columns_are_read_only_and_panel_immutable():
    data = ingest_panel(io.StringIO(MINIMAL))
    with pytest.raises(ValueError, match="read-only"):
        data.arrays.outcome[0] = 0.0
    with pytest.raises(AttributeError):
        data.units = ("x",)
    logged = log_outcome(data)
    np.testing.assert_array_equal(data.arrays.outcome, [10.0, 11.0, 20.0, 21.0])
    assert logged != data


def test_observation_view_matches_columns():
    data = make_panel(
        {("b", P(2014, 2)): 4.0, ("a", P(2014, 1)): 1.0, ("b", P(2014, 1)): 3.0},
        covariates={("b", P(2014, 2)): (0.5,), ("a", P(2014, 1)): (1.5,),
                    ("b", P(2014, 1)): (0.5,)},
    )
    assert data.observations == (
        Observation("a", P(2014, 1), 1.0, 1.0, (1.5,)),
        Observation("b", P(2014, 1), 3.0, 1.0, (0.5,)),
        Observation("b", P(2014, 2), 4.0, 1.0, (0.5,)),
    )
    assert panel_of(data.observations, ("z0",)) == data


def test_cohort_start_marks_units_untreated_in_the_window():
    data = make_panel({(u, P(2014, q)): 1.0 for u in "abcd" for q in (1, 2, 3)})
    start = cohort_start(data, {"a": P(2014, 2), "b": None, "c": P(2014, 4),
                                "d": P(2013, 1), "e": P(2014, 1)})
    assert start.tolist() == [P(2014, 2).index, math.inf, math.inf, P(2013, 1).index]


def test_unit_lookups_name_missing_units():
    data = make_panel({(u, P(2014, 1)): 1.0 for u in "abcdefg"})
    assert unit_values(data, {u: u.upper() for u in "gfedcba"}, "label") == list("ABCDEFG")
    with pytest.raises(ValueError, match=r"cohort missing for unit\(s\) \['b', 'd'\]$"):
        cohort_start(data, {u: None for u in "acefg"})
    with pytest.raises(ValueError, match=r"label missing for unit\(s\) "
                                         r"\['a', 'b', 'c', 'd', 'e'\] \.\.\.$"):
        unit_values(data, {"g": 1}, "label")
