"""Named errors of the public API: each check raises its own type and message.

Every case goes through a public name with input a caller could pass, and
asserts the exact exception type and the whole message.
"""

import io
import re

import numpy as np
import pytest

from conftest import P, panel_of
from paneldid import (
    DesignMatrix,
    IngestError,
    Observation,
    PanelDataset,
    Period,
    RegionTreatment,
    SwitcherGroup,
    TreatmentDesign,
    WageMicrodata,
    cluster_vcov,
    gap_correlations,
    ingest_panel,
    weighted_median,
    wls_fit,
)
from paneldid.bite import DESIGN_COLUMNS, WageRecord
from paneldid.designs import CovariateTerm
from paneldid.staggered import sa_event_study


def raises(kind, message, call, *args, **kwargs):
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as info:
        call(*args, **kwargs)
    assert info.type is kind


def design(**changes):
    """A four-row design with one column, two units and two periods, with `changes`."""
    fields = dict(
        columns=("a",), x=np.arange(4.0).reshape(4, 1), y=np.ones(4), weight=np.ones(4),
        unit_codes=np.array([0, 0, 1, 1]), period_codes=np.array([0, 1, 0, 1]),
        cluster_codes=np.array([0, 0, 1, 1]), units=("u0", "u1"),
        periods=(P(2013, 1), P(2013, 2)), clusters=("u0", "u1"),
    )
    return DesignMatrix(**{**fields, **changes})


def test_period_year_must_be_non_negative():
    raises(ValueError, "year must be non-negative, got -1", Period, -1, 1)


def test_covariate_term_must_name_a_characteristic():
    raises(ValueError, "empty covariate term in '*'", CovariateTerm.parse, "*")


@pytest.mark.parametrize("changes, message", [
    ({"x": np.ones((4, 2))}, "x has shape (4, 2), expected (4, 1)"),
    ({"columns": ("a", "a"), "x": np.ones((4, 2))},
     "design matrix column names must be unique"),
    ({"weight": np.ones(3)}, "weight length 3 does not match 4 rows"),
    ({"weight": np.array([1.0, 1.0, 0.0, 1.0])}, "all weights must be positive"),
], ids=["misshapen x", "repeated column", "short weight", "zero weight"])
def test_design_matrix_checks(changes, message):
    raises(ValueError, message, design, **changes)


def test_wls_fit_needs_a_column():
    empty = design(columns=(), x=np.empty((4, 0)))
    raises(ValueError, "design matrix has no regressor columns", wls_fit, empty)


def test_cluster_vcov_rejects_a_singular_design():
    x = np.column_stack([np.arange(4.0), np.zeros(4)])
    raises(ValueError,
           "X'WX is singular; drop collinear columns before computing the covariance",
           cluster_vcov, x, np.ones(4), np.ones(4), np.array([0, 0, 1, 1]))


def test_panel_needs_a_row():
    raises(ValueError, "a panel needs at least one observation",
           PanelDataset.from_columns, [], [], [], [])


def test_ingest_schema_needs_weight():
    schema = {f: f for f in ("unit", "year", "quarter", "outcome")}
    source = io.StringIO("unit,year,quarter,outcome,weight\na,2013,1,1.0,1.0\n")
    raises(IngestError, "schema is missing required field 'weight'",
           ingest_panel, source, schema)


def test_microdata_minimum_wage_must_be_positive():
    raises(ValueError, "minimum wage must be positive, got 0",
           WageMicrodata, [WageRecord("a", 8.0)], 0, 2014)


@pytest.mark.parametrize("values, weights, message", [
    ({"a": 1.0}, {"b": 1.0}, "region sets differ between gap table and weights: "
                             "only in gap table: ['a']; only in weights: ['b']"),
    ({}, {}, "weighted median of an empty collection is undefined"),
    ({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 0.0}, "weight for 'b' must be positive, got 0.0"),
], ids=["mismatched keys", "no keys", "zero weight"])
def test_weighted_median_checks(values, weights, message):
    raises(ValueError, message, weighted_median, values, weights)


def test_gap_correlations_need_two_regions():
    raises(ValueError, "correlations need at least two regions",
           gap_correlations, {"a": 1.0}, {"a": 2.0})


def test_treatment_design_late_cohort_must_follow_early():
    raises(ValueError, "late cohort 2015Q1 must follow early cohort 2015Q1",
           TreatmentDesign, {}, early_cohort=P(2015, 1), late_cohort=P(2015, 1))


def test_treatment_design_group_must_match_flags():
    early = P(2014, 3)
    region = RegionTreatment(0.2, 0.2, True, True, SwitcherGroup.HIGH_LOW, early, 1.0)
    raises(ValueError, "region 'r1': group does not match its flags",
           TreatmentDesign, {"r1": region}, early_cohort=early)


def test_treatment_design_file_needs_a_region():
    raises(ValueError, "treatment design file has no regions",
           TreatmentDesign.read_csv, io.StringIO(",".join(DESIGN_COLUMNS) + "\n"))


@pytest.mark.parametrize("weight", ["-1", "0", "-0.0"])
def test_design_file_population_weight_must_be_positive(weight):
    text = (",".join(DESIGN_COLUMNS) + "\n" + "a,0.9,0.8,1,1,high/high,2014Q3,1.0\n"
            + f"b,0.1,0.1,0,0,low/low,,{weight}\n")
    raises(IngestError, f"row 3: column 'population_weight' must be positive, "
           f"got {float(weight)!r}", TreatmentDesign.read_csv, io.StringIO(text))


def test_event_study_needs_a_treated_cohort():
    data = panel_of([Observation(u, P(2013, q), float(q), 1.0)
                     for u in ("a", "b") for q in (1, 2, 3)])
    raises(ValueError, "no treated cohorts in the panel window",
           sa_event_study, data, {"a": None, "b": None})
