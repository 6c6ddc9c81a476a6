"""Every written file: one cell rule, one field list per format, pinned bytes.

The digests below were taken from the writers that formatted each cell by
hand; the field-list writers must reproduce them exactly.
"""

import dataclasses
import enum
import hashlib
import json

import numpy as np
import pytest

from paneldid import cli, simulate
from paneldid.bite import DESIGN_COLUMNS, RegionTreatment, SwitcherGroup
from paneldid.designs import _SPEC_FIELDS, CovariateTerm, DesignKind, DidSpec, dump_spec
from paneldid.engine import Estimate
from paneldid.periods import Period
from paneldid.simulate import _CONFIG_FIELDS, DgpConfig
from paneldid.textio import field_names, field_values, format_cell


def sha(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


class Colour(enum.Enum):
    RED = "red"
    CODE = 7


@pytest.mark.parametrize("value, cell", [
    (None, ""), (True, "1"), (False, "0"), (np.bool_(True), "1"), (np.bool_(False), "0"),
    (0.1, "0.1"), (-0.0, "-0.0"), (1e-300, "1e-300"), (float("nan"), "nan"),
    (float("-inf"), "-inf"), (np.float64(0.1), "0.1"), (np.float32(0.5), "0.5"),
    (3, "3"), (np.int64(-4), "-4"), (Colour.RED, "red"), (Colour.CODE, "7"),
    (Period(2014, 3), "2014Q3"), ("a b", "a b"), ("", ""),
])
def test_format_cell(value, cell):
    assert format_cell(value) == cell


def test_field_values_keep_nested_records():
    rt = RegionTreatment(0.25, 0.5, True, False, SwitcherGroup.HIGH_LOW, Period(2014, 3), 2.0)
    assert field_values(rt) == (0.25, 0.5, True, False, SwitcherGroup.HIGH_LOW,
                                Period(2014, 3), 2.0)


# A key that is read but not written, or written but not read, cannot be
# added: each table lists exactly its dataclass's fields, in field order.
@pytest.mark.parametrize("table, record", [(_CONFIG_FIELDS, DgpConfig), (_SPEC_FIELDS, DidSpec)])
def test_key_value_tables_list_their_fields(table, record):
    assert tuple(table) == field_names(record)


def test_config_txt_pinned(tmp_path):
    run("simulate", "--preset", "heterogeneous", "--seed", "1", "--out", tmp_path)
    assert sha((tmp_path / "config.txt").read_bytes()) == (
        "4d9fe64b03b4914a41a525dda6f4b4c36fae8861a89a10e2de7ddbec72796a47")


@pytest.mark.parametrize("spec, digest", [
    (DidSpec(kind=DesignKind.EVENT_STUDY),
     "cfde78c627a2c2f9218a31e4e4b1c35ed09e7714ea9fe83a3b2cc65fceb350e8"),
    (DidSpec(kind=DesignKind.INCREASES, cutoff=Period(2015, 1), baseline=Period(2014, 4),
             increase_years=(2016, 2019), placebo=True,
             covariates=(CovariateTerm("east"), CovariateTerm("pop", by_flag="east"),
                         CovariateTerm("gdp", by_time=False))),
     "07d2142c935b3bb02ceccbced44498139f8a843afc79c1c2b351495cc8e46d73"),
])
def test_dump_spec_pinned(spec, digest):
    assert sha(dump_spec(spec)) == digest


# Inputs whose every decomposition and fit cell is exact: integer outcomes,
# read without logs, on a balanced panel of eight quarters.
COHORTS = {"e1": "2014Q3", "e2": "2014Q3", "l1": "2015Q2", "l2": "2015Q2",
           "n1": "", "n2": ""}


@pytest.fixture
def integer_panel(tmp_path):
    rows, design = [], []
    for u, (unit, cohort) in enumerate(COHORTS.items()):
        start = Period.parse(cohort).index if cohort else None
        for t, period in enumerate(Period(2014, 1).shift(j) for j in range(8)):
            effect = 0 if start is None or period.index < start else 2 + period.index - start
            rows.append(f"{unit},{period.year},{period.quarter},{10 + 3 * u + t + effect},1\n")
        early, late = cohort == "2014Q3", bool(cohort)
        group = "high/high" if early else "low/high" if late else "low/low"
        design.append(f"{unit},{0.25 + early},{0.25 + late},{int(early)},{int(late)},"
                      f"{group},{cohort},1.0\n")
    (tmp_path / "panel.csv").write_text("unit,year,quarter,outcome,weight\n" + "".join(rows))
    (tmp_path / "design.csv").write_text(",".join(DESIGN_COLUMNS) + "\n" + "".join(design))
    (tmp_path / "spec.txt").write_text("kind = staggered_twfe\n")
    return tmp_path


def test_bacon_csv_pinned(integer_panel):
    out = integer_panel / "out"
    run("decompose", "--panel", integer_panel / "panel.csv", "--design",
        integer_panel / "design.csv", "--no-log", "--out", out)
    assert sha((out / "bacon.csv").read_bytes()) == (
        "cbc058765dfbc8e34b502b3718e9a435409be39c4efa1b97ea42f0e87abaee88")


def test_coefficients_csv_pinned(integer_panel, monkeypatch):
    # A fit's last bits depend on the BLAS and scipy builds. Fixed
    # coefficients with zero variance make every cell exact (zero se, an
    # infinite or nan t, a nan p), so the digest pins the writer alone.
    def exact(matrix):
        fit = cli_wls_fit(matrix)
        values = {c: (j - 1) * 0.125 for j, c in enumerate(fit.columns)}
        return dataclasses.replace(fit, coefficients=values, vcov=np.zeros_like(fit.vcov))

    cli_wls_fit = cli.wls_fit
    monkeypatch.setattr(cli, "wls_fit", exact)
    panel = integer_panel / "panel.csv"
    panel.write_text("".join(f"{line},{'east' if i == 0 else int(line[0] in 'el')}\n"
                             for i, line in enumerate(panel.read_text().splitlines())))
    (integer_panel / "spec.txt").write_text(
        "kind = event_study\ncutoff = 2014Q2\nbaseline = 2014Q2\nincrease_years = 2015\n"
        "placebo = true\ncovariates = east*time\n")
    out = integer_panel / "out"
    run("estimate", "--panel", panel, "--design", integer_panel / "design.csv", "--spec",
        integer_panel / "spec.txt", "--no-log", "--out", out)
    assert sha((out / "coefficients.csv").read_bytes()) == (
        "d36f59622fd896ab22ea5d4268242ceccc98b971a5ea4ac21fa46af029babfc0")
    assert json.loads((out / "manifest.json").read_text())["parameters"] == {
        "kind": "event_study", "cutoff": "2014Q2", "baseline": "2014Q2",
        "increase_years": [2015], "placebo": True, "covariates": ["east*time"],
        "log_outcome": False, "bacon": False,
    }


def exact_adapter(fails):
    """A race adapter whose estimate is each replication's first outcome, se 0.

    The outcome comes from the seeded generator bit for bit, so every cell
    is exact. `fails(y0)` says which replications raise `ValueError`.
    """
    def run(data, design, draws, seed):
        y0 = data.arrays.outcome[0]
        if np.any(fails(np.atleast_1d(y0))):
            raise ValueError("failed")
        return Estimate(y0, np.zeros_like(y0))
    return run


@pytest.mark.parametrize("fmt, digest", [
    ("csv", "3aebe07aa9df0c77b7e4020e85b1cd7770809108b2315290ba8752cf5b165617"),
    ("json", "aec3fd7d1556e00348ab64a6dc821f7ad321037eacf984f8a6256e46a1f111ef"),
])
def test_race_outputs_pinned(tmp_path, monkeypatch, fmt, digest):
    monkeypatch.setattr(simulate, "ESTIMATORS", {
        "twfe": (1, exact_adapter(lambda y0: np.zeros(y0.shape, bool))),
        "sa": (4, exact_adapter(lambda y0: y0 < 0)),
        "imputation": (5, exact_adapter(lambda y0: np.ones(y0.shape, bool))),
    })
    run("race", "--preset", "heterogeneous", "--seed", "1", "--estimators",
        "twfe,sa,imputation", "--replications", "3", "--draws", "0", "--format", fmt,
        "--out", tmp_path)
    assert sha((tmp_path / f"race.{fmt}").read_bytes()) == digest
