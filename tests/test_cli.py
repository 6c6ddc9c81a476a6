import hashlib
import json
import math
import re

import numpy as np
import pytest

from conftest import P
from paneldid.bite import (
    RegionTreatment,
    SwitcherGroup,
    TreatmentDesign,
    WageMicrodata,
    build_treatment_design,
    wage_gap,
)
from paneldid.cli import main
from paneldid.designs import DesignKind, DidSpec, build_design, load_spec
from paneldid.engine import wls_fit
from paneldid.panel import (
    Observation,
    PanelDataset,
    ingest_panel,
    log_outcome,
    serialize_panel,
)
from paneldid.periods import period_range
from paneldid.simulate import generate, null_config


def run(argv, capsys=None):
    code = main([str(a) for a in argv])
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_payload(err):
    return json.loads(err.strip().splitlines()[-1])


# one worker per region makes the gap exactly max(mw - wage, 0)
WAVE1 = {"a": 7.60, "b": 8.40, "c": 8.00, "d": 8.30}   # mw 8.50
WAVE2 = {"a": 8.55, "b": 8.75, "c": 9.15, "d": 9.25}   # mw 9.35


@pytest.fixture
def bite_inputs(tmp_path):
    m1 = tmp_path / "wave1.csv"
    m2 = tmp_path / "wave2.csv"
    for path, wages in ((m1, WAVE1), (m2, WAVE2)):
        path.write_text(
            "region,hourly_wage\n"
            + "".join(f"{r},{w}\n" for r, w in sorted(wages.items()))
        )
    weights = tmp_path / "weights.csv"
    weights.write_text("region,weight\na,3\nb,1\nc,1\nd,1\n")
    return m1, m2, weights


class TestBite:
    ARGS = ["--mw", "8.50", "--mw", "9.35",
            "--survey-year", "2014", "--survey-year", "2018"]

    def test_end_to_end_matches_module_pipeline(self, tmp_path, capsys, bite_inputs):
        m1, m2, weights = bite_inputs
        out = tmp_path / "out"
        code, stdout, _ = run(
            ["bite", "--out", out, "--micro", m1, "--micro", m2,
             *self.ARGS, "--weights", weights],
            capsys,
        )
        assert code == 0
        for name in ("gap_first.csv", "gap_second.csv", "design.csv", "manifest.json"):
            assert (out / name).exists()

        first = wage_gap(WageMicrodata.read_csv(m1, minimum_wage=8.50, survey_year=2014))
        second = wage_gap(WageMicrodata.read_csv(m2, minimum_wage=9.35, survey_year=2018))
        expected = build_treatment_design(
            first, second, {"a": 3.0, "b": 1.0, "c": 1.0, "d": 1.0}
        )
        produced = TreatmentDesign.read_csv(out / "design.csv")
        assert produced == expected
        assert "pearson" in stdout and "spearman" in stdout
        assert "high/high" in stdout

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "bite"
        assert len(manifest["inputs"]) == 3
        assert all(len(d) == 64 for d in manifest["inputs"].values())
        assert "design.csv" in manifest["outputs"]

    def test_seeded_outputs_pinned(self, tmp_path, capsys):
        # The bytes the per-record reader and gap loop wrote; the columnar
        # reader and bincount gaps must reproduce them exactly. Each wave spans
        # several read batches, pads some ids with spaces and has a blank line.
        rng = np.random.default_rng(20)
        regions = [f"r{i:02d}" for i in range(15)]
        waves = []
        for wave, growth in enumerate((0.0, 0.1)):
            region_of = rng.integers(0, len(regions), 9000).tolist()
            wage = rng.lognormal(np.log(10.0) + growth, 0.4, 9000).tolist()
            lines = [f"{' ' * (i % 7 == 0)}{regions[r]},{w!r}\n"
                     for i, (r, w) in enumerate(zip(region_of, wage))]
            lines.insert(5000, "\n")
            waves.append(tmp_path / f"wave{wave + 1}.csv")
            waves[-1].write_text("region,hourly_wage\n" + "".join(lines))
        weights = tmp_path / "weights.csv"
        weights.write_text("region,weight\n" + "".join(
            f"{r},{w!r}\n" for r, w in zip(regions, rng.uniform(0.5, 3.0, 15).tolist())
        ))
        out = tmp_path / "out"
        code, _, _ = run(["bite", "--out", out, "--micro", waves[0], "--micro", waves[1],
                          *self.ARGS, "--weights", weights], capsys)
        assert code == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("gap_first.csv", "gap_second.csv", "design.csv")}
        assert digests == {
            "gap_first.csv": "6f7d9160899dd7abdf11c4fcf8848e2f822edea2b3909da9b8bb868633644c53",
            "gap_second.csv": "a400a0dfaa8a8fd2a633e34e7ba939e95f624a19969fc966bc07d3b39a2384f4",
            "design.csv": "a7b0ceefc126dbe25fde95b2ed5ba9b27121f60a23cd4f46ab3f450ff55a6718",
        }

    def test_wave_arguments_must_pair(self, tmp_path, capsys, bite_inputs):
        m1, _, weights = bite_inputs
        code, _, err = run(
            ["bite", "--out", tmp_path / "o", "--micro", m1,
             "--mw", "8.50", "--survey-year", "2014", "--weights", weights],
            capsys,
        )
        assert code == 1
        assert "two" in stderr_payload(err)["message"]

    def test_missing_weight_region_fails(self, tmp_path, capsys, bite_inputs):
        m1, m2, _ = bite_inputs
        weights = tmp_path / "short.csv"
        weights.write_text("region,weight\na,3\nc,1\nd,1\n")
        code, _, err = run(
            ["bite", "--out", tmp_path / "o", "--micro", m1, "--micro", m2,
             *self.ARGS, "--weights", weights],
            capsys,
        )
        assert code == 1
        assert "b" in stderr_payload(err)["message"]


    @pytest.mark.parametrize("text, message", [
        ("region,weight\na,3\nb,x\nc,1\nd,1\n",
         r"row 3: column 'weight': could not parse 'x'"),
        ("region,weight\na,3\nb,1\nc,1\nd,1\nb,2\n", r"duplicate region 'b' at row 6"),
        ("region,weight\na,3\n,1\nc,1\nd,1\n", r"bad\.csv: row 3: empty region id"),
        ("region,weight\na,3\n\nb\nc,1\nd,1\n", r"bad\.csv: row 4 has fewer than 2 fields"),
        ("region,weight\na,3\n , \nb,x\n", r"row 4: column 'weight': could not parse 'x'"),
    ])
    def test_bad_weights_row_named(self, tmp_path, capsys, bite_inputs, text, message):
        m1, m2, _ = bite_inputs
        weights = tmp_path / "bad.csv"
        weights.write_text(text)
        code, _, err = run(
            ["bite", "--out", tmp_path / "o", "--micro", m1, "--micro", m2,
             *self.ARGS, "--weights", weights],
            capsys,
        )
        assert code == 1
        assert re.search(message, stderr_payload(err)["message"])

    def test_trailing_blank_line_accepted(self, tmp_path, capsys, bite_inputs):
        m1, m2, weights = bite_inputs
        padded = tmp_path / "padded.csv"
        padded.write_text(weights.read_text() + "\n")
        designs = []
        for name, path in (("plain", weights), ("padded", padded)):
            code, _, _ = run(
                ["bite", "--out", tmp_path / name, "--micro", m1, "--micro", m2,
                 *self.ARGS, "--weights", path],
                capsys,
            )
            assert code == 0
            designs.append((tmp_path / name / "design.csv").read_bytes())
        assert designs[0] == designs[1]


def design_rows(units_high):
    rows = {}
    for u, high in units_high.items():
        rows[u] = RegionTreatment(
            gap_first=0.8 if high else 0.2,
            gap_second=0.8 if high else 0.2,
            high_first=high,
            high_second=high,
            group=SwitcherGroup.from_flags(high, high),
            cohort=P(2014, 3) if high else None,
            population_weight=1.0,
        )
    return TreatmentDesign(rows)


@pytest.fixture
def estimate_inputs(tmp_path):
    """Positive-outcome panel with two exposed and two control regions."""
    periods = tuple(period_range(P(2013, 3), P(2014, 4)))
    units_high = {"u1": True, "u2": True, "u3": False, "u4": False}
    obs = []
    for i, (u, high) in enumerate(units_high.items()):
        for j, p in enumerate(periods):
            bump = 0.15 if (high and p > P(2014, 2)) else 0.0
            y = math.exp(0.1 * (i + 1) + 0.02 * j + bump)
            obs.append(Observation(u, p, y, 1.0))
    panel = tmp_path / "panel.csv"
    serialize_panel(PanelDataset(tuple(obs)), panel)
    design = tmp_path / "design.csv"
    design_rows(units_high).write_csv(design)
    spec = tmp_path / "model.txt"
    spec.write_text("kind = baseline\n")
    return panel, design, spec


class TestEstimate:
    def test_fit_json_matches_module_fit(self, tmp_path, capsys, estimate_inputs):
        panel, design, spec = estimate_inputs
        out = tmp_path / "fit_out"
        code, stdout, _ = run(
            ["estimate", "--out", out, "--panel", panel,
             "--design", design, "--spec", spec],
            capsys,
        )
        assert code == 0
        data = log_outcome(ingest_panel(panel))
        fit = wls_fit(build_design(
            data, TreatmentDesign.read_csv(design), load_spec(spec)
        ))
        assert json.loads((out / "fit.json").read_text()) == json.loads(
            json.dumps(fit.to_json_dict())
        )
        lines = (out / "coefficients.csv").read_text().splitlines()
        assert lines[0].startswith("term,estimate,se,")
        term, estimate, *_ = lines[1].split(",")
        assert term == "treated_post"
        assert float(estimate) == fit.coefficients["treated_post"]
        assert "treated_post" in stdout and "n_obs 24" in stdout

    def test_constant_outcome_writes_fit(self, tmp_path, capsys, estimate_inputs):
        # every standard error is 0: t and p are written as nan, not a crash
        _, design, spec = estimate_inputs
        panel = tmp_path / "constant.csv"
        obs = ingest_panel(estimate_inputs[0]).observations
        serialize_panel(PanelDataset(tuple(
            Observation(o.unit, o.period, 5.0, o.weight) for o in obs
        )), panel)
        out = tmp_path / "constant_out"
        code, _, _ = run(["estimate", "--out", out, "--panel", panel, "--design", design,
                          "--spec", spec, "--no-log"], capsys)
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["se"] == {"treated_post": 0.0}
        assert math.isnan(fit["t"]["treated_post"]) and math.isnan(fit["p"]["treated_post"])

    def test_design_without_cohort_column_named(self, tmp_path, capsys,
                                                estimate_inputs):
        panel, design, spec = estimate_inputs
        lines = design.read_text().splitlines()
        drop = lines[0].split(",").index("cohort")
        broken = tmp_path / "no_cohort.csv"
        broken.write_text("".join(
            ",".join(v for i, v in enumerate(line.split(",")) if i != drop) + "\n"
            for line in lines
        ))
        code, _, err = run(
            ["estimate", "--out", tmp_path / "nc", "--panel", panel,
             "--design", broken, "--spec", spec],
            capsys,
        )
        assert code == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ValueError"
        assert "['cohort']" in payload["message"]

    def test_growth_flag_pairing(self, tmp_path, capsys, estimate_inputs):
        panel, design, spec = estimate_inputs
        growth_spec = tmp_path / "growth.txt"
        growth_spec.write_text("kind = growth_interaction\n")
        code, _, err = run(
            ["estimate", "--out", tmp_path / "g1", "--panel", panel,
             "--design", design, "--spec", growth_spec],
            capsys,
        )
        assert code == 1
        assert "--growth" in stderr_payload(err)["message"]
        growth = tmp_path / "growth.csv"
        growth.write_text("region,growth\nu1,1\nu2,2\nu3,3\nu4,4\n")
        code, _, err = run(
            ["estimate", "--out", tmp_path / "g2", "--panel", panel,
             "--design", design, "--spec", spec, "--growth", growth],
            capsys,
        )
        assert code == 1
        assert "growth_interaction" in stderr_payload(err)["message"]

    @pytest.mark.parametrize("text, message", [
        ("region,growth\nu1,1\nu2,2\nu3,3\nu4,4\nu2,5\n", r"duplicate region 'u2' at row 6"),
        ("region,growth\nu1,1\nu2,fast\nu3,3\nu4,4\n",
         r"row 3: column 'growth': could not parse 'fast'"),
    ])
    def test_bad_growth_row_named(self, tmp_path, capsys, estimate_inputs, text, message):
        panel, design, _ = estimate_inputs
        spec = tmp_path / "growth.txt"
        spec.write_text("kind = growth_interaction\n")
        growth = tmp_path / "growth.csv"
        growth.write_text(text)
        code, _, err = run(
            ["estimate", "--out", tmp_path / "o", "--panel", panel,
             "--design", design, "--spec", spec, "--growth", growth],
            capsys,
        )
        assert code == 1
        assert re.search(message, stderr_payload(err)["message"])

    def test_bacon_requires_staggered_kind(self, tmp_path, capsys, estimate_inputs):
        panel, design, spec = estimate_inputs
        code, _, err = run(
            ["estimate", "--out", tmp_path / "b", "--panel", panel,
             "--design", design, "--spec", spec, "--bacon"],
            capsys,
        )
        assert code == 1
        assert "staggered" in stderr_payload(err)["message"]


@pytest.fixture
def staggered_inputs(tmp_path):
    """Regression-scale panel around the early adoption quarter."""
    periods = tuple(period_range(P(2013, 4), P(2015, 2)))
    units_high = {"e1": True, "e2": True, "n1": False, "n2": False}
    rng = np.random.default_rng(3)
    obs = []
    for u, high in units_high.items():
        alpha = float(rng.normal())
        for j, p in enumerate(periods):
            y = alpha + 0.01 * j - (0.08 if (high and p >= P(2014, 3)) else 0.0)
            y += 0.01 * float(rng.normal())
            obs.append(Observation(u, p, y, 1.0))
    panel = tmp_path / "panel.csv"
    serialize_panel(PanelDataset(tuple(obs)), panel)
    design = tmp_path / "design.csv"
    design_rows(units_high).write_csv(design)
    spec = tmp_path / "model.txt"
    spec.write_text("kind = staggered_twfe\n")
    return panel, design, spec


class TestStaggeredAndDecompose:
    def test_bacon_reconstruction_equals_coefficient(self, tmp_path, capsys,
                                                     staggered_inputs):
        panel, design, spec = staggered_inputs
        out = tmp_path / "stag"
        code, _, _ = run(
            ["estimate", "--out", out, "--panel", panel, "--design", design,
             "--spec", spec, "--no-log", "--bacon"],
            capsys,
        )
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        coefficient = fit["coefficients"]["post_adoption"]
        lines = (out / "bacon.csv").read_text().splitlines()[1:]
        recon = sum(float(r.split(",")[3]) * float(r.split(",")[4]) for r in lines)
        assert recon == pytest.approx(coefficient, abs=1e-8)

    def test_decompose_json_payload(self, tmp_path, capsys, staggered_inputs):
        panel, design, _ = staggered_inputs
        out = tmp_path / "dec"
        code, stdout, _ = run(
            ["decompose", "--out", out, "--panel", panel, "--design", design,
             "--no-log", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads((out / "bacon.json").read_text())
        assert set(payload) == {"components", "reconstruction"}
        assert payload["components"][0]["comparison"] == "treated_vs_never"
        total = sum(c["weight"] for c in payload["components"])
        assert total == pytest.approx(1.0, abs=1e-10)
        assert "reconstructed coefficient" in stdout


SMALL_CONFIG = """\
n_early = 4
n_late = 3
n_never = 4
start = 2013Q1
n_periods = 8
early_cohort = 2013Q3
late_cohort = 2014Q2
noise_sd = 0.02
"""


class TestSimulate:
    def test_outputs_and_reingest(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code, stdout, _ = run(
            ["simulate", "--out", out, "--preset", "null", "--seed", "7"], capsys
        )
        assert code == 0
        for name in ("panel.csv", "design.csv", "truth.json", "config.txt",
                     "manifest.json"):
            assert (out / name).exists()
        reread = ingest_panel(out / "panel.csv", require_positive_outcome=False)
        data, design, truth = generate(null_config(7))
        assert reread == data
        assert TreatmentDesign.read_csv(out / "design.csv") == design
        assert json.loads((out / "truth.json").read_text()) == json.loads(
            json.dumps(truth.to_json_dict())
        )
        assert "--no-log" in stdout

    def test_byte_identical_reruns(self, tmp_path, capsys):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            code, _, _ = run(
                ["simulate", "--out", out, "--preset", "null", "--seed", "11"], capsys
            )
            assert code == 0
            outs.append(out)
        for name in ("panel.csv", "design.csv", "truth.json", "config.txt",
                     "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seed_required(self, tmp_path, capsys):
        code, _, err = run(
            ["simulate", "--out", tmp_path / "x", "--preset", "null"], capsys
        )
        assert code == 1
        assert "--seed" in stderr_payload(err)["message"]

    def test_config_and_preset_exclusive(self, tmp_path, capsys):
        config = tmp_path / "dgp.txt"
        config.write_text(SMALL_CONFIG)
        code, _, err = run(
            ["simulate", "--out", tmp_path / "x", "--config", config,
             "--preset", "null", "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert "exactly one" in stderr_payload(err)["message"]


class TestRace:
    def test_csv_output_and_thread_invariance(self, tmp_path, capsys):
        config = tmp_path / "dgp.txt"
        config.write_text(SMALL_CONFIG)
        outs = []
        for name, threads in (("r1", "1"), ("r2", "8")):
            out = tmp_path / name
            code, stdout, _ = run(
                ["race", "--out", out, "--config", config, "--seed", "5",
                 "--estimators", "twfe,imputation", "--replications", "4",
                 "--draws", "10", "--threads", threads],
                capsys,
            )
            assert code == 0
            assert "true overall effect" in stdout
            outs.append(out)
        assert (outs[0] / "race.csv").read_bytes() == (outs[1] / "race.csv").read_bytes()
        assert (outs[0] / "manifest.json").read_bytes() == (
            outs[1] / "manifest.json"
        ).read_bytes()

        manifest = json.loads((outs[0] / "manifest.json").read_text())
        assert manifest["command"] == "race"
        assert "threads" not in manifest["parameters"]
        assert manifest["parameters"]["estimators"] == ["twfe", "imputation"]
        assert "seed = 5" in manifest["parameters"]["config_effective"]
        header = (outs[0] / "race.csv").read_text().splitlines()[0]
        assert header == "estimator,n_reps,n_failed,mean_estimate,bias,sd,coverage,truth"

    def test_json_format(self, tmp_path, capsys):
        config = tmp_path / "dgp.txt"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "rj"
        code, _, _ = run(
            ["race", "--out", out, "--config", config, "--seed", "2",
             "--estimators", "twfe", "--replications", "2", "--draws", "0",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads((out / "race.json").read_text())
        assert payload["replications"] == 2
        assert "twfe" in payload["estimators"]
        assert not (out / "race.csv").exists()

    def test_unknown_estimator_lists_names(self, tmp_path, capsys):
        config = tmp_path / "dgp.txt"
        config.write_text(SMALL_CONFIG)
        code, _, err = run(
            ["race", "--out", tmp_path / "x", "--config", config, "--seed", "1",
             "--estimators", "ols", "--replications", "2"],
            capsys,
        )
        assert code == 1
        message = stderr_payload(err)["message"]
        assert "ols" in message and "cs_never" in message and "twfe" in message

    def test_seed_required(self, tmp_path, capsys):
        code, _, err = run(
            ["race", "--out", tmp_path / "x", "--preset", "null"], capsys
        )
        assert code == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ValueError"


class TestParser:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "paneldid" in capsys.readouterr().out

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
