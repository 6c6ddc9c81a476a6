"""Command-line entry point.

Subcommands: bite, estimate, decompose, race, simulate. Every run writes a
manifest.json next to its outputs recording the command, SHA-256 digests of
the input files, the effective parameters, the seed, and the package version.
Worker-thread counts are deliberately left out of the manifest: thread count
never changes results, so reruns compare bit for bit.

stdout carries human-readable tables; machine outputs go to --out only.
Failures print one JSON object {"error": ..., "message": ...} to stderr and
exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .bacon import bacon_decompose, reconstruct, write_components_csv
from .bite import (
    WageMicrodata,
    build_treatment_design,
    gap_correlations,
    low_growth_flag,
    wage_gap,
    TreatmentDesign,
)
from .designs import DesignKind, build_design, load_spec
from .engine import wls_fit
from .panel import ingest_panel, log_outcome, serialize_panel
from .simulate import (
    ESTIMATORS,
    DgpConfig,
    dump_dgp_config,
    estimator_race,
    generate,
    heterogeneous_config,
    homogeneous_config,
    load_dgp_config,
    null_config,
)
from .textio import IngestError, parse_number, read_csv, write_csv

_PRESETS = {
    "homogeneous": homogeneous_config,
    "heterogeneous": heterogeneous_config,
    "null": null_config,
}


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record emitted for every command."""

    command: str
    inputs: Mapping[str, str]
    parameters: Mapping[str, object]
    seed: int | None
    version: str
    outputs: tuple[str, ...]

    def write(self, path: Path) -> None:
        payload = {
            "command": self.command,
            "inputs": dict(self.inputs),
            "parameters": dict(self.parameters),
            "seed": self.seed,
            "version": self.version,
            "outputs": list(self.outputs),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def _num(value: float, digits: int = 6) -> str:
    if value != value:
        return "nan"
    return f"{value:.{digits}f}"


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_seed(args) -> int:
    if args.seed is None:
        raise ValueError("a --seed value is required for stochastic commands")
    return args.seed


def _read_region_values(path: str, column: str) -> dict[str, float]:
    """Read the `region` and `<column>` columns of a CSV into one number per region.

    The header follows the rules of `textio.read_csv`. Errors name the file and row.
    """
    with read_csv(path, str(path)) as table:
        region_at, value_at = table.columns(("region", column)).values()
        width = max(region_at, value_at) + 1
        values: dict[str, float] = {}
        for row_number, row in table.rows():
            if len(row) < width:
                raise IngestError(f"{path}: row {row_number} has fewer than {width} fields")
            region = row[region_at].strip()
            if not region:
                raise IngestError(f"{path}: row {row_number}: empty region id")
            if region in values:
                raise IngestError(f"{path}: duplicate region {region!r} at row {row_number}")
            try:
                values[region] = parse_number(row[value_at], row_number, column)
            except IngestError as exc:
                raise IngestError(f"{path}: {exc}") from None
    return values


def cmd_bite(args) -> int:
    out = _out_dir(args)
    micro_paths = args.micro
    if len(micro_paths) != 2 or len(args.mw) != 2 or len(args.survey_year) != 2:
        raise ValueError(
            "bite needs exactly two --micro files, two --mw values, and two "
            "--survey-year values (first wave, then second wave)"
        )
    tables = []
    for path, mw, year in zip(micro_paths, args.mw, args.survey_year):
        micro = WageMicrodata.read_csv(path, minimum_wage=mw, survey_year=year)
        tables.append(wage_gap(micro))
    weights = _read_region_values(args.weights, "weight")
    design = build_treatment_design(
        tables[0], tables[1], weights, strict=args.strict_median
    )
    gap_first_path, gap_second_path = out / "gap_first.csv", out / "gap_second.csv"
    tables[0].write_csv(gap_first_path)
    tables[1].write_csv(gap_second_path)
    design_path = out / "design.csv"
    design.write_csv(design_path)

    pearson, spearman = gap_correlations(tables[0], tables[1])
    counts = design.group_counts()
    n_high_first = sum(1 for r in design.regions.values() if r.high_first)
    n_high_second = sum(1 for r in design.regions.values() if r.high_second)
    rows = [
        [str(args.survey_year[0]), _num(args.mw[0], 2),
         str(len(tables[0].regions)), str(n_high_first)],
        [str(args.survey_year[1]), _num(args.mw[1], 2),
         str(len(tables[1].regions)), str(n_high_second)],
    ]
    print(_table(["survey_year", "minimum_wage", "n_regions", "n_high"], rows))
    print()
    print(_table(
        ["group", "n_regions"],
        [[group.value, str(counts.get(group, 0))] for group in sorted(counts, key=lambda g: g.value)],
    ))
    print()
    print(f"gap correlation across waves: pearson {_num(pearson, 4)}, "
          f"spearman {_num(spearman, 4)}")

    outputs = ("gap_first.csv", "gap_second.csv", "design.csv", "manifest.json")
    manifest = RunManifest(
        command="bite",
        inputs={p: _digest(p) for p in (*micro_paths, args.weights)},
        parameters={
            "mw": list(args.mw),
            "survey_year": list(args.survey_year),
            "strict_median": args.strict_median,
            "early_cohort": str(design.early_cohort),
            "late_cohort": str(design.late_cohort),
        },
        seed=args.seed,
        version=__version__,
        outputs=outputs,
    )
    manifest.write(out / "manifest.json")
    return 0


def _load_panel(args):
    data = ingest_panel(args.panel, require_positive_outcome=not args.no_log)
    if not args.no_log:
        data = log_outcome(data)
    return data


def cmd_estimate(args) -> int:
    out = _out_dir(args)
    data = _load_panel(args)
    design = TreatmentDesign.read_csv(args.design)
    spec = load_spec(args.spec)
    growth_flags = None
    if spec.kind is DesignKind.GROWTH_INTERACTION:
        if args.growth is None:
            raise ValueError(
                "this model interacts treatment with a low-growth flag; pass "
                "--growth CSV (columns region,growth)"
            )
        growth_flags = low_growth_flag(_read_region_values(args.growth, "growth"))
    elif args.growth is not None:
        raise ValueError("--growth only applies to the growth_interaction kind")

    matrix = build_design(data, design, spec, growth_flags=growth_flags)
    fit = wls_fit(matrix)

    fit_path = out / "fit.json"
    fit_path.write_text(json.dumps(fit.to_json_dict(), indent=2, sort_keys=True) + "\n")
    coefficients, rows = [], []
    for name in fit.columns:
        low, high = fit.conf_int(name)
        coefficients.append([
            name, repr(fit.coefficients[name]), repr(fit.se(name)),
            repr(fit.tstat(name)), repr(fit.pvalue(name)),
            repr(low), repr(high), fit.stars(name),
        ])
        rows.append([
            name, _num(fit.coefficients[name]) + fit.stars(name),
            _num(fit.se(name)), _num(fit.tstat(name), 3), _num(fit.pvalue(name), 4),
            f"[{_num(low)}, {_num(high)}]",
        ])
    write_csv(
        out / "coefficients.csv",
        ["term", "estimate", "se", "t", "p", "conf_low", "conf_high", "stars"],
        coefficients,
    )
    outputs = ["fit.json", "coefficients.csv"]

    if args.bacon:
        if spec.kind is not DesignKind.STAGGERED_TWFE:
            raise ValueError(
                "--bacon requires a staggered adoption model (kind = staggered_twfe)"
            )
        if (data.arrays.weight != 1.0).any():
            warnings.warn(
                "the decomposition ignores observation weights; the fitted "
                "model above was weighted", stacklevel=1
            )
        components = bacon_decompose(data.drop_covariates(), design.cohort_map())
        write_components_csv(components, out / "bacon.csv")
        outputs.append("bacon.csv")

    print(_table(["term", "estimate", "se", "t", "p", "95% ci"], rows))
    print()
    print(f"n_obs {fit.n_obs}, n_clusters {fit.n_clusters}, "
          f"dropped: {', '.join(fit.dropped_collinear) or 'none'}")
    if fit.dropped_collinear:
        print("note: dropped terms were collinear with fixed effects or other terms")

    outputs.append("manifest.json")
    manifest = RunManifest(
        command="estimate",
        inputs={
            p: _digest(p)
            for p in (args.panel, args.design, args.spec,
                      *([] if args.growth is None else [args.growth]))
        },
        parameters={
            "kind": spec.kind.value,
            "cutoff": str(spec.cutoff),
            "baseline": str(spec.baseline),
            "increase_years": list(spec.increase_years),
            "placebo": spec.placebo,
            "covariates": [str(term) for term in spec.covariates],
            "log_outcome": not args.no_log,
            "bacon": args.bacon,
        },
        seed=args.seed,
        version=__version__,
        outputs=tuple(outputs),
    )
    manifest.write(out / "manifest.json")
    return 0


def cmd_decompose(args) -> int:
    out = _out_dir(args)
    data = _load_panel(args)
    design = TreatmentDesign.read_csv(args.design)
    if data.arrays.covariates.shape[1] > 0:
        warnings.warn(
            "covariate columns are ignored by the decomposition", stacklevel=1
        )
        data = data.drop_covariates()
    if (data.arrays.weight != 1.0).any():
        warnings.warn(
            "observation weights are ignored by the decomposition", stacklevel=1
        )
    components = bacon_decompose(data, design.cohort_map())
    if args.format == "csv":
        write_components_csv(components, out / "bacon.csv")
        outputs = ("bacon.csv", "manifest.json")
    else:
        payload = {
            "components": [
                {
                    "comparison": c.kind.value,
                    "treated_cohort": str(c.treated_cohort),
                    "control_cohort": None if c.control_cohort is None else str(c.control_cohort),
                    "estimate": c.estimate,
                    "weight": c.weight,
                }
                for c in components
            ],
            "reconstruction": reconstruct(components),
        }
        (out / "bacon.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        outputs = ("bacon.json", "manifest.json")

    by_kind: dict[str, tuple[int, float, float]] = {}
    for c in components:
        n, w, s = by_kind.get(c.kind.value, (0, 0.0, 0.0))
        by_kind[c.kind.value] = (n + 1, w + c.weight, s + c.weight * c.estimate)
    rows = [
        [kind, str(n), _num(w, 4), _num(s / w if w else math.nan)]
        for kind, (n, w, s) in sorted(by_kind.items())
    ]
    print(_table(["comparison", "n", "weight", "weighted_mean"], rows))
    print()
    print(f"reconstructed coefficient: {_num(reconstruct(components))}")

    manifest = RunManifest(
        command="decompose",
        inputs={p: _digest(p) for p in (args.panel, args.design)},
        parameters={"log_outcome": not args.no_log},
        seed=args.seed,
        version=__version__,
        outputs=outputs,
    )
    manifest.write(out / "manifest.json")
    return 0


def _resolve_config(args, seed: int) -> tuple[DgpConfig, dict]:
    if (args.config is None) == (args.preset is None):
        raise ValueError("pass exactly one of --config FILE or --preset NAME")
    if args.config is not None:
        config = load_dgp_config(args.config)
        config = dataclasses.replace(config, seed=seed)
        meta = {"config": args.config}
    else:
        config = _PRESETS[args.preset](seed)
        meta = {"preset": args.preset}
    return config, meta


def cmd_race(args) -> int:
    out = _out_dir(args)
    seed = _require_seed(args)
    config, meta = _resolve_config(args, seed)
    estimators = [name.strip() for name in args.estimators.split(",") if name.strip()]
    result = estimator_race(
        config,
        estimators,
        args.replications,
        bootstrap_draws=args.draws,
        threads=args.threads,
    )
    if args.format == "csv":
        result.write_csv(out / "race.csv")
        outputs = ("race.csv", "manifest.json")
    else:
        (out / "race.json").write_text(
            json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
        )
        outputs = ("race.json", "manifest.json")

    rows = [
        [row.estimator, str(row.n_reps), str(row.n_failed), _num(row.mean_estimate),
         _num(row.bias), _num(row.sd), _num(row.coverage, 3)]
        for row in result.rows()
    ]
    print(_table(
        ["estimator", "reps", "failed", "mean", "bias", "sd", "coverage"], rows
    ))
    print()
    print(f"true overall effect: {_num(result.truth.overall)}")

    manifest = RunManifest(
        command="race",
        inputs={} if args.config is None else {args.config: _digest(args.config)},
        parameters={
            **meta,
            "estimators": list(result.estimators),
            "replications": args.replications,
            "draws": args.draws,
            "format": args.format,
            "config_effective": dump_dgp_config(config),
        },
        seed=seed,
        version=__version__,
        outputs=outputs,
    )
    manifest.write(out / "manifest.json")
    return 0


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    seed = _require_seed(args)
    config, meta = _resolve_config(args, seed)
    data, design, truth = generate(config)
    serialize_panel(data, out / "panel.csv")
    design.write_csv(out / "design.csv")
    (out / "truth.json").write_text(
        json.dumps(truth.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )
    (out / "config.txt").write_text(dump_dgp_config(config))

    counts = design.group_counts()
    print(_table(
        ["group", "n_regions"],
        [[g.value, str(n)] for g, n in sorted(counts.items(), key=lambda kv: kv[0].value)],
    ))
    print()
    print(f"{data.n_obs} observations over {config.n_periods} quarters; "
          f"true overall effect {_num(truth.overall)}")
    print("note: outcomes are on the regression scale; estimate with --no-log")

    manifest = RunManifest(
        command="simulate",
        inputs={} if args.config is None else {args.config: _digest(args.config)},
        parameters={**meta, "config_effective": dump_dgp_config(config)},
        seed=seed,
        version=__version__,
        outputs=("panel.csv", "design.csv", "truth.json", "config.txt", "manifest.json"),
    )
    manifest.write(out / "manifest.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paneldid",
        description="Panel difference-in-differences estimation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=_seed_value, default=None,
                        help="RNG seed (required for race and simulate)")
    common.add_argument("--threads", type=_positive_int, default=1,
                        help="worker thread cap for parallel replications")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="format for outputs that support both")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bite", parents=[common],
                       help="wage gaps, median splits, and the treatment design")
    p.add_argument("--micro", action="append", required=True,
                   help="wage microdata CSV (region,hourly_wage); pass twice, first wave first")
    p.add_argument("--mw", action="append", type=float, required=True,
                   help="minimum wage for the matching --micro file; pass twice")
    p.add_argument("--survey-year", action="append", type=int, required=True,
                   help="survey year for the matching --micro file; pass twice")
    p.add_argument("--weights", required=True,
                   help="population weights CSV (region,weight)")
    p.add_argument("--strict-median", action="store_true",
                   help="treat only regions strictly above the median as high-bite")
    p.set_defaults(func=cmd_bite)

    p = sub.add_parser("estimate", parents=[common],
                       help="fit a difference-in-differences model")
    p.add_argument("--panel", required=True, help="panel CSV")
    p.add_argument("--design", required=True, help="treatment design CSV")
    p.add_argument("--spec", required=True, help="model spec file (key = value lines)")
    p.add_argument("--no-log", action="store_true",
                   help="outcome is already on the regression scale; skip the log")
    p.add_argument("--growth", default=None,
                   help="regional growth CSV (region,growth) for the low-growth interaction")
    p.add_argument("--bacon", action="store_true",
                   help="also write the comparison decomposition (staggered kind only)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("decompose", parents=[common],
                       help="decompose the staggered coefficient into 2x2 comparisons")
    p.add_argument("--panel", required=True, help="panel CSV")
    p.add_argument("--design", required=True, help="treatment design CSV")
    p.add_argument("--no-log", action="store_true",
                   help="outcome is already on the regression scale; skip the log")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("race", parents=[common],
                       help="compare estimators on synthetic panels")
    p.add_argument("--config", default=None, help="generator config file")
    p.add_argument("--preset", choices=sorted(_PRESETS), default=None,
                   help="built-in generator config")
    p.add_argument("--estimators", default=",".join(sorted(ESTIMATORS, key=lambda n: ESTIMATORS[n][0])),
                   help="comma-separated estimator names")
    p.add_argument("--replications", type=_positive_int, default=200,
                   help="number of synthetic panels")
    p.add_argument("--draws", type=int, default=199,
                   help="bootstrap draws per replication (0 disables)")
    p.set_defaults(func=cmd_race)

    p = sub.add_parser("simulate", parents=[common],
                       help="write one synthetic panel, its design, and the true effects")
    p.add_argument("--config", default=None, help="generator config file")
    p.add_argument("--preset", choices=sorted(_PRESETS), default=None,
                   help="built-in generator config")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as error:  # noqa: BLE001 - single reporting point
        payload = {"error": type(error).__name__, "message": str(error)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
