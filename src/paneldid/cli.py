"""Command-line entry point.

Subcommands and the flags each takes:

* bite: --out --micro --mw --survey-year --weights --strict-median
* estimate: --out --panel --design --spec --no-log --growth --bacon
* decompose: --out --panel --design --no-log --format
* race: --out --seed --config --preset --estimators --replications --draws
  --format --threads
* simulate: --out --seed --config --preset

Numeric flags are read by `textio.to_number`; a value it rejects is a usage
error.

Every run writes a manifest.json next to its outputs recording the command,
SHA-256 digests of the input files, the effective parameters, the seed (null
for the commands without one), and the package version. Worker-thread counts
are deliberately left out of the manifest: thread count never changes
results, so reruns compare bit for bit. Every command runs with the bundled
OpenBLAS on one thread (`_blas.single_thread`), so the BLAS thread count
does not change results either.

stdout carries human-readable tables; machine outputs go to --out only, which
a command creates once its inputs have been read and checked. Failures print
one JSON object {"error": ..., "message": ...} to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import math
import platform
import sys
import warnings
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy

from . import __version__
from ._blas import single_thread
from .bacon import COMPONENT_COLUMNS, bacon_decompose, reconstruct, write_components_csv
from .bite import (
    WageMicrodata,
    build_treatment_design,
    gap_correlations,
    low_growth_flag,
    one_row_per_region,
    wage_gap,
    TreatmentDesign,
)
from .designs import CovariateTerm, DesignKind, DidSpec, build_design, load_spec
from .engine import wls_fit
from .panel import ingest_panel, log_outcome, serialize_panel
from .periods import Period
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
from .textio import (Codes, IngestError, Number, cell_values, field_names, field_values,
                     format_cell, read_columns, read_csv, stripped, to_number, write_records)

_PRESETS = {
    "homogeneous": homogeneous_config,
    "heterogeneous": heterogeneous_config,
    "null": null_config,
}


def _write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_json_field) + "\n")


def _json_field(value: object) -> str:
    """A record field that JSON has no type for: an enum, a period or a covariate term."""
    if isinstance(value, (enum.Enum, Period, CovariateTerm)):
        return format_cell(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_manifest(
    out: Path,
    command: str,
    inputs: Iterable[str],
    parameters: dict,
    outputs: Iterable[str],
    seed: int | None = None,
) -> None:
    """Write `out/manifest.json`, the reproducibility record of every command.

    `inputs` are the input file paths, recorded with their SHA-256 digests;
    `outputs` are the names written to `out`, to which the manifest adds itself.
    `environment` holds the Python, numpy and scipy versions: bootstrap SEs
    are bit-identical only on the same numerical libraries. No thread count
    is recorded, so a run's manifest does not depend on `--threads`.
    """
    _write_json(out / "manifest.json", {
        "command": command,
        "inputs": {path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
                   for path in inputs},
        "parameters": parameters,
        "seed": seed,
        "version": __version__,
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__},
        "outputs": [*outputs, "manifest.json"],
    })


def _flag_number(kind: type):
    """An argparse type reading `kind` by `textio.to_number`; a rejection is a usage error."""
    def parse(text: str):
        try:
            return to_number(text, kind)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


_flag_int = _flag_number(int)


def _seed_value(text: str) -> int:
    value = _flag_int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _positive_int(text: str) -> int:
    value = _flag_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


def _non_negative_int(text: str) -> int:
    value = _flag_int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer")
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


def _group_table(design: TreatmentDesign) -> str:
    counts = sorted(design.group_counts().items(), key=lambda kv: kv[0].value)
    return _table(["group", "n_regions"], [[g.value, str(n)] for g, n in counts])


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
    regions = Codes(stripped("empty region id"))
    rules = {"region": regions, column: Number()}
    with read_csv(path, str(path)) as table:
        try:
            arrays = read_columns(table, rules.items(), one_row_per_region(
                regions, "duplicate region {region!r} at row {row}"))
        except IngestError as exc:
            raise IngestError(f"{path}: {exc}") from None
    return dict(zip(*map(cell_values, rules.values(), arrays)))


def cmd_bite(args) -> int:
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
    out = _out_dir(args)
    gap_first_path, gap_second_path = out / "gap_first.csv", out / "gap_second.csv"
    tables[0].write_csv(gap_first_path)
    tables[1].write_csv(gap_second_path)
    design_path = out / "design.csv"
    design.write_csv(design_path)

    pearson, spearman = gap_correlations(tables[0], tables[1])
    n_high = [sum(design.high_first_map().values()), sum(design.high_second_map().values())]
    rows = [
        [str(year), _num(mw, 2), str(len(table.regions)), str(n)]
        for year, mw, table, n in zip(args.survey_year, args.mw, tables, n_high)
    ]
    print(_table(["survey_year", "minimum_wage", "n_regions", "n_high"], rows))
    print()
    print(_group_table(design))
    print()
    print(f"gap correlation across waves: pearson {_num(pearson, 4)}, "
          f"spearman {_num(spearman, 4)}")

    _write_manifest(
        out, "bite", [*micro_paths, args.weights],
        {
            "mw": list(args.mw),
            "survey_year": list(args.survey_year),
            "strict_median": args.strict_median,
            "early_cohort": str(design.early_cohort),
            "late_cohort": str(design.late_cohort),
        },
        ["gap_first.csv", "gap_second.csv", "design.csv"],
    )
    return 0


def _load_panel(args):
    data = ingest_panel(args.panel, require_positive_outcome=not args.no_log)
    if not args.no_log:
        data = log_outcome(data)
    return data


def cmd_estimate(args) -> int:
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
        if spec.covariates:
            warnings.warn(
                "the decomposition ignores covariates; the fitted model above "
                "adjusts for them", stacklevel=1
            )
        components = bacon_decompose(data.drop_covariates(), design.cohort_map())

    matrix = build_design(data, design, spec, growth_flags=growth_flags)
    fit = wls_fit(matrix)

    out = _out_dir(args)
    _write_json(out / "fit.json", fit.to_json_dict())
    coefficients, rows = [], []
    for name in fit.columns:
        low, high = fit.conf_int(name)
        coefficients.append([name, fit.coefficients[name], fit.se(name), fit.tstat(name),
                             fit.pvalue(name), low, high, fit.stars(name)])
        rows.append([
            name, _num(fit.coefficients[name]) + fit.stars(name),
            _num(fit.se(name)), _num(fit.tstat(name), 3), _num(fit.pvalue(name), 4),
            f"[{_num(low)}, {_num(high)}]",
        ])
    write_records(
        out / "coefficients.csv",
        ["term", "estimate", "se", "t", "p", "conf_low", "conf_high", "stars"],
        coefficients,
    )
    outputs = ["fit.json", "coefficients.csv"]
    if args.bacon:
        write_components_csv(components, out / "bacon.csv")
        outputs.append("bacon.csv")

    print(_table(["term", "estimate", "se", "t", "p", "95% ci"], rows))
    print()
    print(f"n_obs {fit.n_obs}, n_clusters {fit.n_clusters}, "
          f"dropped: {', '.join(fit.dropped_collinear) or 'none'}")
    if fit.dropped_collinear:
        print("note: dropped terms were collinear with fixed effects or other terms")

    _write_manifest(
        out, "estimate",
        [args.panel, args.design, args.spec, *([] if args.growth is None else [args.growth])],
        {**dict(zip(field_names(DidSpec), field_values(spec))),
         "log_outcome": not args.no_log, "bacon": args.bacon},
        outputs,
    )
    return 0


def cmd_decompose(args) -> int:
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
    out = _out_dir(args)
    if args.format == "csv":
        write_components_csv(components, out / "bacon.csv")
    else:
        _write_json(out / "bacon.json", {
            "components": [dict(zip(COMPONENT_COLUMNS, field_values(c))) for c in components],
            "reconstruction": reconstruct(components),
        })

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

    _write_manifest(
        out, "decompose", [args.panel, args.design], {"log_outcome": not args.no_log},
        [f"bacon.{args.format}"],
    )
    return 0


def _generator(args) -> tuple[DgpConfig, list[str], dict]:
    """The generator config of race and simulate, its input files and its parameters."""
    seed = _require_seed(args)
    if (args.config is None) == (args.preset is None):
        raise ValueError("pass exactly one of --config FILE or --preset NAME")
    if args.config is not None:
        config = dataclasses.replace(load_dgp_config(args.config), seed=seed)
        inputs, source = [args.config], {"config": args.config}
    else:
        config = _PRESETS[args.preset](seed)
        inputs, source = [], {"preset": args.preset}
    return config, inputs, {**source, "config_effective": dump_dgp_config(config)}


def cmd_race(args) -> int:
    config, inputs, parameters = _generator(args)
    estimators = [name.strip() for name in args.estimators.split(",") if name.strip()]
    result = estimator_race(
        config,
        estimators,
        args.replications,
        bootstrap_draws=args.draws,
        threads=args.threads,
    )
    out = _out_dir(args)
    if args.format == "csv":
        result.write_csv(out / "race.csv")
    else:
        _write_json(out / "race.json", result.to_json_dict())

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

    _write_manifest(
        out, "race", inputs,
        {
            **parameters,
            "estimators": list(result.estimators),
            "replications": args.replications,
            "draws": args.draws,
            "format": args.format,
        },
        [f"race.{args.format}"], config.seed,
    )
    return 0


def cmd_simulate(args) -> int:
    config, inputs, parameters = _generator(args)
    data, design, truth = generate(config)
    out = _out_dir(args)
    serialize_panel(data, out / "panel.csv")
    design.write_csv(out / "design.csv")
    _write_json(out / "truth.json", truth.to_json_dict())
    (out / "config.txt").write_text(dump_dgp_config(config))

    print(_group_table(design))
    print()
    print(f"{data.n_obs} observations over {config.n_periods} quarters; "
          f"true overall effect {_num(truth.overall)}")
    print("note: outcomes are on the regression scale; estimate with --no-log")

    _write_manifest(
        out, "simulate", inputs, parameters,
        ["panel.csv", "design.csv", "truth.json", "config.txt"], config.seed,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paneldid",
        description="Panel difference-in-differences estimation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # Flags that more than one command takes. --seed is optional here so that
    # a missing seed is the command's one-line JSON error.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="output directory")
    panel = argparse.ArgumentParser(add_help=False)
    panel.add_argument("--panel", required=True, help="panel CSV")
    panel.add_argument("--design", required=True, help="treatment design CSV")
    panel.add_argument("--no-log", action="store_true",
                       help="outcome is already on the regression scale; skip the log")
    generator = argparse.ArgumentParser(add_help=False)
    generator.add_argument("--seed", type=_seed_value, default=None,
                           help="RNG seed (required)")
    generator.add_argument("--config", default=None, help="generator config file")
    generator.add_argument("--preset", choices=sorted(_PRESETS), default=None,
                           help="built-in generator config")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="format of the main output")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents):
        p = sub.add_parser(name, parents=[out, *parents], help=help)
        p.set_defaults(func=func)
        return p

    p = command("bite", cmd_bite, "wage gaps, median splits, and the treatment design")
    p.add_argument("--micro", action="append", required=True,
                   help="wage microdata CSV (region,hourly_wage); pass twice, first wave first")
    p.add_argument("--mw", action="append", type=_flag_number(float), required=True,
                   help="minimum wage for the matching --micro file; pass twice")
    p.add_argument("--survey-year", action="append", type=_flag_int, required=True,
                   help="survey year for the matching --micro file; pass twice")
    p.add_argument("--weights", required=True,
                   help="population weights CSV (region,weight)")
    p.add_argument("--strict-median", action="store_true",
                   help="treat only regions strictly above the median as high-bite")

    p = command("estimate", cmd_estimate, "fit a difference-in-differences model", panel)
    p.add_argument("--spec", required=True, help="model spec file (key = value lines)")
    p.add_argument("--growth", default=None,
                   help="regional growth CSV (region,growth) for the low-growth interaction")
    p.add_argument("--bacon", action="store_true",
                   help="also write the comparison decomposition (staggered kind only)")

    command("decompose", cmd_decompose,
            "decompose the staggered coefficient into 2x2 comparisons", panel, fmt)

    p = command("race", cmd_race, "compare estimators on synthetic panels", generator, fmt)
    p.add_argument("--estimators", default=",".join(sorted(ESTIMATORS, key=lambda n: ESTIMATORS[n][0])),
                   help="comma-separated estimator names")
    p.add_argument("--replications", type=_positive_int, default=200,
                   help="number of synthetic panels")
    p.add_argument("--draws", type=_non_negative_int, default=199,
                   help="bootstrap draws per replication (0 disables)")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker thread cap for parallel replications")

    command("simulate", cmd_simulate,
            "write one synthetic panel, its design, and the true effects", generator)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with single_thread():
            return args.func(args)
    except Exception as error:  # noqa: BLE001 - single reporting point
        json.dump({"error": type(error).__name__, "message": str(error)}, sys.stderr)
        print(file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
