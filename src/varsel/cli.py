"""Command-line entry point.

Subcommands map one-to-one onto pipeline stages, plus ``report`` which runs
everything and takes every stage subcommand's flags.  Each flag is declared
once, in ``_FLAGS``, by the ``RunConfig`` field it sets.  Exit codes: 0
success, 65 input parse failure, 64 invalid configuration, 70 computation
failure (argparse itself exits 2 on usage errors).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (BudgetExceededError, ConfigError, IngestError,
                     InvalidSubsetError, VarselError)
from .pipeline import ALL_METHODS, ALL_STAGES, RunConfig, run_pipeline

EXIT_OK = 0
EXIT_PARSE = 65
EXIT_VALIDATION = 64
EXIT_COMPUTATION = 70


def _csv_list(text: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _parse_methods(text: str) -> tuple[str, ...]:
    short = {name.split("-")[0]: name for name in ALL_METHODS}  # rm1, ..., pvalue
    methods = []
    for name in _csv_list(text):
        canonical = short.get(name, name)
        if canonical not in ALL_METHODS:
            raise ConfigError(f"unknown ranking method {name!r}")
        methods.append(canonical)
    return tuple(methods)


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in _csv_list(text))
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


_COMMANDS = {
    "rank": "feature rankings and error curves",
    "search": "best subset of each size m",
    "gibbs": "inclusion probabilities by sampling",
    "select": "model-order selection",
    "cv": "Monte Carlo cross-validation of a subset",
    "corr": "high-correlation feature pairs",
    "report": "full pipeline",
}
_ALL = tuple(_COMMANDS)
_COST = ("search", "gibbs", "report")  # the subcommands that price subsets

# One row per flag: option strings, the RunConfig field it sets (the argparse
# dest), the subcommands that take it, and its argparse keywords.  A flag
# whose field or requiredness differs between subcommands has one row per
# variant.  No row carries a default: a flag left off the command line is
# absent from the namespace, and RunConfig supplies the value.
_FLAGS = (
    (("--input", "-i"), "dataset_path", _ALL,
     {"required": True, "help": "input table"}),
    (("--target",), "target_column", _ALL,
     {"required": True, "help": "target column name"}),
    (("--drop",), "drop_columns", _ALL,
     {"help": "columns to exclude (comma list)"}),
    (("--delimiter",), "delimiter", _ALL, {}),
    (("--normalize",), "normalize", _ALL,
     {"choices": ["none", "zscore", "minmax"]}),
    (("--output-dir", "-o"), "output_dir", _ALL,
     {"help": "where to write report.json and flat files "
              "(default: $VARSEL_OUTPUT_DIR or '.')"}),
    (("--seed",), "seed", ("rank", "select", "corr"), {"type": int}),
    (("--seed",), "seed", ("search", "gibbs", "cv", "report"),
     {"type": int, "required": True}),
    (("--methods",), "methods", ("rank", "select", "report"), {}),
    (("--criteria",), "criteria", ("select", "report"), {}),
    (("--alpha",), "alpha_threshold", ("rank", "select", "report"),
     {"type": float, "help": "p-value threshold"}),
    (("--m",), "m_values", _COST,
     {"required": True, "help": "subset sizes (comma list)"}),
    (("--runs",), "search_runs", ("search", "report"),
     {"type": int, "help": "search restarts"}),
    (("--max-iters",), "max_iters", ("search", "report"), {"type": int}),
    (("--eta",), "eta", ("gibbs", "report"), {"type": float}),
    (("--sweeps",), "sweeps", ("gibbs", "report"), {"type": int}),
    (("--burn-in",), "burn_in", ("gibbs", "report"), {"type": int}),
    (("--p-norm",), "p_norm", _COST, {"type": float}),
    (("--cost-alpha",), "cost_alpha", _COST, {"type": float}),
    (("--subset",), "cv_subset", ("cv",),
     {"required": True, "help": "1-based feature indices (comma list)"}),
    (("--subset",), "cv_subset", ("report",),
     {"help": "CV subset (default: best search subset)"}),
    (("--runs",), "cv_runs", ("cv",), {"type": int, "help": "CV splits"}),
    (("--cv-runs",), "cv_runs", ("report",), {"type": int, "help": "CV splits"}),
    (("--train-fraction",), "train_fraction", ("cv", "report"), {"type": float}),
    (("--threshold",), "corr_threshold", ("corr", "report"),
     {"type": float, "help": "correlation threshold"}),
)

# Fields given as comma lists.  They are parsed after argparse, inside
# main's error handling, so a bad value exits 64 like any other invalid
# configuration.
_LIST_PARSERS = {
    "drop_columns": _csv_list,
    "methods": _parse_methods,
    "criteria": _csv_list,
    "m_values": _parse_ints,
    "cv_subset": _parse_ints,
}


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix of one flag must not be read as
    # another (``rank --m 2`` would be ``--methods 2``)
    parser = argparse.ArgumentParser(
        prog="varsel",
        description="Variable selection toolkit for linear regression models.",
        allow_abbrev=False,
    )
    from . import __version__

    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS,
                             allow_abbrev=False)
        for name, text in _COMMANDS.items()
    }
    for options, field, takers, keywords in _FLAGS:
        for name in takers:
            commands[name].add_argument(*options, dest=field, **keywords)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = dict(vars(args))
    command = values.pop("command")
    for field, parse in _LIST_PARSERS.items():
        if field in values:
            values[field] = parse(values[field])
    if "VARSEL_OUTPUT_DIR" in os.environ:
        values.setdefault("output_dir", os.environ["VARSEL_OUTPUT_DIR"])
    stages = ALL_STAGES if command == "report" else (command,)
    return RunConfig(stages=stages, **values)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        _, written = run_pipeline(config)
    except IngestError as exc:
        print(f"varsel: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, InvalidSubsetError, BudgetExceededError) as exc:
        stage = getattr(exc, "stage", args.command)
        print(f"varsel: invalid configuration ({stage}): {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except VarselError as exc:  # a computation failure
        stage = getattr(exc, "stage", args.command)
        print(f"varsel: stage {stage!r} failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    except OSError as exc:
        print(f"varsel: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
