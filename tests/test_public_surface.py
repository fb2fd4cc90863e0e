"""The public surface: the names in `kmedians.__all__` and the CLI options.

Both are fixed; a change to either is a declared change, made here too.
"""

import argparse

import pytest

import kmedians
from kmedians.cli import ConfigError, build_parser

PUBLIC_NAMES = [
    "ALGORITHMS", "AsgConfig", "ClusteringResult", "ContaminationSpec", "DistortionCurve",
    "InitMethod", "LabeledDataset", "MedianEstimate", "MixtureSpec", "SelectionReport",
    "TrialSummary", "adjusted_rand_index", "asg_median", "assign", "centroid_l1_error",
    "contaminate", "distortion_curve", "empirical_distortion", "gap_select", "init_centers",
    "kmeans_baseline", "l1_objective", "lloyd_kmedians", "make_scenario", "mean_silhouette",
    "online_kmedians", "penalty_shape", "run_clustering", "run_selection", "sample_mixture",
    "silhouette_select", "slope_select", "sphere_centers", "summarize_trials",
    "weiszfeld_median",
]

_COMMON = {"--help", "-h", "--out", "--seed", "--verbose"}
_SCENARIO = {"--scenario", "--rho", "--law", "--points-per-cluster"}
_FIT = {"--algorithm", "--init", "--gini-threshold", "--max-iter", "--n-start",
        "--median-tol", "--c-gamma", "--alpha", "--passes"}
_SELECT = {"--method", "--k-max", "--min-window", "--gap-b", "--silhouette-metric"}
OPTIONS = {
    None: {"-h", "--help", "--config"},
    "cluster": _COMMON | {"--input"} | _SCENARIO | _FIT | {"--k"},
    "select": _COMMON | {"--input"} | _SCENARIO | _FIT | _SELECT,
    "simulate": _COMMON | _SCENARIO,
    "bench": _COMMON | _SCENARIO | _FIT | _SELECT | {"--trials", "--full"},
    "evaluate": _COMMON | {"--input", "--labels", "--true-centers", "--pred-centers"},
}
# the flags each subcommand requires
REQUIRED = {
    "cluster": ["--input", "data.csv", "--k", "2"],
    "select": ["--input", "data.csv", "--k-max", "4"],
    "simulate": ["--scenario", "s1"],
    "bench": ["--scenario", "s1"],
    "evaluate": ["--input", "data.csv", "--labels", "labels.csv"],
}


def _options(parser) -> set[str]:
    return {o for action in parser._actions for o in action.option_strings}


def test_public_names_are_unchanged():
    assert sorted(kmedians.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(kmedians, name), name


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_options_are_unchanged():
    parser = build_parser()
    subparsers = _subparsers(parser)
    assert set(subparsers) == set(OPTIONS) - {None}
    assert _options(parser) == OPTIONS[None]
    for command, sub in subparsers.items():
        assert _options(sub) == OPTIONS[command], command
        parser.parse_args([command, *REQUIRED[command]])
        for flag in REQUIRED[command][::2]:
            argv = REQUIRED[command].copy()
            del argv[argv.index(flag):argv.index(flag) + 2]
            with pytest.raises(ConfigError, match="required"):
                parser.parse_args([command, *argv])


def test_every_parser_refuses_option_prefixes():
    # a prefix is not an alias: `bench --k 3` must not set --k-max
    parser = build_parser()
    assert parser.allow_abbrev is False
    for command, sub in _subparsers(parser).items():
        assert sub.allow_abbrev is False, command
        for option in OPTIONS[command] - {"-h", "--help", "--k"}:
            prefix = option[:-1]
            with pytest.raises(ConfigError, match=f"unrecognized arguments: {prefix} 1$"):
                parser.parse_args([command, *REQUIRED[command], prefix, "1"])
