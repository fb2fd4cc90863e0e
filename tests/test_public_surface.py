"""The public surface: the names in `kmedians.__all__` and the CLI options.

Both are fixed; a change to either is a declared change, made here too.
"""

import argparse

import kmedians
from kmedians.cli import build_parser

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

_COMMON = {"--help", "-h", "--out", "--seed", "--verbose", "--input", "--scenario",
           "--rho", "--law", "--points-per-cluster"}
_FIT = {"--algorithm", "--init", "--gini-threshold", "--max-iter", "--n-start",
        "--median-tol", "--c-gamma", "--alpha", "--passes"}
_SELECT = {"--method", "--k-max", "--min-window", "--gap-b", "--silhouette-metric"}
OPTIONS = {
    None: {"-h", "--help", "--config"},
    "cluster": _COMMON | _FIT | {"--k"},
    "select": _COMMON | _FIT | _SELECT | {"--k"},
    "simulate": _COMMON,
    "bench": _COMMON | _FIT | _SELECT | {"--trials", "--full"},
    "evaluate": _COMMON | {"--labels", "--true-centers", "--pred-centers"},
}


def _options(parser) -> set[str]:
    return {o for action in parser._actions for o in action.option_strings}


def test_public_names_are_unchanged():
    assert sorted(kmedians.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(kmedians, name), name


def test_cli_options_are_unchanged():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(OPTIONS) - {None}
    assert _options(parser) == OPTIONS[None]
    for command, sub in subparsers.choices.items():
        assert _options(sub) == OPTIONS[command], command
