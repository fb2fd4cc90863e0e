"""The public surface: the names in `kmedians.__all__` and the CLI options.

Both are fixed; a change to either is a declared change, made here too. Each
module also imports only names it uses or lists in `__all__`.
"""

import argparse
import ast
from pathlib import Path

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


# imported and unused on purpose: perfbench/tracing.py hooks the name in this module
UNUSED_IMPORTS_ALLOWED = {("clustering", "weiszfeld_median")}


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports but neither uses nor lists in its `__all__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used - exported


def test_no_module_imports_a_name_it_does_not_use():
    unused = {(path.stem, name) for path in Path(kmedians.__file__).parent.glob("*.py")
              for name in _unused_imports(path)}
    assert sorted(unused - UNUSED_IMPORTS_ALLOWED) == []


def _private_defs_and_uses(paths) -> tuple[list, list]:
    """(private function and class definitions, name uses) across the modules at
    `paths`: a definition is (module stem, name, node, names the module imports), a
    use (name, node), counting a bare name and an attribute such as `self._step`."""
    defs, uses = [], []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {a.asname or a.name for n in ast.walk(tree)
                    if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    node.name.startswith("_") and not node.name.endswith("__"):
                defs.append((path.stem, node.name, node, imported))
            elif isinstance(node, ast.Name):
                uses.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, node))
    return defs, uses


def test_every_private_function_and_class_is_used():
    # dead code: a private name that only its own body names (a recursive helper
    # nobody calls), or one its module also imports (a leftover copy of a shared
    # helper, which the import or the copy shadows)
    defs, uses = _private_defs_and_uses(Path(kmedians.__file__).parent.glob("*.py"))
    assert len(defs) > 50
    unused = []
    for module, name, node, imported in defs:
        inside = {id(n) for n in ast.walk(node)}
        if name in imported or not any(used == name and id(n) not in inside
                                       for used, n in uses):
            unused.append(f"{module}.{name}")
    assert unused == []
