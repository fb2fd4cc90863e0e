"""Command-line interface.

Subcommands: cluster (fixed k), select (choose k), simulate (write
synthetic datasets), bench (repeated-trial summaries), evaluate (score a
labeling against ground truth). Every run writes a JSON report whose
`config` block, fed back through --config, reproduces the run exactly;
all outputs are byte-deterministic given the seed. `main` returns 2 for a
refused flag or flag combination and 3 for bad input or a failed run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from ._utils import as_count, derive_seed
from .clustering import ALGORITHMS, AsgConfig, InitMethod, run_clustering
from .evaluation import adjusted_rand_index, centroid_l1_error, summarize_trials
from .selection import run_selection
from .simulation import (
    ContaminationSpec,
    MixtureSpec,
    contaminate,
    make_scenario,
    sample_mixture,
    sphere_centers,
)

log = logging.getLogger("kmedians")

_DATA_STREAM = 51
_CONTAM_STREAM = 52
_SPHERE_STREAM = 53
_RUN_STREAM = 54
_TRIAL_DATA_STREAM = 61
_TRIAL_CONTAM_STREAM = 62
_TRIAL_RUN_STREAM = 63

_SCENARIO_KMAX = {"s1": 10, "s2": 15, "s3": 15, "sphere10": 20}

_LAWS = {
    "t1": dict(law="student", df=1),
    "t2": dict(law="student", df=2),
    "uniform": dict(law="uniform", low=-10.0, high=10.0),
}


# ---------------------------------------------------------------------------
# dataset I/O


def _read_table(path) -> tuple[list[str], np.ndarray]:
    """(stripped header, float table) of a numeric CSV file.

    The header row is required and names each column once; every data row
    must have as many fields as the header, each numeric and finite. A
    failure names its row, the header being row 1.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise ValueError(f"{path}: empty file") from None
            if all(_is_number(h) for h in header):
                raise ValueError(f"{path}: header row required (first row is numeric)")
            repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
            if repeated is not None:
                raise ValueError(f"{path}: column {repeated!r} appears more than once in the "
                                 "header")
            rows = []
            for rownum, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise ValueError(f"{path}: row {rownum}: expected {len(header)} fields, "
                                     f"got {len(row)}")
                try:
                    rows.append([float(v) for v in row])
                except ValueError:
                    raise ValueError(f"{path}: row {rownum}: non-numeric field") from None
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = np.array(rows)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: row {int(np.argmin(finite)) + 2}: non-finite field")
    return header, table


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def load_csv(path: str):
    """Read a points CSV: numeric columns plus optional label/contaminated.

    Returns (points, labels or None, mask or None), from `_read_table`.
    """
    header, table = _read_table(path)
    label_col = header.index("label") if "label" in header else None
    mask_col = header.index("contaminated") if "contaminated" in header else None
    coord_cols = [i for i in range(len(header)) if i not in (label_col, mask_col)]
    if not coord_cols:
        raise ValueError(f"{path}: no coordinate columns")
    # column selection yields a column-major copy; keep points row-major so that
    # reductions over them sum in the same order as for a parsed row list
    return (np.ascontiguousarray(table[:, coord_cols]),
            _integer_labels(table[:, label_col], path) if label_col is not None else None,
            table[:, mask_col] != 0.0 if mask_col is not None else None)


def _integer_labels(column: np.ndarray, path) -> np.ndarray:
    """A finite float label column as integers; a label beyond the int64 range
    or with a fractional part is an error at its row."""
    too_big = np.abs(column) >= 2.0**63
    if too_big.any():
        raise ValueError(f"{path}: row {int(np.argmax(too_big)) + 2}: label out of range")
    fractional = np.trunc(column) != column
    if fractional.any():
        raise ValueError(f"{path}: row {int(np.argmax(fractional)) + 2}: "
                         "label must be an integer")
    return column.astype(int)


def load_labels_csv(path: str) -> np.ndarray:
    """Read a predicted-labels CSV, parsed as by `_read_table`: the 'label'
    column, or the only column."""
    header, table = _read_table(path)
    if "label" in header:
        idx = header.index("label")
    elif len(header) == 1:
        idx = 0
    else:
        raise ValueError(f"{path}: expected a 'label' column")
    return _integer_labels(table[:, idx], path)


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                        for v in row])


def _json_default(obj):
    """numpy arrays and integers as JSON values; np.float64 is already a float."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_report(out_dir: Path, report: dict) -> Path:
    path = out_dir / "report.json"
    path.write_text(json.dumps(report, indent=2, default=_json_default) + "\n",
                    encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# shared config plumbing


def _dataset_from_args(args):
    """Resolve --input or --scenario, whichever was given, into (points, labels,
    mask, truth centers or None)."""
    if args.input:
        scenario_only = [flag for flag, given in (
            ("--rho", args.rho != 0.0), ("--law", args.law != "t1"),
            ("--points-per-cluster", args.points_per_cluster is not None)) if given]
        if scenario_only:
            raise ConfigError(f"{', '.join(scenario_only)} given with --input; "
                              "these flags only shape --scenario data")
        return (*load_csv(args.input), None)
    data, truth_centers = _scenario_data(args.scenario, args.seed, args.points_per_cluster,
                                         args.rho, args.law)
    return data.points, data.true_labels, data.contaminated, truth_centers


def _scenario_data(scenario: str, seed: int, points_per_cluster: int | None, rho: float,
                   law: str, contam_seed: int | None = None):
    """A named scenario drawn from `seed`, contaminated when rho > 0.

    Returns (LabeledDataset, generating centers). `points_per_cluster` sizes
    sphere10 (500 when None); the other scenarios have fixed sizes and refuse
    it. The contamination draw uses `contam_seed`, derived from `seed` unless
    given.
    """
    if points_per_cluster is not None:
        if scenario != "sphere10":
            raise ConfigError(f"--points-per-cluster only sizes sphere10 data, not {scenario}")
        as_count("--points-per-cluster", points_per_cluster, 1)
    spec = ContaminationSpec(rho=rho, **_LAWS[law])   # refuses rho outside [0, 0.5]
    data_seed = derive_seed(seed, _DATA_STREAM)
    if scenario == "sphere10":
        centers = sphere_centers(10, 10.0, 5, seed=derive_seed(seed, _SPHERE_STREAM))
        data = sample_mixture(MixtureSpec(centers, points_per_cluster or 500), seed=data_seed)
    else:
        data = make_scenario(scenario, seed=data_seed)
        centers = (np.full((1, 10), 0.5) if scenario == "s1"
                   else np.array(data.spec["centers"]))
    if rho > 0:
        if contam_seed is None:
            contam_seed = derive_seed(seed, _CONTAM_STREAM)
        data = contaminate(data, spec, seed=contam_seed)
    return data, centers


def _algo_params(args) -> dict:
    n_start, max_iter, passes = (as_count(flag, value, 1) for flag, value in (
        ("--n-start", args.n_start), ("--max-iter", args.max_iter), ("--passes", args.passes)))
    cfg = AsgConfig(c_gamma=args.c_gamma, alpha=args.alpha, passes=passes)
    init = InitMethod(kind=args.init, gini_threshold=args.gini_threshold)
    return dict(init=init, cfg=cfg, max_iter=max_iter, n_start=n_start,
                median_tol=args.median_tol)


def _evaluation_block(labels, true_labels, mask, est_centers, truth_centers, n=None):
    """ARI, ARI on the uncontaminated points and centroid error, as available; `n` follows ARI."""
    if true_labels is None:
        return None
    block = {"ari": adjusted_rand_index(true_labels, labels)}
    if n is not None:
        block["n"] = n
    if mask is not None and mask.any() and (~mask).sum() >= 2:
        block["ari_uncontaminated"] = adjusted_rand_index(true_labels[~mask], labels[~mask])
    if truth_centers is not None and est_centers is not None:
        block["centroid_l1_error"] = centroid_l1_error(truth_centers, est_centers)
    return block


def _clustering_block(result) -> dict:
    """The fit's algorithm, k, centers and cluster sizes, then every other
    `ClusteringResult` field but the labels, in declaration order."""
    block = {
        "algorithm": result.algorithm,
        "k": int(result.centers.shape[0]),
        "centers": result.centers,
        "cluster_sizes": np.bincount(result.labels, minlength=result.centers.shape[0]),
    }
    for f in dataclasses.fields(result):
        if f.name not in block and f.name != "labels":
            block[f.name] = getattr(result, f.name)
    return block


def _selection_block(report) -> dict:
    block = {
        "method": report.method,
        "k_hat": report.k_hat,
        "ks": report.ks,
        "criterion_values": report.criterion_values,
    }
    if report.slope_constant is not None:
        block["slope_constant"] = report.slope_constant
        block["chosen_window"] = report.chosen_window
        block["window_table"] = [list(t) for t in report.window_table]
        block["flags"] = list(report.flags)
    return block


def pca_projection(points: np.ndarray) -> np.ndarray:
    """First two principal components of the centered data, sign-fixed."""
    x = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    if vt.shape[0] < 2:
        vt = np.vstack([vt, np.zeros((2 - vt.shape[0], x.shape[1]))])
    comps = vt[:2].copy()
    for i in range(2):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return x @ comps.T


class ConfigError(Exception):
    """Invalid flag combination or option value."""


def _echo(args) -> dict:
    skip = {"func", "config", "verbose"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_outputs(args, files: dict, **blocks) -> int:
    """Create --out and write a finished run into it: each `files` entry
    (name -> (file, header, rows)) as CSV, then report.json holding the
    command, the config echo, `blocks` and the output map, in that order."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for file, header, rows in files.values():
        _write_csv(out / file, header, rows)
    write_report(out, {"command": args.command, "config": _echo(args), **blocks,
                       "outputs": {name: f[0] for name, f in files.items()}})
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _fit_and_report(args) -> int:
    """cluster fits at --k, select chooses k by --method; either writes labels.csv,
    a selection's curve/windows/projection CSVs, and report.json."""
    if args.command == "select":
        _check_selection(args)
    points, true_labels, mask, truth_centers = _dataset_from_args(args)
    seed = derive_seed(args.seed, _RUN_STREAM)
    t0 = time.perf_counter()
    if args.command == "cluster":
        report_sel = None
        result = run_clustering(points, args.k, args.algorithm, seed=seed,
                                **_algo_params(args))
        log.info("cluster: fitted k=%d in %.2fs", args.k, time.perf_counter() - t0)
    else:
        report_sel, result, curve = run_selection(
            points, args.method, args.k_max, args.algorithm, seed=seed,
            min_window=args.min_window, gap_b=args.gap_b,
            silhouette_metric=args.silhouette_metric, **_algo_params(args))
        log.info("select: method=%s k_hat=%d in %.2fs", args.method, report_sel.k_hat,
                 time.perf_counter() - t0)

    files = {"labels": ("labels.csv", ["label"], [[int(v)] for v in result.labels])}
    if report_sel is not None:
        if curve is None:
            files["curve"] = ("curve.csv", ["k", "criterion"],
                              zip(report_sel.ks.tolist(), report_sel.criterion_values))
        else:
            files["curve"] = ("curve.csv", ["k", "distortion", "criterion"],
                              zip(curve.ks.tolist(), curve.distortions,
                                  report_sel.criterion_values))
        proj = pca_projection(points)
        files["projection"] = ("projection.csv", ["pc1", "pc2", "label"],
                               [(p[0], p[1], int(lab)) for p, lab in zip(proj, result.labels)])
        if curve is not None:
            files["windows"] = ("windows.csv", ["window", "slope", "k_hat"],
                                report_sel.window_table)
    return _write_outputs(
        args, files,
        selection=None if report_sel is None else _selection_block(report_sel),
        clustering=_clustering_block(result),
        evaluation=_evaluation_block(result.labels, true_labels, mask, result.centers,
                                     truth_centers))


def _check_selection(args) -> None:
    """Refuse --min-window under a method that has no slope-fit window, and a --gap-b
    below 1 under the gap method."""
    if args.min_window is not None and args.method != "slope":
        raise ConfigError(f"--min-window applies only to --method slope, not {args.method}")
    if args.method == "gap":
        as_count("--gap-b", args.gap_b, 1)


def cmd_simulate(args) -> int:
    data, _ = _scenario_data(args.scenario, args.seed, args.points_per_cluster,
                             args.rho, args.law)
    rows = ([*row, int(lab), int(con)] for row, lab, con
            in zip(data.points, data.true_labels, data.contaminated))
    header = [f"x{i}" for i in range(data.points.shape[1])] + ["label", "contaminated"]
    return _write_outputs(
        args, {"dataset": ("dataset.csv", header, rows)},
        dataset={"n": data.points.shape[0], "d": data.points.shape[1],
                 "n_contaminated": int(data.contaminated.sum()), "spec": data.spec})


def cmd_bench(args) -> int:
    _check_selection(args)
    trials = args.trials if args.trials is not None else (50 if args.full else 20)
    as_count("--trials", trials, 1)
    ppc = args.points_per_cluster
    if ppc is None and args.scenario == "sphere10":
        ppc = 500 if args.full else 200
    k_max = args.k_max if args.k_max is not None else _SCENARIO_KMAX[args.scenario]
    algorithms = [a.strip() for a in args.algorithm.split(",")]
    if "all" in algorithms:
        algorithms = list(ALGORITHMS)
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ConfigError(f"unknown algorithm {unknown[0]!r}; expected one of {ALGORITHMS}")
    try:
        rhos = [float(r) for r in args.rho.split(",")]
    except ValueError:
        raise ConfigError(f"--rho: {args.rho!r} is not a comma-separated list of "
                          "numbers") from None
    for rho in rhos:
        ContaminationSpec(rho=rho, **_LAWS[args.law])
    params = dict(_algo_params(args), min_window=args.min_window, gap_b=args.gap_b,
                  silhouette_metric=args.silhouette_metric)

    rows = []
    for algorithm in algorithms:
        for rho in rhos:
            per_trial = []
            for t in range(trials):
                t0 = time.perf_counter()
                data, truth_centers = _scenario_data(
                    args.scenario, derive_seed(args.seed, _TRIAL_DATA_STREAM, t), ppc, rho,
                    args.law, contam_seed=derive_seed(args.seed, _TRIAL_CONTAM_STREAM, t))
                report_sel, result, _ = run_selection(
                    data.points, args.method, k_max, algorithm,
                    seed=derive_seed(args.seed, _TRIAL_RUN_STREAM, t), **params)
                scores = _evaluation_block(result.labels, data.true_labels, data.contaminated,
                                           result.centers, truth_centers)
                ari = scores.get("ari_uncontaminated", scores["ari"])
                per_trial.append((report_sel.k_hat, ari, scores["centroid_l1_error"]))
                log.info("bench: %s rho=%g trial=%d k_hat=%d ari=%.3f (%.2fs)", algorithm, rho,
                         t, report_sel.k_hat, ari, time.perf_counter() - t0)
            s = summarize_trials(per_trial, truth_centers.shape[0])
            rows.append([args.scenario, args.method, algorithm, args.law, rho,
                         s.trials, s.n_correct, s.k_bar, s.ari_mean, s.l1_error_median])

    header = ["scenario", "method", "algorithm", "law", "rho", "trials",
              "n_correct", "k_bar", "ari_mean", "l1_error_median"]
    return _write_outputs(args, {"summary": ("summary.csv", header, rows)}, rows=len(rows))


def cmd_evaluate(args) -> int:
    if bool(args.true_centers) != bool(args.pred_centers):
        raise ConfigError("--true-centers and --pred-centers must be given together")
    points, true_labels, mask = load_csv(args.input)
    if true_labels is None:
        raise ValueError(f"{args.input}: no label column to evaluate against")
    pred = load_labels_csv(args.labels)
    if pred.shape[0] != points.shape[0]:
        raise ValueError(f"{args.labels}: {pred.shape[0]} labels for {points.shape[0]} points")
    true_centers = pred_centers = None
    if args.true_centers:
        true_centers = load_csv(args.true_centers)[0]
        pred_centers = load_csv(args.pred_centers)[0]
    return _write_outputs(args, {}, evaluation=_evaluation_block(
        pred, true_labels, mask, pred_centers, true_centers, n=int(points.shape[0])))


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """A parser, and the class of its subparsers, that takes options spelled in
    full only and raises ConfigError on a refusal, for which `main` returns 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


# the one option taken before the subcommand: `_replay` reads it, the top parser lists it
_CONFIG = _Parser(prog="kmedians", add_help=False)
_CONFIG.add_argument("--config", help="JSON report or config echo to re-run")


def _add_common(p: argparse.ArgumentParser, source: str, *, rho_grid: bool = False):
    """--seed, --out, --verbose and the data flags of `source`: "input" (a required
    points CSV), "scenario" (a required named scenario and the flags that shape
    it) or "either" (exactly one of the two)."""
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--out", default="out", help="output directory (default ./out)")
    p.add_argument("--verbose", action="store_true", help="log progress to stderr")
    input_help = "points CSV (header required; optional label/contaminated columns)"
    if source == "input":
        p.add_argument("--input", required=True, help=input_help)
        return
    group = p
    if source == "either":
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--input", help=input_help)
    group.add_argument("--scenario", choices=["s1", "s2", "s3", "sphere10"],
                       required=source == "scenario", help="named synthetic dataset")
    p.add_argument("--points-per-cluster", type=int, default=None,
                   help="override cluster size for sphere10")
    if rho_grid:
        p.add_argument("--rho", default="0",
                       help="comma-separated contamination proportions (default '0')")
    else:
        p.add_argument("--rho", type=float, default=0.0,
                       help="contamination proportion for generated data (default 0)")
    p.add_argument("--law", choices=sorted(_LAWS), default="t1",
                   help="contamination law (default t1)")


def _add_algo(p: argparse.ArgumentParser, *, multi: bool = False):
    p.add_argument("--algorithm", choices=None if multi else ALGORITHMS, default="offline",
                   help="comma-separated algorithms, or 'all' (default offline)" if multi
                   else "fit algorithm (default offline)")
    p.add_argument("--init", choices=["robust_hierarchical", "plus_plus_l1"],
                   default="robust_hierarchical", help="center initialization")
    p.add_argument("--gini-threshold", type=float, default=0.3,
                   help="inequality threshold of the hierarchical init (default 0.3)")
    p.add_argument("--n-start", type=int, default=5,
                   help="restarts for the Lloyd-style algorithms (default 5)")
    p.add_argument("--max-iter", type=int, default=100,
                   help="Lloyd iteration cap (default 100)")
    p.add_argument("--c-gamma", type=float, default=1.0,
                   help="gradient step scale (default 1.0)")
    p.add_argument("--alpha", type=float, default=0.75,
                   help="gradient step decay in (0.5, 1) (default 0.75)")
    p.add_argument("--passes", type=int, default=1,
                   help="stochastic gradient passes per median fit (default 1)")
    p.add_argument("--median-tol", type=float, default=1e-6,
                   help="Weiszfeld displacement tolerance inside Lloyd (default 1e-6)")


def _add_selection(p: argparse.ArgumentParser, *, k_max_required: bool):
    p.add_argument("--method", choices=["slope", "gap", "silhouette"],
                   default="slope", help="selection method (default slope)")
    p.add_argument("--k-max", type=int, required=k_max_required, default=None,
                   help="largest candidate k")
    p.add_argument("--min-window", type=int, default=None,
                   help="smallest slope-fit window, 2..k_max-1, --method slope only "
                        "(default max(3, 0.3*k_max))")
    p.add_argument("--gap-b", type=int, default=20,
                   help="reference sets for the gap statistic (default 20)")
    p.add_argument("--silhouette-metric", choices=["euclidean", "manhattan"],
                   default="euclidean", help="distance for silhouette scoring")


def build_parser() -> argparse.ArgumentParser:
    """The CLI surface: each subcommand's parser holds exactly the flags it reads."""
    parser = _Parser(
        prog="kmedians", parents=[_CONFIG],
        description="Robust K-medians clustering with automatic selection of k.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster with a fixed number of clusters")
    _add_common(p, "either")
    _add_algo(p)
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.set_defaults(func=_fit_and_report)

    p = sub.add_parser("select", help="choose the number of clusters")
    _add_common(p, "either")
    _add_algo(p)
    _add_selection(p, k_max_required=True)
    p.set_defaults(func=_fit_and_report)

    p = sub.add_parser("simulate", help="write a synthetic dataset to CSV")
    _add_common(p, "scenario")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="repeated-trial selection benchmark")
    _add_common(p, "scenario", rho_grid=True)
    _add_algo(p, multi=True)
    _add_selection(p, k_max_required=False)
    p.add_argument("--trials", type=int, default=None,
                   help="trials per configuration (default 20; 50 with --full)")
    p.add_argument("--full", action="store_true",
                   help="full-scale protocol: 50 trials, 500 points per cluster")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("evaluate", help="score a labeling against ground truth")
    _add_common(p, "input")
    p.add_argument("--labels", required=True,
                   help="CSV with the predicted labels (one column)")
    p.add_argument("--true-centers", help="CSV of true centers (optional)")
    p.add_argument("--pred-centers", help="CSV of estimated centers (optional)")
    p.set_defaults(func=cmd_evaluate)
    return parser


def _config_to_argv(cfg: dict, parser: argparse.ArgumentParser) -> list[str]:
    """Flags replaying `cfg` under a subcommand parser: keys it has no option for are
    dropped, switches are passed when true, and other values are parsed as if typed."""
    argv = []
    for action in parser._actions:
        value = cfg.get(action.dest)
        if not action.option_strings or value is None:
            continue
        if action.nargs == 0:
            if value:
                argv.append(action.option_strings[-1])
        else:
            argv.extend([action.option_strings[-1], str(value)])
    return argv


def _command_at(rest: list[str], commands: dict) -> int | None:
    """Where the subcommand stands among the arguments beside --config: first, when
    the first is not a flag, else the first subcommand name that is not a flag's value."""
    if rest and not rest[0].startswith("-"):
        return 0
    valued = {flag for p in commands.values() for a in p._actions if a.nargs != 0
              for flag in a.option_strings}
    return next((i for i, a in enumerate(rest)
                 if a in commands and (i == 0 or rest[i - 1] not in valued)), None)


def _replay(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """`argv` with `--config FILE` or `--config=FILE` replaced by the subcommand and flags
    of the report or config echo in FILE, a subcommand named anywhere in `argv` winning;
    without --config, a flag before the subcommand is refused."""
    known, rest = _CONFIG.parse_known_args(argv)
    if known.config is None:
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            raise ConfigError(f"kmedians: {argv[0].split('=')[0]} must follow the subcommand")
        return argv
    if not known.config:
        raise ConfigError("kmedians: argument --config: expected a path, got ''")
    try:
        doc = json.loads(Path(known.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ValueError(f"--config: {e}") from None
    cfg = doc.get("config", doc) if isinstance(doc, dict) else None
    if not isinstance(cfg, dict):
        raise ValueError("--config: document must be a JSON object")
    command = doc.get("command") or cfg.get("command")
    if command is not None and not isinstance(command, str):
        raise ValueError(f"--config: command must be a string, got {command!r}")
    commands = next(a for a in parser._actions if a.dest == "command").choices
    at = _command_at(rest, commands)
    if at is not None:
        command = rest.pop(at)
    if not command:
        raise ConfigError("--config document does not name a command")
    # an unknown command is left for argparse to report
    replay = _config_to_argv(cfg, commands[command]) if command in commands else []
    return [command] + replay + rest


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_replay(list(sys.argv[1:] if argv is None else argv), parser))
        logging.basicConfig(stream=sys.stderr, format="%(message)s",
                            level=logging.INFO if args.verbose else logging.WARNING)
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
