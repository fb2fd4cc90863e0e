"""Command-line surface: subcommands, file formats, determinism, errors."""

import csv
import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import kmedians.cli
from kmedians import ALGORITHMS, ClusteringResult, weiszfeld_median
from kmedians.cli import load_csv, main


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def write_blobs_csv(path: Path, n_per=40, with_truth=True):
    rng = np.random.default_rng(0)
    pts = np.vstack([
        np.array([-10.0, 0.0]) + rng.normal(size=(n_per, 2)),
        np.array([10.0, 0.0]) + rng.normal(size=(n_per, 2)),
    ])
    labels = np.repeat([0, 1], n_per)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x0", "x1"] + (["label"] if with_truth else []))
        for p, lab in zip(pts, labels):
            w.writerow([repr(float(p[0])), repr(float(p[1]))]
                       + ([int(lab)] if with_truth else []))
    return pts


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# cluster


def test_cluster_two_blobs(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    out = tmp_path / "run"
    assert run_cli("cluster", "--input", data, "--k", 2, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "cluster"
    assert report["evaluation"]["ari"] == 1.0
    labels = [int(r["label"]) for r in csv.DictReader(open(out / "labels.csv"))]
    assert len(set(labels)) == 2 and len(labels) == 80


def test_cluster_k1_is_geometric_median(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(60, 2))
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x0", "x1"])
        for p in pts:
            w.writerow([repr(float(p[0])), repr(float(p[1]))])
    out = tmp_path / "run"
    assert run_cli("cluster", "--input", data, "--k", 1, "--median-tol", 1e-10,
                   "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    center = np.array(report["clustering"]["centers"][0])
    expected = weiszfeld_median(pts, tol=1e-10).point
    assert np.linalg.norm(center - expected) <= 1e-6


def test_cluster_empty_file_fails(tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text("")
    assert run_cli("cluster", "--input", data, "--k", 2, "--out", tmp_path / "o") == 3


def test_cluster_requires_k(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    assert run_cli("cluster", "--input", data, "--out", tmp_path / "o") == 2


def test_cluster_rejects_unknown_algorithm(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    assert run_cli("cluster", "--input", data, "--k", 2, "--algorithm", "spectral",
                   "--out", tmp_path / "o") == 2


def test_k_above_the_distinct_points_leaves_empty_clusters(tmp_path):
    # 3 distinct points, 5 copies each: a fit at k=5 is not refused, and the two
    # clusters left empty show as sizes of 0 in report.json
    data = tmp_path / "dup.csv"
    data.write_text("x0,x1\n" + "0.0,0.0\n5.0,0.0\n0.0,5.0\n" * 5)
    for algorithm in ("offline", "online"):
        out = tmp_path / algorithm
        assert run_cli("cluster", "--input", data, "--k", 5, "--algorithm", algorithm,
                       "--out", out) == 0
        clustering = json.loads((out / "report.json").read_text())["clustering"]
        assert sorted(clustering["cluster_sizes"]) == [0, 0, 5, 5, 5], algorithm
        assert clustering["distortion"] == 0.0, algorithm


def test_report_counts_the_capped_median_solves(tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    pts = write_blobs_csv(data)
    for cap in (100, 1):
        monkeypatch.setattr(kmedians.clustering, "_MEDIAN_MAX_ITER", cap)
        out = tmp_path / f"cap{cap}"
        assert run_cli("cluster", "--input", data, "--k", 2, "--median-tol", 1e-12,
                       "--out", out) == 0
        clustering = json.loads((out / "report.json").read_text())["clustering"]
        r = kmedians.run_clustering(pts, 2, "offline", median_tol=1e-12)
        for key in ("median_cap_hits", "median_batch_steps", "median_block_steps",
                    "median_capped_iterations"):
            assert clustering[key] == getattr(r, key), (cap, key)
        assert (r.median_cap_hits > 0) == (cap == 1)
        assert r.median_batch_steps >= r.iterations


def test_report_lists_every_clustering_result_field(tmp_path):
    # four leading keys, then every other ClusteringResult field but the labels in
    # declaration order, so a new diagnostic reaches report.json as one more field
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    rest = [f.name for f in dataclasses.fields(ClusteringResult)
            if f.name not in ("algorithm", "centers", "labels")]
    assert rest == ["distortion", "iterations", "restarts_used", "stop_reason",
                    "median_cap_hits", "median_batch_steps", "median_block_steps",
                    "median_capped_iterations"]
    for algorithm in ALGORITHMS:
        out = tmp_path / algorithm
        assert run_cli("cluster", "--input", data, "--k", 2, "--algorithm", algorithm,
                       "--out", out) == 0
        clustering = json.loads((out / "report.json").read_text())["clustering"]
        assert list(clustering) == ["algorithm", "k", "centers", "cluster_sizes", *rest]


def test_input_and_scenario_conflict(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    assert run_cli("cluster", "--input", data, "--scenario", "s2", "--k", 2,
                   "--out", tmp_path / "o") == 2


def test_malformed_row_reports_line(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    for bad_row, problem in (("3.0,oops,0", "non-numeric field"),
                             ("nan,1.0,0", "non-finite field"),
                             ("3.0,-inf,0", "non-finite field"),
                             ("3.0,4.0,inf", "non-finite field"),
                             ("3.0,4.0,1e20", "label out of range"),
                             ("3.0,4.0,1.5", "label must be an integer")):
        data.write_text(f"x0,x1,label\n1.0,2.0,0\n{bad_row}\n5.0,6.0,1\n")
        assert run_cli("cluster", "--input", data, "--k", 1, "--out", tmp_path / "o") == 3
        assert f"row 3: {problem}" in capsys.readouterr().err
    # the predicted labels of evaluate are read with the same checks
    data.write_text("x0,label\n1.0,0\n2.0,1\n3.0,1\n")
    pred = tmp_path / "pred.csv"
    for bad_label, problem in (("oops", "non-numeric field"),
                               ("nan", "non-finite field"),
                               ("-inf", "non-finite field"),
                               ("1e20", "label out of range"),
                               ("1.5", "label must be an integer")):
        pred.write_text(f"label\n0\n{bad_label}\n1\n")
        assert run_cli("evaluate", "--input", data, "--labels", pred,
                       "--out", tmp_path / "e") == 3
        assert f"{pred}: row 3: {problem}" in capsys.readouterr().err


def test_infinite_fit_options_are_refused(tmp_path, capsys):
    # a sign-only check lets inf through: the online codebook then turns non-finite,
    # and every Weiszfeld solve stops after one step as converged
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    for argv, name in ((("--algorithm", "online", "--c-gamma", "inf"), "c_gamma"),
                       (("--median-tol", "inf"), "median_tol")):
        out = tmp_path / "out"
        assert run_cli("cluster", "--input", data, "--k", 2, *argv, "--out", out) == 3
        assert f"{name} must be positive and finite, got inf" in capsys.readouterr().err
        assert not out.exists()


def test_repeated_column_name_is_refused(tmp_path, capsys):
    # a second `label` column would otherwise be fitted as a coordinate
    data = tmp_path / "repeated.csv"
    data.write_text("x0,label,label\n1.0,0,0\n2.0,0,0\n9.0,1,1\n10.0,1,1\n")
    assert run_cli("cluster", "--input", data, "--k", 2, "--out", tmp_path / "o") == 3
    assert "column 'label' appears more than once" in capsys.readouterr().err
    # names are compared after stripping, as the columns are read
    data.write_text("x0, x0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="column 'x0' appears more than once"):
        load_csv(str(data))


def test_scenario_flags_rejected_with_input(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    for flags in (("--rho", 0.3), ("--law", "uniform"), ("--points-per-cluster", 10)):
        out = tmp_path / "o"
        assert run_cli("cluster", "--input", data, "--k", 2, *flags, "--out", out) == 2
        assert f"{flags[0]} given with --input" in capsys.readouterr().err
        assert not (out / "report.json").exists()
    assert run_cli("evaluate", "--input", data, "--labels", data, "--rho", 0.1,
                   "--out", tmp_path / "e") == 2
    # a flag at its default shapes nothing and is accepted, so that the report
    # of an --input run, which echoes every default, replays
    for flags in (("--rho", 0), ("--law", "t1")):
        out = tmp_path / f"ok{flags[0]}"
        assert run_cli("cluster", "--input", data, "--k", 2, *flags, "--out", out) == 0
    assert run_cli("--config", out / "report.json", "--out", tmp_path / "replay") == 0
    assert (out / "labels.csv").read_bytes() == (tmp_path / "replay" / "labels.csv").read_bytes()


def test_refused_runs_leave_no_output_directory(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1\n1.0,oops\n")
    pred = tmp_path / "pred.csv"
    pred.write_text("label\n0\n")
    four = tmp_path / "four.csv"
    four.write_text("x0,label\n1.0,0\n2.0,0\n3.0,1\n4.0,1\n")
    # a headerless label column, and rows ragged or non-numeric outside the label column
    headerless, ragged = tmp_path / "headerless.csv", tmp_path / "ragged.csv"
    headerless.write_text("1\n0\n0\n1\n1\n")
    ragged.write_text("label,extra\n0,a\n0\n1,zz\n1,\n")
    # a repeated column name, whose second `label` column would be read as a coordinate
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("x0,label,label\n1.0,0,0\n2.0,0,0\n3.0,1,1\n4.0,1,1\n")
    for code, argv in (
            (2, ("cluster", "--input", data, "--k", 2, "--rho", 0.2)),
            (3, ("cluster", "--input", bad, "--k", 1)),
            (3, ("cluster", "--input", data, "--k", 500)),
            (3, ("cluster", "--input", data, "--k", 2, "--max-iter", 0)),
            (3, ("cluster", "--input", data, "--k", 2, "--algorithm", "online",
                 "--max-iter", 0)),
            (3, ("cluster", "--input", data, "--k", 2, "--n-start", 0)),
            (3, ("select", "--input", data, "--method", "silhouette", "--k-max", 81)),
            (2, ("select", "--scenario", "s2", "--k-max", 4, "--algorithm", "nope")),
            (3, ("select", "--scenario", "s2", "--k-max", 4, "--rho", 0.7)),
            (3, ("simulate", "--scenario", "s2", "--rho", -0.1)),
            (2, ("simulate", "--scenario", "s2", "--input", data)),
            (3, ("bench", "--scenario", "s2", "--alpha", 2)),
            (3, ("bench", "--scenario", "s2", "--n-start", -2, "--trials", 1,
                 "--k-max", 3)),
            (2, ("bench", "--scenario", "s2", "--input", data)),
            (2, ("evaluate", "--input", data, "--labels", pred, "--rho", 0.1)),
            (3, ("evaluate", "--input", data, "--labels", pred)),
            (3, ("evaluate", "--input", four, "--labels", headerless)),
            (3, ("evaluate", "--input", four, "--labels", ragged)),
            (3, ("bench", "--scenario", "s2", "--trials", 1, "--k-max", 0)),
            (2, ("simulate", "--scenario", "s2", "--points-per-cluster", 50)),
            (2, ("cluster", "--scenario", "s1", "--k", 2, "--points-per-cluster", 10)),
            (2, ("bench", "--scenario", "s3", "--points-per-cluster", 10, "--trials", 1,
                 "--k-max", 3)),
            (3, ("simulate", "--scenario", "sphere10", "--points-per-cluster", 0)),
            (3, ("bench", "--scenario", "sphere10", "--points-per-cluster", 0, "--trials", 1,
                 "--k-max", 3)),
            (2, ("select", "--input", data, "--method", "none", "--k", 3, "--k-max", 5)),
            (2, ("select", "--input", data, "--method", "none", "--k", 3, "--min-window", 3)),
            # refusals by the parsers: each returns 2 rather than exiting the process
            (2, ("frob",)),
            (2, ("cluster", "--input", data, "--k", "abc")),
            (2, ("cluster", "--scenario", "bogus", "--k", 2)),
            (2, ("cluster", "--input", data, "--k", 2, "--algorithm", "spectral")),
            (2, ("bench", "--scenario", "s2", "--trials", 1, "--k-max", 3,
                 "--algorithm", "online,nope")),
            (2, ("cluster", "--input", data)),
            (2, ("select", "--input", data)),
            (2, ("evaluate", "--input", data)),
            (2, ("cluster", "--k", 2)),
            (2, ("cluster", "--input", data, "--scenario", "s2", "--k", 2)),
            (2, ("select", "--input", data, "--k", 3)),
            (2, ("select", "--input", data, "--k", 3, "--k-max", 5)),
            (2, ("select", "--input", data, "--method", "none", "--k-max", 5)),
            (2, ("bench", "--scenario", "s2", "--trials", 1, "--rho", "0,abc")),
            (2, ("bench", "--scenario", "s2", "--trials", 1, "--k-max", 3, "--rho", "")),
            # options must be spelled in full: no prefix stands for --k-max or --gini-threshold
            (2, ("bench", "--scenario", "s2", "--trials", 1, "--k", 3)),
            (2, ("cluster", "--input", data, "--k", 2, "--gini", 0.5)),
            (2, ("select", "--input", data, "--method", "gap", "--k-max", 5,
                 "--min-window", 3)),
            (2, ("select", "--input", data, "--method", "silhouette", "--k-max", 5,
                 "--min-window", 3)),
            (2, ("bench", "--scenario", "s2", "--method", "gap", "--min-window", 3,
                 "--trials", 1, "--k-max", 3)),
            (2, ("bench", "--scenario", "s2", "--method", "silhouette", "--min-window", 3,
                 "--trials", 1, "--k-max", 3)),
            (3, ("cluster", "--input", repeated, "--k", 2)),
            *((3, ("select", "--scenario", "s2", "--k-max", 6, "--min-window", w))
              for w in (-5, 0, 1, 6, 99)),
            (3, ("bench", "--scenario", "s2", "--trials", 1, "--k-max", 4,
                 "--min-window", 4)),
            # a negative seed, a subcommand flag before the subcommand, --config without a path
            (3, ("cluster", "--input", data, "--k", 2, "--seed", -1)),
            (2, ("--seed", 3, "cluster", "--input", data, "--k", 2)),
            (2, ("--config",))):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", out) == code, argv
        assert not out.exists(), argv
    empty, listed = tmp_path / "empty.json", tmp_path / "list.json"
    empty.write_text("{}")
    listed.write_text("[]")
    # a report of the removed `select --method none --k` replays to a refusal
    old_none = tmp_path / "none.json"
    old_none.write_text(json.dumps({"command": "select", "config": {
        "input": str(data), "method": "none", "k": 2, "k_max": None}}))
    # --out comes first here, so that it is not read as the --config path
    for code, config in ((2, ()), (3, (tmp_path / "missing.json",)), (3, (listed,)),
                         (2, (empty,)), (2, (old_none,))):
        out = tmp_path / "out"
        assert run_cli("--out", out, "--config", *config) == code, config
        assert not out.exists(), config


def test_every_subcommand_writes_its_report_and_outputs(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    fit = ("command", "config", "selection", "clustering", "evaluation", "outputs")
    curves = {"labels": "labels.csv", "curve": "curve.csv", "projection": "projection.csv"}
    for i, (argv, keys, outputs) in enumerate((
            (("cluster", "--input", data, "--k", 2), fit, {"labels": "labels.csv"}),
            (("select", "--input", data, "--method", "slope", "--k-max", 4), fit,
             {**curves, "windows": "windows.csv"}),
            (("select", "--input", data, "--method", "gap", "--k-max", 3, "--gap-b", 2),
             fit, curves),
            (("simulate", "--scenario", "s1"), ("command", "config", "dataset", "outputs"),
             {"dataset": "dataset.csv"}),
            (("bench", "--scenario", "sphere10", "--points-per-cluster", 10, "--trials", 1,
              "--k-max", 3, "--algorithm", "kmeans"), ("command", "config", "rows", "outputs"),
             {"summary": "summary.csv"}),
            (("evaluate", "--input", data, "--labels", data),
             ("command", "config", "evaluation", "outputs"), {}))):
        out = tmp_path / f"run{i}"
        assert run_cli(*argv, "--out", out) == 0, argv
        report = json.loads((out / "report.json").read_text())
        assert tuple(report) == keys, argv
        assert list(report["outputs"].items()) == list(outputs.items()), argv
        assert sorted(p.name for p in out.iterdir()) == \
            sorted([*outputs.values(), "report.json"]), argv


def test_header_required(tmp_path):
    data = tmp_path / "noheader.csv"
    data.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError, match="header"):
        load_csv(str(data))


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    # read as part of the first name, a BOM turned `label` into a coordinate
    data = tmp_path / "bom.csv"
    data.write_bytes(b"\xef\xbb\xbflabel,x,y\n0,1.0,2.0\n0,1.5,2.5\n1,9.0,9.0\n1,9.5,8.5\n")
    points, labels, mask = load_csv(str(data))
    assert points.tolist() == [[1.0, 2.0], [1.5, 2.5], [9.0, 9.0], [9.5, 8.5]]
    assert labels.tolist() == [0, 0, 1, 1] and mask is None
    pred = tmp_path / "pred.csv"
    pred.write_bytes(b"\xef\xbb\xbflabel\n1\n1\n0\n0\n")
    assert run_cli("evaluate", "--input", data, "--labels", pred, "--out", tmp_path / "e") == 0
    report = json.loads((tmp_path / "e" / "report.json").read_text())
    assert report["evaluation"] == {"ari": 1.0, "n": 4}


def test_cli_reaches_traced_entry_points(tmp_path, monkeypatch):
    """cluster and select call the module-level names the benchmark's tracer patches."""
    calls = Counter()
    for name in ("run_clustering", "run_selection", "load_csv", "_write_csv", "write_report"):
        def counted(*args, _name=name, _fn=getattr(kmedians.cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(kmedians.cli, name, counted)
    data = tmp_path / "data.csv"
    write_blobs_csv(data)

    assert run_cli("cluster", "--input", data, "--k", 2, "--out", tmp_path / "cl") == 0
    assert calls == {"load_csv": 1, "run_clustering": 1, "_write_csv": 1, "write_report": 1}
    calls.clear()
    assert run_cli("select", "--input", data, "--method", "slope", "--k-max", 4,
                   "--out", tmp_path / "se") == 0
    # labels, curve, windows and projection
    assert calls == {"load_csv": 1, "run_selection": 1, "_write_csv": 4, "write_report": 1}


# ---------------------------------------------------------------------------
# select


def test_select_slope_two_blobs(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    out = tmp_path / "run"
    assert run_cli("select", "--input", data, "--method", "slope", "--k-max", 6,
                   "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["selection"]["k_hat"] == 2
    assert report["selection"]["slope_constant"] > 0
    assert (out / "curve.csv").exists()
    assert (out / "windows.csv").exists()
    proj_rows = list(csv.DictReader(open(out / "projection.csv")))
    assert len(proj_rows) == 80 and set(proj_rows[0]) == {"pc1", "pc2", "label"}


def test_select_s2_slope_offline_finds_4(tmp_path):
    out = tmp_path / "run"
    assert run_cli("select", "--scenario", "s2", "--method", "slope", "--k-max", 15,
                   "--seed", 1, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["selection"]["k_hat"] == 4
    assert report["evaluation"]["centroid_l1_error"] < 2.0


def test_select_gap_and_silhouette_write_curves(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    for method in ("gap", "silhouette"):
        out = tmp_path / method
        assert run_cli("select", "--input", data, "--method", method, "--k-max", 4,
                       "--algorithm", "online", "--gap-b", 4, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["selection"]["method"] == method
        rows = list(csv.DictReader(open(out / "curve.csv")))
        assert [int(r["k"]) for r in rows] == report["selection"]["ks"]


def test_select_flag_conflicts(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    assert run_cli("select", "--input", data, "--method", "slope", "--k", 2,
                   "--out", tmp_path / "o") == 2
    assert run_cli("select", "--input", data, "--method", "slope",
                   "--out", tmp_path / "o") == 2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_s3_shape(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--scenario", "s3", "--seed", 4, "--out", out) == 0
    rows = list(csv.DictReader(open(out / "dataset.csv")))
    assert len(rows) == 2500
    assert set(rows[0]) == {"x0", "x1", "x2", "x3", "label", "contaminated"}


def test_simulate_contamination_fraction(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--scenario", "s2", "--rho", 0.1, "--law", "t1",
                   "--seed", 4, "--out", out) == 0
    rows = list(csv.DictReader(open(out / "dataset.csv")))
    assert sum(int(r["contaminated"]) for r in rows) == 200


def test_simulate_roundtrips_through_load(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--scenario", "s2", "--rho", 0.05, "--seed", 9,
                   "--out", out) == 0
    points, labels, mask = load_csv(str(out / "dataset.csv"))
    assert points.shape == (2000, 3)
    assert mask.sum() == 100
    assert (labels[mask] == -1).all()


def test_simulate_rejects_out_of_range_rho(tmp_path, capsys):
    for rho in (-0.1, 0.6):
        out = tmp_path / str(rho)
        assert run_cli("simulate", "--scenario", "s2", "--rho", rho, "--out", out) == 3
        assert "rho must lie in [0, 0.5]" in capsys.readouterr().err
        assert not (out / "dataset.csv").exists()


# ---------------------------------------------------------------------------
# bench


def test_bench_small_sphere(tmp_path):
    out = tmp_path / "run"
    assert run_cli("bench", "--scenario", "sphere10", "--points-per-cluster", 20,
                   "--trials", 2, "--k-max", 12, "--rho", "0,0.25",
                   "--algorithm", "online,kmeans", "--seed", 5, "--out", out) == 0
    rows = list(csv.DictReader(open(out / "summary.csv")))
    assert len(rows) == 4  # 2 algorithms x 2 rho values
    for row in rows:
        assert int(row["trials"]) == 2
        assert 0 <= int(row["n_correct"]) <= 2
        assert -1.0 <= float(row["ari_mean"]) <= 1.0
    assert {r["algorithm"] for r in rows} == {"online", "kmeans"}


def test_bench_rejects_bad_rho_before_first_trial(tmp_path, monkeypatch, capsys):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before the rho list was checked")

    monkeypatch.setattr(kmedians.cli, "run_selection", no_trial)
    for rhos in ("-0.2", "0,0.9"):
        out = tmp_path / rhos
        assert run_cli("bench", "--scenario", "sphere10", "--points-per-cluster", 20,
                       "--trials", 1, "--k-max", 4, "--rho", rhos, "--out", out) == 3
        assert "rho must lie in [0, 0.5]" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_labels(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    pred = tmp_path / "pred.csv"
    with open(pred, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["label"])
        for lab in np.repeat([1, 0], 40):
            w.writerow([lab])
    out = tmp_path / "run"
    assert run_cli("evaluate", "--input", data, "--labels", pred, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["evaluation"]["ari"] == 1.0


def test_evaluate_takes_center_files_as_a_pair(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    pred = tmp_path / "pred.csv"
    pred.write_text("label\n" + "\n".join(["0"] * 40 + ["1"] * 40) + "\n")
    centers = tmp_path / "centers.csv"
    centers.write_text("x0,x1\n-10.0,0.0\n10.0,0.0\n")
    base = ("evaluate", "--input", data, "--labels", pred)
    assert run_cli(*base, "--true-centers", centers, "--out", tmp_path / "a") == 2
    assert run_cli(*base, "--pred-centers", centers, "--out", tmp_path / "b") == 2
    assert run_cli(*base, "--true-centers", centers, "--pred-centers", centers,
                   "--out", tmp_path / "c") == 0
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert list(report["evaluation"]) == ["ari", "n", "centroid_l1_error"]
    assert report["evaluation"]["centroid_l1_error"] == 0.0


# ---------------------------------------------------------------------------
# determinism and config round-trip


def test_select_deterministic_outputs(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    out = tmp_path / "run"
    snapshots = []
    for _ in range(2):
        assert run_cli("select", "--input", data, "--method", "slope", "--k-max", 5,
                       "--seed", 3, "--out", out) == 0
        snapshots.append(tree_bytes(out))
    assert snapshots[0] == snapshots[1]


def test_report_json_roundtrips_losslessly(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    out = tmp_path / "run"
    assert run_cli("cluster", "--input", data, "--k", 2, "--out", out) == 0
    text = (out / "report.json").read_text()
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_config_roundtrip_reproduces_run(tmp_path, monkeypatch):
    cwd_a = tmp_path / "wa"
    cwd_b = tmp_path / "wb"
    for d in (cwd_a, cwd_b):
        d.mkdir()
    data = tmp_path / "data.csv"
    write_blobs_csv(data)

    monkeypatch.chdir(cwd_a)
    assert run_cli("select", "--input", data, "--method", "slope", "--k-max", 5,
                   "--seed", 8, "--out", "run") == 0
    first = tree_bytes(cwd_a / "run")

    monkeypatch.chdir(cwd_b)
    assert run_cli("--config", cwd_a / "run" / "report.json") == 0
    second = tree_bytes(cwd_b / "run")
    assert first == second


def test_config_replays_under_another_subcommand(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    assert run_cli("select", "--input", data, "--method", "slope", "--k-max", 4,
                   "--gap-b", 7, "--out", tmp_path / "sel") == 0
    out = tmp_path / "cl"
    assert run_cli("--config", tmp_path / "sel" / "report.json", "cluster", "--k", 2,
                   "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "cluster"
    assert report["config"]["k"] == 2 and report["config"]["input"] == str(data)
    assert not {"gap_b", "k_max", "method", "min_window",
                "silhouette_metric"} & set(report["config"])


def test_config_replay_of_input_report(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    assert run_cli("cluster", "--input", data, "--k", 2, "--out", tmp_path / "a") == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert (report["config"]["rho"], report["config"]["law"]) == (0.0, "t1")
    assert run_cli("--config", tmp_path / "a" / "report.json", "--out", tmp_path / "b") == 0
    assert (tmp_path / "a" / "labels.csv").read_bytes() == \
        (tmp_path / "b" / "labels.csv").read_bytes()


def test_config_replay_of_a_report_without_min_window(tmp_path):
    # a gap report echoes min_window: null, which replays as no --min-window
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    assert run_cli("select", "--input", data, "--method", "gap", "--k-max", 3, "--gap-b", 2,
                   "--out", tmp_path / "a") == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["config"]["min_window"] is None
    assert run_cli("--config", tmp_path / "a" / "report.json", "--out", tmp_path / "b") == 0
    assert (tmp_path / "a" / "curve.csv").read_bytes() == \
        (tmp_path / "b" / "curve.csv").read_bytes()


def test_config_with_equals_sign_replays_the_seed(tmp_path):
    assert run_cli("cluster", "--scenario", "s2", "--k", 3, "--algorithm", "kmeans",
                   "--init", "plus_plus_l1", "--seed", 3, "--out", tmp_path / "a") == 0
    assert run_cli(f"--config={tmp_path / 'a' / 'report.json'}", "--out", tmp_path / "b") == 0
    replayed = json.loads((tmp_path / "b" / "report.json").read_text())
    assert replayed["config"]["seed"] == 3
    assert (tmp_path / "a" / "labels.csv").read_bytes() == \
        (tmp_path / "b" / "labels.csv").read_bytes()


@pytest.mark.parametrize("flags", [("--seed", 3), ("--out", "cluster"), ("--verbose",)])
def test_config_takes_the_subcommand_after_flags(tmp_path, monkeypatch, flags):
    # the subcommand after subcommand flags is still the subcommand, but a flag's value
    # that names one (`--out cluster`) is not
    monkeypatch.chdir(tmp_path)
    assert run_cli("cluster", "--scenario", "s2", "--k", 2, "--out", tmp_path / "a") == 0
    cfg = tmp_path / "a" / "report.json"
    out = tmp_path / "b"
    assert run_cli("--config", cfg, *flags, "cluster", "--out", out) == 0
    replayed = json.loads((out / "report.json").read_text())
    assert replayed["command"] == "cluster"
    assert replayed["config"]["seed"] == (3 if flags[0] == "--seed" else 0)
    assert run_cli("--config", cfg, "--out", "cluster") == 0
    assert json.loads(Path("cluster", "report.json").read_text())["command"] == "cluster"


def test_empty_config_path_is_a_config_error(tmp_path, monkeypatch, capsys):
    # as a bare --config is, rather than a read of the directory '.'
    monkeypatch.chdir(tmp_path)
    assert run_cli("--config=") == 2
    assert "config error: kmedians: argument --config: expected a path" in \
        capsys.readouterr().err
    assert run_cli("--config=", "cluster", "--scenario", "s2", "--k", 2) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("before", [("--seed", 3), ("--verbose",), ("--out", "early")])
def test_a_flag_before_the_subcommand_is_named(tmp_path, monkeypatch, capsys, before):
    # refused, not read as the subcommand (`invalid choice: '3'`) or left over
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert run_cli(*before, "cluster", "--scenario", "s2", "--k", 2, "--out", out) == 2
    assert f"kmedians: {before[0]} must follow the subcommand" in capsys.readouterr().err
    assert not out.exists() and not Path("early").exists()


@pytest.mark.parametrize("doc", ["[]", "3", '"select"', '{"config": [1]}'])
def test_config_document_must_be_an_object(tmp_path, capsys, doc):
    cfg = tmp_path / "c.json"
    cfg.write_text(doc)
    assert run_cli("--config", cfg) == 3
    assert "error: --config: document must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", [5, ["select"], {"cluster": 1}, True])
def test_config_command_must_be_a_string(tmp_path, capsys, command):
    # refused as a malformed document, not a TypeError from the replay
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": command, "config": {"k": 2}}))
    assert run_cli("--config", cfg) == 3
    assert f"error: --config: command must be a string, got {command!r}" in \
        capsys.readouterr().err


def test_undecodable_input_names_its_file(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_blobs_csv(data)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x0,label\n1.0,0\n2.\xff,1\n")
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b'{"command": "\xff"}')
    for argv, where in ((("cluster", "--input", bad, "--k", 1), bad),
                        (("evaluate", "--input", data, "--labels", bad), bad),
                        (("--config", cfg), "--config")):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", out) == 3, argv
        assert f"error: {where}: 'utf-8' codec can't decode byte 0xff" in \
            capsys.readouterr().err
        assert not out.exists(), argv
