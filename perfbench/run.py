#!/usr/bin/env python3
"""Closed-loop benchmark of the kmedians command line.

    python3 perfbench/run.py --workload select-offline --seed 1 --seconds 25 --trace 0

Run from the root of a kmedians source checkout. One client runs one job
at a time; a job is an in-process call to `kmedians.cli.main` with
`--input <csv> --out <dir>`, the path a user takes. Set-up (import
kmedians, draw the seeded datasets, write them as CSV) is done three
times before the first job and once more after every job, and its
median reported. Jobs run in rounds, each round every kind of job of the
workload once; rounds go on until `--seconds` have passed and both of
the workload's rounds of distinct datasets have run.

After each job, outside the timed region, the outputs are checked and
scored. With `--trace 1` every job runs twice, untraced then traced, so
the tracing overhead is measured on the same jobs, and the per-layer
metrics are reported instead of the end-to-end ones.

The last line of standard output is the result object. The full record
(environment, every job, every metric) goes to perfbench/out/results/
or to --record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_FIRST = 3
# A single closed-loop client: one BLAS/OpenMP thread keeps the timings
# steady on a shared machine and is within nproc everywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True, help="drives every dataset")
    p.add_argument("--seconds", type=float, required=True, help="target measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--record", type=Path, default=None,
                   help="where to write the full JSON record "
                        "(default perfbench/out/results/<workload>-...json)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    args = parse_args(argv, list(workloads))
    if not (SRC / "kmedians" / "__init__.py").is_file():
        print(f"error: no kmedians sources under {SRC}; run from a kmedians checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    # fixed-width name: report.json echoes these paths, and its size is counted
    work = OUT / f"work-{args.workload}-{os.getpid():08d}"
    try:
        record, tracer, t_start = run(args, workloads[args.workload], work)
    except LookupError as e:   # a tracing hook lost its target
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, spec, record, tracer, t_start)


# ---------------------------------------------------------------------------
# set-up


def set_up(workloads, workload: str, seed: int, work: Path):
    """Import kmedians afresh, draw the datasets and write them as CSV.

    Returns (kmedians module, datasets, rounds, set-up seconds, generation seconds).
    """
    for name in [m for m in sys.modules if m == "kmedians" or m.startswith("kmedians.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    km = importlib.import_module("kmedians")
    importlib.import_module("kmedians.cli")
    t_gen = time.perf_counter()
    datasets, rounds = workloads.make_workload(km.simulation, workload, seed)
    gen_s = time.perf_counter() - t_gen
    (work / "in").mkdir(parents=True, exist_ok=True)
    for key, data in datasets.items():
        workloads.write_points_csv(work / "in" / f"{key}.csv", data.points)
    setup_s = time.perf_counter() - t0
    if not Path(km.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported kmedians from {km.__file__}, not from {SRC}")
    return km, datasets, rounds, setup_s, gen_s


# ---------------------------------------------------------------------------
# jobs


def execute(km, job, key: str, round_no: int, exec_id: int, work: Path, tracer):
    """Run one job; returns its wall time, exit code and error text."""
    out = work / "out" / key   # one directory per distinct job, so reruns compare
    shutil.rmtree(out, ignore_errors=True)
    argv = [*job.argv, "--input", str(work / "in" / f"{job.dataset}.csv"), "--out", str(out)]
    scope = tracer.job(km, exec_id) if tracer is not None else contextlib.nullcontext()
    rc, error = None, None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with scope:
            rc = km.cli.main(argv)
    except SystemExit as e:  # argparse rejects bad flags by exiting
        rc = e.code
    except Exception as e:  # a failing job is counted, it does not stop the run
        error = f"{type(e).__name__}: {e}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"key": key, "round": round_no, "kind": job.kind, "dataset": job.dataset,
            "exec": exec_id, "traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "rc": rc, "error": error}


def _nearest(np, points, centers):
    diff = points[:, None, :] - centers[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2)).min(axis=1)


def check(km, np, job, data, out: Path):
    """Check one job's outputs. Returns (problems, outputs as bytes, parsed outputs)."""
    report_bytes = (out / "report.json").read_bytes()
    labels_bytes = (out / "labels.csv").read_bytes()
    report = json.loads(report_bytes)
    block = report["clustering"]
    k = block["k"]
    centers = np.asarray(block["centers"], dtype=float)
    labels = np.loadtxt(out / "labels.csv", dtype=np.int64, skiprows=1, ndmin=1)
    points = data.points
    problems = []
    if centers.shape != (k, points.shape[1]):
        problems.append(f"centers have shape {centers.shape}, expected ({k}, {points.shape[1]})")
    elif not np.isfinite(centers).all():
        problems.append("centers are not finite")
    lo, hi = job.k_range
    sel = report.get("selection")
    if sel is not None:
        ks = sel["ks"]
        if sel["k_hat"] not in ks or min(ks) < lo or max(ks) > hi:
            problems.append(f"selected k={sel['k_hat']} from candidates {ks}, range [{lo}, {hi}]")
        if sel["k_hat"] != k:
            problems.append(f"clustering has k={k}, selection chose {sel['k_hat']}")
    elif not lo <= k <= hi:
        problems.append(f"fitted k={k}, asked for {lo}")
    if not problems:
        if labels.shape != (points.shape[0],) or not np.array_equal(
                labels, km.assign(points, centers)):
            problems.append("labels.csv differs from assign(points, centers)")
        dmin = _nearest(np, points, centers)
        expected = dmin.mean() if job.norm == "l1" else (dmin * dmin).mean()
        if not math.isclose(block["distortion"], expected, rel_tol=1e-9):
            problems.append(f"distortion {block['distortion']!r} != recomputed {expected!r}")
    return problems, (report_bytes, labels_bytes), (k, centers, labels, block["distortion"])


def score(km, np, job, data, parsed):
    """Quality of one job against the generating truth; also returns its time."""
    k, centers, labels, distortion = parsed
    keep = ~data.contaminated
    t0 = time.perf_counter()
    ari = km.evaluation.adjusted_rand_index(data.true_labels[keep], labels[keep])
    l1 = km.evaluation.centroid_l1_error(data.centers, centers)
    score_s = time.perf_counter() - t0
    dref = _nearest(np, data.points, data.centers)
    ref = dref.mean() if job.norm == "l1" else (dref * dref).mean()
    return {"k": k, "k_true": data.k_true, "ari": ari, "l1_error": l1,
            "distortion": distortion, "distortion_ratio": distortion / ref}, score_s


class Loop:
    """The closed loop: runs, checks and scores jobs round by round.

    The first run of each distinct job (round, position) is scored and its
    outputs kept; every rerun must repeat them byte for byte, and every
    traced rerun must repeat the first traced run's work counts.
    """

    def __init__(self, np, setup, work: Path, tracer):
        self.np, self.setup, self.work, self.tracer = np, setup, work, tracer
        self.km, self.datasets, self.rounds = setup()
        self.execs: list[dict] = []
        self.first: dict[str, tuple] = {}
        self.first_counts: dict[str, dict] = {}
        self.quality: dict[str, dict] = {}
        self.score_s: dict[str, float] = {}

    def run(self, seconds: float) -> tuple[int, float]:
        """Run rounds until both rounds of distinct jobs have run and the time is
        used: a further round starts only if it would end nearer `seconds` than
        stopping now. Returns (rounds run, elapsed seconds)."""
        t0 = time.perf_counter()
        n, elapsed = 0, 0.0
        while n < len(self.rounds) or elapsed + elapsed / n / 2 < seconds:
            r = n % len(self.rounds)
            for j, job in enumerate(self.rounds[r]):
                for traced in ((False, True) if self.tracer is not None else (False,)):
                    self.one(job, f"{r}.{j}", n, traced)
                # set-up is timed again between jobs, so its samples span the run
                self.km, self.datasets, self.rounds = self.setup()
            n += 1
            elapsed = time.perf_counter() - t0
        return n, elapsed

    def one(self, job, key: str, round_no: int, traced: bool) -> None:
        np, tracer = self.np, self.tracer if traced else None
        e = execute(self.km, job, key, round_no, len(self.execs), self.work, tracer)
        self.execs.append(e)
        problems = []
        if e["error"] is not None or e["rc"] != 0:
            problems.append(e["error"] or f"exit code {e['rc']}")
        else:
            data = self.datasets[job.dataset]
            try:
                problems, outputs, parsed = check(self.km, np, job, data,
                                                  self.work / "out" / key)
            except (OSError, ValueError, KeyError, TypeError) as err:
                problems = [f"unreadable outputs: {type(err).__name__}: {err}"]
            if not problems:
                if key not in self.first:
                    self.first[key] = outputs
                    self.quality[key], self.score_s[key] = score(self.km, np, job, data,
                                                                 parsed)
                elif outputs != self.first[key]:
                    problems.append("outputs differ from the first run of this job")
        if traced:
            counts = dict(self.tracer.counts[e["exec"]])
            e["counts"] = counts
            if self.first_counts.setdefault(key, counts) != counts:
                problems.append("work counts differ from the first traced run of this job")
        e["problems"] = problems


# ---------------------------------------------------------------------------
# metrics


def _walls(execs, traced):
    return [e["wall_s"] for e in execs if e["traced"] == traced]


def end_to_end(execs, quality, setup_s):
    walls = _walls(execs, traced=False)
    q = [quality[key] for key in sorted(quality)]
    failed = sum(bool(e["problems"]) for e in execs)
    return {
        "jobs_per_s": (len(walls) / sum(walls), "1/s"),
        "job_s_p50": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_frac": (failed / len(execs), "ratio"),
        "k_true_frac": (statistics.fmean(r["k"] == r["k_true"] for r in q) if q else 0.0,
                        "ratio"),
        "ari_mean": (statistics.fmean(r["ari"] for r in q) if q else 0.0, "ARI"),
        "l1_error_median": (statistics.median(r["l1_error"] for r in q) if q else 0.0, "L1"),
        "distortion_mean": (statistics.fmean(r["distortion_ratio"] for r in q) if q else 0.0,
                            "ratio"),
    }


def per_layer(tracing, execs, n_distinct, tracer, gen_s, score_s):
    """Per-layer work counts and self times over the first run of each distinct job."""
    first = [e for e in execs if e["traced"] and e["round"] < n_distinct]
    counts = {name: 0 for name in tracing.COUNTS}
    self_s = {metric: 0.0 for metric in tracing.SELF_TIMES}
    for e in first:
        for name, value in e["counts"].items():
            counts[name] += int(value)
        times = tracer.self_times(e["exec"])
        e["self_s"] = dict(times)
        for metric, spans in tracing.SELF_TIMES.items():
            self_s[metric] += sum(times.get(s, 0.0) for s in spans)
    out = {name: (value, "bytes" if "bytes" in name else "count")
           for name, value in counts.items()}
    out.update({metric: (value, "s") for metric, value in self_s.items()})
    out["simulation.generate_s"] = (statistics.median(gen_s), "s")
    out["evaluation.score_s"] = (sum(score_s.values()), "s")
    out["trace.overhead_frac"] = (sum(_walls(execs, True)) / sum(_walls(execs, False)) - 1,
                                  "ratio")
    return out


def environment(np):
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):   # older numpy: no dict mode
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }


def run(args, why: str, work: Path):
    """Set up, run the closed loop and compute the metrics.

    Returns (record, tracer or None, loop start time).
    """
    import numpy as np

    import tracing
    import workloads

    setup_s, gen_s = [], []

    def setup():
        km, datasets, rounds, s, g = set_up(workloads, args.workload, args.seed, work)
        setup_s.append(s)
        gen_s.append(g)
        return km, datasets, rounds

    for _ in range(SETUP_FIRST - 1):
        setup()
    tracer = tracing.Tracer() if args.trace else None
    loop = Loop(np, setup, work, tracer)
    if tracer is not None:
        missing = tracing.missing_hooks(loop.km)
        if missing:
            raise LookupError("tracing hooks without a target: "
                              + ", ".join(f"kmedians.{p}" for p in missing))
    t_start = time.perf_counter()
    n_rounds, elapsed = loop.run(args.seconds)
    execs = loop.execs
    metrics = end_to_end(execs, loop.quality, setup_s)
    if tracer is not None:
        metrics.update(per_layer(tracing, execs, len(loop.rounds), tracer, gen_s,
                                 loop.score_s))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": why,
        "environment": environment(np),
        "rounds": [[{"kind": job.kind, "dataset": job.dataset, "argv": list(job.argv)}
                    for job in jobs] for jobs in loop.rounds],
        "rounds_run": n_rounds, "elapsed_s": elapsed, "setup_s": setup_s, "generate_s": gen_s,
        "attempted": len(execs),
        "failed": sum(bool(e["problems"]) for e in execs),
        "samples": sum(not e["traced"] for e in execs),
        "quality": dict(sorted(loop.quality.items())),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "jobs": execs,
    }, tracer, t_start


def report(args, spec, record, tracer, t_start) -> int:
    path = args.record or (OUT / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write_spans(path.with_suffix(".spans.tsv"), t_start)

    for e in record["jobs"]:
        if e["problems"]:
            print(f"FAILED {e['kind']} (job {e['key']}): {'; '.join(e['problems'])}")
    print(f"workload {args.workload} seed {args.seed}: {record['samples']} timed jobs "
          f"in {record['rounds_run']} rounds, {record['elapsed_s']:.1f} s; "
          f"{len(record['setup_s'])} set-ups")
    for name, m in record["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"record {path}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
