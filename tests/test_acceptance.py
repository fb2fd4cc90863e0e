"""Acceptance gate: one test per criterion, one printed verdict line each.

Criteria 1-7 are fast property checks; 8-12 are desk-scaled statistical
reproductions (20 trials instead of 50, 200 points per cluster instead of
500 for the sphere study). Criterion 12 is monitored, not gated.
"""

import csv
import json
from pathlib import Path

import numpy as np

from kmedians import (
    ContaminationSpec,
    DistortionCurve,
    InitMethod,
    MixtureSpec,
    adjusted_rand_index,
    asg_median,
    contaminate,
    gap_select,
    l1_objective,
    lloyd_kmedians,
    make_scenario,
    run_selection,
    sample_mixture,
    slope_select,
    sphere_centers,
    weiszfeld_median,
)
from kmedians.cli import main as cli_main


def verdict(ok: bool, criterion: str, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. geometric median vs exact 1-D sample median


def test_criterion_1_weiszfeld_matches_1d_median():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = 2 * int(rng.integers(1, 50)) + 1
        x = rng.normal(loc=rng.uniform(-20, 20), scale=rng.uniform(0.1, 10), size=n)
        est = weiszfeld_median(x, tol=1e-10, max_iter=500)
        worst = max(worst, abs(est.point[0] - np.median(x)))
    verdict(worst <= 1e-6, "criterion 1",
            f"200 odd 1-D sets, max |estimate - exact median| = {worst:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 2. grid oracle + monotone descent


def test_criterion_2_weiszfeld_grid_oracle_and_descent():
    rng = np.random.default_rng(102)
    worst_gap = -np.inf
    for _ in range(50):
        n = int(rng.integers(3, 11))
        x = rng.uniform(-8, 8, size=(n, 2)) * rng.uniform(0.2, 3)
        # monotone descent along the actual iterate sequence
        m = np.median(x, axis=0) + rng.normal(scale=0.1, size=2)
        prev = l1_objective(x, m)
        for _ in range(60):
            m = weiszfeld_median(x, tol=1e-12, max_iter=1, start=m).point
            cur = l1_objective(x, m)
            assert cur <= prev + 1e-12, "descent violated"
            prev = cur
        est = weiszfeld_median(x, tol=1e-10, max_iter=500)
        lo, hi = x.min(axis=0), x.max(axis=0)
        grid = np.stack(np.meshgrid(np.linspace(lo[0], hi[0], 400),
                                    np.linspace(lo[1], hi[1], 400)), -1).reshape(-1, 2)
        grid_best = np.linalg.norm(x[:, None, :] - grid[None, :, :], axis=2).mean(0).min()
        worst_gap = max(worst_gap, est.objective - grid_best)
    verdict(worst_gap <= 1e-3, "criterion 2",
            f"50 grid instances, max (weiszfeld - grid minimum) = {worst_gap:.2e} "
            f"(tol 1e-3); descent monotone on every iteration")


# ---------------------------------------------------------------------------
# 3. ASG vs Weiszfeld on a large Gaussian sample


def test_criterion_3_asg_close_to_weiszfeld():
    rng = np.random.default_rng(103)
    x = rng.standard_normal((100_000, 5))
    a = asg_median(x, seed=103)
    w = weiszfeld_median(x, tol=1e-9)
    gap = float(np.linalg.norm(a.point - w.point))
    verdict(gap <= 0.05, "criterion 3",
            f"1e5 Gaussian points in d=5: |asg - weiszfeld| = {gap:.4f} (tol 0.05)")


# ---------------------------------------------------------------------------
# 4. exhaustive partition oracle


def _partitions_upto(n, k_max):
    """All set partitions of range(n) into at most k_max blocks (growth strings)."""
    a = np.zeros(n, dtype=int)

    def rec(i, mx):
        if i == n:
            yield a
            return
        for v in range(min(mx + 1, k_max - 1) + 1):
            a[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0)


def _oracle_optimum(x, k):
    n = len(x)
    cache = {}

    def block_cost(idx):
        key = idx.tobytes()
        if key not in cache:
            pts = x[np.flatnonzero(idx)]
            cache[key] = len(pts) * weiszfeld_median(pts, tol=1e-10, max_iter=1000).objective
        return cache[key]

    best = np.inf
    for labels in _partitions_upto(n, k):
        cost = 0.0
        for b in range(labels.max() + 1):
            cost += block_cost(labels == b)
        best = min(best, cost / n)
    return best


def test_criterion_4_exhaustive_partition_oracle():
    rng = np.random.default_rng(104)
    hits = 0
    for _ in range(100):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, 4))
        x = rng.uniform(-5, 5, size=(n, 2))
        opt = _oracle_optimum(x, k)
        r = lloyd_kmedians(x, k, init=InitMethod(kind="plus_plus_l1"),
                           n_start=20, seed=int(rng.integers(2**31)))
        if r.distortion <= opt * 1.01 + 1e-9:
            hits += 1
    verdict(hits >= 95, "criterion 4",
            f"lloyd within 1% of the exhaustive-partition optimum in {hits}/100 "
            f"instances (need >= 95)")


# ---------------------------------------------------------------------------
# 5. ARI unit values and invariances


def test_criterion_5_ari_units():
    ok = adjusted_rand_index([0, 1, 1, 2], [4, 5, 5, 6]) == 1.0
    ok &= adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5
    rng = np.random.default_rng(105)
    for _ in range(100):
        n = int(rng.integers(4, 40))
        a = rng.integers(0, 5, size=n)
        b = rng.integers(0, 5, size=n)
        ok &= adjusted_rand_index(a, b) == adjusted_rand_index(b, a)
        perm = rng.permutation(5)
        ok &= adjusted_rand_index(perm[a], b) == adjusted_rand_index(a, b)
    verdict(bool(ok), "criterion 5",
            "ARI: identical partitions = 1, crossing example = -0.5, symmetry and "
            "relabeling invariance over 100 random pairs")


# ---------------------------------------------------------------------------
# 6. slope selection invariances


def test_criterion_6_selection_invariances():
    rng = np.random.default_rng(106)
    ok = True
    for seed in range(10):
        w = np.sort(rng.uniform(0.5, 8.0, size=18))[::-1] + 0.01
        curve = DistortionCurve(n=200, ks=np.arange(1, 19), distortions=w)
        base = slope_select(curve).k_hat
        shifted = DistortionCurve(n=200, ks=np.arange(1, 19), distortions=w + 57.0)
        scaled = DistortionCurve(n=200, ks=np.arange(1, 19), distortions=w * 4.0)
        ok &= slope_select(shifted).k_hat == base
        ok &= slope_select(scaled).k_hat == base
    verdict(bool(ok), "criterion 6",
            "slope-selected k identical under curve translation and positive scaling "
            "(10 random curves each)")


# ---------------------------------------------------------------------------
# 7. CLI determinism


def test_criterion_7_cli_determinism(tmp_path):
    def snapshot(out):
        return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}

    data_dir = tmp_path / "sim"
    commands = {
        "simulate": ["simulate", "--scenario", "s2", "--rho", "0.1", "--seed", "5",
                     "--out", str(data_dir)],
        "cluster": ["cluster", "--input", str(data_dir / "dataset.csv"), "--k", "4",
                    "--algorithm", "online", "--seed", "5",
                    "--out", str(tmp_path / "cl")],
        "select": ["select", "--input", str(data_dir / "dataset.csv"), "--method",
                   "slope", "--k-max", "6", "--algorithm", "online", "--seed", "5",
                   "--out", str(tmp_path / "se")],
        "bench": ["bench", "--scenario", "sphere10", "--points-per-cluster", "20",
                  "--trials", "2", "--k-max", "8", "--rho", "0,0.25", "--algorithm",
                  "online", "--seed", "5", "--out", str(tmp_path / "be")],
        "evaluate": ["evaluate", "--input", str(data_dir / "dataset.csv"), "--labels",
                     str(tmp_path / "cl" / "labels.csv"),
                     "--out", str(tmp_path / "ev")],
    }
    ok = True
    for name, argv in commands.items():
        assert cli_main(argv) == 0, f"{name} failed"
        first = snapshot(argv[argv.index("--out") + 1])
        assert cli_main(argv) == 0, f"{name} failed on repeat"
        second = snapshot(argv[argv.index("--out") + 1])
        ok &= first == second
    verdict(bool(ok), "criterion 7",
            "all five subcommands byte-identical across repeated runs at fixed seed")


# ---------------------------------------------------------------------------
# 8-10. scenario selection reproductions (desk scale: 20 trials)


def _scenario_slope_trials(scenario, k_max, trials=20):
    hits = []
    for t in range(trials):
        data = make_scenario(scenario, seed=10_000 + t)
        rep, _, _ = run_selection(data.points, "slope", k_max, "offline", seed=t)
        hits.append(rep.k_hat)
    return hits


def test_criterion_8_s2_slope_offline():
    k_hats = _scenario_slope_trials("s2", 15)
    count = sum(1 for k in k_hats if k == 4)
    verdict(count >= 18, "criterion 8",
            f"S2 slope/offline selected k=4 in {count}/20 trials (need >= 18); "
            f"selections: {sorted(set(k_hats))}")


def test_criterion_9_s3_slope_offline():
    k_hats = _scenario_slope_trials("s3", 15)
    count = sum(1 for k in k_hats if k == 5)
    verdict(count >= 18, "criterion 9",
            f"S3 slope/offline selected k=5 in {count}/20 trials (need >= 18); "
            f"selections: {sorted(set(k_hats))}")


def test_criterion_10_s1_slope_and_gap():
    k_hats = _scenario_slope_trials("s1", 10)
    slope_count = sum(1 for k in k_hats if k == 1)
    gap_hits = []
    for t in range(20):
        data = make_scenario("s1", seed=20_000 + t)
        rep = gap_select(data.points, 8, B=10, algorithm="online", seed=t)
        gap_hits.append(rep.k_hat)
    gap_count = sum(1 for k in gap_hits if k == 1)
    verdict(slope_count >= 18 and gap_count >= 18, "criterion 10",
            f"S1: slope/offline k=1 in {slope_count}/20, gap/online k=1 in "
            f"{gap_count}/20 (both need >= 18)")


# ---------------------------------------------------------------------------
# 11-12. contamination robustness (10 spherical clusters, d=5)


def _sphere_trial(t, rho, algorithm, k_max=20):
    centers = sphere_centers(10, 10.0, 5, seed=30_000 + t)
    data = sample_mixture(MixtureSpec(centers, 200), seed=40_000 + t)
    if rho > 0:
        data = contaminate(data, ContaminationSpec(rho, "student", df=1),
                           seed=50_000 + t)
    rep, result, _ = run_selection(data.points, "slope", k_max, algorithm, seed=t)
    keep = ~data.contaminated
    ari = adjusted_rand_index(data.true_labels[keep], result.labels[keep])
    return rep.k_hat, ari


def test_criterion_11_contamination_robustness():
    trials = 20
    clean = [_sphere_trial(t, 0.0, "offline") for t in range(trials)]
    clean_ari = float(np.mean([c[1] for c in clean]))
    clean_kbar = float(np.mean([c[0] for c in clean]))

    noisy = [_sphere_trial(t, 0.1, "offline") for t in range(trials)]
    noisy_ari = float(np.mean([c[1] for c in noisy]))
    noisy_kmed = float(np.median([c[0] for c in noisy]))

    kmeans = [_sphere_trial(t, 0.1, "kmeans") for t in range(trials)]
    kmeans_ari = float(np.mean([c[1] for c in kmeans]))

    ok = (clean_ari >= 0.97 and 9.5 <= clean_kbar <= 10.5
          and noisy_ari >= 0.90 and 9 <= noisy_kmed <= 13
          and kmeans_ari <= noisy_ari - 0.10)
    verdict(ok, "criterion 11",
            f"rho=0 offline: ARI={clean_ari:.3f} (>=0.97), k_bar={clean_kbar:.2f} "
            f"(in [9.5,10.5]); rho=0.1 t1 offline: ARI={noisy_ari:.3f} (>=0.90), "
            f"median k={noisy_kmed:.1f} (in [9,13]); kmeans ARI={kmeans_ari:.3f} "
            f"(<= offline - 0.10)")


def test_criterion_12_breakdown_monitored():
    out = [_sphere_trial(t, 0.5, "offline") for t in range(5)]
    k_bar = float(np.mean([o[0] for o in out]))
    print(f"[INFO] criterion 12 (monitored, not gated): at rho=0.5 t1 the offline "
          f"k_bar over 5 trials is {k_bar:.1f} (uncontaminated reference value: 10)")
    assert all(np.isfinite(o[1]) for o in out)
