"""Selectors for the number of clusters: slope criterion, gap, silhouette."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import kmedians.selection
from kmedians import (
    DistortionCurve,
    InitMethod,
    distortion_curve,
    empirical_distortion,
    gap_select,
    l1_objective,
    mean_silhouette,
    penalty_shape,
    run_clustering,
    run_selection,
    silhouette_select,
    slope_select,
    weiszfeld_median,
)
from kmedians._genie import GenieHierarchy


def make_curve(w, n=100):
    w = np.asarray(w, dtype=float)
    return DistortionCurve(n=n, ks=np.arange(1, len(w) + 1), distortions=w)


def blobs(rng, centers, n_per=60, scale=1.0):
    c = np.asarray(centers, dtype=float)
    pts = np.vstack([c[j] + rng.normal(scale=scale, size=(n_per, c.shape[1]))
                     for j in range(len(c))])
    return pts


# ---------------------------------------------------------------------------
# penalty shape


def test_penalty_shape_values():
    assert penalty_shape(4, 100) == 0.2
    assert penalty_shape(7, 7) == 1.0
    assert penalty_shape(1, 4) == 0.5
    with pytest.raises(ValueError):
        penalty_shape(0, 10)
    with pytest.raises(ValueError):
        penalty_shape(11, 10)


# ---------------------------------------------------------------------------
# distortion curve


def test_curve_kmax_1_is_geometric_median_objective():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 2))
    curve = distortion_curve(pts, 1, "offline", seed=0)
    assert curve.ks.tolist() == [1]
    expected = weiszfeld_median(pts).objective
    assert abs(curve.distortions[0] - expected) <= 1e-6
    assert abs(curve.distortions[0] - l1_objective(pts, curve.results[0].centers[0])) <= 1e-12


def test_curve_reaches_zero_at_k_equals_n_distinct():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(7, 2))
    curve = distortion_curve(pts, 7, "offline", seed=0)
    assert curve.distortions[-1] == 0.0
    assert (curve.distortions >= 0).all()


def test_curve_validation():
    with pytest.raises(ValueError):
        DistortionCurve(n=10, ks=np.array([1, 3]), distortions=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        DistortionCurve(n=10, ks=np.array([1, 2]), distortions=np.array([1.0, -0.5]))
    # ks outside 1..n have no penalty sqrt(k/n) to select by
    for ks in ([-1, 0, 1, 2], [8, 9, 10, 11]):
        with pytest.raises(ValueError, match=r"ks must lie in 1\.\.n=10"):
            DistortionCurve(n=10, ks=ks, distortions=[4.0, 3.0, 2.0, 1.0])


def test_curve_refuses_non_finite_distortions():
    # a NaN at k = 1 would select k = 1 and an inf k = 2, with no flag
    w = [5.0, 4.0, 3.0, 2.5, 2.2, 2.1, 2.0]
    for bad in (np.nan, np.inf, -np.inf):
        for at in (0, 3):
            with pytest.raises(ValueError, match=rf"finite, got {bad} at k={at + 1}$"):
                make_curve(w[:at] + [bad] + w[at:])
    with pytest.raises(ValueError, match=r"got nan at k=2$"):
        make_curve([5.0, np.nan, 3.0, np.inf])


# ---------------------------------------------------------------------------
# slope selector


def test_slope_affine_curve_selects_1():
    n, k_max, s = 400, 12, 3.0
    ks = np.arange(1, k_max + 1)
    w = 5.0 - s * np.sqrt(ks / n)
    rep = slope_select(make_curve(w, n=n))
    assert rep.k_hat == 1
    assert abs(rep.slope_constant - s) <= 1e-9
    assert np.all(np.diff(rep.criterion_values) > 0)


def test_slope_kink_curve_matches_oracle():
    # independent oracle: scan every suffix window, fit by the closed-form
    # OLS slope, evaluate the penalized criterion, apply the plateau rule
    n, k_max, min_window = 100, 20, 5
    ks = np.arange(1, k_max + 1)
    w = np.maximum(10 - 2 * ks, 2) / 10.0
    shape = np.sqrt(ks / n)

    def ols(xv, yv):
        xc = xv - xv.mean()
        return float((xc * (yv - yv.mean())).sum() / (xc * xc).sum())

    oracle = []
    for m in range(min_window, k_max):
        s = max(0.0, ols(shape[-m:], -w[-m:]))
        oracle.append((m, int(ks[np.argmin(w + 2 * s * shape)])))
    best, start = None, 0
    for i in range(1, len(oracle) + 1):
        if i == len(oracle) or oracle[i][1] != oracle[start][1]:
            run = (i - start, oracle[i - 1][0], oracle[start][1])
            if best is None or (-run[0], -run[1], run[2]) < (-best[0], -best[1], best[2]):
                best = run
            start = i
    assert best[2] == 4  # oracle value, frozen

    rep = slope_select(make_curve(w, n=n), min_window=min_window)
    assert rep.k_hat == 4
    assert [(m, k) for m, _, k in rep.window_table] == oracle


def test_slope_noise_curve_clamps_to_zero():
    w = np.array([0.5, 0.45, 0.6, 0.62, 0.64, 0.66, 0.68, 0.7])
    rep = slope_select(make_curve(w), min_window=3)
    assert rep.slope_constant == 0.0
    assert rep.k_hat == 2  # argmin of the raw curve once the penalty vanishes
    assert rep.flags


def test_slope_scale_invariance():
    rng = np.random.default_rng(2)
    for seed in range(10):
        w = np.sort(rng.uniform(1, 10, size=15))[::-1] + 0.01
        base = slope_select(make_curve(w))
        doubled = slope_select(make_curve(2.0 * w))
        assert doubled.k_hat == base.k_hat
        assert doubled.slope_constant == 2.0 * base.slope_constant  # dyadic: exact
        odd = slope_select(make_curve(3.7 * w))
        assert odd.k_hat == base.k_hat
        assert abs(odd.slope_constant - 3.7 * base.slope_constant) <= 1e-9


def test_slope_translation_invariance():
    rng = np.random.default_rng(3)
    for seed in range(10):
        w = np.sort(rng.uniform(1, 10, size=15))[::-1]
        base = slope_select(make_curve(w))
        shifted = slope_select(make_curve(w + 123.0))
        assert shifted.k_hat == base.k_hat
        assert abs(shifted.slope_constant - base.slope_constant) <= 1e-9


def test_slope_needs_three_points():
    with pytest.raises(ValueError):
        slope_select(make_curve([1.0, 0.5]))


def test_slope_penalty_increasing_and_khat_is_argmin():
    rng = np.random.default_rng(12)
    for _ in range(10):
        w = np.sort(rng.uniform(1, 5, size=12))[::-1]
        curve = make_curve(w, n=150)
        rep = slope_select(curve)
        penalty = rep.criterion_values - w
        if rep.slope_constant > 0:
            assert np.all(np.diff(penalty) > 0)
        assert rep.k_hat == int(curve.ks[np.argmin(rep.criterion_values)])


def test_slope_six_cluster_mixture_majority():
    # 6 unit-variance Gaussian clusters centered on the radius-10 sphere in
    # d=5; the criterion should recover k=6 in a majority of trials
    from kmedians import MixtureSpec, sample_mixture, sphere_centers

    hits = 0
    for t in range(3):
        centers = sphere_centers(6, 10.0, 5, seed=600 + t)
        data = sample_mixture(MixtureSpec(centers, 250), seed=700 + t)
        rep, _, _ = run_selection(data.points, "slope", 18, "offline", seed=t)
        hits += rep.k_hat == 6
    assert hits >= 2


def test_semi_online_slope_selection_stops_every_fit_before_the_cap():
    # semi_online restarts stop at their distortion plateau; with one restart
    # per k the sweep runs in seconds, where k = 4..8 used to hit the cap
    from kmedians import make_scenario

    rep, result, curve = run_selection(make_scenario("s2", seed=1).points, "slope", 8,
                                       "semi_online", seed=1, n_start=1)
    assert rep.k_hat == 4 == result.centers.shape[0]
    assert "cap" not in [r.stop_reason for r in curve.results]


def test_pipeline_rigid_motion_invariance():
    rng = np.random.default_rng(4)
    pts = blobs(rng, [(-6.0, 0.0), (6.0, 0.0), (0.0, 9.0)], n_per=60)
    rep, _, _ = run_selection(pts, "slope", 8, "offline", seed=0)
    rep2, _, _ = run_selection(pts + np.array([250.0, -31.0]), "slope", 8, "offline", seed=0)
    assert rep2.k_hat == rep.k_hat == 3


# ---------------------------------------------------------------------------
# gap selector


def manual_gap_khat(pts, k_max, B, seed, algorithm="offline"):
    """Independent gap computation: own reference draws, own clustering seeds."""
    rng = np.random.default_rng(seed)
    lo, hi = pts.min(axis=0), pts.max(axis=0)

    def l1_w(data):
        out = []
        for k in range(1, k_max + 1):
            r = run_clustering(data, k, algorithm, seed=int(rng.integers(2**31)))
            out.append(empirical_distortion(data, r.centers, "l1"))
        return np.array(out)

    logw = np.log(l1_w(pts))
    ref = np.array([np.log(l1_w(rng.uniform(lo, hi, size=pts.shape))) for _ in range(B)])
    gap = ref.mean(axis=0) - logw
    sk = ref.std(axis=0, ddof=0) * np.sqrt(1 + 1 / B)
    for k in range(1, k_max):
        if gap[k - 1] >= gap[k] - sk[k]:
            return k
    return k_max


def test_gap_single_tight_cluster():
    rng = np.random.default_rng(5)
    pts = rng.normal(scale=0.01, size=(60, 2))
    assert manual_gap_khat(pts, 5, 8, seed=99) == 1
    rep = gap_select(pts, 5, B=8, algorithm="offline", seed=0)
    assert rep.k_hat == 1


def test_gap_two_blobs():
    rng = np.random.default_rng(6)
    pts = blobs(rng, [(-10.0, 0.0), (10.0, 0.0)], n_per=80)
    assert manual_gap_khat(pts, 5, 8, seed=77) == 2
    rep = gap_select(pts, 5, B=8, algorithm="offline", seed=0)
    assert rep.k_hat == 2


def test_gap_determinism():
    rng = np.random.default_rng(7)
    pts = blobs(rng, [(-4.0, 0.0), (4.0, 0.0)], n_per=40)
    a = gap_select(pts, 4, B=5, algorithm="online", seed=3)
    b = gap_select(pts, 4, B=5, algorithm="online", seed=3)
    assert a.k_hat == b.k_hat
    assert np.array_equal(a.criterion_values, b.criterion_values)


def test_gap_zero_distortion_truncates():
    # 2 distinct values duplicated: distortion hits 0 at k=2
    pts = np.array([[0.0, 0.0]] * 5 + [[4.0, 0.0]] * 5)
    rep = gap_select(pts, 4, B=3, algorithm="offline", seed=0)
    assert rep.ks.max() <= 2
    assert rep.k_hat <= 2


def test_gap_degenerate_data_rejected():
    pts = np.zeros((10, 2))
    with pytest.raises(ValueError):
        gap_select(pts, 3, B=2, seed=0)


# ---------------------------------------------------------------------------
# silhouette selector


def brute_silhouette(pts, labels, metric="euclidean"):
    n = len(pts)
    scores = []
    for i in range(n):
        own = labels == labels[i]
        own[i] = False

        def dist(j):
            diff = pts[i] - pts[j]
            return np.abs(diff).sum() if metric == "manhattan" else np.linalg.norm(diff)

        if not own.any():
            scores.append(0.0)
            continue
        a = np.mean([dist(j) for j in np.flatnonzero(own)])
        b = np.inf
        for lab in np.unique(labels):
            if lab == labels[i]:
                continue
            b = min(b, np.mean([dist(j) for j in np.flatnonzero(labels == lab)]))
        s = 0.0 if max(a, b) == 0 else (b - a) / max(a, b)
        scores.append(s)
    return float(np.mean(scores)), scores


def test_mean_silhouette_matches_bruteforce():
    rng = np.random.default_rng(8)
    for metric in ("euclidean", "manhattan"):
        pts = rng.normal(size=(30, 3))
        labels = rng.integers(0, 3, size=30)
        expected, scores = brute_silhouette(pts, labels, metric)
        assert all(-1.0 <= s <= 1.0 for s in scores)
        assert abs(mean_silhouette(pts, labels, metric) - expected) <= 1e-12


def _reference_mean_silhouette(points, labels, metric="euclidean"):
    """The dense computation mean_silhouette replaced: one n x n matrix per labeling."""
    x = np.asarray(points, dtype=float)
    uniq, inv = np.unique(labels, return_inverse=True)
    k = uniq.shape[0]
    if k < 2:
        return 0.0
    dist = cdist(x, x, {"euclidean": "euclidean", "manhattan": "cityblock"}[metric])
    onehot = np.zeros((x.shape[0], k))
    onehot[np.arange(x.shape[0]), inv] = 1.0
    counts = onehot.sum(axis=0)
    sums = dist @ onehot

    own = counts[inv]
    a = np.zeros(x.shape[0])
    multi = own > 1
    a[multi] = sums[np.arange(x.shape[0]), inv][multi] / (own[multi] - 1.0)
    mean_to = sums / counts
    mean_to[np.arange(x.shape[0]), inv] = np.inf
    b = mean_to.min(axis=1)

    s = np.zeros(x.shape[0])
    denom = np.maximum(a, b)
    ok = multi & (denom > 0)
    s[ok] = (b[ok] - a[ok]) / denom[ok]
    return float(s.mean())


def _labelings(rng, x):
    """A stack of awkward labelings of the rows of x."""
    n = x.shape[0]
    nearest = cdist(x, rng.normal(scale=3.0, size=(6, x.shape[1]))).argmin(axis=1)
    gaps = np.array([0, 5, 7])[rng.integers(0, 3, size=n)]
    singletons = rng.integers(0, 4, size=n)
    singletons[[0, n // 2, n - 1]] = [10, 11, 12]
    return np.stack([rng.integers(0, 2, size=n), gaps, np.zeros(n, dtype=int), singletons,
                     nearest, rng.integers(0, 12, size=n)])


def test_mean_silhouette_matches_dense_reference_bytewise():
    # 1025 rows leave one row past two blocks of 512: the blocking must not
    # change a single bit, and neither may scoring a labeling inside a stack
    rng = np.random.default_rng(21)
    for n in (511, 512, 513, 1025):
        x = rng.normal(size=(n, 3))
        x[1:4] = x[0]  # duplicate points
        stack = _labelings(rng, x)
        for metric in ("euclidean", "manhattan"):
            expected = np.array([_reference_mean_silhouette(x, row, metric) for row in stack])
            stacked = mean_silhouette(x, stack, metric)
            assert stacked.shape == (len(stack),)
            assert stacked.tobytes() == expected.tobytes(), (n, metric)
            single = np.array([mean_silhouette(x, row, metric) for row in stack])
            assert single.tobytes() == expected.tobytes(), (n, metric)
            assert stacked[2] == 0.0  # the all-one-cluster row


def test_mean_silhouette_memory_stays_below_a_quarter_of_the_dense_matrix():
    # numpy reports its buffers to tracemalloc; the dense n x n matrix alone
    # would be n^2 * 8 bytes
    rng = np.random.default_rng(22)
    n = 4000
    x = rng.normal(size=(n, 3))
    stack = np.stack([rng.integers(0, k, size=n) for k in range(2, 13)])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        scores = mean_silhouette(x, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.shape == (11,)
    assert peak < n * n * 8 / 4


def test_mean_silhouette_memory_stays_within_the_block_budget():
    # a block holds about 2^19 distances (at most 8 MiB); beyond it only the
    # (n, k) indicators and sums of each labeling and their temporaries grow
    rng = np.random.default_rng(23)
    n = 6000
    x = rng.normal(size=(n, 3))
    ks = (3, 5, 8)
    stack = np.stack([rng.integers(0, k, size=n) for k in ks])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        scores = mean_silhouette(x, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.shape == (len(ks),)
    assert peak < 8 * 2**20 + 4 * n * sum(ks) * 8


def test_mean_silhouette_stack_equals_single_with_short_blocks():
    # at n = 3000 the blocks hold 176 or 177 rows; each labeling keeps its
    # own product of the same shape, so stacking changes no bit on any kernel
    rng = np.random.default_rng(24)
    x = rng.normal(size=(3000, 3))
    stack = _labelings(rng, x)
    for metric in ("euclidean", "manhattan"):
        stacked = mean_silhouette(x, stack, metric)
        single = np.array([mean_silhouette(x, row, metric) for row in stack])
        assert stacked.tobytes() == single.tobytes(), metric


@pytest.mark.parametrize("e", [250, 300, 540, 700, 900, -250, -300, -540, -700, -900])
def test_mean_silhouette_is_exact_under_power_of_two_scaling(e):
    # the scores are unit-free, and a power of two changes no mantissa: they
    # must not move by a bit where the scaled distances would overflow or
    # underflow (two blobs scored 0.0 at 2^700 and 1.0 at 2^-540 before)
    rng = np.random.default_rng(25)
    two_blobs = blobs(rng, [(-5.0, 0.0), (5.0, 0.0)], n_per=10)
    x = rng.normal(size=(300, 3))
    x[1:4] = x[0]
    for pts, stack in ((two_blobs, np.repeat([[0, 1]], 10, axis=1)), (x, _labelings(rng, x))):
        for metric in ("euclidean", "manhattan"):
            expected = mean_silhouette(pts, stack, metric)
            got = mean_silhouette(np.ldexp(pts, e), stack, metric)
            assert got.tobytes() == expected.tobytes(), metric


def test_mean_silhouette_computes_no_distance_when_nothing_is_scored(monkeypatch):
    # no labeling with two clusters, or no labeling at all: every score is 0
    # and no distance block is needed
    def refused(*args, **kwargs):
        raise AssertionError("cdist called")
    monkeypatch.setattr(kmedians.selection, "cdist", refused)
    x = np.random.default_rng(26).normal(size=(50, 2))
    assert mean_silhouette(x, np.zeros(50, dtype=int)) == 0.0
    assert mean_silhouette(x, np.full((3, 50), 7), "manhattan").tolist() == [0.0] * 3
    assert mean_silhouette(x, np.zeros((0, 50), dtype=int)).shape == (0,)
    with pytest.raises(AssertionError, match="cdist called"):
        mean_silhouette(x, np.arange(50) % 2)


def test_mean_silhouette_checks_metric_and_labels_shape():
    x = np.random.default_rng(23).normal(size=(6, 2))
    with pytest.raises(ValueError, match="unknown metric"):
        mean_silhouette(x, np.zeros(6, dtype=int), "foo")
    for bad in (np.zeros((6, 1), dtype=int), np.zeros((2, 3, 6), dtype=int), np.int64(0)):
        with pytest.raises(ValueError, match=r"shape \(") as err:
            mean_silhouette(x, bad)
        assert str(bad.shape) in str(err.value)
    for bad in (np.zeros(5, dtype=int), np.zeros((2, 7), dtype=int)):
        with pytest.raises(ValueError, match="labels length does not match points"):
            mean_silhouette(x, bad)
    assert mean_silhouette(x, np.zeros((0, 6), dtype=int)).shape == (0,)


def test_silhouette_select_refuses_stray_keywords_and_unknown_metric(monkeypatch):
    pts = np.arange(40.0).reshape(20, 2)
    for stray in ({"min_window": 3}, {"gap_b": 7}):
        with pytest.raises(TypeError):
            silhouette_select(pts, 4, seed=0, **stray)
    fits = _recording_fits(monkeypatch)
    with pytest.raises(ValueError, match="unknown metric"):
        silhouette_select(pts, 4, metric="foo", seed=0)
    assert fits == []


def test_silhouette_two_blobs():
    rng = np.random.default_rng(9)
    pts = blobs(rng, [(-10.0, 0.0), (10.0, 0.0)], n_per=40, scale=0.5)
    rep = silhouette_select(pts, 6, algorithm="offline", seed=0)
    assert rep.k_hat == 2


def test_silhouette_peak_at_true_k():
    rng = np.random.default_rng(10)
    pts = blobs(rng, [(-12.0, 0.0), (12.0, 0.0), (0.0, 15.0)], n_per=30, scale=0.5)
    truth = np.repeat(np.arange(3), 30)
    at_k0, _ = brute_silhouette(pts, truth)
    merged = truth.copy()
    merged[merged == 2] = 1
    split = truth.copy()
    split[:15] = 3
    assert at_k0 > brute_silhouette(pts, merged)[0]
    assert at_k0 > brute_silhouette(pts, split)[0]


def test_silhouette_identical_points():
    pts = np.zeros((8, 2))
    labels = np.array([0, 0, 1, 1, 0, 1, 0, 1])
    assert mean_silhouette(pts, labels) == 0.0


def test_silhouette_requires_kmax_2():
    with pytest.raises(ValueError):
        silhouette_select(np.zeros((5, 2)) + np.arange(5)[:, None], 1, seed=0)


# ---------------------------------------------------------------------------
# orchestration


def test_run_selection_returns_matching_result():
    rng = np.random.default_rng(11)
    pts = blobs(rng, [(-8.0, 0.0), (8.0, 0.0)], n_per=50)
    for method in ("slope", "gap", "silhouette"):
        rep, result, curve = run_selection(pts, method, 5, "online", seed=2, gap_b=4)
        assert result.centers.shape[0] == rep.k_hat
        if method == "slope":
            assert curve is not None
            assert curve.result_at(rep.k_hat) is result
    with pytest.raises(ValueError):
        run_selection(pts, "elbow", 5, "online", seed=0)


def _recording_fits(monkeypatch):
    """Record every result `selection` fits, in call order."""
    fits = []

    def recorded(*args, **kwargs):
        fits.append(run_clustering(*args, **kwargs))
        return fits[-1]
    monkeypatch.setattr(kmedians.selection, "run_clustering", recorded)
    return fits


def test_slope_refuses_min_window_out_of_range_before_fitting(monkeypatch):
    # an explicit min_window must leave a window of 2..k_max-1 points; only the
    # default max(3, floor(0.3 k_max)) is clamped (to 2 at k_max = 3). These,
    # fewer than 3 curve points and the fit options run_clustering refuses are
    # all refused before any fit and before any Genie tree is built
    fits = _recording_fits(monkeypatch)
    builds = []
    build = GenieHierarchy.__init__

    def counted(self, *args, **kwargs):
        builds.append(args[0].shape)
        build(self, *args, **kwargs)
    monkeypatch.setattr(GenieHierarchy, "__init__", counted)
    pts = np.arange(40.0).reshape(20, 2)
    for bad in (-5, 0, 1, 6, 99):
        with pytest.raises(ValueError, match=r"min_window must satisfy 2 <= min_window <= 5"):
            run_selection(pts, "slope", 6, seed=0, min_window=bad)
        with pytest.raises(ValueError, match="min_window must satisfy"):
            slope_select(make_curve(np.linspace(1.0, 0.5, 6)), min_window=bad)
    for k_max in (1, 2):
        with pytest.raises(ValueError, match=f"at least 3 curve points, got {k_max}"):
            run_selection(pts, "slope", k_max, seed=0)
    # gap and silhouette have no slope-fit window: any min_window is refused
    for method in ("gap", "silhouette"):
        for window in (-3, 3, 99):
            with pytest.raises(ValueError, match=f"min_window applies only to method "
                                                 f"'slope', not '{method}'"):
                run_selection(pts, method, 6, seed=0, gap_b=2, min_window=window)
    for bad, message in (({"max_iter": 0}, "max_iter must be >= 1"),
                         ({"n_start": 0}, "n_start must be >= 1"),
                         ({"median_tol": 0.0}, "median_tol must be positive"),
                         ({"median_tol": np.inf}, "median_tol must be positive and finite"),
                         ({"algorithm": "nope"}, "unknown algorithm"),
                         # one codebook cannot start the fit at every k
                         ({"init": InitMethod(kind="provided", provided_centers=pts[:2])},
                          "init kind 'provided'")):
        for select in (lambda: run_selection(pts, "slope", 6, seed=0, **bad),
                       lambda: run_selection(pts, "silhouette", 6, seed=0, **bad),
                       lambda: distortion_curve(pts, 6, seed=0, **bad),
                       lambda: gap_select(pts, 6, B=2, seed=0, **bad)):
            with pytest.raises(ValueError, match=message):
                select()
    assert fits == [] and builds == []
    distortion_curve(pts, 3, seed=0)
    assert len(fits) == 3 and builds == [pts.shape]
    rep = slope_select(make_curve(np.array([1.0, 0.6, 0.5])))
    assert rep.window_table[0][0] == rep.chosen_window == 2
    for good in (2, 5):
        rep = slope_select(make_curve(np.linspace(1.0, 0.5, 6)), min_window=good)
        assert [m for m, _, _ in rep.window_table] == list(range(good, 6))


def test_result_at_refuses_k_outside_the_curve():
    pts = np.arange(40.0).reshape(20, 2)
    curve = distortion_curve(pts, 4, "kmeans", seed=0)
    assert all(curve.result_at(k) is r for k, r in zip(range(1, 5), curve.results))
    for k in (0, -1, 5, 9, 2.5):
        with pytest.raises(ValueError, match=rf"k={k} is outside the curve's ks \(1\.\.4\)"):
            curve.result_at(k)


def test_curve_results_are_none_or_one_per_k():
    fitted = distortion_curve(np.arange(40.0).reshape(20, 2), 3, "kmeans", seed=0)
    for results in (fitted.results[:2], fitted.results + fitted.results[:1]):
        with pytest.raises(ValueError, match=f"got {len(results)} results for 3 ks"):
            DistortionCurve(n=20, ks=fitted.ks, distortions=fitted.distortions,
                            results=results)
    # a curve from distortions alone: k in ks is refused by name, not by IndexError
    bare = DistortionCurve(n=10, ks=[1, 2, 3], distortions=[3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="k=2: the curve was built without fitted results"):
        bare.result_at(2)
    with pytest.raises(ValueError, match="k=4 is outside"):
        bare.result_at(4)


def test_silhouette_refuses_k_max_above_n_before_fitting(monkeypatch):
    fits = _recording_fits(monkeypatch)
    pts = np.arange(12.0).reshape(6, 2)
    for select in (lambda: silhouette_select(pts, 50, seed=0),
                   lambda: run_selection(pts, "silhouette", 7, seed=0)):
        with pytest.raises(ValueError, match="k_max"):
            select()
    assert fits == []


def test_gap_w_is_the_fitted_distortion(monkeypatch):
    # the data sweep fits k = 1..k_max first, then each reference set in turn
    rng = np.random.default_rng(12)
    pts = blobs(rng, [(-6.0, 0.0), (6.0, 0.0)], n_per=30)
    k_max, B = 4, 3
    for algorithm in ("offline", "semi_online", "online", "kmeans"):
        fits = _recording_fits(monkeypatch)
        rep = gap_select(pts, k_max, B=B, algorithm=algorithm, seed=4)
        w = np.array([r.distortion for r in fits]).reshape(B + 1, k_max)
        assert rep.ks.tolist() == list(range(1, k_max + 1))
        assert np.array_equal(rep.criterion_values,
                              np.log(w[1:]).mean(axis=0) - np.log(w[0])), algorithm
