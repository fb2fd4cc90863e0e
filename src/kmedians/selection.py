"""Choosing the number of clusters.

The main selector minimizes a penalized criterion

    criterion(k) = distortion(k) + 2 * S_hat * sqrt(k / n)

where the constant S_hat is calibrated by the slope heuristic: ordinary
least squares of -distortion(k) on sqrt(k/n) over a suffix window of the
largest k values, with the window chosen by a plateau rule over window
sizes. Gap-statistic and mean-silhouette selectors are provided as
baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from ._genie import GenieHierarchy
from ._utils import _pow2_normalised, as_count, as_points, derive_seed, spawn_rng
from .clustering import ClusteringResult, InitMethod, _check_options, run_clustering

__all__ = [
    "DistortionCurve",
    "SelectionReport",
    "distortion_curve",
    "penalty_shape",
    "slope_select",
    "gap_select",
    "silhouette_select",
    "mean_silhouette",
    "run_selection",
]

_CURVE_STREAM = 31
_GAP_DATA_STREAM = 11
_GAP_REF_DATA = 12
_GAP_REF_RUN = 13
_SIL_STREAM = 21
_SIL_BLOCK_DISTANCES = 2**19  # 4 MiB of float64 distances per block


@dataclass
class DistortionCurve:
    """Best achieved distortion per candidate k, with the fitted results:
    one per k, or none for a curve built from distortions alone."""

    n: int
    ks: np.ndarray
    distortions: np.ndarray
    results: list[ClusteringResult] = field(default_factory=list)

    def __post_init__(self):
        self.n = as_count("n", self.n, 1)
        self.ks = np.asarray(self.ks, dtype=int)
        self.distortions = np.asarray(self.distortions, dtype=float)
        if self.ks.shape != self.distortions.shape or self.ks.ndim != 1:
            raise ValueError("ks and distortions must be 1-D arrays of equal length")
        if not np.all(np.diff(self.ks) == 1):
            raise ValueError("ks must be contiguous ascending integers")
        if self.ks.size and not 1 <= self.ks[0] <= self.ks[-1] <= self.n:
            raise ValueError(f"ks must lie in 1..n={self.n}, got {self.ks[0]}..{self.ks[-1]}")
        bad = ~np.isfinite(self.distortions)
        if bad.any():
            first = int(np.argmax(bad))
            raise ValueError(f"distortions must be finite, got {self.distortions[first]} "
                             f"at k={self.ks[first]}")
        if (self.distortions < 0).any():
            raise ValueError("distortions must be nonnegative")
        if len(self.results) not in (0, self.ks.size):
            raise ValueError(f"results must be empty or hold one entry per k, got "
                             f"{len(self.results)} results for {self.ks.size} ks")

    def result_at(self, k: int) -> ClusteringResult:
        """The fitted result at k, refusing a k that is not in ks and a curve
        built without results."""
        if k not in self.ks.tolist():
            span = f"{self.ks[0]}..{self.ks[-1]}" if self.ks.size else "empty"
            raise ValueError(f"k={k} is outside the curve's ks ({span})")
        if not self.results:
            raise ValueError(f"k={k}: the curve was built without fitted results")
        return self.results[int(k) - int(self.ks[0])]


@dataclass
class SelectionReport:
    """Outcome of a selector.

    criterion_values holds, per k in ks: the penalized criterion (slope),
    the gap values (gap), or the mean silhouette (silhouette). The slope
    selector also reports the calibrated constant, the chosen suffix
    window, and a per-window diagnostics table (window size, slope,
    selected k).
    """

    method: str
    k_hat: int
    ks: np.ndarray
    criterion_values: np.ndarray
    slope_constant: float | None = None
    window_table: list[tuple[int, float, int]] | None = None
    chosen_window: int | None = None
    flags: list[str] = field(default_factory=list)


def penalty_shape(k: int, n: int) -> float:
    """Penalty growth in k, up to the calibrated constant: sqrt(k / n)."""
    n = as_count("n", n, 1)
    return math.sqrt(as_count("k", k, 1, n, "n") / n)


def _candidate_ks(k_min: int, k_max: int, n: int) -> np.ndarray:
    """k_min..k_max, refusing a k_max outside k_min..n before anything is fitted."""
    return np.arange(k_min, as_count("k_max", k_max, k_min, n, "n") + 1)


def _sweep(x, ks, algorithm, seed_key, init, params) -> DistortionCurve:
    """Check the fit options and derive each fit's seed (k's from seed_key + (k,)), then fit
    the algorithm to the validated points x at every k in ks, building the hierarchy once."""
    _check_options(algorithm, **params)
    seeds = [derive_seed(*seed_key, k) for k in ks]
    init = init or InitMethod()
    tree = None
    if init.kind == "robust_hierarchical":
        tree = GenieHierarchy(x, init.gini_threshold)
    results = []
    for k, seed in zip(ks, seeds):
        init_k = init
        if tree is not None:
            init_k = InitMethod(kind="provided", provided_centers=tree.centers_at(x, k))
        results.append(run_clustering(x, k, algorithm, seed=seed, init=init_k, **params))
    return DistortionCurve(n=x.shape[0], ks=ks, distortions=[r.distortion for r in results],
                           results=results)


def distortion_curve(points, k_max: int, algorithm: str = "offline", seed: int = 0, *,
                     init: InitMethod | None = None, **params) -> DistortionCurve:
    """Fit the chosen algorithm for k = 1..k_max and record the distortions."""
    x = as_points(points)
    return _sweep(x, _candidate_ks(1, k_max, x.shape[0]), algorithm, (seed, _CURVE_STREAM),
                  init, params)


def _ols_slope(xv: np.ndarray, yv: np.ndarray) -> float:
    xc = xv - xv.mean()
    return float((xc * (yv - yv.mean())).sum() / (xc * xc).sum())


def _first_window(min_window: int | None, n_entries: int, k_top: int) -> int:
    """The smallest slope-fit window on n_entries points ending at k_top: min_window,
    refused outside 2..n_entries-1, or max(3, floor(0.3 k_top)) clamped into it.
    Fewer than 3 points leave no window and are refused."""
    if n_entries < 3:
        raise ValueError(f"slope selection needs at least 3 curve points, got {n_entries}")
    if min_window is None:
        return max(2, min(max(3, int(math.floor(0.3 * k_top))), n_entries - 1))
    return as_count("min_window", min_window, 2, n_entries - 1)


def slope_select(curve: DistortionCurve, min_window: int | None = None) -> SelectionReport:
    """Select k by the slope-calibrated penalized criterion.

    For every suffix window of the m largest k values (m = min_window ..
    k_max - 1) the slope S(m) of -distortion on sqrt(k/n) is fitted,
    clamped at zero, and k_hat(m) = argmin_k distortion(k) +
    2 S(m) sqrt(k/n) recorded. The k_hat produced by the longest run of
    consecutive window sizes wins (ties: the run reaching the larger m,
    then the smaller k_hat); its largest window is reported.
    """
    ks = curve.ks
    w = curve.distortions
    n_entries = ks.shape[0]
    m_lo = _first_window(min_window, n_entries, int(ks[-1]))

    shape = np.array([penalty_shape(int(k), curve.n) for k in ks])
    flags: list[str] = []
    table: list[tuple[int, float, int]] = []
    for m in range(m_lo, n_entries):
        s = _ols_slope(shape[-m:], -w[-m:])
        if s < 0:
            flags.append(f"window {m}: fitted slope negative, clamped to 0")
            s = 0.0
        crit = w + 2.0 * s * shape
        k_hat_m = int(ks[np.argmin(crit)])
        table.append((m, s, k_hat_m))

    # plateau rule over consecutive window sizes
    runs = []  # (length, last_m, k_hat)
    start = 0
    for i in range(1, len(table) + 1):
        if i == len(table) or table[i][2] != table[start][2]:
            runs.append((i - start, table[i - 1][0], table[start][2]))
            start = i
    runs.sort(key=lambda r: (-r[0], -r[1], r[2]))
    _, chosen_window, k_hat = runs[0]

    s_hat = next(s for m, s, _ in table if m == chosen_window)
    criterion = w + 2.0 * s_hat * shape
    return SelectionReport(method="slope", k_hat=k_hat, ks=ks.copy(),
                           criterion_values=criterion, slope_constant=s_hat,
                           window_table=table, chosen_window=chosen_window, flags=flags)


def _gap(points, k_max, B, algorithm, seed, *, init=None, **params):
    x = as_points(points)
    n, d = x.shape
    ks = _candidate_ks(1, k_max, n)
    B = as_count("B", B, 1)
    lo, hi = x.min(axis=0), x.max(axis=0)
    if np.all(hi == lo):
        raise ValueError("degenerate data: zero range in every coordinate")

    curve = _sweep(x, ks, algorithm, (seed, _GAP_DATA_STREAM), init, params)
    w_data = curve.distortions
    w_ref = np.array([
        _sweep(spawn_rng(seed, _GAP_REF_DATA, b).uniform(lo, hi, size=(n, d)), ks,
               algorithm, (seed, _GAP_REF_RUN, b), init, params).distortions
        for b in range(B)])

    # a zero distortion has no log: truncate the candidate range before it
    bad = (w_data <= 0) | (w_ref <= 0).any(axis=0)
    n_valid = int(np.argmax(bad)) if bad.any() else k_max
    if n_valid == 0:
        raise ValueError("distortion vanished at k=1; data has no dispersion to compare")
    ks = ks[:n_valid]
    gap = np.log(w_ref[:, :n_valid]).mean(axis=0) - np.log(w_data[:n_valid])
    sk = np.log(w_ref[:, :n_valid]).std(axis=0, ddof=0) * math.sqrt(1.0 + 1.0 / B)

    k_hat = int(ks[-1])
    for i in range(len(ks) - 1):
        if gap[i] >= gap[i + 1] - sk[i + 1]:
            k_hat = int(ks[i])
            break
    report = SelectionReport(method="gap", k_hat=k_hat, ks=ks, criterion_values=gap)
    return report, curve


def gap_select(points, k_max: int, B: int = 20, algorithm: str = "offline",
               seed: int = 0, *, init: InitMethod | None = None,
               **params) -> SelectionReport:
    """Gap statistic: compare log distortion against uniform reference sets.

    Gap(k) = mean_b log W*_b(k) - log W(k) over B reference datasets drawn
    uniformly over the per-coordinate range of the data, W being the
    algorithm's own distortion; the selected k is the smallest with
    Gap(k) >= Gap(k+1) - s_{k+1}.
    """
    return _gap(points, k_max, B, algorithm, seed, init=init, **params)[0]


def _cdist_metric(metric: str) -> str:
    name = {"euclidean": "euclidean", "manhattan": "cityblock"}.get(metric)
    if name is None:
        raise ValueError(f"unknown metric {metric!r}; expected 'euclidean' or 'manhattan'")
    return name


def mean_silhouette(points, labels, metric: str = "euclidean") -> float | np.ndarray:
    """Mean silhouette coefficient of a labeling, or of each row of a stack.

    s(i) = (b(i) - a(i)) / max(a(i), b(i)) with a(i) the mean distance to
    the rest of the point's own cluster and b(i) the smallest mean
    distance to another cluster; singletons, all-zero distances and a
    labeling with a single cluster score 0.

    labels of shape (n,) give a float; a stack of shape (m, n) gives the m
    scores as an array, each equal to the score of its row alone. The
    distance matrix is never held whole: one pass over equal blocks of
    about 2^19 distances (ceil(2^19 / n) rows, at least 2, and fewer than
    twice that) computes each block's distances once and reduces them to
    per-cluster sums for every labeling, so memory is O(2^19 + n sum(k))
    floats for the m labelings' cluster counts k, however large n and m are.
    Scores are unit-free and exact at any spread (`_pow2_normalised`).
    """
    metric_name = _cdist_metric(metric)
    x, _ = _pow2_normalised(as_points(points))
    n = x.shape[0]
    labels = np.asarray(labels)
    if labels.ndim not in (1, 2):
        raise ValueError(f"labels must have shape (n,) or (m, n), got shape {labels.shape}")
    if labels.shape[-1] != n:
        raise ValueError(f"labels length does not match points: labels shape {labels.shape}, "
                         f"{n} points")
    invs = [np.unique(row, return_inverse=True)[1] for row in labels.reshape(-1, n)]
    scored = [j for j, inv in enumerate(invs) if inv.max() > 0]
    if not scored:  # no labeling has two clusters: no distance is needed
        return 0.0 if labels.ndim == 1 else np.zeros(len(invs))
    onehots = [(invs[j][:, None] == np.arange(invs[j].max() + 1)).astype(float)
               for j in scored]
    sums = [np.empty(onehot.shape) for onehot in onehots]
    # Equal blocks of about 4 MiB of distances and one product per labeling:
    # the shape of a product picks the summation order (numpy sends a one-row
    # product to a matrix-vector routine, OpenBLAS products of at most 10^6
    # multiply-adds to a kernel of their own), so a short last block or a
    # product shared by the whole stack could change a score's last bits.
    # With at least 2 and 2^19 / n rows, a block's product at k >= 2 does
    # 2^20 multiply-adds or more.
    block_rows = max(2, -(-_SIL_BLOCK_DISTANCES // n))
    for rows in np.array_split(np.arange(n), max(1, n // block_rows)):
        dist = cdist(x[rows], x, metric_name)
        for onehot, cluster_sums in zip(onehots, sums):
            cluster_sums[rows] = dist @ onehot
        del dist  # before the next block is allocated
    means = np.zeros(len(invs))
    means[scored] = [_silhouette_from_sums(invs[j], onehot, cluster_sums)
                     for j, onehot, cluster_sums in zip(scored, onehots, sums)]
    return float(means[0]) if labels.ndim == 1 else means


def _silhouette_from_sums(inv, onehot, sums) -> float:
    """Mean silhouette from each point's summed distances to every cluster."""
    n = inv.shape[0]
    counts = onehot.sum(axis=0)
    own = counts[inv]
    a = np.zeros(n)
    multi = own > 1
    a[multi] = sums[np.arange(n), inv][multi] / (own[multi] - 1.0)
    mean_to = sums / counts
    mean_to[np.arange(n), inv] = np.inf
    b = mean_to.min(axis=1)

    s = np.zeros(n)
    denom = np.maximum(a, b)
    ok = multi & (denom > 0)
    s[ok] = (b[ok] - a[ok]) / denom[ok]
    return float(s.mean())


def _silhouette(points, k_max, metric, algorithm, seed, *, init=None, **params):
    x = as_points(points)
    ks = _candidate_ks(2, k_max, x.shape[0])
    _cdist_metric(metric)
    curve = _sweep(x, ks, algorithm, (seed, _SIL_STREAM), init, params)
    scores = mean_silhouette(x, np.stack([r.labels for r in curve.results]), metric)
    report = SelectionReport(method="silhouette", k_hat=int(ks[np.argmax(scores)]), ks=ks,
                             criterion_values=scores)
    return report, curve


def silhouette_select(points, k_max: int, metric: str = "euclidean",
                      algorithm: str = "offline", seed: int = 0, *,
                      init: InitMethod | None = None, **params) -> SelectionReport:
    """Select the k in 2..k_max that maximizes the mean silhouette."""
    return _silhouette(points, k_max, metric, algorithm, seed, init=init, **params)[0]


def run_selection(points, method: str, k_max: int, algorithm: str = "offline",
                  seed: int = 0, *, min_window: int | None = None, gap_b: int = 20,
                  silhouette_metric: str = "euclidean", init: InitMethod | None = None,
                  **params):
    """Run a selector and return (report, fitted result at k_hat, curve or None)."""
    if min_window is not None and method in ("gap", "silhouette"):
        raise ValueError(f"min_window applies only to method 'slope', not {method!r}")
    if method == "slope":
        x = as_points(points)
        ks = _candidate_ks(1, k_max, x.shape[0])
        _first_window(min_window, ks.size, k_max)   # refused before any fit
        curve = _sweep(x, ks, algorithm, (seed, _CURVE_STREAM), init, params)
        report = slope_select(curve, min_window)
    elif method == "gap":
        report, curve = _gap(points, k_max, gap_b, algorithm, seed, init=init, **params)
    elif method == "silhouette":
        report, curve = _silhouette(points, k_max, silhouette_metric, algorithm, seed,
                                    init=init, **params)
    else:
        raise ValueError(f"unknown selection method {method!r}")
    return report, curve.result_at(report.k_hat), curve if method == "slope" else None
