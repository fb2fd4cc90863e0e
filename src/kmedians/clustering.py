"""K-medians clustering and a K-means baseline.

Three K-medians variants share one L1 objective:

* offline      -- Lloyd iteration, per-cluster Weiszfeld median M-step
* semi_online  -- Lloyd iteration, one averaged-stochastic-gradient stream
                  per cluster (cfg.passes passes) as the M-step; it also
                  stops at a distortion plateau and keeps its best iterate
* online       -- single sequential pass; each point updates its nearest
                  (averaged) center by a Robbins-Monro step

plus `kmeans` (arithmetic-mean M-step, squared-L2 objective) used as the
non-robust baseline in benchmarks. `run_clustering` is the one fit entry:
it checks every parameter and runs any of the four.

Lloyd stops when the labels repeat ("labels_repeat") or at max_iter ("cap").
The offline M-step runs in two phases: while the labels still move, each
cluster's Weiszfeld solve stops after at most _MEDIAN_WARM_STEPS steps (each
step lowers the cluster's L1 objective, so Lloyd still descends); from the
iteration after the labels first repeat, and at iteration max_iter, every
solve runs to median_tol or _MEDIAN_MAX_ITER. A stop on repeated labels
comes only after such a full M-step, so its centers are the full-tolerance
medians of their own clusters.

The ASG M-step is stochastic, so a few labels can flip at every iteration
after the distortion has settled (the recursive scheme of Cardot, Cenac &
Monnez, CSDA 2012, settles only in distribution); semi_online therefore
also stops ("plateau") once _PLATEAU_ITERS iterations in a row fail to
lower the best distortion seen by more than a relative _PLATEAU_RTOL, and
returns that best iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._genie import GenieHierarchy
from ._utils import _sq_dists, as_codebook, as_count, as_points, pairwise_distances, spawn_rng
from .geomedian import AsgConfig, _asg_stream, _weiszfeld_blocks
from .geomedian import weiszfeld_median  # noqa: F401  (perfbench/tracing.py hooks this name)

__all__ = [
    "ALGORITHMS",
    "ClusteringResult",
    "InitMethod",
    "assign",
    "empirical_distortion",
    "init_centers",
    "lloyd_kmedians",
    "online_kmedians",
    "kmeans_baseline",
    "run_clustering",
]

ALGORITHMS = ("offline", "semi_online", "online", "kmeans")
INIT_KINDS = ("robust_hierarchical", "plus_plus_l1", "provided")

_INIT_STREAM = 101
_RESTART_STREAM = 102
_MEDIAN_MAX_ITER = 100   # Weiszfeld cap per cluster in the offline M-step
_MEDIAN_WARM_STEPS = 2   # the same cap while Lloyd's labels still move
_PLATEAU_ITERS = 20      # semi_online: stale iterations before a plateau stop
_PLATEAU_RTOL = 1e-4     # semi_online: relative drop of the best distortion that counts


@dataclass
class ClusteringResult:
    """A fitted codebook with its assignment and achieved distortion.

    `distortion` is the empirical L1 distortion for the K-medians variants
    and the mean squared distance for `kmeans`. `labels` always equals
    `assign(points, centers)` for the returned centers. `stop_reason` says
    why the kept restart's Lloyd loop ended: "labels_repeat", "plateau"
    (semi_online only) or "cap" (max_iter reached; also online, whose one
    pass has no convergence test). `median_cap_hits` counts the full
    Weiszfeld solves of the kept offline restart, one per cluster and Lloyd
    iteration, that stopped at _MEDIAN_MAX_ITER unconverged (a solve capped
    at _MEDIAN_WARM_STEPS while the labels still move is not a hit);
    `median_batch_steps` the steps of its Weiszfeld batches, one batch per
    Lloyd iteration and as many steps as its longest solve;
    `median_block_steps` the steps of its solves, summed over the clusters;
    both count capped and full solves. `median_capped_iterations` counts
    its Lloyd iterations whose M-step was capped. All four are 0 for the
    other algorithms.
    """

    centers: np.ndarray
    labels: np.ndarray
    distortion: float
    iterations: int
    restarts_used: int
    algorithm: str
    stop_reason: str = "cap"
    median_cap_hits: int = 0
    median_batch_steps: int = 0
    median_block_steps: int = 0
    median_capped_iterations: int = 0


@dataclass
class InitMethod:
    """Center initialization strategy.

    kind:
      robust_hierarchical -- Gini-constrained single linkage over the MST,
                             coordinate-wise median per cluster (default)
      plus_plus_l1        -- greedy sampling proportional to the distance
                             (not squared) to the nearest chosen center
      provided            -- pass-through of `provided_centers`
    """

    kind: str = "robust_hierarchical"
    gini_threshold: float = 0.3
    provided_centers: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ValueError(f"unknown init kind {self.kind!r}; expected one of {INIT_KINDS}")
        if not 0.0 < self.gini_threshold <= 1.0:
            raise ValueError(f"gini_threshold must be in (0, 1], got {self.gini_threshold}")
        if self.kind == "provided" and self.provided_centers is None:
            raise ValueError("provided init requires provided_centers")


def _nearest(x: np.ndarray, codebook):
    """(labels, dmin): the nearest center of every row of the validated points x,
    ties to the lowest index, and the distance to it, from one kernel pass."""
    dist = pairwise_distances(x, as_codebook(codebook, d=x.shape[1]))
    labels = np.argmin(dist, axis=1)
    return labels, dist[np.arange(x.shape[0]), labels]


def _check_options(algorithm: str, cfg=None, max_iter=100, n_start=5, median_tol=1e-6) -> None:
    """Refuse an unknown algorithm, a cap that is not an integer >= 1 and a median_tol that
    is not positive and finite. Takes `run_clustering`'s options (cfg, an AsgConfig, checks
    itself) as keywords, so a sweep refuses them before it fits."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    as_count("max_iter", max_iter, 1)
    as_count("n_start", n_start, 1)
    if not 0 < median_tol < np.inf:
        raise ValueError(f"median_tol must be positive and finite, got {median_tol}")


def assign(points, codebook) -> np.ndarray:
    """Nearest-center index for every point (ties go to the lowest index)."""
    return _nearest(as_points(points), codebook)[0]


def empirical_distortion(points, codebook, norm: str = "l1") -> float:
    """Mean distance (l1) or mean squared distance (squared_l2) to the nearest center."""
    if norm not in ("l1", "squared_l2"):
        raise ValueError(f"unknown norm {norm!r}; expected 'l1' or 'squared_l2'")
    dmin = _nearest(as_points(points), codebook)[1]
    return float(dmin.mean() if norm == "l1" else (dmin**2).mean())


def _plus_plus_l1(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    cols = np.ascontiguousarray(x.T)
    chosen = [int(rng.integers(n))]
    dmin = np.sqrt(_sq_dists(cols, x[chosen[0]]))
    for _ in range(1, k):
        total = dmin.sum()
        if total > 0:
            idx = int(rng.choice(n, p=dmin / total))
        else:
            # all remaining mass sits on already-chosen values; fall back to
            # a uniform draw over the not-yet-chosen indices
            pool = np.setdiff1d(np.arange(n), np.asarray(chosen))
            idx = int(rng.choice(pool))
        chosen.append(idx)
        dmin = np.minimum(dmin, np.sqrt(_sq_dists(cols, x[idx])))
    return x[chosen].copy()


def _init_codebook(x: np.ndarray, k: int, method: InitMethod, rng: np.random.Generator) -> np.ndarray:
    if method.kind == "provided":
        c = as_codebook(method.provided_centers, d=x.shape[1])
        if c.shape[0] != k:
            raise ValueError(f"provided codebook has {c.shape[0]} centers, expected {k}")
        return c.copy()
    if method.kind == "plus_plus_l1":
        return _plus_plus_l1(x, k, rng)
    return GenieHierarchy(x, method.gini_threshold).centers_at(x, k)


def init_centers(points, k: int, method: InitMethod | None = None, seed: int = 0) -> np.ndarray:
    """Initial codebook of k centers for the given strategy."""
    x = as_points(points)
    k = as_count("k", k, 1, x.shape[0], "n")
    method = method or InitMethod()
    return _init_codebook(x, k, method, spawn_rng(seed, _INIT_STREAM))


def _assign_repaired(x: np.ndarray, centers: np.ndarray):
    """`_nearest` of x for centers, after re-seeding (in place) every center that
    receives no point at the farthest-out point; returns (centers, labels, dmin).

    A re-seeded center can take the last points of another, so one call may
    leave a center empty: x = [[0], [0], [1], [10]] with centers [[0], [5],
    [100]] gives labels [0, 0, 0, 2]. What holds is at a Lloyd stop on
    repeated labels: with at least k distinct points every center is live.
    A stop at max_iter has no such guarantee, and neither has a semi_online
    plateau stop, which returns the best iterate seen, not a repeat.
    """
    labels, dmin = _nearest(x, centers)
    empty = np.flatnonzero(np.bincount(labels, minlength=centers.shape[0]) == 0)
    if not empty.size:
        return centers, labels, dmin
    cols = np.ascontiguousarray(x.T)
    for j in empty:
        centers[j] = x[int(np.argmax(dmin))]
        dmin = np.minimum(dmin, np.sqrt(_sq_dists(cols, centers[j])))
    return (centers, *_nearest(x, centers))


def _blocks(x, labels, k):
    """Rows of x sorted stably by label, and bounds with cluster j in rows
    bounds[j]:bounds[j+1], equal to x[labels == j] row for row. The labels are
    sorted in the narrowest unsigned type that holds k, where numpy's stable
    sort is a radix sort; a stable sort gives one permutation whatever the type."""
    bounds = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(np.bincount(labels, minlength=k), out=bounds[1:])
    return x[np.argsort(labels.astype(np.min_scalar_type(k)), kind="stable")], bounds


def _median_step(tol, max_iter, warm_steps):
    """Offline M-step: the Weiszfeld median of every cluster from its center,
    one `_weiszfeld_blocks` batch over all clusters, each solve stopping at
    tol or after max_iter steps when full and after warm_steps when not.
    Over every call, `m_step.counts`, keyed by `ClusteringResult` fields,
    counts the full solves that ended unconverged at max_iter, the steps of
    the batches (each as many as its longest solve), the steps of the solves
    and the capped calls."""
    counts = dict(median_cap_hits=0, median_batch_steps=0, median_block_steps=0,
                  median_capped_iterations=0)

    def m_step(xs, bounds, centers, full):
        points, steps, converged = _weiszfeld_blocks(xs, bounds, centers, tol,
                                                     max_iter if full else warm_steps)
        if full:
            counts["median_cap_hits"] += int(np.count_nonzero(~converged))
        else:
            counts["median_capped_iterations"] += 1
        counts["median_batch_steps"] += int(steps.max())
        counts["median_block_steps"] += int(steps.sum())
        return points
    m_step.counts = counts
    return m_step


def _asg_step(cfg, rng):
    """Semi-online M-step: one averaged stochastic gradient stream over each
    cluster in turn, warm-started at its center, of cfg.passes permutations
    of its members drawn from rng. A stream has no cap, so `full` is unused."""
    def m_step(xs, bounds, centers, full):
        out = centers.copy()
        for j in np.flatnonzero(np.diff(bounds)):
            members = xs[bounds[j]:bounds[j + 1]]
            order = np.concatenate([rng.permutation(members.shape[0])
                                    for _ in range(cfg.passes)])
            out[j] = _asg_stream(members, order, centers[j:j + 1], cfg.c_gamma, cfg.alpha)[0]
        return out
    return m_step


def _mean_step(xs, bounds, centers, full):
    """K-means M-step: the mean of every cluster (exact, so `full` is unused)."""
    out = centers.copy()
    for j in np.flatnonzero(np.diff(bounds)):
        out[j] = xs[bounds[j]:bounds[j + 1]].mean(axis=0)
    return out


def _lloyd_once(x, centers, m_step, max_iter, plateau=False, capped=False):
    """Alternate assignment and M-step until the labels stop changing.

    Each iteration sorts the rows by label once and calls m_step(xs, bounds,
    centers, full) for the next codebook (see `_blocks`); a cluster without
    points keeps its center. With `capped` (the Weiszfeld M-step) `full` is
    False until the labels first repeat and True from the next iteration on
    and at iteration max_iter; without it, always True. The loop stops on
    repeated labels only after a full M-step. With `plateau` (the stochastic
    ASG M-step) the loop also stops once _PLATEAU_ITERS iterations in a row
    fail to lower the best mean distance seen by more than a relative
    _PLATEAU_RTOL, and whatever the stop, the iterate with the lowest mean
    distance is returned (the first on ties), its labels and distances from
    its own `_assign_repaired`.
    Returns (centers, labels, iterations, dmin, stop_reason), dmin being
    every point's distance to its center and iterations the M-steps run.
    """
    centers, labels, dmin = _assign_repaired(x, centers.copy())
    best, best_d, stale = (centers, labels, dmin), dmin.mean(), 0
    iterations, stop, full = 0, "cap", not capped
    while iterations < max_iter:
        iterations += 1
        full = full or iterations == max_iter
        previous = labels
        xs, bounds = _blocks(x, labels, centers.shape[0])
        centers, labels, dmin = _assign_repaired(x, m_step(xs, bounds, centers, full))
        if plateau:
            d = dmin.mean()
            stale = 0 if d < best_d * (1.0 - _PLATEAU_RTOL) else stale + 1
            if d < best_d:
                best, best_d = (centers, labels, dmin), d
        if np.array_equal(labels, previous):
            if full:
                stop = "labels_repeat"
                break
            full = True
        if stale >= _PLATEAU_ITERS:
            stop = "plateau"
            break
    if plateau:
        centers, labels, dmin = best
    return centers, labels, iterations, dmin, stop


def _best_of_restarts(x, k, algorithm, init, cfg, seed, n_start, max_iter, median_tol):
    """The restart loop of offline, semi_online and kmeans on the validated points x.

    Restart r draws its init (plus_plus_l1), then its M-step's permutations
    (semi_online), from the stream (seed, _RESTART_STREAM, r). With neither,
    one restart is run from the init of (seed, _INIT_STREAM). The first restart
    with the lowest mean distance to the nearest center (squared for kmeans) is
    kept; semi_online restarts also stop at a distortion plateau (see
    `_lloyd_once`). Returns (centers, labels, distortion, iterations, restarts
    run, diagnostics), the last the kept restart's stop reason and Weiszfeld
    counts keyed by `ClusteringResult` fields.
    """
    fixed_init = None
    if init.kind != "plus_plus_l1":
        fixed_init = _init_codebook(x, k, init, spawn_rng(seed, _INIT_STREAM))
        n_start = n_start if algorithm == "semi_online" else 1
    best = None
    for r in range(n_start):
        rng = spawn_rng(seed, _RESTART_STREAM, r)
        centers0 = _init_codebook(x, k, init, rng) if fixed_init is None else fixed_init
        m_step = {"offline": _median_step(median_tol, _MEDIAN_MAX_ITER, _MEDIAN_WARM_STEPS),
                  "kmeans": _mean_step, "semi_online": _asg_step(cfg, rng)}[algorithm]
        centers, labels, iterations, dmin, stop = _lloyd_once(
            x, centers0, m_step, max_iter, plateau=algorithm == "semi_online",
            capped=algorithm == "offline")
        distortion = float((dmin**2 if algorithm == "kmeans" else dmin).mean())
        # only the Weiszfeld M-step counts its work; the others keep the defaults
        diagnostics = {"stop_reason": stop, **getattr(m_step, "counts", {})}
        if best is None or distortion < best[2]:
            best = centers, labels, distortion, iterations, diagnostics
    centers, labels, distortion, iterations, diagnostics = best
    return centers, labels, distortion, iterations, n_start, diagnostics


def lloyd_kmedians(points, k: int, backend: str = "weiszfeld", init: InitMethod | None = None,
                   max_iter: int = 100, n_start: int = 5, seed: int = 0,
                   cfg: AsgConfig | None = None, median_tol: float = 1e-6) -> ClusteringResult:
    """Lloyd-style K-medians: alternate nearest-center assignment with a
    per-cluster geometric-median estimate.

    backend 'weiszfeld' recomputes each center by Weiszfeld iteration
    (the offline variant), capped at _MEDIAN_WARM_STEPS steps while the
    labels still move and solved to median_tol from the iteration after
    they first repeat and at max_iter; a stop on repeated labels follows
    such a full solve. Backend 'asg' runs one averaged stochastic
    gradient stream of cfg.passes passes over the cluster members,
    warm-started at the previous center (the semi-online variant). The
    best of n_start restarts by empirical L1 distortion is returned. A
    fixed-algorithm call into `run_clustering`, which checks every parameter.
    """
    if backend not in ("weiszfeld", "asg"):
        raise ValueError(f"unknown backend {backend!r}; expected 'weiszfeld' or 'asg'")
    algorithm = "offline" if backend == "weiszfeld" else "semi_online"
    return run_clustering(points, k, algorithm, seed, init=init, cfg=cfg, max_iter=max_iter,
                          n_start=n_start, median_tol=median_tol)


def online_kmedians(points, k: int, cfg: AsgConfig | None = None,
                    init: InitMethod | None = None, seed: int = 0) -> ClusteringResult:
    """Single-pass sequential K-medians: one averaged stochastic gradient
    stream (`geomedian._asg_stream`) over a permutation of the points,
    drawn from default_rng(seed), for the whole initial codebook.

    Each point is assigned to the nearest averaged center, which then
    takes a Robbins-Monro step of size c_gamma / (n_r + 1)**alpha toward
    the point; per-center counters start at 1 so the initial centers carry
    one observation's weight in the averages. At k = 1 this is one pass of
    `asg_median` with the same seed, by construction. The pass costs
    O(k n d) arithmetic on Python floats; the default Genie init builds an
    exact minimum spanning tree before it, in about O(n log n) time for
    small d.
    """
    x = as_points(points)
    n = x.shape[0]
    k = as_count("k", k, 1, n, "n")
    cfg = cfg or AsgConfig()
    init = init or InitMethod()

    centers0 = _init_codebook(x, k, init, spawn_rng(seed, _INIT_STREAM))
    centers = _asg_stream(x, spawn_rng(seed).permutation(n), centers0, cfg.c_gamma, cfg.alpha)
    labels, dmin = _nearest(x, centers)
    return ClusteringResult(centers=centers, labels=labels, distortion=float(dmin.mean()),
                            iterations=n, restarts_used=1, algorithm="online")


def kmeans_baseline(points, k: int, init: InitMethod | None = None, max_iter: int = 100,
                    n_start: int = 5, seed: int = 0) -> ClusteringResult:
    """Lloyd K-means (arithmetic-mean M-step, squared-L2 distortion); a
    fixed-algorithm call into `run_clustering`."""
    return run_clustering(points, k, "kmeans", seed, init=init, max_iter=max_iter,
                          n_start=n_start)


def run_clustering(points, k: int, algorithm: str, seed: int = 0, *,
                   init: InitMethod | None = None, cfg: AsgConfig | None = None,
                   max_iter: int = 100, n_start: int = 5,
                   median_tol: float = 1e-6) -> ClusteringResult:
    """Fit one of the four algorithms: the one fit entry, which the named fits
    call with their algorithm fixed.

    Checks every parameter, also those the chosen algorithm does not read,
    then runs `online` as one `online_kmedians` pass and offline (Weiszfeld
    M-step), semi_online (ASG M-step) and kmeans (mean M-step, squared-L2
    distortion) as one `_best_of_restarts` loop of up to n_start restarts.
    """
    _check_options(algorithm, max_iter=max_iter, n_start=n_start, median_tol=median_tol)
    x = as_points(points)
    k = as_count("k", k, 1, x.shape[0], "n")
    init = init or InitMethod()
    cfg = cfg or AsgConfig()
    if algorithm == "online":
        return online_kmedians(x, k, cfg=cfg, init=init, seed=seed)
    centers, labels, distortion, iterations, used, diagnostics = (
        _best_of_restarts(x, k, algorithm, init, cfg, seed, n_start, max_iter, median_tol))
    return ClusteringResult(centers=centers, labels=labels, distortion=distortion,
                            iterations=iterations, restarts_used=used, algorithm=algorithm,
                            **diagnostics)
