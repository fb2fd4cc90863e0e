"""Geometric median estimators.

Two methods for the spatial (L1) median of a finite point set: the
Weiszfeld fixed-point iteration and an averaged stochastic gradient
scheme that processes the points as a stream. Both minimize the mean
Euclidean distance to the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub

import numpy as np

from ._utils import _sq_dists, _sumsq, as_count, as_points, pairwise_distances, spawn_rng

__all__ = ["MedianEstimate", "AsgConfig", "l1_objective", "weiszfeld_median", "asg_median"]

_ROWS = 4096   # rows of an ASG stream converted to Python floats at a time


@dataclass
class MedianEstimate:
    """Output of a median solver.

    point      : the estimate in R^d
    iterations : fixed-point iterations (Weiszfeld) or stream updates (ASG)
    converged  : True when Weiszfeld stopped before its iteration cap, on the
                 displacement criterion or on a data point that is the
                 median; ASG always completes its stream
    objective  : mean Euclidean distance from the data to `point`
    """

    point: np.ndarray
    iterations: int
    converged: bool
    objective: float


@dataclass
class AsgConfig:
    """Hyperparameters of the averaged stochastic gradient estimator.

    The step before the t-th update is c_gamma / (t + 1) ** alpha, which
    satisfies the usual divergent-sum / summable-square step conditions
    for any alpha in (1/2, 1).
    """

    c_gamma: float = 1.0
    alpha: float = 0.75
    passes: int = 1

    def __post_init__(self):
        if not 0 < self.c_gamma < math.inf:
            raise ValueError(f"c_gamma must be positive and finite, got {self.c_gamma}")
        if not 0.5 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly between 0.5 and 1, got {self.alpha}")
        self.passes = as_count("passes", self.passes, 1)


def l1_objective(points, u) -> float:
    """Mean Euclidean distance from the points to u."""
    x = as_points(points)
    u = np.asarray(u, dtype=float).ravel()
    if u.shape[0] != x.shape[1]:
        raise ValueError(f"query dimension {u.shape[0]} does not match data dimension {x.shape[1]}")
    if not np.isfinite(u).all():
        raise ValueError("query point u must be finite")
    return float(pairwise_distances(x, u[None, :])[:, 0].mean())


def _start(x: np.ndarray, start) -> np.ndarray:
    """The caller's `start`, checked against x, or the coordinate-wise median of x."""
    if start is None:
        return np.median(x, axis=0)
    m = np.asarray(start, dtype=float).ravel()
    if m.shape[0] != x.shape[1]:
        raise ValueError("start dimension does not match data dimension")
    if not np.isfinite(m).all():
        raise ValueError("start must be finite")
    return m


def weiszfeld_median(points, tol: float = 1e-8, max_iter: int = 200, start=None) -> MedianEstimate:
    """Geometric median by Weiszfeld fixed-point iteration.

    Parameters
    ----------
    points : (n, d) array-like, nonempty
    tol : stopping threshold; iteration stops once the displacement
        satisfies ||m_new - m|| <= tol * (1 + ||m||)
    max_iter : iteration cap, at least 1
    start : optional finite initial iterate; defaults to the coordinate-wise
        median. An iterate on a data point takes the Vardi-Zhang step
        (see `_weiszfeld_blocks`), so it is never stuck there.
    """
    x = as_points(points)
    max_iter = as_count("max_iter", max_iter, 1)
    m, steps, converged = _weiszfeld_blocks(x, np.array([0, x.shape[0]]), _start(x, start)[None],
                                            tol, max_iter)
    return MedianEstimate(point=m[0], iterations=int(steps[0]), converged=bool(converged[0]),
                          objective=l1_objective(x, m[0]))


def _rowdot(v: np.ndarray) -> np.ndarray:
    """v[i] @ v[i] for every row, added in the order of `_utils._sumsq` whatever the
    memory layout of v: its square root equals np.linalg.norm(v, axis=1) of a C-ordered v
    bit for bit (not the 1-D np.linalg.norm(v[i]), a BLAS dot product whose rounding
    depends on the CPU kernel). An F-ordered product would be summed down its columns,
    one term at a time, so it is made C-ordered first."""
    return np.add.reduce(np.ascontiguousarray(v * v), axis=1)


def _vardi_zhang(s: np.ndarray, wsum: np.ndarray, m: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Next iterates of blocks whose iterates m sit on eta of their rows, from the
    coordinate sums s and weight totals wsum of the other rows (Vardi & Zhang,
    PNAS 2000). T = s / wsum is the plain step, which a block with eta = 0 takes.
    With R = s - wsum * m, the iterate is the block's median when |R| <= eta and
    stays; otherwise it moves to (1 - eta/|R|) T + (eta/|R|) m."""
    with np.errstate(invalid="ignore", divide="ignore"):   # where R = 0 or wsum = 0
        t = s / wsum[:, None]
        nr = np.sqrt(_rowdot(s - wsum[:, None] * m))
        r = (eta / nr)[:, None]
        moved = (1.0 - r) * t + r * m
    on = eta > 0
    return np.where((on & (nr <= eta))[:, None], m, np.where(on[:, None], moved, t))


def _weiszfeld_blocks(x: np.ndarray, bounds: np.ndarray, starts: np.ndarray, tol: float,
                      max_iter: int):
    """Weiszfeld iteration on every block x[bounds[j]:bounds[j+1]] at once; the
    package's only Weiszfeld solver.

    Block j starts at starts[j]. The blocks still iterating share one working
    copy of their rows, stored column by column under a row of ones, and a
    step is a handful of whole-array passes over it: distances over the d
    coordinate rows as np.linalg.norm adds them, each row's center by
    np.repeat, then one np.add.reduceat of the copy times the weights, whose
    first row is the blocks' weight totals and whose other d rows are their
    coordinate sums. Each such sum is the block's first row plus numpy's
    pairwise sum of its other rows; no sum goes through BLAS.
    The step moves m to the average of the rows weighted by 1 / |x - m|. Rows
    on the iterate (distance exactly 0) get weight 0 and their block takes
    the `_vardi_zhang` step, which stops at a median data point and leaves
    any other, so no block stalls where the plain step is undefined.

    A block stops once converged, when ||m_new - m|| <= tol * (1 + ||m||), or
    after max_iter steps; its rows then leave the working copy, which only
    shrinks and is never gathered from x again. An empty block keeps its
    start and counts as converged; only nonempty blocks iterate, so every
    segment of the reduceat is nonempty. Returns (points, steps, converged),
    one entry per block.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    m = np.array(starts, dtype=float)
    k, d = m.shape
    sizes = np.diff(bounds)
    steps = np.zeros(k, dtype=np.intp)
    converged = sizes == 0
    active = np.flatnonzero(sizes > 0)        # the blocks still iterating, in order
    na = sizes[active]                        # their sizes
    first = np.cumsum(na) - na                # their first rows in the working copy
    cur = m[active]                           # their iterates
    xa = np.ones((d + 1, bounds[-1] - bounds[0]))   # ones, and their rows column by column
    xa[1:] = x[bounds[0]:bounds[-1]].T
    step = 0
    while active.size and step < max_iter:
        dist = _sq_dists(xa[1:], np.repeat(cur.T, na, axis=1))
        w = np.sqrt(dist, out=dist)
        hit = None
        if not w.all():
            hit = w == 0.0
            w[hit] = np.inf                   # weight 0
        np.reciprocal(w, out=w)
        sums = np.add.reduceat(xa * w, first, axis=1)
        wsum, s = sums[0], sums[1:].T
        if hit is None:
            m_new = s / wsum[:, None]
        else:
            within = np.repeat(np.arange(active.size), na)    # active block of every row
            m_new = _vardi_zhang(s, wsum, cur, np.bincount(within[hit], minlength=active.size))
        # a block that stays on its median point moves by 0, which always passes
        done = np.sqrt(_rowdot(m_new - cur)) <= tol * (1.0 + np.sqrt(_rowdot(cur)))
        cur = m_new
        step += 1
        if done.any():
            gone = active[done]
            m[gone], steps[gone], converged[gone] = cur[done], step, True
            keep = ~done
            xa = xa[:, np.repeat(keep, na)]
            active, na, cur = active[keep], na[keep], cur[keep]
            first = np.cumsum(na) - na
    m[active] = cur
    steps[active] = step
    return m, steps, converged


def _rows(x, order):
    """The rows x[order] as lists of Python floats, converted _ROWS at a time: as
    lists they take 5-7 times the bytes of the array at d = 3..10, so a stream
    holds only one block of them whatever its length."""
    for lo in range(0, len(order), _ROWS):
        yield from x[order[lo:lo + _ROWS]].tolist()


def _asg_stream(x, order, centers, c_gamma, alpha):
    """The averaged Robbins-Monro stream over the rows x[order] (all the passes
    of a fit, concatenated) for the (k, d) codebook `centers`; returns the k
    averages. Each center's iterate, average and count start at the center and
    1. A row goes to its nearest average (ties to the lowest index; no search
    when k = 1), whose iterate steps c_gamma / (count + 1)**alpha along the
    unit vector to the row (no step for a row on it) and enters the average
    with weight 1 / (count + 1). Each distance is the square root of a `_sumsq`,
    np.linalg.norm's bit for bit. The stream runs on Python floats and int
    counts (numpy's integer power can differ in the last bit): per row, they
    cost less than numpy's call overhead on a few coordinates."""
    m = centers.tolist()
    m_bar = list(m)
    counts = [1] * len(m)
    search = len(m) > 1
    r = 0
    for xi in _rows(x, order):
        if search:
            r, nearest = 0, math.inf
            for j, c in enumerate(m_bar):
                dist = math.sqrt(_sumsq(list(map(sub, xi, c))))
                if dist < nearest:
                    r, nearest = j, dist
        mr, count = m[r], counts[r]
        diff = list(map(sub, xi, mr))
        s = _sumsq(diff)
        if s > 0.0:
            step = c_gamma / (count + 1) ** alpha / math.sqrt(s)
            mr = m[r] = [a + step * t for a, t in zip(mr, diff)]
        count = counts[r] = count + 1
        m_bar[r] = [b + (a - b) / count for a, b in zip(mr, m_bar[r])]
    return np.array(m_bar)


def asg_median(points, cfg: AsgConfig | None = None, seed: int = 0,
               start=None) -> MedianEstimate:
    """Geometric median by averaged stochastic gradient.

    Runs cfg.passes passes as one stream, each pass a fresh permutation of
    the data drawn from default_rng(seed) in turn, and returns the running
    average of the iterates.
    """
    x = as_points(points)
    cfg = cfg or AsgConfig()
    m = _start(x, start)
    rng = spawn_rng(seed)
    order = np.concatenate([rng.permutation(x.shape[0]) for _ in range(cfg.passes)])
    m_bar = _asg_stream(x, order, m[None], cfg.c_gamma, cfg.alpha)[0]
    return MedianEstimate(point=m_bar, iterations=len(order), converged=True,
                          objective=l1_objective(x, m_bar))
