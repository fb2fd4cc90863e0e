"""Geometric median estimators: unit examples, oracles, invariances."""

import numpy as np
import pytest
from scipy.optimize import minimize

from kmedians import AsgConfig, asg_median, l1_objective, weiszfeld_median
from kmedians.geomedian import _ROWS, _asg_stream, _rowdot, _rows, _sumsq, _weiszfeld_blocks


def test_l1_objective_values():
    assert l1_objective([[0.0, 0.0]], [0.0, 0.0]) == 0.0
    assert l1_objective([[0.0, 0.0], [2.0, 0.0]], [1.0, 0.0]) == 1.0
    assert l1_objective([[0.0, 0.0], [3.0, 4.0]], [0.0, 0.0]) == 2.5


def test_l1_objective_errors():
    with pytest.raises(ValueError):
        l1_objective(np.empty((0, 2)), [0.0, 0.0])
    with pytest.raises(ValueError):
        l1_objective([[0.0, 0.0]], [0.0, 0.0, 0.0])
    for u in ([np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]):
        with pytest.raises(ValueError, match="query point u must be finite"):
            l1_objective([[0.0, 0.0]], u)


def test_weiszfeld_single_point():
    est = weiszfeld_median([5.0])
    assert est.point[0] == 5.0
    assert est.objective == 0.0


def test_weiszfeld_1d_is_sample_median():
    est = weiszfeld_median(np.array([1.0, 2.0, 100.0]), tol=1e-8)
    assert abs(est.point[0] - 2.0) <= 1e-6
    assert est.converged


def test_weiszfeld_equilateral_triangle():
    angles = np.array([np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3])
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    est = weiszfeld_median(pts, tol=1e-10)
    assert np.linalg.norm(est.point) <= 1e-8


def test_weiszfeld_errors():
    with pytest.raises(ValueError):
        weiszfeld_median(np.empty((0, 3)))
    with pytest.raises(ValueError):
        weiszfeld_median([[np.nan, 0.0]])
    for solver in (weiszfeld_median, asg_median):
        with pytest.raises(ValueError, match="points must have at least one column"):
            solver(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        weiszfeld_median([[0.0, 1.0]], tol=0.0)
    for cap in (0, -3):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            weiszfeld_median([[0.0, 1.0]], max_iter=cap)
    for start in ([np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]):
        for solver in (weiszfeld_median, asg_median):
            with pytest.raises(ValueError, match="start must be finite"):
                solver([[0.0, 1.0], [2.0, 3.0]], start=start)


def _norm(v):
    """|v| summed as np.linalg.norm(., axis=1) sums a row, as the library does; the
    1-D np.linalg.norm(v) is a BLAS dot product, rounded by the CPU's kernel."""
    return np.linalg.norm(v[None], axis=1)[0]


def _first_plus_rest(w, x):
    """(coordinate sums, weight total) of the rows x weighted by w, each the first
    term plus numpy's pairwise sum of the others, as np.add.reduceat adds a block.
    w * x.T comes out F-ordered, and an axis-1 sum over that runs sequentially."""
    wx = np.ascontiguousarray(w * x.T)
    return wx[:, 0] + wx[:, 1:].sum(axis=1), w[0] + w[1:].sum()


def _reference_block(x, m, tol, max_iter):
    """Scalar Weiszfeld on one block: (point, steps, converged). The plain step
    while m sits on no row, the Vardi-Zhang step where it sits on eta rows,
    which weigh 0; an empty block keeps its start and counts as converged."""
    m = np.array(m, dtype=float)
    if x.shape[0] == 0:
        return m, 0, True
    for step in range(1, max_iter + 1):
        d = np.linalg.norm(x - m, axis=1)
        on = d == 0.0
        w = np.zeros_like(d)
        w[~on] = 1.0 / d[~on]
        s, wsum = _first_plus_rest(w, x)
        eta = int(on.sum())
        if eta == 0:
            m_new = s / wsum
        else:
            r_norm = _norm(s - wsum * m)
            if r_norm <= eta:           # m is the median
                m_new = m
            else:
                r = eta / r_norm
                m_new = (1.0 - r) * (s / wsum) + r * m
        if _norm(m_new - m) <= tol * (1.0 + _norm(m)):
            return m_new, step, True
        m = m_new
    return m, max_iter, False


@pytest.mark.parametrize("d", [1, 3, 8, 130])
def test_rowdot_adds_in_numpy_order_in_any_layout(d):
    # an F-ordered array, such as the transposed sums of `_weiszfeld_blocks`, adds
    # its rows pairwise as a C-ordered one does, not down its columns
    v = np.random.default_rng(d).normal(size=(7, d)) * 10.0 ** np.arange(-3, 4)[:, None]
    want = np.linalg.norm(v, axis=1).tobytes()
    for layout in (v, np.asfortranarray(v)):
        assert np.sqrt(_rowdot(layout)).tobytes() == want


def _batch(d, rng):
    """(name, rows, start) of blocks for one `_weiszfeld_blocks` batch: empty
    blocks first, in the middle and last, and iterates that start on a data
    point that is the median (p between pairs p +- v) and on one that is not
    (the row farthest from the mean)."""
    empty = np.empty((0, d))
    p, v = rng.normal(size=d), rng.normal(size=(3, d))
    spread = rng.normal(size=(12, d))
    far = spread[np.argmax(np.linalg.norm(spread - spread.mean(axis=0), axis=1))]
    heavy = rng.standard_t(1, size=(25, d)) * 100.0
    return [("empty first", empty, rng.normal(size=d)),
            ("gaussian", rng.normal(size=(30, d)), np.full(d, 1.0)),
            ("heavy tailed", heavy, rng.normal(size=d)),
            ("empty middle", empty, rng.normal(size=d)),
            ("median point", np.vstack([p + v, p, p - v]), p),
            ("leaves a point", spread, far),
            ("one row", rng.normal(size=(1, d)), np.zeros(d)),
            ("empty last", empty, rng.normal(size=d))]


@pytest.mark.parametrize("d", [1, 3, 8, 130])
def test_weiszfeld_blocks_match_a_scalar_reference_per_block(d):
    blocks = _batch(d, np.random.default_rng(d))
    x = np.vstack([rows for _, rows, _ in blocks])
    bounds = np.concatenate([[0], np.cumsum([rows.shape[0] for _, rows, _ in blocks])])
    starts = np.array([start for _, _, start in blocks])
    for max_iter in (500, 3):
        points, steps, converged = _weiszfeld_blocks(x, bounds, starts, 1e-10, max_iter)
        for j, (name, rows, start) in enumerate(blocks):
            ref, ref_steps, ref_converged = _reference_block(rows, start, 1e-10, max_iter)
            assert points[j].tobytes() == ref.tobytes(), (name, max_iter)
            assert (steps[j], converged[j]) == (ref_steps, ref_converged), (name, max_iter)
        named = {name: j for j, (name, _, _) in enumerate(blocks)}
        assert (steps[named["median point"]], converged[named["median point"]]) == (1, True)
        assert points[named["median point"]].tobytes() == starts[named["median point"]].tobytes()
        assert points[named["leaves a point"]].tobytes() != starts[named["leaves a point"]].tobytes()
        live = np.diff(bounds) > 0
        if max_iter == 500:   # blocks retire at different steps, all converged
            assert converged.all() and len(set(steps[live].tolist())) >= 3
        else:                 # the cap stops some blocks, others retire before it
            assert not converged.all() and converged[live].any()
            assert steps.max() == max_iter


def _nelder_mead_optimum(x):
    """Smallest mean distance scipy's Nelder-Mead finds from the mean and the
    coordinate-wise median; independent of the Weiszfeld code."""
    def f(u):
        return np.linalg.norm(x - u, axis=1).mean()
    opts = {"xatol": 1e-13, "fatol": 1e-15, "maxiter": 20000}
    return min(minimize(f, s0, method="Nelder-Mead", options=opts).fun
               for s0 in (x.mean(axis=0), np.median(x, axis=0)))


def _optimality(x, m):
    """(eta, |R|) at m: the rows on m, and the norm of the sum of unit vectors
    from m to the others; m is a median exactly when |R| <= eta."""
    diff = x - m
    d = np.linalg.norm(diff, axis=1)
    on = d == 0.0
    return int(on.sum()), float(np.linalg.norm((diff[~on] / d[~on, None]).sum(axis=0)))


def test_weiszfeld_stops_on_a_median_data_point():
    # |R| <= eta at the start: the start itself comes back after one step
    est = weiszfeld_median([1.0, 2.0, 100.0])
    assert (est.point[0], est.iterations, est.converged) == (2.0, 1, True)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(scale=5.0, size=2 * int(rng.integers(1, 20)) + 1)
        est = weiszfeld_median(x)
        assert (est.point[0], est.iterations, est.converged) == (np.median(x), 1, True)
    # the coordinate-wise median of a cross is its centre, where the unit vectors cancel
    cross = np.array([[0.0, 0.0], [1.0, 0.0], [-2.0, 0.0], [0.0, 3.0], [0.0, -1.0]])
    est = weiszfeld_median(cross)
    assert est.point.tobytes() == np.zeros(2).tobytes()
    assert (est.iterations, est.converged) == (1, True)


def test_weiszfeld_leaves_a_data_point_that_is_not_the_median():
    cases = [(np.array([[0.174, 0.1], [1.828, -0.026], [1.554, -0.557]]), 1)]
    rng = np.random.default_rng(12)
    while len(cases) < 60:
        x = rng.normal(size=(int(rng.integers(3, 9)), int(rng.integers(1, 4))))
        cases += [(x, i) for i in range(x.shape[0]) if _optimality(x, x[i])[1] > 1.0]
    for x, i in cases:
        est = weiszfeld_median(x, tol=1e-10, max_iter=5000, start=x[i])
        best = _nelder_mead_optimum(x)
        assert est.converged
        assert est.objective <= best * (1.0 + 1e-6), (x, i)


def test_weiszfeld_on_duplicated_points():
    # eta copies of p and a fan of other points, whose unit vectors from p sum
    # to a norm just below eta (p is the median) or just above it (it is not)
    p = np.array([3.0, -1.0])
    for eta, angles, median in ((2, (-60.0, 0.0, 62.0), True), (2, (-58.0, 0.0, 58.0), False),
                                (3, (-30.0, 30.0, -53.0, 53.0), True),
                                (3, (-30.0, 30.0, -48.0, 48.0), False)):
        rad = np.radians(angles)
        fan = np.column_stack([np.cos(rad), np.sin(rad)]) * np.arange(1.0, len(rad) + 1)[:, None]
        x = np.vstack([np.tile(p, (eta, 1)), p + fan])
        assert _optimality(x, p)[0] == eta
        assert (_optimality(x, p)[1] <= eta) == median
        est = weiszfeld_median(x, tol=1e-10, max_iter=5000, start=p)
        assert est.converged
        if median:
            assert est.point.tobytes() == p.tobytes()
            assert est.iterations == 1
        else:
            assert est.objective < l1_objective(x, p)
            assert est.objective <= _nelder_mead_optimum(x) * (1.0 + 1e-6)


def test_estimate_metadata_consistent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=(rng.integers(2, 30), rng.integers(1, 5)))
        est = weiszfeld_median(x, tol=1e-9, max_iter=150)
        recomputed = l1_objective(x, est.point)
        assert abs(est.objective - recomputed) <= 1e-12 * max(1.0, recomputed)
        assert est.iterations <= 150


def test_weiszfeld_descent_is_monotone():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.normal(scale=rng.uniform(0.5, 5.0),
                       size=(rng.integers(3, 40), rng.integers(1, 6)))
        m = x.mean(axis=0) + rng.normal(scale=0.3, size=x.shape[1])
        prev = l1_objective(x, m)
        for _ in range(25):
            m = weiszfeld_median(x, tol=1e-12, max_iter=1, start=m).point
            cur = l1_objective(x, m)
            assert cur <= prev + 1e-12
            prev = cur


def test_weiszfeld_1d_matches_order_statistic():
    rng = np.random.default_rng(2)
    tol = 1e-8
    for _ in range(50):
        n = 2 * int(rng.integers(1, 25)) + 1
        x = rng.normal(scale=10.0, size=n)
        est = weiszfeld_median(x, tol=tol)
        assert abs(est.point[0] - np.median(x)) <= 10 * tol * (1 + abs(np.median(x)))


def test_weiszfeld_translation_equivariance():
    rng = np.random.default_rng(3)
    tol = 1e-9
    for _ in range(20):
        x = rng.normal(size=(15, 3))
        v = rng.normal(scale=50.0, size=3)
        base = weiszfeld_median(x, tol=tol).point
        shifted = weiszfeld_median(x + v, tol=tol).point
        assert np.linalg.norm(shifted - (base + v)) <= 10 * tol * (1 + np.linalg.norm(base + v))


def test_weiszfeld_scale_equivariance():
    rng = np.random.default_rng(4)
    tol = 1e-9
    for _ in range(20):
        x = rng.normal(size=(12, 2))
        lam = float(rng.uniform(0.1, 20.0))
        base = weiszfeld_median(x, tol=tol).point
        scaled = weiszfeld_median(lam * x, tol=tol).point
        assert np.linalg.norm(scaled - lam * base) <= 10 * tol * lam * (1 + np.linalg.norm(base))


def test_weiszfeld_beats_grid_small_2d():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(-5, 5, size=(int(rng.integers(3, 11)), 2))
        est = weiszfeld_median(x, tol=1e-10, max_iter=500)
        lo, hi = x.min(axis=0), x.max(axis=0)
        g0 = np.linspace(lo[0], hi[0], 200)
        g1 = np.linspace(lo[1], hi[1], 200)
        grid = np.stack(np.meshgrid(g0, g1), axis=-1).reshape(-1, 2)
        dists = np.linalg.norm(x[:, None, :] - grid[None, :, :], axis=2).mean(axis=0)
        assert est.objective <= dists.min() + 1e-3


def test_asg_config_validation():
    with pytest.raises(ValueError):
        AsgConfig(c_gamma=0.0)
    with pytest.raises(ValueError):
        AsgConfig(alpha=0.5)
    with pytest.raises(ValueError):
        AsgConfig(alpha=1.0)
    with pytest.raises(ValueError):
        AsgConfig(passes=0)


def test_asg_degenerate_support():
    x = np.tile([3.0, 3.0], (1000, 1))
    est = asg_median(x, AsgConfig(), seed=0)
    assert np.linalg.norm(est.point - [3.0, 3.0]) <= 1e-6
    assert est.iterations == 1000


def test_asg_1d_close_to_median():
    est = asg_median(np.array([1.0, 2.0, 100.0]), AsgConfig(passes=50), seed=7)
    assert abs(est.point[0] - 2.0) <= 0.2


def test_asg_agrees_with_weiszfeld_gaussian():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20_000, 3))
    asg = asg_median(x, AsgConfig(), seed=8)
    wsz = weiszfeld_median(x, tol=1e-9)
    assert np.linalg.norm(asg.point - wsz.point) <= 0.05


def test_asg_errors():
    with pytest.raises(ValueError):
        asg_median(np.empty((0, 2)))


def _spread(rng, shape):
    """Normal draws times factors over 2**-30..2**30, so the order of a sum shows."""
    return rng.standard_normal(shape) * np.exp2(rng.integers(-30, 31, size=shape))


def test_sumsq_adds_in_numpy_order():
    rng = np.random.default_rng(31)
    for n in range(1, 301):
        for _ in range(5):
            t = _spread(rng, n)
            assert _sumsq(t.tolist()) == np.add.reduce(t * t), n


def _reference_stream(x, order, m, c_gamma, alpha):
    """The ASG stream in numpy, |xi - m| by np.linalg.norm(., axis=1)."""
    m, m_bar = m.copy(), m.copy()
    for count, i in enumerate(order, start=1):
        diff = x[i] - m
        nrm = _norm(diff)
        if nrm > 0:
            m = m + (c_gamma / (count + 1) ** alpha / nrm) * diff
        m_bar = m_bar + (m - m_bar) / (count + 1)
    return m_bar


def test_stream_rows_cross_blocks():
    rng = np.random.default_rng(32)
    x = rng.standard_normal((50, 3))
    for length in (1, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 3):
        order = rng.integers(50, size=length)
        assert list(_rows(x, order)) == x[order].tolist(), length


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16, 17, 130])
def test_asg_stream_matches_numpy_reference(d):
    rng = np.random.default_rng(d)
    x = _spread(rng, (60, d))
    x[7] = x[3]                       # a repeated row, which can meet the iterate
    order = np.concatenate([rng.permutation(60) for _ in range(3)])
    for m in (np.median(x, axis=0), x[order[0]]):   # the second makes the first step 0
        for c_gamma, alpha in ((1.0, 0.75), (2.5, 0.6)):
            got = _asg_stream(x, order, m, c_gamma, alpha)
            assert got.dtype == np.float64
            assert got.tobytes() == _reference_stream(x, order, m, c_gamma, alpha).tobytes()


def test_medians_stay_near_the_bulk_under_half_contamination():
    # breakdown point 1/2 for one median: floor((n-1)/2) rows at 1e12 cannot carry
    # the estimate away. The exact median lies within 2 b r / (b - m) of the
    # bulk's median (b bulk rows of radius r about it, m moved rows), a bound that
    # grows as m nears n/2; for these small n it is also within the bulk's diameter
    rng = np.random.default_rng(13)
    for n, d in ((5, 1), (7, 2), (9, 2), (11, 1), (21, 3), (101, 2), (101, 5)):
        x = rng.normal(size=(n, d))
        m = (n - 1) // 2
        bulk = x[m:].copy()
        x[:m] = 1e12
        centre = weiszfeld_median(bulk, tol=1e-10).point
        radius = np.linalg.norm(bulk - centre, axis=1).max()
        diameter = max(np.linalg.norm(bulk - row, axis=1).max() for row in bulk)
        wsz = weiszfeld_median(x, tol=1e-10, max_iter=1000).point
        b = n - m
        assert np.linalg.norm(wsz - centre) <= 2 * b * radius / (b - m)
        if n <= 21:
            for est in (wsz, asg_median(x, seed=n).point):
                assert np.linalg.norm(est - centre) <= diameter, (n, d)
