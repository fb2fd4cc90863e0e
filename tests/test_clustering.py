"""K-medians variants, K-means baseline, initialization, distortion."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmedians import (
    ALGORITHMS,
    AsgConfig,
    InitMethod,
    adjusted_rand_index,
    asg_median,
    assign,
    empirical_distortion,
    init_centers,
    kmeans_baseline,
    lloyd_kmedians,
    online_kmedians,
    run_clustering,
    run_selection,
    weiszfeld_median,
)
from kmedians import clustering
from kmedians._genie import GenieHierarchy, _spanning_tree
from kmedians._utils import _sq_dists, pairwise_distances
from kmedians.clustering import (
    _asg_step,
    _assign_repaired,
    _lloyd_once,
    _mean_step,
    _median_step,
)
from kmedians.simulation import (
    ContaminationSpec,
    MixtureSpec,
    contaminate,
    make_scenario,
    sample_mixture,
    sphere_centers,
)


def two_blobs(rng, n_per=100, centers=((-10.0, 0.0), (10.0, 0.0)), scale=1.0):
    c = np.asarray(centers)
    pts = np.vstack([c[j] + rng.normal(scale=scale, size=(n_per, 2))
                     for j in range(len(c))])
    labels = np.repeat(np.arange(len(c)), n_per)
    return pts, labels, c


# ---------------------------------------------------------------------------
# assign / empirical_distortion


def test_assign_basic():
    pts = np.array([[0.0, 0.0], [10.0, 0.0]])
    assert assign(pts, pts).tolist() == [0, 1]
    # equidistant point goes to the lowest center index
    assert assign([[5.0, 0.0]], pts).tolist() == [0]
    assert assign(pts, [[1.0, 1.0]]).tolist() == [0, 0]


def test_assign_empty_codebook():
    with pytest.raises(ValueError):
        assign([[0.0, 0.0]], np.empty((0, 2)))


def test_empirical_distortion_values():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert empirical_distortion(pts, pts) == 0.0
    assert empirical_distortion(pts, [[0.0, 0.0]], "l1") == 1.0
    assert empirical_distortion(pts, [[0.0, 0.0]], "squared_l2") == 2.0
    with pytest.raises(ValueError):
        empirical_distortion(np.empty((0, 2)), [[0.0, 0.0]])
    with pytest.raises(ValueError):
        empirical_distortion(pts, pts, norm="l3")


# ---------------------------------------------------------------------------
# initialization


def test_init_k_equals_n_returns_all_points():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(6, 2))
    for kind in ("robust_hierarchical", "plus_plus_l1"):
        c = init_centers(pts, 6, InitMethod(kind=kind), seed=1)
        assert sorted(map(tuple, c)) == sorted(map(tuple, pts))


def test_init_k1_is_coordinate_median():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(11, 3))
    c = init_centers(pts, 1)
    assert np.allclose(c[0], np.median(pts, axis=0))


def test_init_separated_blobs_one_center_each():
    rng = np.random.default_rng(2)
    pts, _, centers = two_blobs(rng, n_per=50, scale=0.2)
    for kind in ("robust_hierarchical", "plus_plus_l1"):
        for seed in range(20):
            c = init_centers(pts, 2, InitMethod(kind=kind), seed=seed)
            sides = sorted(np.sign(c[:, 0]))
            assert sides == [-1.0, 1.0], f"{kind} seed {seed} put both centers on one side"


def test_init_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        init_centers(pts, 4)
    with pytest.raises(ValueError):
        InitMethod(kind="bogus")
    with pytest.raises(ValueError):
        InitMethod(kind="provided")
    with pytest.raises(ValueError):
        InitMethod(gini_threshold=0.0)


def test_provided_init_shape_checked():
    pts = np.zeros((4, 2))
    bad = InitMethod(kind="provided", provided_centers=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        init_centers(pts, 2, bad)


def _gini(sizes: np.ndarray) -> float:
    """Gini index of a positive size vector (0 for equal sizes)."""
    c = sizes.shape[0]
    if c <= 1:
        return 0.0
    s = np.sort(sizes)
    i = np.arange(1, c + 1)
    return float(((2 * i - c - 1) * s).sum() / ((c - 1) * s.sum()))


def test_gini_index():
    assert _gini(np.array([5, 5, 5])) == 0.0
    assert _gini(np.array([1])) == 0.0
    # one dominant cluster vs singletons: high inequality
    assert _gini(np.array([97, 1, 1, 1])) > 0.9


def test_genie_hierarchy_levels():
    rng = np.random.default_rng(3)
    pts, truth, _ = two_blobs(rng, n_per=30)
    tree = GenieHierarchy(pts)
    assert len(np.unique(tree.labels_at(60))) == 60
    lab2 = tree.labels_at(2)
    assert adjusted_rand_index(lab2, truth) == 1.0
    assert np.all(tree.labels_at(1) == 0)


# Reference Genie construction: a dense Prim loop and the O(n)-per-merge
# relabelling loop that the fast construction in kmedians._genie must match.


def _reference_prim_mst(x: np.ndarray):
    """Prim from vertex 0 over the edge key (w, min end, max end), a total
    order, so that tied weights too give the one tree; edges in key order,
    each from the end nearer vertex 0."""
    n = x.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_dist = np.linalg.norm(x - x[0], axis=1)
    best_dist[0] = np.inf
    best_from = np.zeros(n, dtype=np.intp)
    idx = np.arange(n)
    eu = np.empty(n - 1, dtype=np.intp)
    ev = np.empty(n - 1, dtype=np.intp)
    ew = np.empty(n - 1, dtype=float)
    for t in range(n - 1):
        lo, hi = np.minimum(idx, best_from), np.maximum(idx, best_from)
        tied = np.flatnonzero(~in_tree & (best_dist == best_dist[~in_tree].min()))
        j = int(tied[np.lexsort((hi[tied], lo[tied]))[0]])
        eu[t], ev[t], ew[t] = best_from[j], j, best_dist[j]
        in_tree[j] = True
        best_dist[j] = np.inf
        d = np.linalg.norm(x - x[j], axis=1)
        upd = ~in_tree & ((d < best_dist) | (d == best_dist) & (
            (np.minimum(idx, j) < lo) | (np.minimum(idx, j) == lo) & (np.maximum(idx, j) < hi)))
        best_dist[upd] = d[upd]
        best_from[upd] = j
    order = np.lexsort((np.maximum(eu, ev), np.minimum(eu, ev), ew))
    return eu[order], ev[order], ew[order]


def _reference_merge_order(x: np.ndarray, gini_threshold: float):
    n = x.shape[0]
    if n <= 1:
        return []
    eu, ev, _ = _reference_prim_mst(x)   # weight-sorted

    label = np.arange(n)          # cluster id per point
    size = np.ones(n, dtype=np.intp)
    active = np.ones(n, dtype=bool)
    alive = np.ones(n - 1, dtype=bool)
    members: list[list[int]] = [[i] for i in range(n)]
    merges: list[tuple[int, int]] = []

    for _ in range(n - 1):
        cu = label[eu]
        cv = label[ev]
        alive &= cu != cv
        if _gini(size[active]) > gini_threshold:
            s_min = size[active].min()
            cand = alive & ((size[cu] == s_min) | (size[cv] == s_min))
        else:
            cand = alive
        e = int(np.argmax(cand))  # edges are weight-sorted: first hit is cheapest
        a, b = int(label[eu[e]]), int(label[ev[e]])
        alive[e] = False
        merges.append((int(eu[e]), int(ev[e])))
        if len(members[a]) < len(members[b]):
            a, b = b, a
        for p in members[b]:
            label[p] = a
        members[a].extend(members[b])
        members[b] = []
        size[a] += size[b]
        active[b] = False
    return merges


def _unoriented(merges):
    """The merges as (smaller end, larger end) pairs."""
    return [(min(u, v), max(u, v)) for u, v in merges]


def _oracle_datasets():
    rng = np.random.default_rng(11)
    s2 = make_scenario("s2", seed=4)
    grid = rng.integers(0, 5, size=(400, 2)).astype(float)
    s3 = make_scenario("s3", seed=2).points
    yield "s1", make_scenario("s1", seed=3).points
    yield "s2", s2.points
    yield "s3", s3
    yield "s2+t1", contaminate(s2, ContaminationSpec(rho=0.2, law="student", df=1),
                               seed=5).points
    yield "grid duplicates", grid
    yield "repeated rows", np.vstack([s3[:300], s3[:100], s3[50:150]])
    for n in (1, 2, 3):
        yield f"n={n}", rng.normal(size=(n, 3))
        yield f"n={n} coincident", np.ones((n, 2))


@pytest.mark.parametrize("x", [pytest.param(x, id=name) for name, x in _oracle_datasets()])
def test_genie_merges_match_reference(x):
    before = x.copy()
    for g in (0.1, 0.3, 0.5, 1.0):
        assert _unoriented(GenieHierarchy(x, g).merges) == _unoriented(
            _reference_merge_order(x, g)), g
    assert np.array_equal(x, before)


def _reference_labels_at(merges, n, k):
    """Replay the first n - k merges in a union-find, relabel by first occurrence."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i
    for u, v in merges[: n - k]:
        parent[find(v)] = find(u)
    first: dict[int, int] = {}
    return np.array([first.setdefault(find(i), len(first)) for i in range(n)])


@pytest.mark.parametrize("x", [pytest.param(x, id=name) for name, x in _oracle_datasets()])
def test_genie_labels_match_reference(x):
    n = x.shape[0]
    for g in (0.1, 0.3, 1.0):
        tree = GenieHierarchy(x, g)
        for k in sorted({1, 2, 3, 5, 10, 20, n // 2, n - 1, n} & set(range(1, n + 1))):
            assert np.array_equal(tree.labels_at(k), _reference_labels_at(tree.merges, n, k))


def _assert_same_edges(got, want):
    """Equal (smaller end, larger end, weight) arrays, bit for bit, dtypes too."""
    (gu, gv, gw), (wu, wv, ww) = got, want
    for a, b in ((np.minimum(gu, gv), np.minimum(wu, wv)),
                 (np.maximum(gu, gv), np.maximum(wu, wv)), (gw, ww)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _assert_reference_tree(x):
    _assert_same_edges(_spanning_tree(x), _reference_prim_mst(x))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(1, 300), d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       log_scale=st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12))
def test_spanning_tree_equals_reference_on_continuous_draws(n, d, seed, log_scale):
    # edges, order and weights, bit for bit
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * 10.0 ** np.array(log_scale[:d])
    _assert_reference_tree(x)
    # and the same tree and Genie partitions whatever the order of the rows
    perm = rng.permutation(n)
    u, v, w = _spanning_tree(x[perm])
    u, v = perm[u], perm[v]
    order = np.lexsort((np.maximum(u, v), np.minimum(u, v), w))
    _assert_same_edges((u[order], v[order], w[order]), _spanning_tree(x))
    tree, shuffled = GenieHierarchy(x), GenieHierarchy(x[perm])
    for k in sorted({1, 2, 5, n // 2, n} & set(range(1, n + 1))):
        labels = np.empty(n, dtype=np.intp)
        labels[perm] = shuffled.labels_at(k)
        # k labels on each side, paired one to one: the same partition
        assert len(set(zip(labels.tolist(), tree.labels_at(k).tolist()))) == k, k


def _tree_cases():
    rng = np.random.default_rng(21)
    five = rng.normal(size=(5, 3))
    yield "many duplicates", five[rng.integers(0, 5, size=300)]
    yield "all coincident", np.zeros((40, 2))
    yield "duplicates in a cloud", np.vstack([rng.normal(size=(200, 2)),
                                              np.repeat(rng.normal(size=(4, 2)), 25, axis=0)])
    for n in range(2, 9):    # fewer points than the first query's neighbours
        yield f"n={n} below K", rng.normal(size=(n, 4))
    yield "one point far from a tight cluster", np.vstack(
        [rng.normal(size=(299, 3)) * 1e-3, [[1e4, -1e4, 1e4]]])
    yield "student t1", rng.standard_t(1, size=(300, 3))
    yield "well-separated blobs", (rng.uniform(-100, 100, size=(12, 5))[rng.integers(0, 12, 300)]
                                   + rng.normal(size=(300, 5)))


@pytest.mark.parametrize("x", [pytest.param(x, id=name) for name, x in _tree_cases()])
def test_spanning_tree_equals_reference_on_fixed_cases(x):
    _assert_reference_tree(x)


def test_genie_merges_match_reference_on_small_draws():
    # with few points the Gini index often equals 0.5 exactly, which tests
    # the strict comparison with the threshold
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.normal(size=(int(rng.integers(4, 13)), 2))
        for g in (0.1, 0.3, 0.5, 1.0):
            assert _unoriented(GenieHierarchy(x, g).merges) == _unoriented(
                _reference_merge_order(x, g))


@pytest.mark.parametrize("d", list(range(1, 21)) + [129, 200])
def test_sq_dists_equal_numpy_norm_bitwise(d):
    rng = np.random.default_rng(d)
    for m in (1, 3, 1000):
        x = rng.normal(size=(m, d)) * rng.choice([1e-3, 1.0, 1e3], size=(m, d))
        for j in {0, m // 2, m - 1}:
            got = np.sqrt(_sq_dists(x.T.copy(), x[j]))
            assert np.array_equal(got, np.linalg.norm(x - x[j], axis=1)), (m, j)


@pytest.mark.parametrize("d", list(range(1, 21)) + [129])
def test_pairwise_distances_equal_broadcast_norm_bitwise(d):
    rng = np.random.default_rng(100 + d)
    x = rng.normal(size=(300, d)) * rng.choice([1e-3, 1.0, 1e3], size=(300, d))
    c = np.vstack([x[[0, 150, 299]], rng.normal(size=(4, d))])   # three coincident rows
    got = pairwise_distances(x, c)
    assert np.array_equal(got, np.linalg.norm(x[:, None] - c[None], axis=2))
    assert got[0, 0] == got[150, 1] == got[299, 2] == 0.0
    assert got.flags.c_contiguous


def test_genie_spans_when_squared_distances_overflow():
    # at 1e200 every squared distance is inf, at 1e-200 every one is 0; the
    # partitions must still be those of the unscaled points, two blobs at k = 2
    rng = np.random.default_rng(1)
    pts = np.vstack([rng.normal(size=(10, 2)) - 5, rng.normal(size=(10, 2)) + 5])
    plain = GenieHierarchy(pts)
    assert np.array_equal(plain.labels_at(2), np.repeat([0, 1], 10))
    for factor in (1e200, 1e-200):
        tree = GenieHierarchy(pts * factor)
        for k in (1, 2, 5, 20):
            assert np.array_equal(tree.labels_at(k), plain.labels_at(k)), (factor, k)


def _power_of_two_cases():
    """Two blobs, rows with duplicates, and uniform data in five dimensions."""
    rng = np.random.default_rng(1)
    dup = rng.normal(size=(300, 3))
    dup[1:4] = dup[0]
    return [("blobs", np.vstack([rng.normal(size=(10, 2)) - 5, rng.normal(size=(10, 2)) + 5])),
            ("duplicates", dup), ("uniform", rng.uniform(size=(500, 5)))]


@pytest.mark.parametrize("e", [250, 300, 540, 700, 900, -250, -300, -540, -700, -900])
def test_tree_and_genie_are_exact_under_power_of_two_scaling(e):
    # a power of two changes no mantissa: beyond the range where squared
    # distances overflow or underflow, the tree, its weights times 2^e and the
    # merges must still be those of the unscaled points, bit for bit
    for name, x in _power_of_two_cases():
        u0, v0, w0 = _spanning_tree(x)
        u, v, w = _spanning_tree(np.ldexp(x, e))
        assert np.array_equal(u, u0) and np.array_equal(v, v0), name
        assert w.tobytes() == np.ldexp(w0, e).tobytes(), name
        plain, scaled = GenieHierarchy(x), GenieHierarchy(np.ldexp(x, e))
        assert scaled.merges == plain.merges, name
        for k in (2, 3, 10):
            assert np.array_equal(scaled.labels_at(k), plain.labels_at(k)), (name, k)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(scenario=st.sampled_from(["s1", "s2", "s3"]), draw=st.integers(0, 2**16),
       k=st.integers(1, 6), e=st.integers(-250, 250),
       init=st.sampled_from(["robust_hierarchical", "plus_plus_l1"]), seed=st.integers(0, 99))
def test_kmeans_is_exact_under_power_of_two_scaling(scenario, draw, k, e, init, seed):
    # K-means squares no step length and compares only distances, so a power of
    # two in range changes no label and scales centers and distortion exactly;
    # offline (an absolute Weiszfeld stop test below unit scale), semi_online and
    # online (steps in data units) do not have this property
    x = make_scenario(scenario, draw).points
    plain = run_clustering(x, k, "kmeans", seed, init=InitMethod(kind=init), n_start=2)
    scaled = run_clustering(np.ldexp(x, e), k, "kmeans", seed, init=InitMethod(kind=init),
                            n_start=2)
    assert np.array_equal(scaled.labels, plain.labels)
    assert scaled.centers.tobytes() == np.ldexp(plain.centers, e).tobytes()
    assert scaled.distortion == np.ldexp(plain.distortion, 2 * e)


# ---------------------------------------------------------------------------
# lloyd_kmedians


# Reference Lloyd loop: one M-step call per nonempty cluster, on x[labels == j],
# which the whole-codebook M-steps of kmedians.clustering must match bit for bit.


def _reference_repair_empty(x, centers, labels):
    """Re-seed centers that received no points at the farthest-out point;
    returns (centers, labels) with labels recomputed if anything moved."""
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k)
    if (counts > 0).all():
        return centers, labels
    dmin = pairwise_distances(x, centers).min(axis=1)
    for j in np.flatnonzero(counts == 0):
        far = int(np.argmax(dmin))
        centers[j] = x[far]
        dmin = np.minimum(dmin, np.linalg.norm(x - centers[j], axis=1))
    return centers, np.argmin(pairwise_distances(x, centers), axis=1)


def _reference_lloyd(x, centers, m_step, max_iter, capped=False):
    """Lloyd with m_step(members, center, full) per nonempty cluster. With `capped`
    (the two-phase offline M-step) full is False until the labels first repeat, then
    True, and True at iteration max_iter; the loop stops on repeated labels only
    after a full step. Without it, full is always True."""
    centers = centers.copy()
    centers, labels = _reference_repair_empty(
        x, centers, np.argmin(pairwise_distances(x, centers), axis=1))
    iterations, full = 0, not capped
    for _ in range(max_iter):
        iterations += 1
        if iterations == max_iter:
            full = True
        for j in range(centers.shape[0]):
            mask = labels == j
            if mask.any():
                centers[j] = m_step(x[mask], centers[j], full)
        centers, new_labels = _reference_repair_empty(
            x, centers, np.argmin(pairwise_distances(x, centers), axis=1))
        repeat = np.array_equal(new_labels, labels)
        labels = new_labels
        if repeat and full:
            break
        full = full or repeat
    return centers, labels, iterations, pairwise_distances(x, centers).min(axis=1)


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


def _reference_weiszfeld(x, m, tol, max_iter, coincident=None):
    """Scalar Weiszfeld from m: the plain step while m sits on no point of x, and
    the Vardi-Zhang step where it sits on eta of them, those points weighing 0.
    Each coincident step appends (eta, stayed) to `coincident` when given."""
    m = m.copy()
    for _ in range(max_iter):
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
            if coincident is not None:
                coincident.append((eta, bool(r_norm <= eta)))
            if r_norm <= eta:           # m is the median
                return m
            r = eta / r_norm
            m_new = (1.0 - r) * (s / wsum) + r * m
        if _norm(m_new - m) <= tol * (1.0 + _norm(m)):
            return m_new
        m = m_new
    return m


def _reference_asg_step(cfg, rng):
    """Scalar averaged stochastic gradient from the center, point by point over
    cfg.passes permutations of the members; t counts the center as one point.
    A stream has no cap, so `full` is unused."""
    def m_step(members, center, full=True):
        m, m_bar, t = center.copy(), center.copy(), 1
        for _ in range(cfg.passes):
            for i in rng.permutation(members.shape[0]):
                diff = members[i] - m
                nrm = _norm(diff)
                if nrm > 0:
                    m = m + (cfg.c_gamma / (t + 1) ** cfg.alpha / nrm) * diff
                t += 1
                m_bar = m_bar + (m - m_bar) / t
        return m_bar
    return m_step


def _lloyd_cases():
    """(name, points, initial centers)."""
    rng = np.random.default_rng(21)
    s2 = make_scenario("s2", seed=4).points
    sphere = sample_mixture(MixtureSpec(sphere_centers(10, 10.0, 5, seed=1), 60), seed=2)
    cases = [
        ("s1", make_scenario("s1", seed=3).points, 6),
        ("s2", s2, 4),
        ("s3", make_scenario("s3", seed=2).points, 15),
        ("sphere10+t1", contaminate(sphere, ContaminationSpec(rho=0.1, law="student", df=1),
                                    seed=3).points, 10),
        ("d=1", rng.standard_t(3, size=(400, 1)), 5),
        ("grid duplicates", rng.integers(0, 5, size=(400, 2)).astype(float), 8),
        ("k=1", s2, 1),
        # three distinct points for five centers: two clusters stay empty
        ("empty clusters", np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]], 7, axis=0), 5),
    ]
    for name, x, k in cases:
        yield name, x, init_centers(x, k)
    # by symmetry the first step from (0, 0.5) lands exactly on the point (0, 0)
    x = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [100.0, 0.0], [101.0, 0.0], [100.0, 1.0]])
    yield "lands on a point", x, np.array([[0.0, 0.5], [100.3, 0.3]])
    # the first step from (0, 0) lands exactly on (0, 1), which is not the median:
    # every distance from (0, 0) is a power of two, so every weight, product and
    # partial sum is exact whatever the order of summation (sums (0, 4), total 4)
    x = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 4.0], [0.0, 8.0], [1.0, 0.0], [-1.0, 0.0],
                  [16.0, 0.0], [-16.0, 0.0], [100.0, 0.0], [101.0, 0.0], [100.0, 1.0]])
    yield "lands off the median", x, np.array([[0.0, 0.0], [100.3, 0.3]])
    # all centers start on one point: two are empty and re-seeded one after the
    # other, and the first M-step must see the labels assigned after that
    x = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0], [0.0, 10.0], [0.0, 10.2]])
    yield "coincident start", x, np.zeros((3, 2))


def _assert_same_fit(got, ref):
    assert got[0].tobytes() == ref[0].tobytes()    # bit for bit, signed zeros included
    assert np.array_equal(got[1], ref[1])
    assert got[2] == ref[2]
    assert got[3].tobytes() == ref[3].tobytes()


@pytest.mark.parametrize("x,c0", [pytest.param(x, c, id=name) for name, x, c in _lloyd_cases()])
def test_lloyd_once_matches_reference(x, c0):
    # the two-phase Weiszfeld step at the shipped caps, at tighter ones, and
    # with max_iter 2, whose second iteration is full whatever the labels do
    for tol, cap, warm, max_iter in ((1e-6, 100, clustering._MEDIAN_WARM_STEPS, 100),
                                     (1e-10, 3, 1, 100),
                                     (1e-6, 100, clustering._MEDIAN_WARM_STEPS, 2)):
        def weiszfeld(members, center, full):
            return _reference_weiszfeld(members, center, tol, cap if full else warm)
        _assert_same_fit(_lloyd_once(x, c0, _median_step(tol, cap, warm), max_iter, capped=True),
                         _reference_lloyd(x, c0, weiszfeld, max_iter, capped=True))
    _assert_same_fit(_lloyd_once(x, c0, _mean_step, 100),
                     _reference_lloyd(x, c0, lambda members, center, full: members.mean(axis=0),
                                      100))
    cfg = AsgConfig(passes=2)
    _assert_same_fit(_lloyd_once(x, c0, _asg_step(cfg, np.random.default_rng(7)), 3),
                     _reference_lloyd(x, c0, _reference_asg_step(cfg, np.random.default_rng(7)), 3))


def _reference_plateau_lloyd(x, centers, m_step, max_iter, p, rtol, seen):
    """`_reference_lloyd` with the semi_online plateau stop: after p iterations in
    a row that do not lower the best mean distance by more than rtol of it, stop;
    return the first iterate with the lowest mean distance. Appends every
    iterate's (centers, labels) to `seen`."""
    def assigned(c):
        c, labels = _reference_repair_empty(x, c, np.argmin(pairwise_distances(x, c), axis=1))
        seen.append((c.copy(), labels))
        return c, labels, pairwise_distances(x, c).min(axis=1)

    centers, labels, dmin = assigned(centers.copy())
    best, stale, stop, iterations = (centers.copy(), labels, dmin), 0, "cap", 0
    for _ in range(max_iter):
        iterations += 1
        for j in range(centers.shape[0]):
            mask = labels == j
            if mask.any():
                centers[j] = m_step(x[mask], centers[j])
        centers, new_labels, dmin = assigned(centers)
        repeat = np.array_equal(new_labels, labels)
        labels = new_labels
        if dmin.mean() < best[2].mean():
            stale = stale + 1 if dmin.mean() >= best[2].mean() * (1 - rtol) else 0
            best = centers.copy(), labels, dmin
        else:
            stale += 1
        if repeat:
            stop = "labels_repeat"
            break
        if stale >= p:
            stop = "plateau"
            break
    return (*best[:2], iterations, best[2], stop)


@pytest.mark.parametrize("x,c0", [pytest.param(x, c, id=name) for name, x, c in _lloyd_cases()])
def test_plateau_lloyd_matches_reference(x, c0, monkeypatch):
    # the semi_online loop, iterate for iterate, at the shipped constants and at
    # a looser pair that stops sooner
    for p, rtol in ((clustering._PLATEAU_ITERS, clustering._PLATEAU_RTOL), (2, 1e-2)):
        monkeypatch.setattr(clustering, "_PLATEAU_ITERS", p)
        monkeypatch.setattr(clustering, "_PLATEAU_RTOL", rtol)
        got_seen, ref_seen = [], []
        assign_repaired = clustering._assign_repaired

        def recorded(x, centers):
            out = assign_repaired(x, centers)
            got_seen.append((out[0].copy(), out[1]))
            return out
        monkeypatch.setattr(clustering, "_assign_repaired", recorded)
        cfg = AsgConfig()
        got = _lloyd_once(x, c0, _asg_step(cfg, np.random.default_rng(7)), 100, plateau=True)
        monkeypatch.setattr(clustering, "_assign_repaired", assign_repaired)
        ref = _reference_plateau_lloyd(x, c0, _reference_asg_step(cfg, np.random.default_rng(7)),
                                       100, p, rtol, ref_seen)
        _assert_same_fit(got, ref)
        assert got[4] == ref[4], (p, rtol)
        assert len(got_seen) == len(ref_seen) == got[2] + 1
        for (gc, gl), (rc, rl) in zip(got_seen, ref_seen):
            assert gc.tobytes() == rc.tobytes() and np.array_equal(gl, rl)


def test_plateau_stop_returns_the_best_iterate(monkeypatch):
    # the stop comes after p stale iterations, so the last iterate is rarely the
    # best; the returned one is, with its own assignment
    x = make_scenario("s2", seed=1).points
    iterates = []
    assign_repaired = clustering._assign_repaired

    def recorded(x, centers):
        out = assign_repaired(x, centers)
        iterates.append((out[0].copy(), out[2].mean()))
        return out
    monkeypatch.setattr(clustering, "_assign_repaired", recorded)
    centers, labels, iterations, dmin, stop = _lloyd_once(
        x, init_centers(x, 4), _asg_step(AsgConfig(), np.random.default_rng(3)), 100,
        plateau=True)
    assert stop == "plateau" and len(iterates) == iterations + 1
    means = [d for _, d in iterates]
    first_best = means.index(min(means))
    assert first_best < iterations      # the stop did not land on the best
    assert dmin.mean() == min(means)
    assert centers.tobytes() == iterates[first_best][0].tobytes()
    assert np.array_equal(labels, assign(x, centers))
    assert dmin.tobytes() == pairwise_distances(x, centers).min(axis=1).tobytes()


def test_semi_online_stops_before_the_cap():
    x = make_scenario("s2", seed=1).points
    r = run_clustering(x, 4, "semi_online", seed=1, n_start=1)
    assert r.stop_reason in ("plateau", "labels_repeat")
    assert r.iterations < 100


# Offline and kmeans fits: (sha256 of centers and int64 labels, first 16 hex
# digits; distortion as float.hex; iterations; restarts). The kmeans entries are
# pinned from the commit before the semi_online plateau stop, the offline ones
# from the two-phase (capped, then full) Weiszfeld M-step. Their Lloyd loop
# stops on repeated labels only.
_PINNED_FITS = {
    ("s2", "offline", "robust_hierarchical", 5): ("ba35754e376b38c9", "0x1.8c50b55a751b1p+0", 9, 1),
    ("s2", "offline", "plus_plus_l1", 3): ("eb31f0a3793be93b", "0x1.8c50b55a755ecp+0", 14, 3),
    ("s2", "kmeans", "robust_hierarchical", 5): ("76ef021fac481a70", "0x1.65ec965289687p+1", 4, 1),
    ("s2", "kmeans", "plus_plus_l1", 3): ("44e871a9c6d12a2c", "0x1.65ec965289687p+1", 11, 3),
    ("sphere10", "offline", "robust_hierarchical", 5): ("d4ca61a2694f697f", "0x1.4ab9f681989d2p+3", 5, 1),
    ("sphere10", "offline", "plus_plus_l1", 3): ("e5067750db16e29c", "0x1.50fd8334a13e3p+2", 6, 3),
    ("sphere10", "kmeans", "robust_hierarchical", 5): ("e06b525b3eb13a58", "0x1.94256d03a6decp+6", 9, 1),
    ("sphere10", "kmeans", "plus_plus_l1", 3): ("40493478fcac1941", "0x1.3f18f7275163cp+5", 5, 3),
}


def test_offline_and_kmeans_fits_are_pinned():
    sphere = sample_mixture(MixtureSpec(sphere_centers(10, 10.0, 5, seed=1), 60), seed=2)
    data = {"s2": (make_scenario("s2", seed=1).points, 4),
            "sphere10": (contaminate(sphere, ContaminationSpec(rho=0.1, law="student", df=1),
                                     seed=3).points, 10)}
    for (name, algorithm, init, n_start), pinned in _PINNED_FITS.items():
        x, k = data[name]
        r = run_clustering(x, k, algorithm, seed=1, init=InitMethod(kind=init), n_start=n_start)
        digest = hashlib.sha256(r.centers.tobytes() + r.labels.astype(np.int64).tobytes())
        got = (digest.hexdigest()[:16], r.distortion.hex(), r.iterations, r.restarts_used)
        assert got == pinned, (name, algorithm, init)
        assert r.stop_reason == "labels_repeat"


def test_slope_sweeps_end_every_offline_fit_on_repeated_labels():
    # the two-phase M-step on the first draws of acceptance criteria 8-11: every
    # fit of each slope sweep stops on repeated labels, no full solve capped
    sphere = sample_mixture(MixtureSpec(sphere_centers(10, 10.0, 5, seed=30_000), 200),
                            seed=40_000)
    draws = {"s1": (make_scenario("s1", seed=10_000).points, 10),
             "s2": (make_scenario("s2", seed=10_000).points, 15),
             "s3": (make_scenario("s3", seed=10_000).points, 15),
             "sphere10": (contaminate(sphere, ContaminationSpec(0.1, "student", df=1),
                                      seed=50_000).points, 20)}
    for name, (x, k_max) in draws.items():
        curve = run_selection(x, "slope", k_max, "offline")[2]
        for k, r in zip(curve.ks, curve.results):
            assert (r.stop_reason, r.median_cap_hits) == ("labels_repeat", 0), (name, k)


def test_lloyd_cases_reach_the_edge_paths():
    cases = {name: (x, c0) for name, x, c0 in _lloyd_cases()}

    def coincident_steps(name):
        seen = []
        _reference_lloyd(*cases[name], lambda members, center, full: _reference_weiszfeld(
            members, center, 1e-6, 100, seen), 100)
        return seen
    # iterates on data points: on duplicated ones, on the median, and off it
    assert any(eta > 1 for eta, _ in coincident_steps("grid duplicates"))
    assert (1, True) in coincident_steps("lands on a point")
    assert (1, False) in coincident_steps("lands off the median")
    x, c0 = cases["empty clusters"]
    assert len(np.unique(_lloyd_once(x, c0, _mean_step, 100)[1])) < c0.shape[0]


@pytest.mark.parametrize("k", [1, 255, 256, 257])
def test_blocks_equal_boolean_selection(k):
    # 255, 256 and 257 clusters are the edges of the label dtype of the sort;
    # cluster 1 is empty and the last one holds the largest label
    rng = np.random.default_rng(k)
    n = 3 * k + 50
    labels = rng.permutation(np.arange(n) % k)
    if k > 2:
        labels[labels == 1] = 0
    x = np.column_stack([np.arange(n, dtype=float), rng.normal(size=n)])
    xs, bounds = clustering._blocks(x, labels, k)
    assert (bounds[0], bounds[-1]) == (0, n)
    for j in range(k):
        assert xs[bounds[j]:bounds[j + 1]].tobytes() == x[labels == j].tobytes(), j


def test_median_cap_hits_count_the_kept_restarts_capped_solves(monkeypatch):
    x = make_scenario("s2", seed=1).points
    small = np.random.default_rng(8).normal(size=(60, 2))
    for algorithm in ALGORITHMS:
        assert run_clustering(small, 3, algorithm, n_start=2).median_cap_hits == 0, algorithm
    assert run_clustering(x, 4, "offline", seed=1).median_cap_hits == 0
    # at a full cap of 2 steps (1 while the labels move), count the unconverged
    # full solves of each restart; a capped solve that stops unconverged is no hit
    restarts, lloyd_once, blocks = [], clustering._lloyd_once, clustering._weiszfeld_blocks

    def restart(*args, **kwargs):
        restarts.append([])
        out = lloyd_once(*args, **kwargs)
        restarts[-1] = (out[3].mean(), sum(restarts[-1]))
        return out

    def solve(xs, bounds, starts, tol, max_iter):
        out = blocks(xs, bounds, starts, tol, max_iter)
        if max_iter == clustering._MEDIAN_MAX_ITER:
            restarts[-1].append(int(np.count_nonzero(~out[2])))
        return out
    monkeypatch.setattr(clustering, "_lloyd_once", restart)
    monkeypatch.setattr(clustering, "_weiszfeld_blocks", solve)
    monkeypatch.setattr(clustering, "_MEDIAN_MAX_ITER", 2)
    monkeypatch.setattr(clustering, "_MEDIAN_WARM_STEPS", 1)
    r = run_clustering(x, 4, "offline", seed=1, median_tol=1e-12,
                       init=InitMethod(kind="plus_plus_l1"), n_start=3)
    kept = min(range(len(restarts)), key=lambda i: restarts[i][0])
    assert len(restarts) == r.restarts_used == 3
    assert r.median_cap_hits == restarts[kept][1] > 0


def test_median_step_counts_sum_the_kept_restarts_solves(monkeypatch):
    # batch steps: the longest solve of each M-step; block steps: every solve's
    # steps, capped and full alike; capped iterations: the M-steps capped
    x = np.random.default_rng(8).normal(size=(60, 2))
    for algorithm in ALGORITHMS:
        if algorithm != "offline":
            r = run_clustering(x, 3, algorithm, n_start=2)
            assert (r.median_batch_steps, r.median_block_steps,
                    r.median_capped_iterations) == (0, 0, 0), algorithm
    restarts, lloyd_once, blocks = [], clustering._lloyd_once, clustering._weiszfeld_blocks

    def restart(*args, **kwargs):
        restarts.append([])
        out = lloyd_once(*args, **kwargs)
        restarts[-1] = (out[3].mean(), [sum(c) for c in zip(*restarts[-1])])
        return out

    def solve(xs, bounds, starts, tol, max_iter):
        out = blocks(xs, bounds, starts, tol, max_iter)
        restarts[-1].append((int(out[1].max()), int(out[1].sum()),
                             int(max_iter == clustering._MEDIAN_WARM_STEPS)))
        return out
    monkeypatch.setattr(clustering, "_lloyd_once", restart)
    monkeypatch.setattr(clustering, "_weiszfeld_blocks", solve)
    r = run_clustering(x, 3, "offline", seed=1, init=InitMethod(kind="plus_plus_l1"), n_start=3)
    kept = min(range(len(restarts)), key=lambda i: restarts[i][0])
    assert len(restarts) == r.restarts_used == 3
    assert [r.median_batch_steps, r.median_block_steps,
            r.median_capped_iterations] == restarts[kept][1]
    assert r.iterations <= r.median_batch_steps < r.median_block_steps
    assert 0 < r.median_capped_iterations < r.iterations


def test_every_offline_fit_ends_on_a_full_solve(monkeypatch):
    # whether Lloyd stops on repeated labels or at max_iter, its last M-step
    # solves every cluster to median_tol or _MEDIAN_MAX_ITER
    fits, lloyd_once, blocks = [], clustering._lloyd_once, clustering._weiszfeld_blocks

    def restart(*args, **kwargs):
        fits.append([])
        out = lloyd_once(*args, **kwargs)
        fits[-1] = (out[4], fits[-1][-1])
        return out

    def solve(xs, bounds, starts, tol, max_iter):
        fits[-1].append(max_iter)
        return blocks(xs, bounds, starts, tol, max_iter)
    monkeypatch.setattr(clustering, "_lloyd_once", restart)
    monkeypatch.setattr(clustering, "_weiszfeld_blocks", solve)
    x = make_scenario("s2", seed=1).points
    for max_iter in (1, 2, 3, 100):
        for init, n_start in (("robust_hierarchical", 1), ("plus_plus_l1", 3)):
            run_clustering(x, 4, "offline", seed=1, init=InitMethod(kind=init),
                           n_start=n_start, max_iter=max_iter)
    assert {stop for stop, _ in fits} == {"labels_repeat", "cap"}
    assert all(last == clustering._MEDIAN_MAX_ITER for _, last in fits), fits


def test_lloyd_each_point_own_cluster():
    pts = np.array([[0.0, 0.0], [1e6, 0.0], [0.0, 1e6], [1e6, 1e6]])
    for backend in ("weiszfeld", "asg"):
        r = lloyd_kmedians(pts, 4, backend=backend, seed=0)
        assert r.distortion == 0.0


def test_lloyd_recovers_two_blobs():
    rng = np.random.default_rng(4)
    pts, truth, centers = two_blobs(rng)
    for backend in ("weiszfeld", "asg"):
        r = lloyd_kmedians(pts, 2, backend=backend, seed=0)
        d = np.linalg.norm(r.centers[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
        assert d.max() <= 0.5
        assert adjusted_rand_index(r.labels, truth) == 1.0


def test_lloyd_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        lloyd_kmedians(pts, 0)
    with pytest.raises(ValueError):
        lloyd_kmedians(pts, 4)
    with pytest.raises(ValueError):
        lloyd_kmedians(pts, 2, backend="sgd")
    # median_tol is checked for both backends, also for asg, which runs no Weiszfeld
    for backend in ("weiszfeld", "asg"):
        with pytest.raises(ValueError, match="median_tol must be positive"):
            lloyd_kmedians(pts, 2, backend=backend, median_tol=0.0)
    for cap in (0, -4):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            lloyd_kmedians(pts, 2, max_iter=cap)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            kmeans_baseline(pts, 2, max_iter=cap)
        # a restart count below 1 is refused, not clamped, even where the
        # default init makes a single restart
        for fit in (lloyd_kmedians, kmeans_baseline):
            with pytest.raises(ValueError, match="n_start must be >= 1"):
                fit(pts, 2, n_start=cap)
    # run_clustering checks every parameter, also those the algorithm ignores
    x = np.arange(12.0).reshape(6, 2)
    for algorithm in ALGORITHMS:
        for name in ("max_iter", "n_start"):
            with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                run_clustering(x, 2, algorithm, **{name: 0})
        for tol in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="median_tol must be positive"):
                run_clustering(x, 2, algorithm, median_tol=tol)


@pytest.mark.parametrize("init", [InitMethod(), InitMethod(kind="plus_plus_l1")],
                         ids=["genie", "plus_plus_l1"])
def test_named_fits_equal_run_clustering(init):
    # lloyd_kmedians and kmeans_baseline are fixed-algorithm calls into run_clustering
    pts = np.random.default_rng(16).normal(size=(40, 2))
    for fit, kwargs, algorithm in ((lloyd_kmedians, {"backend": "weiszfeld"}, "offline"),
                                   (lloyd_kmedians, {"backend": "asg"}, "semi_online"),
                                   (kmeans_baseline, {}, "kmeans")):
        r = fit(pts, 3, init=init, n_start=3, seed=4, **kwargs)
        ref = run_clustering(pts, 3, algorithm, seed=4, init=init, n_start=3)
        assert r.centers.tobytes() == ref.centers.tobytes(), algorithm
        assert np.array_equal(r.labels, ref.labels), algorithm
        assert ((r.distortion, r.iterations, r.restarts_used, r.algorithm)
                == (ref.distortion, ref.iterations, ref.restarts_used, algorithm))


def test_lloyd_stop_leaves_every_center_live():
    # one repair pass can empty a live center: re-seeding center 2 at the
    # point 10 takes center 1's only point; Lloyd fills it again before it
    # stops on repeated labels
    x = np.array([[0.0], [0.0], [1.0], [10.0]])
    c0 = np.array([[0.0], [5.0], [100.0]])
    assert _assign_repaired(x, c0.copy())[1].tolist() == [0, 0, 0, 2]
    init = InitMethod(kind="provided", provided_centers=c0)
    for algorithm in ("offline", "semi_online", "kmeans"):
        r = run_clustering(x, 3, algorithm, init=init)
        assert r.iterations < 100, algorithm
        assert np.bincount(r.labels, minlength=3).min() > 0, algorithm


def test_lloyd_descent_offline():
    # one full Lloyd cycle (reassign + median refit) never increases the
    # L1 distortion, up to the inner solver tolerance
    rng = np.random.default_rng(5)
    for _ in range(50):
        pts = rng.normal(size=(rng.integers(10, 40), 2))
        k = int(rng.integers(2, 5))
        centers = pts[rng.choice(len(pts), k, replace=False)].copy()
        prev = empirical_distortion(pts, centers, "l1")
        for _ in range(8):
            labels = assign(pts, centers)
            for j in range(k):
                mask = labels == j
                if mask.any():
                    centers[j] = weiszfeld_median(pts[mask], tol=1e-6, max_iter=100,
                                                  start=centers[j]).point
            cur = empirical_distortion(pts, centers, "l1")
            assert cur <= prev + 1e-6
            prev = cur


def test_labels_match_assign_exactly():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(60, 3))
    for algorithm in ("offline", "semi_online", "online", "kmeans"):
        r = run_clustering(pts, 4, algorithm, seed=3)
        assert np.array_equal(r.labels, assign(pts, r.centers))


def test_distortion_matches_recomputation():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(50, 2))
    for algorithm, norm in [("offline", "l1"), ("semi_online", "l1"),
                            ("online", "l1"), ("kmeans", "squared_l2")]:
        r = run_clustering(pts, 3, algorithm, seed=1)
        assert r.distortion == empirical_distortion(pts, r.centers, norm), algorithm


def test_empty_cluster_reseeded():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    # both provided centers sit in one blob: second center would start empty
    init = InitMethod(kind="provided",
                      provided_centers=np.array([[0.0, 0.0], [0.0, 0.0]]))
    r = lloyd_kmedians(pts, 2, init=init, seed=0)
    assert len(np.unique(r.labels)) == 2
    assert not np.allclose(r.centers[0], r.centers[1])


def test_permutation_invariance_offline():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(40, 2))
    init = InitMethod(kind="provided", provided_centers=pts[[0, 10, 20]].copy())
    r = lloyd_kmedians(pts, 3, init=init, seed=0)
    perm = rng.permutation(len(pts))
    r2 = lloyd_kmedians(pts[perm], 3, init=init, seed=0)
    assert np.max(np.abs(r.centers - r2.centers)) <= 1e-9
    assert np.array_equal(r2.labels, r.labels[perm])


def test_restart_monotonicity():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(30, 2))
    init = InitMethod(kind="plus_plus_l1")
    for m in (1, 2, 4):
        d_m = lloyd_kmedians(pts, 3, init=init, n_start=m, seed=5).distortion
        d_2m = lloyd_kmedians(pts, 3, init=init, n_start=2 * m, seed=5).distortion
        assert d_2m <= d_m


def test_deterministic_runs_use_single_restart():
    # restarts run only when the init or the M-step draws from the restart's stream
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(30, 2))
    for algorithm in ("offline", "semi_online", "kmeans"):
        for init in ("robust_hierarchical", "plus_plus_l1"):
            r = run_clustering(pts, 3, algorithm, seed=0, init=InitMethod(kind=init), n_start=5)
            drawn = init == "plus_plus_l1" or algorithm == "semi_online"
            assert r.restarts_used == (5 if drawn else 1), (algorithm, init)


# ---------------------------------------------------------------------------
# far rows


@pytest.mark.parametrize("name,k", [("s1", 1), ("s2", 4), ("s3", 5)])
def test_far_rows_capture_a_center_off_the_default_path(name, k):
    # Known behaviour, pinned rather than hidden. At k >= 2 the K-medians
    # objective has a breakdown point near 0 (García-Escudero & Gordaliza, JASA
    # 1999): rows at 1e6 take a center of their own once the init reaches them,
    # as plus_plus_l1 does, and kmeans' mean moves to them from any init. The
    # default Genie init keeps every K-medians center on the bulk.
    bulk = make_scenario(name, seed=1).points
    n, d = bulk.shape
    lo, hi = bulk.min(axis=0) - 1.0, bulk.max(axis=0) + 1.0
    for m in (1, n // 100):
        rng = np.random.default_rng(7)
        far = np.sort(rng.choice(n, m, replace=False))
        x = bulk.copy()
        x[far] = 1e6 + rng.normal(size=(m, d))
        for algorithm in ALGORITHMS:
            for init in ("robust_hierarchical", "plus_plus_l1"):
                r = run_clustering(x, k, algorithm, seed=1, init=InitMethod(kind=init),
                                   n_start=1 if algorithm == "semi_online" else 5)
                on_bulk = ((r.centers >= lo) & (r.centers <= hi)).all(axis=1)
                case = (m, algorithm, init)
                if init == "robust_hierarchical" and algorithm != "kmeans":
                    assert on_bulk.all(), case
                elif k == 1:
                    # one median is not carried away; one mean is
                    assert on_bulk.all() == (algorithm != "kmeans"), case
                else:
                    # one center leaves the bulk, and its cluster is the far rows
                    assert (~on_bulk).sum() == 1, case
                    assert np.array_equal(np.flatnonzero(r.labels == np.argmin(on_bulk)),
                                          far), case


# ---------------------------------------------------------------------------
# online_kmedians


def test_online_k1_equals_asg_median():
    # with a numpy integer counter, (count + 1) ** alpha differs in the last bit
    # for some counts (the first is 10); n = 137 alone did not show it
    rng = np.random.default_rng(11)
    cfg = AsgConfig()
    for n in (137, 500, 2000):
        pts = rng.normal(size=(n, 3))
        est = asg_median(pts, cfg, seed=42)
        r = online_kmedians(pts, 1, cfg, seed=42)
        assert r.centers[0].tobytes() == est.point.tobytes(), n


def _reference_online(x, centers, order, cfg):
    """The online pass in numpy: every distance by np.linalg.norm(., axis=1), the
    nearest averaged center by np.argmin (ties to the lowest index)."""
    m, m_bar, counts = centers.copy(), centers.copy(), [1] * centers.shape[0]
    for i in order:
        r = int(np.argmin([_norm(x[i] - c) for c in m_bar]))
        diff = x[i] - m[r]
        nrm = _norm(diff)
        if nrm > 0:
            m[r] = m[r] + (cfg.c_gamma / (counts[r] + 1) ** cfg.alpha / nrm) * diff
        counts[r] += 1
        m_bar[r] = m_bar[r] + (m[r] - m_bar[r]) / counts[r]
    return m_bar


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16, 17, 130])
def test_online_matches_numpy_reference(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((150, d)) * np.exp2(rng.integers(-30, 31, size=(150, d)))
    centers = x[:4] + rng.standard_normal((4, d))
    cfg = AsgConfig(c_gamma=2.0, alpha=0.6)
    r = online_kmedians(x, 4, cfg, init=InitMethod("provided", provided_centers=centers), seed=5)
    ref = _reference_online(x, centers, np.random.default_rng(5).permutation(150), cfg)
    assert r.centers.tobytes() == ref.tobytes()


def test_online_tie_updates_the_lower_index():
    # both points sit at distance 1 from both centers; the first updates center 0,
    # whichever of the two it is, and the second is then nearer to it
    x = np.zeros((2, 2))
    for centers in ([[-1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]):
        c = np.array(centers)
        r = online_kmedians(x, 2, init=InitMethod("provided", provided_centers=c), seed=0)
        assert r.centers[1].tobytes() == c[1].tobytes()
        assert np.linalg.norm(r.centers[0]) < 1.0


def test_online_two_blobs():
    rng = np.random.default_rng(12)
    pts, _, centers = two_blobs(rng, n_per=1000)
    r = online_kmedians(pts, 2, seed=0)
    d = np.linalg.norm(r.centers[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
    assert d.max() <= 1.0


def test_online_n_equals_k():
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    initial = empirical_distortion(pts, init_centers(pts, 3), "l1")
    r = online_kmedians(pts, 3, seed=0)
    assert r.distortion <= initial


# ---------------------------------------------------------------------------
# kmeans baseline


def test_kmeans_distinct_points():
    pts = np.array([[0.0, 0.0], [9.0, 0.0], [0.0, 9.0], [9.0, 9.0]])
    assert kmeans_baseline(pts, 4, seed=0).distortion == 0.0


def test_kmeans_two_blobs_ari():
    rng = np.random.default_rng(13)
    pts, truth, _ = two_blobs(rng)
    r = kmeans_baseline(pts, 2, seed=0)
    assert adjusted_rand_index(r.labels, truth) == 1.0


def test_kmeans_contamination_inflates_distortion():
    rng = np.random.default_rng(14)
    pts, _, _ = two_blobs(rng)
    clean = kmeans_baseline(pts, 2, seed=0).distortion
    noisy = pts.copy()
    idx = rng.choice(len(pts), size=len(pts) // 10, replace=False)
    noisy[idx] = rng.standard_t(df=1, size=(len(idx), 2)) * 50
    assert kmeans_baseline(noisy, 2, seed=0).distortion > clean


def test_run_clustering_dispatch():
    pts = np.random.default_rng(15).normal(size=(20, 2))
    for algorithm in ("offline", "semi_online", "online", "kmeans"):
        r = run_clustering(pts, 2, algorithm, seed=0)
        assert r.algorithm == algorithm
    with pytest.raises(ValueError):
        run_clustering(pts, 2, "dbscan", seed=0)
