"""Robust hierarchical initializer.

Single-linkage agglomeration over the Euclidean minimum spanning tree,
modified by an economic-inequality rule: whenever the Gini index of the
current cluster sizes exceeds a threshold, the merge is forced to involve
a cluster of minimal size (cheapest such MST edge). This keeps outliers
from surviving as long-lived singletons and yields initial centers that
are stable under heavy-tailed contamination.
"""

from __future__ import annotations

import numpy as np

from ._utils import _sq_dists


def _prim_mst(x: np.ndarray):
    """Minimum spanning tree of the complete Euclidean graph.

    Prim's algorithm from vertex 0, taking the lowest-index vertex among
    equally near ones. Distances are computed only to the vertices not yet
    in the tree; these are kept in index order, column by column, and
    compacted once half of them have joined. O(n^2 d) time, O(n d) memory;
    returns (u, v, w) edge arrays.
    """
    n = x.shape[0]
    eu = np.empty(n - 1, dtype=np.intp)
    ev = np.empty(n - 1, dtype=np.intp)
    ew = np.empty(n - 1, dtype=float)
    idx = np.arange(1, n)                    # vertices outside the tree, ascending
    cols = x[1:].T.copy()                    # their coordinates, one row per axis
    best_dist = np.sqrt(_sq_dists(cols, x[0]))
    best_from = np.zeros(n - 1, dtype=np.intp)
    live = np.ones(n - 1, dtype=bool)        # False once the stored vertex has joined
    for t in range(n - 1):
        i = int(np.argmin(best_dist))
        if not live[i]:
            # every outside vertex is at distance inf (squares overflowed)
            i = int(np.argmax(live))
        j = int(idx[i])
        eu[t], ev[t], ew[t] = best_from[i], j, best_dist[i]
        # a NaN column never tests closer, so a joined vertex keeps distance inf
        cols[:, i] = np.nan
        best_dist[i] = np.inf
        live[i] = False
        if 2 * (n - 2 - t) <= idx.shape[0]:  # at most half still outside: compact
            cols, idx = np.ascontiguousarray(cols[:, live]), idx[live]
            best_dist, best_from = best_dist[live], best_from[live]
            live = np.ones(idx.shape[0], dtype=bool)
        d = np.sqrt(_sq_dists(cols, x[j]))
        np.copyto(best_from, j, where=d < best_dist)
        np.fmin(best_dist, d, out=best_dist)
    return eu, ev, ew


def _find(parent, i: int) -> int:
    """Root of i in the union-find forest `parent`, compressing the path."""
    root = i
    while parent[root] != root:
        root = parent[root]
    while parent[i] != root:
        parent[i], i = root, parent[i]
    return root


class GenieHierarchy:
    """Full merge sequence of the Gini-constrained single linkage.

    Built once per dataset; partitions for every k are read off the
    recorded merge order, so one hierarchy serves a whole sweep over k.
    """

    def __init__(self, points: np.ndarray, gini_threshold: float = 0.3):
        if not 0.0 < gini_threshold <= 1.0:
            raise ValueError(f"gini_threshold must be in (0, 1], got {gini_threshold}")
        x = np.asarray(points, dtype=float)
        self.n = x.shape[0]
        self.gini_threshold = gini_threshold
        # the union-by-size forest of the merges: the root each cluster root
        # was linked under, and at which merge (n: never)
        self._up = np.arange(self.n)
        self._up_at = np.full(self.n, self.n)
        self.merges = self._merge_order(x) if self.n > 1 else []

    def _merge_order(self, x: np.ndarray):
        n = self.n
        eu, ev, ew = _prim_mst(x)
        order = np.argsort(ew, kind="stable")
        eu, ev = eu[order].tolist(), ev[order].tolist()

        # Clusters are subtrees of the MST, so an edge joins two clusters until
        # it is merged itself: the candidates are exactly the unused edges.
        parent = list(range(n))       # union-find forest over the points
        size = [1] * n                # cluster size at each root
        used = [False] * (n - 1)
        count = {1: n}                # number of clusters of each size
        s_min = 1                     # smallest cluster size
        spread = 0                    # sum of |s_i - s_j| over cluster pairs i < j
        first = 0                     # first unused edge
        forced = 0                    # scan position for an edge touching size s_min
        forced_size = 1               # the s_min that `forced` was scanned for
        merges: list[tuple[int, int]] = []

        for c in range(n, 1, -1):     # c clusters before this merge
            while used[first]:
                first += 1
            # the Gini index of the sizes is spread / ((c - 1) * n): exact
            # integers, divided once
            if spread / ((c - 1) * n) > self.gini_threshold:
                # sizes only grow, so an edge passed over stays ineligible while
                # s_min holds; a new s_min may make earlier edges eligible
                if forced_size != s_min:
                    forced, forced_size = first, s_min
                while used[forced] or (size[_find(parent, eu[forced])] != s_min
                                       and size[_find(parent, ev[forced])] != s_min):
                    forced += 1
                e = forced
            else:
                e = first
            used[e] = True
            u, v = eu[e], ev[e]
            merges.append((u, v))
            a, b = _find(parent, u), _find(parent, v)
            sa, sb = size[a], size[b]
            s = sa + sb
            # with F(z) = sum of |z - size| over the clusters before the merge,
            # replacing sizes sa and sb by s changes spread by
            # F(s) - F(sa) - F(sb) + |sa - sb| - s
            fa = fb = fs = 0
            for t, m in count.items():
                fa += m * abs(sa - t)
                fb += m * abs(sb - t)
                fs += m * abs(s - t)
            spread += fs - fa - fb + abs(sa - sb) - s
            for t in (sa, sb):
                count[t] -= 1
                if not count[t]:
                    del count[t]
            count[s] = count.get(s, 0) + 1
            while s_min not in count:
                s_min += 1
            if sa < sb:
                a, b = b, a
            parent[b] = a
            size[a] = s
            self._up[b], self._up_at[b] = a, len(merges) - 1
        return merges

    def labels_at(self, k: int) -> np.ndarray:
        """Partition into k clusters (an int in 1..n), labeled 0..k-1 in first-occurrence order."""
        # climb the links made by the first n - k merges; union by size keeps
        # the forest O(log n) deep, so a few whole-array steps reach every root
        root = np.arange(self.n)
        while True:
            climb = self._up_at[root] < self.n - k
            if not climb.any():
                break
            root[climb] = self._up[root[climb]]
        _, first, inverse = np.unique(root, return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.shape[0])
        return rank[inverse]

    def centers_at(self, points: np.ndarray, k: int) -> np.ndarray:
        """Coordinate-wise median of each cluster of the k-partition."""
        labels = self.labels_at(k)
        x = np.asarray(points, dtype=float)
        return np.stack([np.median(x[labels == j], axis=0) for j in range(k)])
