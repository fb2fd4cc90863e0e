"""Robust hierarchical initializer.

Single-linkage agglomeration over the Euclidean minimum spanning tree,
modified by an economic-inequality rule: whenever the Gini index of the
current cluster sizes exceeds a threshold, the merge is forced to involve
a cluster of minimal size (cheapest such MST edge). This keeps outliers
from surviving as long-lived singletons and yields initial centers that
are stable under heavy-tailed contamination.

The spanning tree is exact, from Borůvka rounds on a kd-tree, and its
weights equal `np.linalg.norm(x[u] - x[v], axis=1)` bit for bit, a fixed
order on every BLAS (the 1-D norm of one pair is a BLAS dot product); the
search's bounds add their squares in that order too (`_utils._sumsq`).
Copies of a row join its first index at weight 0, and the rounds run on the
distinct rows only. Trees and partitions are exact under power-of-two
rescaling, at any spread. The merges keep one union-by-size forest, whose
chains hold at most log2(n) links, so its root lookups need no path
compression.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ._utils import _pow2_normalised, _sq_dists


_NEIGHBOURS = 8     # first query: each point's nearest points, itself among them
_WIDE = 32          # second query of a point whose first row holds no usable edge
_BLOCK = 1024       # pairs per weight block, and a query block holds _BLOCK rows of
                    # _NEIGHBOURS: this bounds the temporaries
_CROWD = 32         # searches in one component that call for a pivot first, and at
                    # least n / 1024, as a pivot costs a pass over all n points
_ATOM = 64          # points in a piece (see _Boruvka.shape_pieces)


def _weights(x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Edge weights |x[u] - x[v]|, equal to `np.linalg.norm(x[u] - x[v],
    axis=1)` bit for bit (not to the 1-D norm of one pair, a BLAS dot product)."""
    w = np.empty(u.shape[0])
    for s in range(0, u.shape[0], _BLOCK):
        t = slice(s, s + _BLOCK)
        np.sqrt(_sq_dists(x[u[t]].T, x[v[t]].T), out=w[t])
    return w


def _least(group: np.ndarray, w: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Position of the least edge of each group, in ascending group order
    (the first of equal entries).

    Edges are ordered by the key (w, min(u, v), max(u, v)). It is a total
    order, so the minimum spanning tree is unique and Borůvka's choices
    form a forest, ties in w included."""
    t = np.arange(group.shape[0])
    for key in (lambda t: w[t], lambda t: np.minimum(u[t], v[t]),
                lambda t: np.maximum(u[t], v[t])):
        k, g = key(t), group[t]
        low = np.full(int(group.max(initial=-1)) + 1, np.inf)
        np.minimum.at(low, g, k)
        t = t[k == low[g]]                  # the least of each group so far
    t = t[np.argsort(group[t], kind="stable")]
    head = np.ones(t.shape[0], dtype=bool)
    head[1:] = group[t[1:]] != group[t[:-1]]
    return t[head]


class _Boruvka:
    """Exact Euclidean minimum spanning tree by Borůvka rounds on a kd-tree
    (March, Ram & Gray, KDD 2010).

    Each round every component takes its least outgoing edge. A point's
    candidates come from its nearest neighbours; the least edge leaving a
    point only grows as components merge, so a bound from an earlier
    round spares most points any further query. The kd-tree's distances
    only bound the search, widened by `rtol` and `atol`; every weight
    that decides anything is recomputed by `_weights`.
    """

    def __init__(self, x: np.ndarray):
        self.n, d = x.shape
        self.x = x
        self.tree = cKDTree(x)
        # both distances add the same d squares, in other orders: they differ
        # by (d + 2) eps relative at most, plus what underflow loses
        self.rtol = 16 * (d + 2) * np.finfo(float).eps
        self.atol = 2e-150
        self._neighbours()

    def lower(self, r):
        """A lower bound on the weight of any edge at kd-tree distance >= r."""
        return r * (1 - self.rtol) - self.atol

    def upper(self, w: float) -> float:
        """A kd-tree distance above that of every edge of weight <= w."""
        return w * (1 + self.rtol) + self.atol

    def edges(self):
        """The tree's (u, v, w) edge arrays."""
        n = self.n
        self.m = n
        self.comp = np.arange(n)  # component label of each point, 0..m-1
        self.atom = np.full(n, -1)    # see shape_pieces()
        self.atoms = 0
        self.near = np.full(n, -1)    # far end of the least edge leaving i's component at i, once known
        self.bound = np.zeros(n)      # a lower bound on that edge's weight; its weight once known
        self.scan = np.ones(n, dtype=bool)  # nbr[i] may still hold a point of another component
        self.tree_edges = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))]
        while self.m > 1:
            self._join(self._choose(self._scan()))
        return tuple(np.concatenate(e) for e in zip(*self.tree_edges))

    def _neighbours(self):
        """Each point's nearest points, itself among them, and the weight
        below which every point is among them; `distinct` is False when some
        point has another at distance 0."""
        n = self.n
        k = min(_NEIGHBOURS, n)
        self.nbr = np.empty((n, k), dtype=np.int32)
        self.reach = np.full(n, np.inf)
        self.distinct = True
        for s in range(0, n, _BLOCK):
            dist, idx = self.tree.query(self.x[s:s + _BLOCK], k=k)
            dist = dist.reshape(-1, k)
            self.nbr[s:s + _BLOCK] = idx.reshape(-1, k)
            self.distinct &= k < 2 or bool(dist[:, 1].all())
            if k < n:
                self.reach[s:s + _BLOCK] = self.lower(dist[:, -1])

    def _scan(self):
        """Take each open point's least edge in its row of neighbours as the
        point's least edge when nothing outside the row can be as light;
        returns the (u, v, w) edges it could not take so."""
        comp, near, nbr = self.comp, self.near, self.nbr
        known = near >= 0
        known[known] = comp[near[known]] != comp[known]
        near[~known] = -1
        ask = np.flatnonzero(~known & self.scan)
        pu, pv, pw = [ask[:0]], [ask[:0]], [np.empty(0)]
        for s in range(0, ask.shape[0], _BLOCK // 4):
            a = ask[s:s + _BLOCK // 4]
            out = comp[nbr[a]] != comp[a, None]
            self.scan[a[~out.any(axis=1)]] = False
            r, c = np.nonzero(out)
            u, v = a[r], nbr[a[r], c].astype(np.intp)
            w = _weights(self.x, u, v)
            pick = _least(u, w, u, v)
            u, v, w = u[pick], v[pick], w[pick]
            sure = w < self.reach[u]
            near[u[sure]], self.bound[u[sure]] = v[sure], w[sure]
            pu.append(u[~sure])
            pv.append(v[~sure])
            pw.append(w[~sure])
        np.maximum(self.bound, self.reach, out=self.bound, where=near < 0)
        return np.concatenate(pu), np.concatenate(pv), np.concatenate(pw)

    def _choose(self, listed):
        """(u, v, w) of the least edge leaving each component, given edges
        `listed` besides the known least edges of the points."""
        comp, near, bound, m = self.comp, self.near, self.bound, self.m
        for pivot in (True, False):     # again after a pivot pass, which finds edges
            best = self._least_per_component(listed)
            # an open point whose bound does not exceed its component's best
            # edge must be searched up to that edge's weight
            limit = np.full(m, np.inf)
            limit[comp[best[0]]] = best[2]
            seek = np.flatnonzero((near < 0) & (bound <= limit[comp]))
            crowd = np.bincount(comp[seek], minlength=m) >= max(_CROWD, self.n // 1024)
            if not (pivot and crowd.any()):
                break
            self._pivot(seek[crowd[comp[seek]]])
        if seek.shape[0]:
            q, qw = _Search(self, seek, limit[comp[seek]], bound[seek]).run()
            hit = q >= 0
            near[seek[hit]] = q[hit]
            bound[seek] = qw     # weight of the edge found, else the limit
            best = self._least_per_component(listed)
        return best

    def _join(self, best):
        """Join the components along their chosen edges and record these.
        With a total order on the edges they form a forest, but for an edge
        chosen from both ends, whose lower component becomes the root."""
        bu, bv, bw = best
        comp, m = self.comp, self.m
        to = comp[bv]
        c = np.arange(m)
        root = (to[to] == c) & (c < to)
        to[root] = c[root]
        join = to != c
        self.tree_edges.append((bu[join], bv[join], bw[join]))
        for _ in range(m):
            if np.array_equal(to[to], to):
                break
            to = to[to]
        _, relabel = np.unique(to, return_inverse=True)
        self.comp = comp = relabel[comp]
        self.m = m = int(relabel.max()) + 1
        fresh = (self.atom < 0) & (np.bincount(comp, minlength=m)[comp] >= _ATOM)
        if fresh.any():
            _, label = np.unique(comp[fresh], return_inverse=True)
            self.atom[fresh] = self.atoms + label
            self.atoms += int(label.max()) + 1

    def shape_pieces(self):
        """Each point's piece, labelled 0..P-1: its atom, which is the
        component it was in when that component first held _ATOM points, or
        else its component. Every piece lies in one component, and pieces
        stay small where components grow large. Also each piece's component
        and its ball (centre and radius)."""
        key = np.where(self.atom >= 0, self.atom, self.atoms + self.comp)
        self.piece = np.unique(key, return_inverse=True)[1]
        count = int(self.piece.max()) + 1
        self.piece_comp = np.empty(count, dtype=np.intp)
        self.piece_comp[self.piece] = self.comp
        self.centre, self.radius, _ = _balls(self.x, self.piece, count)

    def _least_per_component(self, listed):
        """(u, v, w) of the least known edge leaving each component: the
        points' known least edges and the edges `listed`."""
        pu, pv, pw = listed
        known = np.flatnonzero(self.near >= 0)
        ku = np.concatenate([known, pu])
        kv = np.concatenate([self.near[known], pv])
        kw = np.concatenate([self.bound[known], pw])
        pick = _least(self.comp[ku], kw, ku, kv)
        return ku[pick], kv[pick], kw[pick]

    def _pivot(self, pts):
        """Raise the bounds of the points `pts`, grouped by component, by the
        triangle inequality through a pivot, the point of the group nearest
        its mean: no edge leaves at p lighter than |pivot, outside| -
        |p, pivot|. Spares the core of a compact, well-separated cluster
        its searches."""
        comp, near, bound = self.comp, self.near, self.bound
        pts = pts[np.argsort(comp[pts], kind="stable")]
        group = np.cumsum(np.r_[0, np.diff(comp[pts]) != 0])
        sq = _balls(self.x[pts], group, int(group[-1]) + 1)[2]
        pivot = pts[_least(group, sq, pts, pts)]
        # the least edge of each pivot, from its weights to every point
        qw = np.empty(pivot.shape[0])
        for t, i in enumerate(pivot.tolist()):
            w = np.sqrt(_sq_dists(self.x.T, self.x[i]))
            w[comp == comp[i]] = np.inf
            j = int(np.argmin(w))           # the least index among equally near
            near[i], bound[i], qw[t] = j, w[j], w[j]
        dp = _weights(self.x, pts, pivot[group])
        lb = self.lower(qw[group]) - self.upper(dp)
        keep = near[pts] < 0
        bound[pts[keep]] = np.maximum(bound[pts[keep]], lb[keep])


class _Search:
    """One round's searches. For each point p[i], whose edges weigh lb[i]
    at least, `run` finds the least edge to another component among those
    of weight <= limit[i] that no point of its component beats. q[i] and
    qw[i] hold the least edge found so far and its weight, or -1 and the
    weight it must not exceed; `run` returns them."""

    def __init__(self, mst: _Boruvka, p, limit, lb):
        self.mst, self.p, self.lb = mst, p, lb
        self.c = mst.comp[p]
        self.q = np.full(p.shape[0], -1)
        self.qw = limit.astype(float)

    def run(self):
        mst, c = self.mst, self.c
        # first, for the points of small components, the nearest points in the
        # whole tree, the most promising points first, so that their finds
        # cap the others
        k = min(_WIDE, mst.n)
        small = np.bincount(mst.comp, minlength=mst.m)[c] < k
        rows = self.live(np.concatenate([np.flatnonzero(~small), self.sweep(
            mst.tree, np.arange(mst.n), np.flatnonzero(small), k, False)]))
        if not rows.shape[0] or k == mst.n:
            return self.q, self.qw
        # then against the other components alone. A kd-tree over the
        # components halves them recursively, and each half's points are
        # searched in a kd-tree of the other half's
        m = mst.m
        mst.shape_pieces()
        centre = np.zeros((m, mst.x.shape[1]))     # the mean of each component's pieces' centres
        np.add.at(centre, mst.piece_comp, mst.centre)
        centre /= np.bincount(mst.piece_comp, minlength=m)[:, None]
        ids = np.arange(m)        # the components, reordered so that each node is a range
        stack = [(0, m, rows)]
        while stack:
            lo, hi, rows = stack.pop()
            rows = self.live(rows)
            if hi - lo < 2 or not rows.shape[0]:
                continue
            node = ids[lo:hi]
            node = node[np.argsort(centre[node, np.argmax(np.ptp(centre[node], axis=0))],
                                   kind="stable")]
            ids[lo:hi] = node
            mid = (hi - lo) // 2
            left = np.zeros(m, dtype=bool)
            left[node[:mid]] = True
            left = left[c[rows]]
            self.probe(rows[left], node[mid:])
            self.probe(rows[~left], node[:mid])
            stack += [(lo, lo + mid, rows[left]), (lo + mid, hi, rows[~left])]
        return self.q, self.qw

    def live(self, rows):
        """The rows that may still find a lighter edge."""
        return rows[self.lb[rows] <= self.qw[rows]]

    def probe(self, rows, comps):
        """Offer the points p[rows] their least edges into the components
        `comps`. A point cannot gain from a piece farther than its limit,
        and a piece that no point can reach need not be searched."""
        mst = self.mst
        inside = np.zeros(mst.m, dtype=bool)
        inside[comps] = True
        pieces = np.flatnonzero(inside[mst.piece_comp])
        rows = self.live(rows)
        near_rows, near_pieces = self.reach(rows, pieces)
        rows = rows[near_rows]
        if not rows.shape[0]:
            return
        inside = np.zeros(mst.piece_comp.shape[0], dtype=bool)
        inside[pieces[near_pieces]] = True
        targets = np.flatnonzero(inside[mst.piece])
        self.sweep(cKDTree(mst.x[targets]), targets, rows, min(2, targets.shape[0]), True)

    def sweep(self, tree, targets, rows, k, grow):
        """Offer the points p[rows], the most promising first, edges to their
        k nearest points in `tree`, a kd-tree over the points `targets`,
        within their limits. Returns the rows that a farther target may
        still serve; with `grow`, queries these again with 4 k first, until
        k covers every target."""
        mst, p = self.mst, self.p
        rows = rows[np.argsort(self.lb[rows], kind="stable")]
        while True:
            rest = [rows[:0]]
            step = max(1, _BLOCK * _NEIGHBOURS // k)
            for s in range(0, rows.shape[0], step):
                r = self.live(rows[s:s + step])
                if not r.shape[0]:
                    continue
                dist, idx = tree.query(mst.x[p[r]], k=k,
                                       distance_upper_bound=mst.upper(self.qw[r].max()))
                dist, idx = dist.reshape(r.shape[0], k), idx.reshape(r.shape[0], k)
                i, j = np.nonzero(idx < targets.shape[0])
                j = targets[idx[i, j]]
                out = mst.comp[j] != self.c[r[i]]
                self.offer(r, i[out], j[out])
                # a row that holds k points may leave out a lighter edge
                rest.append(r[(dist[:, -1] < np.inf) & (mst.lower(dist[:, -1]) <= self.qw[r])])
            rows = self.live(np.concatenate(rest))
            if not grow or k == targets.shape[0] or not rows.shape[0]:
                return rows
            k = min(4 * k, targets.shape[0])

    def reach(self, rows, pieces):
        """Which points p[rows] may hold an edge within their limit into some
        of the `pieces`, and which pieces may hold such an edge: the kd-tree
        distance to a piece is at least the distance to its centre less its
        radius."""
        mst = self.mst
        centre, radius = mst.centre[pieces].T, mst.upper(mst.radius[pieces])
        near_rows = np.zeros(rows.shape[0], dtype=bool)
        near_pieces = np.zeros(pieces.shape[0], dtype=bool)
        step = max(1, (1 << 13) // pieces.shape[0])
        for s in range(0, rows.shape[0], step):
            r = rows[s:s + step]
            y = mst.x[self.p[r]]
            dist = np.sqrt(_sq_dists(y.T[:, :, None], centre))
            ok = mst.lower(dist) <= mst.upper(self.qw[r])[:, None] + radius
            near_rows[s:s + step] = ok.any(axis=1)
            near_pieces |= ok.any(axis=0)
        return near_rows, near_pieces

    def offer(self, r, i, j):
        """Let each point p[r[i]] take its least edge to the points j when it
        is lighter than its edge q, or than its limit qw where it has none
        yet; then cap every search at the least weight found in its
        component."""
        if i.shape[0]:
            u = self.p[r[i]]
            w = _weights(self.mst.x, u, j)
            pick = _least(i, w, u, j)
            r, u, j, w = r[i[pick]], u[pick], j[pick], w[pick]
            q, qw = self.q, self.qw
            held = q[r]
            take = (w < qw[r]) | (w == qw[r]) & (
                (held < 0)
                | (np.minimum(u, j) < np.minimum(u, held))
                | (np.minimum(u, j) == np.minimum(u, held))
                & (np.maximum(u, j) < np.maximum(u, held)))
            q[r[take]], qw[r[take]] = j[take], w[take]
        # a point whose best is heavier than an edge found elsewhere in its
        # component cannot win: it need only search below that edge
        cap = np.full(self.mst.m, np.inf)
        np.minimum.at(cap, self.c, self.qw)
        over = self.qw > cap[self.c]
        self.q[over], self.qw[over] = -1, cap[self.c[over]]


def _balls(x: np.ndarray, label: np.ndarray, count: int):
    """Centre (the mean) and radius about it of each nonempty group of rows of
    x labelled 0..count-1, and each row's squared distance to its centre in
    stable label order."""
    order = np.argsort(label, kind="stable")
    size = np.bincount(label, minlength=count)
    start = np.r_[0, np.cumsum(size)[:-1]]
    cols = x.T[:, order]
    centre = np.add.reduceat(cols, start, axis=1) / size
    r2 = _sq_dists(cols, np.repeat(centre, size, axis=1))
    return centre.T, np.maximum.reduceat(np.sqrt(r2), start), r2


def _spanning_tree(x: np.ndarray):
    """Minimum spanning tree of the complete Euclidean graph on the rows of x.

    Exact: ordered by the key (w, min end, max end), the edges have one
    minimum spanning tree, and with distinct weights it is the one every
    exact algorithm finds. Weights equal `np.linalg.norm(x[u] - x[v], axis=1)`
    bit for bit where it neither overflows nor underflows (see `_weights`); at
    any spread the tree is that of `_pow2_normalised`'s x 2**-e, its weights
    times 2**e. Returns (u, v, w) arrays in key order, u the smaller end.
    About O(n log n) time for small d, repeated rows included, O(n (d + 8))
    memory.
    """
    x, e = _pow2_normalised(x)
    mst = _Boruvka(x)
    eu, ev, ew = mst.edges() if mst.distinct else _tree_of_copies(x, mst)
    eu, ev = np.minimum(eu, ev), np.maximum(eu, ev)
    order = np.lexsort((ev, eu, ew))
    return eu[order], ev[order], np.ldexp(ew[order], e)


def _tree_of_copies(x: np.ndarray, mst: _Boruvka):
    """The edges `mst.edges()` gives for rows x that hold copies: the tree of
    the distinct rows, each represented by its first index, and a
    zero-weight edge from that index to each of its copies. Under the key
    that is the tree of all rows while no two distinct rows weigh 0; where
    a pair does (its squared distance underflows), the rounds run on all
    rows."""
    _, first, copy_of = np.unique(x, axis=0, return_index=True, return_inverse=True)
    keep, copy_of = np.sort(first), first[copy_of]
    eu, ev, ew = _Boruvka(x[keep]).edges()
    if not ew.all():
        return mst.edges()
    copy = np.flatnonzero(copy_of != np.arange(x.shape[0]))
    return (np.r_[keep[eu], copy_of[copy]], np.r_[keep[ev], copy],
            np.r_[ew, np.zeros(copy.shape[0])])


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
        # was linked under, and at which merge (n: never); `linked` lists the
        # root linked at each merge
        up, linked = list(range(self.n)), []
        self.merges = self._merge_order(x, up, linked) if self.n > 1 else []
        self._up, self._up_at = np.array(up, dtype=np.intp), np.full(self.n, self.n)
        self._up_at[linked] = np.arange(len(linked))

    def _merge_order(self, x: np.ndarray, up: list, linked: list):
        n = self.n
        eu, ev, _ = _spanning_tree(x)
        eu, ev = eu.tolist(), ev.tolist()

        def root(i):
            # union by size keeps every chain within log2(n) links
            while up[i] != i:
                i = up[i]
            return i

        # Clusters are subtrees of the MST, so an edge joins two clusters until
        # it is merged itself: the candidates are exactly the unused edges.
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
                while used[forced] or (size[root(eu[forced])] != s_min
                                       and size[root(ev[forced])] != s_min):
                    forced += 1
                e = forced
            else:
                e = first
            used[e] = True
            u, v = eu[e], ev[e]
            merges.append((u, v))
            a, b = root(u), root(v)
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
            size[a] = s
            up[b] = a
            linked.append(b)
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
