"""Shared validation and small numeric helpers."""

from __future__ import annotations

import operator

import numpy as np


def as_points(points) -> np.ndarray:
    """Coerce input to a float (n, d) array and validate it."""
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"points must be a 2-D array, got ndim={x.ndim}")
    if x.shape[0] == 0:
        raise ValueError("points must be nonempty")
    if x.shape[1] == 0:
        raise ValueError(f"points must have at least one column, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("points contain non-finite coordinates")
    return x


def as_codebook(centers, d: int | None = None) -> np.ndarray:
    """Coerce input to a float (k, d) center array and validate it."""
    c = np.asarray(centers, dtype=float)
    if c.ndim == 1:
        c = c[None, :] if d is None or d > 1 else c[:, None]
    if c.ndim != 2 or c.size == 0:
        raise ValueError("codebook must be a nonempty (k, d) array")
    if not np.all(np.isfinite(c)):
        raise ValueError("codebook contains non-finite coordinates")
    if d is not None and c.shape[1] != d:
        raise ValueError(f"codebook dimension {c.shape[1]} does not match data dimension {d}")
    return c


def as_count(name: str, value, lo: int, hi: int | None = None, hi_name: str = "") -> int:
    """`value` as a Python int in lo..hi (no upper bound when hi is None), else a
    ValueError that names the argument; a bool and anything `operator.index` rejects
    (a float, even 2.0) are refused. `hi_name` names the upper bound in the message."""
    try:
        if isinstance(value, bool):
            raise TypeError
        v = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if hi is None and v < lo:
        raise ValueError(f"{name} must be >= {lo}, got {v}")
    if hi is not None and not lo <= v <= hi:
        bound = f", {hi_name}={hi}" if hi_name else ""
        raise ValueError(f"{name} must satisfy {lo} <= {name} <= {hi_name or hi}, "
                         f"got {name}={v}{bound}")
    return v


def _sumsq(values):
    """The sum of the squares of `values`, a list of Python floats or of arrays of
    one shape, added as numpy's pairwise `add.reduce` adds a contiguous row of
    len(values) terms: one by one below 8 terms, 8 partial sums combined as a
    tree and then the tail up to 128, halves beyond. A float result equals
    `np.add.reduce(t * t)` of `t = np.array(values)`, and each element of an
    array result that of the values' matching elements, bit for bit and with no
    BLAS call. Arrays are squared and added in place, so the caller passes fresh
    ones."""
    n = len(values)
    if n < 8:
        it = iter(values)
        s = next(it)
        s *= s
        for v in it:
            v *= v
            s += v
        return s
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _sumsq(values[:half]) + _sumsq(values[half:])
    sq = list(map(operator.imul, values, values))
    stop = n - n % 8
    r = sq[:8]
    for i in range(8, stop, 8):
        r = list(map(operator.iadd, r, sq[i:i + 8]))
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in sq[stop:]:
        s += v
    return s


def _sq_dists(cols: np.ndarray, p):
    """Squared distances from the points stored column by column in `cols` (d x m)
    to `p`, by `_sumsq` of the d coordinate differences: `np.sqrt` of the result
    equals `np.linalg.norm(x - p, axis=1)` bit for bit. `p[k]`, coordinate k of the
    reference, is a scalar, or an array of length m that gives every point its own
    reference."""
    return _sumsq([cols[k] - p[k] for k in range(cols.shape[0])])


def _pow2_normalised(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x * 2**-e, e), exact: e = 0, x as is, while the exponent of x's largest
    coordinate half-range lies in (-300, 300), else that exponent (clipped to
    +-1000), so that no squared distance of the result overflows or underflows."""
    e = int(np.frexp(np.max(x.max(axis=0) / 2 - x.min(axis=0) / 2))[1])
    e = 0 if -300 < e < 300 else int(np.clip(e, -1000, 1000))
    return (np.ldexp(x, -e) if e else x), e


def pairwise_distances(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows of x (n, d) and rows of c (k, d).

    Filled one center at a time from explicit differences, so coincident
    rows give an exact 0.0 (the dot-product shortcut does not) and column j
    equals `np.linalg.norm(x - c[j], axis=1)` bit for bit. Needs O(n k)
    memory beyond a transposed copy of x and the differences to one center.
    """
    cols = np.ascontiguousarray(x.T)
    out = np.empty((x.shape[0], c.shape[0]))
    for j in range(c.shape[0]):
        np.sqrt(_sq_dists(cols, c[j]), out=out[:, j])
    return out


def spawn_rng(*keys: int) -> np.random.Generator:
    """Deterministic generator derived from an integer key path.

    Every independent stream in the package (restart, trial, reference
    set, ...) is keyed as (master_seed, stream_tag, index...) so results
    do not depend on evaluation order. Keys are integers >= 0; one key draws
    what `np.random.default_rng(key)` draws."""
    return np.random.default_rng([as_count("seed", k, 0) for k in keys])


def derive_seed(*keys: int) -> int:
    """An integer seed for the independent stream keyed by `keys` (see spawn_rng)."""
    return int(spawn_rng(*keys).integers(2**63))
