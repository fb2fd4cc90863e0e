"""Synthetic dataset generators and contamination.

Gaussian mixtures with unit covariance (centers at fixed coordinates or
drawn uniformly on a sphere), three named benchmark scenarios, and
replacement contamination by heavy-tailed or uniform noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._utils import as_codebook, as_count, as_points, spawn_rng

__all__ = [
    "MixtureSpec",
    "ContaminationSpec",
    "LabeledDataset",
    "sphere_centers",
    "sample_mixture",
    "make_scenario",
    "contaminate",
]

SCENARIOS = ("s1", "s2", "s3")

_SELECT_STREAM = 41
_NOISE_STREAM = 42

S2_CENTERS = np.array([(0, 0, 0), (0, 2, 3), (3, 0, -1), (-3, -1, 0)], dtype=float)
S3_CENTERS = np.array([(0, 0, 0, 0), (3, 5, -1, 0), (-5, 0, 0, 0),
                       (1, 1, 6, -2), (1, -3, -2, 5)], dtype=float)


@dataclass
class MixtureSpec:
    """Equal-weight Gaussian mixture with identity covariance."""

    centers: np.ndarray
    points_per_cluster: int

    def __post_init__(self):
        self.centers = as_codebook(self.centers)
        self.points_per_cluster = as_count("points_per_cluster", self.points_per_cluster, 1)


@dataclass
class ContaminationSpec:
    """Replacement noise: coordinates i.i.d. Student-t(df) or uniform[low, high]."""

    rho: float
    law: str = "student"
    df: int = 1
    low: float = -10.0
    high: float = 10.0

    def __post_init__(self):
        if not 0.0 <= self.rho <= 0.5:
            raise ValueError(f"rho must lie in [0, 0.5], got {self.rho}")
        if self.law not in ("student", "uniform"):
            raise ValueError(f"unknown law {self.law!r}; expected 'student' or 'uniform'")
        if self.law == "student" and not 1 <= self.df < np.inf:
            raise ValueError(f"df must be >= 1 and finite, got {self.df}")
        if self.law == "uniform" and not -np.inf < self.low < self.high < np.inf:
            raise ValueError(f"need finite low < high, got [{self.low}, {self.high}]")


@dataclass
class LabeledDataset:
    """Points plus generating labels and a contamination mask.

    Replaced (contaminated) points keep no valid generating label; theirs
    is set to -1.
    """

    points: np.ndarray
    true_labels: np.ndarray
    contaminated: np.ndarray
    spec: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = as_points(self.points)
        self.true_labels = np.asarray(self.true_labels, dtype=int)
        self.contaminated = np.asarray(self.contaminated, dtype=bool)
        n = self.points.shape[0]
        if self.true_labels.shape[0] != n or self.contaminated.shape[0] != n:
            raise ValueError("labels and mask must match the number of points")


def sphere_centers(k: int, radius: float, d: int, seed: int = 0) -> np.ndarray:
    """k i.i.d. draws from the uniform law on the radius-`radius` sphere in R^d."""
    d = as_count("d", d, 2)
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    k = as_count("k", k, 1)
    rng = spawn_rng(seed)
    g = rng.standard_normal((k, d))
    norms = np.linalg.norm(g, axis=1)
    while (norms < 1e-12).any():
        redraw = norms < 1e-12
        g[redraw] = rng.standard_normal((int(redraw.sum()), d))
        norms = np.linalg.norm(g, axis=1)
    return radius * g / norms[:, None]


def sample_mixture(spec: MixtureSpec, seed: int = 0) -> LabeledDataset:
    """Draw points_per_cluster unit-covariance Gaussian points per center."""
    rng = spawn_rng(seed)
    k, d = spec.centers.shape
    m = spec.points_per_cluster
    blocks = [spec.centers[j] + rng.standard_normal((m, d)) for j in range(k)]
    points = np.vstack(blocks)
    labels = np.repeat(np.arange(k), m)
    return LabeledDataset(
        points=points,
        true_labels=labels,
        contaminated=np.zeros(k * m, dtype=bool),
        spec={"generator": "gaussian_mixture", "k_true": k, "d": d,
              "points_per_cluster": m, "centers": spec.centers.tolist(), "seed": seed},
    )


def make_scenario(which: str, seed: int = 0) -> LabeledDataset:
    """One of the three named benchmark datasets.

    s1: 2000 points uniform on the unit hypercube in dimension 10 (one cluster).
    s2: 4 unit-covariance Gaussian clusters in dimension 3, 500 points each.
    s3: 5 unit-covariance Gaussian clusters in dimension 4, 500 points each.
    """
    which = which.lower()
    if which == "s1":
        points = spawn_rng(seed).random((2000, 10))
        return LabeledDataset(
            points=points,
            true_labels=np.zeros(2000, dtype=int),
            contaminated=np.zeros(2000, dtype=bool),
            spec={"generator": "uniform_hypercube", "k_true": 1, "d": 10,
                  "n": 2000, "seed": seed},
        )
    if which == "s2":
        data = sample_mixture(MixtureSpec(S2_CENTERS, 500), seed)
    elif which == "s3":
        data = sample_mixture(MixtureSpec(S3_CENTERS, 500), seed)
    else:
        raise ValueError(f"unknown scenario {which!r}; expected one of {SCENARIOS}")
    data.spec["scenario"] = which
    return data


def _noise(rng: np.random.Generator, spec: ContaminationSpec, m: int, d: int) -> np.ndarray:
    if spec.law == "uniform":
        return rng.uniform(spec.low, spec.high, size=(m, d))
    # Student-t as normal / sqrt(chi2/df): exact for every df, including df=1
    z = rng.standard_normal((m, d))
    chi2 = rng.chisquare(spec.df, size=(m, d))
    return z / np.sqrt(chi2 / spec.df)


def contaminate(data: LabeledDataset, spec: ContaminationSpec, seed: int = 0) -> LabeledDataset:
    """Replace floor(rho * n) uniformly chosen points with noise draws."""
    n, d = data.points.shape
    points = data.points.copy()
    labels = data.true_labels.copy()
    mask = data.contaminated.copy()
    m = int(np.floor(spec.rho * n))
    if m > 0:
        idx = spawn_rng(seed, _SELECT_STREAM).choice(n, size=m, replace=False)
        points[idx] = _noise(spawn_rng(seed, _NOISE_STREAM), spec, m, d)
        labels[idx] = -1
        mask[idx] = True
    out_spec = dict(data.spec)
    out_spec["contamination"] = {"rho": spec.rho, "law": spec.law, "df": spec.df,
                                 "low": spec.low, "high": spec.high, "seed": seed}
    return LabeledDataset(points=points, true_labels=labels, contaminated=mask, spec=out_spec)
