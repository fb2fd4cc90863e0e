"""Clustering quality metrics against ground truth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._utils import as_codebook, pairwise_distances

__all__ = ["TrialSummary", "adjusted_rand_index", "centroid_l1_error", "summarize_trials"]


@dataclass
class TrialSummary:
    """Aggregate over repeated trials of a selection experiment."""

    trials: int
    n_correct: int
    k_bar: float
    ari_mean: float
    l1_error_median: float


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected pair-counting agreement of two partitions.

    1 for identical partitions (up to relabeling); about 0 for independent
    ones. Both-trivial inputs (all singletons vs all singletons, or one
    block vs one block) have a vanishing denominator and return 1.
    """
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"label vectors differ in length: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points")

    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    na, nb = ai.max() + 1, bi.max() + 1
    table = np.bincount(ai * nb + bi, minlength=na * nb).reshape(na, nb)

    def comb2(v):
        return v * (v - 1) // 2

    # exact integer arithmetic (Python ints), one correctly-rounded division
    sum_cells = int(comb2(table).sum())
    sum_rows = int(comb2(table.sum(axis=1)).sum())
    sum_cols = int(comb2(table.sum(axis=0)).sum())
    total = comb2(n)
    num = 2 * total * sum_cells - 2 * sum_rows * sum_cols
    denom = total * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if denom == 0:
        return 1.0
    return num / denom


def centroid_l1_error(true_codebook, est_codebook) -> float:
    """Sum over estimated centers of the distance to the nearest true center."""
    true_c = as_codebook(true_codebook)
    est_c = as_codebook(est_codebook, d=true_c.shape[1])
    return float(pairwise_distances(est_c, true_c).min(axis=1).sum())


def summarize_trials(per_trial, k_true: int) -> TrialSummary:
    """Aggregate (k_hat, ari, l1_error) triples from repeated trials."""
    rows = list(per_trial)
    if not rows:
        raise ValueError("per_trial must be nonempty")
    k_hats = np.array([r[0] for r in rows], dtype=float)
    aris = np.array([r[1] for r in rows], dtype=float)
    errs = np.array([r[2] for r in rows], dtype=float)
    return TrialSummary(
        trials=len(rows),
        n_correct=int((k_hats == k_true).sum()),
        k_bar=float(k_hats.mean()),
        ari_mean=float(aris.mean()),
        l1_error_median=float(np.median(errs)),
    )
