"""Synthetic generators: sphere centers, mixtures, scenarios, contamination."""

import numpy as np
import pytest
from scipy import stats

from kmedians import (
    ContaminationSpec,
    MixtureSpec,
    assign,
    contaminate,
    make_scenario,
    sample_mixture,
    sphere_centers,
)


def test_sphere_centers_on_sphere():
    c = sphere_centers(50, 10.0, 5, seed=0)
    assert np.max(np.abs(np.linalg.norm(c, axis=1) - 10.0)) <= 1e-9


def test_sphere_single_center():
    c = sphere_centers(1, 10.0, 5, seed=1)
    assert c.shape == (1, 5)
    assert abs(np.linalg.norm(c[0]) - 10.0) <= 1e-9


def test_sphere_centers_mean_near_origin():
    c = sphere_centers(10_000, 1.0, 3, seed=2)
    assert np.max(np.abs(c.mean(axis=0))) <= 0.2


def test_sphere_centers_distinct():
    for seed in range(10):
        c = sphere_centers(10, 10.0, 5, seed=seed)
        d = np.linalg.norm(c[:, None] - c[None, :], axis=2)
        assert d[np.triu_indices(10, 1)].min() > 0


def test_sphere_validation():
    with pytest.raises(ValueError):
        sphere_centers(3, 10.0, 1, seed=0)
    for radius in (0.0, np.inf):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            sphere_centers(3, radius, 4, seed=0)
    with pytest.raises(ValueError):
        sphere_centers(0, 1.0, 4, seed=0)


def test_mixture_separated_labels_recoverable():
    centers = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
    data = sample_mixture(MixtureSpec(centers, 400), seed=3)
    labels = assign(data.points, centers)
    assert (labels == data.true_labels).mean() >= 0.999


def test_mixture_cluster_means_clt():
    centers = np.array([[1.0, -2.0, 3.0], [-4.0, 0.0, 6.0]])
    m = 500
    data = sample_mixture(MixtureSpec(centers, m), seed=4)
    for j in range(2):
        mean_j = data.points[data.true_labels == j].mean(axis=0)
        assert np.max(np.abs(mean_j - centers[j])) <= 4 / np.sqrt(m)


def test_mixture_shapes():
    data = sample_mixture(MixtureSpec(np.zeros((4, 3)) + np.arange(4)[:, None], 500), seed=5)
    assert data.points.shape == (2000, 3)
    assert not data.contaminated.any()


def test_mixture_determinism():
    spec = MixtureSpec(np.array([[0.0, 1.0], [5.0, 5.0]]), 100)
    a = sample_mixture(spec, seed=6)
    b = sample_mixture(spec, seed=6)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.true_labels, b.true_labels)


def test_scenario_shapes():
    s1 = make_scenario("s1", seed=0)
    assert s1.points.shape == (2000, 10)
    assert s1.points.min() >= 0.0 and s1.points.max() <= 1.0
    assert s1.spec["k_true"] == 1

    s2 = make_scenario("s2", seed=0)
    assert s2.points.shape == (2000, 3)
    assert s2.spec["k_true"] == 4

    s3 = make_scenario("s3", seed=0)
    assert s3.points.shape == (2500, 4)
    assert s3.spec["k_true"] == 5

    with pytest.raises(ValueError):
        make_scenario("s4", seed=0)


def test_contaminate_rho_zero_identity():
    data = make_scenario("s2", seed=1)
    out = contaminate(data, ContaminationSpec(rho=0.0), seed=2)
    assert np.array_equal(out.points, data.points)
    assert np.array_equal(out.true_labels, data.true_labels)
    assert not out.contaminated.any()


def test_contaminate_counts_and_labels():
    data = make_scenario("s2", seed=3)
    out = contaminate(data, ContaminationSpec(rho=0.1), seed=4)
    assert out.contaminated.sum() == 200
    assert (out.true_labels[out.contaminated] == -1).all()
    assert (out.true_labels[~out.contaminated] == data.true_labels[~out.contaminated]).all()
    assert np.array_equal(out.points[~out.contaminated], data.points[~out.contaminated])


def test_contaminate_determinism():
    data = make_scenario("s3", seed=5)
    spec = ContaminationSpec(rho=0.28, law="student", df=1)
    a = contaminate(data, spec, seed=6)
    b = contaminate(data, spec, seed=6)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.contaminated, b.contaminated)


def test_student_t2_median_abs():
    # quantile oracle: median of |t_2| is the 75% point of the t_2 law
    data = sample_mixture(MixtureSpec(np.zeros((1, 1)), 100_000), seed=7)
    out = contaminate(data, ContaminationSpec(rho=0.5, law="student", df=2), seed=8)
    draws = out.points[out.contaminated].ravel()
    expected = stats.t.ppf(0.75, df=2)
    assert abs(np.median(np.abs(draws)) - expected) <= 0.02


def test_uniform_law_bounds():
    data = sample_mixture(MixtureSpec(np.zeros((1, 2)), 5000), seed=9)
    out = contaminate(data, ContaminationSpec(rho=0.4, law="uniform", low=-10, high=10), seed=10)
    noise = out.points[out.contaminated]
    assert noise.min() >= -10.0 and noise.max() <= 10.0
    assert noise.max() > 5.0  # actually spreads over the box


def test_uncontaminated_ari_ignores_noise_draws():
    # scoring on the mask complement must not depend on the noise values
    from kmedians import adjusted_rand_index

    centers = np.array([[0.0, 0.0], [30.0, 0.0]])
    data = sample_mixture(MixtureSpec(centers, 200), seed=11)
    pred_full = assign(data.points, centers)
    aris = []
    for noise_seed in (1, 2):
        out = contaminate(data, ContaminationSpec(rho=0.2, law="student", df=1),
                          seed=noise_seed * 0 + 12)  # same replaced subset
        out.points[out.contaminated] += noise_seed * 1e4  # push noise further out
        keep = ~out.contaminated
        aris.append(adjusted_rand_index(out.true_labels[keep], pred_full[keep]))
    assert aris[0] == aris[1] == 1.0


def test_contamination_spec_validation():
    with pytest.raises(ValueError):
        ContaminationSpec(rho=0.6)
    with pytest.raises(ValueError):
        ContaminationSpec(rho=-0.1)
    with pytest.raises(ValueError):
        ContaminationSpec(rho=0.1, law="gamma")
    for df in (0, np.inf):
        with pytest.raises(ValueError, match="df must be >= 1 and finite"):
            ContaminationSpec(rho=0.1, law="student", df=df)
    for low, high in ((3.0, 3.0), (-np.inf, 10.0), (-10.0, np.inf)):
        with pytest.raises(ValueError, match="need finite low < high"):
            ContaminationSpec(rho=0.1, law="uniform", low=low, high=high)
