"""Integer arguments and seeds: one rule for every count, one way to build a generator.

Every count (k, k_max, restarts, iteration caps, sizes) and every seed passes
`_utils.as_count`: a float, a bool or an out-of-range value is refused with a
ValueError that names the argument, and numpy integers pass. Every seed reaches
numpy through `_utils.spawn_rng`.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmedians.clustering
import kmedians.selection
from kmedians import (
    AsgConfig,
    ContaminationSpec,
    DistortionCurve,
    MixtureSpec,
    asg_median,
    contaminate,
    distortion_curve,
    gap_select,
    init_centers,
    make_scenario,
    online_kmedians,
    penalty_shape,
    run_clustering,
    run_selection,
    sample_mixture,
    slope_select,
    sphere_centers,
    weiszfeld_median,
)
from kmedians._genie import GenieHierarchy
from kmedians._utils import as_count, derive_seed, spawn_rng
from kmedians.cli import main

X = np.vstack([np.arange(20.0), np.arange(20.0) % 7]).T
CURVE = DistortionCurve(n=100, ks=np.arange(1, 7), distortions=np.linspace(1.0, 0.5, 6))
SPEC = MixtureSpec(np.zeros((2, 2)), 3)
DATA = sample_mixture(SPEC)

# (argument, call taking the value, a valid value, out-of-range values)
ENTRIES = [
    ("k", lambda v: run_clustering(X, v, "kmeans"), 2, (0, 21)),
    ("max_iter", lambda v: run_clustering(X, 2, "kmeans", max_iter=v), 3, (0,)),
    ("n_start", lambda v: run_clustering(X, 2, "kmeans", n_start=v), 2, (0,)),
    ("seed", lambda v: run_clustering(X, 2, "kmeans", seed=v), 7, (-1,)),
    ("k", lambda v: online_kmedians(X, v), 2, (0, 21)),
    ("seed", lambda v: online_kmedians(X, 2, seed=v), 7, (-1,)),
    ("k", lambda v: init_centers(X, v), 2, (0, 21)),
    ("passes", lambda v: AsgConfig(passes=v), 2, (0,)),
    ("max_iter", lambda v: weiszfeld_median(X, max_iter=v), 3, (0,)),
    ("seed", lambda v: asg_median(X, seed=v), 7, (-1,)),
    ("k", lambda v: penalty_shape(v, 10), 3, (0, 11)),
    ("n", lambda v: penalty_shape(1, v), 10, (0,)),
    ("n", lambda v: DistortionCurve(n=v, ks=[1, 2], distortions=[2.0, 1.0]), 10, (0,)),
    ("k_max", lambda v: distortion_curve(X, v, "kmeans"), 3, (0, 21)),
    ("seed", lambda v: distortion_curve(X, 3, "kmeans", seed=v), 7, (-1,)),
    ("k_max", lambda v: run_selection(X, "slope", v, "kmeans"), 4, (0, 21)),
    ("k_max", lambda v: run_selection(X, "gap", v, "kmeans", gap_b=2), 3, (0, 21)),
    ("k_max", lambda v: run_selection(X, "silhouette", v, "kmeans"), 3, (1, 21)),
    ("min_window", lambda v: slope_select(CURVE, min_window=v), 3, (1, 6)),
    ("min_window", lambda v: run_selection(X, "slope", 6, "kmeans", min_window=v), 3, (1, 6)),
    ("B", lambda v: gap_select(X, 3, B=v, algorithm="kmeans"), 2, (0,)),
    ("B", lambda v: run_selection(X, "gap", 3, "kmeans", gap_b=v), 2, (0,)),
    ("points_per_cluster", lambda v: MixtureSpec(np.zeros((2, 2)), v), 3, (0,)),
    ("k", lambda v: sphere_centers(v, 1.0, 3), 2, (0,)),
    ("d", lambda v: sphere_centers(2, 1.0, v), 3, (1,)),
    ("seed", lambda v: sphere_centers(2, 1.0, 3, seed=v), 7, (-1,)),
    ("seed", lambda v: sample_mixture(SPEC, seed=v), 7, (-1,)),
    ("seed", lambda v: make_scenario("s2", seed=v), 7, (-1,)),
    ("seed", lambda v: contaminate(DATA, ContaminationSpec(rho=0.5), seed=v), 7, (-1,)),
    ("seed", lambda v: spawn_rng(3, v), 7, (-1,)),
    ("seed", lambda v: derive_seed(v), 7, (-1,)),
]


@pytest.mark.parametrize("name, call, good, out_of_range", ENTRIES,
                         ids=[f"{i}-{e[0]}" for i, e in enumerate(ENTRIES)])
def test_every_count_and_seed_refuses_what_is_not_a_valid_integer(name, call, good,
                                                                  out_of_range):
    for bad in (good + 0.5, float(good), True, np.float64(good), *out_of_range):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must "):
            call(bad)
    call(np.int64(good))
    call(np.array(good))


def test_as_count_messages():
    assert as_count("k", np.int32(3), 1) == 3 and type(as_count("k", np.int32(3), 1)) is int
    for value, message in (
            (2.5, "k must be an integer, got 2.5"),
            (True, "k must be an integer, got True"),
            ("3", "k must be an integer, got '3'"),
            (0, "k must be >= 1, got 0")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_count("k", value, 1)
    with pytest.raises(ValueError, match=re.escape(
            "k must satisfy 1 <= k <= n, got k=6, n=5")):
        as_count("k", 6, 1, 5, "n")
    with pytest.raises(ValueError, match=re.escape(
            "min_window must satisfy 2 <= min_window <= 5, got min_window=6")):
        as_count("min_window", 6, 2, 5)


def _count_work(monkeypatch):
    """Count the fits `selection` starts, the inits `clustering` draws and the
    Genie trees built anywhere."""
    work = {"fits": 0, "inits": 0, "trees": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            work[key] += 1
            return fn(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(kmedians.selection, "run_clustering",
                        counting("fits", kmedians.selection.run_clustering))
    monkeypatch.setattr(kmedians.clustering, "_init_codebook",
                        counting("inits", kmedians.clustering._init_codebook))
    monkeypatch.setattr(GenieHierarchy, "__init__",
                        counting("trees", GenieHierarchy.__init__))
    return work


@pytest.mark.parametrize("bad", [{"seed": -1}, {"seed": 2.5}, {"k_max": 2.5},
                                 {"max_iter": 2.5}, {"n_start": True}])
def test_selection_refuses_a_bad_count_or_seed_before_any_fit(monkeypatch, bad):
    work = _count_work(monkeypatch)
    kwargs = {"k_max": 4, "seed": 0, **bad}
    k_max = kwargs.pop("k_max")
    for select in (lambda: run_selection(X, "slope", k_max, **kwargs),
                   lambda: run_selection(X, "gap", k_max, gap_b=2, **kwargs),
                   lambda: run_selection(X, "silhouette", k_max, **kwargs),
                   lambda: distortion_curve(X, k_max, **kwargs)):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must "):
            select()
    assert work == {"fits": 0, "inits": 0, "trees": 0}


@pytest.mark.parametrize("algorithm", ["offline", "semi_online", "online", "kmeans"])
@pytest.mark.parametrize("init", ["robust_hierarchical", "plus_plus_l1"])
def test_run_clustering_refuses_a_bad_count_or_seed_before_any_fit(monkeypatch, algorithm,
                                                                    init):
    work = _count_work(monkeypatch)
    method = kmedians.InitMethod(kind=init)
    for bad in ({"k": 2.5}, {"k": True}, {"seed": -1}, {"seed": 2.5}, {"max_iter": 1.5},
                {"n_start": 2.5}):
        args = {"k": 2, "seed": 0, **bad}
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must "):
            run_clustering(X, args.pop("k"), algorithm, init=method, **args)
    assert work == {"fits": 0, "inits": 0, "trees": 0}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**128))
def test_spawn_rng_of_one_key_is_default_rng(seed):
    # so the generators that took default_rng(seed) draw the same streams
    ours, numpy_s = spawn_rng(seed), np.random.default_rng(seed)
    assert ours.bit_generator.state == numpy_s.bit_generator.state
    assert np.array_equal(ours.random(4), numpy_s.random(4))


@pytest.mark.parametrize("argv, code, message", [
    (("cluster", "--scenario", "s2", "--k", 2, "--seed", -1), 3,
     "error: seed must be >= 0, got -1"),
    (("select", "--scenario", "s2", "--k-max", 4, "--seed", -1), 3,
     "error: seed must be >= 0, got -1"),
    (("simulate", "--scenario", "s2", "--seed", -1), 3, "error: seed must be >= 0, got -1"),
    (("bench", "--scenario", "s2", "--k-max", 3, "--trials", 1, "--seed", -1), 3,
     "error: seed must be >= 0, got -1"),
    (("bench", "--scenario", "s2", "--k-max", 3, "--trials", 0), 3,
     "error: --trials must be >= 1, got 0"),
    (("simulate", "--scenario", "sphere10", "--points-per-cluster", 0), 3,
     "error: --points-per-cluster must be >= 1, got 0"),
    (("cluster", "--scenario", "s2", "--k", 2.5), 2, "argument --k: invalid int value"),
    (("bench", "--scenario", "s2", "--trials", 2.5), 2,
     "argument --trials: invalid int value"),
    (("simulate", "--scenario", "sphere10", "--points-per-cluster", 2.5), 2,
     "argument --points-per-cluster: invalid int value"),
    (("simulate", "--scenario", "s2", "--seed", 2.5), 2, "argument --seed: invalid int value"),
    (("select", "--scenario", "s2", "--k-max", 4, "--method", "gap", "--gap-b", 0), 3,
     "error: --gap-b must be >= 1, got 0"),
    (("cluster", "--scenario", "s2", "--k", 2, "--passes", 0), 3,
     "error: --passes must be >= 1, got 0"),
    (("cluster", "--scenario", "s2", "--k", 2, "--n-start", 0), 3,
     "error: --n-start must be >= 1, got 0"),
    (("select", "--scenario", "s2", "--k-max", 4, "--max-iter", 0), 3,
     "error: --max-iter must be >= 1, got 0"),
    (("bench", "--scenario", "s2", "--k-max", 3, "--trials", 1, "--method", "gap",
      "--gap-b", -1), 3, "error: --gap-b must be >= 1, got -1"),
    (("bench", "--scenario", "s2", "--k-max", 3, "--trials", 1, "--passes", 0), 3,
     "error: --passes must be >= 1, got 0"),
])
def test_cli_refuses_a_bad_count_or_seed_by_name(tmp_path, capsys, argv, code, message):
    out = tmp_path / "out"
    assert main([str(a) for a in (*argv, "--out", out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()
