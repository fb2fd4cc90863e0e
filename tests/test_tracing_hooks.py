"""The benchmark tracer's hook paths all name a kmedians entry point.

perfbench/tracing.py wraps layer entry points at the names their callers look
them up; a traced run stops (exit 3) when one of those names is gone. This
checks the names, and the counts a traced Lloyd fit and traced gap and
silhouette selections give, without running the benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np

import kmedians
import kmedians.cli  # noqa: F401  (hooks reach the CLI and selection modules)
import kmedians.selection  # noqa: F401
from kmedians import clustering
from kmedians._utils import pairwise_distances
from kmedians.simulation import make_scenario

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_hook_has_a_target():
    assert _load_tracing().missing_hooks(kmedians) == []


def test_traced_lloyd_counts_one_kernel_pass_per_iteration():
    # the tracer reads the iteration count at position 2 of `_lloyd_once`'s
    # return and the restarts at position 4 of `_best_of_restarts`'; one
    # assignment pass before the first M-step and one after each gives the
    # labels and the distortion alike
    tracing = _load_tracing()
    hooked = [tracing._resolve(kmedians, path) for path, _, _ in tracing.HOOKS]
    originals = [getattr(owner, attr) for owner, attr in hooked]
    x = make_scenario("s2", seed=1).points
    with tracing.Tracer().job(kmedians, 0) as counts:
        r = kmedians.lloyd_kmedians(x, 4, n_start=1)
    assert counts["clustering.lloyd_iterations"] == r.iterations
    assert counts["clustering.restarts"] == 1
    assert counts["utils.pairwise_calls"] == r.iterations + 1
    assert [getattr(owner, attr) for owner, attr in hooked] == originals


def test_traced_selectors_fit_once_per_k(monkeypatch):
    # gap takes W from the fits themselves: one Genie tree per dataset and
    # no kernel pass beyond Lloyd's own; silhouette scores every k in one call
    repaired = []
    assign_repaired = clustering._assign_repaired

    def watched(x, centers):
        # checked with the untraced kernel, before the centers are touched
        live = np.unique(pairwise_distances(x, centers).argmin(axis=1)).size
        repaired.append(live < centers.shape[0])
        return assign_repaired(x, centers)
    monkeypatch.setattr(clustering, "_assign_repaired", watched)

    tracing = _load_tracing()
    hooked = [tracing._resolve(kmedians, path) for path, _, _ in tracing.HOOKS]
    originals = [getattr(owner, attr) for owner, attr in hooked]
    rng = np.random.default_rng(3)
    x = np.vstack([c + rng.normal(size=(40, 2)) for c in ((-8.0, 0.0), (8.0, 0.0))])
    k_max = 4
    with tracing.Tracer().job(kmedians, 0) as counts:
        kmedians.gap_select(x, k_max, B=3, seed=1)
    assert repaired and not any(repaired)
    assert counts["selection.gap_reference_sets"] == 3
    assert counts["genie.builds"] == 4
    assert counts["clustering.restarts"] == 4 * k_max
    assert counts["utils.pairwise_calls"] == (counts["clustering.lloyd_iterations"]
                                              + counts["clustering.restarts"])
    with tracing.Tracer().job(kmedians, 1) as counts:
        kmedians.silhouette_select(x, k_max, seed=1)
    assert counts["selection.silhouette_calls"] == 1
    assert counts["selection.silhouette_pairs"] == len(x) ** 2
    assert [getattr(owner, attr) for owner, attr in hooked] == originals


def test_traced_fit_counts_every_algorithm():
    # run_clustering reaches online_kmedians, _best_of_restarts and _lloyd_once
    # through the module-level names the tracer patches
    tracing = _load_tracing()
    x = make_scenario("s2", seed=1).points[:300]
    for algorithm in kmedians.ALGORITHMS:
        with tracing.Tracer().job(kmedians, 0) as counts:
            r = kmedians.run_clustering(x, 4, algorithm, n_start=2)
        if algorithm == "online":
            assert counts["clustering.online_updates"] == r.iterations > 0
            assert counts["clustering.restarts"] == counts["clustering.lloyd_iterations"] == 0
        else:
            assert counts["clustering.online_updates"] == 0, algorithm
            assert counts["clustering.lloyd_iterations"] >= r.iterations > 0, algorithm
            assert counts["clustering.restarts"] == r.restarts_used > 0, algorithm


def test_traced_semi_online_counts_every_asg_update():
    # the tracer counts len(order) from `_asg_stream`'s positions 0 and 1: every
    # Lloyd iteration streams each point once per pass
    tracing = _load_tracing()
    x = make_scenario("s2", seed=1).points[:300]
    for passes in (1, 2):
        with tracing.Tracer().job(kmedians, 0) as counts:
            kmedians.run_clustering(x, 4, "semi_online", n_start=2, max_iter=5,
                                    cfg=kmedians.AsgConfig(passes=passes))
        iterations = counts["clustering.lloyd_iterations"]
        assert counts["geomedian.asg_updates"] == passes * len(x) * iterations > 0
