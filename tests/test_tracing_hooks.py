"""The benchmark tracer's hook paths all name a kmedians entry point.

perfbench/tracing.py wraps layer entry points at the names their callers look
them up; a traced run stops (exit 3) when one of those names is gone. This
checks the names, and the counts a traced Lloyd fit gives, without running
the benchmark.
"""

import importlib.util
from pathlib import Path

import kmedians
import kmedians.cli  # noqa: F401  (hooks reach the CLI and selection modules)
import kmedians.selection  # noqa: F401
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
