"""The benchmark tracer's hook paths all name a kmedians entry point.

perfbench/tracing.py wraps layer entry points at the names their callers look
them up; a traced run stops (exit 3) when one of those names is gone. This
checks the names without running the benchmark.
"""

import importlib.util
from pathlib import Path

import kmedians
import kmedians.cli  # noqa: F401  (hooks reach the CLI and selection modules)
import kmedians.selection  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_hook_has_a_target():
    assert _load_tracing().missing_hooks(kmedians) == []
