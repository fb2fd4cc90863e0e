"""Checks on the benchmark itself: work counts repeat, and each layer's bypass holds.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload twice, traced, at one seed and for one pass over its
distinct jobs (about eight minutes on two cores).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402

WORKLOADS = ("select-offline", "fit-fixed-k", "select-baselines")
SEED = 5
QUALITY = ("k_true_frac", "ari_mean", "l1_error_median", "distortion_mean")

# counter -> (workloads that must do this work, workloads that must not)
LAYERS = {
    "geomedian.weiszfeld_calls": (("select-offline", "select-baselines"), ("fit-fixed-k",)),
    "geomedian.asg_updates": (("fit-fixed-k",), ("select-offline", "select-baselines")),
    "utils.pairwise_calls": (("select-offline",), ()),
    "clustering.lloyd_iterations": (("fit-fixed-k",), ()),
    "clustering.restarts": (("fit-fixed-k",), ()),
    "clustering.online_updates": (("fit-fixed-k",), ("select-offline", "select-baselines")),
    "genie.builds": (("fit-fixed-k", "select-baselines"), ()),
    "selection.silhouette_calls": (("select-baselines",), ("select-offline", "fit-fixed-k")),
    "selection.gap_reference_sets": (("select-baselines",), ("select-offline", "fit-fixed-k")),
    "cli.bytes_written": (WORKLOADS, ()),
}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced one-pass runs per workload: (result line, record) pairs."""
    cache = {}

    def get(workload):
        if workload not in cache:
            runs = []
            for i in range(2):
                record = tmp_path_factory.mktemp(workload) / f"run{i}.json"
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(SEED), "--seconds", "0", "--trace", "1",
                     "--record", str(record)],
                    cwd=HERE.parent, capture_output=True, text=True, timeout=600)
                assert proc.returncode == 0, proc.stderr
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                runs.append((result, json.loads(record.read_text(encoding="utf-8"))))
            cache[workload] = runs
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_quality_repeat(traced_runs, workload):
    (res_a, rec_a), (res_b, rec_b) = traced_runs(workload)
    assert res_a["correct"] and res_b["correct"]
    assert res_a["failed"] == res_b["failed"] == 0
    for name in (*tracing.COUNTS, *QUALITY):
        assert rec_a["metrics"][name]["value"] == rec_b["metrics"][name]["value"], name
    assert rec_a["quality"] == rec_b["quality"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_bypasses(traced_runs, workload):
    (_, rec), _ = traced_runs(workload)
    for name, (exercised, bypassed) in LAYERS.items():
        value = rec["metrics"][name]["value"]
        if workload in exercised:
            assert value > 0, f"{name} is zero on {workload}"
        if workload in bypassed:
            assert value == 0, f"{name} is {value} on {workload}, which bypasses it"


def test_missing_hook_is_an_error():
    """A renamed entry point must fail the traced run, not read as zero work."""
    import types

    import kmedians.cli

    assert tracing.missing_hooks(kmedians) == []
    stub = types.SimpleNamespace(**{name: getattr(kmedians, name) for name in dir(kmedians)})
    stub.clustering = types.SimpleNamespace(**vars(kmedians.clustering))
    del stub.clustering._asg_stream
    assert tracing.missing_hooks(stub) == ["clustering._asg_stream"]
    with pytest.raises(LookupError, match="_asg_stream"):
        with tracing.Tracer().job(stub, 0):
            pass
    # the hooks patched before the missing one are restored
    assert stub.clustering.weiszfeld_median is kmedians.clustering.weiszfeld_median
