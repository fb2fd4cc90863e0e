"""Fits are byte-identical whichever OpenBLAS kernel the CPU gets.

OpenBLAS built with DYNAMIC_ARCH picks its kernels by CPU at start-up, and
OPENBLAS_CORETYPE forces a choice. Its kernels round a dot product
differently, so no fit may go through one. This runs the same short fits in
child processes under the default and forced kernels and compares bytes.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints one sha256 per output: a control of BLAS dot products, which the
# kernels round differently, then the fits of every algorithm, an offline fit
# at d = 10, both medians and the row norms of the Weiszfeld stop test. Last
# comes whether silhouette scores of a stack equal those of each labeling
# alone; the scores themselves go through BLAS and may differ by kernel.
CHILD = """
import hashlib, json
import numpy as np
import kmedians
from kmedians.geomedian import _rowdot
from kmedians.simulation import make_scenario

def digest(*arrays):
    return hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest()

rng = np.random.default_rng(0)
out = {"control": digest([v @ v for v in (rng.standard_normal(n) for n in range(1, 65))
                          for _ in range(20)])}
x = make_scenario("s2", seed=1).points[:600]
for algorithm in kmedians.ALGORITHMS:
    r = kmedians.run_clustering(x, 4, algorithm, seed=1, n_start=2, max_iter=15)
    out[algorithm] = digest(r.centers, r.labels, r.distortion)
# at d = 10 the Weiszfeld distances take the 8-lane path of `_sq_dists`
s1 = make_scenario("s1", seed=1).points[:600]
r = kmedians.run_clustering(s1, 6, "offline", seed=1, n_start=2, max_iter=15)
out["offline_s1"] = digest(r.centers, r.labels, r.distortion)
out["asg_median"] = digest(kmedians.asg_median(x, kmedians.AsgConfig(passes=2), seed=1).point)
out["weiszfeld_median"] = digest(kmedians.weiszfeld_median(x, tol=1e-12).point)
# the row norms of Weiszfeld's stop test, which the fits above meet far from its bound
out["_rowdot"] = digest(_rowdot(np.random.default_rng(1).standard_normal((40, 5))))
# at n = 3000 the silhouette blocks hold 176 or 177 rows, so some end on a
# kernel's edge path
rng = np.random.default_rng(2)
sx = rng.standard_normal((3000, 3))
stack = np.stack([rng.integers(0, k, size=3000) for k in (2, 5, 9)])
single = np.array([kmedians.mean_silhouette(sx, row) for row in stack])
out["silhouette_stack"] = kmedians.mean_silhouette(sx, stack).tobytes() == single.tobytes()
print(json.dumps(out))
"""


def _cpu_flags() -> set:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


def _run(coretype):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_fits_are_identical_across_openblas_kernels():
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip(f"OPENBLAS_CORETYPE names x86_64 kernels; this is {platform.machine()}")
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
        pytest.skip("numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH, "
                    "so OPENBLAS_CORETYPE selects no kernel")
    # Prescott (SSE3) runs on any x86_64; Haswell needs AVX2 and FMA
    coretypes = [None, "Prescott"] + (["Haswell"] if {"avx2", "fma"} <= _cpu_flags() else [])
    runs = {coretype or "default": _run(coretype) for coretype in coretypes}
    apart = sorted(name for name, run in runs.items() if not run["silhouette_stack"])
    assert not apart, f"stacked silhouette scores differ from single ones under {apart}"
    if len({run.pop("control") for run in runs.values()}) < 2:
        pytest.skip("the kernels here round the control dot products alike, "
                    "so the comparison would show nothing")
    default = runs.pop("default")
    for coretype, run in runs.items():
        differ = sorted(name for name in default if run[name] != default[name])
        assert not differ, f"{differ} differ under OPENBLAS_CORETYPE={coretype}"
