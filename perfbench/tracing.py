"""Spans and work counts at the kmedians layer boundaries, recorded from outside.

`Tracer.job(km, job_id)` replaces each layer entry point by a wrapper at the
name its caller looks it up (Lloyd's M-step calls
`kmedians.clustering.weiszfeld_median`, the CLI calls
`kmedians.cli.run_selection`, ...). A wrapper opens a span (name, start,
end, parent, job id) and adds the work the call did to the counters.
Spans stay in memory until the benchmark writes them out at the end.

A layer's self time is the time of its spans minus the time covered by
their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter

# Counter updates: each gets (counts, result, *call args) and adds the work done.


def _weiszfeld(c, res, points, *a, **kw):
    c["geomedian.weiszfeld_calls"] += 1
    c["geomedian.weiszfeld_steps"] += res.iterations
    c["geomedian.weiszfeld_point_steps"] += res.iterations * len(points)
    c["geomedian.weiszfeld_cap_hits"] += not res.converged


def _asg(c, res, x, order, *a, **kw):
    c["geomedian.asg_updates"] += len(order)


def _pairwise(c, res, x, centers, *a, **kw):
    n, d = x.shape
    k = centers.shape[0]
    c["utils.pairwise_calls"] += 1
    c["utils.pairwise_pairs"] += n * k
    c["utils.pairwise_bytes"] += n * k * d * 8


def _lloyd(c, res, x, centers, m_step, max_iter, *a, **kw):
    c["clustering.lloyd_iterations"] += res[2]
    c["clustering.lloyd_cap_hits"] += res[2] == max_iter


def _restarts(c, res, *a, **kw):
    c["clustering.restarts"] += res[4]


def _online(c, res, *a, **kw):
    c["clustering.online_updates"] += res.iterations


def _genie_build(c, res, tree, points, *a, **kw):
    c["genie.builds"] += 1
    c["genie.build_points"] += len(points)


def _genie_centers(c, res, *a, **kw):
    c["genie.centers_at_calls"] += 1


def _silhouette(c, res, x, *a, **kw):
    c["selection.silhouette_calls"] += 1
    c["selection.silhouette_pairs"] += len(x) ** 2


def _gap(c, res, points, k_max, b, *a, **kw):
    c["selection.gap_reference_sets"] += b


def _csv_written(c, res, path, *a, **kw):
    c["cli.bytes_written"] += os.path.getsize(path)


def _report_written(c, res, *a, **kw):
    c["cli.bytes_written"] += os.path.getsize(res)


# (attribute path under kmedians, span name, counter update)
HOOKS = [
    ("clustering.weiszfeld_median", "geomedian.weiszfeld", _weiszfeld),
    ("clustering._asg_stream", "geomedian.asg", _asg),
    ("clustering.pairwise_distances", "utils.pairwise", _pairwise),
    ("clustering._lloyd_once", "clustering.lloyd", _lloyd),
    ("clustering._best_of_restarts", "clustering.restarts", _restarts),
    ("clustering.online_kmedians", "clustering.online", _online),
    ("selection.run_clustering", "clustering.fit", None),
    ("cli.run_clustering", "clustering.fit", None),
    ("_genie.GenieHierarchy.__init__", "genie.build", _genie_build),
    ("_genie.GenieHierarchy.centers_at", "genie.centers_at", _genie_centers),
    ("selection.mean_silhouette", "selection.silhouette", _silhouette),
    ("selection._gap", "selection.gap", _gap),
    ("cli.run_selection", "selection.run", None),
    ("cli.load_csv", "cli.load", None),
    ("cli._write_csv", "cli.write", _csv_written),
    ("cli.write_report", "cli.write", _report_written),
]

# per-layer time metric -> span names whose self time it sums
SELF_TIMES = {
    "geomedian.weiszfeld_s": ("geomedian.weiszfeld",),
    "geomedian.asg_s": ("geomedian.asg",),
    "utils.pairwise_s": ("utils.pairwise",),
    "clustering.fit_self_s": ("clustering.fit", "clustering.restarts", "clustering.lloyd",
                              "clustering.online"),
    "genie.build_s": ("genie.build",),
    "genie.centers_at_s": ("genie.centers_at",),
    "selection.silhouette_s": ("selection.silhouette",),
    "selection.self_s": ("selection.run", "selection.gap"),
    "cli.load_s": ("cli.load",),
    "cli.write_s": ("cli.write",),
    "cli.self_s": ("cli.main",),
}

COUNTS = [
    "geomedian.weiszfeld_calls", "geomedian.weiszfeld_steps",
    "geomedian.weiszfeld_point_steps", "geomedian.weiszfeld_cap_hits",
    "geomedian.asg_updates",
    "utils.pairwise_calls", "utils.pairwise_pairs", "utils.pairwise_bytes",
    "clustering.lloyd_iterations", "clustering.lloyd_cap_hits", "clustering.restarts",
    "clustering.online_updates",
    "genie.builds", "genie.build_points", "genie.centers_at_calls",
    "selection.silhouette_calls", "selection.silhouette_pairs",
    "selection.gap_reference_sets",
    "cli.bytes_written",
]


def _resolve(km, path: str):
    """(owner, attribute) of a hook path under the kmedians package, or None."""
    *owner_path, attr = path.split(".")
    owner = km
    for part in owner_path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


def missing_hooks(km) -> list[str]:
    """Hook paths with no target: their layer would read as zero work."""
    return [path for path, _, _ in HOOKS if _resolve(km, path) is None]


class Tracer:
    """In-memory spans and per-job work counters."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent index, job id]
        self.counts: dict[object, Counter] = {}
        self._stack: list[int] = []
        self._job = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._job])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, update):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if update is not None:
                update(tracer.counts[tracer._job], out, *args, **kwargs)
            return out
        return traced

    @contextlib.contextmanager
    def job(self, km, job_id):
        """Trace one job: patch every hook, open the job's root span, restore on exit.

        Raises LookupError if a hook has no target, so that a renamed entry
        point cannot pass for a layer that did no work.
        """
        self._job = job_id
        self.counts[job_id] = Counter()
        undo = []
        try:
            for path, name, update in HOOKS:
                target = _resolve(km, path)
                if target is None:
                    raise LookupError(f"tracing hook without a target: kmedians.{path}")
                owner, attr = target
                original = getattr(owner, attr)
                undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, update))
            root = self._open("cli.main")
            try:
                yield self.counts[job_id]
            finally:
                self._close(root)
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            self._job = None

    def self_times(self, job_id) -> Counter:
        """Self time per span name over the spans of one job."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if job == job_id and parent is not None:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            if job == job_id:
                out[name] += (end - start) - child[i]
        return out

    def write_spans(self, path, t0: float) -> None:
        """Tab-separated spans, times in seconds from t0."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart_s\tend_s\tparent\tjob\n")
            for name, start, end, parent, job in self.spans:
                f.write(f"{name}\t{start - t0:.6f}\t{end - t0:.6f}\t"
                        f"{'' if parent is None else parent}\t{job}\n")
