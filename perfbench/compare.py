#!/usr/bin/env python3
"""Compare benchmark records of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON records that `run.py --record` wrote for
untraced runs. Records pair up by (workload, seed); use at least ten
pairs per workload, alternating which side runs first. For every
end-to-end metric in BENCHMARK.json and every workload the verdict is

  gain         the change wins at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the parent's
               interquartile range
  regression   the change's median is worse than the parent's by more
               than the metric's bound
  unresolved   a side's spread (interquartile range over median) exceeds
               the bound, unless every change run beats every parent run
  same         none of the above

Seeded outputs must repeat exactly, so any pair whose per-job quality
(selected k, ARI, centroid error, distortion) differs is listed as a
changed result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    records = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        if rec.get("trace") == 0:
            records[(rec["workload"], rec["seed"])] = rec
    return records


def _spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1, (q3 - q1) / q2 if q2 else float("inf")


def verdict(parent, change, better: str, bound: float):
    """Verdict and summary numbers for one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    iqr_p, spread_p = _spread(parent)
    _, spread_c = _spread(change)
    worse_by = sign * (med_p - med_c) / med_p
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * len(parent) and abs(med_c - med_p) > iqr_p:
        name = "gain"
    elif max(spread_p, spread_c) > bound and not dominates:
        name = "unresolved"
    elif worse_by > bound:
        name = "regression"
    else:
        name = "same"
    return name, {"pairs": len(parent), "wins": wins, "parent_median": med_p,
                  "change_median": med_c, "worse_by": worse_by,
                  "parent_spread": spread_p, "change_spread": spread_c}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare parent and change benchmark records.")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(args.parent), load(args.change)
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        print("no (workload, seed) pairs in common", file=sys.stderr)
        return 2

    bad = False
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        note = "" if len(seeds) >= 10 else "  (fewer than 10 pairs: not enough to claim)"
        print(f"{workload}: {len(seeds)} pairs{note}")
        for m in spec["end_to_end"]:
            pv = [parent[workload, s]["metrics"][m["name"]]["value"] for s in seeds]
            cv = [change[workload, s]["metrics"][m["name"]]["value"] for s in seeds]
            if len(seeds) < 2:
                print(f"  {m['name']:16s} parent {pv[0]:.6g} change {cv[0]:.6g} {m['unit']}")
                continue
            name, v = verdict(pv, cv, m["better"], m["bound"])
            bad |= name == "regression"
            print(f"  {m['name']:16s} {name:10s} parent {v['parent_median']:.6g} "
                  f"change {v['change_median']:.6g} {m['unit']}  worse by "
                  f"{v['worse_by']:+.1%} (bound {m['bound']:.0%})  wins {v['wins']}/"
                  f"{v['pairs']}  spread {v['parent_spread']:.1%}/{v['change_spread']:.1%}")
        for s in seeds:
            if parent[workload, s]["quality"] != change[workload, s]["quality"]:
                bad = True
                print(f"  seed {s}: results changed (selected k, ARI, error or distortion)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
