"""Workload definitions: seeded datasets and the rounds of jobs of each workload.

A workload is two rounds of CLI jobs; a round runs each kind of job of the
workload once, on datasets of its own. Every dataset is drawn from the
benchmark seed during set-up and written to CSV; the program only sees
the CSV through `--input`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TAGS = {"select-offline": 1, "fit-fixed-k": 2, "select-baselines": 3}


@dataclass(frozen=True)
class Dataset:
    """Generated points with the truth the benchmark scores against."""

    points: np.ndarray
    true_labels: np.ndarray
    contaminated: np.ndarray
    centers: np.ndarray       # generating centers
    k_true: int


@dataclass(frozen=True)
class Job:
    """One CLI call on one dataset.

    `k_range` is the candidate range a selected k must lie in; for a
    fixed-k job it is (k, k). `norm` is the distortion the job reports.
    """

    kind: str
    dataset: str
    argv: tuple[str, ...]
    k_range: tuple[int, int]
    norm: str = "l1"


def _seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)[0] >> 1)


def _scenario(sim, which: str, seed: int) -> Dataset:
    data = sim.make_scenario(which, seed=seed)
    centers = (np.full((1, 10), 0.5) if which == "s1"
               else np.asarray(data.spec["centers"], dtype=float))
    return Dataset(data.points, data.true_labels, data.contaminated, centers,
                   centers.shape[0])


def _sphere10(sim, points_per_cluster: int, seed: int) -> Dataset:
    """10 unit-variance clusters on a radius-10 sphere in R^5, 10% Student-t1 noise."""
    centers = sim.sphere_centers(10, 10.0, 5, seed=_seed(seed, 1))
    data = sim.sample_mixture(sim.MixtureSpec(centers, points_per_cluster), seed=_seed(seed, 2))
    noise = sim.ContaminationSpec(rho=0.1, law="student", df=1)
    data = sim.contaminate(data, noise, seed=_seed(seed, 3))
    return Dataset(data.points, data.true_labels, data.contaminated, centers, 10)


def _slope(k_max: int) -> tuple[tuple[str, ...], tuple[int, int]]:
    return (("select", "--method", "slope", "--algorithm", "offline",
             "--k-max", str(k_max)), (1, k_max))


def make_workload(sim, workload: str, seed: int):
    """Draw the datasets and build the rounds of one workload.

    `sim` is the `kmedians.simulation` module. A round runs every kind of
    job of the workload once, each on the round's own draw. Returns
    (datasets, rounds) with datasets keyed by the names the jobs refer to.
    """
    tag = _TAGS[workload]
    datasets: dict[str, Dataset] = {}
    rounds: list[list[Job]] = []

    def add(key: str, data: Dataset):
        datasets[key] = data
        return key

    for r in range(2):
        jobs: list[Job] = []
        if workload == "select-offline":
            for i, which in enumerate(("s1", "s2", "s3")):
                key = add(f"{which}-{r}", _scenario(sim, which, _seed(seed, tag, r, i)))
                argv, k_range = _slope({"s1": 10, "s2": 15, "s3": 15}[which])
                jobs.append(Job(f"slope-{which}", key, argv, k_range))
            key = add(f"sphere10-200-{r}", _sphere10(sim, 200, _seed(seed, tag, r, 3)))
            argv, k_range = _slope(20)
            jobs.append(Job("slope-sphere10", key, argv, k_range))
        elif workload == "fit-fixed-k":
            big = add(f"sphere10-800-{r}", _sphere10(sim, 800, _seed(seed, tag, r, 1)))
            jobs += [
                Job("online", big, ("cluster", "--algorithm", "online", "--k", "10"), (10, 10)),
                Job("kmeans", big, ("cluster", "--algorithm", "kmeans", "--k", "10"), (10, 10),
                    norm="squared_l2"),
            ]
            # A semi_online restart takes about 2.7 s when Lloyd's iterations
            # reach their cap and under 2 s when they converge first, and
            # restarts on one draw tend to go the same way. Three one-restart
            # jobs on three draws spread that over the draws.
            for i in range(3):
                s2 = add(f"s2-{r}-{i}", _scenario(sim, "s2", _seed(seed, tag, r, 0, i)))
                jobs.append(Job("semi_online", s2, ("cluster", "--algorithm", "semi_online",
                                                    "--k", "4", "--n-start", "1"), (4, 4)))
        elif workload == "select-baselines":
            # one gap job and two silhouette draws: an odd round, so the median
            # job is not the midpoint between the two kinds
            s2 = add(f"s2-{r}", _scenario(sim, "s2", _seed(seed, tag, r, 0)))
            jobs.append(Job("gap-s2", s2, ("select", "--method", "gap", "--gap-b", "5",
                                           "--k-max", "8"), (1, 8)))
            for i in (1, 2):
                sph = add(f"sphere10-500-{r}-{i}", _sphere10(sim, 500, _seed(seed, tag, r, i)))
                jobs.append(Job("silhouette-sphere10", sph, ("select", "--method", "silhouette",
                                                             "--k-max", "12"), (2, 12)))
        else:
            raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(_TAGS)}")
        rounds.append(jobs)
    return datasets, rounds


def write_points_csv(path, points: np.ndarray) -> None:
    """Coordinates only, each float written so that it reads back exactly."""
    header = ",".join(f"x{i}" for i in range(points.shape[1]))
    lines = [header] + [",".join(map(repr, row)) for row in points.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
