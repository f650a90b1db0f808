"""Workload definitions and seeded input generation.

Inputs are generated with numpy alone and written as Matrix Market
coordinate files by this module, never through ``blocksvd.randmat`` or
``blocksvd.mmio.write_matrix``: a change to either cannot change what the
benchmark feeds the program.

Every matrix is planted the same way: a random sparsity pattern of the
given density with |N(0, 1)| values, the first ``k`` columns scaled by 10,
then rows and columns shuffled so the planner has to find the planted
columns again. A ``full_pivot`` shape then gets a nonzero entry at each
diagonal position of the top-left k x k block, so the pivot block handed to
``blockdiag`` is structurally nonsingular.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    """One input file of a round: size, density, split and rank."""

    m: int
    n: int
    k: int
    i: int
    density: float
    full_pivot: bool = False   # nonzero diagonal in the k x k corner


@dataclass(frozen=True)
class Workload:
    """A closed loop with one client.

    The client runs the jobs of one round (one file per shape of
    ``round``), then the next round's, wrapping around after ``rounds``
    rounds; a run always ends on a whole round so every run sees the same
    mix of shapes. Each slot of each round is its own generated file.
    """

    name: str
    kind: str              # "approx", "plan" or "analyze"
    round: tuple[Shape, ...]
    rounds: int            # distinct rounds in the input pool
    why: str


D30, D5 = 0.30, 0.05

WORKLOADS = {w.name: w for w in (
    Workload(
        "approx-dense", "approx",
        (Shape(200, 80, 20, 5, D30), Shape(400, 200, 20, 10, D30),
         Shape(600, 300, 30, 10, D30)),
        # job_tail_s, with ten samples above it, falls among the 400x200 jobs
        # in runs of up to 10 rounds and among the 600x300 ones from 11
        # rounds (33 jobs) on. A 25 s run stays at 10 rounds or fewer unless
        # a round takes under 2.5 s; the usual is 3.1 s.
        rounds=12,
        why="30%-density approx jobs: the solve layers (operator_norm, "
            "rotations) do nearly all the work"),
    Workload(
        "approx-sparse", "approx",
        (Shape(200, 80, 20, 5, D5), Shape(200, 80, 20, 5, D5),
         Shape(400, 160, 20, 5, D5)),
        rounds=24,
        why="5%-density approx jobs, the paper's sparse regime: singular "
            "pivots make many jobs fail, pivots shrink, sweeps are many"),
    Workload(
        "plan-large", "plan",
        (Shape(10000, 2000, 20, 0, 0.005),),
        rounds=3,
        why="read and plan 10000x2000 files with 1e5 entries: only mmio and "
            "the planner work, the solve layers are never called"),
    Workload(
        "analyze", "analyze",
        (Shape(200, 100, 20, 3, D30, True), Shape(200, 100, 20, 3, D30, True),
         Shape(200, 100, 20, 3, D30, True), Shape(80, 80, 40, 3, D30, True)),
        rounds=40,
        why="CLI bounds and blockdiag --oracle jobs on files with a nonsingular "
            "pivot block: the only user of the bounds layer and of the full "
            "sweep trace with Lemma 11 checks"),
    Workload(
        "analyze-singular", "analyze",
        (Shape(200, 100, 20, 3, D30), Shape(200, 100, 20, 3, D30),
         Shape(200, 100, 20, 3, D30), Shape(80, 80, 40, 3, D30)),
        rounds=8,
        why="analyze's jobs on files whose k x k pivot block may have an empty "
            "row or column: on those, blockdiag raises PivotSingularError "
            "instead of exiting 2 (2 of 96 files over seeds 1-3)"),
)}

# Run and reported by suite.py, but not listed in BENCHMARK.json, whose
# bounds it cannot meet: over five seeds of 25 s its job_p50_s spread 47%
# of the median and job_tail_s 35% (the largest bound allowed is 25%).
# Almost half the jobs fail, each seed's inputs fail a different mix of
# the two sizes, and success times run from 0.1 to 1.8 s with the sweep
# count, so the median moves between the sizes from seed to seed.
#
# plan-large is not gated either. Its jobs stream a dense 10000x2000 copy
# (160 MB) through the 24-split scan, so they are bound by memory bandwidth,
# which other tenants of a shared host take: over ten seeds of 25 s its
# jobs_per_s spread 16% in one set and 33% in another, and job_p50_s ran
# from 2.7 to 4.5 s on inputs that differ only in about 0.3% of their entry
# count. mmio and the planner are still timed, at fixed k, on approx-dense.
#
# analyze-singular is not gated either: its failing jobs are a defect of
# the blockdiag command, and a gated workload must have none. analyze runs
# the same jobs on files whose pivot block has a nonzero diagonal, so it is
# structurally nonsingular, as block_diagonalize assumes.
UNGATED = ("approx-sparse", "plan-large", "analyze-singular")

# Tiny sizes for the self-test; same kinds, same code paths.
SMOKE = {
    "approx-dense": (Shape(24, 12, 4, 2, D30),),
    "approx-sparse": (Shape(30, 12, 4, 2, 0.15),),
    "plan-large": (Shape(300, 60, 4, 0, 0.02),),
    "analyze": (Shape(40, 20, 6, 2, 0.6, True), Shape(16, 16, 8, 2, 0.6, True)),
    "analyze-singular": (Shape(40, 20, 6, 2, 0.6), Shape(16, 16, 8, 2, 0.6)),
}


def smoke_variant(w: Workload) -> Workload:
    return Workload(w.name, w.kind, SMOKE[w.name], rounds=2, why=w.why)


@dataclass
class InputFile:
    path: str
    shape: Shape
    rows: np.ndarray       # 0-based coordinates, kept for the oracle only
    cols: np.ndarray
    vals: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def dense(self) -> np.ndarray:
        a = np.zeros((self.shape.m, self.shape.n))
        a[self.rows, self.cols] = self.vals
        return a


def planted(rng: np.random.Generator, s: Shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values), 0-based, of one planted and shuffled matrix."""
    nnz = int(rng.binomial(s.m * s.n, s.density))
    flat = rng.choice(s.m * s.n, size=nnz, replace=False)
    rows, cols = np.divmod(flat, s.n)
    vals = np.abs(rng.standard_normal(nnz))
    vals[cols < s.k] *= 10.0
    rows = rng.permutation(s.m)[rows]
    cols = rng.permutation(s.n)[cols]
    if s.full_pivot:
        diag = np.setdiff1d(np.arange(s.k) * (s.n + 1), rows * s.n + cols)
        rows = np.concatenate([rows, diag // s.n])
        cols = np.concatenate([cols, diag % s.n])
        vals = np.concatenate([vals, np.abs(rng.standard_normal(diag.size))])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


def write_coordinate(path: str, m: int, n: int, rows, cols, vals) -> None:
    """Matrix Market coordinate file; repr() round-trips every float64."""
    lines = [f"{i + 1} {j + 1} {v!r}" for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist())]
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{m} {n} {len(lines)}\n")
        if lines:
            fh.write("\n".join(lines) + "\n")


def generate(w: Workload, seed: int, workload_index: int, directory: str) -> list[list[InputFile]]:
    """Write the input pool of ``w`` for ``seed`` and return it by round."""
    pool = []
    for r in range(w.rounds):
        files = []
        for slot, s in enumerate(w.round):
            rng = np.random.default_rng([seed, workload_index, r, slot])
            rows, cols, vals = planted(rng, s)
            path = os.path.join(directory, f"r{r:03d}s{slot}_{s.m}x{s.n}.mtx")
            write_coordinate(path, s.m, s.n, rows, cols, vals)
            files.append(InputFile(path, s, rows, cols, vals))
        pool.append(files)
    return pool


def digest(pool: list[list[InputFile]]) -> str:
    """sha256 over the names and bytes of every file of the pool."""
    h = hashlib.sha256()
    for f in (f for rnd in pool for f in rnd):
        h.update(os.path.basename(f.path).encode() + b"\0")
        with open(f.path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()
