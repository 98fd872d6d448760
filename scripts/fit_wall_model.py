#!/usr/bin/env python3
"""Fit the planner's wall-clock constants from measured runs; or measure the runs.

    python3 scripts/fit_wall_model.py                 # fit the table, report, change nothing
    python3 scripts/fit_wall_model.py --check         # the checked-in constants == this fit
    python3 scripts/fit_wall_model.py --write         # refit and rewrite the constants
    python3 scripts/fit_wall_model.py --collect       # re-measure the table (~1 h, ~1 GB)
    python3 scripts/fit_wall_model.py --history runs.jsonl   # fit recorded planned runs

``repro.core.wall_model.WALL_COEFFICIENTS`` -- the seconds per point,
record, candidate, cell and task that ``plan_join`` prices a ``serial``
plan with -- are produced here and nowhere else: one non-negative least
squares fit a phase (``numpy.linalg.lstsq`` on rows scaled by their
measured seconds, so a 20k join counts as much as a 1M one; a term whose
coefficient comes out negative is dropped and the phase refitted), rounded
to six significant digits.  The fit is a pure function of the table;
``--check`` compares to a relative 1e-5, the room a different BLAS under
``lstsq`` may take in the sixth digit.

The table (``scripts/wall_calibration.csv``) is written by ``--collect``
from the repo's own generators: uniform, ``gaussian_clusters`` (tight and
wide) and ``real_like`` x ``gaussian_clusters``, 20k to 1M points a side
with ``n * eps^2`` kept (and eps x 0.7 and, up to 100k, x 1.4 beside it, so
that candidates and results move against records), every method x factor
2-4 at the smallest and the largest simulated worker count on ``serial`` /
``grid_hash``; ``eps_grid`` up to 100k and the slow kernels up to 40k and
at the smallest worker count only -- their join phase is fitted with an
intercept and ``grid_hash``'s per-task cost, not one of their own.
Each row holds the *planner's* quantities for that candidate
(``CostPrediction.quantities``: the fit absorbs the sample's bias, which is
what the planner will see again) beside the measured stage walls of its
best join of five round-robin rounds (three above 100k) after a warm-up.
The generator seeds avoid the layouts ``scripts/planner_regret.py`` scores
(``auto_plan``'s 21/22, the 1M shapes' 11/12), so its regret is always out
of sample.  ``--history`` builds the same rows from the ``planner``
sections a planned ``repro join --history`` / ``repro serve`` run records.

The report printed with every fit: coefficients, and the median absolute
relative error per phase on the held-out fifth of the rows (every fifth
row, fitted on the other four).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core import wall_model  # noqa: E402
from repro.core.wall_model import WALL_STAGES, wall_group, wall_seconds, wall_terms  # noqa: E402

TABLE = ROOT / "scripts" / "wall_calibration.csv"
QUANTITIES = ("n_r", "n_s", "cells", "replicated_r", "replicated_s",
              "joinable_r", "joinable_s", "joinable_cells", "candidates", "results")
KEYS = ("shape", "n", "eps", "seed", "method", "factor", "kernel", "workers")
COLUMNS = KEYS + QUANTITIES + tuple(WALL_STAGES.values()) + ("wall",)

#: shape -> (R generator, its kwargs, S generator, its kwargs, eps at 1M a side)
_WIDE = {"std_range": (0.03, 0.1)}
SHAPES = {
    "uniform": ("uniform", {}, "uniform", {}, 0.00284),
    "gaussian": ("gaussian_clusters", {}, "gaussian_clusters", {}, 0.002),
    "gaussian_wide": ("gaussian_clusters", _WIDE, "gaussian_clusters", _WIDE, 0.0024),
    "real_gauss": ("real_like", {}, "gaussian_clusters", {}, 0.002),
}
SIZES = (20_000, 40_000, 100_000, 300_000, 1_000_000)
#: eps multipliers (sizes up to ``EPS_SCALES_MAX_N``): selectivity moves
#: candidates and results against records, which sizes alone keep in step
EPS_SCALES = (1.0, 0.7, 1.4)
EPS_SCALES_MAX_N = 100_000  # above, the first two only: 1.4 is 2x the result pairs
EPS_GRID_MAX_N = 100_000
SLOW_KERNEL_MAX_N = 40_000
#: timed joins a candidate (best wall kept): more where a join is milliseconds
REPEATS_SMALL, REPEATS_LARGE = 5, 3  # n <= EPS_SCALES_MAX_N, above


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
def read_table(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
    text = ("shape", "method", "kernel")
    ints = ("n", "seed", "workers", "n_r", "n_s", "cells", "joinable_cells")
    return [
        {
            name: value if name in text else int(value) if name in ints else float(value)
            for name, value in row.items()
        }
        for row in rows
    ]


def history_rows(path: str) -> list[dict]:
    """Rows from the ``planner`` sections of a RunHistory's planned runs."""
    from repro.obs import RunHistory

    rows = []
    for report in RunHistory(path).reports():
        quantities = (report.get("planner") or {}).get("quantities")
        if not quantities:
            continue
        stages = {row["stage"]: row["wall_seconds"] for row in report.get("stages", ())}
        if all(stage in stages for stage in WALL_STAGES.values()):
            rows.append({**quantities, **{s: stages[s] for s in WALL_STAGES.values()}})
    return rows


def measure_candidates(writer, shape: str, r, s, eps: float, seed: int) -> None:
    """Plan ``(r, s, eps)``; write one row a measured candidate.

    ``seed`` made the inputs and is only recorded: the plan and the joins
    sample with seed 0, because a generator and ``bernoulli_sample`` given
    the same seed draw the same stream (a uniform set's "sample" is then
    the strip ``x < rate``).
    """
    from planner_regret import measure

    from repro.joins.distance_join import JoinConfig
    from repro.planner.planner import DEFAULT_WORKER_CANDIDATES, plan_join

    n = len(r)
    repeats = REPEATS_SMALL if n <= EPS_SCALES_MAX_N else REPEATS_LARGE
    fewest, most = min(DEFAULT_WORKER_CANDIDATES), max(DEFAULT_WORKER_CANDIDATES)
    candidates = {}
    for c in plan_join(r, s, eps).candidates:
        if c.method == "eps_grid" and n > EPS_GRID_MAX_N:
            continue
        if c.kernel == "grid_hash":
            if c.workers not in (fewest, most):
                continue
        elif n > SLOW_KERNEL_MAX_N or c.workers != fewest:
            continue
        candidates[c.key()] = c
    configs = {
        key: JoinConfig(
            eps=eps, method=c.method, resolution_factor=c.resolution_factor,
            local_kernel=c.kernel, num_workers=c.workers,
        )
        for key, c in candidates.items()
    }
    for key, (wall, metrics) in measure(r, s, configs, repeats).items():
        c = candidates[key]
        # microseconds of a measured wall and ten digits of a sampled
        # estimate are all the information there is
        row = {"shape": shape, "n": n, "eps": repr(eps), "seed": seed,
               "factor": c.resolution_factor, "wall": f"{wall:.6g}"}
        q = c.prediction.quantities()
        row.update({k: q[k] for k in ("method", "kernel", "workers")})
        row.update({k: f"{q[k]:.10g}" for k in QUANTITIES})
        row.update({st: f"{metrics.stage_times[st]:.6g}" for st in WALL_STAGES.values()})
        writer.writerow(row)


def collect(path: Path) -> None:
    """Measure the calibration grid and write the table."""
    from probe_adaptive_vs_universal import git_rev

    from repro.data import generators

    with open(path, "w", newline="") as f:
        f.write(f"# scripts/fit_wall_model.py --collect; serial backend, 1 warm-up, best of "
                f"{REPEATS_SMALL} (n <= {EPS_SCALES_MAX_N}) or {REPEATS_LARGE}; cpu_count={os.cpu_count()} git_rev={git_rev()}\n")
        writer = csv.DictWriter(f, COLUMNS)
        writer.writeheader()
        for i, (shape, (r_gen, r_kw, s_gen, s_kw, eps_1m)) in enumerate(SHAPES.items()):
            for j, n in enumerate(SIZES):
                seed = 100 + 10 * i + 2 * j
                r = getattr(generators, r_gen)(n, seed=seed, name="R", **r_kw)
                s = getattr(generators, s_gen)(n, seed=seed + 1, name="S", **s_kw)
                for scale in EPS_SCALES if n <= EPS_SCALES_MAX_N else EPS_SCALES[:2]:
                    eps = eps_1m * (1_000_000 / n) ** 0.5 * scale
                    measure_candidates(writer, shape, r, s, eps, seed)
                    f.flush()
                print(f"{shape} n={n}: done at {time.strftime('%H:%M:%S')}", flush=True)


# ----------------------------------------------------------------------
# the fit
# ----------------------------------------------------------------------
def _round(value: float) -> float:
    return float(f"{value:.6g}")


def fit_group(
    rows: list[dict], phase: str, given: dict[str, float] | None = None
) -> dict[str, float]:
    """Non-negative relative least squares of one phase's stage seconds.

    ``given`` coefficients are taken as they are and the rest fitted to
    what they leave of the measured seconds.
    """
    given = given or {}
    terms = [wall_terms(row)[phase] for row in rows]
    names = [name for name in terms[0] if name not in given]
    y = np.array([row[WALL_STAGES[phase]] for row in rows], dtype=np.float64)
    full = np.array([[t[name] for name in names] for t in terms])
    full = full / y[:, None]  # relative residuals: every row counts alike
    target = 1.0 - np.array([sum(c * t[name] for name, c in given.items()) for t in terms]) / y
    while True:
        solution = np.linalg.lstsq(full, target, rcond=None)[0]
        if solution.min() >= 0.0:
            fitted = {**given, **{name: _round(c) for name, c in zip(names, solution)}}
            return {name: fitted[name] for name in terms[0] if name in fitted}
        drop = int(solution.argmin())
        names.pop(drop)
        full = np.delete(full, drop, axis=1)


def fit(rows: list[dict]) -> dict[str, dict[str, float]]:
    """Coefficient groups from table rows; a kernel without rows gets none."""
    by_kernel: dict[str, list[dict]] = {}
    for row in rows:
        by_kernel.setdefault(row["kernel"], []).append(row)
    # the other phases do not depend on the kernel: fit them on the rows of
    # one, or the small sizes (the only ones the slow kernels run) count 2.5x
    rows_of_one = by_kernel.get("grid_hash", rows)
    out = {
        phase: fit_group(rows_of_one, phase) for phase in WALL_STAGES if phase != "join"
    }
    # the slow kernels ran at one worker count, where a per-task cost and an
    # intercept are one column: the loop over tasks is the same code whatever
    # the kernel, so they take grid_hash's (measured at both worker ends)
    task = {}
    if "grid_hash" in by_kernel:
        group = out[wall_group("join", "grid_hash")] = fit_group(rows_of_one, "join")
        task = {"task": group["task"]} if "task" in group else {}
    for kernel in sorted(by_kernel.keys() - {"grid_hash"}):
        out[wall_group("join", kernel)] = fit_group(by_kernel[kernel], "join", task)
    return out


def same_coefficients(a: dict, b: dict, rel_tol: float = 1e-5) -> bool:
    """Same groups and terms, every value within ``rel_tol``.

    The fit is rounded to six digits, but ``lstsq`` may differ in the last
    of them from one BLAS build to the next.
    """
    return a.keys() == b.keys() and all(
        a[g].keys() == b[g].keys()
        and all(math.isclose(a[g][n], b[g][n], rel_tol=rel_tol) for n in a[g])
        for g in a
    )


def heldout_errors(rows: list[dict]) -> dict[str, float]:
    """Median |relative error| per phase on every fifth row, fitted on the rest."""
    train = [row for i, row in enumerate(rows) if i % 5]
    test = [row for i, row in enumerate(rows) if i % 5 == 0]
    coefficients = fit(train)
    errors: dict[str, list[float]] = {phase: [] for phase in (*WALL_STAGES, "total")}
    for row in test:
        if wall_group("join", row["kernel"]) not in coefficients:
            continue
        predicted = wall_seconds(row, coefficients)
        measured = {phase: row[stage] for phase, stage in WALL_STAGES.items()}
        predicted["total"], measured["total"] = sum(predicted.values()), sum(measured.values())
        for phase in errors:
            errors[phase].append(abs(predicted[phase] - measured[phase]) / measured[phase])
    return {phase: float(np.median(errs)) for phase, errs in errors.items() if errs}


def render(coefficients: dict[str, dict[str, float]]) -> str:
    lines = ["WALL_COEFFICIENTS: dict[str, dict[str, float]] = {"]
    for group, coef in coefficients.items():
        lines.append(f"    {group!r}: {{")
        lines.extend(f"        {name!r}: {value!r}," for name, value in coef.items())
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--table", type=Path, default=TABLE)
    parser.add_argument("--history", help="fit a RunHistory file's planned runs instead")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--collect", action="store_true", help="measure and write --table")
    mode.add_argument("--check", action="store_true",
                      help="exit 1 unless WALL_COEFFICIENTS is the fit (relative 1e-5)")
    mode.add_argument("--write", action="store_true",
                      help="rewrite WALL_COEFFICIENTS in repro/core/wall_model.py")
    args = parser.parse_args()

    if args.collect:
        collect(args.table)
        return 0
    rows = history_rows(args.history) if args.history else read_table(args.table)
    coefficients = fit(rows)
    if args.check:
        same = same_coefficients(coefficients, wall_model.WALL_COEFFICIENTS)
        print("WALL_COEFFICIENTS " + ("reproduced" if same else "DIFFER from the fit")
              + f" ({len(rows)} rows)")
        return 0 if same else 1
    print(render(coefficients))
    print(f"# {len(rows)} rows; held-out fifth, median |relative error|: "
          + json.dumps({k: round(v, 4) for k, v in heldout_errors(rows).items()}))
    if args.write:
        path = Path(wall_model.__file__)
        block = re.compile(r"(?s)(?<=# BEGIN FITTED \(scripts/fit_wall_model\.py --write\)\n).*?(?=# END FITTED)")
        path.write_text(block.sub(lambda _: render(coefficients) + "\n", path.read_text()))
        print(f"# wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
