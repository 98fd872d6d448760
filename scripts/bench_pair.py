#!/usr/bin/env python3
"""Paired parent/change runs of the repo's benchmark, one verdict a metric.

    python3 scripts/bench_pair.py --workload uniform_driver --metric join_norm_s
    python3 scripts/bench_pair.py --workload auto_plan --metric planner.plan_join_s \\
        --pairs 10 --parent HEAD~1 --seed 40
    python3 scripts/bench_pair.py --workload served --end-to-end --pairs 4

The *change* is this checkout as it stands (committed or not); the
*parent* is ``--parent`` (default ``HEAD``), exported with ``git archive``
into a temporary directory that is removed afterwards.  Each pair runs
``BENCHMARK.json``'s command once on either side with the same fresh seed,
alternating which side goes first, for the run length the benchmark fixes.
``--metric`` may be given more than once and ``--end-to-end`` names every
end-to-end metric: all of them are read off the *same* runs, so a
no-regression table costs one set of pairs a workload, not one a cell.
Printed for each metric: every pair, each side's median and quartiles,
pairs won, and whether the ``choosing-metrics`` section-8 rule holds --
the change wins at least nine tenths of the pairs (ties count for
neither side) and the medians differ by more than the parent's
interquartile range.

Reads ``BENCHMARK.json`` and calls ``benchmarks/perf/run.py``; edits neither.
Exit status, for the first metric named (the claimed one): 0 if the rule
holds, 1 if it does not; 2 if a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export_revision(rev: str, dest: Path) -> None:
    """Unpack ``rev``'s committed files into ``dest``."""
    archive = dest.with_suffix(".tar")
    subprocess.run(
        ["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=ROOT, check=True
    )
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds, trace: int, names: list[str]):
    """One benchmark run in ``tree``; the named metrics' values, or ``None`` on failure."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {name: float(result["metrics"][name]["value"]) for name in names}
    except (IndexError, KeyError, TypeError, ValueError):
        print(f"  run in {tree} did not produce all of {names} (exit {proc.returncode}):\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        print(f"  run in {tree}: exit {proc.returncode}, correct={result['correct']}, "
              f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        return None
    return values


def summary(values: list[float]) -> list[float]:
    """``[q25, median, q75]``."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(name: str, meta: dict, parent_vals: list[float], change_vals: list[float]) -> bool:
    """Print one metric's summary and section-8 verdict; whether the gain is shown."""
    lower_is_better = meta["better"] == "lower"

    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    pairs = len(parent_vals)
    won = sum(better(c, p) for p, c in zip(parent_vals, change_vals))
    lost = sum(better(p, c) for p, c in zip(parent_vals, change_vals))
    p25, p50, p75 = summary(parent_vals)
    c25, c50, c75 = summary(change_vals)
    iqr = p75 - p25
    print(f"{name} [{meta['unit']}, {meta['better']} is better]")
    print(f"parent  median {p50:.6g}  quartiles {p25:.6g} .. {p75:.6g}  (IQR {iqr:.6g})")
    print(f"change  median {c50:.6g}  quartiles {c25:.6g} .. {c75:.6g}")
    print(f"change/parent medians: {c50 / p50:.3f}" if p50 else "parent median is 0")
    print(f"pairs: change won {won}, lost {lost}, tied {pairs - won - lost} of {pairs}")
    enough_wins = won >= 0.9 * pairs
    apart = better(c50, p50) and abs(c50 - p50) > iqr
    holds = enough_wins and apart
    print(f"section-8 rule: wins >= 9/10 of pairs: {'yes' if enough_wins else 'no'}; "
          f"medians apart by more than the parent's IQR: {'yes' if apart else 'no'} "
          f"=> gain {'SHOWN' if holds else 'NOT shown'}")
    return holds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m, 0) for m in spec["end_to_end"]}
    metrics.update({m["name"]: (m, 1) for m in spec["per_layer"]})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--metric", action="append", default=[], choices=sorted(metrics),
                        help="may be repeated; the first one named sets the exit status")
    parser.add_argument("--end-to-end", action="store_true",
                        help="also report every end-to-end metric of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    names = list(args.metric)
    if args.end_to_end:
        names += [m["name"] for m in spec["end_to_end"]]
    names = list(dict.fromkeys(names))
    if not names:
        parser.error("name at least one --metric, or --end-to-end")
    # a per-layer metric only exists in the traced pass
    trace = max(metrics[name][1] for name in names)

    parent_rows, change_rows = [], []
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        parent_tree = Path(tmp) / "parent"
        export_revision(args.parent, parent_tree)
        sides = {"parent": parent_tree, "change": ROOT}
        print(f"{args.workload} / {', '.join(names)}: "
              f"{args.pairs} pairs, parent = {args.parent}, {spec['run_seconds']} s a run")
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                got[side] = run_once(sides[side], spec["command"], args.workload,
                                     args.seed + i, spec["run_seconds"], trace, names)
                if got[side] is None:
                    return 2
            parent_rows.append(got["parent"])
            change_rows.append(got["change"])
            cells = "  ".join(
                f"{name} {got['parent'][name]:.6g} -> {got['change'][name]:.6g}" for name in names
            )
            print(f"  pair {i + 1:>2} seed {args.seed + i:<4} first={order[0]:<6} {cells}", flush=True)

    shown = [
        verdict(name, metrics[name][0],
                [row[name] for row in parent_rows], [row[name] for row in change_rows])
        for name in names
    ]
    return 0 if shown[0] else 1


if __name__ == "__main__":
    sys.exit(main())
