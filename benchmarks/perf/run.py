#!/usr/bin/env python3
"""The repo's performance benchmark: one seeded command, four workloads.

Two ways to run it::

    # one run of one workload: what BENCHMARK.json's command is given
    python3 benchmarks/perf/run.py --workload skew_kernel --seed 3 --seconds 20 --trace 0

    # the suite: every workload in rounds, then one traced pass each
    python3 benchmarks/perf/run.py [--seed N] [--rounds 3] [--quick] [--out PATH]
    python3 benchmarks/perf/run.py --selftest

A single run prints its metrics by name and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The suite runs every (workload, round) as such a single run in a fresh
child process, round-robin, and reports each metric as the median of
its per-round values.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import HERE, ROOT, SPEC, median, quartiles, require_program  # noqa: E402

RESULTS = HERE / "results"
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m for m in SPEC["per_layer"]}
NAMES = [w["name"] for w in SPEC["workloads"]]
QUICK_SECONDS = 2


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def provenance(args) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5,
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_rev = None
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "git_rev": git_rev,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def raw_line(samples: dict) -> str:
    """The uncorrected op walls behind ``join_norm_s``, for the reader."""
    ops, refs = samples["op_s"], samples["ref_s"]
    q25, q75 = quartiles(ops)
    return (f"raw op wall: n={len(ops)} min={min(ops):.4f} p25={q25:.4f} p50={median(ops):.4f} p75={q75:.4f} s;"
            f" reference kernel mean={1e3 * sum(refs) / len(refs):.1f} ms")


def _shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_")}
    except OSError:
        return set()


def single_run(args) -> int:
    """Run one workload once; print its metrics and the result line."""
    require_program()
    import workloads
    from check import Checker

    w = workloads.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    # everything the program writes (server state dirs, spill) lands in the checkout
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    shm_before = _shm_segments()
    log = None
    try:
        from repro.data.io import write_points_text

        r, s = workloads.make_inputs(w, args.seed, args.quick)
        files = (os.path.join(tmp, "R.csv"), os.path.join(tmp, "S.csv"))
        if args.trace or w.kind == "served":
            write_points_text(r, files[0])
            write_points_text(s, files[1])
        checker = Checker(r, s, w.size(args.quick)[1])
        detail = {}
        if args.trace:
            import layers
            from spans import SpanLog

            log = SpanLog(w.name, args.round)
            values = layers.traced_pass(w, r, s, args.seed, args.quick, args.seconds, checker, tmp, files, log)
            spec = LAYER
        else:
            if w.kind == "served":
                import served

                got = served.window(w, args.seed, args.quick, args.seconds, checker, tmp, files)
            else:
                import oneshot

                got = oneshot.window(w, r, s, args.seed, args.quick, args.seconds, checker, tmp)
            walls = got["samples"]["op_s"]
            if len(walls) < 2:
                print(f"under two ops of {w.name} passed their check: {checker.notes}", file=sys.stderr)
                return 1
            values = {
                "setup_s": got["setup_s"],
                "join_norm_s": got["join_norm_s"],
                "peak_rss_mb": got["peak_rss_mb"],
            }
            spec = E2E
            detail = {
                "samples": got["samples"],
                "setup_parts": got["setup_parts"],
                "wall_over_cpu": got["wall_over_cpu"],
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        os.environ.pop("TMPDIR", None)
        tempfile.tempdir = None

    leaks = sorted(_shm_segments() - shm_before)
    if os.path.exists(tmp):
        leaks.append(tmp)
    missing = sorted(set(spec) - set(values))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": float(values[name]), "unit": spec[name]["unit"]} for name in spec}
    correct = checker.failed == 0 and not leaks

    print(f"# {w.name}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}"
          f"  pairs={checker.count}  ops={checker.attempted}  failed={checker.failed}")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    if detail:
        print("  " + raw_line(detail["samples"]))
    if detail.get("wall_over_cpu", 0) > 1.15:
        print(f"! disturbed run: wall/cpu = {detail['wall_over_cpu']:.2f} over the timed ops")
    for note in checker.notes:
        print(f"! failed: {note}")
    for leak in leaks:
        print(f"! leaked: {leak}")

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            **provenance(args), "workload": w.name, "params": w.params(args.quick),
            "trace": args.trace, "round": args.round, "true_pairs": checker.count,
            "correct": correct, "attempted": checker.attempted, "failed": checker.failed,
            "notes": checker.notes, "leaks": leaks, "metrics": metrics, **detail,
        }, indent=1))
        if log is not None:
            log.dump(str(out) + ".trace.json")
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


#: seconds the processes a run started get to end by themselves after it, before they are killed
GRACE_S = 10.0
_PR_SET_CHILD_SUBREAPER = 36


def supervised_run(argv: list) -> int:
    """Run ``single_run`` in a child; return once every process it started has ended.

    A run starts processes that outlive the code that started them for a
    moment (``multiprocessing``'s resource tracker, behind the oracle's
    pool and the ``processes`` backend, ends only after its parent has),
    and on a failure path may leave a server or pool workers behind.
    This process adopts whatever its child orphans, waits until nothing
    is left, and kills what is left after ``GRACE_S``; a signal to it
    interrupts the run first.
    """
    require_program()
    import ctypes
    import signal

    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    def leave(signum, frame):
        raise SystemExit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, leave)
    # its own session, so that everything it starts can be signalled as one group
    worker = subprocess.Popen([sys.executable, str(HERE / "run.py"), *argv, "--worker"], start_new_session=True)
    code, killed = 1, False
    try:
        code = worker.wait()
    finally:
        if worker.poll() is None:  # a signal took us out of the wait: the run stops its server, removes its files
            worker.send_signal(signal.SIGINT)
        deadline = time.monotonic() + GRACE_S
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break  # no child left, adopted ones included
            if pid == 0:
                if time.monotonic() > deadline:
                    if killed:
                        break  # outside the group and deaf to it: nothing more to do from here
                    killed, deadline = _kill_group(worker.pid), time.monotonic() + GRACE_S
                time.sleep(0.005)
    if killed and code == 0:
        print(f"perf benchmark: processes of the run were still alive {GRACE_S:.0f} s after it; killed", file=sys.stderr)
        code = 1
    return code


def _kill_group(pgid: int) -> bool:
    try:
        os.killpg(pgid, 9)
    except ProcessLookupError:
        pass
    return True


# ----------------------------------------------------------------------
# the suite: rounds of single runs in child processes
# ----------------------------------------------------------------------
def _child(args, workload: str, trace: int, round_: int, out: Path) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--round", str(round_), "--out", str(out)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} round {round_} exited {done.returncode}:\n{done.stdout}\n{done.stderr}")
    return json.loads(out.read_text())


def run_set(args, workloads: list, label: str, traced: bool) -> dict:
    """``--rounds`` rounds, round-robin over workloads; optionally a traced pass each."""
    scratch = Path(tempfile.mkdtemp(prefix=f"set-{label}-", dir=RESULTS))
    try:
        rounds = {w: [] for w in workloads}
        for k in range(args.rounds):
            for w in workloads:
                started = time.perf_counter()
                rounds[w].append(_child(args, w, 0, k, scratch / f"{w}-{k}.json"))
                print(f"[{label}] round {k} {w}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
        result = {}
        for w in workloads:
            runs = rounds[w]
            end_to_end = {}
            for name, m in E2E.items():
                per_round = [run["metrics"][name]["value"] for run in runs]
                end_to_end[name] = {"value": median(per_round), "unit": m["unit"], "per_round": per_round}
            pooled = {key: [x for run in runs for x in run["samples"][key]] for key in ("op_s", "ref_s")}
            attempted = sum(run["attempted"] for run in runs)
            failed = sum(run["failed"] for run in runs)
            result[w] = {
                "params": runs[0]["params"], "true_pairs": runs[0]["true_pairs"],
                "end_to_end": end_to_end, "samples": len(pooled["op_s"]), "raw": raw_line(pooled),
                "attempted": attempted, "failed": failed,
                "failed_share": failed / max(attempted, 1),
                "correct": all(run["correct"] for run in runs),
                "wall_over_cpu": [run["wall_over_cpu"] for run in runs],
                "notes": [n for run in runs for n in run["notes"] + run["leaks"]],
            }
        if traced:
            for w in workloads:
                started = time.perf_counter()
                out = scratch / f"{w}-trace.json"
                run = _child(args, w, 1, 0, out)
                print(f"[{label}] traced {w}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
                result[w]["per_layer"] = run["metrics"]
                result[w]["trace_correct"] = run["correct"]
                result[w]["notes"] += run["notes"] + run["leaks"]
                if args.out:
                    shutil.copy(str(out) + ".trace.json", f"{args.out}.{w}.trace.json")
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def print_set(result: dict) -> None:
    for w, row in result.items():
        print(f"\n== {w}  true_pairs={row['true_pairs']}  failed_share={row['failed_share']:.4f}"
              f" ({row['failed']}/{row['attempted']})")
        for name, m in row["end_to_end"].items():
            rounds = " ".join(f"{x:.4g}" for x in m["per_round"])
            print(f"  {name:<38} {m['value']:>12.6g} {m['unit']:<6} bound={E2E[name]['bound']}  rounds: {rounds}")
        print(f"  {row['raw']}")
        if max(row["wall_over_cpu"]) > 1.15:
            print(f"  ! disturbed: wall/cpu per round = {[round(x, 2) for x in row['wall_over_cpu']]}")
        for name, m in row.get("per_layer", {}).items():
            print(f"    {name:<36} {m['value']:>12.6g} {m['unit']}")
        for note in row["notes"]:
            print(f"  ! {note}")


def suite(args) -> int:
    workloads = [args.workload] if args.workload else NAMES
    RESULTS.mkdir(exist_ok=True)
    if not args.out:
        args.out = str(RESULTS / f"perf-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    result = run_set(args, workloads, "run", traced=args.trace != 0)
    print_set(result)
    Path(args.out).write_text(json.dumps(
        {**provenance(args), "rounds": args.rounds, "workloads": result}, indent=1))
    print(f"\nresults: {args.out}")
    clean = all(row["correct"] and row.get("trace_correct", True) for row in result.values())
    return 0 if clean else 1


def selftest(args) -> int:
    """Two sets of the same code back to back; every gap must be inside its bound."""
    workloads = [args.workload] if args.workload else NAMES
    RESULTS.mkdir(exist_ok=True)
    first = run_set(args, workloads, "A", traced=False)
    second = run_set(args, workloads, "B", traced=False)
    worst = 0
    print(f"{'workload':<16} {'metric':<14} {'set A':>12} {'set B':>12} {'gap':>8} {'bound':>6}")
    for w in workloads:
        for name, m in E2E.items():
            a, b = first[w]["end_to_end"][name]["value"], second[w]["end_to_end"][name]["value"]
            gap = abs(b - a) / a
            verdict = "" if gap <= m["bound"] else "  EXCEEDS"
            worst += bool(verdict)
            print(f"{w:<16} {name:<14} {a:>12.5g} {b:>12.5g} {gap:>8.4f} {m['bound']:>6}{verdict}")
        if first[w]["failed"] or second[w]["failed"]:
            worst += 1
            print(f"{w:<16} failed ops: {first[w]['failed']} + {second[w]['failed']}")
    return 1 if worst else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time of one run (default {SPEC['run_seconds']}; {QUICK_SECONDS} with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
                        help="single run: 1 takes the per-layer metrics instead; suite: 0 skips the traced passes")
    parser.add_argument("--rounds", type=int, default=None, help="run the suite with this many rounds (default 3)")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, 1 round, 2 s runs")
    parser.add_argument("--selftest", action="store_true", help="two sets back to back, compared against the bounds")
    parser.add_argument("--out", help="result file (suite default: benchmarks/perf/results/perf-*.json)")
    parser.add_argument("--round", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else SPEC["run_seconds"]
    if args.workload and args.rounds is None and not args.selftest:
        args.trace = args.trace or 0
        if args.worker:
            return single_run(args)
        return supervised_run(sys.argv[1:] if argv is None else list(argv))
    require_program()
    if args.rounds is None:
        args.rounds = 1 if args.quick else 3
    return selftest(args) if args.selftest else suite(args)


if __name__ == "__main__":
    sys.exit(main())
