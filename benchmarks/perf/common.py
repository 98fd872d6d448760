"""Paths, statistics and clocks shared by the perf benchmark's modules."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def require_program() -> None:
    """Put the checkout's ``src`` on ``sys.path``; exit 2 if it is absent.

    The benchmark measures the ``repro`` package of the checkout it lives
    in, never an installed copy, so a directory without ``src/repro`` has
    nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf benchmark: no program to measure at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(tmp: str) -> dict:
    """Environment of a program subprocess: checkout sources, in-checkout temp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = tmp
    return env


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    t = os.times()  # 10 ms ticks: fine for children, too coarse for one op of this process
    return time.process_time() + t.children_user + t.children_system


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """(q25, q75) of two or more values, as ``statistics.quantiles(n=4)`` gives them."""
    q = statistics.quantiles(values, n=4)
    return (float(q[0]), float(q[2]))


def parallelism() -> int:
    """Client connections and OS workers the benchmark may use: min(2, nproc)."""
    return min(2, os.cpu_count() or 1)


def import_seconds(tmp: str, statement: str, repeats: int) -> list[float]:
    """Wall of an import statement in fresh interpreters, measured inside them."""
    code = f"import time; t = time.perf_counter(); {statement}; print(time.perf_counter() - t)"
    out = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], env=child_env(tmp), capture_output=True,
            text=True, timeout=120, check=True,
        )
        out.append(float(done.stdout.strip()))
    return out


_REF = None
#: mean wall of ``reference_seconds`` on the 2-core host the benchmark was
#: sized on, while that host was quiet
REF_NOMINAL_S = 0.040


def reference_seconds() -> float:
    """Wall of a fixed kernel that never changes with the program: the host's speed right now.

    Half interpreter-bound, half numpy sort/gather/bincount, like the join's driver.
    """
    global _REF
    import numpy as np

    if _REF is None:
        rng = np.random.default_rng(12345)
        _REF = (rng.random(100_000), rng.integers(0, 4096, 200_000))
    xs, cells = _REF
    started = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i & 7
    order = np.argsort(xs, kind="stable")
    np.cumsum(xs[order])
    np.bincount(cells, minlength=4096)
    cells[np.argsort(cells, kind="stable")]
    return time.perf_counter() - started


def quiet_host_factor(fn, repeats: int = 2) -> tuple:
    """(``fn()``, what to multiply its wall by to read it as on a quiet host).

    The reference kernel runs ``repeats`` times right before and right
    after ``fn``; the factor is its nominal wall over the mean of those.
    """
    refs = [reference_seconds() for _ in range(repeats)]
    result = fn()
    refs += [reference_seconds() for _ in range(repeats)]
    return result, REF_NOMINAL_S * len(refs) / sum(refs)


def normalised_seconds(walls, refs) -> float:
    """The fastest op of a window, corrected for the host's speed in that window.

    Interference on a shared host only ever adds time, so the fastest op
    is the one closest to the program's own cost; what interference it
    still contains is divided out by the reference kernel's mean wall
    over the same window, relative to its nominal wall.
    """
    return min(walls) * REF_NOMINAL_S / (sum(refs) / len(refs))


def collect(one, seconds: float, floor: int, checker) -> list:
    """Results of ``one()`` until ``seconds`` have passed and ``floor`` of them exist.

    ``one`` returns ``None`` for an op that failed its check (the checker
    has counted it); when nothing passes any more the run is abandoned.
    """
    out = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(out) < floor:
        got = one()
        if got is not None:
            out.append(got)
        elif checker.failed > 20:
            raise RuntimeError(f"ops keep failing their check: {checker.notes[-3:]}")
    return out


def timed_window(one_op, seconds: float, checker) -> tuple[list, list]:
    """(op walls, reference walls) of ``seconds`` of ops, at least two.

    ``one_op`` returns the op's wall or ``None``.  The reference kernel
    runs after every op, so both sample the same stretch of time.
    """
    def op_then_reference():
        wall = one_op()
        return None if wall is None else (wall, reference_seconds())

    walls, refs = zip(*collect(op_then_reference, seconds, 2, checker))
    return list(walls), list(refs)
