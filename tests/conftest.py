"""Shared fixtures and the per-test alarm for the test suite."""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.agreements.graph import AgreementGraph
from repro.data.generators import gaussian_clusters
from repro.geometry.mbr import MBR
from repro.geometry.point import Side
from repro.grid.grid import Grid


# ----------------------------------------------------------------------
# per-test alarm (pytest-timeout equivalent, stdlib-only)
# ----------------------------------------------------------------------
#: Default deadline for tests marked ``cluster``: a hung daemon or a
#: deadlocked socket must fail the chaos suite in seconds, not wedge CI.
CLUSTER_TEST_TIMEOUT = 120.0

#: Default deadline for tests marked ``serving``: a wedged event loop or
#: a client blocked on a dead socket must fail fast, like the cluster
#: suite's chaos tests.
SERVING_TEST_TIMEOUT = 60.0


class DeadlineExceeded(Exception):
    """A test ran past its ``timeout`` marker (or the cluster default)."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Arm a SIGALRM deadline around each test that declares one.

    ``@pytest.mark.timeout(seconds)`` sets an explicit deadline; tests
    marked ``cluster`` get :data:`CLUSTER_TEST_TIMEOUT` and tests marked
    ``serving`` get :data:`SERVING_TEST_TIMEOUT` by default.
    SIGALRM interval timers are *not* inherited across ``fork``, so
    daemon processes spawned inside a test are unaffected.  Main-thread
    only (pytest runs tests on the main thread).
    """
    marker = item.get_closest_marker("timeout")
    seconds = None
    if marker is not None and marker.args:
        seconds = float(marker.args[0])
    elif item.get_closest_marker("cluster") is not None:
        seconds = CLUSTER_TEST_TIMEOUT
    elif item.get_closest_marker("serving") is not None:
        seconds = SERVING_TEST_TIMEOUT
    if not seconds or not hasattr(signal, "SIGALRM"):
        yield
        return

    def on_alarm(signum, frame):
        raise DeadlineExceeded(
            f"{item.nodeid} exceeded its {seconds:g}s deadline"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def grid2x2() -> Grid:
    """A 2x2 grid with eps=1 and cell side 2.5 (one quartet)."""
    return Grid(MBR(0, 0, 5, 5), eps=1.0)


@pytest.fixture
def grid3x2() -> Grid:
    """A 3x2 grid with eps=1 (two quartets sharing a side pair)."""
    return Grid(MBR(0, 0, 7.5, 5), eps=1.0)


@pytest.fixture
def grid4x4() -> Grid:
    """A 4x4 grid with eps=1 (nine quartets)."""
    return Grid(MBR(0, 0, 10, 10), eps=1.0)


def make_graph(grid: Grid, types) -> AgreementGraph:
    """An agreement graph from a type assignment.

    ``types`` is either a single :class:`Side` (uniform) or a sequence of
    sides matching ``grid.adjacent_pairs()`` order.
    """
    pairs = [frozenset(p[:2]) for p in grid.adjacent_pairs()]
    if isinstance(types, Side):
        types = [types] * len(pairs)
    return AgreementGraph(grid, dict(zip(pairs, types)))


def all_type_combos(grid: Grid):
    """Every agreement-type assignment for a (small) grid."""
    n = sum(1 for _ in grid.adjacent_pairs())
    return itertools.product([Side.R, Side.S], repeat=n)


def cell_layout(cells):
    """One side's shuffle layout for points that each sit in one cell.

    ``cells[i]`` is point ``i``'s cell id; returns the ``(cells, bounds,
    point_idx)`` triple :func:`repro.engine.executor.build_execution_plan`
    takes, exactly as ``ShuffleStage`` derives it from a stable cell sort.
    """
    cells = np.asarray(cells, dtype=np.int64)
    order = np.argsort(cells, kind="stable")
    uniq, starts = np.unique(cells[order], return_index=True)
    return uniq, np.append(starts, len(cells)), order


@pytest.fixture
def small_clusters():
    """A pair of small clustered point sets for end-to-end tests."""
    r = gaussian_clusters(1500, seed=11, name="R")
    s = gaussian_clusters(1500, seed=22, name="S")
    return r, s


SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


@pytest.fixture
def fresh_python():
    """``run(code, cwd=None) -> stdout``: ``code`` in a fresh interpreter.

    The checkout's ``src/`` is on the child's path; a non-zero exit fails
    the test with the child's stderr.  For what a process imports and how
    long that takes, which the test process itself cannot show.
    """

    def run(code: str, cwd: str | None = None) -> str:
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SRC_ROOT}, cwd=cwd,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        return done.stdout

    return run
