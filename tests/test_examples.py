"""Smoke tests: the example scripts must run end to end.

Each example is executed in a subprocess (fresh interpreter, like a
user would run it); the faster ones run here, the heavier ones are
covered by their own library-level tests.
"""

import subprocess
import sys

import pytest

FAST_EXAMPLES = [
    "examples/quickstart.py",
    "examples/spark_style_pipeline.py",
    "examples/agreement_graph_tour.py",
    "scripts/validate_quartet.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, script],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), script


def test_quickstart_reports_gain():
    proc = subprocess.run(
        [sys.executable, "examples/quickstart.py"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "fewer replicated objects" in proc.stdout


def test_pipeline_matches_oracle_line():
    proc = subprocess.run(
        [sys.executable, "examples/spark_style_pipeline.py"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "matches centralized KD-tree oracle: True" in proc.stdout
