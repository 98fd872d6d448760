"""Smoke test of the perf benchmark: ``--quick`` runs clean and fills the schema.

Outside ``testpaths`` on purpose (tier-1 time is unchanged); run it with
``PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_smoke.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]


def test_quick_suite_fills_the_schema(tmp_path):
    out = tmp_path / "quick.json"
    done = subprocess.run(RUN + ["--quick", "--out", str(out)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    for key in ("seed", "rounds", "cpu_count", "git_rev", "python", "numpy", "scipy"):
        assert key in result
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, row in result["workloads"].items():
        assert row["failed_share"] == 0 and row["correct"] and row["trace_correct"], (name, row["notes"])
        assert row["params"]["n_r"] > 0
        for kind, got in (("end_to_end", row["end_to_end"]), ("per_layer", row["per_layer"])):
            assert set(got) == {m["name"] for m in SPEC[kind]}, (name, kind)
            for m in SPEC[kind]:
                assert got[m["name"]]["unit"] == m["unit"]
                assert isinstance(got[m["name"]]["value"], float)
        for m in SPEC["end_to_end"]:
            assert row["end_to_end"][m["name"]]["value"] > 0
        assert row["samples"] >= 2
        # every printed metric is there by name
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert m["name"] in done.stdout
    assert (tmp_path / "quick.json.skew_kernel.trace.json").is_file()


def test_single_run_prints_the_result_line():
    done = subprocess.run(
        RUN + ["--workload", "skew_kernel", "--seed", "2", "--seconds", "1", "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert not list((HERE / "results").glob("tmp-*")), "a run left its temp dir behind"
