"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.data.io import read_points_text


def assert_config_rejects(capsys, argv, message):
    """A config's check refused a flag: exit 2 and its one stderr line
    (argparse would raise ``SystemExit`` and print its usage)."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()] and message in err, err


class TestJoin:
    def test_join_generated(self, capsys):
        rc = main(["join", "--r", "S1", "--s", "S2", "--base-n", "1500",
                   "--eps", "0.02", "--method", "uni_r"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "uni_r" in out
        assert "results=" in out

    def test_join_show_pairs(self, capsys):
        rc = main(["join", "--base-n", "1500", "--eps", "0.02",
                   "--show-pairs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("(") >= 2

    def test_join_counts_unless_pairs_are_shown(self, capsys, monkeypatch):
        """Without ``--show-pairs`` the distance join only counts, and
        prints the ``results=`` line a collecting run prints."""
        import repro.cli as cli

        collected = []

        def spy(r, s, config):
            collected.append(config.collect_pairs)
            return join(r, s, config)

        join = cli.distance_join
        monkeypatch.setattr(cli, "distance_join", spy)
        lines = []
        for extra in ([], ["--show-pairs", "1"]):
            assert main(["join", "--base-n", "1500", "--eps", "0.02", *extra]) == 0
            out = capsys.readouterr().out
            lines.append([line for line in out.splitlines() if "results=" in line])
        assert collected == [False, True]
        assert len(lines[0]) == 1 and lines[0] == lines[1]

    @pytest.mark.parametrize("fmt", ["jsonl", "chrome"])
    def test_join_writes_its_trace(self, tmp_path, capsys, fmt):
        path = tmp_path / "trace"
        rc = main(["join", "--base-n", "1500", "--eps", "0.02",
                   "--trace", str(path), "--trace-format", fmt])
        assert rc == 0
        assert f"trace ({fmt}," in capsys.readouterr().out
        if fmt == "jsonl":
            records = [json.loads(line) for line in path.read_text().splitlines()]
            assert records[0]["type"] == "run"
            assert {r["name"] for r in records[1:]} >= {"job", "local_join"}
        else:
            events = json.loads(path.read_text())["traceEvents"]
            assert any(e["name"] == "job" for e in events)

    def test_join_from_files(self, tmp_path, capsys):
        for name in ("S1", "S2"):
            main(["generate", name, str(tmp_path / f"{name}.txt"),
                  "--base-n", "800"])
        capsys.readouterr()
        rc = main(["join", "--r", str(tmp_path / "S1.txt"),
                   "--s", str(tmp_path / "S2.txt"), "--eps", "0.02"])
        assert rc == 0
        assert "lpib" in capsys.readouterr().out

    def test_bad_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["join", "--method", "bogus"])

    def test_no_fused_flag_is_gone(self, capsys):
        """There is one execution path, so no switch selects another."""
        with pytest.raises(SystemExit) as exit_info:
            main(["join", "--no-fused"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-fused" in capsys.readouterr().err

    def test_join_with_faults_reports_recovery(self, capsys):
        rc = main(["join", "--base-n", "1500", "--eps", "0.02",
                   "--method", "uni_r", "--backend", "threads",
                   "--faults", "kill:p=1:times=1", "--max-retries", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "attempts=" in out
        assert "retries=" in out
        assert "speculative_wins=" in out

    def test_join_with_spill_reports_block_store(self, tmp_path, capsys):
        rc = main(["join", "--base-n", "1500", "--eps", "0.02",
                   "--workers", "3", "--spill", "disk",
                   "--spill-dir", str(tmp_path / "spill"),
                   "--checkpoint-cells",
                   "--faults", "fetch:p=1:times=1,kill:p=1:times=1",
                   "--max-retries", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "block store [disk]:" in out
        assert "salvaged_cells=" in out
        assert not (tmp_path / "spill").exists()  # cleaned up on return


class TestJoinVariants:
    """`--join` selects the driver; every variant shares the execution
    surface of the staged pipeline (backend, faults, spill)."""

    def test_object_join_runs(self, capsys):
        rc = main(["join", "--join", "object", "--base-n", "150",
                   "--eps", "0.01", "--method", "lpib", "--workers", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "join=object" in out and "objects" in out
        assert "results=" in out

    def test_intersection_join_runs(self, capsys):
        rc = main(["join", "--join", "intersection", "--base-n", "150",
                   "--method", "uni_r", "--workers", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "join=intersection" in out
        assert "plane_sweep" in out  # object joins sweep anchors

    def test_generalized_join_runs(self, capsys):
        rc = main(["join", "--join", "generalized", "--base-n", "400",
                   "--eps", "0.02", "--method", "clone",
                   "--partition", "quadtree", "--workers", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "join=generalized" in out
        assert "results=" in out

    def test_object_join_with_backend_faults_and_spill(self, tmp_path, capsys):
        rc = main(["join", "--join", "object", "--base-n", "150",
                   "--eps", "0.01", "--workers", "3",
                   "--backend", "threads", "--faults", "kill:p=1:times=1",
                   "--max-retries", "3", "--spill", "disk",
                   "--spill-dir", str(tmp_path / "spill"),
                   "--checkpoint-cells"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "local join [threads/plane_sweep]:" in out
        assert "attempts=" in out
        assert "block store [disk]:" in out
        assert not (tmp_path / "spill").exists()  # cleaned up on return

    def test_generalized_join_with_faults(self, capsys):
        rc = main(["join", "--join", "generalized", "--base-n", "400",
                   "--eps", "0.02", "--workers", "3", "--backend", "threads",
                   "--faults", "fetch:p=1:times=1", "--max-retries", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault tolerance:" in out

    def test_object_rejects_generalized_only_method(self, capsys):
        rc = main(["join", "--join", "object", "--method", "clone"])
        assert rc == 2
        assert "supports methods" in capsys.readouterr().err

    def test_object_rejects_non_sweep_kernel(self, capsys):
        rc = main(["join", "--join", "object", "--kernel", "grid_hash"])
        assert rc == 2
        assert "plane_sweep" in capsys.readouterr().err

    def test_unknown_variant_rejected(self):
        with pytest.raises(SystemExit):
            main(["join", "--join", "bogus"])

    def test_bad_partition_rejected(self):
        with pytest.raises(SystemExit):
            main(["join", "--join", "generalized", "--partition", "rtree"])


#: JoinConfig's rule for the resolution factor, as it prints it
FACTOR_RULE = (
    "resolution_factor must be finite and >= 1 (the resolution factor "
    "must be >= 1: a cell is at least eps wide), "
)


class TestJoinValidation:
    def test_zero_workers_rejected(self, capsys):
        assert_config_rejects(capsys, ["join", "--workers", "0"],
                              "num_workers must be a whole number >= 1, got 0")

    def test_negative_workers_rejected_on_explain(self, capsys):
        assert_config_rejects(capsys, ["explain", "--workers", "-3"],
                              "num_workers must be a whole number >= 1, got -3")

    def test_zero_task_timeout_rejected(self, capsys):
        assert_config_rejects(capsys, ["join", "--task-timeout", "0"],
                              "task_timeout must be finite and > 0, got 0.0")

    def test_negative_max_retries_rejected(self, capsys):
        assert_config_rejects(capsys, ["join", "--max-retries", "-1"],
                              "max_retries must be a whole number >= 0, got -1")

    def test_bad_fault_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["join", "--faults", "explode:p=1"])
        assert "unknown fault kind" in capsys.readouterr().err

    def test_bad_spill_tier_rejected(self):
        with pytest.raises(SystemExit):
            main(["join", "--spill", "tape"])

    @pytest.mark.parametrize("command, flag, value, message", [
        ("join", "--eps", "-1", "must be > 0, got -1.0"),
        ("join", "--eps", "nan", "must be finite, got nan"),
        ("explain", "--eps", "inf", "must be finite, got inf"),
        ("query", "--eps", "nan", "must be finite, got nan"),
        ("join", "--resolution-factor", "0.5", FACTOR_RULE + "got 0.5"),
        ("join", "--resolution-factor", "nan", FACTOR_RULE + "got nan"),
        ("explain", "--resolution-factor", "0.5", FACTOR_RULE + "got 0.5"),
    ], ids=["join-eps-negative", "join-eps-nan", "explain-eps-inf",
            "query-eps-nan", "join-factor-half", "join-factor-nan",
            "explain-factor-half"])
    def test_bad_eps_and_resolution_factor_rejected_at_the_edge(
        self, capsys, command, flag, value, message
    ):
        """Usage errors (exit 2, one error line), not a traceback from
        the driver or the grid.  ``--eps`` is the command line's own
        rule (argparse's line); the resolution factor is JoinConfig's."""
        argv = [command, "--base-n", "500", flag, value]
        if flag == "--resolution-factor":
            assert_config_rejects(capsys, argv, message)
            return
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag, value, message", [
        ("join", "--base-n", "-5", "must be >= 1, got -5"),
        ("join", "--base-n", "0", "must be >= 1, got 0"),
        ("join", "--show-pairs", "-2", "must be >= 0, got -2"),
        ("generate", "--base-n", "0", "must be >= 1, got 0"),
        ("experiment", "--base-n", "-1", "must be >= 1, got -1"),
        ("report", "--base-n", "0", "must be >= 1, got 0"),
        ("query", "--base-n", "0", "must be >= 1, got 0"),
    ], ids=["join-base-n-negative", "join-base-n-zero",
            "join-show-pairs-negative", "generate-base-n-zero",
            "experiment-base-n-negative", "report-base-n-zero",
            "query-base-n-zero"])
    def test_sizes_are_bounded_on_every_subcommand(
        self, capsys, tmp_path, command, flag, value, message
    ):
        """``--base-n`` >= 1, ``--payload`` and ``--show-pairs`` >= 0
        wherever they appear: a usage error (exit 2, one error line), not a
        driver traceback or a silently negative slice.  Parsing alone
        decides it, so no subcommand runs."""
        positional = ["R1", str(tmp_path / "out.txt")] if command == "generate" else []
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, *positional, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}" in err
        assert "Traceback" not in err

    def test_checkpoint_cells_requires_spill(self, capsys):
        assert_config_rejects(
            capsys, ["join", "--checkpoint-cells"],
            "checkpoint_cells requires a spill tier (memory or disk)",
        )

    def test_spill_dir_requires_spill(self, capsys):
        assert_config_rejects(
            capsys, ["join", "--spill-dir", "/tmp/anywhere"],
            "spill_dir requires a spill tier (memory or disk)",
        )

    def test_spill_rejected_for_non_grid_method(self, capsys):
        rc = main(["join", "--method", "naive", "--spill", "memory"])
        assert rc == 2
        assert "grid methods only" in capsys.readouterr().err


class TestExperiment:
    def test_list(self, capsys):
        rc = main(["experiment", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig13" in out

    def test_run_table1(self, capsys):
        rc = main(["experiment", "table1", "--quick", "--base-n", "1000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "41" in out and "42" in out

    def test_unknown_experiment(self, capsys):
        rc = main(["experiment", "nope"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_missing_name(self, capsys):
        rc = main(["experiment"])
        assert rc == 2


class TestGenerate:
    def test_generate_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "r1.txt"
        rc = main(["generate", "R1", str(path), "--base-n", "1000"])
        assert rc == 0
        ps = read_points_text(str(path))
        assert len(ps) == 941  # R1's relative cardinality

    def test_bad_dataset(self):
        with pytest.raises(SystemExit):
            main(["generate", "X1", "out.txt"])


class TestReport:
    def test_report_subset(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        rc = main(["report", "--output", str(out), "--quick",
                   "--base-n", "800", "--only", "table1"])
        assert rc == 0
        content = out.read_text()
        assert "# Reproduction report" in content
        assert "## table1" in content and "41" in content

    def test_report_unknown_experiment(self, tmp_path, capsys):
        rc = main(["report", "--output", str(tmp_path / "r.md"),
                   "--only", "bogus"])
        assert rc == 2


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["join", "--eps", "0.5"])
    assert args.eps == 0.5
    with pytest.raises(SystemExit):
        parser.parse_args([])


class TestServeValidation:
    """``repro serve`` / ``repro query`` flag validation (no server)."""

    def test_socket_and_port_mutually_exclusive(self, capsys):
        rc = main(["serve", "--socket", "/tmp/x.sock", "--port", "9999"])
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_one_shot_flags_trapped_on_serve(self, capsys):
        """Fault injection, spill tiers and the straggler policy are
        ``repro join`` flags: ``serve`` does not know them."""
        for flags in (["--faults", "kill:p=1"], ["--spill", "disk"],
                      ["--checkpoint-cells"], ["--task-timeout", "1"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["serve", *flags])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_one_shot_flags_trapped_on_query(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--socket", "/tmp/x.sock", "--ping",
                  "--faults", "kill:p=1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_port_rejected(self, capsys):
        assert_config_rejects(capsys, ["serve", "--port", "99999"],
                              "port must be a whole number in [0, 65535], "
                              "got 99999")
        with pytest.raises(SystemExit):
            main(["query", "--port", "0", "--ping"])

    def test_bad_cache_budget_rejected(self, capsys):
        assert_config_rejects(capsys, ["serve", "--cache-budget-mb", "-1"],
                              "cache_budget_bytes must be a whole number "
                              ">= 1, got -1000000")
        assert_config_rejects(capsys, ["serve", "--result-cache-mb", "0"],
                              "result_cache_bytes must be a whole number "
                              ">= 1, got 0")

    def test_bad_register_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--register", "no-equals-sign"])

    def test_query_needs_an_address(self, capsys):
        rc = main(["query", "--ping"])
        assert rc == 2
        assert "exactly one of --socket and --port" in capsys.readouterr().err

    def test_query_needs_an_action(self, capsys):
        rc = main(["query", "--socket", "/tmp/x.sock"])
        assert rc == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_query_join_flags_must_be_complete(self, capsys):
        rc = main(["query", "--socket", "/tmp/x.sock", "--r", "R"])
        assert rc == 2
        assert "given together" in capsys.readouterr().err

    def test_unreachable_server_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["query", "--socket", str(tmp_path / "none.sock"),
                   "--ping"])
        assert rc == 1
        assert "cannot reach the server" in capsys.readouterr().err


class TestServeEndToEnd:
    @pytest.mark.serving
    def test_serve_and_query_over_unix_socket(self, tmp_path, capsys):
        """The CLI round trip: server thread + `repro query` clients."""
        import threading

        from repro.serving import ServerConfig, start_in_thread

        handle = start_in_thread(ServerConfig(backend="serial"))
        try:
            sock = handle.socket_path
            rc = main(["query", "--socket", sock,
                       "--register", "R=R1", "--register", "S=S1",
                       "--base-n", "1000",
                       "--r", "R", "--s", "S", "--eps", "0.02",
                       "--show-pairs", "2"])
            assert rc == 0
            out = capsys.readouterr().out
            assert "registered R" in out and "[cold build]" in out
            rc = main(["query", "--socket", sock, "--r", "R", "--s", "S",
                       "--eps", "0.02"])
            assert rc == 0
            assert "[result cache]" in capsys.readouterr().out
            rc = main(["query", "--socket", sock, "--stats-json"])
            assert rc == 0
            assert '"result_cache_hits": 1' in capsys.readouterr().out
            # --stats renders the sectioned dashboard instead of raw JSON
            rc = main(["query", "--socket", sock, "--stats"])
            assert rc == 0
            rendered = capsys.readouterr().out
            assert "queries" in rendered and "latency" in rendered
            assert '"result_cache_hits"' not in rendered
        finally:
            handle.stop()
