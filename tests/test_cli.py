"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.data.io import read_points_text


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

    def test_spark_style_join_runs(self, capsys):
        rc = main(["join", "--join", "spark-style", "--base-n", "400",
                   "--eps", "0.02", "--method", "lpib", "--workers", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "join=spark-style" in out
        assert "produced before distinct" in out
        assert "shuffle:" in out

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

    def test_spark_style_rejects_backend(self, capsys):
        rc = main(["join", "--join", "spark-style", "--backend", "threads"])
        assert rc == 2
        assert "spark-style" in capsys.readouterr().err

    def test_spark_style_rejects_faults(self, capsys):
        rc = main(["join", "--join", "spark-style", "--faults", "kill"])
        assert rc == 2
        assert "fault injection" in capsys.readouterr().err

    def test_spark_style_rejects_spill(self, capsys):
        rc = main(["join", "--join", "spark-style", "--spill", "disk"])
        assert rc == 2
        assert "--spill" in capsys.readouterr().err

    def test_unknown_variant_rejected(self):
        with pytest.raises(SystemExit):
            main(["join", "--join", "bogus"])

    def test_bad_partition_rejected(self):
        with pytest.raises(SystemExit):
            main(["join", "--join", "generalized", "--partition", "rtree"])


class TestJoinValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(SystemExit):
            main(["join", "--workers", "0"])

    def test_negative_workers_rejected_on_predict(self):
        with pytest.raises(SystemExit):
            main(["predict", "--workers", "-3"])

    def test_zero_task_timeout_rejected(self):
        with pytest.raises(SystemExit):
            main(["join", "--task-timeout", "0"])

    def test_negative_max_retries_rejected(self):
        with pytest.raises(SystemExit):
            main(["join", "--max-retries", "-1"])

    def test_bad_fault_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["join", "--faults", "explode:p=1"])
        assert "unknown fault kind" in capsys.readouterr().err

    def test_bad_spill_tier_rejected(self):
        with pytest.raises(SystemExit):
            main(["join", "--spill", "tape"])

    def test_checkpoint_cells_requires_spill(self, capsys):
        rc = main(["join", "--checkpoint-cells"])
        assert rc == 2
        assert "--checkpoint-cells requires" in capsys.readouterr().err

    def test_spill_dir_requires_spill(self, capsys):
        rc = main(["join", "--spill-dir", "/tmp/anywhere"])
        assert rc == 2
        assert "--spill-dir requires" in capsys.readouterr().err

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


class TestPredict:
    def test_predict_recommends(self, capsys):
        rc = main(["predict", "--base-n", "2000", "--sample-rate", "0.2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recommended method:" in out
        assert "replicas" in out


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
        for flags in (["--faults", "kill:p=1"], ["--spill", "disk"],
                      ["--checkpoint-cells"], ["--task-timeout", "1"]):
            rc = main(["serve", *flags])
            assert rc == 2
            err = capsys.readouterr().err
            assert "one-shot" in err and "repro join" in err

    def test_one_shot_flags_trapped_on_query(self, capsys):
        rc = main(["query", "--socket", "/tmp/x.sock", "--ping",
                   "--faults", "kill:p=1"])
        assert rc == 2
        assert "one-shot" in capsys.readouterr().err

    def test_bad_port_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--port", "99999"])
        with pytest.raises(SystemExit):
            main(["query", "--port", "0", "--ping"])

    def test_bad_cache_budget_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--cache-budget-mb", "-1"])
        with pytest.raises(SystemExit):
            main(["serve", "--result-cache-mb", "0"])

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

    def test_host_requires_port(self, capsys):
        rc = main(["serve", "--host", "0.0.0.0"])
        assert rc == 2
        assert "--host requires --port" in capsys.readouterr().err

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
