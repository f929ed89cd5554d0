"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

SMALL = ["--num-apps", "25", "--days", "1", "--seed", "4", "--max-daily-rate", "500"]
BAD_WINDOW = "fixed keep-alive window must be a number"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_policy_specs(self):
        args = build_parser().parse_args(
            ["simulate", *SMALL, "--policies", "fixed:10", "hybrid:240"]
        )
        assert args.policies == ["fixed:10", "hybrid:240"]

    @pytest.mark.parametrize(
        "command",
        [["trace", "gen", "x.npz"], ["simulate", "--fused"]],
        ids=["trace-gen", "simulate"],
    )
    def test_rng_scheme_flag_removed(self, capsys, command):
        # The counter-keyed stream is the only RNG scheme, so the flag
        # that chose one is gone and passing it is a usage error.
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args([*command, "--rng-scheme", "v2"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --rng-scheme v2" in capsys.readouterr().err


class TestCommands:
    def test_characterize(self, capsys):
        assert main(["characterize", *SMALL]) == 0
        output = capsys.readouterr().out
        assert "headline characterization numbers" in output
        assert "fraction_apps_at_most_minutely" in output

    def test_simulate(self, capsys):
        assert main(["simulate", *SMALL, "--policies", "fixed:10", "no-unloading"]) == 0
        output = capsys.readouterr().out
        assert "fixed-10min" in output
        assert "no-unloading" in output
        # No mode-tracking policy in the run: no decision-mode block.
        assert "decision-mode usage" not in output

    @pytest.mark.parametrize("execution", ["serial", "auto"])
    def test_simulate_reports_hybrid_mode_usage(self, capsys, execution):
        assert (
            main(
                [
                    "simulate",
                    *SMALL,
                    "--policies",
                    "fixed:10",
                    "hybrid:240",
                    "--execution",
                    execution,
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "decision-mode usage" in output
        assert "histogram" in output
        assert "OOB idle %" in output

    def test_simulate_rejects_bad_policy_spec(self, capsys):
        assert main(["simulate", *SMALL, "--policies", "fixed:0"]) == 2
        assert "keep-alive window" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, message",
        [
            (["simulate", "--workers", "0"], "worker count must be at least 1"),
            (["simulate", "--policies", "fixed:abc"], BAD_WINDOW),
            (["sweep", "--policies", "fixed:abc"], BAD_WINDOW),
            (["replay", "--policies", "bogus"], "unknown policy kind 'bogus'"),
            (["experiment", "fig14", "--workers", "0"], "worker count must be at least 1"),
            (["characterize", "--num-apps", "0"], "num_apps must be at least 1"),
            (
                ["experiment", "fig1", "--trace-dir", "missing-trace"],
                "experiments generate their own workload",
            ),
            (["experiment", "bogus"], "unknown experiments: ['bogus']; available: "),
        ],
    )
    def test_invalid_value_is_a_usage_error(self, capsys, command, message):
        # The invalid value comes after SMALL, so it wins over SMALL's own.
        assert main([command[0], *SMALL, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [
            ["characterize", "--trace-dir", "{missing}"],
            ["trace", "pack", "{missing}", "{out}"],
            ["trace", "info", "{missing}.npz"],
        ],
        ids=["characterize", "trace-pack", "trace-info"],
    )
    def test_missing_trace_path_is_a_usage_error(self, tmp_path, capsys, command):
        paths = {"missing": tmp_path / "missing", "out": tmp_path / "out.npz"}
        assert main([part.format(**paths) for part in command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(paths["missing"]) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.npz").exists()

    def test_generate_and_reload(self, tmp_path, capsys):
        out_dir = tmp_path / "trace"
        assert main(["generate", *SMALL, "--out", str(out_dir)]) == 0
        assert list(out_dir.glob("invocations_per_function_md.anon.d01.csv"))
        # The generated trace can be fed back through --trace-dir.
        assert main(["characterize", "--trace-dir", str(out_dir)]) == 0

    def test_trace_pack_and_info(self, tmp_path, capsys):
        out_dir = tmp_path / "trace"
        assert main(["generate", *SMALL, "--out", str(out_dir)]) == 0
        store_path = tmp_path / "store.npz"
        assert main(["trace", "pack", str(out_dir), str(store_path)]) == 0
        assert store_path.exists()
        capsys.readouterr()
        # Info on the packed store opens it memory-mapped.
        assert main(["trace", "info", str(store_path)]) == 0
        output = capsys.readouterr().out
        assert "columnar invocation store" in output
        assert "memory-mapped" in output
        assert "invocations" in output
        # Info straight on the CSV directory works too.
        assert main(["trace", "info", str(out_dir)]) == 0
        output = capsys.readouterr().out
        assert "apps" in output

    def test_trace_gen_streams_store(self, tmp_path, capsys):
        store_path = tmp_path / "streamed.npz"
        assert (
            main(
                [
                    "trace",
                    "gen",
                    str(store_path),
                    "--apps",
                    "30",
                    "--days",
                    "1",
                    "--seed",
                    "6",
                    "--target-rps",
                    "1.5",
                    "--chunk-apps",
                    "9",
                ]
            )
            == 0
        )
        assert store_path.exists()
        output = capsys.readouterr().out
        assert "streamed" in output
        assert "invocations/s" in output
        # The streamed store opens memory-mapped and reports a near-zero
        # resident (heap) footprint next to the on-disk archive.
        assert main(["trace", "info", str(store_path)]) == 0
        output = capsys.readouterr().out
        assert "on disk" in output
        assert "memory-mapped" in output
        assert "resident (heap)" in output
        assert "0.00 MB" in output

    def test_trace_gen_parallel_summary_and_byte_identity(self, tmp_path, capsys):
        common = ["--apps", "24", "--days", "1", "--seed", "8"]
        serial = tmp_path / "serial.npz"
        parallel = tmp_path / "parallel.npz"
        assert main(["trace", "gen", str(serial), *common, "--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(
            ["trace", "gen", str(parallel), *common, "--workers", "2",
             "--chunk-apps", "7"]
        ) == 0
        parallel_out = capsys.readouterr().out
        assert serial.read_bytes() == parallel.read_bytes()
        # Machine-readable completion summary: last line is one JSON object.
        import json

        summary = json.loads(parallel_out.strip().splitlines()[-1])
        assert summary["apps"] == 24
        assert summary["workers"] == 2
        assert summary["rng_scheme"] == "v2"
        assert summary["invocations"] > 0
        assert summary["bytes"] == parallel.stat().st_size
        assert summary["path"] == str(parallel)
        assert json.loads(serial_out.strip().splitlines()[-1])["workers"] == 1

    @pytest.mark.parametrize(
        "arguments, message",
        [
            (["--workers", "0"], "--workers must be at least 1"),
            (["--chunk-apps", "0"], "--chunk-apps must be at least 1"),
            (["--apps", "0"], "num_apps must be at least 1"),
        ],
    )
    def test_trace_gen_invalid_arguments_exit_2(
        self, tmp_path, capsys, arguments, message
    ):
        code = main(["trace", "gen", str(tmp_path / "x.npz"), "--apps", "5", *arguments])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.npz").exists()

    def test_simulate_fused_matches_two_step(self, capsys):
        arguments = [*SMALL, "--policies", "fixed:10", "hybrid:240"]
        assert main(["simulate", *arguments]) == 0
        two_step = capsys.readouterr().out
        assert main(["simulate", *arguments, "--fused", "--chunk-apps", "8"]) == 0
        fused = capsys.readouterr().out
        assert "fixed-10min" in fused and "hybrid-4h" in fused
        # Same policies, same numbers: the fused table rows match the
        # in-memory two-step run line for line.
        assert fused.splitlines()[:4] == two_step.splitlines()[:4]

    @pytest.mark.parametrize(
        "arguments, message",
        [
            (["--gen-workers", "0"], "--gen-workers must be at least 1"),
            (["--num-apps", "0"], "num_apps must be at least 1"),
            (["--chunk-apps", "0"], "--chunk-apps must be at least 1"),
            (
                ["--gen-workers", "2", "--workers", "2"],
                "pass the process count as gen_workers alone",
            ),
        ],
    )
    def test_simulate_fused_invalid_arguments_exit_2(self, capsys, arguments, message):
        assert main(["simulate", *SMALL, "--fused", *arguments]) == 2
        assert message in capsys.readouterr().err

    def test_simulate_fused_rejects_trace_dir(self, tmp_path, capsys):
        assert (
            main(["simulate", *SMALL, "--fused", "--trace-dir", str(tmp_path)]) == 2
        )
        assert "--trace-dir" in capsys.readouterr().err

    def test_simulate_accepts_max_resident_mb(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    *SMALL,
                    "--policies",
                    "fixed:10",
                    "--max-resident-mb",
                    "0.05",
                ]
            )
            == 0
        )
        assert "fixed-10min" in capsys.readouterr().out

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_replay_campaign(self, capsys):
        assert (
            main(
                [
                    "replay",
                    *SMALL,
                    "--policies",
                    "fixed:10",
                    "fixed:60",
                    "--minutes",
                    "120",
                    "--sample-apps",
                    "6",
                    "--seeds",
                    "2",
                    "--invoker-counts",
                    "2",
                    "4",
                    "--invoker-memory-mb",
                    "1024",
                    "--hetero-memory-mb",
                    "512",
                    "2048",
                    "--workers",
                    "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "replay campaign: 2 policies x 3 scenario(s) x 2 seed(s)" in output
        assert "inv2-mem1024mb" in output
        assert "heterogeneous" in output
        assert "fixed-60min" in output
        assert "completed 12 replays" in output

    def test_replay_rejects_zero_seeds(self, capsys):
        assert main(["replay", *SMALL, "--seeds", "0", "--sample-apps", "4"]) == 2
        assert "at least one seed" in capsys.readouterr().err

    def test_replay_rejects_duplicate_policies(self, capsys):
        assert (
            main(
                ["replay", *SMALL, "--policies", "fixed:10", "fixed:10", "--sample-apps", "4"]
            )
            == 2
        )
        assert "duplicate policy name" in capsys.readouterr().err

    def test_replay_with_fault_realism_flags(self, capsys):
        assert (
            main(
                [
                    "replay",
                    *SMALL,
                    "--policies",
                    "fixed:10",
                    "--minutes",
                    "60",
                    "--sample-apps",
                    "6",
                    "--seeds",
                    "1",
                    "--invoker-counts",
                    "3",
                    "--fault-domains",
                    "3",
                    "--domain-outage-rate",
                    "2",
                    "--domain-outage-seconds",
                    "60",
                    "--slow-rate",
                    "2",
                    "--slow-factor",
                    "3",
                    "--brownout-concurrency",
                    "8",
                    "--controller-mttf",
                    "0.5",
                    "--autoscale",
                    "2:6",
                    "--autoscale-policy",
                    "predictive",
                    "--workers",
                    "1",
                ]
            )
            == 0
        )
        assert "completed 1 replays" in capsys.readouterr().out

    def test_replay_rejects_negative_domain_outage_rate(self, capsys):
        args = ["replay", *SMALL, "--sample-apps", "4", "--domain-outage-rate", "-1"]
        assert main(args) == 2
        assert "domain outage rate must be non-negative" in capsys.readouterr().err

    def test_replay_rejects_negative_slow_rate(self, capsys):
        args = ["replay", *SMALL, "--sample-apps", "4", "--slow-rate", "-2"]
        assert main(args) == 2
        assert "slowdown rate must be non-negative" in capsys.readouterr().err

    def test_replay_rejects_negative_controller_mttf(self, capsys):
        args = ["replay", *SMALL, "--sample-apps", "4", "--controller-mttf", "-1"]
        assert main(args) == 2
        assert "controller MTTF must be non-negative" in capsys.readouterr().err

    def test_replay_rejects_malformed_autoscale(self, capsys):
        args = ["replay", *SMALL, "--sample-apps", "4", "--autoscale", "2-8"]
        assert main(args) == 2
        assert "--autoscale expects MIN:MAX" in capsys.readouterr().err

    def test_replay_rejects_unknown_autoscale_policy(self, capsys):
        args = [
            "replay", *SMALL, "--sample-apps", "4",
            "--autoscale", "2:8", "--autoscale-policy", "oracle",
        ]
        assert main(args) == 2
        assert "unknown autoscaler policy" in capsys.readouterr().err

    def test_replay_rejects_policy_without_autoscale_bounds(self, capsys):
        args = [
            "replay", *SMALL, "--sample-apps", "4",
            "--autoscale-policy", "predictive",
        ]
        assert main(args) == 2
        assert "requires --autoscale MIN:MAX" in capsys.readouterr().err

    def test_replay_rejects_unknown_balancer(self, capsys):
        # Balancer choices are enforced by argparse itself (exit code 2).
        args = ["replay", *SMALL, "--sample-apps", "4", "--balancer", "round-robin"]
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2
        assert "invalid choice: 'round-robin'" in capsys.readouterr().err

    def test_sweep_figures(self, capsys):
        assert main(["sweep", *SMALL, "--figures", "fig14", "fig18"]) == 0
        output = capsys.readouterr().out
        assert "shared-state famil" in output
        assert "family constant-keepalive" in output
        assert "family hybrid-histogram" in output
        assert "fixed-10min" in output
        assert "hybrid-cv2" in output
        assert "configurations over" in output

    def test_sweep_lists_hybrid_family_ranges(self, capsys):
        assert main(["sweep", *SMALL, "--policies", "hybrid:60", "hybrid:240"]) == 0
        output = capsys.readouterr().out
        assert "family hybrid-histogram (ranges 60, 240 min): hybrid-1h, hybrid-4h" in output

    def test_sweep_explicit_policies(self, capsys):
        assert (
            main(["sweep", *SMALL, "--policies", "fixed:5", "fixed:10", "no-unloading"])
            == 0
        )
        output = capsys.readouterr().out
        assert "family constant-keepalive" in output
        assert "no-unloading" in output

    def test_sweep_rejects_duplicate_policies(self, capsys):
        assert main(["sweep", *SMALL, "--policies", "fixed:10", "fixed:10"]) == 2
        assert "duplicate policy name" in capsys.readouterr().err

    def test_experiment_single(self, capsys):
        assert main(["experiment", "fig2", *SMALL]) == 0
        output = capsys.readouterr().out
        assert "[fig2]" in output

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "fig99", *SMALL]) == 2
