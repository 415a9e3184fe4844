"""Unit tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_known_experiments_accepted(self):
        parser = build_parser()
        args = parser.parse_args(["fig6f"])
        assert args.experiment == "fig6f"
        assert args.scale == 1.0
        assert not args.quick

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])

    def test_options(self):
        args = build_parser().parse_args(
            ["fig6c", "--scale", "0.5", "--quick", "--damping", "0.8"]
        )
        assert args.scale == 0.5
        assert args.quick
        assert args.damping == 0.8

    def test_backend_option(self):
        args = build_parser().parse_args(["fig6a", "--backend", "sparse"])
        assert args.backend == "sparse"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6a", "--backend", "gpu"])

    def test_bench_backends_registered(self):
        args = build_parser().parse_args(["bench-backends", "--quick"])
        assert args.experiment == "bench-backends"


class TestStartup:
    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats takes most of a second to import and only the rank
        # correlations use it, so a server start must not pay for it.
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('scipy.stats' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"


class TestMain:
    def test_bounds_example_output(self, capsys):
        assert main(["bounds-example"]) == 0
        output = capsys.readouterr().out
        assert "K' = 7" in output
        assert "Lambert" in output

    def test_fig6f_runs_and_prints_table(self, capsys):
        assert main(["fig6f"]) == 0
        output = capsys.readouterr().out
        assert "fig6f" in output
        assert "lambert_estimate" in output

    def test_quick_fig5(self, capsys):
        assert main(["fig5", "--quick", "--scale", "0.2"]) == 0
        output = capsys.readouterr().out
        assert "berkstan" in output


class TestServingCli:
    def test_serving_experiment_registered(self):
        args = build_parser().parse_args(["serving", "--quick"])
        assert args.experiment == "serving"

    def test_serve_bench_and_index_build_accepted(self):
        assert build_parser().parse_args(["serve-bench"]).experiment == "serve-bench"
        args = build_parser().parse_args(
            ["index-build", "--out", "x.npz", "--rmat-scale", "7", "--index-k", "9"]
        )
        assert args.out == "x.npz"
        assert args.rmat_scale == 7
        assert args.index_k == 9

    def test_index_build_requires_out(self, capsys):
        assert main(["index-build"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_index_build_writes_archive(self, tmp_path, capsys):
        out = tmp_path / "index.npz"
        code = main(
            [
                "index-build",
                "--out", str(out),
                "--rmat-scale", "6",
                "--index-k", "5",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "top-5 index" in capsys.readouterr().out

    def test_json_dump_option(self, tmp_path, capsys):
        import json

        path = tmp_path / "report.json"
        assert main(["fig6f", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload[0]["experiment"] == "fig6f"
        assert "wrote 1 report(s)" in capsys.readouterr().out


class TestWorkersCli:
    def test_workers_option_parsed(self):
        args = build_parser().parse_args(["scaling", "--quick", "--workers", "4"])
        assert args.experiment == "scaling"
        assert args.workers == 4
        assert build_parser().parse_args(["fig6a"]).workers is None

    def test_scaling_runs_and_prints_table(self, capsys):
        assert main(["scaling", "--quick", "--scale", "0.25", "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "scaling" in output
        assert "efficiency" in output
        assert "determinism" in output

    def test_index_build_accepts_workers(self, tmp_path, capsys):
        out = tmp_path / "index.npz"
        code = main(
            [
                "index-build",
                "--out", str(out),
                "--rmat-scale", "6",
                "--index-k", "5",
                "--workers", "2",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "top-5 index" in capsys.readouterr().out

    def test_workers_ignored_by_experiments_without_support(self, capsys):
        # fig6f takes no workers parameter; the CLI filters the kwarg out
        # instead of crashing.
        assert main(["fig6f", "--workers", "2"]) == 0
        assert "fig6f" in capsys.readouterr().out


class TestLargeGraphCli:
    def test_large_graph_registered_with_budget_and_approx(self):
        args = build_parser().parse_args(
            ["large-graph", "--quick", "--memory-budget", "16K", "--approx"]
        )
        assert args.experiment == "large-graph"
        assert args.memory_budget == 16 * 1024
        assert args.approx

    def test_memory_budget_suffixes(self):
        from repro.cli import parse_memory_budget

        assert parse_memory_budget("4096") == 4096
        assert parse_memory_budget("2k") == 2048
        assert parse_memory_budget("1.5M") == int(1.5 * (1 << 20))
        assert parse_memory_budget("1G") == 1 << 30

    def test_invalid_memory_budget_rejected(self):
        for bad in ("zero", "-1", "0", "4Q"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["large-graph", "--memory-budget", bad])

    def test_large_graph_runs_quick(self, capsys):
        assert main(["large-graph", "--quick", "--memory-budget", "16K"]) == 0
        output = capsys.readouterr().out
        assert "bit-identical" in output
        assert "overlap" in output

    def test_index_build_accepts_memory_budget(self, tmp_path, capsys):
        out = tmp_path / "index.npz"
        assert main(
            [
                "index-build",
                "--out",
                str(out),
                "--rmat-scale",
                "7",
                "--index-k",
                "5",
                "--memory-budget",
                "2K",
            ]
        ) == 0
        assert out.exists()

    def test_serving_accepts_approx_flag(self, capsys):
        assert main(["serving", "--quick", "--approx"]) == 0
        output = capsys.readouterr().out
        assert "approx" in output


class TestExplainSubcommand:
    def test_explain_prints_plan_for_every_task_shape(self, capsys):
        assert main(["explain", "--rmat-scale", "7"]) == 0
        output = capsys.readouterr().out
        for token in ("all_pairs", "top_k", "pair", "serve", "backend=", "ops~"):
            assert token in output

    def test_explain_json_is_machine_parseable(self, tmp_path, capsys):
        import json

        path = tmp_path / "plan.json"
        assert main(
            ["explain", "--rmat-scale", "7", "--workers", "2", "--json", str(path)]
        ) == 0
        data = json.loads(path.read_text())
        assert set(data) == {"graph", "config", "cost_model", "tasks"}
        assert data["cost_model"] == {"source": "static", "digest": "static"}
        tasks = {entry["task"]: entry for entry in data["tasks"]}
        for shape in ("all_pairs", "top_k", "serve"):
            entry = tasks[shape]
            assert entry["method"]
            assert entry["backend"] in ("dense", "sparse")
            assert entry["workers"] == 2 or shape == "pair"
            assert entry["estimated_ops"] > 0
        # The embedded config must round-trip through EngineConfig.
        from repro import EngineConfig

        assert EngineConfig.from_dict(data["config"]).workers == 2

    def test_explain_accepts_config_file(self, tmp_path, capsys):
        from repro import EngineConfig

        config_path = tmp_path / "config.json"
        config_path.write_text(
            EngineConfig(method="matrix", backend="dense", workers=3).to_json()
        )
        assert main(
            ["explain", "--rmat-scale", "6", "--config", str(config_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "backend=dense" in output
        assert "workers=3" in output

    def test_explain_method_and_budget_flags(self, capsys):
        assert main(
            [
                "explain", "--rmat-scale", "6", "--method", "oip-sr",
                "--memory-budget", "64K",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "method=oip-sr" in output  # pinned for all-pairs...
        assert "series path" in output  # ...but top-k stays on matrix

    def test_engine_parity_registered(self, capsys):
        args = build_parser().parse_args(["engine-parity", "--quick"])
        assert args.experiment == "engine-parity"

    def test_explain_with_profile_reports_measured_provenance(
        self, tmp_path, capsys
    ):
        import json

        profile_path = tmp_path / "profile.json"
        assert main(
            ["calibrate", "--quick", "--out", str(profile_path)]
        ) == 0
        capsys.readouterr()
        plan_path = tmp_path / "plan.json"
        assert main(
            [
                "explain", "--rmat-scale", "6",
                "--cost-profile", str(profile_path),
                "--json", str(plan_path),
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "measured profile" in output
        data = json.loads(plan_path.read_text())
        assert data["cost_model"]["source"].startswith("explicit:")
        assert data["cost_model"]["digest"] != "static"
        for entry in data["tasks"]:
            for constant in entry["constants"]:
                assert constant["provenance"] == "measured"


class TestCalibrateSubcommand:
    def test_calibrate_writes_a_loadable_profile(self, tmp_path, capsys):
        from repro.calibrate import PROBES, CostProfile

        path = tmp_path / "profile.json"
        assert main(["calibrate", "--quick", "--out", str(path)]) == 0
        output = capsys.readouterr().out
        assert "profile digest" in output
        profile = CostProfile.load(path)
        assert set(profile.kernels) == set(PROBES)
        profile.validate()  # fresh, this host

    def test_calibrate_defaults_to_user_profile_path(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.calibrate import default_profile_path

        monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path))
        assert main(["calibrate", "--quick"]) == 0
        assert default_profile_path().is_file()

    def test_engine_parity_runs_quick(self, capsys):
        assert main(["engine-parity", "--quick", "--scale", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "bit-identical" in output
        assert "built exactly once" in output


class TestMetricsCli:
    def test_metrics_and_trace_flags_parse(self):
        args = build_parser().parse_args(["metrics", "--port", "4321"])
        assert args.experiment == "metrics"
        assert args.port == 4321
        args = build_parser().parse_args(["serve-bench", "--remote", "--trace"])
        assert args.trace
        args = build_parser().parse_args(
            ["serve", "--metrics-interval", "5"]
        )
        assert args.metrics_interval == 5.0

    def test_metrics_requires_port(self, capsys):
        assert main(["metrics"]) == 2
        assert "--port" in capsys.readouterr().err

    def test_metrics_connection_refused_is_reported(self, capsys):
        # An ephemeral port nothing listens on: bind-then-close to find one.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["metrics", "--port", str(port)]) == 1
        assert "cannot connect" in capsys.readouterr().err

    def test_metrics_renders_live_server_snapshot(self, tmp_path, capsys):
        import json

        from repro.engine import Engine, EngineConfig
        from repro.graph.generators.rmat import rmat_edge_list

        graph = rmat_edge_list(6, 3 * 64, seed=7)
        engine = Engine(
            graph,
            EngineConfig(method="matrix", damping=0.6, iterations=10),
        )
        engine.build_index()
        server = engine.server()
        server.start_in_thread()
        try:
            from repro.serve import SimilarityClient

            with SimilarityClient("127.0.0.1", server.port) as client:
                client.query(3, k=5)
            assert main(["metrics", "--port", str(server.port)]) == 0
            rendered = capsys.readouterr().out
            assert "counters & gauges" in rendered
            assert "service_queries" in rendered
            path = tmp_path / "metrics.json"
            assert main(
                ["metrics", "--port", str(server.port), "--json", str(path)]
            ) == 0
            payload = json.loads(path.read_text())
            assert payload["op"] == "metrics"
            assert payload["metrics"]["counters"]["service_queries"] == 1
        finally:
            server.stop_in_thread()
