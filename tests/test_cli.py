"""CLI: every subcommand runs and prints what it promises."""

from __future__ import annotations

import json
import multiprocessing
import socket

import pytest

from repro.cli.formatting import render_table
from repro.cli.main import build_parser, main
from repro.topology.serialization import system_to_json
from repro.workloads.case_study import case_study_base_system


@pytest.fixture
def topology_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(system_to_json(case_study_base_system()))
    return path


class TestFormatting:
    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [("1", "2"), ("333", "4")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "---" in lines[1]

    def test_render_table_empty_rows(self):
        text = render_table(("x",), [])
        assert "x" in text


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for args in (
            ["case-study"],
            ["evaluate", "f.json"],
            ["simulate", "f.json"],
            ["recommend"],
            ["sweep"],
            ["scenario", "ecommerce"],
            ["lint"],
        ):
            assert parser.parse_args(args).command == args[0]

    def test_recommend_has_no_engine_flag(self, capsys):
        # Incremental recombination is the only evaluation path.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recommend", "--engine", "direct"])
        assert "--engine" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["recommend", "--backend", "vector"],
            ["recommend", "--backend", "serial"],
            ["serve", "--backend", "vector"],
            ["batch", "requests.jsonl", "--backend", "vector"],
        ],
    )
    def test_backend_flags_are_parser_errors(self, argv, capsys):
        # The scalar kernel is the only evaluation path; no command
        # picks a backend.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_unknown_scenario_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "bogus"])


class TestCommands:
    def test_case_study_prints_summary(self, capsys):
        assert main(["case-study"]) == 0
        out = capsys.readouterr().out
        assert "savings vs as-is" in out
        assert "62" in out
        assert "clipped #8" in out

    def test_backend_environment_variable_is_not_read(
        self, capsys, monkeypatch
    ):
        # REPRO_BACKEND once named the default backend; a value no
        # backend ever had now changes nothing.
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert main(["case-study"]) == 0
        assert "clipped #8" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, setting",
        [
            (["--merge-interval", "nan"], "merge_interval"),
            (["--merge-interval", "inf"], "merge_interval"),
            # The gateway hands the setting to the workers it spawns,
            # so it must reject it itself, before any spawn.
            (["--workers", "1", "--merge-interval", "nan"], "merge_interval"),
            (["--rate-limit", "nan"], "rate"),
            (["--rate-limit", "inf"], "rate"),
            (["--finished-job-ttl", "nan"], "finished_job_ttl"),
            (
                ["--slow-request-threshold", "nan", "--trace"],
                "slow_request_threshold",
            ),
        ],
        ids=[
            "merge-interval-nan", "merge-interval-inf",
            "gateway-merge-interval-nan", "rate-limit-nan",
            "rate-limit-inf", "finished-job-ttl-nan",
            "slow-request-threshold-nan",
        ],
    )
    def test_serve_rejects_non_finite_settings_before_binding(
        self, capsys, monkeypatch, flags, setting
    ):
        # Tracing would attach a non-propagating handler to the
        # process-wide server logger; this test only reads the exit.
        monkeypatch.setattr(
            "repro.obs.logging.configure_json_logging", lambda *a, **k: None
        )
        # The port is taken, so a server that got as far as binding
        # would fail with "cannot serve on" instead of naming the
        # setting.
        with socket.create_server(("127.0.0.1", 0)) as taken:
            port = str(taken.getsockname()[1])
            assert main([
                "serve", "--port", port, "--observe-years", "0.1", *flags,
            ]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, err
        assert setting in errors[0] and "cannot serve" not in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, setting",
        [
            (["--shards", "0"], "num_shards"),
            (["--max-workers", "0"], "max_workers"),
            (["--cache-capacity", "0"], "cache capacity"),
            (["--finished-job-ttl", "nan"], "finished_job_ttl"),
            (["--trace", "--trace-capacity", "0"], "trace store capacity"),
        ],
        ids=[
            "shards-0", "max-workers-0", "cache-capacity-0",
            "finished-job-ttl-nan", "trace-capacity-0",
        ],
    )
    def test_gateway_rejects_worker_settings_before_spawn(
        self, capsys, monkeypatch, flags, setting
    ):
        # Each worker would build its core from these settings; the
        # gateway rejects them itself, with no worker traceback.
        monkeypatch.setattr(
            "repro.obs.logging.configure_json_logging", lambda *a, **k: None
        )
        before = len(multiprocessing.active_children())
        assert main([
            "serve", "--workers", "1", "--port", "0",
            "--observe-years", "0.1", *flags,
        ]) == 1
        assert len(multiprocessing.active_children()) == before
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, err
        assert setting in errors[0] and "exited" not in errors[0]
        assert "Traceback" not in err

    def test_evaluate_topology_file(self, capsys, topology_file):
        assert main(["evaluate", str(topology_file)]) == 0
        out = capsys.readouterr().out
        assert "B_s" in out and "F_s" in out

    def test_simulate_topology_file(self, capsys, topology_file):
        assert main([
            "simulate", str(topology_file),
            "--replications", "5", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "simulated U_s" in out

    def test_sweep_prints_rows_per_rate(self, capsys):
        assert main(["sweep", "--rates", "0", "100"]) == 0
        out = capsys.readouterr().out
        assert "$0" in out and "$100" in out

    def test_scenario_runs(self, capsys):
        assert main(["scenario", "analytics"]) == 0
        assert "recommended" in capsys.readouterr().out

    def test_recommend_with_tiny_observation(self, capsys):
        assert main([
            "recommend", "--observe-years", "2",
            "--seed", "5", "--sla", "98", "--penalty", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "place on" in out

    def test_evaluate_bad_json_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["evaluate", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_advise_from_default_as_is(self, capsys):
        assert main(["advise"]) == 0
        out = capsys.readouterr().out
        assert "recommendation:" in out
        assert "compute" in out

    def test_advise_with_migration_cost(self, capsys):
        assert main(["advise", "--migration-cost", "120000"]) == 0
        assert "stay put" in capsys.readouterr().out

    def test_advise_unknown_technology_is_clean_error(self, capsys):
        assert main(["advise", "--current", "warp", "raid-1", "none"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_compliance_settles_months(self, capsys):
        assert main([
            "compliance", "--option", "3", "--years", "2", "--seed", "9",
        ]) == 0
        out = capsys.readouterr().out
        assert "Jensen gap" in out
        assert "24 settled months" in out

    def test_importance_default_case_study(self, capsys):
        assert main(["importance"]) == 0
        out = capsys.readouterr().out
        assert "priority: protect 'storage'" in out

    def test_importance_from_file(self, capsys, topology_file):
        assert main(["importance", str(topology_file)]) == 0
        assert "Birnbaum" in capsys.readouterr().out

    def test_ingest_trace_file_locally(self, capsys, tmp_path):
        from repro.cloud.faults import FaultInjector
        from repro.cloud.providers import metalcloud
        from repro.server.ingest import ExposureRecord, records_to_jsonl
        from repro.units import MINUTES_PER_YEAR

        provider = metalcloud()
        resources = [provider.provision_vm("bm.small") for _ in range(5)]
        records = [ExposureRecord("metalcloud", "vm", 5, 2 * MINUTES_PER_YEAR)]
        records += FaultInjector(provider, seed=4).inject(
            resources, horizon_minutes=2 * MINUTES_PER_YEAR
        )
        trace = tmp_path / "trace.jsonl"
        trace.write_text(records_to_jsonl(records))

        assert main(["ingest", str(trace), "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert f"ingested {len(records)}/{len(records)}" in out
        assert "metalcloud/vm" in out

    def test_ingest_to_running_server(self, capsys, tmp_path):
        from repro.broker.service import BrokerService
        from repro.cloud.providers import all_providers
        from repro.server import start_in_thread
        from repro.server.ingest import ExposureRecord, records_to_jsonl

        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            records_to_jsonl([ExposureRecord("metalcloud", "vm", 2, 1000.0)])
        )
        broker = BrokerService(all_providers())
        with start_in_thread(broker, merge_interval=None) as handle:
            assert main(["ingest", str(trace), "--url", handle.url]) == 0
            assert broker.telemetry.exposure_years("metalcloud", "vm") > 0
        out = capsys.readouterr().out
        assert "routed 1 record(s)" in out

    def test_ingest_bad_trace_is_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["ingest", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_parser_accepts_server_knobs(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--shards", "2", "--merge-interval", "0.2"]
        )
        assert args.command == "serve"
        assert args.shards == 2
        assert args.merge_interval == 0.2

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--ingest-backend", "thread"],
            ["ingest", "trace.jsonl", "--backend", "thread"],
        ],
    )
    def test_ingest_backend_flags_are_parser_errors(self, argv, capsys):
        # Shards are threads; there is no ingest backend to choose.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "{path}"],
            ["simulate", "{path}"],
            ["importance", "{path}"],
            ["batch", "{path}"],
            ["ingest", "{path}"],
            ["trace", "--file", "{path}"],
        ],
    )
    @pytest.mark.parametrize(
        "target, reason",
        [("missing.json", "No such file or directory"), (".", "Is a directory")],
    )
    def test_unreadable_input_file_is_clean_error(
        self, argv, target, reason, tmp_path, capsys
    ):
        path = (tmp_path / target).resolve()
        argv = [arg.format(path=path) for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: {reason}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["trace", "--url", "{url}"], ["ingest", "{path}", "--url", "{url}"]],
        ids=["trace", "ingest"],
    )
    def test_unreachable_url_is_clean_error(self, argv, tmp_path, capsys):
        # Bind an ephemeral port and close it again: nothing listens
        # there, so the first request is refused.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        url = f"http://127.0.0.1:{port}"
        path = tmp_path / "trace.jsonl"
        path.write_text("{}\n")
        argv = [arg.format(url=url, path=path) for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot reach {url}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_pareto_lists_frontier(self, capsys):
        assert main(["pareto"]) == 0
        out = capsys.readouterr().out
        assert "#1 no HA" in out
        assert "#8" in out
        assert "#4" not in out  # dominated option stays off the frontier
