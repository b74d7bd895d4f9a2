"""``python -m repro run``: exit codes and report wiring."""

import json

import pytest

from repro.shard.cli import VERDICTS, run_main

SMALL = ["--packets", "128", "--bursts", "2", "--num-routes", "512"]


class TestInProcess:
    def test_text_report_exits_zero(self, capsys):
        assert run_main(["--inprocess", "--workers", "2", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "conservation OK" in out
        assert "worker 0" in out and "worker 1" in out

    def test_json_report_is_parseable(self, capsys):
        assert run_main(["--inprocess", "--json", *SMALL]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["conservation_ok"] is True
        assert report["injected"] == 256
        assert len(report["workers"]) == 2
        totals = report["totals"]
        assert totals["received"] == report["injected"]

    def test_bad_worker_count_rejected(self, capsys):
        assert run_main(["--workers", "0"]) == 2

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            run_main(["--app", "nat"])


class TestMultiProcess:
    def test_forked_run_exits_zero(self, capsys):
        assert run_main(["--workers", "2", "--json", *SMALL]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["conservation_ok"] is True
        assert report["shm_fallbacks"] == 0
        assert [w["exitcode"] for w in report["workers"]] == [0, 0]

    def test_flightrec_dumps_land_per_worker(self, tmp_path, capsys):
        assert run_main([
            "--workers", "2", "--dump-dir", str(tmp_path), *SMALL,
        ]) == 0
        capsys.readouterr()
        dumps = sorted(p.name for p in tmp_path.glob("flightrec-w*.jsonl"))
        assert dumps == ["flightrec-w0.jsonl", "flightrec-w1.jsonl"]
        for path in tmp_path.glob("flightrec-w*.jsonl"):
            lines = path.read_text().splitlines()
            assert lines  # each worker recorded events
            json.loads(lines[0])


class TestProcessPanes:
    """``run`` shows the real plane's per-process panes and checks them
    against the workers' reports."""

    def test_json_panes_match_reports_field_for_field(self, capsys, tmp_path):
        assert run_main([
            "--workers", "2", "--json", "--dump-dir", str(tmp_path), *SMALL,
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        processes = report["processes"]
        assert sorted(processes) == [
            "0", "1", "aggregate", "identity", "master",
        ]
        assert processes["identity"]["ok"] is True
        for worker in report["workers"]:
            pane = processes[str(worker["worker_id"])]
            assert {k: pane[k] for k in VERDICTS} == {
                k: worker[k] for k in VERDICTS
            }
            assert {"pre_shade", "post_shade"} <= set(pane["stages"])
        assert {k: processes["aggregate"][k] for k in VERDICTS} == (
            report["totals"]
        )
        assert "gpu" in processes["master"]["stages"]
        assert processes["master"]["received"] == 0
        assert len(list(tmp_path.glob("flightrec-w*.jsonl"))) == 2

    def test_text_renders_one_row_per_process(self, capsys):
        assert run_main(["--workers", "2", *SMALL]) == 0
        out = capsys.readouterr().out
        rows = [line.split()[0] for line in out.splitlines() if line]
        for tag in ("w0", "w1", "master", "all", "identity"):
            assert tag in rows
        assert "VIOLATED" not in out

    def test_inprocess_is_pane_zero(self, capsys):
        assert run_main(["--inprocess", "--json", *SMALL]) == 0
        processes = json.loads(capsys.readouterr().out)["processes"]
        assert sorted(processes) == ["0", "aggregate", "identity"]
        assert processes["0"]["received"] == 256

    def test_slab_report_mismatch_exits_one(self, capsys, monkeypatch):
        import repro.shard.cli as cli
        from repro.obs import names

        def skewed(slab):
            registry = cli.read_slab.__wrapped__(slab)
            registry.counter(names.ROUTER_RECEIVED_PACKETS).inc()
            return registry

        skewed.__wrapped__ = cli.read_slab
        monkeypatch.setattr(cli, "read_slab", skewed)
        assert run_main(["--workers", "2", "--json", *SMALL]) == 1
        err = capsys.readouterr().err
        assert "slab and report accounting disagree" in err
        assert "worker 0" in err and "aggregate" in err

    def test_master_failure_is_a_named_exit_one(self, capsys, monkeypatch):
        from repro.shard.plane import ShardedDataPlane

        def dead(plane):
            raise RuntimeError("master: dead worker(s): repro-shard-0")

        monkeypatch.setattr(ShardedDataPlane, "serve_master", dead)
        assert run_main(["--workers", "2", *SMALL]) == 1
        assert "run: master: dead worker(s)" in capsys.readouterr().err
