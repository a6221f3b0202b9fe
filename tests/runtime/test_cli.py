"""Smoke tests for the ``python -m repro`` command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.runtime.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _run_module(*args):
    """Run ``python -m repro ...`` exactly as a user would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )


class TestModuleInvocation:
    def test_list_names_every_artefact(self):
        completed = _run_module("list")
        assert completed.returncode == 0, completed.stderr
        for name in ("table1", "table3_4", "figs6_8", "cluster-parity"):
            assert name in completed.stdout

    def test_run_table1_writes_parseable_json(self, tmp_path):
        artifact = tmp_path / "table1.json"
        completed = _run_module("run", "table1", "--json", str(artifact))
        assert completed.returncode == 0, completed.stderr
        assert "Table I" in completed.stdout
        payload = json.loads(artifact.read_text())
        assert payload["experiment"] == "table1"
        assert payload["schema"] == 1
        assert len(payload["result"]["rows"]) == 9


class TestPackageImport:
    def test_import_repro_stays_light(self):
        """`import repro` must not drag the runtime/mapping/gpu stack in;
        the runtime exports resolve lazily (PEP 562 module __getattr__)."""
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro;"
                "assert 'repro.runtime' not in sys.modules;"
                "assert 'repro.mapping' not in sys.modules;"
                "assert 'repro.gpu' not in sys.modules;"
                "repro.resolve_backend;"  # lazy export still reachable
                "assert 'repro.runtime' in sys.modules",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr


class TestInProcess:
    def test_backends_lists_every_backend(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("float", "integer", "ap", "ap-batch", "ap-cluster",
                     "gpu-analytical"):
            assert name in out

    def test_run_with_backend_and_set_overrides(self, capsys, tmp_path):
        artifact = tmp_path / "table2.json"
        code = main([
            "run", "table2", "--set", "engine=vectorized",
            "--set", "precisions=(6,)", "--json", str(artifact),
        ])
        assert code == 0
        assert "Table II" in capsys.readouterr().out
        payload = json.loads(artifact.read_text())
        assert payload["config"]["engine"] == "vectorized"
        assert payload["config"]["precisions"] == [6]
        assert all(row["precision"] == 6 for row in payload["result"]["rows"])

    def test_fast_config_and_quiet(self, capsys):
        assert main(["run", "fidelity", "--fast", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_workers_flag_reaches_experiment_config(self, capsys, tmp_path):
        """--workers lands in the config (and the sweep still runs)."""
        artifact = tmp_path / "table3_4.json"
        code = main([
            "run", "table3_4", "--fast", "--workers", "2",
            "--quiet", "--json", str(artifact),
        ])
        assert code == 0
        payload = json.loads(artifact.read_text())
        assert payload["config"]["workers"] == 2
        rows = payload["result"]["rows"]
        assert rows and all("seconds" in row for row in rows)

    def test_workers_on_unsupported_experiment_exits_2(self, capsys):
        assert main(["run", "fig1", "--workers", "2"]) == 2
        assert "takes no workers" in capsys.readouterr().err
        # --set workers=N must hit the same gate, not a raw TypeError.
        assert main(["run", "fidelity", "--set", "workers=2"]) == 2
        assert "takes no workers" in capsys.readouterr().err

    def test_out_writes_bare_to_dict_payload(self, capsys, tmp_path):
        """--out writes exactly Experiment.to_dict(result) (no artifact
        envelope) and round-trips through from_dict."""
        from repro.runtime import get_experiment

        out_file = tmp_path / "table1-result.json"
        assert main(["run", "table1", "--quiet", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert set(payload) == {"experiment", "rows"}  # bare to_dict shape
        assert payload["experiment"] == "table1"
        experiment = get_experiment("table1")
        rendered = experiment.render(experiment.from_dict(payload))
        assert "Table I" in rendered

    def test_out_and_json_coexist(self, capsys, tmp_path):
        out_file = tmp_path / "result.json"
        artifact = tmp_path / "artifact.json"
        code = main([
            "run", "fidelity", "--fast",
            "--out", str(out_file), "--json", str(artifact),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert f"wrote {out_file}" in stdout
        assert f"wrote {artifact}" in stdout
        bare = json.loads(out_file.read_text())
        wrapped = json.loads(artifact.read_text())
        assert wrapped["result"] == bare  # envelope wraps the same payload

    def test_unknown_experiment_exits_2_with_suggestion(self, capsys):
        assert main(["run", "tabel1"]) == 2
        assert "did you mean 'table1'" in capsys.readouterr().err

    def test_unknown_backend_exits_2_with_suggestion(self, capsys):
        assert main(["run", "table3_4", "--backend", "ap-clstr"]) == 2
        assert "did you mean 'ap-cluster'" in capsys.readouterr().err

    def test_backend_on_backendless_experiment_exits_2(self, capsys):
        assert main(["run", "table1", "--backend", "integer"]) == 2
        assert "takes no --backend" in capsys.readouterr().err
        # table2 selects an AP engine, not a softmax backend.
        assert main(["run", "table2", "--backend", "vectorized"]) == 2
        assert "takes no --backend" in capsys.readouterr().err

    def test_unknown_engine_exits_2_with_suggestion(self, capsys):
        assert main(["run", "table2", "--fast", "--set", "engine=vectorised"]) == 2
        assert "did you mean 'vectorized'" in capsys.readouterr().err

    def test_malformed_set_exits_2(self, capsys):
        assert main(["run", "table1", "--set", "oops"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err


class TestServeCommand:
    def test_load_demo_prints_sweep_table(self, capsys):
        code = main([
            "serve", "--rate", "4000", "--requests", "24",
            "--backend", "ap-batch", "--num-heads", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Serving sweep: backend ap-batch" in out
        assert "identical" in out
        assert "yes" in out

    def test_unknown_backend_exits_2(self, capsys):
        assert main(["serve", "--backend", "ap-clstr"]) == 2
        assert "did you mean 'ap-cluster'" in capsys.readouterr().err


class TestBenchCommand:
    def test_list_names_every_benchmark(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("llm_speed", "llm_generate", "plan_fusion", "serve"):
            assert name in out

    def test_fast_serve_run_updates_trajectory_and_trend(self, capsys, tmp_path):
        code = main([
            "bench", "serve", "--fast",
            "--dir", str(tmp_path), "--pr", "test-pr",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"updated {tmp_path / 'BENCH_serve.json'}" in out
        assert "Trajectory: serve" in out
        payload = json.loads((tmp_path / "BENCH_serve.json").read_text())
        (entry,) = payload["entries"]
        assert entry["pr"] == "test-pr"
        assert entry["fast"] is True  # toy numbers are labelled as such
        assert entry["responses_identical"] is True

    def test_trend_only_reads_without_running(self, capsys, tmp_path):
        # No trajectory file yet: trend-only reports that, runs nothing.
        assert main(["bench", "serve", "--trend-only", "--dir", str(tmp_path)]) == 0
        assert "no trajectory file" in capsys.readouterr().out

    def test_trend_renders_committed_trajectories(self, capsys):
        # The committed repo-root files must all render as trend tables.
        assert main(["bench", "--trend-only", "--dir", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        for name in ("llm_speed", "llm_generate", "plan_fusion", "serve"):
            assert f"Trajectory: {name}" in out
        assert "PR8" in out

    def test_unknown_benchmark_exits_2_before_running(self, capsys):
        assert main(["bench", "serve", "nosuch"]) == 2
        assert "unknown benchmark 'nosuch'" in capsys.readouterr().err
