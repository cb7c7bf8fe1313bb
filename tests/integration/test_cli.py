"""Tests for the command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCLI:
    def test_hierarchy(self, capsys):
        assert main(["hierarchy", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "consensus" in out
        assert "weakest detector" in out

    def test_solve_consensus(self, capsys):
        assert main(["solve", "consensus", "--n", "3", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "outputs" in out
        assert "Omega" in out

    def test_solve_set_agreement(self, capsys):
        assert (
            main(["solve", "set-agreement", "--n", "3", "--k", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "vecOmega-2" in out

    def test_solve_strong_renaming(self, capsys):
        assert main(["solve", "strong-renaming", "--n", "3"]) == 0

    def test_check_renaming_crossover(self, capsys):
        assert main(["check-renaming", "2"]) == 0
        assert "SOLVABLE" in capsys.readouterr().out
        assert main(["check-renaming", "4"]) == 1
        assert "UNSOLVABLE" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["no-such-command"])


class TestChaosCLI:
    def test_smoke_prefix_runs_clean(self, capsys):
        assert main(["chaos", "run", "--smoke", "--cells", "2"]) == 0
        out = capsys.readouterr().out
        assert "chaos campaign 'smoke'" in out
        assert "verdict: OK" in out

    def test_specimen_shrinks_and_replay_reproduces(self, tmp_path, capsys):
        bundle = tmp_path / "witness.json"
        assert (
            main(
                [
                    "chaos",
                    "run",
                    "--specimen",
                    "--cells",
                    "24",
                    "--bundle",
                    str(bundle),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "safety_violation" in out
        assert "shrunk to" in out
        assert bundle.exists()

        assert main(["chaos", "replay", str(bundle)]) == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_replay_rejects_foreign_json(self, tmp_path):
        from repro.errors import ChaosError

        junk = tmp_path / "junk.json"
        junk.write_text('{"format": "not-a-bundle"}')
        with pytest.raises(ChaosError):
            main(["chaos", "replay", str(junk)])

    def test_chaos_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["chaos"])


class TestBenchCLI:
    def test_smoke_without_out_leaves_tracked_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        baseline = tmp_path / "BENCH_core.json"
        baseline.write_bytes(b'{"tracked": "full-mode baseline"}\n')
        before = baseline.read_bytes()
        monkeypatch.chdir(tmp_path)
        # The exit status reflects the overhead gates, not the output
        # path, so it is not asserted here.
        main(["bench", "--smoke"])
        assert "results written to BENCH_smoke.json" in (
            capsys.readouterr().out
        )
        assert baseline.read_bytes() == before
        payload = json.loads((tmp_path / "BENCH_smoke.json").read_text())
        assert payload["smoke"] is True
