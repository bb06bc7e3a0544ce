"""CLI behavior: argument handling, config/env precedence, exit codes,
and the files each subcommand leaves behind."""

import json
import math
import pathlib

import pytest

from levy_gqmle.cli import run
from levy_gqmle.sde import load_path


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "simulate" in out and "asymptotics" in out

    def test_subcommand_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "mc", "--help")
        assert code == 0
        assert "--replications" in out

    def test_version(self, capsys):
        code, out, _ = invoke(capsys, "--version")
        assert code == 0
        assert out.startswith("levy-gqmle")

    def test_missing_command_is_usage_error(self, capsys):
        code, _, err = invoke(capsys)
        assert code == 1
        assert "error:" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "optimal", "--bogus")
        assert code == 1
        assert "error:" in err

    def test_unknown_case_is_input_error(self, capsys):
        code, _, err = invoke(capsys, "optimal", "--case", "xii")
        assert code == 1
        assert "unknown case" in err


class TestOptimal:
    def test_single_case_twelve_digits(self, capsys):
        code, out, _ = invoke(capsys, "optimal", "--case", "i")
        assert code == 0
        assert out.splitlines() == ["alpha_star=0.333748960931", "gamma_star=1.414213562373"]

    def test_all_cases(self, capsys):
        code, out, _ = invoke(capsys, "optimal")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 4
        assert lines[0].startswith("case=i ")
        assert all("gamma_star=1.414213562373" in ln for ln in lines)

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "optimal", "--format", "json")
        obj = json.loads(out)
        assert code == 0
        assert sorted(obj) == ["diffusion", "i", "ii", "iii"]
        assert obj["diffusion"]["alpha_star"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert obj["ii"]["gamma_star"] == pytest.approx(math.sqrt(2.0), abs=1e-12)


class TestSimulate:
    def test_writes_loadable_path(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "simulate", "--case", "ii", "--n", "300", "--h", "0.02",
                              "--seed", "5", "--out-dir", str(tmp_path))
        assert code == 0
        assert "wrote" in out
        path = load_path(tmp_path / "path.csv")
        assert path.n == 300
        assert path.h == pytest.approx(0.02)

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        invoke(capsys, "simulate", "--n", "200", "--seed", "9", "--out-dir", str(a))
        invoke(capsys, "simulate", "--n", "200", "--seed", "9", "--out-dir", str(b))
        assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()

    def test_seed_changes_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        invoke(capsys, "simulate", "--n", "200", "--seed", "9", "--out-dir", str(a))
        invoke(capsys, "simulate", "--n", "200", "--seed", "10", "--out-dir", str(b))
        assert (a / "path.csv").read_bytes() != (b / "path.csv").read_bytes()

    def test_non_string_out_dir_in_config_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": 5}))
        code, _, err = invoke(capsys, "simulate", "--n", "20", "--config", str(cfg))
        assert code == 1
        assert "bad value for out_dir" in err


class TestEstimate:
    def test_roundtrip_from_simulate(self, capsys, tmp_path):
        invoke(capsys, "simulate", "--case", "i", "--n", "2000", "--h", "0.02",
               "--seed", "3", "--out-dir", str(tmp_path))
        code, out, _ = invoke(capsys, "estimate", "--path", str(tmp_path / "path.csv"),
                              "--out-dir", str(tmp_path))
        assert code == 0
        obj = json.loads(out)
        assert 0.0 < obj["gamma_hat"] < 3.0
        on_disk = json.loads((tmp_path / "estimate.json").read_text())
        assert on_disk == obj

    def test_non_equispaced_grid_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x\n0,0\n0.5,0.1\n0.8,0.2\n")
        code, _, err = invoke(capsys, "estimate", "--path", str(bad))
        assert code == 1
        assert "equispaced" in err

    def test_non_finite_time_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x\n0,0\n0.1,0.1\nnan,0.2\n0.3,0.3\n")
        code, out, err = invoke(capsys, "estimate", "--path", str(bad))
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_missing_path_flag(self, capsys):
        code, _, err = invoke(capsys, "estimate")
        assert code == 1
        assert "--path" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "estimate", "--path", str(tmp_path / "absent.csv"))
        assert code == 1
        assert "error:" in err

    def test_non_string_path_in_config_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"path": 5}))
        code, _, err = invoke(capsys, "estimate", "--config", str(cfg))
        assert code == 1
        assert "bad value for path" in err


class TestMc:
    @pytest.fixture()
    def config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "i", "designs": [[250, 0.04]], "replications": 120}))
        return cfg

    def test_runs_and_reports(self, capsys, tmp_path, config):
        out_dir = tmp_path / "mc"
        code, out, _ = invoke(capsys, "mc", "--config", str(config), "--seed", "7",
                              "--out-dir", str(out_dir), "--format", "csv")
        assert code == 0
        assert "n=250" in out
        lines = (out_dir / "report.csv").read_text().splitlines()
        assert lines[0] == "Tn,n,h,case,mean_alpha,sd_alpha,mean_gamma,sd_gamma"
        assert len(lines) == 2
        assert not (out_dir / "report.svg").exists()

    def test_default_emits_all_formats(self, capsys, tmp_path, config):
        out_dir = tmp_path / "mc"
        code, _, _ = invoke(capsys, "mc", "--config", str(config), "--seed", "7",
                            "--out-dir", str(out_dir))
        assert code == 0
        for ext in ("csv", "json", "svg"):
            assert (out_dir / f"report.{ext}").exists()

    def test_all_failures_exit_two(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"designs": [[50, 8.0]], "replications": 100}))
        code, _, err = invoke(capsys, "mc", "--config", str(cfg), "--seed", "1",
                              "--out-dir", str(tmp_path))
        assert code == 2
        assert "numerical failure" in err

    @pytest.mark.parametrize("designs", [5, [[1000, None]]], ids=["scalar", "null-step"])
    def test_malformed_designs_exit_one(self, capsys, tmp_path, designs):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"designs": designs, "replications": 100}))
        code, _, err = invoke(capsys, "mc", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 1
        assert "bad value for designs" in err

    def test_bad_replications_exit_one(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "mc", "--replications", "10", "--out-dir", str(tmp_path))
        assert code == 1
        assert "replications" in err


class TestConfigPrecedence:
    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "n": 200, "out_dir": str(tmp_path / "cfgdir")}))
        flag_dir = tmp_path / "flagdir"
        invoke(capsys, "simulate", "--config", str(cfg), "--seed", "9", "--out-dir", str(flag_dir))
        ref_dir = tmp_path / "ref"
        invoke(capsys, "simulate", "--n", "200", "--seed", "9", "--out-dir", str(ref_dir))
        assert (flag_dir / "path.csv").read_bytes() == (ref_dir / "path.csv").read_bytes()
        assert not (tmp_path / "cfgdir").exists()

    def test_config_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LEVY_GQMLE_SEED", "4")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        invoke(capsys, "simulate", "--n", "200", "--config", str(cfg), "--out-dir", str(tmp_path / "a"))
        monkeypatch.delenv("LEVY_GQMLE_SEED")
        invoke(capsys, "simulate", "--n", "200", "--seed", "9", "--out-dir", str(tmp_path / "b"))
        assert (tmp_path / "a" / "path.csv").read_bytes() == (tmp_path / "b" / "path.csv").read_bytes()

    def test_env_beats_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LEVY_GQMLE_SEED", "9")
        invoke(capsys, "simulate", "--n", "200", "--out-dir", str(tmp_path / "a"))
        monkeypatch.delenv("LEVY_GQMLE_SEED")
        invoke(capsys, "simulate", "--n", "200", "--seed", "9", "--out-dir", str(tmp_path / "b"))
        invoke(capsys, "simulate", "--n", "200", "--out-dir", str(tmp_path / "c"))  # default seed 0
        assert (tmp_path / "a" / "path.csv").read_bytes() == (tmp_path / "b" / "path.csv").read_bytes()
        assert (tmp_path / "c" / "path.csv").read_bytes() != (tmp_path / "b" / "path.csv").read_bytes()

    def test_invalid_env_seed(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("LEVY_GQMLE_SEED", "not-a-seed")
        code, _, err = invoke(capsys, "simulate", "--n", "200", "--out-dir", str(tmp_path))
        assert code == 1
        assert "LEVY_GQMLE_SEED" in err

    @pytest.mark.parametrize("content,msg", [
        ("[1, 2]", "JSON object"),
        ("{not json", "valid JSON"),
    ])
    def test_bad_config_contents(self, capsys, tmp_path, content, msg):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code, _, err = invoke(capsys, "optimal", "--config", str(cfg))
        assert code == 1
        assert msg in err

    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "optimal", "--config", str(tmp_path / "nope.json"))
        assert code == 1
        assert "cannot read config" in err


class TestMoments:
    def test_stdout_table(self, capsys):
        code, out, _ = invoke(capsys, "moments", "--case", "i", "--n", "2000",
                              "--h", "0.02", "--seed", "9")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "r,estimate"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["2", "3", "4"]

    def test_orders_and_out_dir(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "moments", "--n", "1000", "--h", "0.02", "--seed", "2",
                              "--orders", "2,6", "--out-dir", str(tmp_path))
        assert code == 0
        saved = (tmp_path / "moments.csv").read_text().splitlines()
        assert saved == out.splitlines()
        assert saved[1].startswith("2,") and saved[2].startswith("6,")

    def test_bad_orders(self, capsys):
        code, _, err = invoke(capsys, "moments", "--orders", "2,x")
        assert code == 1
        assert "orders" in err


class TestAsymptotics:
    def test_small_run_emits_json_and_csv(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "asymptotics", "--case", "i", "--budget", "3000",
                              "--m", "150", "--t-max", "15", "--seed", "3",
                              "--out-dir", str(tmp_path))
        assert code == 0
        obj = json.loads((tmp_path / "asymptotics.json").read_text())
        assert sorted(obj) == ["Gamma", "Sigma", "V", "diagnostics"]
        assert obj["Gamma"][0][0] == pytest.approx(-2.0, abs=0.1)
        lines = (tmp_path / "asymptotics.csv").read_text().splitlines()
        assert lines[0] == "x,f1,f2,se"
        assert len(lines) > 20

    def test_svg_not_available(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "asymptotics", "--format", "svg", "--out-dir", str(tmp_path))
        assert code == 1
        assert "not available" in err

    def test_brownian_rejected(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "asymptotics", "--case", "diffusion",
                              "--budget", "2000", "--m", "100", "--out-dir", str(tmp_path))
        assert code == 1
        assert "pure-jump" in err
