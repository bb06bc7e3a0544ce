"""CLI behavior: argument handling, config/env precedence, exit codes,
and the files each subcommand leaves behind."""

import json
import math
import pathlib

import pytest

from levy_gqmle import cli
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

    @pytest.mark.parametrize("fmt", ["svg", "csv"])
    def test_only_json_format(self, capsys, fmt):
        code, out, err = invoke(capsys, "optimal", "--format", fmt)
        assert code == 1 and out == ""
        assert "not available" in err

    def test_format_from_config_checked(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        code, out, err = invoke(capsys, "optimal", "--config", str(cfg))
        assert code == 1 and out == ""
        assert "not available" in err

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

    @pytest.mark.parametrize("flag,value,msg", [
        ("--h", "inf", "h must be"),
        ("--x0", "nan", "x0 must be finite"),
        ("--x0", "inf", "x0 must be finite"),
    ])
    def test_non_finite_input_exits_one(self, capsys, tmp_path, flag, value, msg):
        code, _, err = invoke(capsys, "simulate", "--n", "20", flag, value, "--out-dir", str(tmp_path))
        assert code == 1
        assert msg in err

    @pytest.mark.parametrize("case", ["i", "iii"])
    def test_nig_overflow_at_huge_step_exits_two(self, capsys, tmp_path, case):
        # (delta h)^2 overflows a float above h ~ 1e154; the command ends
        # with one line, as a diverged path does
        code, out, err = invoke(capsys, "simulate", "--case", case, "--n", "10", "--h", "1e200",
                                "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "numerical failure: NIG increments overflow at h=1e+200: (delta h)^2 is out of range"
        ]
        assert not (tmp_path / "path.csv").exists()

    @pytest.mark.parametrize("h", ["1e40", "1e200"])
    def test_bilateral_gamma_degenerate_at_huge_step_exits_two(self, capsys, tmp_path, h):
        # shape h beyond 2^104: each gamma draw rounds to its mean, and the
        # path would be all zeros; the command ends with one line
        code, out, err = invoke(capsys, "simulate", "--case", "ii", "--n", "5", "--h", h,
                                "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"numerical failure: bilateral gamma increments degenerate at h={float(h)!r}: "
            "shape h exceeds 2^104, so each gamma draw rounds to its mean"
        ]
        assert not (tmp_path / "path.csv").exists()

    def test_negative_seed_exits_one(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "simulate", "--seed", "-1", "--n", "10", "--h", "0.1",
                              "--out-dir", str(tmp_path))
        assert code == 1
        assert "seed must be >= 0, got -1" in err
        assert not (tmp_path / "path.csv").exists()

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

    def test_json_keys(self, capsys, tmp_path):
        invoke(capsys, "simulate", "--case", "ii", "--n", "500", "--seed", "4", "--out-dir", str(tmp_path))
        code, out, _ = invoke(capsys, "estimate", "--path", str(tmp_path / "path.csv"))
        assert code == 0
        assert list(json.loads(out)) == [
            "gamma_hat",
            "alpha_hat",
            "g1_value",
            "g2_value",
            "stage1_boundary",
            "stage1_degenerate",
            "stage2_boundary",
            "stage2_degenerate",
        ]

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

    def test_overflowing_state_exits_one(self, capsys, tmp_path):
        # q = 1 + x^2 overflows at x = 1e200, so the fitted scale is refused
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x\n0,0\n0.1,0.3\n0.2,1e200\n0.3,0.2\n0.4,-0.1\n")
        code, out, err = invoke(capsys, "estimate", "--path", str(bad))
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: scale coefficient evaluated non-positive on the path"]

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

    def test_non_finite_step_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"designs": [[1000, math.inf]], "replications": 100}))
        code, _, err = invoke(capsys, "mc", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 1
        assert "h must be" in err

    def test_misspelt_config_keys_run_nothing(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_mc ran on a misspelt config")

        monkeypatch.setattr(cli, "run_mc", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"replicatons": 100, "sed": 3, "designs": [[200, 0.05]]}))
        code, out, err = invoke(capsys, "mc", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 1 and out == ""
        assert "unknown config keys: replicatons, sed" in err

    def test_bad_replications_exit_one(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "mc", "--replications", "10", "--out-dir", str(tmp_path))
        assert code == 1
        assert "replications" in err


class TestSettings:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "50", "--format", "json"],
        ["estimate", "--path", "path.csv", "--format", "svg"],
        ["moments", "--n", "200", "--format", "svg"],
    ], ids=lambda argv: argv[0])
    def test_format_refused_where_nothing_is_formatted(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        invoke(capsys, "simulate", "--n", "50")
        code, _, err = invoke(capsys, *argv, "--out-dir", "out")
        assert code == 1
        assert "--format" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,key,value", [
        ("simulate", "n", "200"),
        ("simulate", "seed", "3"),
        ("simulate", "n", 20.7),
        ("simulate", "seed", True),
        ("simulate", "refine", 1.5),
        ("moments", "n", 200.5),
        ("mc", "replications", 150.5),
        ("mc", "designs", [[200.9, 0.05]]),
        ("asymptotics", "budget", 2000.5),
        ("asymptotics", "m", 60.5),
    ])
    def test_non_integer_setting_exits_one(self, capsys, tmp_path, command, key, value):
        settings = {"n": 200, "designs": [[200, 0.05]], "replications": 100, "budget": 2000, "m": 60, "t_max": 5}
        known = {row[0] for row in cli._COMMANDS[command][2]} | ({"designs"} if command == "mc" else set())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**{k: v for k, v in settings.items() if k in known}, key: value}))
        code, _, err = invoke(capsys, command, "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert f"bad value for {key}" in err

    @pytest.mark.parametrize("command,key,value", [
        ("simulate", "h", True),
        ("simulate", "h", "0.1"),
        ("simulate", "x0", False),
        ("simulate", "x0", "1"),
        ("moments", "h", "0.02"),
        ("asymptotics", "t_max", True),
        ("asymptotics", "step", "0.01"),
        ("mc", "designs", [[200, True]]),
        ("mc", "designs", [[200, "0.05"]]),
    ])
    def test_non_number_float_setting_exits_one(self, capsys, tmp_path, monkeypatch, command, key, value):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{command} ran on a bad {key}")

        # mc reads designs itself, so only its run is stubbed
        if command == "mc":
            monkeypatch.setattr(cli, "run_mc", refuse)
        else:
            monkeypatch.setitem(cli._COMMANDS, command, (refuse, *cli._COMMANDS[command][1:]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, _, err = invoke(capsys, command, "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert f"bad value for {key}" in err

    @pytest.mark.parametrize("argv", [
        ["optimal", "--case", "i", "--seed", "5"],
        ["optimal", "--case", "i", "--out-dir", "d"],
        ["estimate", "--path", "path.csv", "--seed", "5"],
    ], ids=lambda argv: " ".join(argv[::3]))
    def test_unread_settings_are_gone(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err
        key = argv[-2].lstrip("-").replace("-", "_")
        (tmp_path / "cfg.json").write_text(json.dumps({key: argv[-1]}))
        code, out, err = invoke(capsys, argv[0], "--config", "cfg.json")
        assert code == 1 and out == ""
        assert f"unknown config keys: {key}" in err
        assert not (tmp_path / "d").exists()


# a value for each setting key, unlike every default, valid in every command
SAMPLE = {
    "seed": 7, "case": "ii", "n": 300, "h": 0.02, "x0": 0.5, "refine": 2, "path": "p.csv",
    "out_dir": "out", "replications": 200, "format": "json", "budget": 3000, "m": 60,
    "t_max": 5.0, "step": 0.02, "orders": "2,5",
}
ROWS = [(command, row) for command, (_, _, rows) in cli._COMMANDS.items() for row in rows]


def _row_id(param):
    return param if isinstance(param, str) else param[0]


class TestSettingsTable:
    @pytest.mark.parametrize("command,row", ROWS, ids=_row_id)
    def test_help_shows_flag_and_default(self, capsys, command, row):
        key, _, default, text = row
        code, out, _ = invoke(capsys, command, "--help")
        # argparse wraps help text, at spaces or after hyphens
        flat = "".join(out.split())
        assert code == 0
        assert f"--{key.replace('_', '-')}" in flat and "".join(text.split()) in flat
        if default is not None:
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
            assert f"(default:{shown})" in flat

    @pytest.mark.parametrize("command,row", ROWS, ids=_row_id)
    def test_flag_and_config_resolve_alike(self, capsys, tmp_path, monkeypatch, command, row):
        key = row[0]
        _, summary, rows = cli._COMMANDS[command]
        seen = []
        monkeypatch.setitem(cli._COMMANDS, command, (lambda s, cfg: seen.append(vars(s)) or 0, summary, rows))
        monkeypatch.delenv("LEVY_GQMLE_SEED", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: SAMPLE[key]}))
        assert invoke(capsys, command, f"--{key.replace('_', '-')}", str(SAMPLE[key]))[0] == 0
        assert invoke(capsys, command, "--config", str(cfg))[0] == 0
        assert invoke(capsys, command)[0] == 0
        flag, config, default = seen
        assert flag == config
        assert flag[key] != default[key]


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

    def test_non_finite_step_exits_one(self, capsys):
        code, _, err = invoke(capsys, "moments", "--n", "100", "--h", "inf")
        assert code == 1
        assert "h must be" in err

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

    def test_non_finite_horizon_exits_one(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "asymptotics", "--case", "i", "--budget", "1000",
                              "--m", "50", "--t-max", "inf", "--out-dir", str(tmp_path))
        assert code == 1
        assert "finite t_max" in err

    def test_horizon_below_one_step_exits_one(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "asymptotics", "--case", "i", "--budget", "1000",
                              "--m", "50", "--t-max", "0.004", "--out-dir", str(tmp_path))
        assert code == 1
        assert "at least one" in err

    @pytest.mark.parametrize("flag,value", [("--t-max", "0.004"), ("--m", "29"), ("--step", "inf")])
    def test_bad_epe_arguments_exit_one_before_sampling(self, capsys, tmp_path, monkeypatch, flag, value):
        from levy_gqmle import asymptotics

        def refuse(*args, **kwargs):
            raise AssertionError("pi_0 was sampled before the arguments were checked")

        monkeypatch.setattr(asymptotics, "sample_invariant", refuse)
        code, _, err = invoke(capsys, "asymptotics", "--case", "i", "--budget", "600000",
                              flag, value, "--out-dir", str(tmp_path))
        assert code == 1
        assert "m >= 30" in err

    def test_svg_not_available(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "asymptotics", "--format", "svg", "--out-dir", str(tmp_path))
        assert code == 1
        assert "not available" in err

    def test_brownian_rejected(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "asymptotics", "--case", "diffusion",
                              "--budget", "2000", "--m", "100", "--out-dir", str(tmp_path))
        assert code == 1
        assert "pure-jump" in err
