import csv
import io
import json

import numpy as np
import pytest
import yaml

from poolqueue import cli, kernels, service, simulate, transient


def run(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    config = {r[1]: r[2] for r in rows if r and r[0] == "config"}
    data = [r for r in rows if r and r[0] != "config"]
    return config, data[0], data[1:]


class TestParsing:
    def test_service_strings(self):
        assert cli.parse_service("exp:1.5") == service.Exponential(1.5)
        assert cli.parse_service("erlang:2,1") == service.Erlang(2, 1.0)
        assert cli.parse_service("det:2") == service.Deterministic(2.0)
        assert cli.parse_service("pareto:1.5,1") == service.Pareto(1.5, 1.0)
        hyper = cli.parse_service("hyperexp:0.4,1,0.6,3")
        assert hyper.weights == (0.4, 0.6)
        assert hyper.rates == (1.0, 3.0)

    def test_plan_strings(self):
        assert cli.parse_plan("const:1.5", 2) == kernels.Constant(1.5, 2)
        assert cli.parse_plan("prop:0.5", 3) == kernels.Proportional(0.5, 3)
        assert cli.parse_plan("general:1,2", 2) == kernels.General((1.0, 2.0))

    def test_bad_strings_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.parse_service("weibull:1")


class TestSubcommands:
    def test_pmf_example(self, capsys):
        code, out, _ = run(
            ["pmf", "--k", "1", "--m", "0", "--service", "exp:1", "--gamma", "1"],
            capsys,
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["level", "probability"]
        assert rows == [["0", "0.5"], ["1", "0.5"]]

    def test_runs_in_one_process_print_alike(self, capsys):
        # one parser serves every run: a refused run leaves nothing behind
        # that changes the next
        argv = ["pmf", "--k", "1", "--m", "1", "--plan", "const:1", "--service", "exp:1",
                "--gamma", "1"]
        refused = ["pmf", "--k", "1", "--m", "1", "--gamma", "1", "--bogus", "2"]
        first = run(argv, capsys)
        assert first[0] == 0 and first[1]
        bad = run(refused, capsys)
        assert bad[0] == 1 and "unrecognized arguments: --bogus 2" in bad[2]
        assert run(argv, capsys) == first
        assert run(refused, capsys) == bad
        assert run(["pmf", "--m", "1"], capsys)[2] == "missing required parameter --k\n"
        assert run(argv, capsys) == first
        assert cli.build_parser() is cli.build_parser()

    def test_pgf_values(self, capsys):
        code, out, _ = run(
            ["pgf", "--k", "0", "--m", "1", "--plan", "const:1",
             "--service", "exp:1", "--gamma", "1", "--z", "0.5,1"],
            capsys,
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(0.875)
        assert float(rows[1][1]) == pytest.approx(1.0)

    def test_geometric_r_zero_m0_column(self, capsys):
        code, out, _ = run(
            ["geometric", "--lam", "1", "--mu", "1", "--gamma", "1",
             "--r", "0", "--z", "0.25,0.6,0.9"],
            capsys,
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert all(float(r[1]) == pytest.approx(1.0) for r in rows)

    def test_validate_exits_zero(self, capsys):
        code, out, _ = run(
            ["validate", "--k", "2", "--m", "2", "--plan", "const:1",
             "--service", "exp:1", "--gamma", "1", "--replications", "50000"],
            capsys,
        )
        assert code == 0
        assert "pass" in out
        assert "fail" not in out

    def test_validate_deterministic_initial_waits(self, capsys):
        # initial customer j waits exactly (j - 1) 0.8; the Monte Carlo mean
        # must not drift off it by more than the noise of its standard error
        code, out, _ = run(
            ["validate", "--k", "6", "--m", "12", "--plan", "const:0.9",
             "--service", "det:0.8", "--gamma", "1", "--replications", "200000",
             "--seed", "4"],
            capsys,
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        statuses = {row[0]: row[2] for row in rows}
        assert statuses["waiting_means_vs_monte_carlo_4se"] == "pass"

    def test_validate_pmf_deviate(self):
        n = 200_000
        # No hit on a level of probability 1e-8 is no evidence against it.
        assert cli.frequency_deviate(0.0, 1e-8, n) <= 4.0
        plan, law = kernels.Constant(1.0, 3), service.Exponential(1.0)
        exact = transient.pmf(2, 3, plan, law, 1.0)
        report = simulate.simulate(
            simulate.SimConfig(k=2, m=3, plan=plan, law=law, gamma=1.0, replications=n, seed=3)
        )
        freqs = [est.value for est in report.kill_pmf]
        assert max(cli.frequency_deviate(f, p, n) for f, p in zip(freqs, exact)) <= 4.0
        shifted = np.roll(exact, 1)
        assert max(cli.frequency_deviate(f, p, n) for f, p in zip(freqs, shifted)) > 4.0

    def test_validate_sidak_deviate(self):
        assert cli.sidak_deviate(3.0, 1) == pytest.approx(3.0)
        # the largest of 34 deviates at 4.28 is as rare as one deviate at 3.42
        assert cli.sidak_deviate(4.28, 34) == pytest.approx(3.416, abs=1e-3)
        zs = (0.0, 1.0, 3.0, 5.0, 8.0, 12.0)
        adjusted = [cli.sidak_deviate(z, 30) for z in zs]
        assert adjusted == sorted(adjusted)
        assert all(a <= z for a, z in zip(adjusted, zs))
        assert cli.sidak_deviate(50.0, 30) == 50.0
        assert np.isnan(cli.sidak_deviate(float("nan"), 30))

    @pytest.mark.parametrize(
        "law,checked",
        [("erlang:2,2", True), ("hyperexp:0.4,1,0.6,3", True), ("det:0.8", False)],
    )
    def test_validate_ctmc_check_for_phase_type(self, law, checked, capsys):
        code, out, _ = run(
            ["validate", "--k", "2", "--m", "3", "--plan", "const:0.9",
             "--service", law, "--gamma", "1", "--replications", "20000"],
            capsys,
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        statuses = {row[0]: row[2] for row in rows}
        assert ("pgf_vs_ctmc_resolvent" in statuses) == checked
        assert set(statuses.values()) == {"pass"}

    def test_waiting_table(self, capsys):
        code, out, _ = run(
            ["waiting", "--k", "1", "--m", "1", "--plan", "const:1",
             "--service", "exp:1", "--alpha", "1"],
            capsys,
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header[:2] == ["j", "mean"]
        assert float(rows[1][1]) == pytest.approx(0.5)
        assert float(rows[1][2]) == pytest.approx(0.75)

    def test_waiting_at_plan_rate(self, capsys):
        # alpha equal to the arrival rate, at a pool where every customer's
        # transform must still be a probability-weighted average.
        code, out, _ = run(
            ["waiting", "--k", "5", "--m", "30", "--plan", "const:0.9",
             "--service", "erlang:2,2", "--alpha", "0.9,1.8"],
            capsys,
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header[2:] == ["lst_alpha_0.9", "lst_alpha_1.8"]
        assert len(rows) == 35
        values = np.array([[float(x) for x in row[2:]] for row in rows])
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_moments(self, capsys):
        code, out, _ = run(
            ["moments", "--k", "1", "--m", "0", "--service", "exp:1",
             "--gamma", "1", "--orders", "0,1"],
            capsys,
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(1.0)
        assert float(rows[1][1]) == pytest.approx(0.5)

    def test_workload_prints_real_numbers(self, capsys):
        argv = ["workload", "--k", "2", "--m", "3", "--plan", "const:1",
                "--service", "exp:1", "--gamma", "0.5", "--alpha", "0.5"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["alpha", "workload_lst"]
        assert rows == [["0.5", "0.546152647462"]]
        expected = transient.workload_lst(
            2, 3, kernels.Constant(1.0, 3), service.Exponential(1.0), 0.5, 0.5
        )
        assert float(rows[0][1]) == pytest.approx(expected, abs=1e-12)

    def test_at_time(self, capsys):
        code, out, _ = run(
            ["at-time", "--k", "1", "--m", "0", "--service", "exp:1", "--t", "1"],
            capsys,
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0][2]) == pytest.approx(1.0 - 2.718281828**-1, abs=1e-6)

    @pytest.mark.parametrize(
        "argv",
        [
            ["at-time", "--k", "-1", "--service", "exp:1", "--t", "1"],
            ["waiting", "--k", "-1", "--service", "exp:1"],
            ["workload", "--k", "-1", "--service", "exp:1", "--gamma", "1", "--alpha", "0.5"],
            ["at-time", "--k", "-2", "--service", "det:0.8", "--t", "1"],
        ],
        ids=["at-time", "waiting", "workload", "at-time-det"],
    )
    def test_negative_k_refused(self, argv, capsys):
        code, out, err = run(argv + ["--m", "2", "--plan", "const:1"], capsys)
        assert code == 1 and out == ""
        assert "k and m must be nonnegative" in err

    @pytest.mark.parametrize(
        "model",
        [["--k", "-3", "--m", "2", "--plan", "const:1"], ["--k", "-1", "--m", "0"]],
        ids=["k=-3,m=2", "k=-1,m=0"],
    )
    def test_waiting_refuses_a_negative_k_with_no_customers(self, model, capsys):
        # k + m <= 0 leaves the table without a row, so no customer's mean
        # would reach the library's check
        code, out, err = run(["waiting", *model, "--service", "exp:1"], capsys)
        assert code == 1 and out == ""
        assert "k and m must be nonnegative" in err

    def test_waiting_without_arrivals(self, capsys):
        # the initial customers' means need no transform, Pareto's included
        code, out, _ = run(["waiting", "--k", "3", "--m", "0", "--service", "pareto:1.5,1"], capsys)
        _, header, rows = parse_csv(out)
        assert code == 0 and header == ["j", "mean"]
        assert [(int(j), float(mean)) for j, mean in rows] == [(1, 0.0), (2, 3.0), (3, 6.0)]
        code, out, _ = run(["waiting", "--k", "0", "--m", "0", "--service", "exp:1"], capsys)
        _, header, rows = parse_csv(out)
        assert code == 0 and header == ["j", "mean"] and rows == []

    def test_at_time_help_names_no_inversion(self, capsys):
        for argv in (["--help"], ["at-time", "--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 0
            out = capsys.readouterr().out.lower()
            assert "at-time" in out
            assert "invers" not in out and "euler" not in out

    def test_simulate_json(self, capsys):
        code, out, _ = run(
            ["simulate", "--k", "1", "--m", "0", "--service", "exp:1",
             "--gamma", "1", "--replications", "20000", "--seed", "3",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["quantity", "key", "estimate", "stderr"]
        assert payload["config"]["seed"] == 3


class TestConfigHandling:
    def test_config_file_and_override(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "model": {"k": 1, "m": 0, "service": "exp:1"},
                    "query": {"gamma": 1.0},
                }
            )
        )
        code, out_file, _ = run(["pmf", "--config", str(path)], capsys)
        assert code == 0
        code, out_flag, _ = run(["pmf", "--config", str(path), "--gamma", "2.0"], capsys)
        assert code == 0
        cfg_file, _, _ = parse_csv(out_file)
        cfg_flag, _, _ = parse_csv(out_flag)
        assert cfg_file["gamma"] == "1.0"
        assert cfg_flag["gamma"] == "2.0"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"model": {"k": 1, "bogus": 2}}))
        code, _, err = run(["pmf", "--config", str(path)], capsys)
        assert code == 1
        assert "bogus" in err

    def test_inversion_method_key_rejected(self, tmp_path, capsys):
        # Euler is the only inversion method, so there is nothing to choose
        path = tmp_path / "method.yaml"
        path.write_text(yaml.safe_dump({"execution": {"method": "euler"}}))
        code, _, err = run(["at-time", "--config", str(path)], capsys)
        assert code == 1
        assert "unknown key 'method'" in err

    def test_overflowing_deterministic_model_exits_one(self, capsys):
        code, out, err = run(
            ["pmf", "--k", "1", "--m", "2", "--plan", "const:1e200",
             "--service", "det:1e200", "--gamma", "1"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "lambda_max * d" in err and "Traceback" not in err

    def test_inversion_method_flag_rejected(self, capsys):
        code, out, err = run(
            ["at-time", "--k", "1", "--m", "0", "--service", "exp:1", "--t", "1",
             "--method", "euler"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "--method" in err

    def test_echoed_config_round_trips(self, tmp_path, capsys):
        # rebuild a config file from the echoed rows; numeric columns must
        # reproduce byte for byte
        argv = [
            "pgf", "--k", "2", "--m", "2", "--plan", "prop:0.7",
            "--service", "erlang:2,2", "--gamma", "0.9", "--z", "0.3,0.8",
        ]
        code, first, _ = run(argv, capsys)
        assert code == 0
        echoed, _, first_rows = parse_csv(first)
        blocks = {"model": {}, "query": {}, "execution": {}}
        for key, value in echoed.items():
            blocks[cli._PARAMS[key][0]][key] = value
        path = tmp_path / "echo.yaml"
        path.write_text(yaml.safe_dump(blocks))
        code, second, _ = run(["pgf", "--config", str(path)], capsys)
        assert code == 0
        _, _, second_rows = parse_csv(second)
        assert first_rows == second_rows


    def test_zero_grids_from_yaml_take_effect(self, tmp_path, capsys):
        # a YAML zero is a value, not an absent grid
        path = tmp_path / "zeros.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "model": {"k": 1, "m": 2, "plan": "const:1", "service": "exp:1"},
                    "query": {"gamma": 1.0, "alpha": 0, "t": 0, "z": 0},
                    "execution": {"replications": 1000, "seed": 1},
                }
            )
        )
        code, out, _ = run(["waiting", "--config", str(path)], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["j", "mean", "lst_alpha_0"]
        assert all(float(row[2]) == 1.0 for row in rows)
        code, out, _ = run(["simulate", "--config", str(path)], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        keys = {(row[0], row[1]) for row in rows}
        assert {("time_pmf", "0|1"), ("pgf", "0"), ("workload_lst", "0")} <= keys

    def test_echo_lists_only_keys_the_subcommand_reads(self, tmp_path, capsys):
        path = tmp_path / "shared.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "model": {"k": 1, "m": 2, "plan": "const:1", "service": "exp:1"},
                    "query": {"gamma": 1, "t": [1, 2], "z": 0.5, "alpha": 0.5},
                    "execution": {"seed": 3, "format": "csv"},
                }
            )
        )
        code, out, err = run(["waiting", "--config", str(path)], capsys)
        assert code == 0
        echoed, header, _ = parse_csv(out)
        assert sorted(echoed) == ["alpha", "format", "k", "m", "plan", "service"]
        assert header == ["j", "mean", "lst_alpha_0.5"]
        lines = err.splitlines()
        assert len(lines) == 4
        for key, line in zip(["gamma", "seed", "t", "z"], lines):
            assert f"'{key}'" in line and "waiting" in line

    def test_bad_config_value_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("computed before the settings were checked")

        monkeypatch.setattr(cli.transient, "pmf", no_work)
        monkeypatch.setattr(cli.simulate, "simulate", no_work)
        model = {"k": 1, "m": 2, "plan": "const:1", "service": "exp:1"}
        for execution in ({"format": "xml"}, {"seed": "x"}):
            path = tmp_path / "bad.yaml"
            path.write_text(yaml.safe_dump({"model": model, "execution": execution}))
            code, out, err = run(["validate", "--config", str(path)], capsys)
            assert code == 1
            assert out == ""
            assert "xml" in err or "'x'" in err
        # a bad value of a key the subcommand does not read is only noted
        path.write_text(yaml.safe_dump({"model": model, "query": {"gamma": 1, "z": "bad"}}))
        monkeypatch.undo()
        code, _, err = run(["pmf", "--config", str(path)], capsys)
        assert code == 0
        assert "'z'" in err

    def test_yaml_list_and_comma_string_agree(self, tmp_path, capsys):
        outputs = []
        for z in ([0.3, 0.8], "0.3,0.8"):
            path = tmp_path / "grid.yaml"
            path.write_text(
                yaml.safe_dump(
                    {
                        "model": {"k": 1, "m": 1, "plan": "const:1", "service": "exp:1"},
                        "query": {"gamma": 1.0, "z": z},
                    }
                )
            )
            code, out, _ = run(["pgf", "--config", str(path)], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestErrors:
    def test_usage_error_exit_code(self, capsys):
        code, _, err = run(["pgf", "--k", "1"], capsys)
        assert code == 1
        assert "missing" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(["bogus"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("pmf", "--gamma", "-0.5"),
            ("pgf", "--gamma", "nan"),
            ("moments", "--gamma", "inf"),
            ("workload", "--gamma", "-inf"),
            ("pmf", "--plan", "const:nan"),
            ("pmf", "--plan", "prop:inf"),
            ("pmf", "--service", "exp:nan"),
            ("pmf", "--service", "erlang:inf,1"),
            ("workload", "--alpha", "nan"),
            ("waiting", "--alpha", "nan"),
            ("at-time", "--t", "nan"),
            ("geometric", "--lam", "nan"),
            ("validate", "--gamma", "inf"),
        ],
    )
    def test_non_finite_or_negative_input_rejected(self, command, flag, value, capsys):
        model = {"--k": "1", "--m": "2", "--plan": "const:1", "--service": "exp:1"}
        argv = {
            "pmf": {**model, "--gamma": "0.5"},
            "pgf": {**model, "--gamma": "0.5"},
            "moments": {**model, "--gamma": "0.5"},
            "workload": {**model, "--gamma": "0.5", "--alpha": "0.5"},
            "waiting": {**model, "--alpha": "0.5"},
            "at-time": {**model, "--t": "1"},
            "geometric": {
                "--lam": "1", "--mu": "1", "--gamma": "1", "--r": "0.3", "--z": "0.4"
            },
            "validate": {**model, "--gamma": "1", "--replications": "1000"},
        }[command]
        argv[flag] = value
        code, out, err = run([command] + [f"{f}={v}" for f, v in argv.items()], capsys)
        assert code == 1
        assert out == ""
        assert err

    def test_numeric_guard_surfaces(self, capsys):
        # z on a guard band must fail loudly, not silently emit numbers
        code, _, err = run(
            ["geometric", "--lam", "1", "--mu", "1", "--gamma", "1",
             "--r", "0.3", "--z", "0.5"],
            capsys,
        )
        assert code == 1
        assert "excluded" in err

    @pytest.mark.parametrize(
        "command",
        ["pgf --gamma 1 --z 0.5", "pmf --gamma 1", "moments --gamma 1",
         "workload --gamma 1 --alpha 0.5", "waiting", "at-time --t 1",
         "simulate --gamma 1 --replications 100", "validate --replications 100"],
    )
    @pytest.mark.parametrize("law", ["exp:1", "det:0.8"])
    def test_general_plan_of_the_wrong_length_refused(self, command, law, capsys):
        # the library's check_counts refuses it, in every subcommand alike
        for rates in ("1,2", "1,2,3,4"):
            argv = command.split() + ["--k", "1", "--m", "3", "--plan", f"general:{rates}",
                                      "--service", law]
            code, out, err = run(argv, capsys)
            assert code == 1 and out == ""
            assert err == f"error: the plan has {len(rates.split(','))} rates for a pool of m = 3\n"


# Every subcommand's options, as the parser offered them before the
# parameter table replaced the hand-written flag lists.
MODEL_FLAGS = ["--k", "--m", "--plan", "--service"]
COMMON_FLAGS = ["-h", "--help", "--config", "--output", "--format"]
OPTION_STRINGS = {
    "pgf": MODEL_FLAGS + ["--gamma", "--z"],
    "pmf": MODEL_FLAGS + ["--gamma"],
    "moments": MODEL_FLAGS + ["--gamma", "--orders"],
    "workload": MODEL_FLAGS + ["--gamma", "--alpha"],
    "waiting": MODEL_FLAGS + ["--j", "--alpha"],
    "at-time": MODEL_FLAGS + ["--t"],
    "geometric": ["--lam", "--mu", "--gamma", "--p", "--r", "--z"],
    "simulate": MODEL_FLAGS + ["--gamma", "--t", "--z", "--alpha", "--replications", "--seed"],
    "validate": MODEL_FLAGS + ["--gamma", "--replications", "--seed"],
}


class TestHelp:
    def test_option_strings_pinned(self):
        parser = cli.build_parser()
        subparsers = next(
            action for action in parser._actions if action.dest == "command"
        ).choices
        assert sorted(subparsers) == sorted(OPTION_STRINGS)
        for command, flags in OPTION_STRINGS.items():
            got = [s for action in subparsers[command]._actions for s in action.option_strings]
            assert sorted(got) == sorted(COMMON_FLAGS + flags), command


    @pytest.mark.parametrize(
        "command,flags",
        [
            ("pgf", ["--k", "--m", "--plan", "--service", "--gamma", "--z"]),
            ("pmf", ["--k", "--m", "--plan", "--service", "--gamma"]),
            ("moments", ["--orders"]),
            ("workload", ["--alpha"]),
            ("waiting", ["--j", "--alpha"]),
            ("at-time", ["--t"]),
            ("geometric", ["--lam", "--mu", "--gamma", "--p", "--r", "--z"]),
            ("simulate", ["--replications", "--seed", "--t", "--z", "--alpha"]),
            ("validate", ["--replications", "--seed"]),
        ],
    )
    def test_every_flag_documented(self, command, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in flags + ["--config", "--output", "--format"]:
            assert flag in out
