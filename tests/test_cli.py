import argparse
import json

import pytest

from treecascade import cli, tree, verify


def _run(argv):
    return cli.run(argv)


class TestHelp:
    @pytest.mark.parametrize(
        "argv",
        [["--help"]] + [[cmd, "--help"] for cmd in ("simulate", "analyze", "transport", "kpz", "verify")],
    )
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_help_states_units(self, capsys):
        with pytest.raises(SystemExit):
            _run(["simulate", "--help"])
        assert "model time units" in capsys.readouterr().out


class TestSimulate:
    def test_trivial_run_exact_bytes(self, capsys):
        assert _run(["simulate", "--measure", "theta", "--depth", "0", "--t-end", "0"]) == 0
        assert capsys.readouterr().out == "time,replica,root_mass\r\n0.0,0,1.0\r\n"

    def test_replicas_and_vertex_csv(self, tmp_path):
        out = tmp_path / "roots.csv"
        vout = tmp_path / "vertex.csv"
        code = _run(
            [
                "simulate", "--measure", "theta", "--depth", "4", "--t-end", "0.2",
                "--step", "0.1", "--replicas", "2", "--seed", "7",
                "--track-vertex", "2:3", "--vertex-output", str(vout),
                "--output", str(out),
            ]
        )
        assert code == 0
        lines = out.read_bytes().decode().split("\r\n")
        assert lines[0] == "time,replica,root_mass"
        assert len([l for l in lines if l]) == 1 + 3 * 2
        vlines = vout.read_bytes().decode().split("\r\n")
        assert vlines[0] == "time,replica,vertex_depth,path_bits,mass"
        assert vlines[1].startswith("0.0,0,2,3,")

    def test_save_flow_round_trip(self, tmp_path):
        flow_file = tmp_path / "flow.json"
        code = _run(
            [
                "simulate", "--measure", "theta", "--depth", "5", "--t-end", "0.3",
                "--step", "0.1", "--seed", "3", "--save-flow", str(flow_file),
                "--output", str(tmp_path / "roots.csv"),
            ]
        )
        assert code == 0
        code = _run(
            [
                "simulate", "--measure", str(flow_file), "--t-end", "0.1",
                "--step", "0.1", "--seed", "4", "--output", str(tmp_path / "again.csv"),
            ]
        )
        assert code == 0

    def test_negative_depth_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["simulate", "--measure", "theta", "--depth", "-2", "--t-end", "0.1"])
        assert exc.value.code == 2
        assert "--depth must be >= 0" in capsys.readouterr().err

    def test_byte_identity_across_threads(self, tmp_path, monkeypatch):
        argv = [
            "simulate", "--measure", "theta", "--depth", "6", "--t-end", "0.3",
            "--step", "0.1", "--replicas", "4", "--seed", "11",
        ]
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert _run(argv + ["--output", str(a), "--threads", "1"]) == 0
        assert _run(argv + ["--output", str(b), "--threads", "4"]) == 0
        monkeypatch.setenv("CASCADE_THREADS", "3")
        assert _run(argv + ["--output", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()


class TestConfigHandling:
    def test_dump_config_merges_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 11, "depth": 5, "t_end": 0.4}))
        code = _run(
            ["simulate", "--config", str(cfg), "--seed", "12", "--threads", "2", "--dump-config"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "simulate"
        assert doc["seed"] == 12
        assert doc["depth"] == 5
        assert doc["t_end"] == 0.4
        assert "threads" not in doc

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_end": 0.1, "bogus": 1}))
        with pytest.raises(SystemExit) as exc:
            _run(["simulate", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_missing_required_rejected(self):
        with pytest.raises(SystemExit) as exc:
            _run(["simulate", "--measure", "theta", "--depth", "3"])
        assert exc.value.code == 2

    def test_gaussian_rejects_jump_flags(self):
        with pytest.raises(SystemExit) as exc:
            _run(["simulate", "--measure", "theta", "--depth", "3", "--t-end", "0.1", "--rate", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("law", [{"kind": "foo"}, {"kind": "compound_poisson", "rate": [1]}])
    def test_bad_weight_law_in_config_rejected(self, law, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(law))
        with pytest.raises(SystemExit) as exc:
            _run(["simulate", "--config", str(cfg), "--measure", "theta", "--depth", "3", "--t-end", "0.1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jump", [["--rate", "0"], ["--jump-sd", "-1"]])
    def test_invalid_jump_law_rejected(self, jump):
        with pytest.raises(SystemExit) as exc:
            _run(
                [
                    "simulate", "--measure", "theta", "--depth", "3", "--t-end", "0.1",
                    "--kind", "compound_poisson", *jump,
                ]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--measure", "theta", "--t-end", "0.1"],
            ["transport", "--mode", "holder"],
            ["kpz", "--mode", "box", "--t", "0.1", "--scale-exponents", "2,4"],
        ],
    )
    def test_depth_over_cap_rejected(self, argv, monkeypatch):
        monkeypatch.setattr(tree, "MAX_DEPTH", 4)
        with pytest.raises(SystemExit) as exc:
            _run([*argv, "--depth", "5"])
        assert exc.value.code == 2

    def test_bad_tracked_vertex_rejected(self):
        with pytest.raises(SystemExit) as exc:
            _run(
                [
                    "simulate", "--measure", "theta", "--depth", "3", "--t-end", "0.1",
                    "--track-vertex", "nonsense", "--vertex-output", "v.csv",
                ]
            )
        assert exc.value.code == 2

    def test_tracked_vertex_needs_output_path(self):
        with pytest.raises(SystemExit) as exc:
            _run(
                [
                    "simulate", "--measure", "theta", "--depth", "3", "--t-end", "0.1",
                    "--track-vertex", "1:0",
                ]
            )
        assert exc.value.code == 2

    def test_runtime_failure_returns_one(self, tmp_path, capsys):
        # depth-2 flows are too shallow for the pressure fit
        flow_file = tmp_path / "flow.json"
        _run(
            [
                "simulate", "--measure", "theta", "--depth", "2", "--t-end", "0.1",
                "--step", "0.1", "--save-flow", str(flow_file),
                "--output", str(tmp_path / "r.csv"),
            ]
        )
        assert _run(["analyze", "--measure", str(flow_file), "--t", "0.3"]) == 1
        assert "error:" in capsys.readouterr().err


class TestFlagTable:
    # flags a subcommand needs before --dump-config prints anything
    REQUIRED = {"simulate": ["--t-end", "0.5"], "analyze": ["--t", "0.5"]}
    META = {"-h", "--config", "--dump-config", "--threads"}

    @staticmethod
    def _value(action, current):
        """Arguments that give the flag a valid value other than ``current``, and that value."""
        if action.nargs == 0:
            return [], True
        if action.choices:
            pick = next(c for c in action.choices if c != current)
            return [pick], pick
        if isinstance(action, argparse._AppendAction):
            return ["1:1"], ["1:1"]
        value = {int: 7, float: 0.625, None: "x"}[action.type]
        return [str(value)], value

    @pytest.mark.parametrize("cmd", ["simulate", "analyze", "transport", "kpz", "verify"])
    def test_each_config_key_has_exactly_one_flag(self, cmd, capsys):
        def dump(argv):
            assert _run([cmd, *self.REQUIRED.get(cmd, []), *argv, "--dump-config"]) == 0
            return json.loads(capsys.readouterr().out)

        before = dump([])
        sub = next(
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        setters = {}
        for action in sub.choices[cmd]._actions:
            flag = action.option_strings[0]
            if flag in self.META:
                continue
            key = flag[2:].replace("-", "_")
            args, want = self._value(action, before.get(key))
            after = dump([flag, *args])
            changed = sorted(k for k in set(before) | set(after) if before.get(k) != after.get(k))
            assert changed == [key], flag
            assert after[key] == want
            setters.setdefault(key, []).append(flag)
        assert sorted(setters) == sorted(set(before) - {"command"})
        assert all(len(flags) == 1 for flags in setters.values())


class TestThreadsFlag:
    # perfbench passes --threads 1 to every subcommand it runs; the flag must
    # keep parsing and keep rejecting counts below 1.
    @pytest.mark.parametrize("cmd", ["simulate", "analyze", "transport", "kpz", "verify"])
    def test_threads_parses_and_is_checked(self, cmd, capsys):
        argv = [cmd, *TestFlagTable.REQUIRED.get(cmd, []), "--dump-config", "--threads"]
        assert _run(argv + ["1"]) == 0
        assert "threads" not in json.loads(capsys.readouterr().out)
        for bad, message in (("0", "thread count must be >= 1"), ("x", "invalid int value")):
            with pytest.raises(SystemExit) as exc:
                _run(argv + [bad])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err


class TestAnalyze:
    def test_theta_report(self, capsys):
        assert _run(["analyze", "--measure", "theta", "--t", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "Regular"
        assert doc["h_t"] == pytest.approx(2.772588722239781, abs=1e-9)
        assert doc["lifetime"] == pytest.approx(1.3862943611198906, abs=1e-12)

    def test_curves_csv(self, tmp_path):
        curves = tmp_path / "curves.csv"
        code = _run(
            [
                "analyze", "--measure", "theta", "--t", "0.5", "--h-count", "5",
                "--output", str(tmp_path / "rep.json"), "--curves", str(curves),
            ]
        )
        assert code == 0
        lines = [l for l in curves.read_bytes().decode().split("\r\n") if l]
        assert lines[0] == "h,pressure,alpha"
        assert len(lines) == 6

    def test_negative_time_rejected(self):
        with pytest.raises(SystemExit) as exc:
            _run(["analyze", "--measure", "theta", "--t", "-0.5"])
        assert exc.value.code == 2

    def test_malformed_flow_file_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("depth,path_bits,mass\n0,0,1.0\n1,0,0.5\n1,2,0.5\n")
        with pytest.raises(SystemExit) as exc:
            _run(["analyze", "--measure", str(bad), "--t", "0.5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cannot load flow" in err
        assert "line 4: no vertex at depth 1, path_bits 2" in err


class TestTransport:
    def test_distance_workflow_exact_matches_lp(self, tmp_path, capsys):
        mu_file, nu_file = tmp_path / "mu.json", tmp_path / "nu.json"
        for seed, path in ((1, mu_file), (2, nu_file)):
            _run(
                [
                    "simulate", "--measure", "theta", "--depth", "5", "--t-end", "0.4",
                    "--step", "0.1", "--seed", str(seed), "--save-flow", str(path),
                    "--output", str(tmp_path / f"r{seed}.csv"),
                ]
            )
        values = {}
        for method in ("exact", "lp", "coupling"):
            code = _run(
                [
                    "transport", "--mu", str(mu_file), "--nu", str(nu_file),
                    "--method", method, "--normalize",
                ]
            )
            assert code == 0
            doc = json.loads(capsys.readouterr().out)
            values[method] = doc["value"]
            assert doc["method"]
            assert doc["truncation_bound"] == pytest.approx(2.0**-5)
        assert values["exact"] == pytest.approx(values["lp"], abs=1e-9)
        assert values["coupling"] >= values["exact"] - 1e-12

    def test_unnormalized_flows_fail_at_runtime(self, tmp_path, capsys):
        mu_file, nu_file = tmp_path / "mu.json", tmp_path / "nu.json"
        for seed, path in ((1, mu_file), (2, nu_file)):
            _run(
                [
                    "simulate", "--measure", "theta", "--depth", "5", "--t-end", "0.4",
                    "--step", "0.1", "--seed", str(seed), "--save-flow", str(path),
                    "--output", str(tmp_path / f"r{seed}.csv"),
                ]
            )
        assert _run(["transport", "--mu", str(mu_file), "--nu", str(nu_file)]) == 1
        capsys.readouterr()

    def test_holder_mode(self, capsys):
        code = _run(
            [
                "transport", "--mode", "holder", "--depth", "8", "--t-end", "0.25",
                "--replicas", "2", "--seed", "5",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert not doc["degenerate"]
        assert 0.2 < doc["slope"] < 0.8
        assert doc["n_pairs"] > 0
        assert len(doc["lag_times"]) == len(doc["median_log_distance"])

    def test_malformed_flow_file_rejected(self, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text('{"depth":0,"levels":[[1.0]]}')
        bad.write_text('{"depth": 1}')
        with pytest.raises(SystemExit) as exc:
            _run(["transport", "--mu", str(bad), "--nu", str(good)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cannot load flow" in err
        assert "lacks the field(s) ['levels']" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--pair-budget", "0"], "--pair-budget must be >= 1"),
            (["--pair-budget", "-1"], "--pair-budget must be >= 1"),
            (["--depth", "-1"], "--depth must be >= 0"),
        ],
        ids=["pair_budget_0", "pair_budget_-1", "depth_-1"],
    )
    def test_holder_mode_range_checks(self, flags, message, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["transport", "--mode", "holder", "--depth", "4", "--t-end", "0.25", *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestKpz:
    def test_ode_endpoint(self, capsys):
        assert _run(["kpz", "--d0", "0.75", "--t-end", "1.386", "--step", "1e-4"]) == 0
        lines = [l for l in capsys.readouterr().out.split("\r\n") if l]
        assert lines[0] == "t,d_ode,d_closed_form"
        final_d = float(lines[-1].split(",")[1])
        assert final_d == pytest.approx(0.5, abs=1e-4)

    def test_ode_needs_d0(self):
        with pytest.raises(SystemExit) as exc:
            _run(["kpz", "--t-end", "1.0"])
        assert exc.value.code == 2

    def test_box_at_time_zero(self, capsys):
        assert _run(["kpz", "--mode", "box", "--depth", "12", "--t", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == [4, 8, 16, 32, 64]
        assert doc["estimate"] == pytest.approx(0.5, abs=1e-12)
        assert doc["prediction"] == pytest.approx(0.5, abs=1e-12)
        assert doc["base_dimension"] == 0.5
        assert doc["ray_set"] == "even_free"

    def test_box_scale_exceeding_depth_rejected(self):
        with pytest.raises(SystemExit) as exc:
            _run(["kpz", "--mode", "box", "--depth", "8", "--t", "0", "--scale-exponents", "4,10"])
        assert exc.value.code == 2

    def test_box_negative_time_rejected(self):
        with pytest.raises(SystemExit) as exc:
            _run(["kpz", "--mode", "box", "--depth", "8", "--t", "-0.5", "--scale-exponents", "2,4"])
        assert exc.value.code == 2


class TestParserReuse:
    def test_runs_in_a_row_match_fresh_parsers(self, tmp_path, capsys):
        vertices = tmp_path / "v.csv"
        calls = [
            ["simulate", "--measure", "theta", "--depth", "3", "--t-end", "0.2", "--step", "0.1",
             "--seed", "5", "--track-vertex", "3:1", "--track-vertex", "1:0",
             "--vertex-output", str(vertices)],
            ["analyze", "--measure", "theta", "--t", "0.3", "--h-count", "5"],
            ["kpz", "--mode", "box", "--depth", "8", "--t", "-0.5", "--scale-exponents", "2,4"],
            ["kpz", "--mode", "ode", "--d0", "0.5", "--t-end", "0.1", "--step", "0.05"],
            ["simulate", "--measure", "theta", "--depth", "3", "--t-end", "0.2", "--step", "0.1",
             "--kind", "compound_poisson", "--track-vertex", "2:3",
             "--vertex-output", str(vertices)],
            ["transport", "--mode", "holder", "--dump-config", "--seed", "9"],
            ["verify", "--suite", "nope"],
        ]

        def outcome(argv):
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            written = vertices.read_bytes() if vertices.exists() else None
            vertices.unlink(missing_ok=True)
            return code, out, err, written

        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert [o[0] for o in fresh] == [0, 0, 2, 0, 0, 0, 2]
        in_a_row = [outcome(argv) for argv in calls + calls]
        assert in_a_row == fresh + fresh
        assert cli._build_parser() is cli._build_parser()


class TestVerify:
    def test_quick_suite_green(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = _run(["verify", "--suite", "quick", "--seed", "42", "--output", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.count("\n") == 6
        assert "composition" in stdout
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        assert len(doc["reports"]) == 6

    def test_unexpected_verdict_exits_three(self, monkeypatch, capsys):
        bad = verify.TestReport(
            test_name="martingale", statistic=9.0, threshold=4.0,
            replicas=100, seed=0, verdict=verify.FAIL, expected=verify.PASS,
        )
        monkeypatch.setattr(verify, "run_suite", lambda config, threads=1: [bad])
        assert _run(["verify", "--suite", "quick"]) == 3
        assert "unexpected" in capsys.readouterr().err
