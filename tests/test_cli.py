import argparse
import hashlib
import json

import pytest

from treecascade import cli, engine, tree, verify


def _run(argv):
    return cli.run(argv)


# flags a subcommand needs before --dump-config prints anything
REQUIRED = {"simulate": ["--t-end", "0.5"], "analyze": ["--t", "0.5"]}


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

    def test_stores_no_path(self, tmp_path, monkeypatch):
        def stored(*args, **kwargs):
            raise AssertionError("simulate stored a path")

        monkeypatch.setattr(engine, "simulate_path", stored)
        monkeypatch.setattr(engine.CascadePath, "vertex_mass_series", stored)
        code = _run(
            [
                "simulate", "--measure", "theta", "--depth", "5", "--t-end", "0.3",
                "--step", "0.1", "--seed", "3", "--track-vertex", "5:7",
                "--vertex-output", str(tmp_path / "v.csv"), "--output", str(tmp_path / "r.csv"),
                "--save-flow", str(tmp_path / "final.json"),
            ]
        )
        assert code == 0
        assert tree.load_flow(tmp_path / "final.json").depth == 5


def _skewed_flow_json():
    """A depth-4 flow whose internal masses are the pairwise sums of its
    leaves times 1 + 1e-13: valid within ``FLOW_REL_TOL``, yet every
    internal mass differs from what its leaves rebuild."""
    leaves = [(k + 1) / 136.0 for k in range(16)]
    levels = [leaves]
    while len(levels[0]) > 1:
        below = levels[0]
        levels.insert(0, [below[2 * i] + below[2 * i + 1] for i in range(len(below) // 2)])
    levels = [[m * (1 + 1e-13) for m in lvl] for lvl in levels[:-1]] + [leaves]
    return json.dumps({"depth": 4, "levels": levels})


class TestSimulateFrozenBytes:
    """sha256 of ``simulate``'s root CSV, vertex CSV and saved flow, pinned."""

    THETA = ["--measure", "theta", "--depth", "6"]
    TRACK = ["--track-vertex", "6:37", "--track-vertex", "1:0"]
    POISSON = ["--kind", "compound_poisson", "--rate", "40", "--step", "0.05"]  # rate*step = 2
    CASES = {
        "gaussian_replicas3": THETA + ["--t-end", "0.3", "--step", "0.1", "--replicas", "3", *TRACK],
        "poisson_replicas3": THETA + ["--t-end", "0.2", *POISSON, "--replicas", "3", *TRACK],
        "gaussian_save": THETA + ["--t-end", "0.3", "--step", "0.1", "--seed", "2", *TRACK, "--save-flow"],
        "poisson_save": THETA + ["--t-end", "0.2", *POISSON, "--seed", "2", *TRACK, "--save-flow"],
        "t_end_0_replicas3": THETA + ["--t-end", "0", "--replicas", "3", *TRACK],
        "t_end_0_save": THETA + ["--t-end", "0", *TRACK, "--save-flow"],
        "file_base_save": [
            "--t-end", "0.2", "--step", "0.1", "--seed", "5",
            "--track-vertex", "4:9", "--track-vertex", "2:1", "--track-vertex", "0:0", "--save-flow",
        ],
        "file_base_t_end_0_save": [
            "--t-end", "0", "--track-vertex", "4:9", "--track-vertex", "2:1", "--save-flow",
        ],
    }
    # recorded from the stored-path implementation
    DIGESTS = {
        "file_base_save": {
            "roots": "89ccdb26f85200e76b7f43117cb22bd4614890f0e8dbbfc3a07c28d06c593c99",
            "vertices": "891009d511b578ffb9f34789c83ec3e0d950ff51f12fd9214abaf33c2b1060ef",
            "flow": "aade2d2be49ec9484ca447a16ce93afaad147bacedf5a130a10bc0db3139564c",
        },
        "file_base_t_end_0_save": {
            "roots": "9cfbf6ba79a8c41d8877a1bda786e51f549b4cb795e592d64fd34499aa43d574",
            "vertices": "6912d7859aeedff946affca7b9523e1712e516f3250f1a0d1be31d9369bb2a63",
            "flow": "c49fca5592413edbeff921446d786a91730632d186595fd909bd2f1bf001affc",
        },
        "gaussian_replicas3": {
            "roots": "836f46f7899765b78717c533d6886ba227d9c96f433abc1458e91f8e16d5de1f",
            "vertices": "2139910bceb934a51fd936542f35d7783ae1d7a04350c5b93cc27d646e24b44e",
        },
        "gaussian_save": {
            "roots": "193077364718ac5342631b1a04c9d97aa26733ecbfd89f600a3a696b67be13ba",
            "vertices": "a1aef8f2874d729c04d440819ab05b8a6f91a83fffbbcaf9b6d0432e35153b18",
            "flow": "1f0ce3e80b28f006da47f58d0b9616c954a5ba8c6d9dbedcadfdf4d1584ccfaa",
        },
        "poisson_replicas3": {
            "roots": "e43d1e4b8980b69b2e158d46fd254a2781c7211c8e8c30a1d240fd898ba39e32",
            "vertices": "05171290add8b06c422901ece8c1226adc91f9fdd4c9e8b7ccf1d24b92bbc003",
        },
        "poisson_save": {
            "roots": "3357d74d1ad5fd24a7dfd93f7eb89c796955ff6204a7780af49974ad7147df99",
            "vertices": "c4e9c3ad728a15ea7b9eeb9047c7e213f699442b34de2402c42a18a280b03007",
            "flow": "e587e955390f498669d0a993ae3a98b0e68aac36a08a5710a682d0d9cb43a239",
        },
        "t_end_0_replicas3": {
            "roots": "ed2384eff2140817c1efaa23b9627be438269a32dedba47ff860e4c7a57524e3",
            "vertices": "1106570db072007d31873acddb3cbb56ef2d7108b7313a1834b529a945445ae0",
        },
        "t_end_0_save": {
            "roots": "49bae8c865899189525d79a6cbda19a94d2b2371ee19aa14bb29e86498049ca7",
            "vertices": "3592c89acea376b469df886daa97188cfdb6676c48dde13853ec118553bd243f",
            "flow": "ae7339e58df1b1366001b65b9054bc6d8df8f2e4e90b3a4fb1abce0a1c1e4a06",
        },
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_digests(self, case, tmp_path):
        argv = ["simulate", *self.CASES[case]]
        if case.startswith("file_base"):
            flow_file = tmp_path / "base.json"
            flow_file.write_text(_skewed_flow_json())
            argv[1:1] = ["--measure", str(flow_file)]
        if argv[-1] == "--save-flow":
            argv.append(str(tmp_path / "final.json"))
        names = {"roots": "roots.csv", "vertices": "vertices.csv", "flow": "final.json"}
        argv += ["--output", str(tmp_path / "roots.csv"), "--vertex-output", str(tmp_path / "vertices.csv")]
        assert _run(argv) == 0
        digests = {
            key: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for key, name in names.items()
            if (tmp_path / name).exists()
        }
        assert digests == self.DIGESTS[case]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestInterfaceFrozenBytes:
    """sha256 of ``--help`` (80 columns) and of ``--dump-config``, pinned."""

    COMMANDS = ("simulate", "analyze", "transport", "kpz", "verify")
    POISSON = {"kind": "compound_poisson", "rate": 40, "jump_mean": -0.5, "jump_sd": 0.25}
    # every config key at a valid value other than its default; the paths are
    # only strings, since --dump-config opens none of them, and integers for
    # number keys must dump as integers
    EVERY_KEY = {
        "simulate": {
            "measure": "base.json", "depth": 5, "t_end": 2, "step": 0.125, "replicas": 3,
            "seed": 9, "output": "r.csv", "track_vertex": ["1:0", "2:3"],
            "vertex_output": "v.csv", "save_flow": "final.json", **POISSON,
        },
        "analyze": {
            "measure": "base.csv", "t": 1, "h_min": 0.5, "h_max": 3, "h_count": 9,
            "max_depth": 4, "output": "report.json", "curves": "curves.csv", **POISSON,
        },
        "transport": {
            "mode": "holder", "mu": "mu.json", "nu": "nu.json", "method": "coupling",
            "normalize": True, "depth": 7, "t_end": 1, "step": 0.0625, "replicas": 2,
            "pair_budget": 8, "seed": 3, "output": "fit.json", **POISSON,
        },
        "kpz": {
            "mode": "box", "d0": 0.75, "t_end": 1.5, "step": 0.01, "t": 0.25, "depth": 10,
            "seed": 4, "ray_set": "full", "scale_exponents": "2,4,6", "output": "box.json",
            **POISSON,
        },
        "verify": {"suite": "quick", "seed": 7, "output": "verify.json"},
    }
    # recorded before the flag table checked kinds, choices and bounds
    DIGESTS = {
        "defaults_analyze": "322559d1b55e729c8b332ad5d10a23d5af815a6e35ab4605a511b9ca1994a028",
        "defaults_kpz": "e8e85ea2973cf5897968045983dcbbcb8af41035aca9dc4fd07927b2ddd9af56",
        "defaults_simulate": "4cc4e0d23acc25f0671d27d57c94181413cb1ad7b432eef47e3c74fadd29a1fe",
        "defaults_transport": "2afe121f7b18613d01ad2471a370689a715b8af2359886b20fbf3e8f93a2e107",
        "defaults_verify": "c53132da0a71d241a6aa5e250f442448e998b5881d0bdb047480bb124be137d3",
        "every_key_analyze": "41b7d6682a2ffc7a14fcc9645431c89b4202a5440efbd162ff26af65821ea742",
        "every_key_kpz": "d3607ed4f6bc21af653657454eef2ebe504729c77667401934c9a21c3cea2a5b",
        "every_key_simulate": "60b41c4138922f16ef601b62f8f0757e7132f2d558798335a148a25ea295cbfe",
        "every_key_transport": "e3ac2d2e4fd3087923dbd4c7757df72a50cf3da90216d7a23bb3f4e7c784c006",
        "every_key_verify": "bedf5e634e869dbdf81cfc7e228238d7a7b5927af6041c4e58b20ca3c411cec6",
        "help_analyze": "a8a37f326a0a72ae8f372bdb582528c0e8725527ffaa46821999ace3ff111e61",
        "help_kpz": "45bb175b553a011e56d2ce9fd44e627b5a22065434afbc6f54d54ff4dffe5f0f",
        "help_program": "330cdaba28f59e13966c40c7340cb40bcf1d4f2a271063c9eb0c7c8613926b24",
        "help_simulate": "1575705f966fcd1de306d335246afb6f02d4b3e2c30c8f9055f4630fb69cbf49",
        "help_transport": "b9978f9c5418f264ba5b2b15e23676cdd3fb9eb70b05eb13ac7d189987605702",
        "help_verify": "50f624febd02874cb8e44182a98b22dc0c8d64da1b70d8f2df26d53296df8ef6",
    }

    @pytest.mark.parametrize("name", ["program", *COMMANDS])
    def test_help_digests(self, name, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            _run(["--help"] if name == "program" else [name, "--help"])
        assert exc.value.code == 0
        assert _sha256(capsys.readouterr().out) == self.DIGESTS[f"help_{name}"]

    @pytest.mark.parametrize("source", ["defaults", "every_key"])
    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_dump_config_digests(self, cmd, source, tmp_path, capsys):
        argv = [cmd, *REQUIRED.get(cmd, []), "--dump-config"]
        if source == "every_key":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(self.EVERY_KEY[cmd]))
            argv = [cmd, "--config", str(cfg), "--dump-config"]
        assert _run(argv) == 0
        out = capsys.readouterr().out
        if source == "every_key":
            assert json.loads(out) == {"command": cmd, **self.EVERY_KEY[cmd]}
        assert _sha256(out) == self.DIGESTS[f"{source}_{cmd}"]


class TestAnalyzeFrozenBytes:
    """sha256 of ``analyze``'s report JSON and ``--curves`` CSV at t = 0.5, pinned."""

    POISSON = ["--kind", "compound_poisson", "--rate", "40", "--jump-mean", "0", "--jump-sd", "0.15"]
    CASES = {
        "theta_gaussian": ["--measure", "theta"],
        "theta_poisson": ["--measure", "theta", *POISSON],
        "flow_gaussian": ["--kind", "gaussian"],
        "flow_poisson": POISSON,
        "flow_max_depth_8": ["--kind", "gaussian", "--max-depth", "8"],
    }
    # recorded before the pressure curve fitted each exponent once
    DIGESTS = {
        "flow_gaussian": {
            "report": "c7e17a231fc07bac36898fbe71d1db8e093b1bbfef6583ec218cdd9b97215139",
            "curves": "bbb7e6ca7787a42b2235be8563218eed9b2ae4d8d8f28cf543d57646630e455d",
        },
        "flow_max_depth_8": {
            "report": "75ff76af270de320f36f634fa461154aacd5a386b530d5cd8b73f8f4cc45d98c",
            "curves": "d262d7db4b6e1d0a751eecfeda16db00d05d94b933340b54cfc772945a9ed4ed",
        },
        "flow_poisson": {
            "report": "0faa2d03a3ae3b1a2ba5cae7c492e60db8ad5435da1777c003c51a5345b85d72",
            "curves": "464bc4db54d367a45f2b281bfd0717bdf78ce70a069a2c48a8b2c3ee2d9d47d0",
        },
        "theta_gaussian": {
            "report": "a3e113300bd2815c7e47c3bc8a53c34e1bdd754a26361f98304eb187fc47ff19",
            "curves": "af5e073b9caa1d015c0d278bd974e0646f2a5d6f891fa6bd25dd7124361be21e",
        },
        "theta_poisson": {
            "report": "4e9971d110f5509a0dfc291123bc45430dbaba710d4c067ae4215beaf81edfed",
            "curves": "05aebf1eb7c1980c9022052ff30503d1e2545e679edb068301795566bf7e60ef",
        },
    }

    @pytest.fixture(scope="class")
    def flow_file(self, tmp_path_factory):
        """A depth-12 flow saved by ``simulate`` under the dense compound-Poisson law."""
        d = tmp_path_factory.mktemp("analyze_base")
        argv = [
            "simulate", "--measure", "theta", "--depth", "12", "--t-end", "0.5", "--step", "0.05",
            "--seed", "5", *self.POISSON, "--output", str(d / "roots.csv"),
            "--save-flow", str(d / "base.json"),
        ]
        assert _run(argv) == 0
        return d / "base.json"

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_digests(self, case, flow_file, tmp_path):
        argv = ["analyze", "--t", "0.5", *self.CASES[case]]
        if case.startswith("flow"):
            argv += ["--measure", str(flow_file)]
        argv += ["--output", str(tmp_path / "report.json"), "--curves", str(tmp_path / "curves.csv")]
        assert _run(argv) == 0
        digests = {
            name: hashlib.sha256((tmp_path / f"{name}.{ext}").read_bytes()).hexdigest()
            for name, ext in (("report", "json"), ("curves", "csv"))
        }
        assert digests == self.DIGESTS[case]


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

    @pytest.mark.parametrize(
        "key, value, want",
        [
            ("replicas", 2.7, "an integer"),
            ("seed", 1.5, "an integer"),
            ("depth", 3.9, "an integer or null"),
            ("replicas", True, "an integer"),
            ("t_end", [1], "a number"),
            ("step", "0.1", "a number"),
            ("t_end", None, "a number"),
            ("track_vertex", "1:0", "a list of strings or null"),
            ("track_vertex", [[1, 0]], "a list of strings or null"),
        ],
        ids=["replicas_float", "seed_float", "depth_float", "replicas_bool", "t_end_list",
             "step_string", "t_end_null", "track_vertex_string", "track_vertex_nested"],
    )
    def test_config_value_of_wrong_type_rejected(self, key, value, want, tmp_path, capsys):
        # argparse checks a flag's type; a config file's value gets the same check
        cfg = tmp_path / "cfg.json"
        doc = {"depth": 3, "t_end": 0.1, "vertex_output": str(tmp_path / "v.csv"), key: value}
        cfg.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            _run(["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        assert f"config key {key!r} takes {want}, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (["transport"], {"mode": "bogus"},
             "config key 'mode' takes one of ['distance', 'holder'], got 'bogus'"),
            (["kpz", "--mode", "box", "--depth", "8", "--scale-exponents", "2,4"],
             {"ray_set": "bogus"},
             "config key 'ray_set' takes one of ['even_free', 'full'], got 'bogus'"),
            (["verify"], {"suite": "bogus"},
             "config key 'suite' takes one of ['default', 'quick'], got 'bogus'"),
            (["kpz", "--mode", "box", "--depth", "8"], {"scale_exponents": [4.7, 6.2]},
             "config key 'scale_exponents' takes a string, got [4.7, 6.2]"),
            (["simulate", "--measure", "theta", "--depth", "2", "--t-end", "0"], {"output": 1},
             "config key 'output' takes a string or null, got 1"),
            (["transport", "--mu", "FLOW", "--nu", "FLOW"], {"normalize": "yes"},
             "config key 'normalize' takes a boolean, got 'yes'"),
            (["analyze", "--measure", "FLOW", "--t", "0.5", "--max-depth", "-1"], {},
             "--max-depth must be >= 0"),
            (["kpz", "--mode", "box", "--depth", "-1"], {}, "--depth must be >= 0"),
            (["simulate", "--measure", "theta", "--depth", "2", "--t-end", "0"], {"replicas": 0},
             "--replicas must be >= 1"),
        ],
        ids=["transport_mode", "kpz_ray_set", "verify_suite", "kpz_scale_exponents_list",
             "simulate_output_int", "transport_normalize_string", "analyze_max_depth_flag",
             "kpz_depth_flag", "simulate_replicas_file"],
    )
    def test_value_outside_its_flag_row_rejected(self, argv, doc, message, tmp_path, capsys):
        # kind, choices and lower bound are checked before any handler runs,
        # for file values as for flags
        flow = tmp_path / "flow.json"
        tree.save_flow(tree.uniform_flow(4), flow)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = [str(flow) if a == "FLOW" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            _run([*argv, "--config", str(cfg)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_config_values_of_the_flag_types_accepted(self, tmp_path, capsys):
        # integers for floats, null where the flag has no default
        doc = {"max_depth": None, "t": 1, "h_min": 0, "h_count": 5, "rate": None}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert _run(["analyze", "--config", str(cfg), "--dump-config"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert {k: dumped[k] for k in doc} == doc

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["analyze", "--measure", "theta"], "t", "inf"),
            (["analyze", "--measure", "theta", "--t", "0.5"], "h_min", "nan"),
            (["kpz", "--mode", "box"], "t", "nan"),
            (["simulate", "--measure", "theta", "--depth", "3"], "t_end", "inf"),
            (["transport", "--mode", "holder", "--depth", "3"], "t_end", "inf"),
            (["simulate", "--measure", "theta", "--depth", "3", "--t-end", "0.02",
              "--kind", "compound_poisson"], "jump_sd", "nan"),
        ],
        ids=["analyze_t", "analyze_h_min", "kpz_t", "simulate_t_end", "transport_t_end",
             "simulate_jump_sd"],
    )
    def test_non_finite_number_rejected(self, argv, key, value, source, tmp_path, capsys):
        # argparse's float() and JSON both read nan and inf
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: float(value)} if source == "file" else {}))
        flag = ["--" + key.replace("_", "-"), value] if source == "flag" else []
        with pytest.raises(SystemExit) as exc:
            _run([*argv, *flag, "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"config key {key!r} takes a number" in capsys.readouterr().err

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

    def test_poisson_mean_past_the_count_table_returns_one(self, tmp_path, capsys):
        argv = [
            "simulate", "--measure", "theta", "--depth", "2", "--t-end", "0.5",
            "--kind", "compound_poisson", "--rate", "2e10", "--step", "0.5",
            "--output", str(tmp_path / "r.csv"),
        ]
        assert _run(argv) == 1
        assert "Poisson mean rate*duration = 10000000000.0" in capsys.readouterr().err


class TestFlagTable:
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
            assert _run([cmd, *REQUIRED.get(cmd, []), *argv, "--dump-config"]) == 0
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


    BOUNDED = [
        (cmd, flag, low)
        for cmd, (_, rows) in cli._COMMANDS.items()
        for flag, _, _, low, _ in rows
        if low is not None
    ]

    @pytest.mark.parametrize("cmd, flag, low", BOUNDED, ids=[c + f for c, f, _ in BOUNDED])
    def test_lower_bound(self, cmd, flag, low, tmp_path, capsys):
        # one below the bound exits 2, from a flag or the file; the bound passes
        key = flag[2:].replace("-", "_")
        required = [] if flag in REQUIRED.get(cmd, []) else REQUIRED.get(cmd, [])
        argv = [cmd, *required, "--dump-config"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: low - 1}))
        for below in ([flag, str(low - 1)], ["--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                _run([*argv, *below])
            assert exc.value.code == 2
            assert f"{flag} must be >= {low}" in capsys.readouterr().err
        assert _run([*argv, flag, str(low)]) == 0
        assert json.loads(capsys.readouterr().out)[key] == low


class TestThreadsFlag:
    # perfbench passes --threads 1 to every subcommand it runs; the flag must
    # keep parsing and keep rejecting counts below 1.
    @pytest.mark.parametrize("cmd", ["simulate", "analyze", "transport", "kpz", "verify"])
    def test_threads_parses_and_is_checked(self, cmd, capsys):
        argv = [cmd, *REQUIRED.get(cmd, []), "--dump-config", "--threads"]
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

    # sha256 of the holder-mode JSON, recorded before the fit read streamed paths
    HOLDER_DIGESTS = {
        "gaussian": "22b7ef630fce4482d943df79d516c0e014f0ac11e7eadaf98ae6a34b7159eddf",
        "compound_poisson": "0928b1938c351173605184e36ab977b3f8de6aba7ef96335bab5ac4e783440bd",
    }

    @pytest.mark.parametrize("kind", sorted(HOLDER_DIGESTS))
    def test_holder_mode_digests(self, kind, tmp_path):
        out = tmp_path / "holder.json"
        argv = [
            "transport", "--mode", "holder", "--kind", kind, "--depth", "8", "--t-end", "0.25",
            "--replicas", "2", "--seed", "5", "--output", str(out),
        ]
        assert _run(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.HOLDER_DIGESTS[kind]

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

    @pytest.mark.parametrize("raw", ["4,x", "", "4,,6"])
    def test_box_malformed_scale_exponents_rejected(self, raw, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["kpz", "--mode", "box", "--depth", "8", "--t", "0", "--scale-exponents", raw])
        assert exc.value.code == 2
        assert "--scale-exponents needs comma-separated integers" in capsys.readouterr().err

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
        # recorded before qv_agreement read streamed paths
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "5e89a164607dcd3343b20c2f341f06f97f9c242b8f8b5821301f053acdec0997"
        )

    def test_unexpected_verdict_exits_three(self, monkeypatch, capsys):
        bad = verify.TestReport(
            test_name="martingale", statistic=9.0, threshold=4.0,
            replicas=100, seed=0, verdict=verify.FAIL, expected=verify.PASS,
        )
        monkeypatch.setattr(verify, "run_suite", lambda config, threads=1: [bad])
        assert _run(["verify", "--suite", "quick"]) == 3
        assert "unexpected" in capsys.readouterr().err
