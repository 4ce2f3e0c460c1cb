import json

import pytest
from click.testing import CliRunner

from anonauth import cli
from anonauth.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _keygen(runner, tmp_path, **extra):
    out = tmp_path / "bundle"
    args = [
        "keygen", "-q", "1", "-n", "6", "-k", "2", "--bit-length", "24",
        "--obus-per-group", "1", "--seed", "3", "--out-dir", str(out),
    ]
    for key, value in extra.items():
        args += [key, str(value)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return out


class TestKeygen:
    def test_writes_bundle_and_manifest(self, runner, tmp_path):
        out = _keygen(runner, tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "keygen"
        assert manifest["seed"] == 3
        for name in manifest["outputs"]:
            assert (out / name).exists()
        assert (out / "root.json").exists()

    def test_bad_parameters_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["keygen", "-n", "2", "-k", "2", "--out-dir", str(tmp_path / "x")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("obus, rsus", [("-1", "-2"), ("-1", "1"), ("2", "-1")])
    def test_negative_member_or_rsu_count_exits_2_and_writes_nothing(
        self, runner, tmp_path, obus, rsus
    ):
        out = tmp_path / "negative"
        result = runner.invoke(
            main, ["keygen", "--obus-per-group", obus, "--rsus", rsus, "--out-dir", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert "parameter error" in result.output
        assert list(out.iterdir()) == []

    def test_zero_members_and_rsus_write_the_root_alone(self, runner, tmp_path):
        out = _keygen(runner, tmp_path, **{"--obus-per-group": 0, "--rsus": 0})
        assert json.loads((out / "manifest.json").read_text())["outputs"] == ["root.json"]


    def test_modulus_below_12_bits_exits_2_and_writes_nothing(self, runner, tmp_path):
        out = tmp_path / "small"
        result = runner.invoke(main, ["keygen", "--bit-length", "11", "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert "bit_length must be >= 12" in result.output
        assert list(out.iterdir()) == []


class TestAuthDemo:
    def test_accept_exits_0(self, runner, tmp_path):
        bundle = _keygen(runner, tmp_path)
        out = tmp_path / "session"
        result = runner.invoke(
            main,
            ["auth-demo", "--bundle", str(bundle), "--alpha", "1", "--mu", "2",
             "--seed", "5", "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "Accepted" in result.output
        payload = json.loads((out / "result.json").read_text())
        assert payload["outcome"] == "Accepted"
        assert (out / "transcript.jsonl").read_text().strip()

    def test_revoked_exits_3(self, runner, tmp_path):
        bundle = _keygen(runner, tmp_path)
        iv = json.loads(
            next(bundle.glob("obu_*.json")).read_text()
        )["iv"]
        out = tmp_path / "revoked"
        result = runner.invoke(
            main,
            ["auth-demo", "--bundle", str(bundle), "--alpha", "1", "--mu", "2",
             "--revoked-iv", str(iv), "--seed", "5", "--out-dir", str(out)],
        )
        assert result.exit_code == 3
        assert "RejectedRevoked" in result.output

    @pytest.mark.parametrize("iv", ["-1", str(1 << 64)], ids=["negative", "wide"])
    def test_revoked_iv_outside_64_bits_exits_2(self, runner, tmp_path, iv):
        bundle = _keygen(runner, tmp_path)
        out = tmp_path / "bad-iv"
        result = runner.invoke(
            main,
            ["auth-demo", "--bundle", str(bundle), "--alpha", "1", "--mu", "2",
             "--revoked-iv", iv, "--out-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "parameter error" in result.output
        assert list(out.iterdir()) == []

    def test_alpha_above_mu_exits_2(self, runner, tmp_path):
        bundle = _keygen(runner, tmp_path)
        result = runner.invoke(
            main,
            ["auth-demo", "--bundle", str(bundle), "--alpha", "3", "--mu", "2",
             "--out-dir", str(tmp_path / "bad")],
        )
        assert result.exit_code == 2


def _break_root(bundle):
    (bundle / "root.json").write_text("{}")


def _break_obu(bundle):
    obu = next(bundle.glob("obu_*.json"))
    obu.write_text(json.dumps({"kind": "obu_credential", "format_version": 1}))


def _empty_rsu_witnesses(bundle):
    # a group with pool secrets and no master witnesses
    rsu = bundle / "rsu_0.json"
    rsu.write_text(json.dumps({**json.loads(rsu.read_text()), "master_witnesses": {}}))


# nested past the JSON decoder's recursion limit
_DEEP = "[" * 100_000


def _deep_root(bundle):
    (bundle / "root.json").write_text(_DEEP)


def _deep_obu(bundle):
    next(bundle.glob("obu_*.json")).write_text(_DEEP)


class TestBadBundle:
    def _auth_demo(self, runner, tmp_path, bundle):
        out = tmp_path / "session"
        result = runner.invoke(
            main,
            ["auth-demo", "--bundle", str(bundle), "--alpha", "1", "--mu", "2",
             "--out-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "parameter error" in result.output
        assert list(out.iterdir()) == []

    def test_missing_directory_exits_2(self, runner, tmp_path):
        self._auth_demo(runner, tmp_path, tmp_path / "absent")

    @pytest.mark.parametrize(
        "damage", [_break_root, _break_obu, _deep_root, _deep_obu, _empty_rsu_witnesses],
        ids=["root", "obu", "deep-root", "deep-obu", "rsu-witnesses"],
    )
    def test_record_without_fields_exits_2(self, runner, tmp_path, damage):
        bundle = _keygen(runner, tmp_path)
        damage(bundle)
        self._auth_demo(runner, tmp_path, bundle)

    def test_bundle_without_rsu_exits_2(self, runner, tmp_path):
        self._auth_demo(runner, tmp_path, _keygen(runner, tmp_path, **{"--rsus": 0}))

    def test_n_beyond_the_rsus_pool_exits_2(self, runner, tmp_path):
        bundle = tmp_path / "bundle"
        keygen = ["keygen", "-n", "8", "--seed", "7", "--out-dir", str(bundle)]
        assert runner.invoke(main, keygen).exit_code == 0
        rsu_file = bundle / "rsu_0.json"
        record = json.loads(rsu_file.read_text())
        record["pool_secrets"] = {g: pool[:6] for g, pool in record["pool_secrets"].items()}
        rsu_file.write_text(json.dumps(record))
        out = tmp_path / "demo"
        result = runner.invoke(
            main,
            ["auth-demo", "--bundle", str(bundle), "--alpha", "2", "--mu", "5",
             "--seed", "7", "--out-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert list(out.iterdir()) == []


    def test_upper_case_certificate_key_exits_2(self, runner, tmp_path):
        # the signature covers the lower-case form, so only the reader can refuse it
        bundle = _keygen(runner, tmp_path)
        rsu = bundle / "rsu_0.json"
        record = json.loads(rsu.read_text())
        record["certificate"]["public_key"] = record["certificate"]["public_key"].upper()
        rsu.write_text(json.dumps(record))
        self._auth_demo(runner, tmp_path, bundle)

    @pytest.mark.parametrize(
        "damage",
        [str.upper, lambda v: " ".join(v[i:i + 2] for i in range(0, 64, 2)), lambda v: v[2:]],
        ids=["upper", "spaced", "31-bytes"],
    )
    def test_root_key_reads_only_as_bytes_hex_writes_it(self, runner, tmp_path, damage):
        bundle = _keygen(runner, tmp_path)
        root = bundle / "root.json"
        record = json.loads(root.read_text())
        record["root_public_key"] = damage(record["root_public_key"])
        root.write_text(json.dumps(record))
        self._auth_demo(runner, tmp_path, bundle)


class TestAnalyze:
    def test_figure_csv(self, runner, tmp_path):
        out = tmp_path / "fig"
        result = runner.invoke(
            main, ["analyze", "--figure", "12", "--out-dir", str(out)]
        )
        assert result.exit_code == 0
        lines = (out / "figure_12.csv").read_text().strip().split("\n")
        assert lines[0] == "series,x,log10_value"
        assert len(lines) == 41

    def test_mc_report(self, runner, tmp_path):
        out = tmp_path / "mc"
        result = runner.invoke(
            main,
            ["analyze", "--mc-formula", "p_cheater", "--k", "2", "--h", "1",
             "--trials", "20000", "--seed", "2", "--out-dir", str(out)],
        )
        assert result.exit_code == 0
        report = (out / "report.csv").read_text().strip().split("\n")
        assert report[1].split(",")[0] == "p_cheater"
        assert report[1].split(",")[-1] == "true"

    def test_no_task_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["analyze", "--out-dir", str(tmp_path / "e")])
        assert result.exit_code == 2

    def test_parameter_error_writes_no_file(self, runner, tmp_path):
        out = tmp_path / "partial"
        result = runner.invoke(
            main,
            ["analyze", "--figure", "11", "--mc-formula", "p_cheater", "--trials", "0",
             "--out-dir", str(out)],
        )
        assert result.exit_code == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("parts", [("afile",), ("afile", "sub")], ids=["file", "below-file"])
    def test_out_dir_that_is_a_file_exits_2(self, runner, tmp_path, parts):
        (tmp_path / "afile").write_text("kept")
        out = tmp_path.joinpath(*parts)
        result = runner.invoke(main, ["analyze", "--figure", "12", "--out-dir", str(out)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"parameter error: --out-dir {out}: " in result.output
        assert (tmp_path / "afile").read_text() == "kept"

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_exits_2(self, runner, tmp_path, trials):
        result = runner.invoke(
            main,
            ["analyze", "--mc-formula", "p_cheater", "--trials", trials,
             "--out-dir", str(tmp_path / "t")],
        )
        assert result.exit_code == 2
        assert "trials must be >= 1" in result.output

    @pytest.mark.parametrize("formula", ["p_mu", "p_leak", "p_missed"])
    def test_mu_below_one_exits_2(self, runner, tmp_path, formula):
        out = tmp_path / "mu"
        result = runner.invoke(
            main,
            ["analyze", "--mc-formula", formula, "--mu", "-1", "--out-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "mu >= 1" in result.output
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "formula, option, value",
        [("p_mu", "--h", "-1"), ("p_mu", "--k", "0"), ("p_mu", "--k", "7"), ("p_leak", "--k", "0")],
    )
    def test_k_or_h_outside_its_range_exits_2(self, runner, tmp_path, formula, option, value):
        out = tmp_path / "kh"
        result = runner.invoke(
            main, ["analyze", "--mc-formula", formula, option, value, "--out-dir", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "require 1 <= k <= n" in result.output
        assert list(out.iterdir()) == []


class TestAttack:
    def test_simulate_succeeds_on_basic_variant(self, runner, tmp_path):
        out = tmp_path / "attack"
        result = runner.invoke(
            main,
            ["attack", "simulate", "--sessions", "150", "--seed", "4",
             "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        row = (out / "attack_report.csv").read_text().strip().split("\n")[1]
        kind, trials, successes, frequency, modeled, measured = row.split(",")
        assert kind == "simulator"
        assert int(successes) > 0
        assert int(measured) <= int(modeled)

    @pytest.mark.parametrize("mode", ["record", "simulate"])
    def test_negative_session_count_exits_2_and_writes_nothing(self, runner, tmp_path, mode):
        out = tmp_path / mode
        result = runner.invoke(main, ["attack", mode, "--sessions", "-1", "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert "parameter error" in result.output
        assert list(out.iterdir()) == []

    def test_zero_sessions_record_an_empty_corpus(self, runner, tmp_path):
        out = tmp_path / "record"
        result = runner.invoke(main, ["attack", "record", "--sessions", "0", "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "corpus.json").read_text()) == []

    def test_ciphertext_tap_is_infeasible(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["attack", "simulate", "--tap", "ciphertext", "--sessions", "20",
             "--seed", "4", "--out-dir", str(tmp_path / "blind")],
        )
        assert result.exit_code == 4
        assert "infeasible" in result.output


class TestRevokeDemo:
    def test_accept_then_denied(self, runner, tmp_path):
        out = tmp_path / "revdemo"
        result = runner.invoke(
            main, ["revoke-demo", "--seed", "8", "--out-dir", str(out)]
        )
        assert result.exit_code == 0, result.output
        outcomes = json.loads((out / "outcomes.json").read_text())
        assert outcomes == {"before": "Accepted", "after": "RejectedRevoked"}
        assert (out / "broadcast.json").exists()


class TestSimulate:
    def test_load_sweep_csv(self, runner, tmp_path):
        out = tmp_path / "sim"
        result = runner.invoke(
            main,
            ["simulate", "--sweep", "load", "--duration", "8.0", "--seed", "2",
             "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "sweep_load.csv").read_text().strip().split("\n")
        # 3 alphas x 8 grid loads
        assert len(lines) == 1 + 3 * 8

    def test_negative_load_is_a_parameter_error(self, runner, tmp_path):
        out = tmp_path / "sim"
        result = runner.invoke(
            main, ["simulate", "--sweep", "speed", "--load", "-1", "--out-dir", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert not (out / "sweep_speed.csv").exists()


class TestRerun:
    def _hashes(self, directory):
        import hashlib

        out = {}
        for f in sorted(directory.iterdir()):
            out[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
        return out

    def test_keygen_rerun_bit_identical(self, runner, tmp_path):
        out = _keygen(runner, tmp_path)
        redo = tmp_path / "redo"
        result = runner.invoke(
            main,
            ["rerun", "--manifest", str(out / "manifest.json"), "--out-dir", str(redo)],
        )
        assert result.exit_code == 0, result.output
        assert self._hashes(out) == self._hashes(redo)

    def test_auth_demo_rerun_bit_identical(self, runner, tmp_path):
        bundle = _keygen(runner, tmp_path)
        out = tmp_path / "session"
        result = runner.invoke(
            main,
            ["auth-demo", "--bundle", str(bundle), "--alpha", "1", "--mu", "2",
             "--seed", "9", "--out-dir", str(out)],
        )
        assert result.exit_code == 0
        redo = tmp_path / "session-redo"
        result = runner.invoke(
            main,
            ["rerun", "--manifest", str(out / "manifest.json"), "--out-dir", str(redo)],
        )
        assert result.exit_code == 0, result.output
        assert self._hashes(out) == self._hashes(redo)

    def test_unknown_subcommand_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"subcommand": "nope", "params": {}}))
        result = runner.invoke(
            main, ["rerun", "--manifest", str(bad), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 2

    def _rerun_spec(self, runner, tmp_path, subcommand, params):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"subcommand": subcommand, "params": params}))
        return runner.invoke(
            main, ["rerun", "--manifest", str(spec), "--out-dir", str(tmp_path / "o")]
        )

    def test_invalid_params_exit_2(self, runner, tmp_path):
        params = {"groups": 1, "pool_size": 2, "secrets_per_member": 2, "bit_length": 24,
                  "obus_per_group": 1, "rsus": 1, "seed": 1}
        result = self._rerun_spec(runner, tmp_path, "keygen", params)
        assert result.exit_code == 2
        assert "parameter error" in result.output

    @pytest.mark.parametrize("extra", [{"trials": 10000}, {"out_dir": "elsewhere"}],
                             ids=["other-subcommands-option", "out-dir"])
    def test_param_no_option_takes_exits_2(self, runner, tmp_path, extra):
        params = {"groups": 1, "pool_size": 4, "secrets_per_member": 2, "bit_length": 24,
                  "obus_per_group": 1, "rsus": 1, "seed": 1}
        result = self._rerun_spec(runner, tmp_path, "keygen", {**params, **extra})
        assert result.exit_code == 2, result.output
        assert f"keygen takes no params {next(iter(extra))}" in result.output
        assert not (tmp_path / "o").exists()

    def test_analyze_without_task_exits_2(self, runner, tmp_path):
        params = {"figure": None, "mc_formula": None, "k": 2, "h": 1, "n": 6, "mu": 2,
                  "trials": 10, "seed": 1}
        result = self._rerun_spec(runner, tmp_path, "analyze", params)
        assert result.exit_code == 2
        assert "need --figure or --mc-formula" in result.output

    def test_analyze_unknown_formula_exits_2(self, runner, tmp_path):
        base = {"figure": None, "mc_formula": None, "k": 2, "h": 1, "n": 6, "mu": 2,
                "trials": 10, "seed": 1}
        for unknown in ({"mc_formula": "p_bogus"}, {"figure": "99"}):
            result = self._rerun_spec(runner, tmp_path, "analyze", {**base, **unknown})
            assert result.exit_code == 2, result.output
            assert "parameter error" in result.output
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            json.dumps([]),
            json.dumps({"params": {"seed": 1}}),
            json.dumps({"subcommand": "keygen", "seed": 1}),
            json.dumps({"subcommand": "keygen", "params": {"seed": 1}}),
            _DEEP,
        ],
        ids=["not-json", "not-object", "no-subcommand", "no-params", "missing-param", "deep"],
    )
    def test_malformed_manifest_exits_2(self, runner, tmp_path, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        result = runner.invoke(
            main, ["rerun", "--manifest", str(spec), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert "parameter error" in result.output

    def test_missing_manifest_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["rerun", "--manifest", str(tmp_path / "absent.json"),
                   "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize(
        "bad", [{"groups": "x"}, {"groups": "3"}, {"groups": 2.5}, {"groups": None},
                {"seed": True}],
        ids=["str", "numeric-str", "float", "null", "bool"],
    )
    def test_param_of_wrong_type_exits_2(self, runner, tmp_path, bad):
        params = {"groups": 1, "pool_size": 4, "secrets_per_member": 2, "bit_length": 24,
                  "obus_per_group": 1, "rsus": 1, "seed": 1}
        result = self._rerun_spec(runner, tmp_path, "keygen", {**params, **bad})
        assert result.exit_code == 2, result.output
        assert "parameter error" in result.output


def test_every_subcommand_has_a_runner():
    assert set(cli.RUNNERS) == set(main.commands) - {"rerun"}
