"""Command-line interface: commands, exit codes, artifact stability."""

import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from dataclasses import replace

import pytest

import ddrm
from ddrm import parse_scenario, replay_verify, run_scenario
from ddrm.adversary import ALL_KINDS, KIND_COLLUSION, KIND_FALSE_REFUND, ScenarioMetrics, ScenarioResult
from ddrm.cli import EXIT_CHAIN, EXIT_CONFIG, EXIT_INVARIANT, EXIT_MISMATCH, EXIT_OK, main
from ddrm.config import RATE_DIGITS, USD_DIGITS, parse_run_config
from ddrm.ledger import ZERO_DIGEST, Ledger, canonical_payload, record_hash

from conftest import exported_log, forged_log, make_sim, provider_and_service

MINIMAL_CONFIG = {
    "seed": 77,
    "scenarios": [
        {"name": "demo", "kind": "bad_mouthing", "rounds": 6, "attacker_count": 1, "honest_count": 6}
    ],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**MINIMAL_CONFIG, "output_dir": str(tmp_path / "out")}))
    return path


def run_config(tmp_path, scenarios, **doc):
    """`ddrm run` of the scenarios into tmp_path / "out", which it returns; the run must exit 0."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**doc, "scenarios": scenarios, "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(path)]) == EXIT_OK
    return tmp_path / "out"


CUT_KINDS = [kind for kind in ALL_KINDS if kind != KIND_COLLUSION]


@pytest.fixture(scope="module")
def seven_kinds(tmp_path_factory):
    """Artifacts of every kind but collusion at seed 7, 12 honest, 2 attackers and 4 rounds."""
    scenarios = [{"name": k, "kind": k, "rounds": 4, "honest_count": 12, "attacker_count": 2} for k in CUT_KINDS]
    return run_config(tmp_path_factory.mktemp("kinds"), scenarios, seed=7)


class TestRun:
    def test_one_scenario_three_artifacts(self, tmp_path, config_path, capsys):
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "demo.metrics.json").exists()
        assert (out / "demo.events.ndjson").exists()
        assert (out / "summary.txt").exists()
        assert "demo" in capsys.readouterr().out

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == EXIT_CONFIG

    def test_unknown_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seeed": 1}))
        assert main(["run", "--config", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("text, key", [
        ('{"seed": 1, "seed": 2}', "seed"),
        ('{"protocol": {"srat_lifetime": 3, "srat_lifetime": 4}}', "srat_lifetime"),
    ], ids=["top-level", "nested"])
    def test_repeated_key_exits_2(self, tmp_path, capsys, text, key):
        # json.loads would keep the last value; no value of a repeated key is taken.
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
        assert f"repeated key {key!r}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    def test_conservation_switch_is_an_unknown_key(self, tmp_path, capsys):
        # The conservation check always runs; there is no key to turn it off.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"protocol": {"check_conservation": False}}))
        assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
        assert "check_conservation" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("override", [["--seed", "3"], ["--out", "elsewhere"]], ids=["seed", "out"])
    @pytest.mark.parametrize("doc", ["[]", '"x"', "3", "null"], ids=["list", "string", "number", "null"])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, doc, override):
        path = tmp_path / "c.json"
        path.write_text(doc)
        assert main(["run", "--config", str(path), *override]) == EXIT_CONFIG
        assert "config error: run config must be a JSON object" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_seeded_rerun_byte_identical(self, tmp_path, config_path, capsys):
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "b")])
        for name in ("demo.metrics.json", "demo.events.ndjson", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_artifacts_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Rosters are sets: only the code's sorting keeps their iteration order out of the artifacts.
        scenarios = [{"name": k, "kind": k, "rounds": 3, "honest_count": 6, "attacker_count": 2} for k in ALL_KINDS]
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": 3, "scenarios": scenarios}))
        src = os.path.dirname(os.path.dirname(ddrm.__file__))
        outputs = []
        for hash_seed in ("0", "12345"):
            out = tmp_path / f"hash-seed-{hash_seed}"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            command = [sys.executable, "-m", "ddrm.cli", "run", "--config", str(config), "--out", str(out)]
            stdout = subprocess.run(command, env=env, capture_output=True, check=True).stdout
            outputs.append((stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert len(outputs[0][1]) == 2 * len(ALL_KINDS) + 1
        assert outputs[0] == outputs[1]

    def test_seed_override_changes_log(self, tmp_path, capsys):
        # Scenario without its own seed inherits the run seed.
        cfg = {
            "scenarios": [{"name": "s", "kind": "sybil", "rounds": 2, "honest_count": 4}],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        main(["run", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "a")])
        main(["run", "--config", str(path), "--seed", "2", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "s.events.ndjson").read_bytes() != (tmp_path / "b" / "s.events.ndjson").read_bytes()

    def test_json_format_prints_metrics(self, config_path, capsys):
        main(["run", "--config", str(config_path), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert "demo" in doc and "badge_accuracy" in doc["demo"]

    def test_bad_scenario_overrides_exit_2_before_any_artifact(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        scenarios = [
            {"name": "a", "kind": "sybil", "rounds": 2, "honest_count": 3},
            {"name": "b", "kind": "sybil", "rounds": 2, "honest_count": 3, "protocol": {"bogus": 1}},
        ]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenarios": scenarios, "output_dir": str(out)}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "scenario b: unknown key(s) in protocol: bogus" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_faucet_too_small_for_the_population_exits_2(self, tmp_path, capsys):
        scenario = {"name": "tiny-faucet", "kind": "bad_mouthing", "rounds": 2, "honest_count": 3}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "protocol": {"faucet_balance_ether": 20}, "scenarios": [scenario], "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "scenario tiny-faucet: faucet cannot cover the genesis credit" in capsys.readouterr().err

    def test_genesis_credit_too_small_to_list_exits_2(self, tmp_path, capsys):
        scenario = {"name": "poor", "kind": "sybil", "rounds": 2, "honest_count": 3}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "protocol": {"genesis_balance_ether": 0.5}, "scenarios": [scenario], "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "scenario poor: P0001 cannot cover listing gas plus fund seed" in capsys.readouterr().err

    def test_one_scenario_state_alive_at_a_time(self, tmp_path, monkeypatch, capsys):
        import ddrm.cli as cli_mod

        sims, checks = [], []

        def all_dead():
            gc.collect()
            return all(ref() is None for ref in sims)

        def run_and_watch(*args):
            checks.append(("run", all_dead()))
            result = run_scenario(*args)
            sims.append(weakref.ref(result.sim))
            return result

        def replay_and_watch(text):
            checks.append(("replay", all_dead()))
            return replay_verify(text)

        monkeypatch.setattr(cli_mod, "run_scenario", run_and_watch)
        monkeypatch.setattr(cli_mod, "replay_verify", replay_and_watch)
        scenarios = [MINIMAL_CONFIG["scenarios"][0], {"name": "s", "kind": "sybil", "rounds": 2, "honest_count": 3}]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenarios": scenarios, "output_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(path)]) == EXIT_OK
        assert checks == [("run", True), ("replay", True), ("run", True), ("replay", True)]

    def test_run_builds_no_log_string(self, tmp_path, config_path, monkeypatch, capsys):
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "plain")])

        def whole_log(self):
            raise AssertionError("ddrm run built the whole log in memory")

        monkeypatch.setattr(ScenarioResult, "log_text", whole_log)
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        names = ["demo.events.ndjson", "demo.metrics.json", "summary.txt"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == names
        for name in names:
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_only_bytes_that_replay_from_disk_are_published(self, tmp_path, config_path, monkeypatch, capsys):
        write_log = Ledger.write_log

        def write_and_add_a_byte(self, f):
            write_log(self, f)
            f.write(b"x")

        monkeypatch.setattr(Ledger, "write_log", write_and_add_a_byte)
        assert main(["run", "--config", str(config_path)]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "scenario demo" in err and "does not end in LF" in err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "name", ["../escaped", "sub/escaped", "sub\\escaped", "..", "nul\0escaped"],
        ids=["parent", "slash", "backslash", "dot-dot", "nul"],
    )
    def test_scenario_name_that_leaves_output_dir_exits_2(self, tmp_path, capsys, name):
        scenario = {"name": name, "kind": "sybil", "rounds": 1, "honest_count": 1}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenarios": [scenario], "output_dir": str(tmp_path / "out" / "run")}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "config error: scenario #0: name" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_output_dir_with_nul_exits_2(self, tmp_path, capsys):
        scenario = {"name": "s", "kind": "sybil", "rounds": 1, "honest_count": 2}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenarios": [scenario], "output_dir": str(tmp_path / "a\0b")}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "config error: output_dir must be a non-empty string without NUL" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize(
        "name, message",
        [
            ("a" * 100_000, "(100002 characters) is longer than 60 bytes of UTF-8"),
            ("a" * 300, "(302 characters) is longer than 60 bytes of UTF-8"),
            ("\u00e9" * 31, "is longer than 60 bytes of UTF-8"),
            ("a\ud800", "name 'a\\ud800' has no UTF-8 form"),
        ],
        ids=["100000-characters", "300-characters", "62-bytes", "lone-surrogate"],
    )
    def test_scenario_name_that_cannot_name_a_file_exits_2_before_running(self, tmp_path, capsys, name, message):
        # The name is refused as the config is read, before the bad attacker_count and before any file is written.
        scenario = {"name": name, "kind": "sybil", "rounds": 1, "honest_count": 1, "attacker_count": "many"}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenarios": [scenario], "output_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: scenario #0: name ") and message in err and len(err) < 200
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_60_byte_scenario_name_runs(self, tmp_path):
        name = "\u00e9" * 30
        assert (run_config(tmp_path, [{"name": name, "kind": "sybil", "rounds": 1, "honest_count": 1}])
                / f"{name}.events.ndjson").is_file()

    def test_output_dir_without_utf8_form_exits_2(self, tmp_path, capsys):
        scenario = {"name": "s", "kind": "sybil", "rounds": 1, "honest_count": 1}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenarios": [scenario], "output_dir": str(tmp_path / "o\ud800")}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "config error: output_dir '" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_out_whose_bytes_are_not_utf8_runs(self, tmp_path, config_path):
        # argv carries such bytes as surrogate escapes, which the file system takes back as the same bytes.
        out = os.fsdecode(os.fsencode(tmp_path) + b"/o\xff")
        assert main(["run", "--config", str(config_path), "--out", out]) == EXIT_OK
        assert (tmp_path / "o\udcff" / "demo.events.ndjson").is_file()
        assert b"o\xff" in os.listdir(os.fsencode(tmp_path))

    @pytest.mark.parametrize("below", ["", "sub"], ids=["names-a-file", "below-a-file"])
    def test_unusable_output_dir_exits_2(self, tmp_path, capsys, below):
        (tmp_path / "file").write_text("not a directory")
        out = tmp_path / "file" / below
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**MINIMAL_CONFIG, "output_dir": str(out)}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert f"config error: cannot write output_dir {out}" in capsys.readouterr().err

    def test_unwritable_log_name_exits_2_and_leaves_no_temporary_file(self, tmp_path, config_path, capsys):
        (tmp_path / "out" / "demo.events.ndjson").mkdir(parents=True)
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
        assert "cannot write output_dir" in capsys.readouterr().err
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["demo.events.ndjson"]


class TestUntrustedNumbers:
    SCENARIO = {"name": "s", "kind": "sybil", "rounds": 1, "honest_count": 1}

    @pytest.mark.parametrize(
        "doc",
        [
            {"usd_per_ether": float("nan")},
            {"usd_per_ether": float("inf")},
            {"protocol": {"srdt_discount_rate": float("nan")}},
            {"protocol": {"genesis_balance_ether": 1e-30}},
            {"protocol": {"genesis_balance_ether": "1e999999"}},
            {"protocol": {"genesis_balance_ether": "1e-9999999"}},
            {"protocol": {"genesis_balance_ether": "1.0000000000000000000000000001"}},
            {"protocol": {"genesis_balance_ether": "1e5000", "faucet_balance_ether": "1e5001"}},
            {"protocol": {"gas": {"gas_price_gwei": "1e999999"}}},
            {"scenarios": [{**SCENARIO, "service_cost_ether": 1e-30}]},
            {"scenarios": [{**SCENARIO, "service_cost_ether": "1e5000"}]},
            {"scenarios": [{**SCENARIO, "service_cost_ether": float("nan")}]},
            {"scenarios": [{**SCENARIO, "service_cost_ether": "abc"}]},
            {"scenarios": [{**SCENARIO, "service_cost_ether": [1]}]},
            # Python's Decimal takes blanks and digit-group underscores; JSON's number syntax does not.
            {"protocol": {"genesis_balance_ether": " 1_0 "}},
            {"protocol": {"genesis_balance_ether": "1_000"}},
            {"protocol": {"genesis_balance_ether": "\t5\n"}},
            {"usd_per_ether": " 1_586 "},
            {"protocol": {"srdt_discount_rate": " 0.2_5 "}},
            {"protocol": {"gas": {"gas_price_gwei": " 2_9 "}}},
            # NaN fails every comparison, so only a check written `not low <= value <= high` refuses it.
            {"scenarios": [{**SCENARIO, "honest_vote_probability": float("nan")}]},
            {"scenarios": [{**SCENARIO, "honest_vote_probability": float("inf")}]},
            {"scenarios": [{**SCENARIO, "honest_vote_probability": float("-inf")}]},
            # The harness loops or allocates once per unit of each count, so none of these would end.
            {"scenarios": [{**SCENARIO, "rounds": 10**21}]},
            {"scenarios": [{**SCENARIO, "attacker_count": 10**21}]},
            {"scenarios": [{**SCENARIO, "fake_identities_per_attacker": 10**21}]},
            {"scenarios": [{**SCENARIO, "honest_count": 10**21}]},
        ],
        ids=[
            "usd-nan", "usd-inf", "discount-nan", "genesis-sub-wei", "genesis-overflow", "genesis-tiny",
            "genesis-29th-digit-sub-wei", "genesis-and-faucet-past-uint256", "gas-price-overflow",
            "cost-sub-wei", "cost-past-uint256", "cost-nan", "cost-string", "cost-list",
            "genesis-blank-underscore", "genesis-underscore", "genesis-tab-newline", "usd-blank-underscore",
            "discount-blank-underscore", "gas-price-blank-underscore",
            "probability-nan", "probability-inf", "probability-minus-inf",
            "rounds-huge", "attackers-huge", "fakes-huge", "honest-huge",
        ],
    )
    def test_bad_number_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "out")}))
        start = time.perf_counter()
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert time.perf_counter() - start < 1.0
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"protocol": {"genesis_balance_ether": "1e5000", "faucet_balance_ether": "1e5001"}},
             "genesis_balance_ether: '1e5000' is more than 2**256 - 1 Wei"),
            ({"scenarios": [{**SCENARIO, "service_cost_ether": "1e5000"}]},
             "scenario s: service_cost_ether: '1e5000' is more than 2**256 - 1 Wei"),
            ({"protocol": {"gas": {"gas_price_gwei": 0.1e-9}}},
             "gas.gas_price_gwei: 1e-10 is not a whole number of Wei"),
        ],
        ids=["genesis", "service-cost", "gas-price"],
    )
    def test_wei_amount_failure_names_its_key(self, tmp_path, capsys, doc, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            {"protocol": {"genesis_balance_ether": "1" * 99_999 + "x"}},
            {"protocol": {"genesis_balance_ether": "1" * 4000}},
            {"usd_per_ether": "1" * 99_999 + "x"},
            {"usd_per_ether": "1" * 4000},
            {"protocol": {"srdt_discount_rate": "0." + "1" * 4000}},
            {"scenarios": [{**SCENARIO, "kind": "k" * 100_000}]},
        ],
        ids=["malformed-amount", "amount-past-uint256", "malformed-usd", "usd-digits", "discount-digits", "kind"],
    )
    def test_long_input_gives_a_short_message(self, tmp_path, capsys, doc):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and len(err) < 200

    def test_29_digit_ether_amount_parses_exactly(self):
        doc = {"protocol": {"faucet_balance_ether": "12345678901234567890123456789"}}
        assert parse_run_config(doc).protocol.faucet_balance == 12345678901234567890123456789 * 10**18


    @pytest.mark.parametrize(
        "rate", ["1e-9999999", "1e9999999", f"1e-{RATE_DIGITS + 1}"], ids=["tiny", "huge", "one-digit-over"]
    )
    def test_discount_rate_exponent_bounded(self, tmp_path, capsys, rate):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"protocol": {"srdt_discount_rate": rate}, "output_dir": str(tmp_path)}))
        start = time.perf_counter()
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert time.perf_counter() - start < 1.0
        assert "srdt_discount_rate" in capsys.readouterr().err

    def test_discount_rate_at_the_digit_limit_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        rate = f"1e-{RATE_DIGITS}"
        path.write_text(json.dumps({"protocol": {"srdt_discount_rate": rate}, "output_dir": str(tmp_path)}))
        assert main(["run", "--config", str(path)]) == EXIT_OK

    @pytest.mark.parametrize(
        "command, key",
        [("gas-table", "usd_per_ether"), ("run", "usd_per_ether"), ("run", "seed")],
        ids=["gas-table-usd", "run-usd", "run-seed"],
    )
    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys, command, key):
        # Python refuses to parse an int literal of more than 4300 digits.
        path = tmp_path / "c.json"
        path.write_text(f'{{"{key}": {"7" * 5000}, "output_dir": "{tmp_path}"}}')
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gas-table", "run"])
    @pytest.mark.parametrize("usd", ["1e9999999", f"1e{USD_DIGITS}"], ids=["huge", "one-digit-over"])
    def test_usd_rate_digits_bounded(self, tmp_path, capsys, command, usd):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"usd_per_ether": usd, "output_dir": str(tmp_path)}))
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert "usd_per_ether allows at most" in capsys.readouterr().err

    def test_usd_rate_at_the_digit_limit_accepted(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"usd_per_ether": "9" * USD_DIGITS}))
        assert main(["gas-table", "--config", str(path), "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)[0]["total_usd"].startswith("528999")

    @pytest.mark.parametrize("name", [["x"], 5, {"a": 1}], ids=["list", "int", "object"])
    def test_non_string_scenario_name_exits_2(self, tmp_path, capsys, name):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenarios": [{**self.SCENARIO, "name": name}], "output_dir": str(tmp_path)}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "name must be a string" in capsys.readouterr().err


class TestDeepNesting:
    DEEP = "[" * 100_000 + "]" * 100_000

    def test_deep_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(self.DEEP)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_deep_log_line_exits_4(self, tmp_path):
        path = tmp_path / "deep.events.ndjson"
        path.write_text(self.DEEP + "\n")
        assert main(["verify", str(path)]) == EXIT_CHAIN

    def test_deep_metrics_exits_2(self, tmp_path, config_path, capsys):
        main(["run", "--config", str(config_path)])
        metrics = tmp_path / "deep.json"
        metrics.write_text(self.DEEP)
        assert main(["verify", str(tmp_path / "out" / "demo.events.ndjson"), "--metrics", str(metrics)]) == EXIT_CONFIG
        assert "cannot read metrics" in capsys.readouterr().err


class TestGasTable:
    def test_default_table_reproduces_published_numbers(self, capsys):
        assert main(["gas-table"]) == EXIT_OK
        out = capsys.readouterr().out
        for needle in (
            "182304", "0.000529", "0.839",
            "63789", "0.000185", "0.293",
            "86532", "0.000251", "0.398",
            "2.9",
        ):
            assert needle in out

    def test_json_format(self, capsys):
        main(["gas-table", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert [r["total_usd"] for r in rows] == ["0.839", "0.293", "0.398"]

    def test_huge_usd_rate_prints_exact_rows(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"usd_per_ether": 1e30}))
        assert main(["gas-table", "--config", str(path), "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["total_usd"] for r in rows] == [
            "529000000000000000000000000.000",
            "185000000000000000000000000.000",
            "251000000000000000000000000.000",
        ]

    def test_huge_gas_price_prints_exact_totals(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"protocol": {"gas": {"gas_price_gwei": 1e30}}}))
        assert main(["gas-table", "--config", str(path), "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        # gas_used * 10**39 Wei is gas_used * 10**21 Ether, times 1586 USD per Ether.
        assert [(r["total_ether"], r["total_usd"]) for r in rows] == [
            (f"{used * 10**21}.000000", f"{used * 10**21 * 1586}.000")
            for used in (182304, 63789, 86532)
        ]

    @pytest.mark.parametrize(
        "price, printed",
        [("1234567890123456789012345678.9", "1234567890123456789012345678.9"), (1e30, "1" + "0" * 30)],
        ids=["29-digit", "1e30"],
    )
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_huge_gas_price_prints_exact_gwei(self, tmp_path, capsys, price, printed, fmt):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"protocol": {"gas": {"gas_price_gwei": price}}}))
        assert main(["gas-table", "--config", str(path), "--format", fmt]) == EXIT_OK
        out = capsys.readouterr().out
        if fmt == "json":
            assert [r["gas_price_gwei"] for r in json.loads(out)] == [printed] * 3
        else:
            assert [line.split()[-3] for line in out.splitlines()[2:]] == [printed] * 3

    def test_gas_override_via_config(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "protocol": {"gas": {"add_service": {"gas_limit": 300000, "gas_used": 200000}}},
        }))
        main(["gas-table", "--config", str(path)])
        assert "200000" in capsys.readouterr().out

    def test_invalid_gas_config_exits_2(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"protocol": {"gas": {"add_service": {"gas_limit": 1, "gas_used": 2}}}}))
        assert main(["gas-table", "--config", str(path)]) == EXIT_CONFIG

    def test_submit_review_gas_row_is_an_unknown_key(self, tmp_path, capsys):
        # Reviews are paid from the service's review fund; no gas row charges them.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"protocol": {"gas": {"submit_review": {"gas_limit": 2, "gas_used": 1}}}}))
        assert main(["gas-table", "--config", str(path)]) == EXIT_CONFIG
        assert "unknown key(s) in gas: submit_review" in capsys.readouterr().err


class TestVerify:
    def _run(self, tmp_path, config_path):
        main(["run", "--config", str(config_path)])
        out = tmp_path / "out"
        return out / "demo.events.ndjson", out / "demo.metrics.json"

    def test_pristine_log_verifies(self, tmp_path, config_path, capsys):
        log, metrics = self._run(tmp_path, config_path)
        assert main(["verify", str(log)]) == EXIT_OK
        assert "metrics match" in capsys.readouterr().out

    def test_edited_line_exits_4(self, tmp_path, config_path):
        log, _ = self._run(tmp_path, config_path)
        lines = log.read_text().splitlines()
        lines[5] = lines[5].replace('"tick":', '"tick": 9', 1) if '"tick":' in lines[5] else lines[5] + " "
        log.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(log)]) == EXIT_CHAIN

    def test_reordered_lines_exit_4(self, tmp_path, config_path, capsys):
        log, _ = self._run(tmp_path, config_path)
        lines = log.read_text().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        log.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(log)]) == EXIT_CHAIN
        assert "chain broken at seq 3: seq gap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b.replace(b'":', b'": ', 1), "chain broken at seq 0: not canonical"),
            (lambda b: b.replace(b"\n{", b'\n{"forged":"anything",', 1), "chain broken at seq 1: not canonical"),
            (lambda b: b.replace(b"\n", b"\r", 1), "malformed event at seq 0: data after the JSON object"),
            (lambda b: b.replace(b"\n", b"\x1c", 1), "malformed event at seq 0: data after the JSON object"),
            (lambda b: b.replace(b"\n", b"\n\n", 1), "chain broken at seq 1: not canonical: blank line"),
            (lambda b: b[:-1], "chain broken at seq {last}: not canonical: the last line does not end in LF"),
            (lambda b: b.replace(b"\n", b"\r\n"), "malformed event at seq 0: data after the JSON object"),
        ],
        ids=["space-after-colon", "extra-key", "lf-to-cr", "lf-to-fs", "blank-line", "no-final-lf", "crlf"],
    )
    def test_non_canonical_bytes_exit_4(self, tmp_path, config_path, capsys, edit, message):
        log, _ = self._run(tmp_path, config_path)
        exported = log.read_bytes()
        log.write_bytes(edit(exported))
        assert main(["verify", str(log)]) == EXIT_CHAIN
        assert message.format(last=exported.count(b"\n") - 1) in capsys.readouterr().err

    def test_wrong_metrics_exit_5(self, tmp_path, config_path, capsys):
        log, metrics = self._run(tmp_path, config_path)
        doc = json.loads(metrics.read_text())
        spend, exclusions = doc["metrics"]["attacker_spend_wei"], doc["metrics"]["exclusions"]
        doc["metrics"]["attacker_spend_wei"] += 1
        doc["metrics"]["exclusions"] += 2
        metrics.write_text(json.dumps(doc))
        assert main(["verify", str(log), "--metrics", str(metrics)]) == EXIT_MISMATCH
        err = capsys.readouterr().err
        assert f"attacker_spend_wei: recorded {spend + 1}, replayed {spend}" in err
        assert f"exclusions: recorded {exclusions + 2}, replayed {exclusions}" in err
        assert "final_log_hash" not in err and "badge_accuracy" not in err

    def test_long_recorded_value_gives_a_short_message(self, tmp_path, config_path, capsys):
        log, metrics = self._run(tmp_path, config_path)
        doc = json.loads(metrics.read_text())
        doc["final_log_hash"] = "f" * 100_000
        metrics.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(log), "--metrics", str(metrics)]) == EXIT_MISMATCH
        err = capsys.readouterr().err
        assert "final_log_hash: recorded 'ffff" in err and "(100002 characters)" in err
        assert len(err) < 300

    @pytest.mark.parametrize("cut", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("kind", CUT_KINDS)
    def test_log_cut_at_a_line_boundary_fails_against_its_metrics(self, seven_kinds, tmp_path, capsys, kind, cut):
        lines = (seven_kinds / f"{kind}.events.ndjson").read_bytes().splitlines(keepends=True)
        log = tmp_path / "cut.events.ndjson"
        log.write_bytes(b"".join(lines[:-cut]))
        metrics = seven_kinds / f"{kind}.metrics.json"
        recorded = json.loads(metrics.read_text())["final_log_hash"]
        assert main(["verify", str(log), "--metrics", str(metrics)]) == EXIT_MISMATCH
        replayed = json.loads(lines[-cut - 1])["hash"]
        assert f"final_log_hash: recorded {recorded!r}, replayed {replayed!r}" in capsys.readouterr().err

    def test_swapped_metrics_file_with_equal_metrics_exits_5(self, tmp_path, capsys):
        # The two runs differ only in the scenario name, which the log records and the metrics do not.
        out = run_config(tmp_path, [{"name": name, "kind": "sybil", "rounds": 2, "honest_count": 3} for name in "ab"])
        a, b = (json.loads((out / f"{name}.metrics.json").read_text()) for name in "ab")
        assert a["metrics"] == b["metrics"] and a["final_log_hash"] != b["final_log_hash"]
        capsys.readouterr()
        assert main(["verify", str(out / "a.events.ndjson"), "--metrics", str(out / "b.metrics.json")]) == EXIT_MISMATCH
        claims = capsys.readouterr().err.splitlines()[1:]
        assert claims == [f"  final_log_hash: recorded {b['final_log_hash']!r}, replayed {a['final_log_hash']!r}"]

    def test_metrics_file_without_final_log_hash_exits_2(self, tmp_path, config_path, capsys):
        log, metrics = self._run(tmp_path, config_path)
        doc = json.loads(metrics.read_text())
        del doc["final_log_hash"]
        metrics.write_text(json.dumps(doc))
        assert main(["verify", str(log)]) == EXIT_CONFIG
        assert "cannot read metrics" in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(ScenarioMetrics().to_dict()))
    def test_metrics_file_without_a_claim_exits_2(self, tmp_path, config_path, capsys, name):
        # No default stands in for the claim, not even where it equals the run's value (the last two).
        log, metrics = self._run(tmp_path, config_path)
        doc = json.loads(metrics.read_text())
        del doc["metrics"][name]
        metrics.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(log)]) == EXIT_CONFIG
        assert f"cannot read metrics {metrics}: missing claim {name!r}" in capsys.readouterr().err

    def test_metrics_file_with_a_repeated_claim_exits_2(self, tmp_path, config_path, capsys):
        # The replayed value comes last, where json.loads would take it from; the first is false.
        log, metrics = self._run(tmp_path, config_path)
        text = metrics.read_text()
        metrics.write_text(text.replace('"metrics": {', '"metrics": {"exclusions": 999,', 1))
        capsys.readouterr()
        assert main(["verify", str(log)]) == EXIT_CONFIG
        assert f"cannot read metrics {metrics}: repeated key 'exclusions'" in capsys.readouterr().err

    def test_metrics_file_without_two_claims_exits_2(self, tmp_path, config_path, capsys):
        log, metrics = self._run(tmp_path, config_path)
        doc = json.loads(metrics.read_text())
        del doc["metrics"]["provider_dret_delta"], doc["metrics"]["refund_fraud_approved"]
        metrics.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(log)]) == EXIT_CONFIG
        assert "missing claim 'refund_fraud_approved'" in capsys.readouterr().err

    @pytest.mark.parametrize("metrics_value, message", [
        ({"note": 1}, "unknown claim 'note'"),
        ([], "metrics must be an object, not list"),
    ], ids=["unknown-claim", "list"])
    def test_metrics_file_with_other_claims_exits_2(self, tmp_path, config_path, capsys, metrics_value, message):
        log, metrics = self._run(tmp_path, config_path)
        doc = json.loads(metrics.read_text())
        doc["metrics"] = {**doc["metrics"], **metrics_value} if type(metrics_value) is dict else metrics_value
        metrics.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(log)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "unexpected keyword" not in err

    @pytest.mark.parametrize("name, retype", [
        ("refund_fraud_approved", bool), ("provider_dret_delta", float), ("exclusions", float),
        ("badge_accuracy", int),
    ])
    def test_claim_of_another_type_exits_5(self, tmp_path, config_path, capsys, name, retype):
        log, metrics = self._run(tmp_path, config_path)
        doc = json.loads(metrics.read_text())
        value = doc["metrics"][name]
        assert retype(value) == value and type(retype(value)) is not type(value)
        doc["metrics"][name] = retype(value)
        metrics.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(log)]) == EXIT_MISMATCH
        claims = capsys.readouterr().err.splitlines()[1:]
        assert claims == [f"  {name}: recorded {retype(value)!r}, replayed {value!r}"]

    def test_missing_log_exits_2(self, tmp_path):
        assert main(["verify", str(tmp_path / "missing.ndjson")]) == EXIT_CONFIG

    def test_missing_explicit_metrics_exits_2(self, tmp_path, config_path, capsys):
        # A mistyped --metrics path must not skip the comparison silently.
        log, metrics = self._run(tmp_path, config_path)
        assert main(["verify", str(log), "--metrics", str(metrics) + ".typo"]) == EXIT_CONFIG
        assert "cannot read metrics" in capsys.readouterr().err

    def test_absent_sibling_metrics_skips_the_comparison(self, tmp_path, config_path, capsys):
        log, metrics = self._run(tmp_path, config_path)
        metrics.unlink()
        assert main(["verify", str(log)]) == EXIT_OK
        assert "ok: chain intact (no metrics file to compare)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "seq, tick",
        [(0, "a"), (0, True), (0, 0.5), (False, 0), (0.0, 0)],
        ids=["tick-string", "tick-bool", "tick-float", "seq-bool", "seq-float"],
    )
    def test_non_integer_seq_or_tick_exits_4(self, tmp_path, capsys, seq, tick):
        # Hashed over the bad values, so only the field types are wrong.
        payload = {"note": "one event"}
        digest = record_hash(seq, tick, "Note", canonical_payload(payload), ZERO_DIGEST)
        line = {"seq": seq, "tick": tick, "kind": "Note", "payload": payload,
                "prev_hash": ZERO_DIGEST, "hash": digest}
        path = tmp_path / "one.events.ndjson"
        path.write_text(json.dumps(line) + "\n")
        assert main(["verify", str(path)]) == EXIT_CHAIN
        assert "seq and tick must be integers" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "kind, payload, message",
        [
            (5, {"note": "x"}, "kind, hash and prev_hash must be strings"),
            (["X"], {"note": "x"}, "kind, hash and prev_hash must be strings"),
            ("Note", 5, "payload must be a JSON object, not int"),
            ("Note", [1, 2], "payload must be a JSON object, not list"),
        ],
        ids=["kind-int", "kind-list", "payload-int", "payload-list"],
    )
    def test_mistyped_kind_or_payload_exits_4(self, tmp_path, capsys, kind, payload, message):
        # Hashed over the bad values, so only the field types are wrong.
        digest = record_hash(0, 0, kind, canonical_payload(payload), ZERO_DIGEST)
        line = {"seq": 0, "tick": 0, "kind": kind, "payload": payload, "prev_hash": ZERO_DIGEST, "hash": digest}
        path = tmp_path / "one.events.ndjson"
        path.write_text(json.dumps(line) + "\n")
        assert main(["verify", str(path)]) == EXIT_CHAIN
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("seq", [0, 2])
    def test_lone_surrogate_kind_exits_4(self, tmp_path, capsys, seq):
        # JSON can escape a lone surrogate; the hash preimage cannot hold one as UTF-8, and no kind in EVENTS has one.
        sim = make_sim(seed=5)
        provider_and_service(sim)
        lines = exported_log(sim.ledger).split(b"\n")
        kind = json.dumps(sim.ledger.log[seq].kind).encode()
        lines[seq] = lines[seq].replace(b'"kind":' + kind, b'"kind":"\\ud800"', 1)
        path = tmp_path / "one.events.ndjson"
        path.write_bytes(b"\n".join(lines))
        assert main(["verify", str(path)]) == EXIT_CHAIN
        assert f"verification failed: malformed event at seq {seq}: unknown kind '\\ud800'" in capsys.readouterr().err

    def test_integer_past_the_digit_limit_exits_4(self, tmp_path, capsys):
        path = tmp_path / "one.events.ndjson"
        path.write_text(
            f'{{"hash":"{ZERO_DIGEST}","kind":"Note","payload":{{}},'
            f'"prev_hash":"{ZERO_DIGEST}","seq":{"1" * 5000},"tick":0}}\n'
        )
        assert main(["verify", str(path)]) == EXIT_CHAIN
        assert "verification failed" in capsys.readouterr().err

    def test_non_utf8_log_exits_4(self, tmp_path, config_path, capsys):
        log, _ = self._run(tmp_path, config_path)
        log.write_bytes(b"\xff\xfe" + log.read_bytes())
        assert main(["verify", str(log)]) == EXIT_CHAIN
        assert "verification failed: malformed event at seq 0: log is not UTF-8" in capsys.readouterr().err

    def test_forged_setup_with_a_non_pair_ground_truth_exits_4(self, tmp_path, config_path, capsys):
        # Re-hashed after the edit, so the chain holds and only the ScenarioSetup row can refuse it.
        def edit(rec):
            if rec.kind == "ScenarioSetup":
                rec.payload["ground_truth"] = ["abc"]

        log, _ = self._run(tmp_path, config_path)
        log.write_bytes(forged_log(log.read_bytes(), edit))
        assert main(["verify", str(log)]) == EXIT_CHAIN
        assert "kind ScenarioSetup: mistyped field 'ground_truth'" in capsys.readouterr().err

    def test_mistyped_payload_failure_names_its_record(self, tmp_path, config_path, capsys):
        # Re-hashed, so the chain holds and the reader refuses the first purchase.
        edited = []

        def edit(rec):
            if rec.kind == "ServicePurchased" and not edited:
                rec.payload["price_paid_wei"] = "lots"
                edited.append(rec.seq)

        log, _ = self._run(tmp_path, config_path)
        log.write_bytes(forged_log(log.read_bytes(), edit))
        assert main(["verify", str(log)]) == EXIT_CHAIN
        err = capsys.readouterr().err
        assert f"malformed event at seq {edited[0]}, kind ServicePurchased: mistyped field 'price_paid_wei'" in err

    @pytest.mark.parametrize(
        "field, forge",
        [
            ("attackers", "".join),
            ("target_providers", lambda ids: ids[0]),
            ("ground_truth", lambda truth: dict.fromkeys(truth, "Mediocre")),
        ],
        ids=["joined-attackers", "string-targets", "unknown-quality"],
    )
    def test_forged_setup_shape_exits_4(self, tmp_path, capsys, field, forge):
        # Re-hashed, and with no metrics file beside it, so only the setup's shape can be refused.
        def edit(rec):
            if rec.kind == "ScenarioSetup":
                rec.payload[field] = forge(rec.payload[field])

        doc = {"name": "c", "kind": "collusion", "rounds": 3, "honest_count": 12, "attacker_count": 2}
        log = tmp_path / "forged.events.ndjson"
        log.write_bytes(forged_log(run_scenario(parse_scenario(doc, 0)).log_text(), edit))
        assert main(["verify", str(log)]) == EXIT_CHAIN
        assert f"kind ScenarioSetup: mistyped field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, change, message",
        [
            ("Registered", lambda rec: setattr(rec, "kind", "Ping"), "unknown kind 'Ping'"),
            ("Registered", lambda rec: rec.payload.update(note="x"), "kind Registered: unknown field 'note'"),
            ("GasCharged", lambda rec: rec.payload.update(amount_wei=-5),
             "kind GasCharged: mistyped field 'amount_wei'"),
        ],
        ids=["unknown-kind", "extra-key", "negative-wei"],
    )
    def test_record_off_the_events_table_exits_4(self, tmp_path, config_path, capsys, kind, change, message):
        # Re-hashed after editing the first record of `kind`, so only the EVENTS table can refuse it.
        edited = []

        def edit(rec):
            if rec.kind == kind and not edited:
                edited.append(rec.seq)
                change(rec)

        log, _ = self._run(tmp_path, config_path)
        log.write_bytes(forged_log(log.read_bytes(), edit))
        assert main(["verify", str(log)]) == EXIT_CHAIN
        err = capsys.readouterr().err
        assert f"verification failed: malformed event at seq {edited[0]}" in err and message in err

    @pytest.mark.parametrize(
        "cut, code, message",
        [(0, EXIT_OK, "ok: chain intact"), (1, EXIT_CHAIN, "not canonical: the last line does not end in LF")],
        ids=["whole", "no-final-lf"],
    )
    def test_log_on_a_pipe(self, capsys, cut, code, message):
        sim = make_sim(seed=5)
        provider_and_service(sim)
        data = exported_log(sim.ledger)
        read_fd, write_fd = os.pipe()  # the log is far below a pipe's buffer, so one write cannot block
        try:
            with os.fdopen(write_fd, "wb") as writer:
                writer.write(data[: len(data) - cut])
            assert main(["verify", f"/dev/fd/{read_fd}"]) == code
        finally:
            os.close(read_fd)
        out, err = capsys.readouterr()
        assert message in (out if code == EXIT_OK else err)

    def test_verify_memory_does_not_grow_with_the_log(self, tmp_path, capsys):
        scenarios = [{"name": "big", "kind": "collusion", "rounds": 12, "honest_count": 96, "attacker_count": 16}]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenarios": scenarios, "output_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(path)]) == EXIT_OK
        log = tmp_path / "out" / "big.events.ndjson"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(["verify", str(log)]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * log.stat().st_size

    def test_metrics_integer_past_the_digit_limit_exits_2(self, tmp_path, config_path, capsys):
        log, metrics = self._run(tmp_path, config_path)
        text = metrics.read_text()
        metrics.write_text(text.replace('"exclusions": ', f'"exclusions": {"1" * 5000}', 1))
        assert main(["verify", str(log)]) == EXIT_CONFIG
        assert "cannot read metrics" in capsys.readouterr().err


class TestPrintDefaults:
    def test_defaults_are_valid_config(self, capsys):
        assert main(["print-defaults"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        from ddrm import parse_run_config

        config = parse_run_config(doc)
        assert config.protocol.endorsement_quorum == 3
        assert config.protocol.gas.rows["add_service"].gas_used == 182304
        assert doc["protocol"]["gas"]["gas_price_gwei"] == 2.9


class TestParser:
    def test_command_replaced_after_the_first_call_is_the_one_run(self, monkeypatch, capsys):
        import ddrm.cli as cli_mod

        assert main(["print-defaults"]) == EXIT_OK
        parser = cli_mod.build_parser()
        seen = []
        monkeypatch.setattr(cli_mod, "cmd_verify", lambda args: seen.append(args.log) or 17)
        assert main(["verify", "some.events.ndjson"]) == 17
        assert seen == ["some.events.ndjson"]
        assert cli_mod.build_parser() is parser


class TestInvariantExit:
    def test_diverging_replay_exits_3(self, tmp_path, config_path, monkeypatch):
        import ddrm.cli as cli_mod
        from ddrm import ScenarioMetrics

        monkeypatch.setattr(cli_mod, "replay_verify", lambda log: ScenarioMetrics(exclusions=999))
        assert main(["run", "--config", str(config_path)]) == EXIT_INVARIANT

    @staticmethod
    def _edit_live_record(monkeypatch, seq, edit):
        """Make `ddrm run` apply edit(record) to live record `seq` once its scenario has run."""
        import ddrm.cli as cli_mod

        def run_and_edit(*args):
            result = run_scenario(*args)
            edit(result.sim.ledger.log[seq])
            return result

        monkeypatch.setattr(cli_mod, "run_scenario", run_and_edit)

    def test_broken_live_chain_names_the_check(self, tmp_path, config_path, monkeypatch, capsys):
        def tick_back(rec):
            rec.tick = -1

        self._edit_live_record(monkeypatch, 5, tick_back)
        assert main(["run", "--config", str(config_path)]) == EXIT_INVARIANT
        assert "scenario demo: chain broken at seq 5: tick regression: -1 after" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_payload_edited_after_append_exits_3(self, tmp_path, config_path, monkeypatch, capsys):
        # A live record holds only the bytes its hash covers, so an edit reaches the export.
        def edit(rec):
            rec.payload_json = canonical_payload({**rec.payload, "edited": True})

        self._edit_live_record(monkeypatch, 3, edit)
        assert main(["run", "--config", str(config_path)]) == EXIT_INVARIANT
        assert "scenario demo: chain broken at seq 3: hash mismatch" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "field, new", [("hash", lambda rec: "f" * 64), ("tick", lambda rec: rec.tick + 1)], ids=["hash", "tick"]
    )
    def test_edited_live_field_exits_3_naming_scenario_and_seq(self, tmp_path, config_path, monkeypatch, capsys,
                                                               field, new):
        # test_payload_edited_after_append_exits_3 edits the record's third field, payload_json.
        self._edit_live_record(monkeypatch, 7, lambda rec: setattr(rec, field, new(rec)))
        assert main(["run", "--config", str(config_path)]) == EXIT_INVARIANT
        assert "scenario demo: chain broken at seq 7: hash mismatch" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_log_missing_its_last_record_fails_the_head_check(self, tmp_path, monkeypatch, capsys):
        import ddrm.cli as cli_mod

        runs, written, write_log = [], [], Ledger.write_log

        def run_and_keep(*args):
            runs.append(run_scenario(*args))
            return runs[-1]

        def write_all_but_the_last(self, f):
            whole = io.BytesIO()
            write_log(self, whole)
            written.append(whole.getvalue()[: whole.getvalue().rindex(b"\n", 0, -1) + 1])
            f.write(written[-1])

        monkeypatch.setattr(cli_mod, "run_scenario", run_and_keep)
        monkeypatch.setattr(Ledger, "write_log", write_all_but_the_last)
        path = tmp_path / "c.json"
        scenario = {"name": "fr", "kind": KIND_FALSE_REFUND, "rounds": 4, "honest_count": 12, "attacker_count": 2}
        path.write_text(json.dumps({"seed": 7, "scenarios": [scenario], "output_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(path)]) == EXIT_INVARIANT
        # The cut log replays to the live metrics: only its last hash tells it apart.
        assert replay_verify(written[0]) == runs[0].metrics
        head, cut_head = runs[0].final_log_hash(), runs[0].sim.ledger.log[-2].hash
        assert capsys.readouterr().err == (
            "invariant violation: scenario fr: replay from disk differs from the live run:\n"
            f"  final_log_hash: recorded {head!r}, replayed {cut_head!r}\n"
        )
        assert list((tmp_path / "out").iterdir()) == []

    def test_replayed_metric_that_differs_exits_3_naming_it(self, tmp_path, config_path, monkeypatch, capsys):
        # The replayed log ends at the live head; only one replayed metric is off.
        import ddrm.cli as cli_mod

        replayed = []

        def replay_one_exclusion_more(log):
            replayed.append(replay_verify(log))
            return replace(replayed[-1], exclusions=replayed[-1].exclusions + 1)

        monkeypatch.setattr(cli_mod, "replay_verify", replay_one_exclusion_more)
        assert main(["run", "--config", str(config_path)]) == EXIT_INVARIANT
        exclusions = replayed[0].exclusions
        assert capsys.readouterr().err == (
            "invariant violation: scenario demo: replay from disk differs from the live run:\n"
            f"  exclusions: recorded {exclusions!r}, replayed {exclusions + 1!r}\n"
        )
        assert list((tmp_path / "out").iterdir()) == []


class TestUsdRateDerivation:
    def test_published_usd_figures_imply_one_rate(self):
        # Dividing each USD figure by its Ether figure recovers ~1586 $/ETH.
        from decimal import Decimal

        from ddrm import ProtocolConfig, gas_table_rows

        rows = gas_table_rows(ProtocolConfig().gas, Decimal("1586.0"))
        for row in rows:
            ratio = row.total_usd / row.total_ether
            assert Decimal("1580") < ratio < Decimal("1590")
