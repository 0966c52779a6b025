"""Command-line interface: commands, exit codes, artifact stability."""

import gc
import json
import os
import time
import tracemalloc
import weakref

import pytest

from ddrm import parse_scenario, replay_verify, run_scenario
from ddrm.adversary import ScenarioResult
from ddrm.cli import EXIT_CHAIN, EXIT_CONFIG, EXIT_INVARIANT, EXIT_MISMATCH, EXIT_OK, main
from ddrm.config import RATE_DIGITS, USD_DIGITS
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

    def test_conservation_switch_is_an_unknown_key(self, tmp_path, capsys):
        # The conservation check always runs; there is no key to turn it off.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"protocol": {"check_conservation": False}}))
        assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
        assert "check_conservation" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_seeded_rerun_byte_identical(self, tmp_path, config_path, capsys):
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "b")])
        for name in ("demo.metrics.json", "demo.events.ndjson", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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
            {"scenarios": [{**SCENARIO, "service_cost_ether": 1e-30}]},
            {"scenarios": [{**SCENARIO, "service_cost_ether": float("nan")}]},
            {"scenarios": [{**SCENARIO, "service_cost_ether": "abc"}]},
            {"scenarios": [{**SCENARIO, "service_cost_ether": [1]}]},
        ],
        ids=[
            "usd-nan", "usd-inf", "discount-nan", "genesis-sub-wei", "genesis-overflow",
            "cost-sub-wei", "cost-nan", "cost-string", "cost-list",
        ],
    )
    def test_bad_number_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


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

    def test_wrong_metrics_exit_5(self, tmp_path, config_path):
        log, metrics = self._run(tmp_path, config_path)
        doc = json.loads(metrics.read_text())
        doc["metrics"]["attacker_spend_wei"] += 1
        metrics.write_text(json.dumps(doc))
        assert main(["verify", str(log), "--metrics", str(metrics)]) == EXIT_MISMATCH

    def test_missing_log_exits_2(self, tmp_path):
        assert main(["verify", str(tmp_path / "missing.ndjson")]) == EXIT_CONFIG

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
        # Re-hashed after the edit, so the chain holds and only the replay fold can refuse it.
        def edit(rec):
            if rec.kind == "ScenarioSetup":
                rec.payload["ground_truth"] = ["abc"]

        log, _ = self._run(tmp_path, config_path)
        log.write_bytes(forged_log(log.read_bytes(), edit))
        assert main(["verify", str(log)]) == EXIT_CHAIN
        assert "event payload missing or mistyped field" in capsys.readouterr().err

    def test_mistyped_payload_failure_names_its_record(self, tmp_path, config_path, capsys):
        # Re-hashed, so the chain holds and the fold fails on the first purchase.
        edited = []

        def edit(rec):
            if rec.kind == "ServicePurchased" and not edited:
                rec.payload["price_paid_wei"] = "lots"
                edited.append(rec.seq)

        log, _ = self._run(tmp_path, config_path)
        log.write_bytes(forged_log(log.read_bytes(), edit))
        assert main(["verify", str(log)]) == EXIT_CHAIN
        err = capsys.readouterr().err
        assert "event payload missing or mistyped field: unsupported operand" in err
        assert f"(at seq {edited[0]}, kind ServicePurchased)" in err

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
        assert "event payload missing or mistyped field" in capsys.readouterr().err

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


class TestInvariantExit:
    def test_diverging_replay_exits_3(self, tmp_path, config_path, monkeypatch):
        import ddrm.cli as cli_mod
        from ddrm import ScenarioMetrics

        monkeypatch.setattr(cli_mod, "replay_verify", lambda log: ScenarioMetrics(exclusions=999))
        assert main(["run", "--config", str(config_path)]) == EXIT_INVARIANT

    def test_broken_live_chain_names_the_check(self, config_path, monkeypatch, capsys):
        from ddrm.errors import ChainBroken
        from ddrm.ledger import Ledger

        def broken(self):
            raise ChainBroken(5, "tick regression: 1 after 2")

        monkeypatch.setattr(Ledger, "verify_chain", broken)
        assert main(["run", "--config", str(config_path)]) == EXIT_INVARIANT
        assert "chain broken at 5: tick regression" in capsys.readouterr().err


    def test_payload_edited_after_append_exits_3(self, config_path, monkeypatch, capsys):
        # The export still carries the hashed bytes, so only the live chain
        # check can see the edit.
        import ddrm.cli as cli_mod

        def run_and_edit(*args):
            result = run_scenario(*args)
            result.sim.ledger.log[3].payload["edited"] = True
            return result

        monkeypatch.setattr(cli_mod, "run_scenario", run_and_edit)
        assert main(["run", "--config", str(config_path)]) == EXIT_INVARIANT
        assert "chain broken at 3: hash mismatch" in capsys.readouterr().err


class TestUsdRateDerivation:
    def test_published_usd_figures_imply_one_rate(self):
        # Dividing each USD figure by its Ether figure recovers ~1586 $/ETH.
        from decimal import Decimal

        from ddrm import ProtocolConfig, gas_table_rows

        rows = gas_table_rows(ProtocolConfig().gas, Decimal("1586.0"))
        for row in rows:
            ratio = row.total_usd / row.total_ether
            assert Decimal("1580") < ratio < Decimal("1590")
