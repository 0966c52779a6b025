"""Mutant catalogue: small breaks of the code that the test suite must catch.

Each entry replaces one exact `old` string in one file with `new`; `kills`
names the test file expected to fail on it. Run

    python tests/mutants.py [NAME ...]

to apply each mutant (or only the named ones) in a temporary copy of the
tree and run `pytest -x -q` on its test file there. The script prints
killed, survived or error per mutant and exits 1 unless every mutant was
killed. Pytest does not collect this file; tests/test_mutants.py only
checks that every `old` string still occurs exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    kills: str


MUTANTS = (
    # The single log reader.
    Mutant("no-pipe-final-lf-check", "src/ddrm/ledger.py",
           'if raw[-1:] != b"\\n":', "if False:", "tests/test_cli.py"),
    Mutant("lenient-utf8-decode", "src/ddrm/ledger.py",
           'raw[:-1].decode("utf-8")', 'raw[:-1].decode("utf-8", errors="replace")', "tests/test_cli.py"),
    Mutant("refusal-accepts-what-passes-its-checks", "src/ddrm/ledger.py",
           'raise ChainBroken(seq, "not canonical: the line differs from its export form")', "return rec",
           "tests/test_ledger.py"),
    Mutant("no-blank-line-check", "src/ddrm/ledger.py",
           "if not line:", "if False:", "tests/test_cli.py"),
    Mutant("no-end-of-object-check", "src/ddrm/ledger.py",
           "if end != len(line):", "if False:", "tests/test_ledger.py"),
    Mutant("no-seq-check", "src/ddrm/ledger.py",
           "if rec.seq != seq:", "if False:", "tests/test_ledger.py"),
    # The exact-form test, the one path that accepts a line: each condition it checks.
    Mutant("free-key-row-skips-reencode", "src/ddrm/ledger.py",
           "if reencode and canonical_payload(", "if False and canonical_payload(", "tests/test_ledger.py"),
    Mutant("exact-form-skips-hash", "src/ddrm/ledger.py",
           "if record_hash(seq, tick, kind, payload_json, prev) != digest:", "if False:", "tests/test_ledger.py"),
    Mutant("exact-form-skips-tick-order", "src/ddrm/ledger.py",
           "if tick < last_tick:", "if False:", "tests/test_ledger.py"),
    Mutant("exact-form-takes-leading-zero-tick", "src/ddrm/ledger.py",
           'if digits[0] == "0" and digits != "0":', "if False:", "tests/test_ledger.py"),
    Mutant("exact-form-skips-prev-hash-and-seq", "src/ddrm/ledger.py",
           "if not line.startswith(tail, end):", "if False:", "tests/test_ledger.py"),
    # The table of event kinds and payload fields, which the exact-form test and the refusal both read.
    Mutant("exact-form-skips-kind-lookup", "src/ddrm/ledger.py",
           "row = EVENTS.get(kind)\n", "row = EVENTS.get(kind, {})\n", "tests/test_ledger.py"),
    # The row patterns: each matches exactly the canonical texts of the payloads that fit its row.
    Mutant("escapes-unchecked", "src/ddrm/ledger.py",
           'if "\\\\" in payload_json and not _ESCAPES.fullmatch(payload_json):', "if False:", "tests/test_ledger.py"),
    Mutant("unicode-escape-takes-any-hex", "src/ddrm/ledger.py",
           "u(?:00(?:0[0-7bef]", "u(?:[0-9a-fA-F]{4}|00(?:0[0-7bef]", "tests/test_ledger.py"),
    Mutant("int-pattern-unbounded", "src/ddrm/ledger.py",
           "[1-9][0-9]{0,4299})", "[1-9][0-9]*)", "tests/test_ledger.py"),
    Mutant("list-takes-trailing-comma", "src/ddrm/ledger.py",
           "(?:,(?![\\\\]}}])|", "(?:,|", "tests/test_ledger.py"),
    Mutant("row-keys-in-table-order", "src/ddrm/ledger.py",
           "for key in sorted(spec)", "for key in spec", "tests/test_ledger.py"),
    Mutant("str-or-null-takes-no-null", "src/ddrm/ledger.py",
           'f"(?:null|{_STR})"', "_STR", "tests/test_ledger.py"),
    Mutant("quality-pattern-takes-any-string", "src/ddrm/ledger.py",
           """_items(f'{_STR}:"(?:Good|Bad)"')""", "_items(f'{_STR}:{_STR}')", "tests/test_ledger.py"),
    Mutant("refusal-drops-key-set-check", "src/ddrm/ledger.py",
           "if type(value) is dict and len(value) != len(spec) else None", "if False else None",
           "tests/test_ledger.py"),
    Mutant("negative-int-fits", "src/ddrm/ledger.py",
           "type(value) is int and value >= 0", "type(value) is int", "tests/test_ledger.py"),
    Mutant("reencode-flag-top-level-only", "src/ddrm/ledger.py",
           "any(_reencodes(item) for item in", "any(type(item) is Leaf and item.reencode for item in",
           "tests/test_ledger.py"),
    Mutant("qualities-leaf-without-reencode", "src/ddrm/ledger.py",
           'r"\\}", True)', 'r"\\}", False)', "tests/test_ledger.py"),
    Mutant("list-items-unchecked", "src/ddrm/ledger.py",
           "enumerate(spec * len(value))", "enumerate(spec * 0)", "tests/test_ledger.py"),
    Mutant("quality-takes-any-value", "src/ddrm/ledger.py",
           'all(q == "Good" or q == "Bad" for q in value.values())', "all(True for q in value.values())",
           "tests/test_cli.py"),
    Mutant("refusal-skips-kind-lookup", "src/ddrm/ledger.py",
           'if row is None:\n        raise MalformedEvent(f"malformed event at seq {seq}: unknown kind',
           'if False:\n        raise MalformedEvent(f"malformed event at seq {seq}: unknown kind',
           "tests/test_ledger.py"),
    Mutant("refusal-hashes-before-kind-lookup", "src/ddrm/ledger.py",
           "    row = EVENTS.get(rec.kind)\n",
           "    record_hash(rec.seq, rec.tick, rec.kind, rec.payload_json, rec.prev_hash)\n"
           "    row = EVENTS.get(rec.kind)\n", "tests/test_cli.py"),
    Mutant("payload-failure-unplaced", "src/ddrm/ledger.py",
           'f"malformed event at seq {seq}, kind {rec.kind}: {fault} field',
           'f"malformed event, kind {rec.kind}: {fault} field', "tests/test_cli.py"),
    Mutant("unsorted-encoder", "src/ddrm/ledger.py",
           '":", ",", True, False, True)', '":", ",", False, False, True)', "tests/test_ledger.py"),
    Mutant("shared-markers-dict", "src/ddrm/ledger.py",
           "c_make_encoder(None,", "c_make_encoder({},", "tests/test_ledger.py"),
    # Replay and its failure messages.
    Mutant("metrics-failure-uncaught", "src/ddrm/adversary.py",
           "except KeyError as exc:", "except ZeroDivisionError as exc:", "tests/test_adversary.py"),
    Mutant("replay-collects-records", "src/ddrm/adversary.py",
           "for rec in iter_log_lines(log):", "for rec in list(iter_log_lines(log)):", "tests/test_adversary.py"),
    Mutant("no-refund-term-in-replayed-spend", "src/ddrm/adversary.py",
           'elif kind == "RefundSettled":\n            p = rec.payload\n'
           '            spent[p["provider"]] += p["amount_wei"]',
           'elif kind == "RefundSettled":\n            p = rec.payload', "tests/test_adversary.py"),
    Mutant("accepted-counts-badged-only", "src/ddrm/adversary.py",
           "Counter(r.reviewer for r in reviews),",
           "Counter(r.reviewer for r in reviews if r.badge != BADGE_PENDING),",
           "tests/test_fixed_points.py"),
    Mutant("metrics-sum-every-participant", "src/ddrm/adversary.py",
           "attacker_spend_wei=sum(spent.get(a, 0) for a in attackers)", "attacker_spend_wei=sum(spent.values())",
           "tests/test_fixed_points.py"),
    # ddrm run: artifacts and its errors.
    Mutant("no-del-result", "src/ddrm/cli.py",
           "del result", "pass", "tests/test_cli.py"),
    Mutant("metrics-recursion-error-uncaught", "src/ddrm/cli.py",
           "KeyError, TypeError, RecursionError) as exc:", "KeyError, TypeError) as exc:", "tests/test_cli.py"),
    Mutant("temporary-log-kept", "src/ddrm/cli.py",
           "tmp_path.unlink(missing_ok=True)", "pass", "tests/test_cli.py"),
    Mutant("no-oserror-mapping", "src/ddrm/cli.py",
           'raise ConfigError(f"cannot write output_dir {out_dir}: {exc}") from exc', "raise", "tests/test_cli.py"),
    Mutant("replay-failure-unnamed", "src/ddrm/cli.py",
           'raise InvariantViolation(f"scenario {scenario.name}: {exc}") from exc', "raise", "tests/test_cli.py"),
    Mutant("no-name-check", "src/ddrm/config.py",
           'if any(part in name for part in ("/", "\\\\", "..", "\\0")):', "if False:", "tests/test_cli.py"),
    Mutant("no-backslash-check", "src/ddrm/config.py",
           '("/", "\\\\", "..", "\\0")', '("/", "..", "\\0")', "tests/test_cli.py"),
    Mutant("no-output-dir-nul-check", "src/ddrm/config.py",
           ' or "\\0" in out', "", "tests/test_cli.py"),
    Mutant("no-name-bound", "src/ddrm/config.py",
           "_utf8_size(name, where) > NAME_BYTES", "_utf8_size(name, where) > 10**9", "tests/test_cli.py"),
    Mutant("output-dir-utf8-unchecked", "src/ddrm/config.py",
           '_utf8_size(out, "output_dir", os.fsencode)  #', '#', "tests/test_cli.py"),
    Mutant("no-override-check", "src/ddrm/config.py",
           "parse_protocol_config(scenario.overrides, base=protocol)", "None", "tests/test_cli.py"),
    Mutant("register-unwrapped", "src/ddrm/adversary.py",
           "pid = self._set_up(self.sim.register, card, roles)", "pid = self.sim.register(card, roles)",
           "tests/test_cli.py"),
    Mutant("add-service-unwrapped", "src/ddrm/adversary.py",
           "self._set_up(self.sim.add_service, target, s.service_cost_wei)] = GOOD",
           "self.sim.add_service(target, s.service_cost_wei)] = GOOD", "tests/test_cli.py"),
    # Attack policies.
    Mutant("enemy-first-ignored", "src/ddrm/adversary.py",
           "if self.policy.enemy_first else", "if False else", "tests/test_fixed_points.py"),
    Mutant("self-listing-ignores-target-own", "src/ddrm/adversary.py",
           "self_listing = self.policy.self_lists and s.target_own", "self_listing = self.policy.self_lists",
           "tests/test_fixed_points.py"),
    Mutant("self-listing-ignores-policy", "src/ddrm/adversary.py",
           "self_listing = self.policy.self_lists and s.target_own", "self_listing = s.target_own",
           "tests/test_fixed_points.py"),
    Mutant("honest-buy-round-fixed-at-1", "src/ddrm/adversary.py",
           "return rnd == (2 if self.policy.early else 1)", "return rnd == 1", "tests/test_fixed_points.py"),
    Mutant("refund-claim-refiled", "src/ddrm/adversary.py",
           "if purchase_id not in claimed:", "if True:", "tests/test_fixed_points.py"),
    Mutant("wave-skip-at-equal", "src/ddrm/adversary.py",
           "if quorum - ours - theirs > len(available):", "if quorum - ours - theirs >= len(available):",
           "tests/test_fixed_points.py"),
    # One record per protocol fact: tokens, votes, and the --metrics rule.
    Mutant("no-duplicate-endorsement-check", "src/ddrm/endorsement.py",
           "if endorser in review.endorsers:", "if False:", "tests/test_endorsement.py"),
    Mutant("endorser-not-recorded", "src/ddrm/endorsement.py",
           "review.endorsers.add(endorser)", "pass", "tests/test_endorsement.py"),
    Mutant("book-not-in-snapshot", "src/ddrm/sim.py",
           '"claims": self.reviews.claims,', "", "tests/test_properties.py"),
    Mutant("srat-expiry-ignored-by-review-gate", "src/ddrm/endorsement.py",
           "if not token.usable_at(self.ledger.tick):", "if False:",
           "tests/test_endorsement.py"),
    Mutant("srdt-minted-with-srat-lifetime", "src/ddrm/tokens.py",
           "self.config.srdt_lifetime, holder, service_id)", "self.config.srat_lifetime, holder, service_id)",
           "tests/test_tokens.py"),
    Mutant("srdt-discount-not-from-config", "src/ddrm/marketplace.py",
           "rate = self.config.srdt_discount", "rate = ProtocolConfig().srdt_discount", "tests/test_marketplace.py"),
    Mutant("explicit-metrics-existence-check", "src/ddrm/cli.py",
           "    if metrics_path is not None:", "    if metrics_path is not None and metrics_path.exists():",
           "tests/test_cli.py"),
    Mutant("absent-sibling-metrics-read", "src/ddrm/cli.py",
           "if sibling.exists():", "if True:", "tests/test_cli.py"),
    # Each protocol fact read from its one record.
    Mutant("review-gate-ignores-burned-srat", "src/ddrm/endorsement.py",
           "if token.state == BURNED:", "if False:", "tests/test_endorsement.py"),
    Mutant("approved-claims-ignored", "src/ddrm/endorsement.py",
           "c.outcome == OUTCOME_APPROVED for c in self.claims.values()", "False for c in self.claims.values()",
           "tests/test_endorsement.py"),
    Mutant("refunded-ignores-purchase", "src/ddrm/endorsement.py",
           "c.purchase_id == purchase_id and c.outcome == OUTCOME_APPROVED", "c.outcome == OUTCOME_APPROVED",
           "tests/test_endorsement.py"),
    Mutant("duplicate-claim-ignores-purchase", "src/ddrm/endorsement.py",
           "c.purchase_id == purchase_id and c.outcome == OUTCOME_OPEN", "c.outcome == OUTCOME_OPEN",
           "tests/test_endorsement.py"),
    Mutant("void-all-ignores-holder", "src/ddrm/tokens.py",
           "if token.holder == holder and token.state == ACTIVE:", "if token.state == ACTIVE:",
           "tests/test_properties.py"),
    Mutant("dret-before-counts-every-badge", "src/ddrm/endorsement.py",
           "if r.badge == BADGE_AUTHENTIC:", "if r.badge != BADGE_PENDING:", "tests/test_tokens.py"),
    Mutant("dret-award-ignores-before", "src/ddrm/tokens.py",
           "after // interval - before // interval", "after // interval", "tests/test_tokens.py"),
    Mutant("harness-reviews-burned-purchases", "src/ddrm/adversary.py",
           "if self.sim.tokens.srat_for_purchase(purchase_id).state == BURNED:", "if False:",
           "tests/test_fixed_points.py"),
    Mutant("id-without-plus-one", "src/ddrm/marketplace.py",
           'f"PUR-{len(self.purchases) + 1:05d}"', 'f"PUR-{len(self.purchases):05d}"', "tests/test_properties.py"),
    # Test helpers.
    Mutant("forged-log-edits-inside-the-loop", "tests/conftest.py",
           "for rec in list(iter_log_lines(log)):", "for rec in iter_log_lines(log):", "tests/test_adversary.py"),
    # The snapshot copies each record rather than sharing its live fields.
    Mutant("snapshot-shares-records", "src/ddrm/sim.py",
           "{rid: asdict(record) for", "{rid: {name: getattr(record, name) for name in record.__slots__} for",
           "tests/test_properties.py"),
    # A record is its bytes; `ddrm run` and `ddrm verify` check the head of the chain.
    Mutant("no-head-check-in-run", "src/ddrm/cli.py",
           "_differing(_claims(metrics_doc), found)",
           '_differing(_claims(metrics_doc), {**found, "final_log_hash": metrics_doc["final_log_hash"]})',
           "tests/test_cli.py"),
    Mutant("live-payload-cached", "src/ddrm/ledger.py",
           "if self._read:\n                self._decoded = decoded", "self._decoded = decoded",
           "tests/test_ledger.py"),
    Mutant("read-payload-not-kept", "src/ddrm/ledger.py",
           "    rec._read = True\n", "", "tests/test_ledger.py"),
    Mutant("final-hash-not-compared", "src/ddrm/cli.py",
           "_differing(claims, found)", '_differing(claims, {**found, "final_log_hash": claims["final_log_hash"]})',
           "tests/test_cli.py"),
    Mutant("claims-unchecked", "src/ddrm/cli.py", "    if odd:\n", "    if False:\n", "tests/test_cli.py"),
    Mutant("claim-type-ignored", "src/ddrm/cli.py",
           "type(claims[key]) is not type(found[key]) or ", "", "tests/test_cli.py"),
    Mutant("mismatch-names-no-metric", "src/ddrm/cli.py",
           'print("mismatch between log replay and recorded metrics:", *differing, sep="\\n  ", file=sys.stderr)',
           'print("mismatch between log replay and recorded metrics", file=sys.stderr)', "tests/test_cli.py"),
    Mutant("append-stores-unsorted-json", "src/ddrm/ledger.py",
           "payload_json = canonical_payload(payload)\n        digest",
           'payload_json = json.dumps(payload, separators=(",", ":"))\n        digest',
           "tests/test_ledger.py"),
    Mutant("roster-logged-in-set-order", "src/ddrm/endorsement.py",
           'report["roster"] = sorted(self.rosters[service_id])', 'report["roster"] = list(self.rosters[service_id])',
           "tests/test_cli.py"),
    # One log check, and `ddrm run` judges its replay as `ddrm verify` does.
    Mutant("run-compares-only-the-head", "src/ddrm/cli.py",
           "_differing(_claims(metrics_doc), found)",
           '_differing({"final_log_hash": metrics_doc["final_log_hash"]}, found)',
           "tests/test_cli.py"),
    # Untrusted numbers take JSON syntax only; Ether, Wei and Gwei convert and print exactly, within a uint256.
    Mutant("no-uint256-bound", "src/ddrm/ledger.py",
           "if number.copy_abs() > Fraction(MAX_WEI, unit):", "if False:", "tests/test_ledger.py"),
    Mutant("ether-product-rounded", "src/ddrm/ledger.py",
           "Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN).multiply(number, unit)", "number * unit",
           "tests/test_ledger.py"),
    Mutant("format-ether-truncates", "src/ddrm/ledger.py",
           "(2 * abs(wei) * scale + WEI_PER_ETHER) // (2 * WEI_PER_ETHER)", "abs(wei) * scale // WEI_PER_ETHER",
           "tests/test_ledger.py"),
    Mutant("ether-at-decimal-precision", "src/ddrm/config.py",
           "_as_number(ether, value, where, unit)", "int(Decimal(str(value)) * unit)", "tests/test_cli.py"),
    Mutant("lenient-number-syntax", "src/ddrm/ledger.py",
           "not _JSON_NUMBER.fullmatch(text)", "not _JSON_NUMBER.fullmatch(text.strip().replace('_', ''))",
           "tests/test_cli.py"),
    Mutant("expiry-sweep-sorts-id-strings", "src/ddrm/tokens.py",
           "sorted(due, key=_mint_order)", "sorted(due, key=lambda token: token.token_id)", "tests/test_tokens.py"),
    Mutant("recorded-claim-unquoted", "src/ddrm/cli.py",
           "{quoted(claims[key], 80)}", "{claims[key]!r}", "tests/test_cli.py"),
    Mutant("recorded-hash-cut", "src/ddrm/cli.py",
           "{quoted(claims[key], 80)}", "{quoted(claims[key])}", "tests/test_cli.py"),
    Mutant("unbounded-quote", "src/ddrm/ledger.py",
           "return text if len(text) <= limit else", "return text if True else", "tests/test_cli.py"),
    Mutant("gwei-at-decimal-precision", "src/ddrm/reporting.py",
           'price_gwei = Decimal(f"{whole}.{frac:09d}".rstrip("0").rstrip("."))',
           "price_gwei = (Decimal(schedule.price_wei) / WEI_PER_GWEI).normalize()",
           "tests/test_cli.py"),
    Mutant("format-ether-at-decimal-precision", "src/ddrm/reporting.py",
           "total_ether = Decimal(format_ether(wei))",
           'total_ether = (Decimal(wei) / 10**18).quantize(Decimal("0.000001"))', "tests/test_cli.py"),
    # Money lives only in ledger accounts, and one full sum over them checks conservation.
    Mutant("fund-seed-moved-before-check", "src/ddrm/marketplace.py",
           "        if self.ledger.balance(provider) < gas + REVIEW_FUND_SEED:\n"
           '            raise InsufficientFunds(f"{provider} cannot cover listing gas plus fund seed")\n\n'
           '        service_id = f"SVC-{len(self.services) + 1:04d}"\n'
           "        self.ledger.open_account(service_id)\n"
           "        self.ledger.charge_gas(provider, OP_ADD_SERVICE)\n"
           "        self.ledger.transfer(provider, service_id, REVIEW_FUND_SEED)\n",
           '        service_id = f"SVC-{len(self.services) + 1:04d}"\n'
           "        self.ledger.open_account(service_id)\n"
           "        self.ledger.transfer(provider, service_id, REVIEW_FUND_SEED)\n"
           "        if self.ledger.balance(provider) < gas:\n"
           '            raise InsufficientFunds(f"{provider} cannot cover listing gas plus fund seed")\n'
           "        self.ledger.charge_gas(provider, OP_ADD_SERVICE)\n",
           "tests/test_marketplace.py"),
    Mutant("fund-gate-reads-provider", "src/ddrm/endorsement.py",
           "if self.ledger.balance(service_id) < REVIEW_SUBSIDY:",
           "if self.ledger.balance(self.market.services[service_id].provider) < REVIEW_SUBSIDY:",
           "tests/test_marketplace.py"),
    Mutant("conservation-skips-sink", "src/ddrm/sim.py",
           "return sum(self.ledger.accounts.values())",
           'return sum(wei for account, wei in self.ledger.accounts.items() if account != "GAS-SINK")',
           "tests/test_properties.py"),
    # One field table per config document drives its reader and its exact writer.
    Mutant("ether-writer-floors", "src/ddrm/config.py",
           'return _number_forms("-" * (wei < 0) + f"{whole}.{frac:0{places}d}".rstrip("0").rstrip("."))',
           "return _number_forms(str(wei // WEI_PER_ETHER))", "tests/test_config.py"),
    Mutant("rate-writer-writes-a-float", "src/ddrm/config.py",
           "RATE = Codec(_as_rate, _rate_forms)", "RATE = Codec(_as_rate, lambda rate: (float(rate),))",
           "tests/test_config.py"),
    Mutant("reader-skips-last-row", "src/ddrm/config.py",
           "for row in table if row.key in doc}", "for row in table[:-1] if row.key in doc}", "tests/test_config.py"),
    # Each row's bounds, checked by one function that refuses NaN too.
    Mutant("bound-lets-nan-through", "src/ddrm/config.py",
           "if not low <= value <= high:", "if value < low or value > high:", "tests/test_cli.py"),
    Mutant("rounds-unbounded", "src/ddrm/config.py",
           'Field("rounds", "rounds", INT, 1, MAX_ROUNDS)', 'Field("rounds", "rounds", INT, 1)', "tests/test_config.py"),
    Mutant("honest-count-unbounded", "src/ddrm/config.py",
           'Field("honest_count", "honest_count", INT, 0, MAX_COUNT)', 'Field("honest_count", "honest_count", INT, 0)',
           "tests/test_config.py"),
    Mutant("scenario-bounds-unchecked", "src/ddrm/adversary.py",
           "check_bounds(self, SCENARIO_FIELDS, prefix)", "None", "tests/test_config.py"),
    Mutant("protocol-bounds-unchecked", "src/ddrm/config.py",
           'check_bounds(self, PROTOCOL_FIELDS, "protocol.")', "None", "tests/test_config.py"),
    Mutant("name-may-be-empty", "src/ddrm/config.py",
           "    if not name:\n", "    if False:\n", "tests/test_config.py"),
    Mutant("gas-price-unchecked", "src/ddrm/config.py",
           'check_bounds(self, (GAS_PRICE,), "gas.")', "None", "tests/test_config.py"),
    Mutant("gas-units-unchecked", "src/ddrm/config.py",
           'check_bounds(row, GAS_ROW_FIELDS, f"gas.{op}.")', "None", "tests/test_config.py"),
    Mutant("gas-used-unbounded", "src/ddrm/config.py",
           'Field("gas_used", "gas_used", INT, 1)', 'Field("gas_used", "gas_used", INT)', "tests/test_cli.py"),
    Mutant("gas-used-may-pass-limit", "src/ddrm/config.py",
           "if row.gas_used > row.gas_limit:", "if False:", "tests/test_cli.py"),
    # Products of scenario counts, which no single row bounds.
    Mutant("sybil-attempts-unbounded", "src/ddrm/adversary.py",
           "if self.attacker_count * self.fake_identities_per_attacker > MAX_COUNT:", "if False:",
           "tests/test_config.py"),
    Mutant("participant-rounds-unbounded", "src/ddrm/adversary.py",
           "if self.rounds * (self.honest_count + self.attacker_count) > MAX_PARTICIPANT_ROUNDS:", "if False:",
           "tests/test_config.py"),
    Mutant("gwei-in-scientific-notation", "src/ddrm/reporting.py",
           '"gas_price_gwei": f"{r.gas_price_gwei:f}",', '"gas_price_gwei": str(r.gas_price_gwei),',
           "tests/test_cli.py"),
    # A withdrawn service takes no purchase, no second withdrawal and no replenishment.
    Mutant("replenish-takes-withdrawn-service", "src/ddrm/marketplace.py",
           "self._listed(self._owned_service(provider, service_id))\n        if amount < 0:",
           "self._owned_service(provider, service_id)\n        if amount < 0:", "tests/test_marketplace.py"),
)


def run(mutant: Mutant, tree: Path) -> str:
    path = tree / mutant.file
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.old) != 1:
        return "error: old string does not occur exactly once"
    path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", mutant.kills],
            cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")}, capture_output=True, text=True,
        )
    finally:
        path.write_text(original, encoding="utf-8")
    # pytest exits 1 when a test fails; 0 is a survivor, anything else an error.
    return {0: "survived", 1: "killed"}.get(proc.returncode, f"error: pytest exited {proc.returncode}")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    selected = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        ignore = shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out", "*.egg-info",
            ".bench_out", ".bench_tmp", ".benchmarks",
        )
        shutil.copytree(ROOT, tree, ignore=ignore)
        survivors = 0
        for m in selected:
            outcome = run(m, tree)
            survivors += outcome != "killed"
            print(f"{outcome:9} {m.name} ({m.kills})", flush=True)
    print(f"{len(selected) - survivors}/{len(selected)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
