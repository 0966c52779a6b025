"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every tolerance is exact (integer Wei, exact strings) except
where a runtime bound is stated; runtime bounds are asserted with wide
margins at desk scale.
"""

import itertools
import json
import math
import random
import re
import time
from decimal import Decimal

import pytest

from ddrm import (
    AttackScenario,
    ProtocolConfig,
    ether,
    gas_table_rows,
    replay_verify,
    run_scenario,
    text_digest,
)
from ddrm.adversary import expected_badge, GOOD
from ddrm.cli import EXIT_CHAIN, EXIT_OK, main
from ddrm.endorsement import BADGE_FRAUDULENT, BADGE_PENDING
from ddrm.errors import AlreadyRefunded, ChainBroken, DdrmError, DuplicateClaim, FundExhausted, MalformedEvent
from ddrm.identity import ROLE_CONSUMER, ROLE_PROVIDER
from ddrm.ledger import OP_REQUEST_SERVICE

from conftest import make_sim, provider_and_service, reviewed_purchase
from test_endorsement import run_vote_pattern, tally_oracle


def report(criterion: str, ok: bool = True):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


class TestCriterion1GasTable:
    def test_gas_table_reproduction(self):
        start = time.monotonic()
        rows = gas_table_rows(ProtocolConfig().gas, Decimal("1586.0"))
        table = [
            (r.gas_used, str(r.gas_price_gwei), f"{r.total_ether:.6f}", f"{r.total_usd:.3f}")
            for r in rows
        ]
        assert table == [
            (182304, "2.9", "0.000529", "0.839"),
            (63789, "2.9", "0.000185", "0.293"),
            (86532, "2.9", "0.000251", "0.398"),
        ]
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        report("1 gas-table reproduction")


class TestCriterion2EquationBookkeeping:
    def test_thousand_random_sequences(self):
        start = time.monotonic()
        one_ether = ether(1)
        sequences = 0
        rng = random.Random(52_001)
        for case in range(1000):
            sim = make_sim(seed=case)
            genesis = sim.conservation_total()
            provider = sim.register("prov", {ROLE_PROVIDER})
            consumers = [sim.register(f"c{i}", {ROLE_CONSUMER}) for i in range(2)]
            services = []
            add_gas = sim.ledger.gas.charge("add_service")
            buy_gas = sim.ledger.gas.charge("request_service")
            for _ in range(rng.randint(2, 5)):
                if not services or rng.random() < 0.4:
                    cost = ether(1) * rng.randint(1, 50) // 100
                    before = sim.ledger.balance(provider)
                    sid = sim.add_service(provider, cost)
                    services.append(sid)
                    assert sim.ledger.balance(provider) == before - add_gas - one_ether
                    assert sim.ledger.balance(sid) == one_ether
                else:
                    sid = rng.choice(services)
                    consumer = rng.choice(consumers)
                    cost = sim.market.get_service(sid).s_cost
                    c_before = sim.ledger.balance(consumer)
                    p_before = sim.ledger.balance(provider)
                    supply_before = len(sim.tokens.srats)
                    sim.buy_service(consumer, sid)
                    assert sim.ledger.balance(consumer) == c_before - buy_gas - cost
                    assert sim.ledger.balance(provider) == p_before + cost
                    assert len(sim.tokens.srats) == supply_before + 1
                assert sim.conservation_total() == genesis
            sequences += 1
        elapsed = time.monotonic() - start
        assert sequences >= 1000
        assert elapsed < 10.0
        report(f"2 equation bookkeeping ({sequences} sequences, {elapsed:.1f}s)")


class TestCriterion3ReviewGate:
    def test_all_eight_cases(self):
        from ddrm.tokens import Token, VOIDED

        def oracle(p, h, u):
            return p and h and u

        for purchased, has_srat, unexpired in itertools.product([True, False], repeat=3):
            sim = make_sim()
            provider, service = provider_and_service(sim)
            consumer = sim.register("cons", {ROLE_CONSUMER})
            if purchased:
                purchase_id = sim.buy_service(consumer, service)
                token = sim.tokens.srat_for_purchase(purchase_id)
                if not has_srat:
                    token.state = VOIDED
                if not unexpired:
                    token.expiry_tick = sim.ledger.tick
            else:
                purchase_id = "PUR-99999"
                if has_srat:
                    expiry = sim.ledger.tick + (100 if unexpired else 0)
                    sim.tokens.srats["SRAT-FAKE1"] = Token(
                        "SRAT-FAKE1", consumer, service, purchase_id, sim.ledger.tick, expiry
                    )
                    sim.tokens.srat_by_purchase[purchase_id] = "SRAT-FAKE1"
            try:
                sim.submit_review(consumer, purchase_id, 5, text_digest("x"))
                admitted = True
            except DdrmError:
                admitted = False
            assert admitted == oracle(purchased, has_srat, unexpired), (
                purchased, has_srat, unexpired,
            )
        report("3 review-authorization gate (8/8 cases)")


class TestCriterion4SelectionOracle:
    def test_exhaustive_vote_patterns(self):
        start = time.monotonic()
        checked = 0
        for literal in (False, True):
            for n in range(0, 7):
                for votes in itertools.product(("Up", "Down"), repeat=n):
                    expected = tally_oracle(votes, 3, literal)
                    assert run_vote_pattern(votes, literal) == expected
                    checked += 1
        elapsed = time.monotonic() - start
        assert checked == 254
        assert elapsed < 10.0
        report(f"4 selection oracle equivalence ({checked} patterns, {elapsed:.1f}s)")


class TestCriterion5ReviewFund:
    def test_hundred_reviews_per_ether(self):
        sim = make_sim(genesis_balance=ether(100))
        provider, service = provider_and_service(sim, ether("0.001"))
        consumer = sim.register("cons", {ROLE_CONSUMER})
        assert sim.ledger.balance(service) == ether(1)
        for i in range(100):
            purchase = sim.buy_service(consumer, service)
            sim.submit_review(consumer, purchase, 5, text_digest(f"n{i}"))
        assert sim.ledger.balance(service) == 0
        purchase_101 = sim.buy_service(consumer, service)
        with pytest.raises(FundExhausted):
            sim.submit_review(consumer, purchase_101, 5, text_digest("n100"))
        sim.replenish_fund(provider, service, ether(1))
        sim.submit_review(consumer, purchase_101, 5, text_digest("n100"))
        for i in range(99):
            purchase = sim.buy_service(consumer, service)
            sim.submit_review(consumer, purchase, 5, text_digest(f"m{i}"))
        assert sim.ledger.balance(service) == 0
        final = sim.buy_service(consumer, service)
        with pytest.raises(FundExhausted):
            sim.submit_review(consumer, final, 5, text_digest("over"))
        report("5 review-fund arithmetic (100 per Ether, twice)")


class TestCriterion6AttackSuite:
    def test_attack_scenarios(self):
        start = time.monotonic()

        # a. Sybil: one registration per card, whatever the identity count.
        res = run_scenario(AttackScenario(
            name="a-sybil", kind="sybil", seed=601, rounds=5,
            attacker_count=4, fake_identities_per_attacker=6, honest_count=10,
        ))
        assert res.extras["sybil_registrations_attempted"] == 24
        assert res.extras["sybil_registrations_succeeded"] == 4
        report("6a sybil containment")

        # b. Whitewashing: zero successful re-registrations after exclusion.
        res = run_scenario(AttackScenario(
            name="b-white", kind="whitewashing", seed=602, rounds=14,
            attacker_count=2, fake_identities_per_attacker=5, honest_count=9,
        ))
        assert res.metrics.exclusions >= 1
        assert res.extras["whitewash_reregistrations_attempted"] >= 5
        assert res.extras["whitewash_reregistrations_succeeded"] == 0
        report("6b whitewashing defense")

        # c. Constant attack: purchase-less attackers place no reviews.
        res = run_scenario(AttackScenario(
            name="c-const", kind="constant_attack", seed=603, rounds=6,
            attacker_count=3, honest_count=8,
        ))
        assert res.metrics.attacker_reviews_accepted == 0
        report("6c constant-attack gate")

        # d. Bad-mouthing: every quorum-reached dishonest negative review on
        # the Good service is branded; attackers excluded past the threshold.
        res = run_scenario(AttackScenario(
            name="d-bad", kind="bad_mouthing", seed=604, rounds=14,
            attacker_count=2, honest_count=9, honest_vote_probability=1.0,
        ))
        sim = res.sim
        attackers = next(
            set(rec.payload["attackers"]) for rec in sim.ledger.log if rec.kind == "ScenarioSetup"
        )
        badged = [
            r for r in sim.reviews.reviews.values()
            if r.reviewer in attackers and r.badge != BADGE_PENDING
        ]
        assert badged and all(r.badge == BADGE_FRAUDULENT for r in badged)
        excluded = [p for p in attackers if sim.identity.get(p).status == "Excluded"]
        assert excluded
        for pid in excluded:
            assert sim.reviews.penalties.get(pid, 0) > sim.config.penalty_threshold
        report("6d bad-mouthing suppression")

        # e. Ballot-stuffing cost floor.
        sc = AttackScenario(
            name="e-ballot", kind="ballot_stuffing", seed=605, rounds=10,
            attacker_count=2, honest_count=9,
        )
        res = run_scenario(sc)
        fakes = res.metrics.attacker_reviews_accepted
        gas_buy = res.sim.ledger.gas.charge(OP_REQUEST_SERVICE)
        floor = fakes * (sc.service_cost_wei + gas_buy) + math.ceil(fakes / 100) * ether(1)
        assert fakes > 0
        assert res.metrics.attacker_spend_wei >= floor
        report("6e ballot-stuffing cost floor")

        # f. Majority-endorser capture: the known failure is detected.
        res = run_scenario(AttackScenario(
            name="f-major", kind="majority_endorser", seed=606, rounds=8,
            attacker_count=4, honest_count=3,
        ))
        misbadged = [
            r for r in res.sim.reviews.reviews.values()
            if r.badge != BADGE_PENDING and r.badge != expected_badge(r.rating, GOOD)
        ]
        assert res.metrics.badge_accuracy < 1.0
        assert misbadged
        report("6f majority-endorser failure detected")

        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        report(f"6 attack suite total ({elapsed:.1f}s)")


class TestCriterion7DeterminismReplay:
    def test_determinism_and_mutation_detection(self, tmp_path):
        scenario = AttackScenario(
            name="det", kind="bad_mouthing", seed=701, rounds=8,
            attacker_count=2, honest_count=8,
        )
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.final_log_hash() == second.final_log_hash()
        assert first.metrics == second.metrics

        log = first.log_text()
        assert replay_verify(log) == first.metrics

        # CLI integration: chain + metric replay.
        log_path = tmp_path / "det.events.ndjson"
        metrics_path = tmp_path / "det.metrics.json"
        log_path.write_bytes(log)
        metrics_doc = {"final_log_hash": first.final_log_hash(), "metrics": first.metrics.to_dict()}
        metrics_path.write_text(json.dumps(metrics_doc))
        assert main(["verify", str(log_path), "--metrics", str(metrics_path)]) == EXIT_OK

        # Single-byte mutations: sweep positions plus targeted semantic edits.
        positions = list(range(0, len(log), 97))
        failures = 0
        for pos in positions:
            original = log[pos:pos + 1]
            replacement = b"X" if original != b"X" else b"Y"
            mutated = log[:pos] + replacement + log[pos + 1:]
            try:
                mutated_metrics = replay_verify(mutated)
            except (ChainBroken, MalformedEvent):
                failures += 1
            else:
                raise AssertionError(f"mutation at byte {pos} went undetected")
        assert failures == len(positions)

        # Digit-for-digit edits that keep the JSON well-formed.
        lines = log.splitlines()
        semantic = [
            re.sub(rb'"seq":(\d)', lambda m: b'"seq":%d' % ((int(m.group(1)) + 1) % 10), lines[4], count=1),
            re.sub(rb'"hash":"([0-9a-f])', lambda m: b'"hash":"' + (b"f" if m.group(1) != b"f" else b"0"), lines[4],
                   count=1),
        ]
        for edited in semantic:
            assert edited != lines[4]
            tampered = b"\n".join(lines[:4] + [edited] + lines[5:]) + b"\n"
            with pytest.raises((ChainBroken, MalformedEvent)):
                replay_verify(tampered)
        mut_path = tmp_path / "mut.events.ndjson"
        tampered_blob = log[:50] + (b"X" if log[50:51] != b"X" else b"Y") + log[51:]
        mut_path.write_bytes(tampered_blob)
        assert main(["verify", str(mut_path)]) == EXIT_CHAIN

        report(f"7 determinism and replay ({len(positions)} byte mutations detected)")


class TestCriterion8RefundAdjudication:
    def _arena(self):
        sim = make_sim()
        provider, service = provider_and_service(sim, ether("0.5"))
        for i in range(5):
            reviewed_purchase(sim, service, f"end-{i}")
        sim.bootstrap_endorsers(service, 5)
        claimant = sim.register("claimant", {ROLE_CONSUMER})
        purchase = sim.buy_service(claimant, service)
        return sim, provider, claimant, purchase

    def test_exhaustive_panel_votes(self):
        for pattern in itertools.product(("Approve", "Reject"), repeat=5):
            sim, provider, claimant, purchase = self._arena()
            claim_id = sim.file_refund_claim(claimant, purchase)
            claim = sim.reviews.claims[claim_id]
            assert len(claim.panel) == 5
            provider_before = sim.ledger.balance(provider)
            claimant_before = sim.ledger.balance(claimant)
            for member, vote in zip(claim.panel, pattern):
                sim.vote_refund(member, claim_id, vote)
            approvals = pattern.count("Approve")
            if approvals >= 3:
                assert claim.outcome == "Approved"
                assert sim.ledger.balance(provider) == provider_before - ether("0.5")
                assert sim.ledger.balance(claimant) == claimant_before + ether("0.5")
                assert sim.reviews.refunded(purchase)
                with pytest.raises(AlreadyRefunded):
                    sim.file_refund_claim(claimant, purchase)
            else:
                assert claim.outcome == "Rejected"
                assert sim.ledger.balance(provider) == provider_before
                assert sim.ledger.balance(claimant) == claimant_before
                assert not sim.reviews.refunded(purchase)
        report("8 refund adjudication (32/32 panel patterns)")

    def test_double_claim_while_open(self):
        sim, provider, claimant, purchase = self._arena()
        sim.file_refund_claim(claimant, purchase)
        with pytest.raises(DuplicateClaim):
            sim.file_refund_claim(claimant, purchase)
        report("8b duplicate open claim rejected")
