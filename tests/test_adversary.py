"""Attack scenarios: defense properties, determinism, and replay metrics."""

import math
import tracemalloc

import pytest

from ddrm import AttackScenario, ether, parse_scenario, replay_verify, run_scenario
from ddrm.adversary import (
    BAD,
    GOOD,
    KIND_BAD_MOUTHING,
    KIND_BALLOT_STUFFING,
    KIND_COLLUSION,
    KIND_CONSTANT_ATTACK,
    KIND_FALSE_REFUND,
    KIND_MAJORITY_ENDORSER,
    KIND_SYBIL,
    KIND_WHITEWASHING,
    ScenarioMetrics,
    ScenarioRunner,
    expected_badge,
)
from ddrm.config import REVIEW_FUND_SEED, REVIEW_SUBSIDY, REVIEWS_PER_ETHER
from ddrm.endorsement import BADGE_AUTHENTIC, BADGE_FRAUDULENT, BADGE_PENDING, OUTCOME_APPROVED, VOTE_APPROVE
from ddrm.errors import ChainBroken, ConfigError, MalformedEvent
from ddrm.identity import ROLE_CONSUMER
from ddrm.ledger import OP_ADD_SERVICE, iter_log_lines
from ddrm.marketplace import STATUS_LISTED

from conftest import (
    AT_SCALE_KINDS,
    at_scale_scenario,
    canonical_scenarios,
    exported_log,
    forged_log,
    make_sim,
    provider_and_service,
    reviewed_purchase,
)


def scenario(kind, **kw):
    defaults = dict(name=f"test-{kind}", kind=kind, seed=1301, rounds=10,
                    attacker_count=2, honest_count=9)
    defaults.update(kw)
    return AttackScenario(**defaults)


class TestSybil:
    def test_one_registration_per_card(self):
        res = run_scenario(scenario(KIND_SYBIL, attacker_count=3, fake_identities_per_attacker=5, rounds=4))
        assert res.extras["sybil_registrations_attempted"] == 15
        assert res.extras["sybil_registrations_succeeded"] == 3
        assert res.extras["denials"]["DuplicateCard"] == 12
        # Accepted reviews scale with purchases paid for, not identity count.
        assert res.metrics.attacker_reviews_accepted <= 3 * res.scenario.rounds


class TestWhitewashing:
    def test_reregistration_never_succeeds(self):
        res = run_scenario(scenario(KIND_WHITEWASHING, rounds=14, fake_identities_per_attacker=4))
        assert res.metrics.exclusions >= 1
        assert res.extras["whitewash_reregistrations_attempted"] >= 4
        assert res.extras["whitewash_reregistrations_succeeded"] == 0


class TestConstantAttack:
    def test_no_purchase_no_accepted_review(self):
        res = run_scenario(scenario(KIND_CONSTANT_ATTACK, rounds=6))
        assert res.metrics.attacker_reviews_accepted == 0
        assert res.extras["denials"].get("NoPurchase", 0) > 0
        assert res.metrics.attacker_spend_wei == 0


class TestBadMouthing:
    def test_quorum_reached_negatives_all_branded(self):
        res = run_scenario(scenario(KIND_BAD_MOUTHING, rounds=12))
        sim = res.sim
        attackers = set()
        for rec in sim.ledger.log:
            if rec.kind == "ScenarioSetup":
                attackers = set(rec.payload["attackers"])
        badged_attacker_reviews = [
            r for r in sim.reviews.reviews.values()
            if r.reviewer in attackers and r.badge != BADGE_PENDING
        ]
        assert badged_attacker_reviews, "attack reviews never reached quorum"
        assert all(r.badge == BADGE_FRAUDULENT for r in badged_attacker_reviews)
        # Penalties beyond the threshold excluded the attackers.
        assert res.metrics.exclusions >= 1
        for pid in attackers:
            if sim.identity.get(pid).status == "Excluded":
                assert sim.reviews.penalties.get(pid, 0) > sim.config.penalty_threshold

    def test_honest_reviews_not_penalized(self):
        res = run_scenario(scenario(KIND_BAD_MOUTHING, rounds=12))
        assert res.metrics.badge_accuracy == 1.0


class TestBallotStuffing:
    def test_cost_floor(self):
        sc = scenario(KIND_BALLOT_STUFFING, rounds=10, attacker_count=2)
        res = run_scenario(sc)
        fakes = res.metrics.attacker_reviews_accepted
        assert fakes > 0
        gas_buy = res.sim.ledger.gas.charge("request_service")
        floor = fakes * (sc.service_cost_wei + gas_buy) + math.ceil(fakes / 100) * ether(1)
        assert res.metrics.attacker_spend_wei >= floor

    def test_self_promotion_earns_no_reputation(self):
        res = run_scenario(scenario(KIND_BALLOT_STUFFING, rounds=10))
        assert res.metrics.provider_dret_delta == 0
        assert res.metrics.attacker_reviews_branded > 0

    def test_targeting_competitor_funds_the_victim(self):
        res = run_scenario(scenario(KIND_BALLOT_STUFFING, target_own=False, rounds=6))
        assert res.extras["victim_revenue_wei"] > 0


class TestCollusion:
    def test_honest_majority_contains_collusion(self):
        res = run_scenario(scenario(KIND_COLLUSION, rounds=12))
        assert res.metrics.badge_accuracy == 1.0
        assert res.metrics.attacker_reviews_branded > 0
        assert res.metrics.exclusions >= 1


class TestMajorityEndorser:
    def test_capture_misbadges_honest_reviews_and_is_reported(self):
        res = run_scenario(scenario(KIND_MAJORITY_ENDORSER, attacker_count=4, honest_count=3, rounds=8))
        sim = res.sim
        assert res.metrics.badge_accuracy < 1.0
        misbadged = [
            r for r in sim.reviews.reviews.values()
            if r.badge != BADGE_PENDING
            and r.badge != expected_badge(r.rating, GOOD)
        ]
        assert misbadged, "no honest review was misbadged despite capture"
        # The attack premise held: some roster was majority-dishonest.
        attackers = next(
            set(rec.payload["attackers"]) for rec in sim.ledger.log if rec.kind == "ScenarioSetup"
        )
        rosters = [
            rec.payload["roster"]
            for rec in sim.ledger.log
            if rec.kind in ("EndorsersBootstrapped", "SelectionRun") and rec.payload.get("roster")
        ]
        assert any(
            sum(1 for pid in roster if pid in attackers) * 2 > len(roster) for roster in rosters
        )


class TestFalseRefund:
    def test_honest_panels_reject_false_claims(self):
        res = run_scenario(scenario(KIND_FALSE_REFUND, rounds=6))
        assert res.metrics.refund_fraud_approved == 0
        outcomes = {c.outcome for c in res.sim.reviews.claims.values()}
        assert "Rejected" in outcomes


class TestDeterminismAndReplay:
    @pytest.mark.parametrize("kind", [KIND_BAD_MOUTHING, KIND_BALLOT_STUFFING, KIND_FALSE_REFUND])
    def test_same_seed_same_log_hash(self, kind):
        first = run_scenario(scenario(kind, rounds=6))
        second = run_scenario(scenario(kind, rounds=6))
        assert first.final_log_hash() == second.final_log_hash()
        assert first.metrics == second.metrics

    def test_different_seed_different_log(self):
        a = run_scenario(scenario(KIND_BAD_MOUTHING, seed=1, rounds=6))
        b = run_scenario(scenario(KIND_BAD_MOUTHING, seed=2, rounds=6))
        assert a.final_log_hash() != b.final_log_hash()

    @pytest.mark.parametrize(
        "kind",
        [
            KIND_SYBIL, KIND_BALLOT_STUFFING, KIND_BAD_MOUTHING, KIND_COLLUSION,
            KIND_WHITEWASHING, KIND_CONSTANT_ATTACK, KIND_MAJORITY_ENDORSER, KIND_FALSE_REFUND,
        ],
    )
    def test_replay_metrics_equal_live_metrics(self, kind):
        kw = {"rounds": 8}
        if kind == KIND_MAJORITY_ENDORSER:
            kw = {"rounds": 8, "attacker_count": 4, "honest_count": 3}
        res = run_scenario(scenario(kind, **kw))
        # The replay reads every record of the live chain through iter_log_lines.
        assert replay_verify(res.log_text()) == res.metrics

    def test_refund_paid_by_an_attacker_provider_is_attacker_spend(self):
        # No harness scenario lets an attacker provider pay a refund, so the
        # facade drives one: the provider is listed as an attacker, lists a
        # service and pays back an approved claim.
        sim = make_sim(panel_size=3)
        provider, service = provider_and_service(sim, ether("0.5"))
        for i in range(3):
            reviewed_purchase(sim, service, f"end-{i}")
        sim.bootstrap_endorsers(service, 3)
        claimant = sim.register("claimant", {ROLE_CONSUMER})
        purchase = sim.buy_service(claimant, service)
        sim.ledger.append_event("ScenarioSetup", {
            "scenario": "refund", "kind": KIND_FALSE_REFUND, "attackers": [provider],
            "ground_truth": {service: BAD}, "target_providers": [],
        })
        claim_id = sim.file_refund_claim(claimant, purchase)
        for member in sim.reviews.claims[claim_id].panel:
            sim.vote_refund(member, claim_id, VOTE_APPROVE)
        assert sim.reviews.claims[claim_id].outcome == OUTCOME_APPROVED
        spent = sim.ledger.spent[provider]
        assert spent == sim.ledger.gas.charge(OP_ADD_SERVICE) + REVIEW_FUND_SEED + ether("0.5")
        assert replay_verify(exported_log(sim.ledger)).attacker_spend_wei == spent

    def test_truncated_log_breaks_chain(self):
        res = run_scenario(scenario(KIND_SYBIL, rounds=3))
        lines = res.log_text().splitlines()
        with pytest.raises(ChainBroken, match="seq gap"):
            replay_verify(b"\n".join(lines[1:]) + b"\n")

    def test_first_failure_in_log_order_is_raised(self):
        # A payload field dropped early (chain re-hashed) and a broken link
        # later: the replay folds as it verifies, so the early fault wins.
        def edit(rec):
            if rec.kind == "GasCharged":
                del rec.payload["amount_wei"]

        lines = forged_log(run_scenario(scenario(KIND_SYBIL, rounds=2)).log_text(), edit).splitlines(keepends=True)
        lines[-1], lines[-2] = lines[-2], lines[-1]
        with pytest.raises(MalformedEvent, match="amount_wei"):
            replay_verify(b"".join(lines))

    def test_replay_memory_does_not_grow_with_the_log(self):
        # The replay verifies and folds each line as it reads it, so beyond
        # the log's bytes it holds per-participant totals, not a record per line.
        res = run_scenario(scenario(KIND_COLLUSION, rounds=12, honest_count=96, attacker_count=16))
        log, live = res.log_text(), res.metrics
        del res
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert replay_verify(log) == live
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * len(log)

    def test_empty_log_zero_metrics(self):
        assert replay_verify(b"") == ScenarioMetrics()

    def test_garbage_log_malformed(self):
        with pytest.raises(MalformedEvent):
            replay_verify(b"not json at all\n")

    def test_intact_chain_missing_ground_truth_malformed(self):
        # A forger drops a badged service from the setup and re-hashes the
        # chain: the log verifies, but its metrics cannot be computed.
        res = run_scenario(scenario(KIND_COLLUSION, rounds=6))
        records = list(iter_log_lines(res.log_text()))
        badged = next(
            r.payload["service"] for r in records if r.kind == "SelectionRun" and r.payload["badged"]
        )

        def drop_badged(rec):
            if rec.kind == "ScenarioSetup":
                del rec.payload["ground_truth"][badged]

        forged = forged_log(res.log_text(), drop_badged)
        assert len(list(iter_log_lines(forged))) == len(records)
        with pytest.raises(MalformedEvent, match="computing the metrics"):
            replay_verify(forged)


class TestPopulationAndConfig:
    def test_happy_honest_reviews_are_positive_and_pending_after_round_one(self):
        res = run_scenario(scenario(KIND_CONSTANT_ATTACK, honest_count=10, attacker_count=0, rounds=1))
        reviews = list(res.sim.reviews.reviews.values())
        assert len(reviews) == 10
        assert all(r.rating >= 4 for r in reviews)
        # Round 1 selection may badge some; all were Pending at submission.
        assert all(r.badge in (BADGE_PENDING, BADGE_AUTHENTIC) for r in reviews)

    def test_zero_participants_zero_metrics(self):
        res = run_scenario(scenario(KIND_CONSTANT_ATTACK, honest_count=0, attacker_count=0, rounds=2))
        m = res.metrics
        assert m == ScenarioMetrics(badge_accuracy=0.0)

    def test_same_spec_same_population(self):
        a = run_scenario(scenario(KIND_SYBIL, rounds=2))
        b = run_scenario(scenario(KIND_SYBIL, rounds=2))
        assert sorted(a.sim.identity.participants) == sorted(b.sim.identity.participants)

    def test_parse_scenario_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            parse_scenario({"kind": "sybil", "name": "x", "bogus": 1})

    def test_parse_scenario_requires_known_kind(self):
        with pytest.raises(ConfigError):
            parse_scenario({"kind": "ddos", "name": "x"})

    def test_scenario_protocol_overrides_apply(self):
        sc = parse_scenario(
            {"kind": "bad_mouthing", "name": "x", "protocol": {"penalty_threshold": 1}, "rounds": 12, "seed": 5}
        )
        res = run_scenario(sc)
        assert res.sim.config.penalty_threshold == 1


class TestRunnerRecords:
    """The facts the runner relies on instead of checking them each round."""

    @pytest.mark.parametrize(
        "sc", canonical_scenarios() + [at_scale_scenario(k) for k in AT_SCALE_KINDS], ids=lambda s: s.name
    )
    def test_only_consumers_endorse_and_every_listing_stays(self, sc):
        runner = ScenarioRunner(sc)
        res = runner.run()
        consumers = set(runner.consumers)
        rostered = set()
        for rec in iter_log_lines(res.log_text()):
            if rec.kind in ("SelectionRun", "EndorsersBootstrapped"):
                rostered.update(rec.payload["roster"])
        panels = {pid for claim in res.sim.reviews.claims.values() for pid in claim.panel}
        assert rostered and rostered <= consumers
        assert bool(panels) == (sc.kind == KIND_FALSE_REFUND) and panels <= consumers
        # No run withdraws a service or excludes a provider, so no fund is ever out of reach.
        services = res.sim.market.services.values()
        assert all(s.status == STATUS_LISTED for s in services)
        assert all(res.sim.identity.get(s.provider).active for s in services)

    @pytest.mark.parametrize("honest, left, starved", [
        (REVIEWS_PER_ETHER - 1, REVIEW_SUBSIDY, False),
        (REVIEWS_PER_ETHER, 0, True),
    ])
    def test_a_fund_is_starved_below_one_subsidy(self, honest, left, starved):
        # One listing, one round: each honest review takes one subsidy from the 1-Ether fund.
        res = run_scenario(scenario(KIND_CONSTANT_ATTACK, attacker_count=0, honest_count=honest, rounds=1))
        (service,) = res.sim.market.services
        assert res.sim.ledger.balance(service) == left
        assert res.extras["review_starved_services"] == ([service] if starved else [])

    def test_expected_badge_by_rating_and_quality(self):
        authentic, fraudulent = BADGE_AUTHENTIC, BADGE_FRAUDULENT
        # rating: (badge on a Good service, badge on a Bad one); a 3 matches neither quality.
        assert {r: (expected_badge(r, GOOD), expected_badge(r, BAD)) for r in range(1, 6)} == {
            1: (fraudulent, authentic),
            2: (fraudulent, authentic),
            3: (fraudulent, fraudulent),
            4: (authentic, fraudulent),
            5: (authentic, fraudulent),
        }
