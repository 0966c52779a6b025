"""Identity: registration, card uniqueness, addresses, exclusion."""

import pytest

from ddrm import ProtocolConfig, Simulation, ether, text_digest
from ddrm.errors import DuplicateCard, ParticipantExcluded, UnknownParticipant, ValidationError
from ddrm.identity import ROLE_CONSUMER, ROLE_PROVIDER, STATUS_EXCLUDED

from conftest import make_sim, provider_and_service, reviewed_purchase


class TestRegistration:
    def test_fresh_card_gets_genesis_balance(self, sim):
        pid = sim.register("visa-1", {ROLE_CONSUMER})
        assert sim.ledger.balance(pid) == ether(10)

    def test_genesis_balance_configurable(self):
        sim = make_sim(genesis_balance=ether(3))
        pid = sim.register("visa-1", {ROLE_CONSUMER})
        assert sim.ledger.balance(pid) == ether(3)

    def test_same_card_twice_rejected(self, sim):
        sim.register("visa-1", {ROLE_CONSUMER})
        with pytest.raises(DuplicateCard):
            sim.register("visa-1", {ROLE_PROVIDER})

    def test_card_stays_bound_after_exclusion(self, sim):
        pid = sim.register("visa-1", {ROLE_CONSUMER})
        sim.exclude(pid)
        with pytest.raises(DuplicateCard):
            sim.register("visa-1", {ROLE_CONSUMER})

    def test_earned_roles_cannot_be_registered(self, sim):
        with pytest.raises(ValidationError):
            sim.register("visa-1", {"Endorser"})

    def test_dual_role_registration_permitted(self, sim):
        pid = sim.register("visa-1", {ROLE_PROVIDER, ROLE_CONSUMER})
        record = sim.identity.get(pid)
        assert ROLE_PROVIDER in record.roles and ROLE_CONSUMER in record.roles


class TestAddresses:
    def test_bind_adds_second_address(self, sim):
        pid = sim.register("visa-1", {ROLE_CONSUMER})
        sim.bind_address(pid)
        assert len(sim.identity.get(pid).addresses) == 2

    def test_addresses_share_one_balance_pool(self, sim):
        pid = sim.register("visa-1", {ROLE_CONSUMER})
        before = sim.ledger.balance(pid)
        sim.bind_address(pid)
        assert sim.ledger.balance(pid) == before

    def test_every_address_resolves_to_its_participant(self, sim):
        a = sim.register("visa-1", {ROLE_CONSUMER})
        b = sim.register("visa-2", {ROLE_CONSUMER})
        extra = sim.bind_address(a)
        for addr in sim.identity.get(a).addresses:
            assert sim.identity.address_owner[addr] == a
        assert sim.identity.address_owner[extra] == a
        assert sim.identity.address_owner[sim.identity.get(b).addresses[0]] == b

    def test_excluded_participant_cannot_bind(self, sim):
        pid = sim.register("visa-1", {ROLE_CONSUMER})
        sim.exclude(pid)
        with pytest.raises(ParticipantExcluded):
            sim.bind_address(pid)

    def test_penalties_accrue_per_participant_not_per_address(self):
        # A reviewer acting under extra addresses accumulates one penalty entry.
        sim = make_sim(endorsement_quorum=1)
        provider, service = provider_and_service(sim)
        consumer, purchase, review = reviewed_purchase(sim, service, "cons-0", rating=1)
        sim.bind_address(consumer)
        sim.bind_address(consumer)
        voter, _, _ = reviewed_purchase(sim, service, "cons-1", rating=5)
        sim.bootstrap_endorsers(service, 2)
        sim.endorse_review(voter, review, "Down")
        sim.run_endorser_selection(service)
        assert sim.reviews.penalties.get(consumer, 0) == 1
        assert len(sim.identity.get(consumer).addresses) == 3


class TestExclusion:
    def test_exclude_unknown_participant(self, sim):
        with pytest.raises(UnknownParticipant):
            sim.exclude("P9999")

    def test_exclude_is_idempotent(self, sim):
        pid = sim.register("visa-1", {ROLE_CONSUMER})
        assert sim.exclude(pid) == STATUS_EXCLUDED
        events_after_first = len(sim.ledger.log)
        assert sim.exclude(pid) == STATUS_EXCLUDED
        assert len(sim.ledger.log) == events_after_first

    def test_exclusion_voids_tokens_and_withdraws_listings(self, sim):
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons-card", {ROLE_CONSUMER})
        purchase = sim.buy_service(consumer, service)
        token = sim.tokens.srat_for_purchase(purchase)
        sim.exclude(consumer)
        assert token.state == "Voided"
        sim.exclude(provider)
        assert sim.market.get_service(service).status == "Withdrawn"

    @pytest.mark.parametrize("refund", [False, True])
    def test_exclusion_withdraws_listings_like_withdraw_service(self, refund):
        sim = make_sim(refund_fund_on_withdraw=refund)
        provider, service = provider_and_service(sim)
        before = sim.ledger.balance(provider)
        sim.exclude(provider)
        withdrawn = sim.ledger.log[-2]
        assert withdrawn.kind == "ServiceWithdrawn"
        assert withdrawn.payload == {"service": service, "fund_refunded_wei": ether(1) if refund else 0}
        assert sim.ledger.log[-1].payload["services_withdrawn"] == [service]
        assert sim.ledger.balance(provider) == before + (ether(1) if refund else 0)
        assert sim.ledger.balance(service) == (0 if refund else ether(1))

    @pytest.mark.parametrize(
        "refund, final_hash",
        [
            (False, "00a9e00697a6d86629fb628b1d83050079a96ac24d0813a95166db6e5bdc8595"),
            (True, "7aea2f84b7da73cd4e6964b7b2679a26b2e683361f23b12fccd85c74fa8469aa"),
        ],
    )
    def test_facade_exclusion_pinned(self, refund, final_hash):
        # A participant who is a provider, a reviewer, an endorser and a token
        # holder at once, so one exclusion reaches every part it strips.
        sim = Simulation(ProtocolConfig(refund_fund_on_withdraw=refund), seed=2407)
        other = sim.register("other-provider", {ROLE_PROVIDER})
        reviewed = sim.add_service(other, ether("0.5"))
        dual = sim.register("dual-card", {ROLE_PROVIDER, ROLE_CONSUMER})
        listed = sim.add_service(dual, ether("0.5"))
        sim.advance_tick()
        purchase = sim.buy_service(dual, reviewed)
        sim.submit_review(dual, purchase, 5, text_digest("dual review"))
        sim.bootstrap_endorsers(reviewed)
        sim.buy_service(dual, reviewed)
        sim.advance_tick()
        sim.exclude(dual)
        events_after_first = len(sim.ledger.log)
        sim.exclude(dual)
        assert len(sim.ledger.log) == events_after_first
        sim.advance_tick()
        excluded = [rec.payload for rec in sim.ledger.log if rec.kind == "Excluded"]
        assert excluded == [
            {
                "participant": dual,
                "voided_tokens": ["SRAT-00002", "SRDT-00001"],
                "rosters_removed": [reviewed],
                "services_withdrawn": [listed],
            }
        ]
        assert (reviewed, listed) == ("SVC-0001", "SVC-0002")
        assert len(sim.ledger.log) == 14
        assert sim.ledger.final_hash() == final_hash

    def test_excluded_participant_cannot_buy(self, sim):
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons-card", {ROLE_CONSUMER})
        sim.exclude(consumer)
        with pytest.raises(ParticipantExcluded):
            sim.buy_service(consumer, service)

    def test_excluded_event_records_voided_state(self, sim):
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons-card", {ROLE_CONSUMER})
        sim.buy_service(consumer, service)
        sim.exclude(consumer)
        event = sim.ledger.log[-1]
        assert event.kind == "Excluded"
        assert event.payload["participant"] == consumer
        assert len(event.payload["voided_tokens"]) == 1
