"""Token lifecycle: single-use semantics, expiry boundaries, DRET awards."""

from collections import Counter

import pytest

from ddrm import GasSchedule, ProtocolConfig, ether, text_digest
from ddrm.endorsement import BADGE_FRAUDULENT
from ddrm.errors import TokenExpired, TokenNotActive
from ddrm.identity import ROLE_CONSUMER
from ddrm.ledger import Ledger
from ddrm.tokens import ACTIVE, BURNED, CONSUMED, EXPIRED, VOIDED, TokenBook

from conftest import make_sim, provider_and_service, reviewed_purchase
from test_properties import check_facts_against_log


class TestSratLifecycle:
    def test_expiry_set_from_lifetime(self, sim):
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons", {ROLE_CONSUMER})
        for _ in range(5):
            sim.advance_tick()
        purchase = sim.buy_service(consumer, service)
        token = sim.tokens.srat_for_purchase(purchase)
        assert token.minted_tick == 5
        assert token.expiry_tick == 105

    def test_burn_is_single_use(self, sim):
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons", {ROLE_CONSUMER})
        purchase = sim.buy_service(consumer, service)
        token = sim.tokens.srat_for_purchase(purchase)
        sim.submit_review(consumer, purchase, 4, text_digest("x"))
        assert token.state == BURNED
        with pytest.raises(TokenNotActive):
            sim.tokens.burn_srat(token.token_id)

    def test_burn_after_expiry_rejected(self):
        sim = make_sim(srat_lifetime=2)
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons", {ROLE_CONSUMER})
        purchase = sim.buy_service(consumer, service)
        token = sim.tokens.srat_for_purchase(purchase)
        sim.advance_tick()
        sim.advance_tick()  # sweep at the expiry tick
        assert token.state == EXPIRED
        with pytest.raises(TokenExpired):
            sim.tokens.burn_srat(token.token_id)

    def test_review_gas_never_touches_consumer(self, sim):
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons", {ROLE_CONSUMER})
        purchase = sim.buy_service(consumer, service)
        balance_after_buy = sim.ledger.balance(consumer)
        sim.submit_review(consumer, purchase, 5, text_digest("x"))
        assert sim.ledger.balance(consumer) == balance_after_buy


class TestSpendErrors:
    @pytest.mark.parametrize("kind", ["srat", "srdt"])
    def test_errors_checked_in_order(self, sim, kind):
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons", {ROLE_CONSUMER})
        if kind == "srat":
            token = sim.tokens.srat_for_purchase(sim.buy_service(consumer, service))
            spend = sim.tokens.burn_srat
        else:
            token = sim.tokens.srdts[sim.tokens.mint_srdt(consumer, service)]
            spend = lambda token_id: sim.tokens.consume_srdt(token_id)
        with pytest.raises(TokenNotActive):
            spend("NO-SUCH-TOKEN")
        token.expiry_tick = sim.ledger.tick  # past expiry, sweep not yet run
        with pytest.raises(TokenExpired):
            spend(token.token_id)
        token.state = VOIDED  # a dead state outranks the expiry tick
        with pytest.raises(TokenNotActive):
            spend(token.token_id)
        token.state = EXPIRED
        with pytest.raises(TokenExpired):
            spend(token.token_id)


class TestExpirySweep:
    def test_sweep_is_inclusive_at_expiry_tick(self):
        sim = make_sim(srat_lifetime=3)
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons", {ROLE_CONSUMER})
        purchase = sim.buy_service(consumer, service)
        token = sim.tokens.srat_for_purchase(purchase)
        for _ in range(2):
            sim.advance_tick()
        assert token.state == ACTIVE
        sim.advance_tick()
        assert sim.ledger.tick == token.expiry_tick
        assert token.state == EXPIRED

    def test_sweep_idempotent_at_same_tick(self):
        sim = make_sim(srat_lifetime=1)
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons", {ROLE_CONSUMER})
        sim.buy_service(consumer, service)
        sim.advance_tick()
        assert sim.tokens.expiry_sweep(sim.ledger.tick) == []

    def test_sweep_with_no_tokens(self, sim):
        assert sim.tokens.expiry_sweep(0) == []

    def test_due_tokens_expire_by_book_then_id_number(self):
        # Past the five-digit padding an id string sorts SRAT-100000 right after SRAT-10000.
        config = ProtocolConfig(srat_lifetime=2, srdt_lifetime=1)
        book = TokenBook(config, Ledger(GasSchedule(), seed=1))
        book.mint_srdt("holder", "SVC-00001")  # filed first, in the earlier bucket
        for n in range(100_001):
            book.mint_srat("consumer", "SVC-00001", f"PUR-{n}")
        expired = book.expiry_sweep(2)
        assert book.ledger.log[-1].payload == {"tokens": expired}
        assert len(expired) == 100_002
        assert expired[:2] == ["SRAT-00001", "SRAT-00002"]
        assert expired[-4:] == ["SRAT-99999", "SRAT-100000", "SRAT-100001", "SRDT-00001"]

    def test_expired_srat_blocks_review(self):
        sim = make_sim(srat_lifetime=1)
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons", {ROLE_CONSUMER})
        purchase = sim.buy_service(consumer, service)
        sim.advance_tick()
        from ddrm.errors import NoValidSrat

        with pytest.raises(NoValidSrat):
            sim.submit_review(consumer, purchase, 5, text_digest("late"))


class TestSrdt:
    def _rostered(self, sim, service, card):
        consumer, purchase, review = reviewed_purchase(sim, service, card)
        sim.bootstrap_endorsers(service, 1)
        return consumer, sim.tokens.active_srdt_for(consumer, service)

    def test_bound_to_its_service(self, sim):
        provider, service = provider_and_service(sim)
        other_service = sim.add_service(provider, ether("0.3"))
        consumer, token = self._rostered(sim, service, "cons-0")
        assert token.service_id == service
        assert sim.tokens.active_srdt_for(consumer, other_service) is None

    def test_consume_once(self, sim):
        provider, service = provider_and_service(sim)
        consumer, token = self._rostered(sim, service, "cons-0")
        sim.tokens.consume_srdt(token.token_id)
        assert token.state == CONSUMED
        with pytest.raises(TokenNotActive):
            sim.tokens.consume_srdt(token.token_id)

    def test_consume_expired_rejected(self):
        sim = make_sim(srdt_lifetime=2)
        provider, service = provider_and_service(sim)
        consumer, token = self._rostered(sim, service, "cons-0")
        sim.advance_tick()
        sim.advance_tick()
        with pytest.raises(TokenExpired):
            sim.tokens.consume_srdt(token.token_id)


class TestDret:
    # Quorum 1 keeps badge plumbing out of the way; each roster member's
    # single SRDT up-votes one review and one selection badges the batch.
    def _badge_authentic_reviews(self, sim, service, count, start=0):
        reviews = []
        for i in range(count):
            consumer, purchase, review = reviewed_purchase(sim, service, f"rated-{start}-{i}")
            reviews.append(review)
        if not sim.reviews.rosters.get(service):
            sim.bootstrap_endorsers(service, count)
        roster = sorted(sim.reviews.rosters[service])
        assert len(roster) >= count
        for member, review in zip(roster, reviews):
            sim.endorse_review(member, review, "Up")
        sim.run_endorser_selection(service)

    def test_four_badges_no_award(self):
        sim = make_sim(endorsement_quorum=1)
        provider, service = provider_and_service(sim, ether("0.01"))
        self._badge_authentic_reviews(sim, service, 4)
        assert sim.tokens.dret.get(provider, 0) == 0

    def test_fifth_badge_awards_one(self):
        sim = make_sim(endorsement_quorum=1)
        provider, service = provider_and_service(sim, ether("0.01"))
        self._badge_authentic_reviews(sim, service, 5)
        assert sim.tokens.dret.get(provider, 0) == 1

    def test_ten_badges_award_two(self):
        sim = make_sim(endorsement_quorum=1)
        provider, service = provider_and_service(sim, ether("0.01"))
        self._badge_authentic_reviews(sim, service, 10)
        assert sim.tokens.dret.get(provider, 0) == 2

    def test_interval_configurable(self):
        sim = make_sim(endorsement_quorum=1, dret_interval=2)
        provider, service = provider_and_service(sim, ether("0.01"))
        self._badge_authentic_reviews(sim, service, 4)
        assert sim.tokens.dret.get(provider, 0) == 2

    def test_fraudulent_badges_do_not_count(self):
        sim = make_sim(endorsement_quorum=1)
        provider, service = provider_and_service(sim, ether("0.01"))
        _, _, review = reviewed_purchase(sim, service, "fraud", rating=1)
        sim.bootstrap_endorsers(service, 1)
        (member,) = sim.reviews.rosters[service]
        sim.endorse_review(member, review, "Down")
        sim.run_endorser_selection(service)
        assert sim.reviews.reviews[review].badge == BADGE_FRAUDULENT
        self._badge_authentic_reviews(sim, service, 4, start=1)
        assert sim.tokens.dret.get(provider, 0) == 0
        check_facts_against_log(sim)

    def test_award_monotone_non_decreasing(self):
        sim = make_sim(endorsement_quorum=1)
        provider, service = provider_and_service(sim, ether("0.01"))
        counts = []
        self._badge_authentic_reviews(sim, service, 6)
        counts.append(sim.tokens.dret.get(provider, 0))
        self._badge_authentic_reviews(sim, service, 5, start=1)
        counts.append(sim.tokens.dret.get(provider, 0))
        assert counts == sorted(counts)
        assert counts[-1] == 2
        check_facts_against_log(sim)


class TestSupplyIdentity:
    def test_srat_supply_equals_purchases_minus_terminal_states(self, sim):
        provider, service = provider_and_service(sim, ether("0.01"))
        consumer = sim.register("cons", {ROLE_CONSUMER})
        purchases = [sim.buy_service(consumer, service) for _ in range(6)]
        sim.submit_review(consumer, purchases[0], 5, text_digest("a"))
        sim.submit_review(consumer, purchases[1], 4, text_digest("b"))
        counts = Counter(token.state for token in sim.tokens.srats.values())
        assert counts[ACTIVE] == len(purchases) - counts[BURNED] - counts[EXPIRED] - counts[VOIDED]
        assert counts[BURNED] == 2
