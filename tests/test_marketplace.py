"""Marketplace: listing, purchase, and fund bookkeeping in exact Wei."""

from fractions import Fraction

import pytest

from ddrm import REVIEW_FUND_SEED, ether, text_digest
from ddrm.errors import (
    FundExhausted,
    InsufficientFunds,
    NotOwner,
    NoValidSrdt,
    ServiceWithdrawn,
    UnknownService,
    ValidationError,
)
from ddrm.identity import ROLE_CONSUMER, ROLE_PROVIDER
from conftest import make_sim, provider_and_service

ADD_GAS = 528_681_600_000_000       # 182304 units at 2.9 Gwei
BUY_GAS = 184_988_100_000_000       # 63789 units at 2.9 Gwei


class TestAddService:
    def test_listing_debits_gas_plus_one_ether_into_fund(self, sim):
        provider = sim.register("prov", {ROLE_PROVIDER})
        service = sim.add_service(provider, ether("0.5"))
        assert sim.ledger.balance(provider) == ether(10) - ether(1) - ADD_GAS
        assert sim.ledger.balance(provider) == 8_999_471_318_400_000_000
        assert sim.ledger.balance(service) == REVIEW_FUND_SEED

    # Short of the seed itself, and holding the seed but short of gas + seed.
    @pytest.mark.parametrize("genesis", [ether("0.5"), REVIEW_FUND_SEED + ADD_GAS - 1], ids=["no-seed", "no-gas"])
    def test_insufficient_balance_lists_nothing(self, genesis):
        sim = make_sim(genesis_balance=genesis)
        provider = sim.register("prov", {ROLE_PROVIDER})
        before = sim.fingerprint()
        with pytest.raises(InsufficientFunds):
            sim.add_service(provider, ether("0.5"))
        assert sim.fingerprint() == before
        assert sim.market.services == {}
        assert not any(account.startswith("SVC-") for account in sim.ledger.accounts)

    def test_two_listings_have_independent_funds(self, sim):
        provider = sim.register("prov", {ROLE_PROVIDER})
        a = sim.add_service(provider, ether("0.5"))
        b = sim.add_service(provider, ether("0.7"))
        assert a != b
        assert sim.ledger.balance(a) == REVIEW_FUND_SEED
        assert sim.ledger.balance(b) == REVIEW_FUND_SEED

    def test_consumer_role_cannot_list(self, sim):
        consumer = sim.register("cons", {ROLE_CONSUMER})
        with pytest.raises(ValidationError):
            sim.add_service(consumer, ether(1))


class TestBuyService:
    def test_purchase_moves_exact_amounts_and_mints_srat(self):
        sim = make_sim(genesis_balance=ether(2))
        provider, service = provider_and_service(sim, ether("0.5"))
        # Give the provider room to list despite the small genesis default.
        consumer = sim.register("cons", {ROLE_CONSUMER})
        provider_before = sim.ledger.balance(provider)
        purchase = sim.buy_service(consumer, service)
        assert sim.ledger.balance(consumer) == ether(2) - ether("0.5") - BUY_GAS
        assert sim.ledger.balance(consumer) == 1_499_815_011_900_000_000
        assert sim.ledger.balance(provider) == provider_before + ether("0.5")
        token = sim.tokens.srat_for_purchase(purchase)
        assert token is not None and token.state == "Active"

    def test_balance_equal_to_cost_cannot_pay_gas(self, sim):
        # Price equal to the whole balance leaves nothing for purchase gas.
        provider, service = provider_and_service(sim, ether(10))
        consumer = sim.register("cons", {ROLE_CONSUMER})
        assert sim.ledger.balance(consumer) == ether(10)
        with pytest.raises(InsufficientFunds):
            sim.buy_service(consumer, service)

    def test_repurchase_mints_second_token(self, market_sim):
        sim, provider, service, consumer = market_sim
        first = sim.buy_service(consumer, service)
        second = sim.buy_service(consumer, service)
        tokens = {sim.tokens.srat_for_purchase(first).token_id, sim.tokens.srat_for_purchase(second).token_id}
        assert len(tokens) == 2

    def test_unknown_service(self, sim):
        consumer = sim.register("cons", {ROLE_CONSUMER})
        with pytest.raises(UnknownService):
            sim.buy_service(consumer, "SVC-9999")


class TestModifyWithdraw:
    def test_modified_price_applies_to_later_purchases(self, market_sim):
        sim, provider, service, consumer = market_sim
        sim.modify_service(provider, service, ether("0.8"))
        before = sim.ledger.balance(consumer)
        sim.buy_service(consumer, service)
        assert before - sim.ledger.balance(consumer) == ether("0.8") + BUY_GAS

    def test_non_owner_cannot_modify(self, market_sim):
        sim, provider, service, consumer = market_sim
        with pytest.raises(NotOwner):
            sim.modify_service(consumer, service, ether(1))

    def test_withdraw_then_buy_rejected(self, market_sim):
        sim, provider, service, consumer = market_sim
        sim.withdraw_service(provider, service)
        with pytest.raises(ServiceWithdrawn):
            sim.buy_service(consumer, service)

    def test_withdrawn_fund_frozen_by_default(self, market_sim):
        sim, provider, service, consumer = market_sim
        before = sim.ledger.balance(provider)
        sim.withdraw_service(provider, service)
        assert sim.ledger.balance(service) == REVIEW_FUND_SEED
        assert sim.ledger.balance(provider) == before

    def test_withdraw_refund_opt_in(self):
        sim = make_sim(refund_fund_on_withdraw=True)
        provider, service = provider_and_service(sim)
        before = sim.ledger.balance(provider)
        sim.withdraw_service(provider, service)
        assert sim.ledger.balance(service) == 0
        assert sim.ledger.balance(provider) == before + REVIEW_FUND_SEED

    def test_withdrawn_service_keeps_review_history(self, market_sim):
        sim, provider, service, consumer = market_sim
        purchase = sim.buy_service(consumer, service)
        review = sim.submit_review(consumer, purchase, 5, text_digest("fine"))
        sim.withdraw_service(provider, service)
        assert sim.reviews.reviews[review].service_id == service


class TestReplenish:
    def test_replenish_moves_amount_into_fund(self, market_sim):
        sim, provider, service, consumer = market_sim
        before = sim.ledger.balance(provider)
        fund = sim.replenish_fund(provider, service, ether(1))
        assert fund == REVIEW_FUND_SEED + ether(1)
        assert sim.ledger.balance(provider) == before - ether(1) - ADD_GAS

    def test_replenish_zero_is_noop(self, market_sim):
        sim, provider, service, consumer = market_sim
        before = sim.fingerprint()
        assert sim.replenish_fund(provider, service, 0) == REVIEW_FUND_SEED
        assert sim.fingerprint() == before

    def test_replenish_by_non_owner_rejected(self, market_sim):
        sim, provider, service, consumer = market_sim
        with pytest.raises(NotOwner):
            sim.replenish_fund(consumer, service, ether(1))

    @pytest.mark.parametrize("amount", [ether(2), 0], ids=["two-ether", "zero"])
    def test_replenishing_a_withdrawn_service_is_refused(self, amount):
        sim = make_sim(refund_fund_on_withdraw=True)
        provider, service = provider_and_service(sim)
        sim.withdraw_service(provider, service)
        before = sim.fingerprint()
        with pytest.raises(ServiceWithdrawn):
            sim.replenish_fund(provider, service, amount)
        assert sim.fingerprint() == before
        assert sim.ledger.balance(service) == 0

    def test_replenished_ether_buys_hundred_more_reviews(self):
        # Drain the fund, then confirm 1 Ether reopens exactly 100 slots.
        sim = make_sim(genesis_balance=ether(100))
        provider, service = provider_and_service(sim, ether("0.001"))
        consumer = sim.register("cons", {ROLE_CONSUMER})
        for i in range(100):
            purchase = sim.buy_service(consumer, service)
            sim.submit_review(consumer, purchase, 5, text_digest(f"r{i}"))
        assert sim.ledger.balance(service) == 0
        blocked = sim.buy_service(consumer, service)
        with pytest.raises(FundExhausted):
            sim.submit_review(consumer, blocked, 5, text_digest("blocked"))
        sim.replenish_fund(provider, service, ether(1))
        sim.submit_review(consumer, blocked, 5, text_digest("ok now"))


class TestDiscountedPurchase:
    def _earn_srdt(self, sim, service, card):
        from conftest import reviewed_purchase

        consumer, purchase, review = reviewed_purchase(sim, service, card)
        roster = sim.bootstrap_endorsers(service, 1)
        assert roster == [consumer]
        token = sim.tokens.active_srdt_for(consumer, service)
        return consumer, token

    def test_discount_rate_applied_to_price(self, sim):
        provider, service = provider_and_service(sim, ether(1))
        consumer, token = self._earn_srdt(sim, service, "cons-0")
        before = sim.ledger.balance(consumer)
        sim.buy_service(consumer, service, srdt_token_id=token.token_id)
        assert before - sim.ledger.balance(consumer) == ether("0.8") + BUY_GAS
        assert token.state == "Consumed"

    def test_configured_discount_rate_applied(self):
        sim = make_sim(srdt_discount=Fraction(3, 4))
        provider, service = provider_and_service(sim, ether(1))
        consumer, token = self._earn_srdt(sim, service, "cons-0")
        before = sim.ledger.balance(consumer)
        sim.buy_service(consumer, service, srdt_token_id=token.token_id)
        assert before - sim.ledger.balance(consumer) == ether("0.25") + BUY_GAS

    def test_consumed_token_cannot_discount_again(self, sim):
        provider, service = provider_and_service(sim, ether(1))
        consumer, token = self._earn_srdt(sim, service, "cons-0")
        sim.buy_service(consumer, service, srdt_token_id=token.token_id)
        with pytest.raises(NoValidSrdt):
            sim.buy_service(consumer, service, srdt_token_id=token.token_id)

    def test_foreign_token_rejected(self, sim):
        provider, service = provider_and_service(sim, ether(1))
        consumer, token = self._earn_srdt(sim, service, "cons-0")
        other = sim.register("cons-1", {ROLE_CONSUMER})
        with pytest.raises(NoValidSrdt):
            sim.buy_service(other, service, srdt_token_id=token.token_id)
