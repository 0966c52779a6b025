"""Service listings, purchases, and review-fund economics.

A service's review fund is a ledger account named by its service id, as
a contract's escrow balance would be. Listing a service charges the
provider the listing gas and moves 1 Ether into that account. A purchase
charges the consumer gas, moves the price to the provider, and mints one
review authorization token bound to the purchase. All checks run before
any money moves, so a failed call never leaves a partial transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import REVIEW_FUND_SEED, ProtocolConfig
from .errors import (
    InsufficientFunds,
    NotOwner,
    NoValidSrdt,
    ServiceWithdrawn,
    UnknownService,
    ValidationError,
)
from .identity import ROLE_PROVIDER, IdentityRegistry
from .ledger import OP_ADD_SERVICE, OP_REQUEST_SERVICE, Ledger
from .tokens import TokenBook

STATUS_LISTED = "Listed"
STATUS_WITHDRAWN = "Withdrawn"


@dataclass(slots=True)
class ServiceListing:
    service_id: str
    provider: str
    s_cost: int
    status: str = STATUS_LISTED


@dataclass(slots=True)
class PurchaseRecord:
    purchase_id: str
    service_id: str
    consumer: str
    price_paid: int
    tick: int


class Marketplace:
    """Service catalog plus purchase history."""

    def __init__(self, config: ProtocolConfig, ledger: Ledger, identity: IdentityRegistry, tokens: TokenBook):
        self.config = config
        self.ledger = ledger
        self.identity = identity
        self.tokens = tokens
        self.services: dict[str, ServiceListing] = {}
        self.purchases: dict[str, PurchaseRecord] = {}
        self.purchases_by_consumer: dict[str, list[str]] = {}   # append-only: keys never change

    def get_service(self, service_id: str) -> ServiceListing:
        if service_id not in self.services:
            raise UnknownService(service_id)
        return self.services[service_id]

    def _owned_service(self, provider: str, service_id: str) -> ServiceListing:
        service = self.get_service(service_id)
        if service.provider != provider:
            raise NotOwner(f"{provider} does not own {service_id}")
        return service

    def _listed(self, service: ServiceListing) -> ServiceListing:
        if service.status == STATUS_WITHDRAWN:
            raise ServiceWithdrawn(service.service_id)
        return service

    def add_service(self, provider: str, s_cost: int) -> str:
        self.identity.get_active(provider)
        if not self.identity.has_role(provider, ROLE_PROVIDER):
            raise ValidationError(f"{provider} lacks the {ROLE_PROVIDER} role")
        if s_cost <= 0:
            raise ValidationError("service cost must be strictly positive")
        gas = self.ledger.gas_cost(OP_ADD_SERVICE)
        if self.ledger.balance(provider) < gas + REVIEW_FUND_SEED:
            raise InsufficientFunds(f"{provider} cannot cover listing gas plus fund seed")

        service_id = f"SVC-{len(self.services) + 1:04d}"
        self.ledger.open_account(service_id)
        self.ledger.charge_gas(provider, OP_ADD_SERVICE)
        self.ledger.transfer(provider, service_id, REVIEW_FUND_SEED)
        self.services[service_id] = ServiceListing(service_id=service_id, provider=provider, s_cost=s_cost)
        self.ledger.append_event(
            "ServiceAdded",
            {
                "service": service_id,
                "provider": provider,
                "s_cost_wei": s_cost,
                "fund_wei": REVIEW_FUND_SEED,
            },
        )
        return service_id

    def buy_service(self, consumer: str, service_id: str, srdt_token_id: str | None = None) -> str:
        """Purchase at list price, or at a discount by consuming an SRDT."""
        self.identity.get_active(consumer)
        service = self._listed(self.get_service(service_id))
        price = service.s_cost
        if srdt_token_id is not None:
            token = self.tokens.srdts.get(srdt_token_id)
            if (
                token is None
                or token.holder != consumer
                or token.service_id != service_id
                or not token.usable_at(self.ledger.tick)
            ):
                raise NoValidSrdt(f"{srdt_token_id} is not usable by {consumer} for {service_id}")
            rate = self.config.srdt_discount
            discount = service.s_cost * rate.numerator // rate.denominator
            price = service.s_cost - discount
        gas = self.ledger.gas_cost(OP_REQUEST_SERVICE)
        if self.ledger.balance(consumer) < gas + price:
            raise InsufficientFunds(f"{consumer} cannot cover purchase gas plus price")

        self.ledger.charge_gas(consumer, OP_REQUEST_SERVICE)
        self.ledger.transfer(consumer, service.provider, price)
        purchase_id = f"PUR-{len(self.purchases) + 1:05d}"
        self.purchases[purchase_id] = PurchaseRecord(
            purchase_id=purchase_id,
            service_id=service_id,
            consumer=consumer,
            price_paid=price,
            tick=self.ledger.tick,
        )
        self.purchases_by_consumer.setdefault(consumer, []).append(purchase_id)
        srat_token = self.tokens.mint_srat(consumer, service_id, purchase_id)
        if srdt_token_id is not None:
            self.tokens.consume_srdt(srdt_token_id)
        self.ledger.append_event(
            "ServicePurchased",
            {
                "purchase": purchase_id,
                "service": service_id,
                "consumer": consumer,
                "provider": service.provider,
                "list_price_wei": service.s_cost,
                "price_paid_wei": price,
                "srat_token": srat_token,
                "srdt_token": srdt_token_id,
            },
        )
        return purchase_id

    def modify_service(self, provider: str, service_id: str, new_cost: int) -> None:
        self.identity.get_active(provider)
        service = self._owned_service(provider, service_id)
        if new_cost <= 0:
            raise ValidationError("service cost must be strictly positive")
        old = service.s_cost
        service.s_cost = new_cost
        self.ledger.append_event(
            "ServiceModified",
            {"service": service_id, "old_cost_wei": old, "new_cost_wei": new_cost},
        )

    def withdraw_service(self, provider: str, service_id: str) -> None:
        self.identity.get_active(provider)
        self._withdraw(self._listed(self._owned_service(provider, service_id)))

    def _withdraw(self, service: ServiceListing) -> None:
        service.status = STATUS_WITHDRAWN
        refunded = 0
        if self.config.refund_fund_on_withdraw:
            refunded = self.ledger.balance(service.service_id)
            self.ledger.transfer(service.service_id, service.provider, refunded)
        self.ledger.append_event(
            "ServiceWithdrawn",
            {"service": service.service_id, "fund_refunded_wei": refunded},
        )

    def replenish_fund(self, provider: str, service_id: str, amount: int) -> int:
        self.identity.get_active(provider)
        self._listed(self._owned_service(provider, service_id))
        if amount < 0:
            raise ValidationError("replenish amount cannot be negative")
        if amount == 0:
            return self.ledger.balance(service_id)
        gas = self.ledger.gas_cost(OP_ADD_SERVICE)
        if self.ledger.balance(provider) < amount + gas:
            raise InsufficientFunds(f"{provider} cannot cover replenishment plus gas")
        self.ledger.charge_gas(provider, OP_ADD_SERVICE)
        self.ledger.transfer(provider, service_id, amount)
        fund = self.ledger.balance(service_id)
        self.ledger.append_event(
            "FundReplenished",
            {"service": service_id, "provider": provider, "amount_wei": amount, "fund_wei": fund},
        )
        return fund

    def withdraw_all_for(self, provider: str) -> dict:
        """On exclusion: withdraw every listed service, as withdraw_service would."""
        withdrawn = []
        for service in self.services.values():
            if service.provider == provider and service.status == STATUS_LISTED:
                self._withdraw(service)
                withdrawn.append(service.service_id)
        return {"services_withdrawn": withdrawn}
