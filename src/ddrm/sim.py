"""Facade wiring the ledger, identity, marketplace, tokens, and reviews.

A Simulation owns one isolated protocol instance. All mutations go through
its methods; after every committed operation it re-asserts the money
conservation law, always (there is no switch to turn it off), as a full
sum over every ledger account (participants, faucet, review funds and
the gas sink), never a running count:

    sum(accounts) == genesis total

exclude runs ReviewBoard.exclude; advance_tick moves the ledger's tick on
and then expires the tokens due by it (TokenBook.expiry_sweep).

Operations validate all preconditions before touching state, so a raised
DdrmError leaves the simulation exactly as it was. snapshot() copies the
entire mutable state, every field of every record (and fingerprint()
hashes it), which the test suite uses to prove that failed operations
are side-effect free.

Every id is its prefix and its book's size once filed (REV-00003 is the
third review), and no record is ever removed, so each book, and each list
appended as records are created, is already in id order. Nothing re-sorts
them but TokenBook.expiry_sweep, which orders the tokens due at once by
book, then by id number, as if walking the two token books.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from .config import ProtocolConfig
from .endorsement import ReviewBoard
from .errors import InvariantViolation
from .identity import IdentityRegistry
from .ledger import Ledger
from .marketplace import Marketplace
from .tokens import TokenBook


class Simulation:
    """One deterministic, isolated run of the protocol."""

    def __init__(self, config: ProtocolConfig | None = None, seed: int = 42):
        self.config = config or ProtocolConfig()
        self.config.validate()
        self.seed = seed
        self.ledger = Ledger(self.config.gas, seed)
        self.identity = IdentityRegistry(self.config, self.ledger)
        self.tokens = TokenBook(self.config, self.ledger)
        self.market = Marketplace(self.config, self.ledger, self.identity, self.tokens)
        self.reviews = ReviewBoard(self.config, self.ledger, self.identity, self.market, self.tokens)
        self._genesis_total = self.conservation_total()

    # -- invariants --

    def conservation_total(self) -> int:
        return sum(self.ledger.accounts.values())

    def _conserved(self, value):
        total = self.conservation_total()
        if total != self._genesis_total:
            raise InvariantViolation(f"conservation broken: {total} != genesis {self._genesis_total}")
        return value

    # -- identity --

    def register(self, card: str, roles) -> str:
        return self._conserved(self.identity.register(card, roles))

    def bind_address(self, participant_id: str) -> str:
        return self._conserved(self.identity.bind_address(participant_id))

    def exclude(self, participant_id: str) -> str:
        return self._conserved(self.reviews.exclude(participant_id))

    # -- marketplace --

    def add_service(self, provider: str, s_cost: int) -> str:
        return self._conserved(self.market.add_service(provider, s_cost))

    def buy_service(self, consumer: str, service_id: str, srdt_token_id: str | None = None) -> str:
        return self._conserved(self.market.buy_service(consumer, service_id, srdt_token_id))

    def modify_service(self, provider: str, service_id: str, new_cost: int) -> None:
        return self._conserved(self.market.modify_service(provider, service_id, new_cost))

    def withdraw_service(self, provider: str, service_id: str) -> None:
        return self._conserved(self.market.withdraw_service(provider, service_id))

    def replenish_fund(self, provider: str, service_id: str, amount: int) -> int:
        return self._conserved(self.market.replenish_fund(provider, service_id, amount))

    # -- reviews and endorsement --

    def submit_review(self, consumer: str, purchase_id: str, rating: int, digest: str) -> str:
        return self._conserved(self.reviews.submit_review(consumer, purchase_id, rating, digest))

    def endorse_review(self, endorser: str, review_id: str, vote: str) -> str:
        return self._conserved(self.reviews.endorse_review(endorser, review_id, vote))

    def run_endorser_selection(self, service_id: str) -> dict:
        return self._conserved(self.reviews.run_endorser_selection(service_id))

    def bootstrap_endorsers(self, service_id: str, n: int | None = None) -> list[str]:
        return self._conserved(self.reviews.bootstrap_endorsers(service_id, n))

    # -- refunds --

    def file_refund_claim(self, consumer: str, purchase_id: str) -> str:
        return self._conserved(self.reviews.file_refund_claim(consumer, purchase_id))

    def vote_refund(self, endorser: str, claim_id: str, vote: str) -> str:
        return self._conserved(self.reviews.vote_refund(endorser, claim_id, vote))

    def settle_refund(self, claim_id: str) -> str:
        return self._conserved(self.reviews.settle_refund(claim_id))

    # -- time --

    def advance_tick(self) -> int:
        tick = self.ledger.advance_tick()
        self.tokens.expiry_sweep(tick)
        return self._conserved(tick)

    # -- state capture --

    def snapshot(self) -> dict:
        """Full mutable state: the ledger's scalars and a copy of every record of every book."""
        books = {
            "participants": self.identity.participants,
            "services": self.market.services,
            "purchases": self.market.purchases,
            "srats": self.tokens.srats,
            "srdts": self.tokens.srdts,
            "reviews": self.reviews.reviews,
            "claims": self.reviews.claims,
        }
        return {
            "accounts": dict(self.ledger.accounts),
            "spent": dict(self.ledger.spent),
            "tick": self.ledger.tick,
            "log_len": len(self.ledger.log),
            "log_hash": self.ledger.final_hash(),
            "beacon_counter": self.ledger.beacon.counter,
            "dret": dict(self.tokens.dret),
            "rosters": {sid: set(members) for sid, members in self.reviews.rosters.items()},
            "penalties": dict(self.reviews.penalties),
            **{name: {rid: asdict(record) for rid, record in book.items()} for name, book in books.items()},
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"), default=sorted)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
