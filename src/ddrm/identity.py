"""Participant registration, pseudonymous addresses, roles, and status.

One active registration per card fingerprint, forever: fingerprints of
excluded participants stay bound, so shedding a bad history requires a new
card. A participant holds only the roles it registered with; being a
reviewer means owning a review, and being an endorser means being on a
service's roster, so neither is stored as a role. A participant may hold
several pseudonymous addresses, but balances and penalties are pooled per
participant (the participant id doubles as the ledger account key;
addresses are resolvable aliases). Exclusion is recorded in a
participant's status but carried out by endorsement.ReviewBoard.exclude,
which also reaches the tokens, rosters and listings an excluded
participant loses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .config import ProtocolConfig
from .errors import (
    DuplicateCard,
    InsufficientFunds,
    ParticipantExcluded,
    UnknownParticipant,
    ValidationError,
)
from .ledger import Ledger

ROLE_PROVIDER = "ServiceProvider"
ROLE_CONSUMER = "Consumer"
REGISTRABLE_ROLES = frozenset({ROLE_PROVIDER, ROLE_CONSUMER})

FAUCET = "FAUCET"

STATUS_ACTIVE = "Active"
STATUS_EXCLUDED = "Excluded"


def card_fingerprint(card: str) -> str:
    """Opaque digest standing in for verified payment-card identity."""
    return hashlib.sha256(card.encode("utf-8")).hexdigest()


@dataclass(slots=True)
class ParticipantRecord:
    participant_id: str
    card: str                      # fingerprint digest, never raw card data
    roles: set[str]
    addresses: list[str]           # first entry backs the shared balance pool
    status: str = STATUS_ACTIVE

    @property
    def active(self) -> bool:
        return self.status == STATUS_ACTIVE


class IdentityRegistry:
    """Tracks participants, card bindings, and address aliases."""

    def __init__(self, config: ProtocolConfig, ledger: Ledger):
        self.config = config
        self.ledger = ledger
        self.participants: dict[str, ParticipantRecord] = {}
        self.cards_bound: set[str] = set()
        self.address_owner: dict[str, str] = {}
        ledger.open_account(FAUCET, config.faucet_balance)

    def _fresh_address(self) -> str:
        raw = f"addr|{self.ledger.beacon.seed}|{len(self.address_owner)}"
        return "0x" + hashlib.sha256(raw.encode("utf-8")).hexdigest()[:40]

    def register(self, card: str, roles) -> str:
        """Register a new participant; the whitewashing defense lives here."""
        fingerprint = card_fingerprint(card)
        if fingerprint in self.cards_bound:
            raise DuplicateCard("card fingerprint already bound to a registration")
        roles = set(roles)
        bad = roles - REGISTRABLE_ROLES
        if bad:
            raise ValidationError(f"roles {sorted(bad)} are earned, not registered")
        if not roles:
            raise ValidationError("at least one role required")
        if self.ledger.balance(FAUCET) < self.config.genesis_balance:
            raise InsufficientFunds("faucet cannot cover the genesis credit")

        pid = f"P{len(self.participants) + 1:04d}"
        address = self._fresh_address()
        record = ParticipantRecord(participant_id=pid, card=fingerprint, roles=roles, addresses=[address])
        self.participants[pid] = record
        self.cards_bound.add(fingerprint)
        self.address_owner[address] = pid
        self.ledger.open_account(pid)
        self.ledger.transfer(FAUCET, pid, self.config.genesis_balance)
        self.ledger.append_event(
            "Registered",
            {
                "participant": pid,
                "address": address,
                "roles": sorted(roles),
                "card_fingerprint": fingerprint,
                "genesis_wei": self.config.genesis_balance,
            },
        )
        return pid

    def bind_address(self, participant_id: str) -> str:
        record = self.get_active(participant_id)
        address = self._fresh_address()
        record.addresses.append(address)
        self.address_owner[address] = participant_id
        self.ledger.append_event("AddressBound", {"participant": participant_id, "address": address})
        return address

    # -- lookups --

    def get(self, participant_id: str) -> ParticipantRecord:
        if participant_id not in self.participants:
            raise UnknownParticipant(participant_id)
        return self.participants[participant_id]

    def get_active(self, participant_id: str) -> ParticipantRecord:
        record = self.get(participant_id)
        if not record.active:
            raise ParticipantExcluded(participant_id)
        return record

    def has_role(self, participant_id: str, role: str) -> bool:
        return role in self.get(participant_id).roles
