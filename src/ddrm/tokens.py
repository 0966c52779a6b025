"""Lifecycle of the three token roles: SRAT, SRDT, and DRET.

SRAT (review authorization) is minted one-per-purchase and burned by the
review that uses it. SRDT (endorser reward) is granted on selection and
consumed exactly once, by an endorsement vote or a discounted purchase.
DRET is a non-transferable per-provider reputation counter: a selection
round mints one for each multiple of `dret_interval` that the service's
authentic-badged review count passes, given the count before and after.

SRAT and SRDT are one `Token` record with one usability rule; an SRDT
is bound to no purchase, and the discount it buys is the protocol's
`srdt_discount`. Tokens move Active -> (Burned | Consumed | Expired |
Voided) exactly once; expiry is inclusive: a token is dead at tick >=
expiry_tick even before the sweep has run. A purchase has been reviewed
exactly when its SRAT is Burned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ProtocolConfig
from .errors import TokenExpired, TokenNotActive, ValidationError
from .ledger import Ledger

ACTIVE = "Active"
BURNED = "Burned"
CONSUMED = "Consumed"
EXPIRED = "Expired"
VOIDED = "Voided"


@dataclass(slots=True)
class Token:
    """One SRAT or SRDT; an SRDT is bound to no purchase."""

    token_id: str
    holder: str
    service_id: str
    purchase_id: str | None
    minted_tick: int
    expiry_tick: int
    state: str = ACTIVE

    def usable_at(self, tick: int) -> bool:
        return self.state == ACTIVE and tick < self.expiry_tick


def _mint_order(token: Token) -> tuple[bool, int]:
    """SRATs before SRDTs, each by id number: the order of walking srats, then srdts."""
    return token.token_id.startswith("SRDT"), int(token.token_id[5:])


class TokenBook:
    """Registry and state machine for all token instances."""

    def __init__(self, config: ProtocolConfig, ledger: Ledger):
        self.config = config
        self.ledger = ledger
        self.srats: dict[str, Token] = {}
        self.srdts: dict[str, Token] = {}
        self.srat_by_purchase: dict[str, str] = {}
        # Append-only indexes over keys a token never changes, each serving a
        # per-operation lookup.
        self.srdts_by_holder_service: dict[tuple[str, str], list[str]] = {}
        self.tokens_by_expiry: dict[int, list[Token]] = {}
        self.dret: dict[str, int] = {}

    # -- SRAT --

    def mint_srat(self, consumer: str, service_id: str, purchase_id: str) -> str:
        if purchase_id in self.srat_by_purchase:
            raise ValidationError(f"purchase {purchase_id} already has a review token")
        token_id = self._mint(self.srats, "SRAT", self.config.srat_lifetime, consumer, service_id, purchase_id)
        self.srat_by_purchase[purchase_id] = token_id
        return token_id

    def _mint(
        self, book: dict, prefix: str, lifetime: int, holder: str, service_id: str, purchase_id: str | None = None
    ) -> str:
        """File a new Active token in its book and in the expiry index."""
        token_id = f"{prefix}-{len(book) + 1:05d}"
        tick = self.ledger.tick
        token = Token(token_id, holder, service_id, purchase_id, tick, tick + lifetime)
        book[token_id] = token
        self.tokens_by_expiry.setdefault(token.expiry_tick, []).append(token)
        return token_id

    def _spend(self, tokens: dict, token_id: str, new_state: str) -> str:
        """Move one usable token to its terminal state, or say why it is not usable."""
        token = tokens.get(token_id)
        if token is None:
            raise TokenNotActive(f"no such token {token_id}")
        if not token.usable_at(self.ledger.tick):
            if token.state in (ACTIVE, EXPIRED):  # Active but unusable: expired before the sweep
                raise TokenExpired(token_id)
            raise TokenNotActive(f"{token_id} is {token.state}")
        token.state = new_state
        return new_state

    def burn_srat(self, token_id: str) -> str:
        return self._spend(self.srats, token_id, BURNED)

    def srat_for_purchase(self, purchase_id: str) -> Token | None:
        token_id = self.srat_by_purchase.get(purchase_id)
        return self.srats.get(token_id) if token_id else None

    # -- SRDT --

    def mint_srdt(self, holder: str, service_id: str) -> str:
        token_id = self._mint(self.srdts, "SRDT", self.config.srdt_lifetime, holder, service_id)
        self.srdts_by_holder_service.setdefault((holder, service_id), []).append(token_id)
        return token_id

    def consume_srdt(self, token_id: str) -> str:
        return self._spend(self.srdts, token_id, CONSUMED)

    def active_srdt_for(self, holder: str, service_id: str) -> Token | None:
        """Lowest-id active unexpired SRDT bound to the service, if any."""
        tick = self.ledger.tick
        for token_id in self.srdts_by_holder_service.get((holder, service_id), ()):
            token = self.srdts[token_id]
            if token.usable_at(tick):
                return token
        return None

    # -- DRET --

    def award_dret(self, provider: str, service_id: str, before: int, after: int) -> None:
        """Mint one DRET per multiple of the award interval crossed from `before` to `after` authentic reviews."""
        interval = self.config.dret_interval
        for _ in range(after // interval - before // interval):
            self.dret[provider] = self.dret.get(provider, 0) + 1
            self.ledger.append_event(
                "DretAwarded",
                {"provider": provider, "service": service_id, "new_count": self.dret[provider]},
            )

    # -- shared lifecycle --

    def expiry_sweep(self, tick: int) -> list[str]:
        """Expire every active token whose expiry tick has been reached.

        Every bucket due by `tick` is emptied, not only the one at `tick`,
        so a caller may jump ticks; tokens of a bucket emptied earlier were
        expired then, or had already left Active for good. Buckets span at
        most one token lifetime of ticks, however many tokens there are.
        """
        due = []
        for expiry in [t for t in self.tokens_by_expiry if t <= tick]:
            due.extend(self.tokens_by_expiry.pop(expiry))
        expired = []
        for token in sorted(due, key=_mint_order):
            if token.state == ACTIVE:
                token.state = EXPIRED
                expired.append(token.token_id)
        if expired:
            self.ledger.append_event("TokensExpired", {"tokens": expired})
        return expired

    def void_all(self, holder: str) -> dict:
        """Void every active token a participant holds (on exclusion), SRATs then SRDTs, in mint order."""
        voided = []
        for book in (self.srats, self.srdts):
            for token in book.values():
                if token.holder == holder and token.state == ACTIVE:
                    token.state = VOIDED
                    voided.append(token.token_id)
        return {"voided_tokens": voided}
