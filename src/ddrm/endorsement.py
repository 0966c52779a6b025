"""Reviews, endorsement voting, endorser selection, penalties, and refunds.

A review enters Pending and is badged exactly once by a selection round:
Authentic when upvotes lead, Fraudulent when downvotes lead, provided at
least `endorsement_quorum` votes arrived. Ties stay Pending by default;
the `literal_alg2_ties` switch brands them Fraudulent instead. Selection
rebuilds the per-service endorser roster from the round's authentic
reviewers, pays each one an SRDT, and excludes reviewers whose fraudulent
badge count exceeds the penalty threshold. All exclusion, by penalty or
through Simulation.exclude, runs ReviewBoard.exclude. Being on a roster is
what makes a participant an endorser; no role records it.

A review holds its vote counts and the set of endorsers who cast them;
each vote consumes one SRDT, whose id endorse_review returns and the
EndorsementCast event records.

Refund claims are judged by a beacon-drawn panel of selected endorsers;
approval needs a strict majority of the panel and moves exactly the price
paid from provider back to consumer. A purchase has been refunded exactly
when one of its claims is Approved.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .config import REVIEW_SUBSIDY, ProtocolConfig
from .errors import (
    AlreadyRefunded,
    AlreadyReviewed,
    ClaimClosed,
    ClaimWindowClosed,
    DuplicateClaim,
    DuplicateEndorsement,
    DuplicateVote,
    FundExhausted,
    InsufficientFunds,
    NoEndorsersAvailable,
    NoPurchase,
    NoReviews,
    NotPanelMember,
    NotSelectedEndorser,
    NoValidSrat,
    NoValidSrdt,
    ReviewAlreadyBadged,
    ValidationError,
)
from .identity import STATUS_EXCLUDED, IdentityRegistry
from .ledger import GAS_SINK, OP_ENDORSE_REVIEW, Ledger
from .marketplace import Marketplace
from .tokens import BURNED, TokenBook

BADGE_PENDING = "Pending"
BADGE_AUTHENTIC = "Authentic"
BADGE_FRAUDULENT = "Fraudulent"

VOTE_UP = "Up"
VOTE_DOWN = "Down"

VOTE_APPROVE = "Approve"
VOTE_REJECT = "Reject"

OUTCOME_OPEN = "Open"
OUTCOME_APPROVED = "Approved"
OUTCOME_REJECTED = "Rejected"


def text_digest(text: str) -> str:
    """Reviews store prose off-ledger; only this digest goes in the log."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(slots=True)
class Review:
    review_id: str
    service_id: str
    reviewer: str
    purchase_id: str
    rating: int
    text_digest: str
    tick: int
    upvotes: int = 0
    downvotes: int = 0
    badge: str = BADGE_PENDING
    endorsers: set[str] = field(default_factory=set)   # who voted, each exactly once


@dataclass(slots=True)
class RefundClaim:
    claim_id: str
    purchase_id: str
    claimant: str
    panel: tuple[str, ...]
    filed_tick: int
    votes: dict[str, str] = field(default_factory=dict)
    outcome: str = OUTCOME_OPEN


class ReviewBoard:
    """State machine for reviews, rosters, penalties, and refund claims."""

    def __init__(
        self,
        config: ProtocolConfig,
        ledger: Ledger,
        identity: IdentityRegistry,
        market: Marketplace,
        tokens: TokenBook,
    ):
        self.config = config
        self.ledger = ledger
        self.identity = identity
        self.market = market
        self.tokens = tokens
        self.reviews: dict[str, Review] = {}
        self.reviews_by_service: dict[str, list[str]] = {}      # append-only index, read on every selection
        self.rosters: dict[str, set[str]] = {}
        self.penalties: dict[str, int] = {}
        self.claims: dict[str, RefundClaim] = {}                # the one record of a purchase's claims

    # -- reviews (authorization gate) --

    def submit_review(self, consumer: str, purchase_id: str, rating: int, digest: str) -> str:
        self.identity.get_active(consumer)
        purchase = self.market.purchases.get(purchase_id)
        if purchase is None or purchase.consumer != consumer:
            raise NoPurchase(f"{consumer} has no purchase {purchase_id}")
        token = self.tokens.srat_for_purchase(purchase_id)
        if token.state == BURNED:
            raise AlreadyReviewed(purchase_id)
        if not isinstance(rating, int) or isinstance(rating, bool) or not 1 <= rating <= 5:
            raise ValidationError("rating must be an integer in 1..5")
        if not isinstance(digest, str) or not digest:
            raise ValidationError("text digest required")
        if not token.usable_at(self.ledger.tick):
            raise NoValidSrat(purchase_id)
        service_id = purchase.service_id
        if self.ledger.balance(service_id) < REVIEW_SUBSIDY:
            raise FundExhausted(service_id)

        self.tokens.burn_srat(token.token_id)
        self.ledger.transfer(service_id, GAS_SINK, REVIEW_SUBSIDY)
        review_id = f"REV-{len(self.reviews) + 1:05d}"
        review = Review(
            review_id=review_id,
            service_id=service_id,
            reviewer=consumer,
            purchase_id=purchase_id,
            rating=rating,
            text_digest=digest,
            tick=self.ledger.tick,
        )
        self.reviews[review_id] = review
        self.reviews_by_service.setdefault(review.service_id, []).append(review_id)
        self.ledger.append_event(
            "ReviewSubmitted",
            {
                "review": review_id,
                "purchase": purchase_id,
                "service": service_id,
                "reviewer": consumer,
                "rating": rating,
                "text_digest": digest,
                "srat_token": token.token_id,
                "subsidy_wei": REVIEW_SUBSIDY,
            },
        )
        return review_id

    # -- endorsement votes --

    def endorse_review(self, endorser: str, review_id: str, vote: str) -> str:
        """Cast one vote, paid for by one SRDT; returns the id of the SRDT consumed."""
        review = self.reviews.get(review_id)
        if review is None:
            raise ValidationError(f"unknown review {review_id}")
        if vote not in (VOTE_UP, VOTE_DOWN):
            raise ValidationError(f"vote must be {VOTE_UP!r} or {VOTE_DOWN!r}")
        # Exclusion scrubs rosters, so an excluded endorser fails here.
        if endorser not in self.rosters.get(review.service_id, set()):
            raise NotSelectedEndorser(endorser)
        self.identity.get_active(endorser)
        if endorser in review.endorsers:
            raise DuplicateEndorsement(f"{endorser} already voted on {review_id}")
        if review.badge != BADGE_PENDING:
            raise ReviewAlreadyBadged(review_id)
        token = self.tokens.active_srdt_for(endorser, review.service_id)
        if token is None:
            raise NoValidSrdt(f"{endorser} holds no usable SRDT for {review.service_id}")
        if self.ledger.balance(endorser) < self.ledger.gas.charge(OP_ENDORSE_REVIEW):
            raise InsufficientFunds(f"{endorser} cannot pay endorsement gas")

        self.ledger.charge_gas(endorser, OP_ENDORSE_REVIEW)
        if vote == VOTE_UP:
            review.upvotes += 1
        else:
            review.downvotes += 1
        review.endorsers.add(endorser)
        self.tokens.consume_srdt(token.token_id)
        self.ledger.append_event(
            "EndorsementCast",
            {
                "review": review_id,
                "service": review.service_id,
                "endorser": endorser,
                "vote": vote,
                "srdt_token": token.token_id,
            },
        )
        return token.token_id

    # -- selection and penalties --

    def run_endorser_selection(self, service_id: str) -> dict:
        """Badge quorum-reached reviews, rebuild the roster, apply penalties.

        The roster is cleared on every run and rebuilt from this round's
        authentic reviewers, so a round that badges nothing authentic leaves
        the roster empty; an empty roster can then be re-seeded with
        bootstrap_endorsers, which is how voting capacity regenerates.
        """
        service = self.market.get_service(service_id)
        authentic_before = authentic_new = 0
        eligible = []
        for r in self._reviews_of(service_id):
            if r.badge == BADGE_AUTHENTIC:
                authentic_before += 1
            elif r.badge == BADGE_PENDING and r.upvotes + r.downvotes >= self.config.endorsement_quorum:
                eligible.append(r)
        report = {
            "service": service_id,
            "badged": [],
            "roster": [],
            "srdt_minted": [],
            "penalized": [],
            "excluded": [],
        }
        candidates: list[str] = []
        penalize: list[str] = []
        for review in eligible:
            if review.upvotes > review.downvotes:
                review.badge = BADGE_AUTHENTIC
                authentic_new += 1
                if review.reviewer not in candidates:
                    candidates.append(review.reviewer)
            elif review.downvotes > review.upvotes or self.config.literal_alg2_ties:
                review.badge = BADGE_FRAUDULENT
                penalize.append(review.reviewer)
            if review.badge != BADGE_PENDING:
                report["badged"].append(
                    {
                        "review": review.review_id,
                        "badge": review.badge,
                        "upvotes": review.upvotes,
                        "downvotes": review.downvotes,
                        "reviewer": review.reviewer,
                        "rating": review.rating,
                    }
                )

        # Roster is cleared and rebuilt from this round's authentic reviewers.
        new_roster = {pid for pid in candidates if self.identity.get(pid).active}
        self.rosters[service_id] = new_roster
        for pid in sorted(new_roster):
            token_id = self.tokens.mint_srdt(pid, service_id)
            report["srdt_minted"].append({"token": token_id, "holder": pid})

        for pid in penalize:
            self.penalties[pid] = self.penalties.get(pid, 0) + 1
            report["penalized"].append({"participant": pid, "count": self.penalties[pid]})
        for pid in sorted(set(penalize)):
            if self.penalties[pid] > self.config.penalty_threshold and self.identity.get(pid).active:
                self.exclude(pid)
                report["excluded"].append(pid)

        self.tokens.award_dret(service.provider, service_id, authentic_before, authentic_before + authentic_new)
        report["roster"] = sorted(self.rosters[service_id])
        # The log keeps the bytes append_event encoded, not the dict, so the caller may keep it.
        self.ledger.append_event("SelectionRun", report)
        return report

    def bootstrap_endorsers(self, service_id: str, n: int | None = None) -> list[str]:
        """Seed an empty roster by drawing from the service's earliest reviewers."""
        self.market.get_service(service_id)
        if self.rosters.get(service_id):
            raise ValidationError(f"roster for {service_id} is not empty")
        n = self.config.bootstrap_count if n is None else n
        if n <= 0:
            raise ValidationError("bootstrap count must be positive")
        earliest: list[str] = []
        seen: set[str] = set()
        for review in self._reviews_of(service_id):  # id order is tick order
            reviewer = review.reviewer
            if reviewer not in seen and self.identity.get(reviewer).active:
                seen.add(reviewer)
                earliest.append(reviewer)
        if not earliest:
            raise NoReviews(service_id)
        drawn = self.ledger.beacon.draw(earliest, min(n, len(earliest)))
        self.rosters[service_id] = set(drawn)
        minted = []
        for pid in sorted(drawn):
            minted.append({"token": self.tokens.mint_srdt(pid, service_id), "holder": pid})
        self.ledger.append_event(
            "EndorsersBootstrapped",
            {"service": service_id, "roster": sorted(drawn), "srdt_minted": minted},
        )
        return sorted(drawn)

    # -- exclusion --

    def exclude(self, pid: str) -> str:
        """Exclude a participant for good; idempotent.

        Voids their active tokens, drops them from every roster, withdraws
        their listed services, then logs one Excluded event saying which.
        """
        record = self.identity.get(pid)
        if not record.active:
            return STATUS_EXCLUDED
        record.status = STATUS_EXCLUDED
        voided = self.tokens.void_all(pid)
        removed = []
        for service_id in sorted(self.rosters):
            if pid in self.rosters[service_id]:
                self.rosters[service_id].discard(pid)
                removed.append(service_id)
        withdrawn = self.market.withdraw_all_for(pid)
        self.ledger.append_event(
            "Excluded", {"participant": pid, **voided, "rosters_removed": removed, **withdrawn}
        )
        return STATUS_EXCLUDED

    # -- refunds --

    def file_refund_claim(self, consumer: str, purchase_id: str) -> str:
        self.identity.get_active(consumer)
        purchase = self.market.purchases.get(purchase_id)
        if purchase is None or purchase.consumer != consumer:
            raise NoPurchase(f"{consumer} has no purchase {purchase_id}")
        if self.refunded(purchase_id):
            raise AlreadyRefunded(purchase_id)
        if any(c.purchase_id == purchase_id and c.outcome == OUTCOME_OPEN for c in self.claims.values()):
            raise DuplicateClaim(purchase_id)
        if self.ledger.tick > purchase.tick + self.config.claim_window:
            raise ClaimWindowClosed(purchase_id)
        roster = self.rosters.get(purchase.service_id, set())
        if not roster:
            raise NoEndorsersAvailable(purchase.service_id)

        panel = self.ledger.beacon.draw(sorted(roster), min(self.config.panel_size, len(roster)))
        claim_id = f"CLM-{len(self.claims) + 1:05d}"
        claim = RefundClaim(
            claim_id=claim_id,
            purchase_id=purchase_id,
            claimant=consumer,
            panel=tuple(sorted(panel)),
            filed_tick=self.ledger.tick,
        )
        self.claims[claim_id] = claim
        self.ledger.append_event(
            "RefundClaimFiled",
            {"claim": claim_id, "purchase": purchase_id, "claimant": consumer, "panel": sorted(panel)},
        )
        return claim_id

    def vote_refund(self, endorser: str, claim_id: str, vote: str) -> str:
        claim = self.claims.get(claim_id)
        if claim is None:
            raise ValidationError(f"unknown claim {claim_id}")
        if claim.outcome != OUTCOME_OPEN:
            raise ClaimClosed(claim_id)
        self.identity.get_active(endorser)
        if endorser not in claim.panel:
            raise NotPanelMember(f"{endorser} is not on the panel for {claim_id}")
        if endorser in claim.votes:
            raise DuplicateVote(f"{endorser} already voted on {claim_id}")
        if vote not in (VOTE_APPROVE, VOTE_REJECT):
            raise ValidationError(f"vote must be {VOTE_APPROVE!r} or {VOTE_REJECT!r}")
        claim.votes[endorser] = vote
        self.ledger.append_event(
            "RefundVoteCast", {"claim": claim_id, "endorser": endorser, "vote": vote}
        )
        if len(claim.votes) == len(claim.panel):
            try:
                return self._settle(claim)
            except InsufficientFunds:
                # Vote stands; the claim stays open until the provider can pay
                # and settle_refund is called again.
                return claim.outcome
        return claim.outcome

    def settle_refund(self, claim_id: str) -> str:
        claim = self.claims.get(claim_id)
        if claim is None:
            raise ValidationError(f"unknown claim {claim_id}")
        if claim.outcome != OUTCOME_OPEN:
            raise ClaimClosed(claim_id)
        window_lapsed = self.ledger.tick >= claim.filed_tick + self.config.voting_window
        if len(claim.votes) < len(claim.panel) and not window_lapsed:
            raise ValidationError(f"voting still open for {claim_id}")
        return self._settle(claim)

    def _settle(self, claim: RefundClaim) -> str:
        purchase = self.market.purchases[claim.purchase_id]
        service = self.market.get_service(purchase.service_id)
        approvals = sum(1 for v in claim.votes.values() if v == VOTE_APPROVE)
        approved = approvals >= len(claim.panel) // 2 + 1
        amount = 0
        if approved:
            # Settlement fails (claim stays open) if the provider cannot pay.
            self.ledger.transfer(service.provider, claim.claimant, purchase.price_paid)
            amount = purchase.price_paid
            claim.outcome = OUTCOME_APPROVED
        else:
            claim.outcome = OUTCOME_REJECTED
        self.ledger.append_event(
            "RefundSettled",
            {
                "claim": claim.claim_id,
                "purchase": claim.purchase_id,
                "outcome": claim.outcome,
                "amount_wei": amount,
                "provider": service.provider,
                "consumer": claim.claimant,
                "approvals": approvals,
                "panel_size": len(claim.panel),
            },
        )
        return claim.outcome

    # -- queries --

    def _reviews_of(self, service_id: str) -> list[Review]:
        """The service's reviews in id order."""
        return [self.reviews[rid] for rid in self.reviews_by_service.get(service_id, ())]

    def pending_reviews(self, service_id: str) -> list[Review]:
        return [review for review in self._reviews_of(service_id) if review.badge == BADGE_PENDING]

    def refunded(self, purchase_id: str) -> bool:
        return any(c.purchase_id == purchase_id and c.outcome == OUTCOME_APPROVED for c in self.claims.values())
