"""Review gate, endorsement voting, selection badging, penalties, refunds."""

import itertools

import pytest

from ddrm import ether, text_digest
from ddrm.endorsement import (
    BADGE_AUTHENTIC,
    BADGE_FRAUDULENT,
    BADGE_PENDING,
    OUTCOME_APPROVED,
    OUTCOME_REJECTED,
    VOTE_APPROVE,
    VOTE_DOWN,
    VOTE_REJECT,
    VOTE_UP,
)
from ddrm.errors import (
    AlreadyRefunded,
    AlreadyReviewed,
    ClaimClosed,
    ClaimWindowClosed,
    DuplicateClaim,
    DuplicateEndorsement,
    DuplicateVote,
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
from ddrm.identity import ROLE_CONSUMER
from ddrm.ledger import iter_log_lines
from ddrm.tokens import BURNED, Token, VOIDED

from conftest import exported_log, make_sim, provider_and_service, reviewed_purchase


def review_gate_oracle(purchased: bool, has_srat: bool, unexpired: bool) -> bool:
    """Brute-force admission rule: all three conditions or nothing."""
    return purchased and has_srat and unexpired


class TestReviewGate:
    """All 8 combinations of {purchased, has-SRAT, SRAT-unexpired}."""

    @pytest.mark.parametrize(
        "purchased,has_srat,unexpired",
        list(itertools.product([True, False], repeat=3)),
    )
    def test_gate_matches_oracle(self, purchased, has_srat, unexpired):
        sim = make_sim()
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons", {ROLE_CONSUMER})
        if purchased:
            purchase_id = sim.buy_service(consumer, service)
            token = sim.tokens.srat_for_purchase(purchase_id)
            if not has_srat:
                token.state = VOIDED           # forced state for gate coverage
            if not unexpired:
                token.expiry_tick = sim.ledger.tick
        else:
            purchase_id = "PUR-99999"
            if has_srat:
                # Dangling token bound to a purchase that never happened.
                expiry = sim.ledger.tick + (100 if unexpired else 0)
                sim.tokens.srats["SRAT-FAKE1"] = Token(
                    token_id="SRAT-FAKE1",
                    holder=consumer,
                    service_id=service,
                    purchase_id=purchase_id,
                    minted_tick=sim.ledger.tick,
                    expiry_tick=expiry,
                )
                sim.tokens.srat_by_purchase[purchase_id] = "SRAT-FAKE1"

        admitted = True
        try:
            sim.submit_review(consumer, purchase_id, 5, text_digest("x"))
        except (NoPurchase, NoValidSrat):
            admitted = False
        assert admitted == review_gate_oracle(purchased, has_srat, unexpired)

    def test_denied_attempt_changes_nothing(self, sim):
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons", {ROLE_CONSUMER})
        before = sim.fingerprint()
        with pytest.raises(NoPurchase):
            sim.submit_review(consumer, "PUR-00001", 5, text_digest("x"))
        assert sim.fingerprint() == before

    def test_second_review_on_same_purchase(self, sim):
        provider, service = provider_and_service(sim)
        consumer, purchase, _ = reviewed_purchase(sim, service, "cons")
        with pytest.raises(AlreadyReviewed):
            sim.submit_review(consumer, purchase, 4, text_digest("again"))

    def test_foreign_purchase_is_no_purchase(self, sim):
        provider, service = provider_and_service(sim)
        owner = sim.register("cons-a", {ROLE_CONSUMER})
        thief = sim.register("cons-b", {ROLE_CONSUMER})
        purchase = sim.buy_service(owner, service)
        with pytest.raises(NoPurchase):
            sim.submit_review(thief, purchase, 5, text_digest("x"))

    def test_rating_range_enforced(self, sim):
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons", {ROLE_CONSUMER})
        purchase = sim.buy_service(consumer, service)
        for bad in (0, 6, "5"):
            with pytest.raises(ValidationError):
                sim.submit_review(consumer, purchase, bad, text_digest("x"))


def tally_oracle(votes: tuple[str, ...], quorum: int, literal_ties: bool) -> str:
    """Independent badge rule from a raw vote tuple."""
    if len(votes) < quorum:
        return BADGE_PENDING
    ups = votes.count(VOTE_UP)
    downs = votes.count(VOTE_DOWN)
    if ups > downs:
        return BADGE_AUTHENTIC
    if downs > ups:
        return BADGE_FRAUDULENT
    return BADGE_FRAUDULENT if literal_ties else BADGE_PENDING


def run_vote_pattern(votes: tuple[str, ...], literal_ties: bool) -> str:
    """Drive one review through n endorsers casting the given votes."""
    sim = make_sim(literal_alg2_ties=literal_ties)
    provider, service = provider_and_service(sim, ether("0.05"))
    endorsers = []
    for i in range(len(votes)):
        pid, _, _ = reviewed_purchase(sim, service, f"end-{i}")
        endorsers.append(pid)
    if votes:
        # Bootstrap before the target reviews so the draw pool is exactly
        # the designated endorsers.
        roster = sim.bootstrap_endorsers(service, len(votes))
        assert sorted(roster) == sorted(endorsers)
    target, purchase, review = reviewed_purchase(sim, service, "target")
    if votes:
        for endorser, vote in zip(sorted(endorsers), votes):
            sim.endorse_review(endorser, review, vote)
    sim.run_endorser_selection(service)
    return sim.reviews.reviews[review].badge


class TestSelectionOracle:
    """Exhaustive vote patterns for up to 6 endorsers, both tie policies."""

    @pytest.mark.parametrize("literal_ties", [False, True])
    def test_all_patterns_match_tally_oracle(self, literal_ties):
        quorum = 3  # default endorsement quorum
        for n in range(0, 7):
            for votes in itertools.product((VOTE_UP, VOTE_DOWN), repeat=n):
                expected = tally_oracle(votes, quorum, literal_ties)
                assert run_vote_pattern(votes, literal_ties) == expected, (
                    f"votes={votes} literal={literal_ties}"
                )

    def test_spec_examples(self):
        assert run_vote_pattern(("Up", "Up", "Up", "Down"), False) == BADGE_AUTHENTIC
        assert run_vote_pattern(("Up", "Down", "Down", "Down"), False) == BADGE_FRAUDULENT
        assert run_vote_pattern(("Up", "Up", "Down", "Down"), False) == BADGE_PENDING
        assert run_vote_pattern(("Up", "Up", "Down", "Down"), True) == BADGE_FRAUDULENT


class TestEndorsementRules:
    def _arena(self):
        sim = make_sim()
        provider, service = provider_and_service(sim)
        endorser, _, _ = reviewed_purchase(sim, service, "end-0")
        target, purchase, review = reviewed_purchase(sim, service, "target")
        sim.bootstrap_endorsers(service, 1)
        return sim, service, endorser, review

    def test_upvote_consumes_srdt_and_tallies(self):
        sim, service, endorser, review = self._arena()
        token = sim.tokens.active_srdt_for(endorser, service)
        sim.endorse_review(endorser, review, VOTE_UP)
        assert sim.reviews.reviews[review].upvotes == 1
        assert token.state == "Consumed"

    def test_endorser_pays_gas(self):
        sim, service, endorser, review = self._arena()
        before = sim.ledger.balance(endorser)
        sim.endorse_review(endorser, review, VOTE_UP)
        assert before - sim.ledger.balance(endorser) == 250_942_800_000_000

    def test_duplicate_endorsement_rejected(self):
        sim, service, endorser, review = self._arena()
        sim.endorse_review(endorser, review, VOTE_UP)
        # A second SRDT must not enable a second vote on the same review.
        sim.tokens.mint_srdt(endorser, service)
        with pytest.raises(DuplicateEndorsement):
            sim.endorse_review(endorser, review, VOTE_DOWN)

    def test_without_srdt_denied(self):
        sim, service, endorser, review = self._arena()
        token = sim.tokens.active_srdt_for(endorser, service)
        sim.tokens.consume_srdt(token.token_id)
        with pytest.raises(NoValidSrdt):
            sim.endorse_review(endorser, review, VOTE_UP)

    def test_non_roster_member_denied(self):
        sim, service, endorser, review = self._arena()
        outsider = sim.register("outsider", {ROLE_CONSUMER})
        with pytest.raises(NotSelectedEndorser):
            sim.endorse_review(outsider, review, VOTE_UP)

    def test_excluded_endorser_denied(self):
        sim, service, endorser, review = self._arena()
        sim.exclude(endorser)
        with pytest.raises(NotSelectedEndorser):
            sim.endorse_review(endorser, review, VOTE_UP)

    def test_badged_review_rejects_votes(self):
        sim = make_sim(endorsement_quorum=1)
        provider, service = provider_and_service(sim)
        e0, _, _ = reviewed_purchase(sim, service, "end-0")
        sim.bootstrap_endorsers(service, 1)
        target, purchase, review = reviewed_purchase(sim, service, "target")
        sim.endorse_review(e0, review, VOTE_UP)
        sim.run_endorser_selection(service)
        assert sim.reviews.reviews[review].badge == BADGE_AUTHENTIC
        # Selection rostered the authentic reviewer; even they cannot vote
        # on a review that already carries a badge.
        assert sim.reviews.rosters[service] == {target}
        with pytest.raises(ReviewAlreadyBadged):
            sim.endorse_review(target, review, VOTE_DOWN)

    def test_annotation_service_matches_review_service(self):
        sim, service, endorser, review = self._arena()
        token_id = sim.endorse_review(endorser, review, VOTE_UP)
        token = sim.tokens.srdts[token_id]
        rec = sim.reviews.reviews[review]
        assert (token.holder, token.service_id, token.state) == (endorser, rec.service_id, "Consumed")
        assert rec.endorsers == {endorser}
        assert rec.upvotes + rec.downvotes == len(rec.endorsers)
        assert sim.snapshot()["reviews"][review]["endorsers"] == {endorser}


class TestPenaltiesAndRoster:
    def test_fraud_badges_beyond_threshold_exclude(self):
        sim = make_sim(endorsement_quorum=1, penalty_threshold=2)
        provider, service = provider_and_service(sim, ether("0.01"))
        voters = [reviewed_purchase(sim, service, f"v-{i}")[0] for i in range(3)]
        offender = sim.register("offender", {ROLE_CONSUMER})
        sim.bootstrap_endorsers(service, 3)
        for i in range(3):
            purchase = sim.buy_service(offender, service)
            review = sim.submit_review(offender, purchase, 1, text_digest(f"bad {i}"))
            roster = sorted(sim.reviews.rosters[service])
            voter = roster[0]
            sim.endorse_review(voter, review, VOTE_DOWN)
            sim.run_endorser_selection(service)
            if not sim.reviews.rosters[service] and i < 2:
                sim.bootstrap_endorsers(service, 3)
        assert sim.reviews.penalties.get(offender, 0) == 3
        assert sim.identity.get(offender).status == "Excluded"

    def test_exactly_threshold_badges_do_not_exclude(self):
        sim = make_sim(endorsement_quorum=1, penalty_threshold=2)
        provider, service = provider_and_service(sim, ether("0.01"))
        voters = [reviewed_purchase(sim, service, f"v-{i}")[0] for i in range(2)]
        offender = sim.register("offender", {ROLE_CONSUMER})
        sim.bootstrap_endorsers(service, 2)
        for i in range(2):
            purchase = sim.buy_service(offender, service)
            review = sim.submit_review(offender, purchase, 1, text_digest(f"bad {i}"))
            voter = sorted(sim.reviews.rosters[service])[0]
            sim.endorse_review(voter, review, VOTE_DOWN)
            sim.run_endorser_selection(service)
            if not sim.reviews.rosters[service] and i < 1:
                sim.bootstrap_endorsers(service, 2)
        assert sim.reviews.penalties.get(offender, 0) == 2
        assert sim.identity.get(offender).status == "Active"

    def test_selection_rebuilds_roster_from_authentic_reviewers(self):
        sim = make_sim(endorsement_quorum=1)
        provider, service = provider_and_service(sim)
        old, _, _ = reviewed_purchase(sim, service, "old")
        fresh, purchase, review = reviewed_purchase(sim, service, "fresh")
        sim.bootstrap_endorsers(service, 1)
        assert sim.reviews.rosters[service] == {old}
        sim.endorse_review(old, review, VOTE_UP)
        sim.run_endorser_selection(service)
        assert sim.reviews.rosters[service] == {fresh}

    def test_new_endorser_receives_srdt(self):
        sim = make_sim(endorsement_quorum=1)
        provider, service = provider_and_service(sim)
        old, _, _ = reviewed_purchase(sim, service, "old")
        fresh, purchase, review = reviewed_purchase(sim, service, "fresh")
        sim.bootstrap_endorsers(service, 1)
        sim.endorse_review(old, review, VOTE_UP)
        sim.run_endorser_selection(service)
        assert sim.tokens.active_srdt_for(fresh, service) is not None

    def test_editing_the_selection_report_leaves_the_log_intact(self):
        sim = make_sim(endorsement_quorum=1)
        provider, service = provider_and_service(sim)
        old, _, _ = reviewed_purchase(sim, service, "old")
        fresh, purchase, review = reviewed_purchase(sim, service, "fresh")
        sim.bootstrap_endorsers(service, 1)
        sim.endorse_review(old, review, VOTE_UP)
        report = sim.run_endorser_selection(service)
        logged = sim.ledger.log[-1]
        assert logged.kind == "SelectionRun" and logged.payload == report
        report["roster"].append("intruder")
        report["badged"][0]["badge"] = BADGE_FRAUDULENT
        report["service"] = "elsewhere"
        assert list(iter_log_lines(exported_log(sim.ledger)))[-1].payload["roster"] == [fresh]
        assert logged.payload["roster"] == [fresh]


class TestBootstrap:
    def test_deterministic_roster_for_seed(self):
        def build(seed):
            sim = make_sim(seed=seed)
            provider, service = provider_and_service(sim, ether("0.05"))
            for i in range(10):
                reviewed_purchase(sim, service, f"r-{i}")
            return sim.bootstrap_endorsers(service, 5)

        assert build(123) == build(123)
        assert len(build(123)) == 5

    def test_clamped_to_reviewer_count(self, sim):
        provider, service = provider_and_service(sim)
        for i in range(3):
            reviewed_purchase(sim, service, f"r-{i}")
        assert len(sim.bootstrap_endorsers(service, 5)) == 3

    def test_no_reviews_rejected(self, sim):
        provider, service = provider_and_service(sim)
        with pytest.raises(NoReviews):
            sim.bootstrap_endorsers(service, 5)

    def test_non_empty_roster_rejected(self, sim):
        provider, service = provider_and_service(sim)
        reviewed_purchase(sim, service, "r-0")
        sim.bootstrap_endorsers(service, 1)
        with pytest.raises(ValidationError):
            sim.bootstrap_endorsers(service, 1)

    def test_grants_endorser_role_and_srdt(self, sim):
        provider, service = provider_and_service(sim)
        pid, _, _ = reviewed_purchase(sim, service, "r-0")
        sim.bootstrap_endorsers(service, 1)
        assert sim.reviews.rosters[service] == {pid}
        assert sim.tokens.active_srdt_for(pid, service) is not None


class RefundArena:
    """Service with a five-member roster and one fresh claimable purchase."""

    def __init__(self, panel_size=5, roster=5, **overrides):
        self.sim = make_sim(panel_size=panel_size, **overrides)
        self.provider, self.service = provider_and_service(self.sim, ether("0.5"))
        for i in range(roster):
            reviewed_purchase(self.sim, self.service, f"end-{i}")
        self.sim.bootstrap_endorsers(self.service, roster)
        self.claimant = self.sim.register("claimant", {ROLE_CONSUMER})
        self.purchase = self.sim.buy_service(self.claimant, self.service)

    def file(self):
        return self.sim.file_refund_claim(self.claimant, self.purchase)


class TestRefunds:
    def test_panel_is_five_distinct_endorsers(self):
        arena = RefundArena(roster=7)
        claim_id = arena.file()
        panel = arena.sim.reviews.claims[claim_id].panel
        assert len(panel) == 5
        assert len(set(panel)) == 5
        assert set(panel) <= arena.sim.reviews.rosters[arena.service]

    def test_strict_majority_approves_and_moves_price_paid(self):
        arena = RefundArena()
        sim = arena.sim
        claim_id = arena.file()
        claim = sim.reviews.claims[claim_id]
        provider_before = sim.ledger.balance(arena.provider)
        claimant_before = sim.ledger.balance(arena.claimant)
        votes = [VOTE_APPROVE, VOTE_APPROVE, VOTE_APPROVE, VOTE_REJECT, VOTE_REJECT]
        for member, vote in zip(claim.panel, votes):
            sim.vote_refund(member, claim_id, vote)
        assert claim.outcome == OUTCOME_APPROVED
        assert sim.ledger.balance(arena.provider) == provider_before - ether("0.5")
        assert sim.ledger.balance(arena.claimant) == claimant_before + ether("0.5")
        assert sim.reviews.refunded(arena.purchase)

    def test_two_two_with_abstention_rejected_at_window_close(self):
        arena = RefundArena(voting_window=3)
        sim = arena.sim
        claim_id = arena.file()
        claim = sim.reviews.claims[claim_id]
        for member, vote in zip(claim.panel[:4], [VOTE_APPROVE, VOTE_APPROVE, VOTE_REJECT, VOTE_REJECT]):
            sim.vote_refund(member, claim_id, vote)
        with pytest.raises(ValidationError):
            sim.settle_refund(claim_id)  # window still open
        for _ in range(3):
            sim.advance_tick()
        assert sim.settle_refund(claim_id) == OUTCOME_REJECTED
        assert not sim.reviews.refunded(arena.purchase)

    def test_non_panel_member_cannot_vote(self):
        arena = RefundArena(roster=7)
        sim = arena.sim
        claim_id = arena.file()
        outsider = sorted(sim.reviews.rosters[arena.service] - set(sim.reviews.claims[claim_id].panel))[0]
        with pytest.raises(NotPanelMember):
            sim.vote_refund(outsider, claim_id, VOTE_APPROVE)

    def test_duplicate_vote_rejected(self):
        arena = RefundArena()
        sim = arena.sim
        claim_id = arena.file()
        member = sim.reviews.claims[claim_id].panel[0]
        sim.vote_refund(member, claim_id, VOTE_APPROVE)
        with pytest.raises(DuplicateVote):
            sim.vote_refund(member, claim_id, VOTE_REJECT)

    def test_claim_on_refunded_purchase_rejected(self):
        arena = RefundArena()
        sim = arena.sim
        claim_id = arena.file()
        for member in sim.reviews.claims[claim_id].panel:
            sim.vote_refund(member, claim_id, VOTE_APPROVE)
        with pytest.raises(AlreadyRefunded):
            arena.file()

    def test_open_claim_blocks_second_claim(self):
        arena = RefundArena()
        arena.file()
        with pytest.raises(DuplicateClaim):
            arena.file()

    def test_claim_window_closes(self):
        arena = RefundArena(claim_window=2)
        for _ in range(3):
            arena.sim.advance_tick()
        with pytest.raises(ClaimWindowClosed):
            arena.file()

    def test_no_roster_no_claim(self, sim):
        provider, service = provider_and_service(sim)
        consumer = sim.register("cons", {ROLE_CONSUMER})
        purchase = sim.buy_service(consumer, service)
        with pytest.raises(NoEndorsersAvailable):
            sim.file_refund_claim(consumer, purchase)

    def test_settled_claim_is_closed(self):
        arena = RefundArena()
        sim = arena.sim
        claim_id = arena.file()
        for member in sim.reviews.claims[claim_id].panel:
            sim.vote_refund(member, claim_id, VOTE_REJECT)
        with pytest.raises(ClaimClosed):
            sim.vote_refund(sim.reviews.claims[claim_id].panel[0], claim_id, VOTE_APPROVE)
        with pytest.raises(ClaimClosed):
            sim.settle_refund(claim_id)

    def test_settlement_defers_until_provider_can_pay(self):
        arena = RefundArena()
        sim = arena.sim
        claim_id = arena.file()
        # Drain the provider below the refund amount via fund replenishment.
        gas = sim.ledger.gas.charge("add_service")
        drain = sim.ledger.balance(arena.provider) - gas - ether("0.4")
        sim.replenish_fund(arena.provider, arena.service, drain)
        assert sim.ledger.balance(arena.provider) < ether("0.5")
        claim = sim.reviews.claims[claim_id]
        for member in claim.panel:
            sim.vote_refund(member, claim_id, VOTE_APPROVE)
        assert claim.outcome == "Open"  # vote stands, payout deferred
        sim.buy_service(arena.claimant, arena.service)  # revenue restores the provider
        assert sim.settle_refund(claim_id) == OUTCOME_APPROVED
        assert sim.reviews.refunded(arena.purchase)

    def test_claims_are_judged_per_purchase(self):
        arena = RefundArena()
        sim = arena.sim
        other = sim.buy_service(arena.claimant, arena.service)
        claim_id = arena.file()
        sim.file_refund_claim(arena.claimant, other)  # another purchase's open claim is no duplicate
        for member in sim.reviews.claims[claim_id].panel:
            sim.vote_refund(member, claim_id, VOTE_APPROVE)
        assert sim.reviews.refunded(arena.purchase)
        assert not sim.reviews.refunded(other)
        with pytest.raises(DuplicateClaim):
            sim.file_refund_claim(arena.claimant, other)

    def test_refund_leaves_review_and_badge_untouched(self):
        arena = RefundArena()
        sim = arena.sim
        review = sim.submit_review(arena.claimant, arena.purchase, 2, text_digest("meh"))
        claim_id = arena.file()
        for member in sim.reviews.claims[claim_id].panel:
            sim.vote_refund(member, claim_id, VOTE_APPROVE)
        assert sim.reviews.reviews[review].badge == BADGE_PENDING
        assert sim.tokens.srat_for_purchase(arena.purchase).state == BURNED
