"""Adversary harness: attack policies, attack scenarios, metrics, log replay.

A scenario is fully determined by its fields plus a seed. The runner builds
a population of honest and dishonest raters against services with a fixed
ground-truth quality, then drives rounds of

    purchases -> reviews -> endorsements -> selection -> refunds

advancing one tick per phase. Protocol rejections never abort a run; they
are recorded as denial counts. Metrics are computed twice by independent
routes: live from simulation state alone, and by replay_verify() purely
from an exported event log, folded line by line as it is verified. Each
route builds per-participant totals, never a list of the log's records,
for _metrics, the one definition of the seven metrics; the two must agree
exactly. Attacker spend is every Wei that left attacker accounts (gas,
purchase prices, review-fund deposits and refunds paid), read live from
Ledger.spent, which also counts what left the fund accounts; the metrics
read only participants.

Voting behavior: honest endorsers vote Up on reviews whose rating band
matches the service's ground truth and Down otherwise (inverted with
probability 1 - honest_vote_probability), piling onto mismatched reviews
first; dishonest endorsers up-vote fellow attackers and down-vote everyone
else, boosting allies or burying enemies first as their policy says.

Each attack kind is one AttackPolicy row in POLICIES: when its attackers
register, buy, rate, review, vote, re-register and claim refunds. The
runner reads only that row, never the kind. A rater's budget is simply its
account balance: raters act until the ledger refuses to fund them.

The runner keeps no copy of protocol state. Its own records are the
attackers' cards (by participant id, in registration order, the attacker
provider included), the consumers in registration order, the ground truth
and its counters (extras); exclusion, balances and listings are read from
the simulation.
"""

from __future__ import annotations

import io
import sys
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field

from .config import (
    MAX_COUNT,
    MAX_PARTICIPANT_ROUNDS,
    NAME,
    OBJECT,
    REVIEW_FUND_SEED,
    REVIEW_SUBSIDY,
    SCENARIO_FIELDS,
    ProtocolConfig,
    check_bounds,
    parse_protocol_config,
    read_fields,
)
from .endorsement import (
    BADGE_AUTHENTIC,
    BADGE_FRAUDULENT,
    BADGE_PENDING,
    OUTCOME_APPROVED,
    OUTCOME_OPEN,
    VOTE_APPROVE,
    VOTE_DOWN,
    VOTE_REJECT,
    VOTE_UP,
    text_digest,
)
from .errors import ConfigError, DdrmError, DuplicateCard, InsufficientFunds, MalformedEvent
from .identity import ROLE_CONSUMER, ROLE_PROVIDER
from .ledger import ether, iter_log_lines, quoted
from .sim import Simulation
from .tokens import BURNED

GOOD = "Good"
BAD = "Bad"

KIND_SYBIL = "sybil"
KIND_BALLOT_STUFFING = "ballot_stuffing"
KIND_BAD_MOUTHING = "bad_mouthing"
KIND_COLLUSION = "collusion"
KIND_WHITEWASHING = "whitewashing"
KIND_CONSTANT_ATTACK = "constant_attack"
KIND_MAJORITY_ENDORSER = "majority_endorser"
KIND_FALSE_REFUND = "false_refund"


@dataclass(frozen=True)
class AttackPolicy:
    """How the attackers of one kind act. The defaults: buy every round, praise, review what was bought."""

    lists_service: bool = False          # an attacker provider lists a Bad service; attackers rate others 1
    self_lists: bool = False             # the same with target_own, and then no honest provider lists
    early: bool = False                  # attackers register first; honest consumers buy in round 2, not 1
    buys: range = range(1, sys.maxsize)  # the rounds in which attackers buy
    trashes: bool = False                # attackers rate every service 1
    reviews: str = "purchases"           # "purchases", "fabricated" (no purchase behind them) or "none"
    enemy_first: bool = False            # attacker endorsers bury honest reviews before boosting allied ones
    whitewash: bool = False              # excluded attackers re-register with the same card
    claims_from: int | None = None       # the round from which attackers file false refund claims


POLICIES = {
    KIND_SYBIL: AttackPolicy(),
    KIND_BALLOT_STUFFING: AttackPolicy(self_lists=True),
    KIND_BAD_MOUTHING: AttackPolicy(buys=range(2, sys.maxsize), trashes=True),
    KIND_COLLUSION: AttackPolicy(lists_service=True),
    KIND_WHITEWASHING: AttackPolicy(buys=range(2, sys.maxsize), trashes=True, whitewash=True),
    KIND_CONSTANT_ATTACK: AttackPolicy(buys=range(0), reviews="fabricated"),
    KIND_MAJORITY_ENDORSER: AttackPolicy(early=True, enemy_first=True),
    KIND_FALSE_REFUND: AttackPolicy(buys=range(1, 2), reviews="none", claims_from=2),
}
ALL_KINDS = tuple(POLICIES)


@dataclass(frozen=True)
class AttackScenario:
    name: str
    kind: str
    seed: int | None = None
    rounds: int = 10
    attacker_count: int = 1
    fake_identities_per_attacker: int = 1
    honest_count: int = 12
    service_cost_wei: int = ether("0.5")
    target_own: bool = True            # a self_lists policy (ballot stuffing): own listing vs competitor
    honest_vote_probability: float = 1.0
    overrides: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ConfigError(f"unknown scenario kind {quoted(self.kind)}")
        prefix = f"scenario {self.name}: "
        check_bounds(self, SCENARIO_FIELDS, prefix)
        if self.attacker_count * self.fake_identities_per_attacker > MAX_COUNT:
            raise ConfigError(f"{prefix}attacker_count * fake_identities_per_attacker must be at most {MAX_COUNT}")
        if self.rounds * (self.honest_count + self.attacker_count) > MAX_PARTICIPANT_ROUNDS:
            raise ConfigError(f"{prefix}rounds * (honest_count + attacker_count) must be at most"
                              f" {MAX_PARTICIPANT_ROUNDS}")


def parse_scenario(doc, index: int = 0) -> AttackScenario:
    doc = OBJECT.read(doc, f"scenario #{index}")
    if "kind" not in doc:
        raise ConfigError(f"scenario #{index} missing 'kind'")
    # The name labels every later message, so it is read first; only a known kind makes a default name.
    default = f"{doc['kind']}-{index}" if doc["kind"] in ALL_KINDS else f"#{index}"
    name = NAME.read(doc.get("name", default), f"scenario #{index}: name")
    scenario = AttackScenario(
        **read_fields({**doc, "name": name}, SCENARIO_FIELDS, f"scenario #{index}", f"scenario {name}: ")
    )
    scenario.validate()
    return scenario


@dataclass(frozen=True)
class ScenarioMetrics:
    badge_accuracy: float = 0.0
    attacker_spend_wei: int = 0
    attacker_reviews_accepted: int = 0
    attacker_reviews_branded: int = 0
    exclusions: int = 0
    refund_fraud_approved: int = 0
    provider_dret_delta: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def band_matches(rating: int, quality: str) -> bool:
    """A rating of 4-5 matches a Good service, 1-2 a Bad one; 3 matches neither."""
    return (rating >= 4 and quality == GOOD) or (rating <= 2 and quality == BAD)


def expected_badge(rating: int, quality: str) -> str:
    """The badge a perfectly informed jury would assign."""
    return BADGE_AUTHENTIC if band_matches(rating, quality) else BADGE_FRAUDULENT


@dataclass
class ScenarioResult:
    scenario: AttackScenario
    metrics: ScenarioMetrics
    extras: dict
    sim: Simulation

    def log_text(self) -> bytes:
        """The exported log: the bytes that Ledger.write_log writes and `ddrm run` publishes.

        Bytes despite the name, which stays because bench/workloads.py calls it.
        """
        f = io.BytesIO()
        self.sim.ledger.write_log(f)
        return f.getvalue()

    def final_log_hash(self) -> str:
        return self.sim.ledger.final_hash()


class ScenarioRunner:
    """Executes one attack scenario against a fresh simulation."""

    def __init__(self, scenario: AttackScenario, protocol: ProtocolConfig | None = None, default_seed: int = 42):
        scenario.validate()
        self.scenario = scenario
        self.policy = POLICIES[scenario.kind]
        base = protocol or ProtocolConfig()
        self.protocol = parse_protocol_config(scenario.overrides, base=base) if scenario.overrides else base
        self.seed = scenario.seed if scenario.seed is not None else default_seed
        self.sim = Simulation(self.protocol, self.seed)
        self.attackers: dict[str, str] = {}  # pid -> card, in registration order; the provider too
        self.consumers: list[str] = []       # in registration order
        self.ground_truth: dict[str, str] = {}
        self.target_providers: list[str] = []
        self.attacker_service: str | None = None
        self.extras = {
            "sybil_registrations_attempted": 0,
            "sybil_registrations_succeeded": 0,
            "whitewash_reregistrations_attempted": 0,
            "whitewash_reregistrations_succeeded": 0,
            "denials": {},
        }
        self._whitewash_done: set[str] = set()
        self._round_votes: dict[str, int] = {}

    # -- bookkeeping helpers --

    def _deny(self, exc: DdrmError) -> None:
        name = type(exc).__name__
        self.extras["denials"][name] = self.extras["denials"].get(name, 0) + 1

    def _attempt(self, op, *args):
        """Run one protocol operation; a rejection counts as a denial and returns None."""
        try:
            return op(*args)
        except DdrmError as exc:
            self._deny(exc)
            return None

    def _set_up(self, op, *args):
        """Run one population operation; money the config leaves too short is a config error."""
        try:
            return op(*args)
        except InsufficientFunds as exc:  # a faucet or genesis credit too small for the population
            raise ConfigError(f"scenario {self.scenario.name}: {exc}") from exc

    def _add_member(self, card: str, attacker: bool, role: str) -> str:
        pid = self._set_up(self.sim.register, card, {role})
        if attacker:
            self.attackers[pid] = card
        if role == ROLE_CONSUMER:
            self.consumers.append(pid)
        return pid

    # -- population --

    def _build_population(self) -> None:
        s = self.scenario
        self_listing = self.policy.self_lists and s.target_own
        # DRET deltas are tracked for the service the attack aims at: the
        # attackers' own listing when they list one, the victim's otherwise.
        if not self_listing:
            target = self._add_member("honest-provider-0", False, ROLE_PROVIDER)
            self.ground_truth[self._set_up(self.sim.add_service, target, s.service_cost_wei)] = GOOD
        if self.policy.lists_service or self_listing:
            target = self._add_member("attacker-provider-0", True, ROLE_PROVIDER)
            self.attacker_service = self._set_up(self.sim.add_service, target, s.service_cost_wei)
            self.ground_truth[self.attacker_service] = BAD
        self.target_providers = [target]

        def register_attackers():
            for i in range(s.attacker_count):
                card = f"attacker-card-{i}"
                for _ in range(s.fake_identities_per_attacker):
                    self.extras["sybil_registrations_attempted"] += 1
                    try:
                        self._add_member(card, True, ROLE_CONSUMER)
                        self.extras["sybil_registrations_succeeded"] += 1
                    except DuplicateCard as exc:
                        self._deny(exc)

        def register_honest():
            for i in range(s.honest_count):
                self._add_member(f"honest-card-{i}", False, ROLE_CONSUMER)

        # Early attackers register before honest consumers, to be among a
        # service's earliest reviewers.
        order = (register_attackers, register_honest) if self.policy.early else (register_honest, register_attackers)
        for register in order:
            register()

        self.sim.ledger.append_event(
            "ScenarioSetup",
            {
                "scenario": s.name,
                "kind": s.kind,
                "attackers": list(self.attackers),
                "ground_truth": dict(self.ground_truth),
                "target_providers": list(self.target_providers),
            },
        )

    # -- per-round behavior --

    def _buys_this_round(self, attacker: bool, rnd: int) -> bool:
        if attacker:
            return rnd in self.policy.buys
        # Honest consumers purchase once, in round 1 (round 2 when attackers
        # must be the earliest reviewers).
        return rnd == (2 if self.policy.early else 1)

    def _rating_for(self, attacker: bool, service_id: str) -> int:
        quality = self.ground_truth[service_id]
        beacon = self.sim.ledger.beacon
        if not attacker:
            return beacon.randint(4, 5) if quality == GOOD else beacon.randint(1, 2)
        if self.policy.trashes or self.attacker_service not in (None, service_id):
            return 1  # trash everything, or every rival of the attackers' own listing
        return 5

    def _purchase_phase(self, rnd: int) -> None:
        for pid in self.consumers:
            if not self.sim.identity.get(pid).active:
                self._maybe_whitewash(pid)
                continue
            if not self._buys_this_round(pid in self.attackers, rnd):
                continue
            for service_id in self.ground_truth:
                self._attempt(self.sim.buy_service, pid, service_id)
        self._replenish_funds()

    def _maybe_whitewash(self, pid: str) -> None:
        """Excluded attackers try to shed their history with the same card."""
        if not (self.policy.whitewash and pid in self.attackers) or pid in self._whitewash_done:
            return
        self._whitewash_done.add(pid)
        for _ in range(self.scenario.fake_identities_per_attacker):
            self.extras["whitewash_reregistrations_attempted"] += 1
            if self._attempt(self.sim.register, self.attackers[pid], {ROLE_CONSUMER}) is not None:
                self.extras["whitewash_reregistrations_succeeded"] += 1

    def _starved_services(self) -> list[str]:
        """Services whose fund cannot pay one review subsidy; a run never withdraws one or excludes its provider."""
        return [sid for sid in self.ground_truth if self.sim.ledger.balance(sid) < REVIEW_SUBSIDY]

    def _replenish_funds(self) -> None:
        """Providers keep their services reviewable by topping up dry funds."""
        for service_id in self._starved_services():
            provider = self.sim.market.get_service(service_id).provider
            self._attempt(self.sim.replenish_fund, provider, service_id, REVIEW_FUND_SEED)

    def _review_phase(self, rnd: int) -> None:
        for pid in self.consumers:
            if not self.sim.identity.get(pid).active:
                continue
            attacker = pid in self.attackers
            if attacker and self.policy.reviews != "purchases":
                if self.policy.reviews == "fabricated":
                    self._fabricated_reviews(pid)
                continue  # "none": the fraud is the refund claim, not the review
            for purchase_id in self.sim.market.purchases_by_consumer.get(pid, ()):
                purchase = self.sim.market.purchases[purchase_id]
                if self.sim.tokens.srat_for_purchase(purchase_id).state == BURNED:
                    continue
                rating = self._rating_for(attacker, purchase.service_id)
                digest = text_digest(f"{pid}|{purchase_id}|round {rnd}")
                self._attempt(self.sim.submit_review, pid, purchase_id, rating, digest)

    def _fabricated_reviews(self, pid: str) -> None:
        """Review attempts without any purchase: the first one filed and a bogus id."""
        foreign = next(iter(self.sim.market.purchases), None)
        for purchase_id in filter(None, [foreign, "PUR-99999"]):
            self._attempt(self.sim.submit_review, pid, purchase_id, 1, text_digest("fabricated"))

    # -- endorsement machinery --

    def _endorse_phase(self, rnd: int) -> None:
        self._round_votes = {}
        for service_id in self.ground_truth:
            roster = self.sim.reviews.rosters.get(service_id, set())
            has_reviews = bool(self.sim.reviews.reviews_by_service.get(service_id))
            if not roster and has_reviews:
                self._attempt(self.sim.bootstrap_endorsers, service_id)
                roster = self.sim.reviews.rosters.get(service_id, set())
            if not roster:
                continue
            self._round_votes[service_id] = self._cast_votes(service_id, sorted(roster))

    def _vote(self, endorser: str, review, vote: str) -> bool:
        return self._attempt(self.sim.endorse_review, endorser, review.review_id, vote) is not None

    def _cast_votes(self, service_id: str, roster: list[str]) -> int:
        """One endorsement wave: attackers first, then coordinated honest votes.

        Honest endorsers never cast a lone vote that would push a review
        over quorum with the wrong majority; they commit to a review only
        when enough of them can vote this phase to (a) reach quorum and
        (b) keep the majority ahead of every attacker SRDT still usable on
        that review. Anything else is left pending for a later, stronger
        roster (rosters regrow through bootstrap after stalled selections).
        """
        pending = self.sim.reviews.pending_reviews(service_id)
        if not pending:
            return 0
        quality = self.ground_truth[service_id]
        quorum = self.protocol.endorsement_quorum
        attackers = self.attackers
        cast = 0

        def has_srdt(pid):
            return self.sim.tokens.active_srdt_for(pid, service_id) is not None

        # Wave 1: attackers boost allied reviews up to quorum, or bury the
        # oldest enemy review, depending on the attack's aim.
        for pid in [p for p in roster if p in attackers]:
            if not has_srdt(pid):
                continue
            ally_pick = enemy_pick = None
            for review in pending:
                if pid in review.endorsers:
                    continue
                if review.reviewer in attackers:
                    if ally_pick is None and review.upvotes + review.downvotes < quorum:
                        ally_pick = review
                elif enemy_pick is None:
                    enemy_pick = review
            choice = (enemy_pick or ally_pick) if self.policy.enemy_first else (ally_pick or enemy_pick)
            if choice is None:
                continue
            vote = VOTE_UP if choice.reviewer in attackers else VOTE_DOWN
            cast += self._vote(pid, choice, vote)

        # Wave 2: honest endorsers, mismatched (suspect) reviews first. Their
        # votes spend only their own SRDTs and the tick stands still, so which
        # attackers still hold one is fixed for the whole wave.
        available = [p for p in roster if p not in attackers and has_srdt(p)]
        attacker_pool = [p for p in roster if p in attackers and has_srdt(p)]
        marked = [(not band_matches(r.rating, quality), r) for r in pending]
        for hostile, review in sorted(marked, key=lambda m: not m[0]):  # stable: suspects, then ordinary
            if not available:
                break
            ours, theirs = (review.downvotes, review.upvotes) if hostile else (review.upvotes, review.downvotes)
            aligned, inverted = (VOTE_DOWN, VOTE_UP) if hostile else (VOTE_UP, VOTE_DOWN)
            if ours + theirs >= quorum and ours > theirs:
                continue  # already badgeable with the right badge this round
            if quorum - ours - theirs > len(available):
                continue  # too few voters left to reach quorum, whoever they are
            a_rem = sum(1 for p in attacker_pool if p not in review.endorsers)
            # At least 1: below quorum the first term is; at quorum ours <= theirs.
            needed = max(quorum - ours - theirs, theirs + a_rem + 1 - ours)
            voters = [p for p in available if p not in review.endorsers]
            if len(voters) < needed:
                continue  # unsafe to start; wait for a stronger roster
            for pid in voters[:needed]:
                truthful = self.sim.ledger.beacon.chance(self.scenario.honest_vote_probability)
                if self._vote(pid, review, aligned if truthful else inverted):
                    available.remove(pid)
                    cast += 1
        return cast

    def _selection_phase(self, rnd: int) -> None:
        for service_id in self.ground_truth:
            pending = self.sim.reviews.pending_reviews(service_id)
            eligible = any(
                r.upvotes + r.downvotes >= self.protocol.endorsement_quorum for r in pending
            )
            roster = self.sim.reviews.rosters.get(service_id, set())
            # A roster that cast nothing against a pending backlog is stuck
            # (hoarding or out of tokens); wipe it so bootstrap can re-seed.
            stalled = bool(roster) and bool(pending) and self._round_votes.get(service_id, 0) == 0
            if eligible or stalled:
                self.sim.run_endorser_selection(service_id)

    # -- refunds --

    def _refund_phase(self, rnd: int) -> None:
        if self.policy.claims_from is not None and rnd >= self.policy.claims_from:
            self._file_false_claims()
        open_claims = [cid for cid, claim in self.sim.reviews.claims.items() if claim.outcome == OUTCOME_OPEN]
        for claim_id in open_claims:
            claim = self.sim.reviews.claims[claim_id]
            purchase = self.sim.market.purchases[claim.purchase_id]
            quality = self.ground_truth[purchase.service_id]
            for voter in claim.panel:
                if voter in claim.votes:
                    continue
                if voter in self.attackers:
                    vote = VOTE_APPROVE if claim.claimant in self.attackers else VOTE_REJECT
                else:
                    vote = VOTE_APPROVE if quality == BAD else VOTE_REJECT
                self._attempt(self.sim.vote_refund, voter, claim_id, vote)
                if self.sim.reviews.claims[claim_id].outcome != OUTCOME_OPEN:
                    break
            if self.sim.reviews.claims[claim_id].outcome == OUTCOME_OPEN:
                self._attempt(self.sim.settle_refund, claim_id)

    def _file_false_claims(self) -> None:
        claimed = {claim.purchase_id for claim in self.sim.reviews.claims.values()}
        for pid in self.attackers:
            if not self.sim.identity.get(pid).active:
                continue
            for purchase_id in self.sim.market.purchases_by_consumer.get(pid, ()):
                # A refused claim is retried next round while the window allows.
                if purchase_id not in claimed:
                    self._attempt(self.sim.file_refund_claim, pid, purchase_id)

    # -- execution and metrics --

    def run(self) -> ScenarioResult:
        self._build_population()
        phases = (
            self._purchase_phase, self._review_phase, self._endorse_phase, self._selection_phase, self._refund_phase
        )
        for rnd in range(1, self.scenario.rounds + 1):
            for phase in phases:
                phase(rnd)
                self.sim.advance_tick()
        market, attackers = self.sim.market, self.attackers
        self.extras["victim_revenue_wei"] = sum(
            p.price_paid
            for p in market.purchases.values()
            if p.consumer in attackers and market.services[p.service_id].provider not in attackers
        )
        self.extras["review_starved_services"] = self._starved_services()
        return ScenarioResult(
            scenario=self.scenario,
            metrics=self._live_metrics(),
            extras=self.extras,
            sim=self.sim,
        )

    def _live_metrics(self) -> ScenarioMetrics:
        sim = self.sim
        reviews = sim.reviews.reviews.values()
        return _metrics(
            (self.attackers, self.ground_truth, set(self.target_providers)),
            [(r.service_id, r.reviewer, r.rating, r.badge) for r in reviews if r.badge != BADGE_PENDING],
            sim.ledger.spent,
            Counter(r.reviewer for r in reviews),
            Counter(c.claimant for c in sim.reviews.claims.values() if c.outcome == OUTCOME_APPROVED),
            sim.tokens.dret,
            sum(1 for p in sim.identity.participants.values() if not p.active),
        )


def _metrics(
    setup: tuple, badged: list, spent: dict, accepted: dict, refunds: dict, dret: dict, exclusions: int
) -> ScenarioMetrics:
    """The seven metrics: the one place that selects attackers and target providers and sums their totals.

    `setup` is (attackers, ground truth, targets); `badged` holds (service, reviewer, rating, badge)
    tuples; spent Wei, accepted reviews, approved refunds and DRET are per-participant totals (absent
    is 0). A badged service missing from the ground truth raises KeyError.
    """
    attackers, truth, targets = setup
    matched = sum(1 for service, _, rating, badge in badged if badge == expected_badge(rating, truth[service]))
    branded = sum(1 for _, reviewer, _, badge in badged if badge == BADGE_FRAUDULENT and reviewer in attackers)
    return ScenarioMetrics(
        badge_accuracy=matched / len(badged) if badged else 0.0,
        attacker_spend_wei=sum(spent.get(a, 0) for a in attackers),
        attacker_reviews_accepted=sum(accepted.get(a, 0) for a in attackers),
        attacker_reviews_branded=branded,
        exclusions=exclusions,
        refund_fraud_approved=sum(refunds.get(a, 0) for a in attackers),
        provider_dret_delta=sum(dret.get(t, 0) for t in targets),
    )


def run_scenario(
    scenario: AttackScenario,
    protocol: ProtocolConfig | None = None,
    default_seed: int = 42,
) -> ScenarioResult:
    """Execute a scenario; a pure function of (scenario fields, seed)."""
    return ScenarioRunner(scenario, protocol, default_seed).run()


def replay_verify(log) -> ScenarioMetrics:
    """Recompute scenario metrics purely from an exported ndjson event log.

    `log` is an exported log's bytes (log_text()) or a binary file. Folds each record
    as iter_log_lines verifies it against the chain and its EVENTS row, into totals per
    participant that the first ScenarioSetup selects at the end. A line is accepted on its
    text alone; only the kinds whose fields the metrics read decode their payload, in their
    branch below (Excluded is only counted). Raises the first failure in log order, as
    iter_log_lines names it, or MalformedEvent on a badged service the ground truth lacks.
    This is the independent oracle against run_scenario's live metrics.
    """
    setup = None
    spent, accepted, refunds, dret = (defaultdict(int) for _ in range(4))
    badged: list[tuple] = []
    exclusions = 0
    for rec in iter_log_lines(log):
        kind = rec.kind
        if kind == "GasCharged":
            p = rec.payload
            spent[p["payer"]] += p["amount_wei"]
        elif kind == "ServicePurchased":
            p = rec.payload
            spent[p["consumer"]] += p["price_paid_wei"]
        elif kind == "ServiceAdded":
            p = rec.payload
            spent[p["provider"]] += p["fund_wei"]
        elif kind == "FundReplenished":
            p = rec.payload
            spent[p["provider"]] += p["amount_wei"]
        elif kind == "ReviewSubmitted":
            accepted[rec.payload["reviewer"]] += 1
        elif kind == "SelectionRun":
            p = rec.payload
            badged.extend((p["service"], b["reviewer"], b["rating"], b["badge"]) for b in p["badged"])
        elif kind == "Excluded":
            exclusions += 1
        elif kind == "RefundSettled":
            p = rec.payload
            spent[p["provider"]] += p["amount_wei"]
            if p["outcome"] == OUTCOME_APPROVED:
                refunds[p["consumer"]] += 1
        elif kind == "DretAwarded":
            dret[rec.payload["provider"]] += 1
        elif kind == "ScenarioSetup" and setup is None:
            # It follows the population's events (it needs the service
            # ids), which is why the totals are kept per participant.
            p = rec.payload
            setup = set(p["attackers"]), p["ground_truth"], set(p["target_providers"])
    try:
        return _metrics(setup or (set(), {}, set()), badged, spent, accepted, refunds, dret, exclusions)
    except KeyError as exc:
        raise MalformedEvent(f"badged service {exc} has no ground truth (computing the metrics after the log)") from exc
