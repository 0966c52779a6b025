"""Property tests: conservation, atomicity, token state machine, determinism, indexes, ids."""

import copy
import random
from collections import Counter
from dataclasses import fields
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddrm import REVIEW_FUND_SEED, ether, text_digest
from ddrm.adversary import AttackScenario, run_scenario
from ddrm.endorsement import BADGE_AUTHENTIC, BADGE_PENDING, OUTCOME_APPROVED, OUTCOME_OPEN, VOTE_UP
from ddrm.errors import DdrmError, DuplicateCard, InsufficientFunds, InvariantViolation
from ddrm.identity import ROLE_CONSUMER, ROLE_PROVIDER
from ddrm.ledger import GAS_SINK, iter_log_lines
from ddrm.tokens import ACTIVE, BURNED, EXPIRED, VOIDED

from conftest import assert_payloads_fit_events, exported_log, make_sim


def _group(records, key, value=attrgetter("token_id")):
    groups = {}
    for record in records:
        groups.setdefault(key(record), []).append(value(record))
    return {k: sorted(v) for k, v in groups.items()}


def brute_force_indexes(sim):
    """Every lookup index, rebuilt by scanning the primary records."""
    tokens, board = sim.tokens, sim.reviews
    every_token = [*tokens.srats.values(), *tokens.srdts.values()]
    return {
        "purchases_by_consumer": _group(
            sim.market.purchases.values(), attrgetter("consumer"), attrgetter("purchase_id")
        ),
        "srdts_by_holder_service": _group(tokens.srdts.values(), attrgetter("holder", "service_id")),
        # Buckets due by the current tick have been swept and dropped.
        "tokens_by_expiry": _group(
            [t for t in every_token if t.expiry_tick > sim.ledger.tick], attrgetter("expiry_tick")
        ),
        "reviews_by_service": _group(
            board.reviews.values(), attrgetter("service_id"), attrgetter("review_id")
        ),
    }


def live_indexes(sim):
    """The same indexes as the simulation keeps them, in the oracle's shape."""
    tokens, board = sim.tokens, sim.reviews

    def ids(index, value=attrgetter("token_id")):
        return {k: sorted(value(v) if not isinstance(v, str) else v for v in vs) for k, vs in index.items()}

    return {
        "purchases_by_consumer": ids(sim.market.purchases_by_consumer),
        "srdts_by_holder_service": ids(tokens.srdts_by_holder_service),
        "tokens_by_expiry": ids(tokens.tokens_by_expiry),
        "reviews_by_service": ids(board.reviews_by_service),
    }


def check_indexes(sim):
    """Each index, and each query it serves, equals the full scan it replaced."""
    assert live_indexes(sim) == brute_force_indexes(sim)
    tokens, board = sim.tokens, sim.reviews
    tick = sim.ledger.tick
    for service_id in sim.market.services:
        for holder in sim.identity.participants:
            scanned = next(
                (
                    tokens.srdts[tid]
                    for tid in sorted(tokens.srdts)
                    if tokens.srdts[tid].holder == holder
                    and tokens.srdts[tid].service_id == service_id
                    and tokens.srdts[tid].usable_at(tick)
                ),
                None,
            )
            assert tokens.active_srdt_for(holder, service_id) is scanned
        assert board.pending_reviews(service_id) == [
            board.reviews[rid]
            for rid in sorted(board.reviews)
            if board.reviews[rid].service_id == service_id and board.reviews[rid].badge == BADGE_PENDING
        ]
    # Dry-run the sweep on copies, one tick ahead and past every lifetime,
    # and the exclusion hook for every participant.
    for ahead in (1, max(sim.config.srat_lifetime, sim.config.srdt_lifetime)):
        target = tick + ahead
        scanned = [
            tid
            for book in (tokens.srats, tokens.srdts)
            for tid in sorted(book)
            if book[tid].state == ACTIVE and book[tid].expiry_tick <= target
        ]
        assert _detached_copy(tokens).expiry_sweep(target) == scanned
    voiding = _detached_copy(tokens)
    for holder in sim.identity.participants:
        scanned = [
            tid
            for book in (tokens.srats, tokens.srdts)
            for tid in sorted(book)
            if book[tid].holder == holder and book[tid].state == ACTIVE
        ]
        assert voiding.void_all(holder) == {"voided_tokens": scanned}
    check_votes_against_log(sim)
    check_ids(sim)
    check_facts_against_log(sim)


# The seven books of records: each one's name in snapshot(), its id prefix and width, and where it lives.
BOOKS = {
    "participants": ("P", 4, lambda sim: sim.identity.participants),
    "services": ("SVC-", 4, lambda sim: sim.market.services),
    "purchases": ("PUR-", 5, lambda sim: sim.market.purchases),
    "srats": ("SRAT-", 5, lambda sim: sim.tokens.srats),
    "srdts": ("SRDT-", 5, lambda sim: sim.tokens.srdts),
    "reviews": ("REV-", 5, lambda sim: sim.reviews.reviews),
    "claims": ("CLM-", 5, lambda sim: sim.reviews.claims),
}


def check_ids(sim):
    """Each book's ids are <prefix>1..n, in that order."""
    for prefix, width, book_of in BOOKS.values():
        book = book_of(sim)
        assert list(book) == [f"{prefix}{n:0{width}d}" for n in range(1, len(book) + 1)]


def check_facts_against_log(sim):
    """Reviewed, refunded and DRET, each read from its one record, agree with the log."""
    reviewed, refunded, awarded = set(), set(), {}
    for rec in sim.ledger.log:
        if rec.kind == "ReviewSubmitted":
            reviewed.add(rec.payload["purchase"])
        elif rec.kind == "RefundSettled" and rec.payload["outcome"] == OUTCOME_APPROVED:
            refunded.add(rec.payload["purchase"])
        elif rec.kind == "DretAwarded":
            awarded[rec.payload["provider"]] = awarded.get(rec.payload["provider"], 0) + 1
    for purchase_id in sim.market.purchases:
        is_reviewed = sim.tokens.srat_for_purchase(purchase_id).state == BURNED
        assert is_reviewed == (purchase_id in reviewed)
        assert sim.reviews.refunded(purchase_id) == (purchase_id in refunded)
    assert sim.tokens.dret == awarded
    earned = {}
    for service in sim.market.services.values():
        authentic = sum(
            r.badge == BADGE_AUTHENTIC for r in sim.reviews.reviews.values() if r.service_id == service.service_id
        )
        crossings = authentic // sim.config.dret_interval
        if crossings:
            earned[service.provider] = earned.get(service.provider, 0) + crossings
    assert sim.tokens.dret == earned


def check_votes_against_log(sim):
    """Each review's recorded votes are its EndorsementCast events, and each spent its SRDT."""
    cast = {review_id: [] for review_id in sim.reviews.reviews}
    for rec in sim.ledger.log:
        if rec.kind == "EndorsementCast":
            cast[rec.payload["review"]].append(rec.payload)
    for review_id, events in cast.items():
        review = sim.reviews.reviews[review_id]
        assert review.endorsers == {e["endorser"] for e in events}
        assert review.upvotes + review.downvotes == len(review.endorsers) == len(events)
        assert review.upvotes == sum(e["vote"] == VOTE_UP for e in events)
        assert all(sim.tokens.srdts[e["srdt_token"]].state != ACTIVE for e in events)


class _LogSink:
    def append_event(self, kind, payload):
        pass


def _detached_copy(tokens):
    """A deep copy of the token book that shares the config and logs nowhere."""
    return copy.deepcopy(tokens, {id(tokens.config): tokens.config, id(tokens.ledger): _LogSink()})


def random_protocol_walk(sim, rng, steps):
    """Drive a random mix of protocol operations, tolerating denials.

    After every step the lookup indexes are checked against full scans,
    and each review's votes against the log; at the end, every payload
    appended against its ledger.EVENTS row.
    """
    providers = [sim.register(f"prov-{i}", {ROLE_PROVIDER}) for i in range(2)]
    consumers = [sim.register(f"cons-{i}", {ROLE_CONSUMER}) for i in range(3)]
    services = [sim.add_service(p, ether("0.2")) for p in providers]
    purchases = []
    reviews = []
    for _ in range(steps):
        action = rng.randrange(11)
        try:
            if action == 0:
                purchases.append(sim.buy_service(rng.choice(consumers), rng.choice(services)))
            elif action == 1 and purchases:
                pid = rng.choice(purchases)
                consumer = sim.market.purchases[pid].consumer
                reviews.append(sim.submit_review(consumer, pid, rng.randint(1, 5), text_digest(pid)))
            elif action == 2:
                sim.replenish_fund(rng.choice(providers), rng.choice(services), ether("0.1"))
            elif action == 3:
                sim.advance_tick()
            elif action == 4 and reviews:
                service = rng.choice(services)
                if not sim.reviews.rosters.get(service) and sim.reviews.reviews:
                    sim.bootstrap_endorsers(service)
                else:
                    sim.run_endorser_selection(service)
            elif action == 5:
                sim.modify_service(rng.choice(providers), rng.choice(services), ether("0.3"))
            elif action == 6:
                service = rng.choice(services)
                roster = sorted(sim.reviews.rosters.get(service, ()))
                pending = sim.reviews.pending_reviews(service)
                if roster and pending:
                    sim.endorse_review(rng.choice(roster), rng.choice(pending).review_id, rng.choice(["Up", "Down"]))
            elif action == 7 and purchases:
                pid = rng.choice(purchases)
                sim.file_refund_claim(sim.market.purchases[pid].consumer, pid)
            elif action == 8:
                open_claims = [c for c in sim.reviews.claims.values() if c.outcome == OUTCOME_OPEN]
                if open_claims:
                    claim = rng.choice(open_claims)
                    sim.vote_refund(rng.choice(claim.panel), claim.claim_id, rng.choice(["Approve", "Reject"]))
            elif action == 9:
                service = rng.choice(services)
                holders = sorted(sim.reviews.rosters.get(service, ())) or consumers
                consumer = rng.choice(holders)
                token = sim.tokens.active_srdt_for(consumer, service)
                if token is not None:
                    purchases.append(sim.buy_service(consumer, service, token.token_id))
            elif action == 10 and rng.random() < 0.1:
                sim.exclude(rng.choice(consumers))
        except DdrmError:
            pass
        check_indexes(sim)
    assert_payloads_fit_events(sim.ledger)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_conservation_holds_under_random_walks(seed):
    sim = make_sim(seed=seed)
    genesis = sim.conservation_total()
    random_protocol_walk(sim, random.Random(seed), steps=25)
    assert sim.conservation_total() == genesis
    assert len(list(iter_log_lines(exported_log(sim.ledger)))) == len(sim.ledger.log)


@pytest.mark.parametrize("account", ["SVC-0001", GAS_SINK, "P0001", "FAUCET"])
def test_conservation_sums_every_account(account):
    # An edit behind the facade's back shows at the next operation: the check is a full sum, not a counter.
    sim = make_sim()
    provider = sim.register("prov", {ROLE_PROVIDER})
    sim.add_service(provider, ether(1))
    sim.ledger.accounts[account] += 1
    with pytest.raises(InvariantViolation, match="conservation broken"):
        sim.advance_tick()


def test_snapshot_holds_every_fund_and_the_sink():
    sim = make_sim()
    provider = sim.register("prov", {ROLE_PROVIDER})
    services = [sim.add_service(provider, ether(1)) for _ in range(2)]
    snapshot = sim.snapshot()
    for name in ("accounts", "spent"):
        assert {*services, GAS_SINK, "FAUCET", provider} == set(snapshot[name])
    assert snapshot["accounts"][GAS_SINK] == 2 * sim.ledger.gas.charge("add_service")
    assert [snapshot["accounts"][sid] for sid in services] == [REVIEW_FUND_SEED] * 2


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_indexes_match_full_scans_on_long_walks(seed):
    # Short token lifetimes, so sweeps expire tokens that indexes still hold.
    sim = make_sim(seed=seed, srat_lifetime=6, srdt_lifetime=8)
    genesis = sim.conservation_total()
    random_protocol_walk(sim, random.Random(seed), steps=120)
    assert sim.conservation_total() == genesis


def test_walks_award_dret():
    # The walk's DRET checks compare something: with a quorum and an interval
    # of 1, some of these walks badge reviews authentic and cross an interval.
    awards = 0
    for seed in range(20):
        sim = make_sim(seed=seed, endorsement_quorum=1, dret_interval=1)
        random_protocol_walk(sim, random.Random(seed), steps=120)
        awards += sum(rec.kind == "DretAwarded" for rec in sim.ledger.log)
    assert awards >= 1


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_failed_operations_leave_state_byte_identical(seed):
    sim = make_sim(seed=seed)
    rng = random.Random(seed)
    random_protocol_walk(sim, rng, steps=10)
    consumer = sim.register("late-cons", {ROLE_CONSUMER})
    service = sorted(sim.market.services)[0]

    doomed = [
        lambda: sim.submit_review(consumer, "PUR-99999", 5, text_digest("x")),
        lambda: sim.buy_service(consumer, "SVC-9999"),
        lambda: sim.register("late-cons", {ROLE_CONSUMER}),
        lambda: sim.endorse_review(consumer, "REV-99999", "Up"),
        lambda: sim.file_refund_claim(consumer, "PUR-99999"),
        lambda: sim.modify_service(consumer, service, ether(1)),
        lambda: sim.replenish_fund(consumer, service, ether(1)),
        lambda: sim.add_service(consumer, ether(1)),
    ]
    before = sim.fingerprint()
    for op in doomed:
        try:
            op()
        except DdrmError:
            pass
        else:
            raise AssertionError("operation expected to fail succeeded")
        assert sim.fingerprint() == before


def every_book_sim():
    """A short false-refund run: every book holds records and the service's roster is not empty."""
    scenario = AttackScenario(name="books", kind="false_refund", seed=7, rounds=3, attacker_count=2, honest_count=6)
    sim = run_scenario(scenario).sim
    assert all(book_of(sim) for _, _, book_of in BOOKS.values()) and any(sim.reviews.rosters.values())
    return sim


def changed(value):
    """A value of the same kind as `value` that differs from it."""
    if value is None:
        return "changed"
    if isinstance(value, set):
        return value | {"changed"}
    if isinstance(value, (tuple, list)):
        return type(value)([*value, "changed"])
    if isinstance(value, dict):
        return {**value, "changed": "changed"}
    return value + (1 if isinstance(value, int) else "-changed")


@pytest.mark.parametrize("book", BOOKS)
def test_every_record_field_is_in_the_fingerprint(book):
    sim = every_book_sim()
    record = next(iter(BOOKS[book][2](sim).values()))
    for f in fields(record):
        before, value = sim.fingerprint(), getattr(record, f.name)
        setattr(record, f.name, changed(value))
        assert sim.fingerprint() != before, f"{book}.{f.name} is not in the snapshot"
        setattr(record, f.name, value)


def test_a_saved_snapshot_does_not_follow_the_simulation():
    sim = every_book_sim()
    snapshot = sim.snapshot()
    saved = copy.deepcopy(snapshot)
    service, roster = next((sid, m) for sid, m in sim.reviews.rosters.items() if m)
    endorser = min(roster)
    sim.bind_address(endorser)
    sim.exclude(endorser)
    sim.exclude(sim.market.services[service].provider)
    for _ in range(max(sim.config.srat_lifetime, sim.config.srdt_lifetime)):
        sim.advance_tick()
    assert snapshot == saved
    assert sim.snapshot() != saved


def test_refused_operations_consume_no_id():
    sim = make_sim()
    provider = sim.register("prov", {ROLE_PROVIDER})
    service = sim.add_service(provider, ether(1))
    with pytest.raises(DuplicateCard):
        sim.register("prov", {ROLE_CONSUMER})
    consumer = sim.register("cons", {ROLE_CONSUMER})
    assert consumer == "P0002"
    sim.modify_service(provider, service, sim.ledger.balance(consumer) + 1)
    with pytest.raises(InsufficientFunds):
        sim.buy_service(consumer, service)
    sim.modify_service(provider, service, ether(1))
    assert sim.buy_service(consumer, service) == "PUR-00001"
    assert sim.market.purchases["PUR-00001"].consumer == consumer
    assert list(sim.tokens.srats) == ["SRAT-00001"]


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_tokens_never_leave_terminal_states(seed):
    sim = make_sim(seed=seed, srat_lifetime=3, srdt_lifetime=4)
    rng = random.Random(seed)
    random_protocol_walk(sim, rng, steps=30)
    terminal_seen = {}
    for _ in range(5):
        for book in (sim.tokens.srats, sim.tokens.srdts):
            for tid, token in book.items():
                if token.state != ACTIVE:
                    if tid in terminal_seen:
                        assert terminal_seen[tid] == token.state
                    terminal_seen[tid] = token.state
        sim.advance_tick()
    # SRAT supply identity: every token is in exactly one lifecycle state.
    counts = Counter(token.state for token in sim.tokens.srats.values())
    assert set(counts) <= {ACTIVE, BURNED, EXPIRED, VOIDED}
    assert sum(counts.values()) == len(sim.tokens.srats) == len(sim.market.purchases)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_identical_walks_produce_identical_logs(seed):
    def walk():
        sim = make_sim(seed=seed)
        random_protocol_walk(sim, random.Random(seed), steps=20)
        return sim.ledger.final_hash()

    assert walk() == walk()


@given(
    cost_ether=st.integers(min_value=1, max_value=400),
    buys=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_purchase_deltas_exact_for_arbitrary_prices(cost_ether, buys):
    # Prices in milliEther keep each consumer within its genesis balance.
    sim = make_sim()
    provider = sim.register("prov", {ROLE_PROVIDER})
    cost = cost_ether * ether(1) // 1000
    service = sim.add_service(provider, cost)
    gas = sim.ledger.gas.charge("request_service")
    for i in range(buys):
        consumer = sim.register(f"cons-{i}", {ROLE_CONSUMER})
        provider_before = sim.ledger.balance(provider)
        consumer_before = sim.ledger.balance(consumer)
        sink_before = sim.ledger.balance(GAS_SINK)
        sim.buy_service(consumer, service)
        assert sim.ledger.balance(consumer) == consumer_before - cost - gas
        assert sim.ledger.balance(provider) == provider_before + cost
        assert sim.ledger.balance(GAS_SINK) == sink_before + gas
