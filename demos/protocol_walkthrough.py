#!/usr/bin/env python3
"""End-to-end walkthrough of the reputation protocol on one simulation.

Covers: registration with the one-card rule, listing a service (review fund
seeding), purchasing (SRAT mint), reviewing (fund subsidy, SRAT burn),
endorser bootstrap, endorsement voting, selection badging, a reputation
token award, and a refund adjudicated by an endorser panel. It ends by
reading the exported log back through the one log reader, which checks
every link of the hash chain.
"""

import io

from ddrm import Simulation, ether, format_ether, text_digest
from ddrm.errors import DuplicateCard
from ddrm.ledger import iter_log_lines


def eth(wei):
    return f"{format_ether(wei)} ETH"


def main():
    sim = Simulation(seed=2024)
    genesis_total = sim.conservation_total()

    print("=== Registration ===")
    operator = sim.register("card:drone-operator", {"ServiceProvider"})
    authority = sim.register("card:fire-authority", {"Consumer"})
    scouts = [sim.register(f"card:scout-{i}", {"Consumer"}) for i in range(5)]
    print(f"operator {operator} starts with {eth(sim.ledger.balance(operator))}")
    try:
        sim.register("card:drone-operator", {"Consumer"})
    except DuplicateCard:
        print("second registration on the operator's card: rejected (whitewashing defense)")

    print("\n=== Listing a thermal-survey service ===")
    service = sim.add_service(operator, ether("0.5"))
    listing = sim.market.get_service(service)
    print(f"{service} listed at {eth(listing.s_cost)}")
    print(f"review fund seeded with {eth(sim.ledger.balance(service))} (100 subsidized reviews)")
    print(f"operator balance now {eth(sim.ledger.balance(operator))} (gas + 1 ETH fund)")

    print("\n=== Purchases mint review-authorization tokens ===")
    purchases = {}
    for scout in scouts:
        purchases[scout] = sim.buy_service(scout, service)
    purchase = sim.buy_service(authority, service)
    token = sim.tokens.srat_for_purchase(purchase)
    print(f"{len(purchases) + 1} purchases, {len(sim.tokens.srats)} SRATs minted")
    print(f"authority's token {token.token_id} expires at tick {token.expiry_tick}")

    print("\n=== Reviews: the fund pays the gas, the token burns ===")
    sim.advance_tick()
    for scout in scouts:
        sim.submit_review(scout, purchases[scout], 5, text_digest(f"{scout}: sharp imagery"))
    balance_before = sim.ledger.balance(authority)
    review = sim.submit_review(authority, purchase, 4, text_digest("good coverage, minor lag"))
    print(f"authority balance unchanged by reviewing: {sim.ledger.balance(authority) == balance_before}")
    print(f"fund after 6 reviews: {eth(sim.ledger.balance(service))}")
    print(f"token state after use: {token.state}")

    print("\n=== Bootstrap endorsers from the earliest reviewers ===")
    sim.advance_tick()
    roster = sim.bootstrap_endorsers(service)
    print(f"roster drawn by beacon: {roster}")

    print("\n=== Endorsement votes and badge assignment ===")
    votes = 0
    for endorser in roster:
        if endorser != authority and votes < 3:
            sim.endorse_review(endorser, review, "Up")
            votes += 1
    report = sim.run_endorser_selection(service)
    badge = sim.reviews.reviews[review].badge
    print(f"review {review}: {votes} up-votes -> badge {badge}")
    print(f"new roster (this round's authentic reviewers): {report['roster']}")

    print("\n=== Reputation accrues per five authentic badges ===")
    print(f"operator DRET count: {sim.tokens.dret.get(operator, 0)}")

    print("\n=== Refund claim judged by an endorser panel ===")
    claimant = scouts[0]
    second_purchase = sim.buy_service(claimant, service)
    claim = sim.file_refund_claim(claimant, second_purchase)
    panel = sim.reviews.claims[claim].panel
    print(f"claim {claim}, panel {list(panel)}")
    for i, member in enumerate(panel):
        sim.vote_refund(member, claim, "Approve" if i < (len(panel) // 2 + 1) else "Reject")
    outcome = sim.reviews.claims[claim].outcome
    print(f"outcome: {outcome}; price returned to {claimant}")

    print("\n=== Ledger integrity ===")
    exported = io.BytesIO()
    sim.ledger.write_log(exported)
    records = list(iter_log_lines(exported.getvalue()))  # raises ChainBroken at the first bad record
    print(f"event log: {len(records)} records, {len(exported.getvalue())} bytes, chain verified")
    print(f"conservation holds: {sim.conservation_total() == genesis_total}")


if __name__ == "__main__":
    main()
