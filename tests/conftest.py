"""Shared fixtures and builders for the protocol test suite."""

import io
from dataclasses import replace

import pytest

from ddrm import ProtocolConfig, Simulation, ether, text_digest
from ddrm.identity import ROLE_CONSUMER, ROLE_PROVIDER
from ddrm.ledger import ZERO_DIGEST, canonical_payload, iter_log_lines, record_hash


def make_sim(seed: int = 42, **overrides) -> Simulation:
    config = replace(ProtocolConfig(), **overrides) if overrides else ProtocolConfig()
    return Simulation(config, seed)


def provider_and_service(sim: Simulation, s_cost=None, card: str = "prov-card"):
    provider = sim.register(card, {ROLE_PROVIDER})
    service = sim.add_service(provider, s_cost if s_cost is not None else ether("0.5"))
    return provider, service


def consumer_with_purchase(sim: Simulation, service: str, card: str = "cons-card"):
    consumer = sim.register(card, {ROLE_CONSUMER})
    purchase = sim.buy_service(consumer, service)
    return consumer, purchase


def reviewed_purchase(sim: Simulation, service: str, card: str, rating: int = 5):
    consumer, purchase = consumer_with_purchase(sim, service, card)
    review = sim.submit_review(consumer, purchase, rating, text_digest(f"{card} says"))
    return consumer, purchase, review


def exported_log(ledger) -> bytes:
    """The ledger's log exactly as Ledger.write_log exports it."""
    f = io.BytesIO()
    ledger.write_log(f)
    return f.getvalue()


def forged_log(log: bytes, edit) -> bytes:
    """An exported log with edit(record) applied to every record, then re-hashed so the chain holds."""
    prev, lines = ZERO_DIGEST, []
    # Read the whole log first: the reader links each record through its hash after yielding it.
    for rec in list(iter_log_lines(log)):
        edit(rec)
        rec.prev_hash = prev
        rec.hash = prev = record_hash(rec.seq, rec.tick, rec.kind, canonical_payload(rec.payload), prev)
        lines.append(rec.to_json_line().encode() + b"\n")
    return b"".join(lines)


@pytest.fixture
def sim():
    return make_sim()


@pytest.fixture
def market_sim():
    """Simulation with one listed service and one funded consumer."""
    s = make_sim()
    provider, service = provider_and_service(s)
    consumer = s.register("cons-card", {ROLE_CONSUMER})
    return s, provider, service, consumer
