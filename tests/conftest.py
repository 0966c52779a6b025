"""Shared fixtures and builders for the protocol test suite."""

import importlib.util
import io
from dataclasses import replace
from pathlib import Path

import pytest

from ddrm import AttackScenario, ProtocolConfig, Simulation, ether, text_digest
from ddrm.identity import ROLE_CONSUMER, ROLE_PROVIDER
from ddrm.ledger import EVENTS, ZERO_DIGEST, _misfit, canonical_payload, iter_log_lines, record_hash


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


def forged_log(log: bytes, edit, encode=canonical_payload) -> bytes:
    """An exported log with edit(record) applied to every record, then re-hashed so the chain holds.

    edit may change the dict `rec.payload` returns (a read record's own decode); encode
    (canonical JSON unless given) turns the edited dict into the bytes the record holds.
    """
    prev, lines = ZERO_DIGEST, []
    # Read the whole log first: the reader links each record through its hash after yielding it.
    for rec in list(iter_log_lines(log)):
        edit(rec)
        rec.payload_json = encode(rec.payload)
        rec.prev_hash = prev
        rec.hash = prev = record_hash(rec.seq, rec.tick, rec.kind, rec.payload_json, prev)
        lines.append(rec.to_json_line().encode() + b"\n")
    return b"".join(lines)


def canonical_scenarios() -> list:
    """The eight canonical AttackScenarios, the ones demos/attack_analysis.py runs."""
    spec = importlib.util.spec_from_file_location(
        "attack_analysis", Path(__file__).resolve().parents[1] / "demos" / "attack_analysis.py"
    )
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo.SCENARIOS


# The attack kinds that tests/test_fixed_points.py also pins at 192 honest raters.
AT_SCALE_KINDS = ("bad_mouthing", "collusion", "false_refund", "whitewashing")


def at_scale_scenario(kind: str):
    """A 192-honest, 32-attacker run of `kind`: the paths whose per-key lookups only carry work at scale."""
    return AttackScenario(name=f"{kind}-192", kind=kind, rounds=12, honest_count=192, attacker_count=32, seed=2024)


def assert_payloads_fit_events(ledger) -> set:
    """Check every payload the writers appended to a live log against its ledger.EVENTS row; the kinds seen.

    The writers check nothing as they append, so this is what ties EVENTS to them.
    """
    for rec in ledger.log:
        row, payload = EVENTS.get(rec.kind), rec.payload
        assert row is not None, f"seq {rec.seq}: kind {rec.kind!r} has no EVENTS row"
        assert _misfit(row, payload) is None, f"seq {rec.seq}, kind {rec.kind}: field {_misfit(row, payload)!r}"
    return {rec.kind for rec in ledger.log}


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
