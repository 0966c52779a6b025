"""Config documents: one field table per document drives its parser, its allowed keys and its exact writer."""

import dataclasses
import json
import math
import re
import types
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from ddrm import AttackScenario, GasSchedule, ProtocolConfig, default_config_doc, ether, parse_run_config
from ddrm.adversary import parse_scenario
from ddrm.config import (
    BOOL,
    ETHER,
    GAS,
    GAS_PRICE,
    GAS_ROW_FIELDS,
    INT,
    MAX_COUNT,
    MAX_ROUNDS,
    NUMBER,
    PROTOCOL_FIELDS,
    RATE,
    RATE_DIGITS,
    SCENARIO_FIELDS,
    GasRow,
    check_bounds,
    parse_protocol_config,
    protocol_doc,
)
from ddrm.errors import ConfigError
from ddrm.ledger import GAS_OPS

ROOT = Path(__file__).resolve().parents[1]
TABLES = {"protocol": (ProtocolConfig, PROTOCOL_FIELDS), "scenario": (AttackScenario, SCENARIO_FIELDS)}
# Every table with a bounded row, by the prefix check_bounds names its keys with.
BOUNDED = {
    "protocol.": PROTOCOL_FIELDS,
    "scenario s: ": SCENARIO_FIELDS,
    "gas.": (GAS_PRICE,),
    "gas.add_service.": GAS_ROW_FIELDS,
}
BOUNDS = [
    (prefix, row, side)
    for prefix, rows in BOUNDED.items()
    for row in rows
    for side in ("minimum", "maximum")
    if getattr(row, side) is not None
]


def parse(document, table):
    if table == "protocol":
        return parse_protocol_config(document)
    return parse_scenario({"kind": "sybil", "name": "s", **document})


@pytest.mark.parametrize("table", TABLES)
def test_every_field_has_exactly_one_row(table):
    record, rows = TABLES[table]
    assert sorted(row.attr for row in rows) == sorted(f.name for f in dataclasses.fields(record))
    assert len({row.key for row in rows}) == len(rows)


@pytest.mark.parametrize("table", TABLES)
def test_allowed_keys_are_the_table_keys(table):
    _, rows = TABLES[table]
    for row in rows:
        # A list is no valid value for any key: the refusal names the key, not an unknown key.
        with pytest.raises(ConfigError) as refused:
            parse({row.key: []}, table)
        assert row.key in str(refused.value) and "unknown key" not in str(refused.value)
    # Record field names and retired keys are no document keys.
    for key in ("bogus", "check_conservation", "overrides", "service_cost_wei", "genesis_balance"):
        with pytest.raises(ConfigError, match=f"unknown key\\(s\\) in {table}.*: {key}$"):
            parse({key: 1}, table)


def test_default_config_doc_lists_every_protocol_key():
    assert set(default_config_doc()["protocol"]) == {row.key for row in PROTOCOL_FIELDS}


def test_a_config_unlike_the_defaults_in_every_field_round_trips():
    cfg = ProtocolConfig(
        gas=GasSchedule(
            price_wei=2_123_456_789,
            rows={op: GasRow(gas_limit=1000 + i, gas_used=900 + i) for i, op in enumerate(GAS_OPS)},
        ),
        genesis_balance=ether("1.5"),
        faucet_balance=ether("12345.000000000000000001"),
        srat_lifetime=7,
        srdt_lifetime=8,
        srdt_discount=Fraction(12345678901234567890123, 10**23),
        endorsement_quorum=9,
        penalty_threshold=10,
        bootstrap_count=11,
        panel_size=12,
        claim_window=13,
        voting_window=14,
        dret_interval=15,
        literal_alg2_ties=True,
        refund_fund_on_withdraw=True,
    )
    defaults = ProtocolConfig()
    assert all(getattr(cfg, row.attr) != getattr(defaults, row.attr) for row in PROTOCOL_FIELDS)
    assert parse_protocol_config(json.loads(json.dumps(protocol_doc(cfg)))) == cfg


@pytest.mark.parametrize(
    "document, key, written",
    [
        ({"genesis_balance_ether": "1.5"}, "genesis_balance_ether", 1.5),
        ({"genesis_balance_ether": "15e-1"}, "genesis_balance_ether", 1.5),
        ({"genesis_balance_ether": 10.0}, "genesis_balance_ether", 10),
        ({"faucet_balance_ether": "1000000.000000000000000001"}, "faucet_balance_ether",
         "1000000.000000000000000001"),
        ({"genesis_balance_ether": "0.000000000000000001"}, "genesis_balance_ether", 1e-18),
        ({"srdt_discount_rate": "0.12345678901234567890123"}, "srdt_discount_rate", "0.12345678901234567890123"),
        ({"srdt_discount_rate": "0.2"}, "srdt_discount_rate", 0.2),
        ({"srdt_discount_rate": "1e-36"}, "srdt_discount_rate", 1e-36),
        ({"srdt_discount_rate": "1.0"}, "srdt_discount_rate", 1),
    ],
    ids=["ether-1.5", "ether-exponent", "ether-whole-float", "ether-past-a-float", "one-wei",
         "rate-23-digits", "rate-0.2", "rate-36-digits", "rate-one"],
)
def test_each_value_is_written_as_a_number_only_where_it_reads_back_exactly(document, key, written):
    doc = protocol_doc(parse_protocol_config(document))
    assert doc[key] == written and type(doc[key]) is type(written)
    assert parse_protocol_config(json.loads(json.dumps(doc))) == parse_protocol_config(document)


@pytest.mark.parametrize("price, written", [("2.123456789", 2.123456789), ("2.9", 2.9), ("3", 3)])
def test_gas_price_is_written_exactly(price, written):
    doc = protocol_doc(parse_protocol_config({"gas": {"gas_price_gwei": price}}))
    assert doc["gas"]["gas_price_gwei"] == written and type(doc["gas"]["gas_price_gwei"]) is type(written)


@pytest.mark.parametrize(
    "cfg", [ProtocolConfig(srdt_discount=Fraction(1, 3)), ProtocolConfig(srdt_discount=Fraction(1, 2**200))],
    ids=["one-third", "past-the-digit-limit"],
)
def test_a_value_with_no_exact_form_raises(cfg):
    with pytest.raises(ConfigError, match="no exact document form"):
        protocol_doc(cfg)


def _amounts(places: int, most: int):
    """Amounts of 10**places Wei as JSON ints, floats and decimal strings in several spellings."""
    exact = st.builds(
        lambda units, shift: Decimal(f"{units}e-{shift}"), st.integers(1, most * 10**places), st.integers(0, places)
    )
    spelled = st.builds(lambda d, spell: spell(d), exact, st.sampled_from([str, "{:f}".format, "{:e}".format]))
    return st.one_of(st.integers(1, most), exact.map(float), spelled)


_RATES = st.one_of(
    st.integers(0, 1),
    st.floats(0, 1),
    st.builds(
        lambda units, digits, spell: spell(Decimal(f"{units % (10**digits + 1)}e-{digits}")),
        st.integers(0), st.integers(0, 36), st.sampled_from([str, "{:f}".format, "{:e}".format]),
    ),
)
_GAS_ROW = st.fixed_dictionaries({}, optional={"gas_limit": st.integers(1, 10**7), "gas_used": st.integers(1, 10**5)})
_GAS = st.fixed_dictionaries({}, optional={"gas_price_gwei": _amounts(9, 1000), **{op: _GAS_ROW for op in GAS_OPS}})
_BY_CODEC = {INT: st.integers(1, 2**70), BOOL: st.booleans(), ETHER: _amounts(18, 10**6), RATE: _RATES, GAS: _GAS}
PROTOCOL_DOCS = st.fixed_dictionaries({}, optional={row.key: _BY_CODEC[row.codec] for row in PROTOCOL_FIELDS})


@given(doc=PROTOCOL_DOCS)
@example(doc={"genesis_balance_ether": "1.5"})
@example(doc={"srdt_discount_rate": "0.12345678901234567890123"})
@example(doc={"gas": {"gas_price_gwei": "2.123456789"}})
@settings(max_examples=300, deadline=None)
def test_protocol_doc_round_trips_every_accepted_document(doc):
    try:
        cfg = parse_protocol_config(doc)
    except ConfigError:
        reject()
    assert parse_protocol_config(json.loads(json.dumps(protocol_doc(cfg)))) == cfg


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"protocol": 5}, "protocol must be an object"),
        ({"protocol": ["gas"]}, "protocol must be an object"),
        ({"scenarios": [{"kind": "sybil", "honest_vote_probability": 10**400}]},
         "scenario sybil-0: honest_vote_probability must be at least 0 and at most 1"),
        ({"scenarios": [{"kind": "sybil", "name": "first"}, {"kind": "sybil", "name": "second", "rounds": 0}]},
         "scenario second: rounds must be at least 1 and at most 500"),
        ({"scenarios": [{"kind": "sybil", "rounds": MAX_ROUNDS + 1, "honest_count": 0}]},
         "scenario sybil-0: rounds must be at least 1 and at most 500"),
        ({"scenarios": [{"kind": "sybil", "name": ""}]}, "scenario #0: name must not be empty"),
        ({"scenarios": [{"kind": "sybil", "honest_count": MAX_COUNT + 1}]},
         "scenario sybil-0: honest_count must be at least 0 and at most 10000"),
        ({"scenarios": [{"kind": "sybil", "attacker_count": 101, "fake_identities_per_attacker": 100}]},
         "scenario sybil-0: attacker_count * fake_identities_per_attacker must be at most 10000"),
        ({"scenarios": [{"kind": "sybil", "rounds": MAX_ROUNDS, "honest_count": 29, "attacker_count": 2}]},
         "scenario sybil-0: rounds * (honest_count + attacker_count) must be at most 15000"),
        ({"scenarios": [{"kind": "sybil", "service_cost_ether": "0"}]},
         "scenario sybil-0: service_cost_ether must be at least 1e-18"),
        ({"scenarios": [{"kind": "sybil", "honest_vote_probability": math.nextafter(1, 2)}]},
         "scenario sybil-0: honest_vote_probability must be at least 0 and at most 1"),
        ({"protocol": {"genesis_balance_ether": "0"}}, "protocol.genesis_balance_ether must be at least 1e-18"),
        ({"protocol": {"srdt_discount_rate": "1.000000000000000000000000000000000001"}},
         "protocol.srdt_discount_rate must be at least 0 and at most 1"),
        ({"scenarios": [{"kind": "sybil", "protocol": {"srat_lifetime": 0}}]},
         "scenario sybil-0: protocol.srat_lifetime must be at least 1"),
        ({"scenarios": [{"kind": "sybil", "protocol": 5}]}, "scenario sybil-0: protocol must be an object"),
        ({"protocol": {"gas": {"add_service": 5}}}, "gas.add_service must be an object"),
        ({"protocol": {"gas": {"add_service": {"x": 1}}}}, "unknown key(s) in gas.add_service: x"),
        ({"protocol": {"gas": {"add_service": {"gas_limit": "1"}}}}, "gas.add_service.gas_limit must be an integer"),
        ({"scenarios": [{"kind": ["sybil"]}]}, "kind must be a string"),
        ({"scenarios": [{"kind": "k" * 100}]}, "unknown scenario kind 'kkk"),
    ],
    ids=["protocol-int", "protocol-list", "probability-past-a-float", "second-scenario-rounds", "rounds-past-max",
         "empty-name", "count-past-max", "sybil-attempts-past-max", "participant-rounds-past-max", "ether-zero",
         "probability-next-float", "genesis-zero", "rate-past-one",
         "override-lifetime-zero", "overrides-int", "gas-row-int", "gas-row-unknown-key", "gas-limit-string",
         "kind-list", "long-kind"],
)
def test_mistyped_value_is_a_config_error(doc, message):
    with pytest.raises(ConfigError) as refused:
        parse_run_config(doc)
    assert message in str(refused.value)


def _stepped(row, bound, steps: int):
    """`bound` moved by `steps` of its row's least units, up if positive: a float, 10**-36 of a rate, else 1."""
    if row.codec is NUMBER:
        for _ in range(abs(steps)):
            bound = math.nextafter(bound, math.copysign(math.inf, steps))
        return bound
    return bound + steps * (Fraction(1, 10**RATE_DIGITS) if row.codec is RATE else 1)


@pytest.mark.parametrize("prefix, row, side", BOUNDS, ids=[f"{row.key}-{side}" for _, row, side in BOUNDS])
@given(steps=st.integers(-3, 3))
@example(steps=0)
@example(steps=-1)
@example(steps=1)
@settings(max_examples=10, deadline=None)
def test_a_bounded_value_is_accepted_exactly_within_its_bounds(prefix, row, side, steps):
    value = _stepped(row, getattr(row, side), steps)
    entry = {row.key: row.codec.write(value)}
    doc = {
        # The least faucet is taken only beside a genesis credit no larger.
        "protocol.": {"protocol": {"genesis_balance_ether": ETHER.write(1), **entry}},
        # Partner counts as small as their rows allow, so each count's maximum fits the bounds on products.
        "scenario s: ": {"scenarios": [{"kind": "sybil", "name": "s", "rounds": 1, "honest_count": 0, **entry}]},
        "gas.": {"protocol": {"gas": entry}},
        # The partner unit keeps gas_used <= gas_limit for every value drawn, a few units from the bound 1.
        "gas.add_service.": {"protocol": {"gas": {"add_service": {"gas_limit": 10**6, "gas_used": 1, **entry}}}},
    }[prefix]
    doc = json.loads(json.dumps(doc))
    if (row.minimum is None or row.minimum <= value) and (row.maximum is None or value <= row.maximum):
        parse_run_config(doc)
    else:
        with pytest.raises(ConfigError, match=f"^{re.escape(prefix + row.key)} must be "):
            parse_run_config(doc)


def _bound_words(row) -> str:
    """The words in which check_bounds states the row's bounds, taken from its refusal of NaN."""
    with pytest.raises(ConfigError) as refused:
        check_bounds(types.SimpleNamespace(**{row.attr: math.nan}), (row,), "")
    return str(refused.value).removeprefix(f"{row.key} must be ")


def test_readme_names_every_key_of_both_tables():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Config keys"):].split("\n## ")[0]
    checks = dict(re.findall(r"^\| `(\w+)` \|.*\| ([^|]*) \|$", section, re.MULTILINE))
    assert set(checks) == {row.key for row in PROTOCOL_FIELDS + SCENARIO_FIELDS}
    for row in PROTOCOL_FIELDS + SCENARIO_FIELDS:
        if (row.minimum, row.maximum) != (None, None):
            assert _bound_words(row) in checks[row.key], row.key
    for row in (GAS_PRICE, *GAS_ROW_FIELDS):  # the gas object's rows, all stated in its one check cell
        assert f"`{row.key}` {_bound_words(row)}" in checks["gas"], row.key
