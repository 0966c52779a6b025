"""Config documents: one field table per document drives its parser, its allowed keys and its exact writer."""

import dataclasses
import json
import re
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
    INT,
    PROTOCOL_FIELDS,
    RATE,
    SCENARIO_FIELDS,
    parse_protocol_config,
    protocol_doc,
)
from ddrm.errors import ConfigError
from ddrm.ledger import GAS_OPS, GasRow

ROOT = Path(__file__).resolve().parents[1]
TABLES = {"protocol": (ProtocolConfig, PROTOCOL_FIELDS), "scenario": (AttackScenario, SCENARIO_FIELDS)}


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
         "honest_vote_probability must lie in [0, 1]"),
        ({"scenarios": [{"kind": "sybil", "protocol": 5}]}, "scenario sybil-0: protocol must be an object"),
        ({"scenarios": [{"kind": ["sybil"]}]}, "kind must be a string"),
    ],
    ids=["protocol-int", "protocol-list", "probability-past-a-float", "overrides-int", "kind-list"],
)
def test_mistyped_value_is_a_config_error(doc, message):
    with pytest.raises(ConfigError) as refused:
        parse_run_config(doc)
    assert message in str(refused.value)


def test_readme_names_every_key_of_both_tables():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Config keys"):].split("\n## ")[0]
    rows = set(re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE))
    assert rows == {row.key for row in PROTOCOL_FIELDS + SCENARIO_FIELDS}
