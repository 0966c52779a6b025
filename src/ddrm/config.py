"""Protocol parameters and strict JSON run-configuration parsing.

Defaults reproduce the published gas table and fill in every parameter the
protocol description leaves open (token lifetimes, quorum, thresholds,
windows). The run config is a single JSON document; unknown keys are
rejected so typos fail loudly instead of silently using defaults.

Each config document has one field table, a row per key naming the
record field, its Codec and its inclusive bounds; it drives the parser, the
allowed keys, the range checks and an exact writer. The gas schedule
(GasSchedule) lives here too: its price and its per-operation units are
table rows, so check_bounds is the one range check of every config value.
"""

from __future__ import annotations

import collections
import json
import math
import os
from dataclasses import dataclass, field, replace
from decimal import Context, Decimal
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import ConfigError, ValidationError
from .ledger import GAS_OPS, WEI_PER_ETHER, WEI_PER_GWEI, ether, json_number, quoted

# Fixed by the protocol's funding equations: every listing seeds its review
# fund with 1 Ether, which underwrites one hundred review submissions.
REVIEW_FUND_SEED = WEI_PER_ETHER
REVIEWS_PER_ETHER = 100
REVIEW_SUBSIDY = WEI_PER_ETHER // REVIEWS_PER_ETHER

# srdt_discount_rate is refused past this many fractional digits (or this
# decimal exponent), before it becomes a Fraction.
RATE_DIGITS = 36

# usd_per_ether is refused past this many integer digits: the gas table
# prints every digit of its USD products, and past the decimal context's
# exponent range they cannot be computed at all.
USD_DIGITS = 36

# A scenario name is refused past this many bytes of UTF-8: it names the scenario's files.
NAME_BYTES = 60

# fake_identities_per_attacker and honest_count are refused past this, and so is attacker_count *
# fake_identities_per_attacker, which bounds attacker_count too: the harness loops once per participant and
# Sybil attempt.
MAX_COUNT = 10_000

# rounds, and rounds * (honest_count + attacker_count), are refused past these. Registration grows with the
# square of the participants, and each round every attacker walks every purchase it has made, so a run grows
# with rounds * rounds * attackers too. Timed by `ddrm run` on one core (CPython 3.11), collusion, the slowest
# kind, at 1e-18 Ether a service: 15,000 participants in one round ran in 23 s (20,000 in 39 s); 30
# attackers for 500 rounds in 22.5 s (15 attackers for 1,000 rounds in 37 s).
MAX_ROUNDS = 500
MAX_PARTICIPANT_ROUNDS = 15_000


@dataclass(frozen=True)
class GasRow:
    gas_limit: int
    gas_used: int


@dataclass(frozen=True)
class GasSchedule:
    """Per-operation gas units plus the Wei price per gas unit.

    Charges are gas_used * price_wei; gas_limit is retained as a cap and
    a schedule where gas_used exceeds gas_limit is rejected as misconfigured.
    """

    price_wei: int = 2_900_000_000  # 2.9 Gwei
    # The published table: one (gas_limit, gas_used) row per operation, in GAS_OPS order.
    rows: dict[str, GasRow] = field(default_factory=lambda: dict(zip(GAS_OPS, (
        GasRow(272456, 182304), GasRow(99872, 63789), GasRow(106754, 86532),
    ))))

    def validate(self) -> None:
        check_bounds(self, (GAS_PRICE,), "gas.")
        for op in GAS_OPS:
            if op not in self.rows:
                raise ConfigError(f"gas.{op} is missing")
        for op, row in self.rows.items():
            check_bounds(row, GAS_ROW_FIELDS, f"gas.{op}.")
            if row.gas_used > row.gas_limit:
                raise ConfigError(f"gas.{op}.gas_used must be at most its gas_limit")

    def charge(self, op: str) -> int:
        if op not in self.rows:
            raise ConfigError(f"no gas schedule entry for operation {op!r}")
        return self.rows[op].gas_used * self.price_wei


@dataclass(frozen=True)
class ProtocolConfig:
    """Every tunable protocol parameter, with desk-scale defaults."""

    gas: GasSchedule = field(default_factory=GasSchedule)
    genesis_balance: int = ether(10)                 # faucet credit per registration
    faucet_balance: int = ether(10**6)               # minted once at genesis
    srat_lifetime: int = 100                        # ticks until a review token expires
    srdt_lifetime: int = 200                        # ticks until a discount token expires
    srdt_discount: Fraction = Fraction(1, 5)        # price reduction for token purchases
    endorsement_quorum: int = 3                     # votes before a review is badge-eligible
    penalty_threshold: int = 3                      # exclusion fires when count exceeds this
    bootstrap_count: int = 5                        # endorsers drawn from earliest reviewers
    panel_size: int = 5                             # refund jury size
    claim_window: int = 50                          # ticks after purchase to file a claim
    voting_window: int = 20                         # ticks after filing to settle
    dret_interval: int = 5                          # authentic badges per reputation token
    literal_alg2_ties: bool = False                 # brand tied votes Fraudulent
    refund_fund_on_withdraw: bool = False           # return frozen fund to provider

    def validate(self) -> None:
        self.gas.validate()
        check_bounds(self, PROTOCOL_FIELDS, "protocol.")
        if self.faucet_balance < self.genesis_balance:
            raise ConfigError("faucet cannot cover a single registration")


@dataclass(frozen=True)
class RunConfig:
    """Top-level CLI configuration: one protocol config plus scenarios."""

    seed: int = 42
    usd_per_ether: Decimal = Decimal("1586.0")
    output_dir: str = "out"
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    scenarios: tuple = ()


class Codec(NamedTuple):
    """How one document value becomes one record value, and back."""

    read: Callable    # (document value, where) -> record value; a refusal is a ConfigError naming `where`
    forms: Callable   # record value -> the document values the writer may give, preferred first

    def write(self, value):
        """The first form that json.dumps, json.loads and read take back to `value`, else ConfigError."""
        for form in self.forms(value):
            try:
                if self.read(json.loads(json.dumps(form)), "") == value:
                    return form
            except ConfigError:
                pass
        raise ConfigError(f"{quoted(value)} has no exact document form")


# Document key, record field, codec, and the inclusive bounds on the record value (None: no limit).
Field = collections.namedtuple("Field", "key attr codec minimum maximum", defaults=(None, None))


def _require_keys(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def read_fields(doc: dict, table: tuple[Field, ...], where: str, prefix: str) -> dict:
    """{record field: value} for each key of `doc` by its row's codec; a refusal names `doc` as `where`
    (an unknown key) or a value as prefix + key."""
    _require_keys(doc, {row.key for row in table}, where)
    return {row.attr: row.codec.read(doc[row.key], prefix + row.key) for row in table if row.key in doc}


def check_bounds(record, table: tuple[Field, ...], prefix: str) -> None:
    """Refuse the first value of `record` outside its row's bounds, naming prefix + key and the bounds."""
    for row in (row for row in table if (row.minimum, row.maximum) != (None, None)):
        low = -math.inf if row.minimum is None else row.minimum
        high = math.inf if row.maximum is None else row.maximum
        value = getattr(record, row.attr)
        if not low <= value <= high:  # not `value < low or value > high`: NaN compares False with both
            bounds = (("at least", row.minimum), ("at most", row.maximum))
            words = " and ".join(f"{word} {row.codec.write(bound)}" for word, bound in bounds if bound is not None)
            raise ConfigError(f"{prefix}{row.key} must be {words}")


def _itself(value) -> tuple:
    return (value,)


def _typed(kind: type, noun: str) -> Codec:
    """A codec of the JSON values of one type (a bool is no integer), refusing others as not `noun`."""

    def read(value, where: str):
        if not isinstance(value, kind) or isinstance(value, bool) is not (kind is bool):
            raise ConfigError(f"{where} must be {noun}")
        return value

    return Codec(read, _itself)


INT = _typed(int, "an integer")
BOOL = _typed(bool, "a boolean")
TEXT = _typed(str, "a string")
OBJECT = _typed(dict, "an object")  # also a scenario's protocol overrides, checked later against the run's
NUMBER = _typed((int, float), "a number")  # kept as given: float() overflows on a long integer


def _as_number(read: Callable, value, where: str, *args):
    """read(value, *args) of a number from outside the program; a ValidationError becomes a ConfigError at `where`."""
    try:
        return read(value, *args)
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _as_rate(value, where: str) -> Fraction:
    rate = _as_number(json_number, value, where)
    # Fraction(rate) takes time and memory that grow with the exponent.
    if abs(rate.as_tuple().exponent) > RATE_DIGITS:
        raise ConfigError(
            f"{where} allows at most {RATE_DIGITS} fractional digits"
            f" and a decimal exponent of at most {RATE_DIGITS}: {quoted(value)}"
        )
    return Fraction(rate)


def _number_forms(text: str) -> tuple:
    """A decimal string's JSON number (an int if whole, else a float), then the string itself."""
    number = Decimal(text)
    return (int(number) if number == number.to_integral_value() else float(number), text)


def _units(unit: int) -> Codec:
    """Whole Wei, read from and written as a decimal number of `unit` Wei (Ether or Gwei)."""
    places = len(str(unit)) - 1

    def forms(wei: int) -> tuple:
        whole, frac = divmod(abs(wei), unit)
        return _number_forms("-" * (wei < 0) + f"{whole}.{frac:0{places}d}".rstrip("0").rstrip("."))

    return Codec(lambda value, where: _as_number(ether, value, where, unit), forms)


def _rate_forms(rate: Fraction) -> tuple:
    # Exact for any rate the reader takes; for another, such as 1/3, no form reads back and write() raises.
    return _number_forms(f"{Context(prec=2 * RATE_DIGITS).divide(rate.numerator, rate.denominator):f}")


def parse_gas_schedule(doc: dict) -> GasSchedule:
    defaults = GasSchedule()
    # Each key but an operation's is read by the price row, which refuses any other key as unknown.
    price = read_fields({key: doc[key] for key in doc if key not in GAS_OPS}, (GAS_PRICE,), "gas", "gas.")
    rows = dict(defaults.rows)
    for op in GAS_OPS:
        row = OBJECT.read(doc.get(op, {}), f"gas.{op}")
        rows[op] = replace(rows[op], **read_fields(row, GAS_ROW_FIELDS, f"gas.{op}", f"gas.{op}."))
    schedule = GasSchedule(rows=rows, **price)
    schedule.validate()
    return schedule


def _gas_forms(gas: GasSchedule) -> tuple:
    rows = {op: {f.key: f.codec.write(getattr(row, f.attr)) for f in GAS_ROW_FIELDS} for op, row in gas.rows.items()}
    return ({GAS_PRICE.key: GAS_PRICE.codec.write(gas.price_wei), **rows},)


ETHER = _units(WEI_PER_ETHER)
GWEI = _units(WEI_PER_GWEI)
RATE = Codec(_as_rate, _rate_forms)
GAS = Codec(lambda value, where: parse_gas_schedule(OBJECT.read(value, where)), _gas_forms)

# The gas document's price, and one row per GasRow field, read from each operation's object in it.
GAS_PRICE = Field("gas_price_gwei", "price_wei", GWEI, 1)
GAS_ROW_FIELDS = (Field("gas_limit", "gas_limit", INT, 1), Field("gas_used", "gas_used", INT, 1))

# One row per ProtocolConfig field; validate checks the bounds in this order.
PROTOCOL_FIELDS = (
    Field("gas", "gas", GAS),
    Field("genesis_balance_ether", "genesis_balance", ETHER, 1),
    Field("faucet_balance_ether", "faucet_balance", ETHER, 1),
    Field("srdt_discount_rate", "srdt_discount", RATE, 0, 1),
    *(Field(key, key, INT, 1) for key in (
        "srat_lifetime", "srdt_lifetime", "endorsement_quorum", "penalty_threshold", "bootstrap_count",
        "panel_size", "claim_window", "voting_window", "dret_interval",
    )),
    *(Field(key, key, BOOL) for key in ("literal_alg2_ties", "refund_fund_on_withdraw")),
)


def _utf8_size(text: str, where: str, encode=str.encode) -> int:
    """The length of text's UTF-8 form, strict or as `encode` makes it; a lone surrogate has none."""
    try:
        return len(encode(text))
    except UnicodeEncodeError:
        raise ConfigError(f"{where} {quoted(text)} has no UTF-8 form") from None


def _as_file_name(value, where: str) -> str:
    name = TEXT.read(value, where)
    if not name:
        raise ConfigError(f"{where} must not be empty")
    if any(part in name for part in ("/", "\\", "..", "\0")):  # it names files in output_dir
        raise ConfigError(f"{where} {quoted(name)} must not contain '/', '\\', '..' or NUL")
    if _utf8_size(name, where) > NAME_BYTES:  # file names add 18 bytes, far below a file system's 255
        raise ConfigError(f"{where} {quoted(name)} is longer than {NAME_BYTES} bytes of UTF-8")
    return name


NAME = Codec(_as_file_name, _itself)

# One row per adversary.AttackScenario field.
SCENARIO_FIELDS = (
    Field("name", "name", NAME),
    Field("kind", "kind", TEXT),
    Field("seed", "seed", INT),
    Field("rounds", "rounds", INT, 1, MAX_ROUNDS),
    Field("attacker_count", "attacker_count", INT, 0),
    Field("fake_identities_per_attacker", "fake_identities_per_attacker", INT, 1, MAX_COUNT),
    Field("honest_count", "honest_count", INT, 0, MAX_COUNT),
    Field("service_cost_ether", "service_cost_wei", ETHER, 1),
    Field("target_own", "target_own", BOOL),
    Field("honest_vote_probability", "honest_vote_probability", NUMBER, 0, 1),
    Field("protocol", "overrides", OBJECT),
)


def parse_protocol_config(doc: dict, base: ProtocolConfig | None = None) -> ProtocolConfig:
    cfg = replace(base or ProtocolConfig(), **read_fields(doc, PROTOCOL_FIELDS, "protocol", "protocol."))
    cfg.validate()
    return cfg


def protocol_doc(cfg: ProtocolConfig) -> dict:
    """`cfg` as a protocol document that parse_protocol_config reads back to it exactly."""
    return {row.key: row.codec.write(getattr(cfg, row.attr)) for row in PROTOCOL_FIELDS}


def parse_run_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    _require_keys(doc, {"seed", "usd_per_ether", "output_dir", "protocol", "scenarios"}, "run config")
    seed = INT.read(doc.get("seed", RunConfig.seed), "seed")
    usd = _as_number(json_number, doc.get("usd_per_ether", RunConfig.usd_per_ether), "usd_per_ether")
    if usd <= 0:
        raise ConfigError("usd_per_ether must be strictly positive")
    if usd.adjusted() >= USD_DIGITS:
        raise ConfigError(f"usd_per_ether allows at most {USD_DIGITS} integer digits: {quoted(doc['usd_per_ether'])}")
    out = doc.get("output_dir", RunConfig.output_dir)
    if not isinstance(out, str) or not out or "\0" in out:
        raise ConfigError("output_dir must be a non-empty string without NUL")
    _utf8_size(out, "output_dir", os.fsencode)  # as open() encodes it, so argv's surrogate-escaped bytes pass
    protocol = parse_protocol_config(OBJECT.read(doc.get("protocol", {}), "protocol"))

    # parse_scenario builds the adversary harness's AttackScenario; imported
    # lazily to keep config importable from the low-level modules.
    from .adversary import parse_scenario

    raw = doc.get("scenarios", [])
    if not isinstance(raw, list):
        raise ConfigError("scenarios must be a list")
    scenarios = tuple(parse_scenario(item, i) for i, item in enumerate(raw))
    names = [s.name for s in scenarios]
    if len(names) != len(set(names)):
        raise ConfigError("scenario names must be unique")
    # Refuse bad overrides now, before any scenario runs and writes artifacts.
    for scenario in scenarios:
        try:
            parse_protocol_config(scenario.overrides, base=protocol)
        except ConfigError as exc:
            raise ConfigError(f"scenario {scenario.name}: {exc}") from exc
    return RunConfig(seed=seed, usd_per_ether=usd, output_dir=out, protocol=protocol, scenarios=scenarios)


def default_config_doc() -> dict:
    """The full default run config as a JSON-serializable document."""
    defaults = RunConfig()
    return {
        "seed": defaults.seed,
        "usd_per_ether": float(defaults.usd_per_ether),
        "output_dir": defaults.output_dir,
        "protocol": protocol_doc(defaults.protocol),
        "scenarios": [],
    }
