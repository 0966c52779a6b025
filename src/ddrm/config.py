"""Protocol parameters and strict JSON run-configuration parsing.

Defaults reproduce the published gas table and fill in every parameter the
protocol description leaves open (token lifetimes, quorum, thresholds,
windows). The run config is a single JSON document; unknown keys are
rejected so typos fail loudly instead of silently using defaults.

Each config document has one field table, a row per key naming the
record field and its Codec; it drives the parser, the allowed keys and an
exact writer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from decimal import Context, Decimal
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import ConfigError, ValidationError
from .ledger import GAS_OPS, WEI_PER_ETHER, WEI_PER_GWEI, GasRow, GasSchedule, ether, json_number, quoted

# Fixed by the protocol's funding equations: every listing seeds its review
# fund with 1 Ether, which underwrites one hundred review submissions.
REVIEW_FUND_SEED = WEI_PER_ETHER
REVIEWS_PER_ETHER = 100
REVIEW_SUBSIDY = WEI_PER_ETHER // REVIEWS_PER_ETHER

DEFAULT_USD_PER_ETHER = Decimal("1586.0")

# srdt_discount_rate is refused past this many fractional digits (or this
# decimal exponent), before it becomes a Fraction.
RATE_DIGITS = 36

# usd_per_ether is refused past this many integer digits: the gas table
# prints every digit of its USD products, and past the decimal context's
# exponent range they cannot be computed at all.
USD_DIGITS = 36


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
        for row in PROTOCOL_FIELDS:
            if row.codec in (INT, ETHER) and getattr(self, row.attr) <= 0:
                raise ConfigError(f"{row.attr} must be strictly positive")
        if not 0 <= self.srdt_discount <= 1:
            raise ConfigError("srdt_discount must lie in [0, 1]")
        if self.faucet_balance < self.genesis_balance:
            raise ConfigError("faucet cannot cover a single registration")


@dataclass(frozen=True)
class RunConfig:
    """Top-level CLI configuration: one protocol config plus scenarios."""

    seed: int = 42
    usd_per_ether: Decimal = DEFAULT_USD_PER_ETHER
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


Field = NamedTuple("Field", [("key", str), ("attr", str), ("codec", Codec)])  # document key, record field


def _require_keys(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def read_fields(doc: dict, table: tuple[Field, ...], where: str, prefix: str) -> dict:
    """{record field: value} for each key of `doc` by its row's codec; a refusal names `doc` as `where`
    (an unknown key) or a value as prefix + key."""
    _require_keys(doc, {row.key for row in table}, where)
    return {row.attr: row.codec.read(doc[row.key], prefix + row.key) for row in table if row.key in doc}


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


def _as_decimal(value, where: str) -> Decimal:
    try:
        return json_number(value)
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _as_wei(value, where: str, unit: int = WEI_PER_ETHER) -> int:
    """An amount from outside the program, in Ether unless `unit` says otherwise, as whole Wei."""
    try:
        return ether(value, unit)
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _as_rate(value, where: str) -> Fraction:
    rate = _as_decimal(value, where)
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

    return Codec(lambda value, where: _as_wei(value, where, unit), forms)


def _rate_forms(rate: Fraction) -> tuple:
    # Exact for any rate the reader takes; for another, such as 1/3, no form reads back and write() raises.
    return _number_forms(f"{Context(prec=2 * RATE_DIGITS).divide(rate.numerator, rate.denominator):f}")


def parse_gas_schedule(doc: dict) -> GasSchedule:
    _require_keys(doc, {"gas_price_gwei", *GAS_OPS}, "gas")
    defaults = GasSchedule()
    price_wei = defaults.price_wei
    if "gas_price_gwei" in doc:
        price_wei = GWEI.read(doc["gas_price_gwei"], "gas.gas_price_gwei")
    rows = dict(defaults.rows)
    for op in GAS_OPS:
        if op in doc:
            row = OBJECT.read(doc[op], f"gas.{op}")
            _require_keys(row, {"gas_limit", "gas_used"}, f"gas.{op}")
            rows[op] = GasRow(
                gas_limit=INT.read(row.get("gas_limit", rows[op].gas_limit), f"gas.{op}.gas_limit"),
                gas_used=INT.read(row.get("gas_used", rows[op].gas_used), f"gas.{op}.gas_used"),
            )
    schedule = GasSchedule(price_wei=price_wei, rows=rows)
    schedule.validate()
    return schedule


def _gas_forms(gas: GasSchedule) -> tuple:
    rows = {op: {"gas_limit": row.gas_limit, "gas_used": row.gas_used} for op, row in gas.rows.items()}
    return ({"gas_price_gwei": GWEI.write(gas.price_wei), **rows},)


ETHER = _units(WEI_PER_ETHER)
GWEI = _units(WEI_PER_GWEI)
RATE = Codec(_as_rate, _rate_forms)
GAS = Codec(lambda value, where: parse_gas_schedule(OBJECT.read(value, where)), _gas_forms)

# One row per ProtocolConfig field; validate checks the positive ones in this order.
PROTOCOL_FIELDS = (
    Field("gas", "gas", GAS),
    Field("genesis_balance_ether", "genesis_balance", ETHER),
    Field("faucet_balance_ether", "faucet_balance", ETHER),
    Field("srdt_discount_rate", "srdt_discount", RATE),
    *(Field(key, key, INT) for key in (
        "srat_lifetime", "srdt_lifetime", "endorsement_quorum", "penalty_threshold", "bootstrap_count",
        "panel_size", "claim_window", "voting_window", "dret_interval",
    )),
    *(Field(key, key, BOOL) for key in ("literal_alg2_ties", "refund_fund_on_withdraw")),
)


def _as_file_name(value, where: str) -> str:
    name = TEXT.read(value, where)
    if any(part in name for part in ("/", "\\", "..", "\0")):  # it names files in output_dir
        raise ConfigError(f"{where} {quoted(name)} must not contain '/', '\\', '..' or NUL")
    return name


NAME = Codec(_as_file_name, _itself)

# One row per adversary.AttackScenario field.
SCENARIO_FIELDS = (
    Field("name", "name", NAME),
    Field("kind", "kind", TEXT),
    *(Field(key, key, INT) for key in (
        "seed", "rounds", "attacker_count", "fake_identities_per_attacker", "honest_count",
    )),
    Field("service_cost_ether", "service_cost_wei", ETHER),
    Field("target_own", "target_own", BOOL),
    Field("honest_vote_probability", "honest_vote_probability", NUMBER),
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
    seed = INT.read(doc.get("seed", 42), "seed")
    usd = _as_decimal(doc.get("usd_per_ether", DEFAULT_USD_PER_ETHER), "usd_per_ether")
    if usd <= 0:
        raise ConfigError("usd_per_ether must be strictly positive")
    if usd.adjusted() >= USD_DIGITS:
        raise ConfigError(f"usd_per_ether allows at most {USD_DIGITS} integer digits: {quoted(doc['usd_per_ether'])}")
    out = doc.get("output_dir", "out")
    if not isinstance(out, str) or not out or "\0" in out:
        raise ConfigError("output_dir must be a non-empty string without NUL")
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
    return {
        "seed": 42,
        "usd_per_ether": float(DEFAULT_USD_PER_ETHER),
        "output_dir": "out",
        "protocol": protocol_doc(ProtocolConfig()),
        "scenarios": [],
    }
