"""Protocol parameters and strict JSON run-configuration parsing.

Defaults reproduce the published gas table and fill in every parameter the
protocol description leaves open (token lifetimes, quorum, thresholds,
windows). The run config is a single JSON document; unknown keys are
rejected so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal
from fractions import Fraction

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
        for name in _INT_FIELDS:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be strictly positive")
        if not 0 <= self.srdt_discount <= 1:
            raise ConfigError("srdt_discount must lie in [0, 1]")
        if self.faucet_balance < self.genesis_balance:
            raise ConfigError("faucet cannot cover a single registration")


_FIELD_TYPES = typing.get_type_hints(ProtocolConfig)
_INT_FIELDS = tuple(f.name for f in fields(ProtocolConfig) if _FIELD_TYPES[f.name] is int)

# Fields the run config exposes under another key: Ether amounts and a rate.
_DOC_KEYS = {
    "genesis_balance": "genesis_balance_ether",
    "faucet_balance": "faucet_balance_ether",
    "srdt_discount": "srdt_discount_rate",
}
_PROTOCOL_INT_KEYS = tuple(name for name in _INT_FIELDS if name not in _DOC_KEYS)
_PROTOCOL_BOOL_KEYS = tuple(f.name for f in fields(ProtocolConfig) if _FIELD_TYPES[f.name] is bool)
_PROTOCOL_KEYS = frozenset(_DOC_KEYS.get(f.name, f.name) for f in fields(ProtocolConfig))


@dataclass(frozen=True)
class RunConfig:
    """Top-level CLI configuration: one protocol config plus scenarios."""

    seed: int = 42
    usd_per_ether: Decimal = DEFAULT_USD_PER_ETHER
    output_dir: str = "out"
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    scenarios: tuple = ()


def _require_keys(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be a boolean")
    return value


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


def parse_gas_schedule(doc: dict) -> GasSchedule:
    _require_keys(doc, {"gas_price_gwei", *GAS_OPS}, "gas")
    defaults = GasSchedule()
    price_wei = defaults.price_wei
    if "gas_price_gwei" in doc:
        price_wei = _as_wei(doc["gas_price_gwei"], "gas.gas_price_gwei", WEI_PER_GWEI)
    rows = dict(defaults.rows)
    for op in GAS_OPS:
        if op in doc:
            row = doc[op]
            if not isinstance(row, dict):
                raise ConfigError(f"gas.{op} must be an object")
            _require_keys(row, {"gas_limit", "gas_used"}, f"gas.{op}")
            rows[op] = GasRow(
                gas_limit=_as_int(row.get("gas_limit", rows[op].gas_limit), f"gas.{op}.gas_limit"),
                gas_used=_as_int(row.get("gas_used", rows[op].gas_used), f"gas.{op}.gas_used"),
            )
    schedule = GasSchedule(price_wei=price_wei, rows=rows)
    schedule.validate()
    return schedule


def parse_protocol_config(doc: dict, base: ProtocolConfig | None = None) -> ProtocolConfig:
    _require_keys(doc, _PROTOCOL_KEYS, "protocol")
    cfg = base or ProtocolConfig()
    updates: dict = {}
    if "gas" in doc:
        if not isinstance(doc["gas"], dict):
            raise ConfigError("protocol.gas must be an object")
        updates["gas"] = parse_gas_schedule(doc["gas"])
    if "genesis_balance_ether" in doc:
        updates["genesis_balance"] = _as_wei(doc["genesis_balance_ether"], "genesis_balance_ether")
    if "faucet_balance_ether" in doc:
        updates["faucet_balance"] = _as_wei(doc["faucet_balance_ether"], "faucet_balance_ether")
    if "srdt_discount_rate" in doc:
        rate = _as_decimal(doc["srdt_discount_rate"], "srdt_discount_rate")
        # Fraction(rate) takes time and memory that grow with the exponent.
        if abs(rate.as_tuple().exponent) > RATE_DIGITS:
            raise ConfigError(
                f"srdt_discount_rate allows at most {RATE_DIGITS} fractional digits"
                f" and a decimal exponent of at most {RATE_DIGITS}: {quoted(doc['srdt_discount_rate'])}"
            )
        updates["srdt_discount"] = Fraction(rate)
    for key in _PROTOCOL_INT_KEYS:
        if key in doc:
            updates[key] = _as_int(doc[key], f"protocol.{key}")
    for key in _PROTOCOL_BOOL_KEYS:
        if key in doc:
            updates[key] = _as_bool(doc[key], f"protocol.{key}")
    cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg


def parse_run_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    _require_keys(doc, {"seed", "usd_per_ether", "output_dir", "protocol", "scenarios"}, "run config")
    seed = _as_int(doc.get("seed", 42), "seed")
    usd = _as_decimal(doc.get("usd_per_ether", DEFAULT_USD_PER_ETHER), "usd_per_ether")
    if usd <= 0:
        raise ConfigError("usd_per_ether must be strictly positive")
    if usd.adjusted() >= USD_DIGITS:
        raise ConfigError(f"usd_per_ether allows at most {USD_DIGITS} integer digits: {quoted(doc['usd_per_ether'])}")
    out = doc.get("output_dir", "out")
    if not isinstance(out, str) or not out or "\0" in out:
        raise ConfigError("output_dir must be a non-empty string without NUL")
    protocol = parse_protocol_config(doc.get("protocol", {}))

    # Scenario schemas live with the adversary harness; imported lazily to
    # keep config importable from the low-level modules.
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
    proto = ProtocolConfig()
    doc = {
        "seed": 42,
        "usd_per_ether": float(DEFAULT_USD_PER_ETHER),
        "output_dir": "out",
        "protocol": {
            "gas": {
                "gas_price_gwei": float(Decimal(proto.gas.price_wei) / WEI_PER_GWEI),
                **{
                    op: {"gas_limit": row.gas_limit, "gas_used": row.gas_used}
                    for op, row in proto.gas.rows.items()
                },
            },
            "genesis_balance_ether": proto.genesis_balance // WEI_PER_ETHER,
            "faucet_balance_ether": proto.faucet_balance // WEI_PER_ETHER,
            "srdt_discount_rate": float(proto.srdt_discount),
        },
        "scenarios": [],
    }
    for key in _PROTOCOL_INT_KEYS + _PROTOCOL_BOOL_KEYS:
        doc["protocol"][key] = getattr(proto, key)
    return doc
