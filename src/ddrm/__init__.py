"""DDRM: a deterministic simulator for a dual-token drone-service
reputation protocol on a gas-metered, hash-chained ledger.

The public surface: Simulation for driving the protocol directly,
run_scenario / replay_verify for the adversary harness, ProtocolConfig /
RunConfig for parameters, and the gas reporting helpers.
"""

from . import errors
from .adversary import (
    ALL_KINDS,
    AttackScenario,
    ScenarioMetrics,
    ScenarioResult,
    expected_badge,
    parse_scenario,
    replay_verify,
    run_scenario,
)
from .config import (
    REVIEW_FUND_SEED,
    REVIEW_SUBSIDY,
    GasRow,
    GasSchedule,
    ProtocolConfig,
    RunConfig,
    default_config_doc,
    parse_run_config,
)
from .endorsement import text_digest
from .identity import ROLE_CONSUMER, ROLE_PROVIDER, card_fingerprint
from .ledger import (
    WEI_PER_ETHER,
    WEI_PER_GWEI,
    EventRecord,
    RandomBeacon,
    ether,
    format_ether,
)
from .reporting import GasReportRow, format_gas_table, gas_table_rows
from .sim import Simulation

__version__ = "0.1.0"

__all__ = [
    "ALL_KINDS",
    "AttackScenario",
    "EventRecord",
    "GasReportRow",
    "GasRow",
    "GasSchedule",
    "ProtocolConfig",
    "REVIEW_FUND_SEED",
    "REVIEW_SUBSIDY",
    "ROLE_CONSUMER",
    "ROLE_PROVIDER",
    "RandomBeacon",
    "RunConfig",
    "ScenarioMetrics",
    "ScenarioResult",
    "Simulation",
    "WEI_PER_ETHER",
    "WEI_PER_GWEI",
    "card_fingerprint",
    "default_config_doc",
    "errors",
    "ether",
    "expected_badge",
    "format_ether",
    "format_gas_table",
    "gas_table_rows",
    "parse_run_config",
    "parse_scenario",
    "replay_verify",
    "run_scenario",
    "text_digest",
]
