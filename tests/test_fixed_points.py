"""Behaviour pins: canonical log hashes, metrics and extras, and the default config round trip.

The eight canonical scenarios are the ones `demos/attack_analysis.py`
runs; their final log hashes are pinned in `bench/fixed_points.json`,
and their metrics and extras here. Any change to protocol behaviour,
event payloads or the metric definitions shows up here. Four
more runs at 192 honest raters pin the paths whose per-key lookups only
carry real work in a large population.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from ddrm import AttackScenario, ProtocolConfig, default_config_doc, parse_run_config, run_scenario
from ddrm.adversary import ScenarioMetrics

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("attack_analysis", ROOT / "demos" / "attack_analysis.py")
_demo = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_demo)
SCENARIOS = _demo.SCENARIOS

PINNED = json.loads((ROOT / "bench" / "fixed_points.json").read_text())["canonical_log_hashes"]

# AttackScenario(name=f"{kind}-192", kind=kind, rounds=12, honest_count=192,
# attacker_count=32, seed=2024): final log hash of each run.
AT_SCALE = {
    "collusion": "5e624894bceed1743a62ccc156d0df4a9876d175607d15a5cbe147fa17510c8b",
    "bad_mouthing": "09e5ce0b4ba11adc46f6e7c81d0577ff5fea6924c1ae2ae454d5b00241e93679",
    "whitewashing": "50a562e393354cd97203a7fb64c5f28006bb8801dc524f368221d94c8b9f811f",
    "false_refund": "6783ba42893ac46406f79e93fb1d02f8356dc4a06b2dad32ed9828bdafcf3ebb",
}

# The canonical ballot-stuffing scenario with target_own=False: the attackers
# stuff an honest competitor's service instead of listing their own.
BALLOT_STUFFING_COMPETITOR = "cec17636ccc7c73d2999f0933f0b5f13e2eca31ac64d5047b2c4af5585206fc7"

# Per canonical scenario: its ScenarioMetrics fields in declaration order, then
# its extras as (sybil registrations attempted, succeeded, whitewash
# re-registrations attempted, succeeded, victim_revenue_wei, denials,
# review_starved_services).
CANONICAL_RESULTS = {
    "bad-mouthing": (
        (1.0, 8505152340100000000, 17, 12, 2, 0, 0),
        (2, 2, 0, 0, 8500000000000000000, {}, []),
    ),
    "ballot-stuffing": (
        (1.0, 8504558217100000000, 15, 10, 2, 0, 0),
        (2, 2, 0, 0, 0, {}, []),
    ),
    "collusion": (
        (1.0, 8004875114600000000, 14, 14, 2, 0, 0),
        (2, 2, 0, 0, 3500000000000000000, {}, []),
    ),
    "constant-attack": (
        (1.0, 0, 0, 0, 0, 0, 0),
        (3, 3, 0, 0, 0, {"NoPurchase": 36}, []),
    ),
    "false-refund": (
        (1.0, 1000369976200000000, 0, 0, 0, 0, 0),
        (2, 2, 0, 0, 1000000000000000000, {"NoEndorsersAvailable": 2}, []),
    ),
    "majority-endorser": (
        (0.75, 16008679990000000000, 32, 0, 0, 0, 0),
        (4, 4, 0, 0, 16000000000000000000, {}, []),
    ),
    "sybil": (
        (1.0, 10004452590400000000, 20, 0, 0, 0, 0),
        (24, 4, 0, 0, 10000000000000000000, {"DuplicateCard": 20}, []),
    ),
    "whitewashing": (
        (1.0, 8504148568900000000, 17, 12, 2, 0, 0),
        (10, 2, 10, 0, 8500000000000000000, {"DuplicateCard": 18}, []),
    ),
}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_canonical_log_hash_unchanged(scenario):
    assert run_scenario(scenario).final_log_hash() == PINNED[scenario.name]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_canonical_metrics_and_extras_unchanged(scenario):
    result = run_scenario(scenario)
    metrics, (sybil_tried, sybil_ok, whitewash_tried, whitewash_ok, revenue, denials, starved) = (
        CANONICAL_RESULTS[scenario.name]
    )
    assert result.metrics == ScenarioMetrics(*metrics)
    assert result.extras == {
        "sybil_registrations_attempted": sybil_tried,
        "sybil_registrations_succeeded": sybil_ok,
        "whitewash_reregistrations_attempted": whitewash_tried,
        "whitewash_reregistrations_succeeded": whitewash_ok,
        "victim_revenue_wei": revenue,
        "denials": denials,
        "review_starved_services": starved,
    }


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_target_own_false_log_hash_unchanged(scenario):
    # Only ballot stuffing reads target_own; every other kind logs the same run either way.
    expected = BALLOT_STUFFING_COMPETITOR if scenario.kind == "ballot_stuffing" else PINNED[scenario.name]
    assert run_scenario(dataclasses.replace(scenario, target_own=False)).final_log_hash() == expected


@pytest.mark.parametrize("kind", sorted(AT_SCALE))
def test_log_hash_at_192_honest_unchanged(kind):
    scenario = AttackScenario(
        name=f"{kind}-192", kind=kind, rounds=12, honest_count=192, attacker_count=32, seed=2024
    )
    assert run_scenario(scenario).final_log_hash() == AT_SCALE[kind]


def test_every_pinned_scenario_is_run():
    assert {s.name for s in SCENARIOS} == set(PINNED)


def test_default_config_doc_round_trips():
    assert parse_run_config(default_config_doc()).protocol == ProtocolConfig()

