"""Behaviour pins: canonical log hashes and the default config round trip.

The eight canonical scenarios are the ones `demos/attack_analysis.py`
runs; their final log hashes are pinned in `bench/fixed_points.json`.
Any change to protocol behaviour or event payloads shows up here. Four
more runs at 192 honest raters pin the paths whose per-key lookups only
carry real work in a large population.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from ddrm import AttackScenario, ProtocolConfig, default_config_doc, parse_run_config, run_scenario
from ddrm.config import _PROTOCOL_KEYS

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


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_canonical_log_hash_unchanged(scenario):
    assert run_scenario(scenario).final_log_hash() == PINNED[scenario.name]


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


def test_default_config_doc_lists_every_protocol_key():
    assert set(default_config_doc()["protocol"]) == _PROTOCOL_KEYS
