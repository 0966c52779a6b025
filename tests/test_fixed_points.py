"""Behaviour pins: canonical log hashes and the default config round trip.

The eight canonical scenarios are the ones `demos/attack_analysis.py`
runs; their final log hashes are pinned in `bench/fixed_points.json`.
Any change to protocol behaviour or event payloads shows up here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from ddrm import ProtocolConfig, default_config_doc, parse_run_config, run_scenario
from ddrm.config import _PROTOCOL_KEYS

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("attack_analysis", ROOT / "demos" / "attack_analysis.py")
_demo = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_demo)
SCENARIOS = _demo.SCENARIOS

PINNED = json.loads((ROOT / "bench" / "fixed_points.json").read_text())["canonical_log_hashes"]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_canonical_log_hash_unchanged(scenario):
    assert run_scenario(scenario).final_log_hash() == PINNED[scenario.name]


def test_every_pinned_scenario_is_run():
    assert {s.name for s in SCENARIOS} == set(PINNED)


def test_default_config_doc_round_trips():
    assert parse_run_config(default_config_doc()).protocol == ProtocolConfig()


def test_default_config_doc_lists_every_protocol_key():
    assert set(default_config_doc()["protocol"]) == _PROTOCOL_KEYS
