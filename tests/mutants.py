"""Mutant catalogue: small breaks of the code that the test suite must catch.

Each entry replaces one exact `old` string in one file with `new`; `kills`
names the test file expected to fail on it. Run

    python tests/mutants.py [NAME ...]

to apply each mutant (or only the named ones) in a temporary copy of the
tree and run `pytest -x -q` on its test file there. The script prints
killed, survived or error per mutant and exits 1 unless every mutant was
killed. Pytest does not collect this file; tests/test_mutants.py only
checks that every `old` string still occurs exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    kills: str


MUTANTS = (
    # The single log reader.
    Mutant("no-seekable-final-lf-check", "src/ddrm/ledger.py",
           'if last != b"\\n":', "if False:", "tests/test_ledger.py"),
    Mutant("no-pipe-final-lf-check", "src/ddrm/ledger.py",
           'if raw[-1:] != b"\\n":', "if False:", "tests/test_cli.py"),
    Mutant("lenient-utf8-decode", "src/ddrm/ledger.py",
           'raw[:-1].decode("utf-8")', 'raw[:-1].decode("utf-8", errors="replace")', "tests/test_cli.py"),
    Mutant("no-splice-comparison", "src/ddrm/ledger.py",
           "if _splice(rec, payload_json) != line:", "if False:", "tests/test_ledger.py"),
    Mutant("no-blank-line-check", "src/ddrm/ledger.py",
           "if not line:", "if False:", "tests/test_cli.py"),
    Mutant("no-end-of-object-check", "src/ddrm/ledger.py",
           "if end != len(line):", "if False:", "tests/test_ledger.py"),
    Mutant("no-seq-check", "src/ddrm/ledger.py",
           "if rec.seq != seq:", "if False:", "tests/test_ledger.py"),
    Mutant("unsorted-encoder", "src/ddrm/ledger.py",
           '":", ",", True, False, True)', '":", ",", False, False, True)', "tests/test_ledger.py"),
    Mutant("shared-markers-dict", "src/ddrm/ledger.py",
           "c_make_encoder(None,", "c_make_encoder({},", "tests/test_ledger.py"),
    # Replay and its failure messages.
    Mutant("no-setup-shape-check", "src/ddrm/adversary.py",
           'raise TypeError("ScenarioSetup attackers, target_providers or ground_truth mistyped")', "pass",
           "tests/test_cli.py"),
    Mutant("payload-failure-unplaced", "src/ddrm/adversary.py",
           "field: {exc} ({where})", "field: {exc}", "tests/test_cli.py"),
    Mutant("metrics-failure-blamed-on-last-record", "src/ddrm/adversary.py",
           "rec = None  # past the last record", "pass  # past the last record", "tests/test_adversary.py"),
    Mutant("replay-collects-records", "src/ddrm/adversary.py",
           "for rec in iter_log_lines(log):", "for rec in list(iter_log_lines(log)):", "tests/test_adversary.py"),
    Mutant("no-refund-term-in-replayed-spend", "src/ddrm/adversary.py",
           'elif kind == "RefundSettled":\n                spent[p["provider"]] += p["amount_wei"]',
           'elif kind == "RefundSettled":\n                pass', "tests/test_adversary.py"),
    Mutant("accepted-counts-badged-only", "src/ddrm/adversary.py",
           "accepted=sum(1 for r in reviews if r.reviewer in attackers)",
           "accepted=sum(1 for r in reviews if r.reviewer in attackers and r.badge != BADGE_PENDING)",
           "tests/test_fixed_points.py"),
    # ddrm run: artifacts and its errors.
    Mutant("no-del-result", "src/ddrm/cli.py",
           "del result", "pass", "tests/test_cli.py"),
    Mutant("metrics-recursion-error-uncaught", "src/ddrm/cli.py",
           "KeyError, TypeError, RecursionError) as exc:", "KeyError, TypeError) as exc:", "tests/test_cli.py"),
    Mutant("temporary-log-kept", "src/ddrm/cli.py",
           "tmp_path.unlink(missing_ok=True)", "pass", "tests/test_cli.py"),
    Mutant("no-oserror-mapping", "src/ddrm/cli.py",
           'raise ConfigError(f"cannot write output_dir {out_dir}: {exc}") from exc', "raise", "tests/test_cli.py"),
    Mutant("replay-failure-unnamed", "src/ddrm/cli.py",
           'raise InvariantViolation(f"scenario {scenario.name}: {exc}") from exc', "raise", "tests/test_cli.py"),
    Mutant("no-name-check", "src/ddrm/adversary.py",
           'if any(part in kwargs["name"] for part in ("/", "\\\\", "..", "\\0")):', "if False:", "tests/test_cli.py"),
    Mutant("no-backslash-check", "src/ddrm/adversary.py",
           '("/", "\\\\", "..", "\\0")', '("/", "..", "\\0")', "tests/test_cli.py"),
    Mutant("no-output-dir-nul-check", "src/ddrm/config.py",
           ' or "\\0" in out', "", "tests/test_cli.py"),
    Mutant("no-override-check", "src/ddrm/config.py",
           "parse_protocol_config(scenario.overrides, base=protocol)", "None", "tests/test_cli.py"),
    Mutant("register-unwrapped", "src/ddrm/adversary.py",
           "pid = self._set_up(self.sim.register, card, roles)", "pid = self.sim.register(card, roles)",
           "tests/test_cli.py"),
    Mutant("add-service-unwrapped", "src/ddrm/adversary.py",
           "self._set_up(self.sim.add_service, target, s.service_cost_wei)] = GOOD",
           "self.sim.add_service(target, s.service_cost_wei)] = GOOD", "tests/test_cli.py"),
    # Attack policies.
    Mutant("enemy-first-ignored", "src/ddrm/adversary.py",
           "if self.policy.enemy_first else", "if False else", "tests/test_fixed_points.py"),
    Mutant("self-listing-ignores-target-own", "src/ddrm/adversary.py",
           "self_listing = self.policy.self_lists and s.target_own", "self_listing = self.policy.self_lists",
           "tests/test_fixed_points.py"),
    Mutant("self-listing-ignores-policy", "src/ddrm/adversary.py",
           "self_listing = self.policy.self_lists and s.target_own", "self_listing = s.target_own",
           "tests/test_fixed_points.py"),
    Mutant("honest-buy-round-fixed-at-1", "src/ddrm/adversary.py",
           "return rnd == (2 if self.policy.early else 1)", "return rnd == 1", "tests/test_fixed_points.py"),
    Mutant("refund-claim-refiled", "src/ddrm/adversary.py",
           "if purchase_id not in self.sim.reviews.claims_by_purchase:", "if True:", "tests/test_fixed_points.py"),
    # Test helpers.
    Mutant("forged-log-edits-inside-the-loop", "tests/conftest.py",
           "for rec in list(iter_log_lines(log)):", "for rec in iter_log_lines(log):", "tests/test_adversary.py"),
)


def run(mutant: Mutant, tree: Path) -> str:
    path = tree / mutant.file
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.old) != 1:
        return "error: old string does not occur exactly once"
    path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", mutant.kills],
            cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")}, capture_output=True, text=True,
        )
    finally:
        path.write_text(original, encoding="utf-8")
    # pytest exits 1 when a test fails; 0 is a survivor, anything else an error.
    return {0: "survived", 1: "killed"}.get(proc.returncode, f"error: pytest exited {proc.returncode}")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    selected = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out", "*.egg-info")
        shutil.copytree(ROOT, tree, ignore=ignore)
        survivors = 0
        for m in selected:
            outcome = run(m, tree)
            survivors += outcome != "killed"
            print(f"{outcome:9} {m.name} ({m.kills})", flush=True)
    print(f"{len(selected) - survivors}/{len(selected)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
