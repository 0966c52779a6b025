"""The benchmark's three workloads.

Each workload turns the ``--seed`` argument into fixed inputs, then runs one
measured pass at a time against the public ``ddrm`` API from this process:
a closed loop in which each operation starts when the previous one returns.
Every operation's outputs are checked, and every operation leaves a
fingerprint of exact work counts that must repeat from pass to pass and
match the recorded fixed points.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

SWEEP_KINDS = ("collusion", "bad_mouthing")
SWEEP_HONEST = (12, 48, 192, 384)
SWEEP_ROUNDS = 12

# The eight canonical scenarios with the parameters of demos/attack_analysis.py;
# their log hashes are pinned at these seeds (101-108).
CANONICAL = (
    dict(name="sybil", kind="sybil", seed=101, rounds=5,
         attacker_count=4, fake_identities_per_attacker=6, honest_count=10),
    dict(name="ballot-stuffing", kind="ballot_stuffing", seed=102, rounds=10,
         attacker_count=2, honest_count=9),
    dict(name="bad-mouthing", kind="bad_mouthing", seed=103, rounds=14,
         attacker_count=2, honest_count=9),
    dict(name="collusion", kind="collusion", seed=104, rounds=12,
         attacker_count=2, honest_count=9),
    dict(name="whitewashing", kind="whitewashing", seed=105, rounds=14,
         attacker_count=2, fake_identities_per_attacker=5, honest_count=9),
    dict(name="constant-attack", kind="constant_attack", seed=106, rounds=6,
         attacker_count=3, honest_count=8),
    dict(name="majority-endorser", kind="majority_endorser", seed=107, rounds=8,
         attacker_count=4, honest_count=3),
    dict(name="false-refund", kind="false_refund", seed=108, rounds=6,
         attacker_count=2, honest_count=9),
)
CANONICAL_SEED_SETS = 16  # set 0 is the canonical seeds, sets 1-15 derive from --seed

VERIFY_KINDS = ("collusion", "bad_mouthing", "false_refund", "majority_endorser", "whitewashing")
VERIFY_HONEST = 96
VERIFY_ROUNDS = 24

PHASES = ("purchase", "review", "endorse", "selection", "refund")


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}|{label}".encode("utf-8")).hexdigest()
    return int(digest[:8], 16)


@dataclass
class Op:
    seconds: float
    ok: bool
    fingerprint: dict


@dataclass
class Pass:
    wall_s: float
    ops: list[Op]
    events: int
    # Harness timing for the per-layer figures: scenario name -> (run_scenario s, events).
    scenario_runs: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        """Exact work counts of the pass, the unit the fixed points pin."""
        denials: dict[str, int] = {}
        for op in self.ops:
            for name, count in op.fingerprint.get("denials", {}).items():
                denials[name] = denials.get(name, 0) + count
        ops_blob = json.dumps([op.fingerprint for op in self.ops], sort_keys=True)
        return {
            "events": self.events,
            "beacon_draws": sum(op.fingerprint.get("draws", 0) for op in self.ops),
            "log_bytes": sum(op.fingerprint.get("bytes", 0) for op in self.ops),
            "denials": dict(sorted(denials.items())),
            "ops_sha256": hashlib.sha256(ops_blob.encode("utf-8")).hexdigest(),
        }


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Call ``ddrm.cli.main`` in-process, capturing what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


class ScenarioHook:
    """Times each scenario inside one ``ddrm run`` from outside.

    Replaces the ``run_scenario`` name that ``ddrm.cli`` calls with a shim
    that notes entry and return times and reads the finished ledger's event
    count and beacon draw counter.
    """

    def __init__(self, cli):
        self.cli = cli
        self.calls: list[tuple[str, float, float, int, int]] = []

    def __enter__(self):
        original = self.original = self.cli.run_scenario
        calls = self.calls

        def run_scenario(scenario, *args, **kwargs):
            start = perf_counter()
            result = original(scenario, *args, **kwargs)
            end = perf_counter()
            ledger = result.sim.ledger
            calls.append((scenario.name, start, end, len(ledger.log), ledger.beacon.counter))
            return result

        self.cli.run_scenario = run_scenario
        return self

    def __exit__(self, *exc):
        self.cli.run_scenario = self.original


def read_run_outputs(out_dir: Path, name: str) -> dict:
    """What ``ddrm run`` wrote for one scenario, plus the log's own last hash."""
    log = (out_dir / f"{name}.events.ndjson").read_text(encoding="utf-8")
    doc = json.loads((out_dir / f"{name}.metrics.json").read_text(encoding="utf-8"))
    last = json.loads(log.rstrip("\n").rsplit("\n", 1)[-1])
    return {
        "hash": doc["final_log_hash"],
        "last_record_hash": last["hash"],
        "events": log.count("\n"),
        "bytes": len(log.encode("utf-8")),
        "denials": dict(sorted(doc["extras"]["denials"].items())),
    }


def sweep_doc(seed: int, out_dir: Path, kinds, honest_sizes, rounds: int) -> dict:
    return {
        "seed": seed,
        "output_dir": str(out_dir),
        "scenarios": [
            {"name": f"{kind}-{honest}", "kind": kind, "rounds": rounds,
             "honest_count": honest, "attacker_count": honest // 6}
            for kind in kinds
            for honest in honest_sizes
        ],
    }


class AttackSweep:
    """One ``ddrm run`` over collusion and bad-mouthing at four population sizes."""

    name = "attack-sweep"

    def __init__(self, ddrm, seed: int, workdir: Path):
        self.ddrm = ddrm
        self.workdir = workdir
        self.config_path = workdir / "attack-sweep.json"
        self.out_dir = workdir / "out"
        self.doc = sweep_doc(derive_seed(seed, self.name), self.out_dir,
                             SWEEP_KINDS, SWEEP_HONEST, SWEEP_ROUNDS)
        # ddrm run executes scenarios in name order.
        self.names = sorted(s["name"] for s in self.doc["scenarios"])

    def setup(self) -> dict | None:
        self.ddrm.parse_run_config(self.doc)
        self.config_path.write_text(json.dumps(self.doc), encoding="utf-8")
        return None

    def run_pass(self) -> Pass:
        with ScenarioHook(self.ddrm.cli) as hook:
            start = perf_counter()
            try:
                code, printed = run_cli(self.ddrm.cli, ["run", "--config", str(self.config_path)])
            except Exception as exc:  # a traceback out of ddrm run fails every operation
                code, printed = -1, f"{type(exc).__name__}: {exc}"
            end = perf_counter()
        errors = [] if code == 0 else [f"ddrm run exited {code}: {printed.strip()[-300:]}"]
        if [call[0] for call in hook.calls] != self.names:
            errors.append("ddrm run did not run every configured scenario in order")
            return Pass(end - start, [Op(end - start, False, {"scenario": n}) for n in self.names], 0, {}, errors)
        starts = [call[1] for call in hook.calls] + [end]
        ops = []
        for i, (name, _start, _end, events, draws) in enumerate(hook.calls):
            out = None
            if code == 0:
                try:
                    out = read_run_outputs(self.out_dir, name)
                except (OSError, ValueError, KeyError) as exc:
                    errors.append(f"{name}: cannot read what ddrm run wrote: {type(exc).__name__}: {exc}")
            ok = out is not None and out["hash"] == out["last_record_hash"] and out["events"] == events
            if out is not None and not ok:
                errors.append(f"{name}: log and metrics file disagree")
            fingerprint = {"scenario": name, "events": events, "draws": draws}
            if out is not None:
                fingerprint.update(hash=out["hash"], bytes=out["bytes"], denials=out["denials"])
            ops.append(Op(starts[i + 1] - starts[i], ok, fingerprint))
        return Pass(
            wall_s=end - start,
            ops=ops,
            events=sum(call[3] for call in hook.calls),
            scenario_runs={c[0]: (c[2] - c[1], c[3]) for c in hook.calls},
            errors=errors,
        )


class CanonicalSuite:
    """The eight canonical scenarios over 16 seed sets, each replay-checked."""

    name = "canonical-suite"

    def __init__(self, ddrm, seed: int, workdir: Path):
        self.ddrm = ddrm
        self.workdir = workdir
        self.docs = []
        for seed_set in range(CANONICAL_SEED_SETS):
            for base in CANONICAL:
                doc = dict(base)
                if seed_set:
                    doc["seed"] = derive_seed(seed, f"{self.name}/{seed_set}/{base['name']}")
                self.docs.append((seed_set, doc))
        self.scenarios: list = []
        self.pinned_hashes: dict[str, str] = {}

    def setup(self) -> dict | None:
        self.scenarios = [
            (seed_set, self.ddrm.parse_scenario(doc, i))
            for i, (seed_set, doc) in enumerate(self.docs)
        ]
        return None

    def run_pass(self) -> Pass:
        run_scenario = self.ddrm.run_scenario
        replay_verify = self.ddrm.replay_verify
        ops, errors = [], []
        events = 0
        wall_start = perf_counter()
        for seed_set, scenario in self.scenarios:
            start = perf_counter()
            try:
                result = run_scenario(scenario)
                text = result.log_text()
                replay_ok = replay_verify(text) == result.metrics
            except Exception as exc:  # any escape from the harness is a failed operation
                ops.append(Op(perf_counter() - start, False, {"scenario": scenario.name}))
                errors.append(f"{scenario.name} seed {scenario.seed}: {type(exc).__name__}: {exc}")
                continue
            end = perf_counter()
            ledger = result.sim.ledger
            final_hash = ledger.final_hash()
            ok = replay_ok
            if not replay_ok:
                errors.append(f"{scenario.name} seed {scenario.seed}: replay differs from live metrics")
            pinned = self.pinned_hashes.get(scenario.name) if seed_set == 0 else None
            if pinned is not None and pinned != final_hash:
                ok = False
                errors.append(f"{scenario.name} seed {scenario.seed}: log hash {final_hash} != pinned {pinned}")
            events += len(ledger.log)
            ops.append(Op(end - start, ok, {
                "scenario": scenario.name, "seed": scenario.seed, "hash": final_hash,
                "events": len(ledger.log), "bytes": len(text), "draws": ledger.beacon.counter,
                "denials": dict(sorted(result.extras["denials"].items())),
            }))
        return Pass(perf_counter() - wall_start, ops, events, {}, errors)


class VerifyLogs:
    """``ddrm verify`` over five exported logs written during set-up."""

    name = "verify-logs"

    def __init__(self, ddrm, seed: int, workdir: Path):
        self.ddrm = ddrm
        self.workdir = workdir
        self.config_path = workdir / "verify-logs.json"
        self.out_dir = workdir / "logs"
        self.doc = sweep_doc(derive_seed(seed, self.name), self.out_dir,
                             VERIFY_KINDS, (VERIFY_HONEST,), VERIFY_ROUNDS)
        self.names = sorted(s["name"] for s in self.doc["scenarios"])
        self.logs: dict[str, dict] = {}

    def setup(self) -> dict | None:
        self.ddrm.parse_run_config(self.doc)
        self.config_path.write_text(json.dumps(self.doc), encoding="utf-8")
        with ScenarioHook(self.ddrm.cli) as hook:
            code, printed = run_cli(self.ddrm.cli, ["run", "--config", str(self.config_path)])
        if code != 0:
            raise RuntimeError(f"log generation failed ({code}): {printed.strip()[-300:]}")
        draws = {call[0]: call[4] for call in hook.calls}
        for name in self.names:
            out = read_run_outputs(self.out_dir, name)
            if out.pop("last_record_hash") != out["hash"]:
                raise RuntimeError(f"{name}: log and metrics file disagree")
            self.logs[name] = {"scenario": name, **out, "draws": draws[name]}
        return self.logs

    def run_pass(self) -> Pass:
        cli = self.ddrm.cli
        ops, errors = [], []
        events = 0
        wall_start = perf_counter()
        for name in self.names:
            path = str(self.out_dir / f"{name}.events.ndjson")
            start = perf_counter()
            try:
                code, printed = run_cli(cli, ["verify", path])
            except Exception as exc:  # a traceback out of ddrm verify is a failed operation
                code, printed = -1, f"{type(exc).__name__}: {exc}"
            end = perf_counter()
            ok = code == 0 and printed.startswith("ok: chain intact, metrics match")
            if not ok:
                errors.append(f"ddrm verify {name}: exit {code}: {printed.strip()[-300:]}")
            events += self.logs[name]["events"]
            ops.append(Op(end - start, ok, {**self.logs[name], "exit": code}))
        return Pass(perf_counter() - wall_start, ops, events, {}, errors)


WORKLOADS = {w.name: w for w in (AttackSweep, CanonicalSuite, VerifyLogs)}


class PhaseClock:
    """Harness phase times, taken from outside through public calls.

    ``ScenarioRunner.run`` advances one tick per phase, so the interval that
    ends with the advance to tick t is phase ``(t - 1) % 5``: purchase,
    review, endorse, selection, refund. Round 1 starts when the harness logs
    its ``ScenarioSetup`` event, after the population is built.
    """

    def __init__(self, ddrm):
        self.sim_cls = ddrm.sim.Simulation
        self.ledger_cls = ddrm.ledger.Ledger
        self.seconds = [0.0] * len(PHASES)

    def __enter__(self):
        advance_tick = self.orig_tick = self.sim_cls.advance_tick
        append_event = self.orig_append = self.ledger_cls.append_event
        seconds = self.seconds
        last = [None]

        def timed_advance_tick(sim):
            tick = advance_tick(sim)
            now = perf_counter()
            if last[0] is not None:
                seconds[(tick - 1) % len(PHASES)] += now - last[0]
            last[0] = now
            return tick

        def marked_append_event(ledger, kind, payload):
            record = append_event(ledger, kind, payload)
            if kind == "ScenarioSetup":
                last[0] = perf_counter()
            return record

        self.sim_cls.advance_tick = timed_advance_tick
        self.ledger_cls.append_event = marked_append_event
        return self

    def __exit__(self, *exc):
        self.sim_cls.advance_tick = self.orig_tick
        self.ledger_cls.append_event = self.orig_append
