#!/usr/bin/env python3
"""DDRM benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload attack-sweep --seed 0 --seconds 12 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another
    python3 bench/run.py --record-fixed-points   # re-pin hashes and work counts

Run from any directory; the script finds the checkout from its own path and
imports ``ddrm`` from ``src/``. Everything runs in this process on one
thread. Measured passes repeat until ``--seconds`` have elapsed and at least
``MIN_PASSES`` passes are done. Set-up (fresh import of ``ddrm``, config
parse, a temporary directory under ``.bench_tmp/`` and, for ``verify-logs``,
writing the logs) is repeated between passes and its median reported as
``setup_s``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
untraced passes as the base, then one pass with every public ``ddrm``
function wrapped by the span tracer (``spans.py``), prints the per-layer
metrics and writes the spans to ``.bench_out/spans-<workload>.csv``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a human-readable table goes to
standard error. Exit status: 0 when every check passed, 1 when any check
failed (the result line is still printed), 2 when the checkout lacks
``BENCHMARK.json`` or ``src/ddrm`` (no result line).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import Aggregate, Tracer
from workloads import PHASES, SWEEP_HONEST, SWEEP_KINDS, WORKLOADS, PhaseClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"
FIXED_POINTS_PATH = HERE / "fixed_points.json"

SETUP_REPEATS = 5   # set-up runs at least this often in an untraced run,
SETUP_SHARE = 1 / 3  # and again between passes while it has had less than this share of the time
MIN_PASSES = 3      # every operation is repeated at least this often
FIXED_SEED = 0      # the default seed; the baseline's traced numbers refer to it
HELD_OUT_SEED = 2407  # never used while tuning a change; confirm claims on it
PINNED_SEEDS = (*range(10), HELD_OUT_SEED)
TAIL_SAMPLES = 10   # report the highest percentile with this many samples beyond it

FACADE_OPS = (
    "register", "bind_address", "exclude", "add_service", "buy_service", "modify_service",
    "withdraw_service", "replenish_fund", "submit_review", "endorse_review",
    "run_endorser_selection", "bootstrap_endorsers", "file_refund_claim", "vote_refund",
    "settle_refund", "advance_tick",
)


class BenchmarkError(Exception):
    """The checkout cannot run the benchmark at all."""


# -- set-up --


def import_fresh():
    """Import ddrm from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "ddrm" or m.startswith("ddrm.")]:
        del sys.modules[name]
    ddrm = importlib.import_module("ddrm")
    importlib.import_module("ddrm.cli")
    if not Path(ddrm.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"imported ddrm from {ddrm.__file__}, not from {SRC}")
    return ddrm


def set_up(name: str, seed: int, fixed: dict):
    """One set-up from a fresh import. Returns (workload, seconds, output)."""
    gc.collect()
    start = perf_counter()
    ddrm = import_fresh()
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP))
    try:
        workload = WORKLOADS[name](ddrm, seed, workdir)
        produced = workload.setup()
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    seconds = perf_counter() - start
    if name == "canonical-suite":
        workload.pinned_hashes = fixed.get("canonical_log_hashes", {})
    return workload, seconds, produced


# -- measuring --


class Run:
    """One workload's set-ups and measured passes.

    Set-up is repeated between passes, spread over the whole run, while it
    has had less than SETUP_SHARE of the time so far, so its samples see the
    same host as the passes. Passes always use the latest set-up: a fresh
    import replaces the ``ddrm`` modules in ``sys.modules``, and the
    program's function-level imports resolve there.
    """

    def __init__(self, name: str, seed: int, fixed: dict):
        self.name, self.seed, self.fixed = name, seed, fixed
        self.workload, seconds, self.produced = set_up(name, seed, fixed)
        self.setup_seconds = [seconds]
        self.errors: list[str] = []
        self.passes: list = []

    def set_up_again(self) -> None:
        workload, seconds, produced = set_up(self.name, self.seed, self.fixed)
        shutil.rmtree(self.workload.workdir, ignore_errors=True)
        self.workload = workload
        self.setup_seconds.append(seconds)
        if produced != self.produced:
            self.errors.append("set-up output differs between repeats")

    def measure(self, seconds: float, repeat_setup: bool) -> None:
        start = perf_counter()
        while (len(self.passes) < MIN_PASSES or perf_counter() - start < seconds
               or (repeat_setup and len(self.setup_seconds) < SETUP_REPEATS)):
            if repeat_setup and (len(self.setup_seconds) < SETUP_REPEATS
                                 or sum(self.setup_seconds) < SETUP_SHARE * (perf_counter() - start)):
                self.set_up_again()
            gc.collect()
            self.passes.append(self.workload.run_pass())

    def close(self) -> None:
        shutil.rmtree(self.workload.workdir, ignore_errors=True)


def check(passes: list, reference, pinned: dict | None, errors: list[str]) -> tuple[int, int]:
    """Count attempted and failed operations.

    An operation fails when its own checks failed or when its fingerprint
    differs from the same operation in the reference pass. If the reference
    pass's work counts differ from the pinned fixed points, every operation
    fails.
    """
    pinned_ok = True
    if pinned is not None:
        summary = reference.summary()
        diff = sorted(k for k in set(summary) | set(pinned) if summary.get(k) != pinned.get(k))
        if diff:
            pinned_ok = False
            errors.append(f"work counts differ from the fixed points in: {', '.join(diff)}")
    attempted = failed = 0
    for p in passes:
        errors.extend(p.errors)
        for i, op in enumerate(p.ops):
            attempted += 1
            if i >= len(reference.ops) or op.fingerprint != reference.ops[i].fingerprint:
                errors.append(f"operation {i} did not repeat: {op.fingerprint}")
                op.ok = False
            failed += not (op.ok and pinned_ok)
    return attempted, failed


def nearest_rank(values: list[float], q: Fraction) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def end_to_end(passes, setup_seconds, attempted, failed) -> tuple[dict, str]:
    """Best-of-N figures: each operation's latency is its fastest repetition.

    ``setup_s`` is the median of the run's set-ups, which are spread over
    the run between passes.

    The shared host slows whole stretches of a run by up to 2x, so a median
    over the run measures the neighbours as much as the code. Every pass
    repeats the same operations; the fastest repetition of each is the
    least disturbed measurement of it, and a pass's time is the sum of
    those (the work between operations is under 0.2% of a pass).
    """
    fastest = [min(p.ops[i].seconds for p in passes) for i in range(len(passes[0].ops))]
    n = len(fastest)
    # p90, or the highest percentile with TAIL_SAMPLES operations beyond it.
    q = min(Fraction(9, 10), Fraction(n - TAIL_SAMPLES, n)) if n > TAIL_SAMPLES else Fraction(9, 10)
    wall = sum(fastest)
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "wall_s": wall,
        "events_per_s": passes[0].events / wall,
        "op_p50_ms": 1000 * statistics.median(fastest),
        "op_p90_ms": 1000 * nearest_rank(fastest, q),
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = n - math.ceil(q * n)
    note = (f"{len(passes)} passes, {len(setup_seconds)} set-ups; op_p90_ms is the "
            f"p{float(q) * 100:.1f} of {n} operations, {beyond} beyond it")
    return metrics, note


# -- per-layer metrics --


def facade_calls(agg: Aggregate) -> dict[str, int]:
    return {op: agg.get(f"sim.Simulation.{op}").calls for op in FACADE_OPS}


def per_layer(agg: Aggregate, traced, base_passes, phase_seconds, declared: list[str]) -> dict:
    m: dict[str, float] = {}

    def ratio(num, den):
        return num / den if den else 0.0

    def calls_self(prefix: str, span: str):
        stats = agg.get(span)
        m[f"{prefix}.calls"] = stats.calls
        m[f"{prefix}.self_us"] = stats.self_ns / 1000
        return stats

    # ledger
    calls_self("ledger.append_event", "ledger.Ledger.append_event")
    m["ledger.export_log.us_per_event"] = ratio(
        agg.get("ledger.Ledger.export_log").total_ns / 1000,
        agg.count_under("ledger.EventRecord.to_json_line", "ledger.Ledger.export_log"))
    m["ledger.load_log_lines.us_per_line"] = ratio(
        agg.get("ledger.load_log_lines").total_ns / 1000,
        agg.count_under("ledger.EventRecord.from_json_line", "ledger.load_log_lines"))
    m["ledger.verify_records.us_per_record"] = ratio(
        agg.get("ledger.verify_records").total_ns / 1000,
        agg.count_under("ledger.record_hash", "ledger.verify_records"))
    summary = traced.summary()
    m["ledger.beacon.draws"] = summary["beacon_draws"]
    m["ledger.log.bytes"] = summary["log_bytes"]

    # identity
    m["identity.register.denied"] = calls_self("identity.register", "identity.IdentityRegistry.register").denied
    calls_self("identity.exclude", "identity.IdentityRegistry.exclude")

    # marketplace
    m["marketplace.buy_service.denied"] = calls_self(
        "marketplace.buy_service", "marketplace.Marketplace.buy_service").denied
    calls_self("marketplace.replenish_fund", "marketplace.Marketplace.replenish_fund")

    # tokens
    calls_self("tokens.active_srdt_for", "tokens.TokenBook.active_srdt_for")
    calls_self("tokens.expiry_sweep", "tokens.TokenBook.expiry_sweep")
    m["tokens.void_all.self_us"] = agg.get("tokens.TokenBook.void_all").self_ns / 1000

    # endorsement
    submit = calls_self("endorsement.submit_review", "endorsement.ReviewBoard.submit_review")
    m["endorsement.submit_review.denied"] = submit.denied
    m["endorsement.submit_review.accept_ratio"] = ratio(submit.calls - submit.denied, submit.calls)
    m["endorsement.endorse_review.denied"] = calls_self(
        "endorsement.endorse_review", "endorsement.ReviewBoard.endorse_review").denied
    for fn in ("pending_reviews", "run_endorser_selection", "bootstrap_endorsers"):
        calls_self(f"endorsement.{fn}", f"endorsement.ReviewBoard.{fn}")
    refund = [agg.get(f"endorsement.ReviewBoard.{fn}")
              for fn in ("file_refund_claim", "vote_refund", "settle_refund")]
    m["endorsement.refund.calls"] = sum(s.calls for s in refund)
    m["endorsement.refund.self_us"] = sum(s.self_ns for s in refund) / 1000

    # sim
    for op, calls in facade_calls(agg).items():
        m[f"sim.{op}.calls"] = calls
    conservation = agg.get("sim.Simulation.conservation_total")
    m["sim.conservation_total.self_us"] = conservation.self_ns / 1000
    m["sim.conservation_total.share"] = ratio(conservation.total_ns / 1e9, traced.wall_s)
    m["sim.init.self_us"] = agg.get("sim.Simulation.init").self_ns / 1000

    # adversary: phases and per-size cost come from the untraced base passes
    for phase, seconds in zip(PHASES, phase_seconds):
        m[f"adversary.phase.{phase}.share"] = ratio(seconds, sum(phase_seconds))
    for kind in SWEEP_KINDS:
        per_size = {}
        for honest in SWEEP_HONEST:
            runs = [p.scenario_runs[f"{kind}-{honest}"] for p in base_passes
                    if f"{kind}-{honest}" in p.scenario_runs]
            per_size[honest] = min(1e6 * s / n for s, n in runs) if runs else 0.0
            m[f"adversary.us_per_event.{kind}-{honest}"] = per_size[honest]
        m[f"adversary.superlinearity.{kind}"] = ratio(per_size[SWEEP_HONEST[-1]], per_size[SWEEP_HONEST[0]])
    m["adversary.replay_verify.fold_us_per_event"] = ratio(
        agg.get("adversary.replay_verify").self_ns / 1000,
        agg.count_under("ledger.EventRecord.from_json_line", "adversary.replay_verify"))
    prefix = "adversary.denials."
    for name in declared:
        if name.startswith(prefix):
            m[name] = summary["denials"].get(name[len(prefix):], 0)
    m[prefix + "other"] = sum(n for k, n in summary["denials"].items() if prefix + k not in declared)

    # config, reporting, cli
    m["config.parse_run_config.self_us"] = agg.get("config.parse_run_config").self_ns / 1000
    m["reporting.format_metrics_table.self_us"] = agg.get("reporting.format_metrics_table").self_ns / 1000
    cmd_run = agg.get("cli.cmd_run")
    m["cli.run.post_run_share"] = ratio(
        cmd_run.total_ns - agg.children_ns("cli.cmd_run", "adversary.run_scenario"), cmd_run.total_ns)
    m["cli.verify.self_us"] = agg.get("cli.cmd_verify").self_ns / 1000

    # the tracer itself, against the untraced pass right before the traced one:
    # the host's speed drifts over a run, less so between adjacent passes
    base_wall = base_passes[-1].wall_s
    m["bench.trace.overhead"] = traced.wall_s / base_wall
    m["bench.trace.base_wall_s"] = base_wall
    m["bench.trace.spans"] = len(agg.spans)
    return m


# -- one workload --


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, fixed: dict):
    TMP.mkdir(exist_ok=True)
    pinned = fixed.get("seeds", {}).get(name, {}).get(str(seed))
    run = Run(name, seed, fixed)
    errors = run.errors
    try:
        if trace:
            ddrm = run.workload.ddrm
            with PhaseClock(ddrm) as clock:
                run.measure(seconds, repeat_setup=False)
            passes = run.passes
            tracer = Tracer(ddrm.errors.DdrmError)
            tracer.install(ddrm)
            try:
                gc.collect()
                traced = run.workload.run_pass()
            finally:
                tracer.uninstall()
            attempted, failed = check(passes + [traced], passes[0], pinned and pinned["summary"], errors)
            agg = Aggregate(tracer)
            sim_calls = facade_calls(agg)
            if pinned is not None and sim_calls != pinned["sim_calls"]:
                errors.append(f"facade call counts differ from the fixed points: {sim_calls}")
                failed = attempted
            declared = [metric["name"] for metric in spec["per_layer"]]
            computed = per_layer(agg, traced, passes, clock.seconds, declared)
            OUT.mkdir(exist_ok=True)
            tracer.write_csv(OUT / f"spans-{name}.csv")
            units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
            note = f"traced pass {traced.wall_s:.3f} s, {len(agg.spans)} spans"
        else:
            run.measure(seconds, repeat_setup=True)
            passes = run.passes
            attempted, failed = check(passes, passes[0], pinned and pinned["summary"], errors)
            computed, note = end_to_end(passes, run.setup_seconds, attempted, failed)
            units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    finally:
        run.close()
    missing = sorted(set(units) - set(computed))
    if missing:
        raise BenchmarkError(f"metrics declared but not computed: {', '.join(missing)}")
    metrics = {k: {"value": computed[k], "unit": units[k]} for k in units}
    result = {"correct": not errors and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, errors, note


def report(name: str, seed: int, result: dict, errors: list[str], note: str) -> None:
    print(f"{name} seed {seed}: {result['attempted']} operations, {result['failed']} failed", file=sys.stderr)
    for key, metric in result["metrics"].items():
        print(f"  {key:48s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(f"  ({note})", file=sys.stderr)
    for line in errors[:20]:
        print(f"  check failed: {line}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own process, one after another; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


# -- fixed points --


def record_fixed_points(spec: dict) -> int:
    """Pin the canonical log hashes and each workload's work counts per seed."""
    TMP.mkdir(exist_ok=True)
    fixed: dict = {"canonical_log_hashes": {}, "seeds": {}}
    for name in WORKLOADS:
        fixed["seeds"][name] = {}
        for seed in PINNED_SEEDS:
            workload, _, _ = set_up(name, seed, fixed)
            errors: list[str] = []
            try:
                untraced = workload.run_pass()
                tracer = Tracer(workload.ddrm.errors.DdrmError)
                tracer.install(workload.ddrm)
                try:
                    traced = workload.run_pass()
                finally:
                    tracer.uninstall()
            finally:
                shutil.rmtree(workload.workdir, ignore_errors=True)
            check([untraced, traced], untraced, None, errors)
            if errors:
                print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                return 1
            agg = Aggregate(tracer)
            fixed["seeds"][name][str(seed)] = {
                "summary": untraced.summary(),
                "sim_calls": facade_calls(agg),
            }
            if name == "canonical-suite" and not fixed["canonical_log_hashes"]:
                fixed["canonical_log_hashes"] = {
                    op.fingerprint["scenario"]: op.fingerprint["hash"] for op in untraced.ops[:8]
                }
            print(f"{name} seed {seed}: {untraced.summary()}", file=sys.stderr)
    FIXED_POINTS_PATH.write_text(json.dumps(fixed, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=FIXED_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fixed-points", action="store_true",
                        help=f"re-pin hashes and work counts for seeds {PINNED_SEEDS}")
    args = parser.parse_args(argv)
    if not args.record_fixed_points and args.workload is None:
        parser.error("--workload is required")

    if not SPEC_PATH.is_file() or not (SRC / "ddrm" / "__init__.py").is_file():
        print(f"error: {ROOT} lacks BENCHMARK.json or src/ddrm", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    if args.record_fixed_points:
        return record_fixed_points(spec)
    if args.workload == "all":
        return run_all(args)
    fixed = json.loads(FIXED_POINTS_PATH.read_text(encoding="utf-8")) if FIXED_POINTS_PATH.is_file() else {}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        result, errors, note = run_workload(args.workload, args.seed, seconds, bool(args.trace), spec, fixed)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, result, errors, note)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
