"""Command-line front end: run scenarios, print the gas table, verify logs.

Commands
    run            execute the configured scenarios; write a summary table and,
                   per scenario, metrics JSON and the event log it re-verified
    gas-table      print the operation cost table
    verify         replay an exported log line by line: hash chain and metrics
    print-defaults dump the built-in configuration as JSON

Exit codes: 0 success, 2 configuration error or unwritable output_dir, 3
invariant violation during a run, 4 broken, malformed or non-UTF-8 event
log, 5 replayed metrics disagree with the recorded metrics file. Artifacts
contain no wall-clock timestamps, so reruns with one seed are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .adversary import ScenarioMetrics, replay_verify, run_scenario
from .config import RunConfig, default_config_doc, parse_run_config
from .errors import ChainBroken, ConfigError, DdrmError, InvariantViolation, MalformedEvent
from .reporting import format_gas_table, format_metrics_table, gas_table_json, gas_table_rows

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_CHAIN = 4
EXIT_MISMATCH = 5


def _load_config(path: str | None, seed: int | None, out: str | None) -> RunConfig:
    doc = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or an int literal past Python's digit limit
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError(f"config {path} is nested too deeply") from exc
    if seed is not None:
        doc["seed"] = seed
    if out is not None:
        doc["output_dir"] = out
    return parse_run_config(doc)


def _run_one(scenario, config: RunConfig, out_dir: Path) -> ScenarioMetrics:
    """Run one scenario, check it live, then publish the log bytes that replay from disk.

    The log streams to a temporary file, which `ddrm verify`'s replay reads back once the
    live state is released (one scenario's state at a time); only then is it renamed into
    place and the metrics file written. Any failure removes the temporary file.
    """
    result = run_scenario(scenario, config.protocol, config.seed)
    try:
        result.sim.ledger.verify_chain()
    except ChainBroken as exc:
        raise InvariantViolation(f"scenario {scenario.name}: chain broken at {exc.seq}: {exc.reason}") from exc
    metrics = result.metrics
    metrics_doc = {
        "scenario": scenario.name,
        "kind": scenario.kind,
        "seed": scenario.seed if scenario.seed is not None else config.seed,
        "final_log_hash": result.final_log_hash(),
        "metrics": metrics.to_dict(),
        "extras": result.extras,
    }
    tmp_path = out_dir / f"{scenario.name}.events.ndjson.tmp"
    try:
        with tmp_path.open("wb") as f:
            result.sim.ledger.write_log(f)
        del result
        with tmp_path.open("rb") as f:
            try:
                replayed = replay_verify(f)
            except (ChainBroken, MalformedEvent) as exc:
                raise InvariantViolation(f"scenario {scenario.name}: {exc}") from exc
        if replayed != metrics:
            raise InvariantViolation(f"scenario {scenario.name}: replayed metrics diverge")
        tmp_path.replace(out_dir / f"{scenario.name}.events.ndjson")
    finally:
        tmp_path.unlink(missing_ok=True)
    (out_dir / f"{scenario.name}.metrics.json").write_text(
        json.dumps(metrics_doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return metrics


def cmd_run(args) -> int:
    config = _load_config(args.config, args.seed, args.out)
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        named_metrics = [(s.name, _run_one(s, config, out_dir)) for s in sorted(config.scenarios, key=lambda s: s.name)]
        summary = format_metrics_table(named_metrics) if named_metrics else "no scenarios configured"
        (out_dir / "summary.txt").write_text(summary + "\n", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output_dir {out_dir}: {exc}") from exc
    if args.format == "json":
        print(json.dumps({name: m.to_dict() for name, m in named_metrics}, sort_keys=True, indent=2))
    else:
        print(summary)
    return EXIT_OK


def cmd_gas_table(args) -> int:
    config = _load_config(args.config, None, None)
    rows = gas_table_rows(config.protocol.gas, config.usd_per_ether)
    if args.format == "json":
        print(json.dumps(gas_table_json(rows), indent=2))
    else:
        print(format_gas_table(rows))
    return EXIT_OK


def cmd_verify(args) -> int:
    log_path = Path(args.log)
    try:
        # Binary, not text mode: universal newlines would turn CR and CRLF into LF.
        with log_path.open("rb") as log:
            replayed = replay_verify(log)
    except OSError as exc:
        print(f"error: cannot read log {log_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ChainBroken, MalformedEvent) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_CHAIN

    metrics_path = Path(args.metrics) if args.metrics else _sibling_metrics(log_path)
    if metrics_path is not None and metrics_path.exists():
        try:
            doc = json.loads(metrics_path.read_text(encoding="utf-8"))
            recorded = ScenarioMetrics(**doc["metrics"])
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            print(f"error: cannot read metrics {metrics_path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if replayed != recorded:
            print("metric mismatch between log replay and recorded metrics", file=sys.stderr)
            return EXIT_MISMATCH
        print(f"ok: chain intact, metrics match {metrics_path.name}")
    else:
        print("ok: chain intact (no metrics file to compare)")
    return EXIT_OK


def _sibling_metrics(log_path: Path) -> Path | None:
    name = log_path.name
    if name.endswith(".events.ndjson"):
        return log_path.with_name(name[: -len(".events.ndjson")] + ".metrics.json")
    return None


def cmd_print_defaults(_args) -> int:
    print(json.dumps(default_config_doc(), sort_keys=True, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddrm", description="DDRM reputation-protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run configured attack scenarios")
    run_p.add_argument("--config", required=True, help="path to JSON run config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.add_argument("--format", choices=("json", "table"), default="table")
    run_p.set_defaults(func=cmd_run)

    gas_p = sub.add_parser("gas-table", help="print the operation gas-cost table")
    gas_p.add_argument("--config", default=None, help="optional JSON run config")
    gas_p.add_argument("--format", choices=("json", "table"), default="table")
    gas_p.set_defaults(func=cmd_gas_table)

    verify_p = sub.add_parser("verify", help="verify an exported event log")
    verify_p.add_argument("log", help="path to an ndjson event log")
    verify_p.add_argument("--metrics", default=None, help="metrics JSON to compare against")
    verify_p.set_defaults(func=cmd_verify)

    defaults_p = sub.add_parser("print-defaults", help="dump the default configuration")
    defaults_p.set_defaults(func=cmd_print_defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except DdrmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
