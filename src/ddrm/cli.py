"""Command-line front end: run scenarios, print the gas table, verify logs.

Commands
    run            execute the configured scenarios; write a summary table and,
                   per scenario, metrics JSON and the event log it re-verified
    gas-table      print the operation cost table
    verify         replay an exported log line by line: hash chain, last hash, metrics
    print-defaults dump the built-in configuration as JSON

Exit codes: 0 success, 2 configuration error or unwritable output_dir, 3
invariant violation during a run, 4 broken, malformed or non-UTF-8 event
log, 5 replayed last hash or metrics differ from the metrics file. Artifacts
contain no wall-clock timestamps, so reruns with one seed are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .adversary import ScenarioMetrics, replay_verify, run_scenario
from .config import RunConfig, default_config_doc, parse_run_config
from .errors import ChainBroken, ConfigError, DdrmError, InvariantViolation, MalformedEvent
from .ledger import ZERO_DIGEST, quoted
from .reporting import format_gas_table, format_metrics_table, gas_table_json, gas_table_rows

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_CHAIN = 4
EXIT_MISMATCH = 5


def _unique_keys(pairs: list) -> dict:
    """An untrusted document's JSON object as a dict; ValueError names its first repeated key (json keeps the last)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {quoted(key)}")
        doc[key] = value
    return doc


def _load_config(path: str | None, seed: int | None, out: str | None) -> RunConfig:
    doc = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, an int literal past Python's digit limit, or a repeated key
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError(f"config {path} is nested too deeply") from exc
    if isinstance(doc, dict):  # parse_run_config refuses any other document
        if seed is not None:
            doc["seed"] = seed
        if out is not None:
            doc["output_dir"] = out
    return parse_run_config(doc)


def _replay(f) -> dict:
    """What a replay of f finds: its last record's hash (ZERO_DIGEST if none) and replay_verify's metrics."""
    last = [b""]

    def lines():
        for last[0] in f:
            yield last[0]

    metrics = replay_verify(lines())
    # That line passed every check of the replay, so it is one canonical record.
    head = json.loads(last[0])["hash"] if last[0] else ZERO_DIGEST
    return {"final_log_hash": head, **metrics.to_dict()}


def _claims(metrics_doc: dict) -> dict:
    """What a metrics document claims a replay of its log finds, keyed as _replay keys it.

    The document makes each ScenarioMetrics claim and no other: no default stands in for a missing
    claim. ValueError names the first claim missing, else the least unknown key.
    """
    claimed = metrics_doc["metrics"]
    if type(claimed) is not dict:
        raise TypeError(f"metrics must be an object, not {type(claimed).__name__}")
    names = ScenarioMetrics().to_dict().keys()
    odd = [name for name in names if name not in claimed] + sorted(claimed.keys() - names)
    if odd:
        raise ValueError(f"{'missing' if odd[0] in names else 'unknown'} claim {quoted(odd[0])}")
    return {"final_log_hash": metrics_doc["final_log_hash"], **{name: claimed[name] for name in names}}


def _differing(claims: dict, found: dict) -> list[str]:
    """One line per claim the replay did not find (the last hash covers its record's seq, so the count too).

    A claim matches only a value of its own type: no bool or float stands for an int, nor an int for a
    float. A claim is untrusted input, so it is quoted cut, at a length that keeps a whole hash.
    """
    return [f"{key}: recorded {quoted(claims[key], 80)}, replayed {found[key]!r}"
            for key in claims if type(claims[key]) is not type(found[key]) or claims[key] != found[key]]


def _run_one(scenario, config: RunConfig, out_dir: Path) -> ScenarioMetrics:
    """Run one scenario, then publish the log bytes whose replay from disk finds what its metrics file claims.

    A live record holds only the bytes the export writes, so the replay checks every record,
    and the live head anchors the chain. The log streams to a temporary file, read back once
    the live state is released (one scenario's state at a time); only then is it renamed into
    place and the metrics file written. Any failure removes the temporary file. The replay is
    judged exactly as a later `ddrm verify` of the two files judges it.
    """
    result = run_scenario(scenario, config.protocol, config.seed)
    metrics = result.metrics
    metrics_doc = {
        "scenario": scenario.name,
        "kind": scenario.kind,
        "seed": result.sim.seed,
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
                found = _replay(f)
            except (ChainBroken, MalformedEvent) as exc:
                raise InvariantViolation(f"scenario {scenario.name}: {exc}") from exc
        differing = _differing(_claims(metrics_doc), found)
        if differing:
            lines = [f"scenario {scenario.name}: replay from disk differs from the live run:", *differing]
            raise InvariantViolation("\n  ".join(lines))
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
            found = _replay(log)
    except OSError as exc:
        print(f"error: cannot read log {log_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ChainBroken, MalformedEvent) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_CHAIN

    # Only the sibling may be absent; a --metrics path that cannot be read exits 2.
    metrics_path = Path(args.metrics) if args.metrics else _sibling_metrics(log_path)
    if metrics_path is not None:
        try:
            claims = _claims(json.loads(metrics_path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys))
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            print(f"error: cannot read metrics {metrics_path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        differing = _differing(claims, found)
        if differing:
            print("mismatch between log replay and recorded metrics:", *differing, sep="\n  ", file=sys.stderr)
            return EXIT_MISMATCH
        print(f"ok: chain intact, metrics match {metrics_path.name}")
    else:
        print("ok: chain intact (no metrics file to compare)")
    return EXIT_OK


def _sibling_metrics(log_path: Path) -> Path | None:
    name = log_path.name
    if name.endswith(".events.ndjson"):
        sibling = log_path.with_name(name[: -len(".events.ndjson")] + ".metrics.json")
        if sibling.exists():
            return sibling
    return None


def cmd_print_defaults(_args) -> int:
    print(json.dumps(default_config_doc(), sort_keys=True, indent=2))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: main parses every command line with it."""
    parser = argparse.ArgumentParser(prog="ddrm", description="DDRM reputation-protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run configured attack scenarios")
    run_p.add_argument("--config", required=True, help="path to JSON run config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.add_argument("--format", choices=("json", "table"), default="table")

    gas_p = sub.add_parser("gas-table", help="print the operation gas-cost table")
    gas_p.add_argument("--config", default=None, help="optional JSON run config")
    gas_p.add_argument("--format", choices=("json", "table"), default="table")

    verify_p = sub.add_parser("verify", help="verify an exported event log")
    verify_p.add_argument("log", help="path to an ndjson event log")
    verify_p.add_argument("--metrics", default=None, help="metrics JSON to compare against")

    sub.add_parser("print-defaults", help="dump the default configuration")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Looked up at each call, not bound in the parser, so a cmd_* replaced after the first call is the one run.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
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
