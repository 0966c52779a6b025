#!/usr/bin/env python3
"""Measure the baseline: two ten-run sets per workload and one traced run each.

    python3 bench/baseline.py [--workload NAME ...]

Per workload, one process at a time, it runs ``bench/run.py``:

- ``repeats``: ten times at the fixed seed 0. Inputs are the same in every
  run, so the spread is the host's alone; the bounds in ``BENCHMARK.json``
  are set from it.
- ``seeds``: once at each of the seeds 0-9, as an acceptance check does.
  Its spread adds the (under 1%) variation in work between seeds.
- one traced run (``--trace 1``) at seed 0 for the per-layer numbers.

For each end-to-end metric and set it records the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles over the median, next to the metric's bound; ``agreement`` is
how much worse the second set's median is than the first's, as a share of
the first. Results go to ``bench/baseline.json``; with ``--workload`` only
those workloads' entries are replaced. Exits 1 if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = HERE / "baseline.json"
RUNS = 10
FIXED_SEED = 0


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def run_set(workload: str, seeds: list[int], bounds: dict) -> tuple[dict, bool]:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ok = True
    for seed in seeds:
        result = run(workload, seed, 0)
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
    stats = {}
    for name, vals in values.items():
        q1, mid, q3 = statistics.quantiles(vals, n=4)
        stats[name] = {
            "unit": units[name], "median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0, "bound": bounds[name], "values": vals,
        }
        print(f"  {name:14s} median {mid:12.6g}  spread {stats[name]['spread']:.3f}"
              f"  bound {bounds[name]}", file=sys.stderr)
    return stats, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args()
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    bounds = {name: m["bound"] for name, m in metrics.items()}
    doc = json.loads(OUT.read_text(encoding="utf-8")) if args.workload and OUT.is_file() else {}
    doc.update(runs=RUNS, run_seconds=SPEC["run_seconds"])
    doc.setdefault("workloads", {})
    ok = True
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        repeats, ok_repeats = run_set(workload, [FIXED_SEED] * RUNS, bounds)
        seeds, ok_seeds = run_set(workload, list(range(RUNS)), bounds)
        agreement = {}
        for name, first in repeats.items():
            worse = seeds[name]["median"] / first["median"] - 1 if first["median"] else 0.0
            agreement[name] = worse if metrics[name]["better"] == "lower" else -worse
        traced = run(workload, FIXED_SEED, 1)
        ok = ok and ok_repeats and ok_seeds and traced["correct"]
        doc["workloads"][workload] = {
            "repeats_seed_0": repeats,
            "seeds_0_to_9": seeds,
            "agreement": agreement,
            "per_layer_seed_0": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
