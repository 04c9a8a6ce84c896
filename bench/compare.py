#!/usr/bin/env python3
"""Compare two benchmark result sets, e.g. a parent commit and a change.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file is a ``.bench_out/results.jsonl`` written by ``bench/run.py``.
For every workload and end-to-end metric it prints each side's median and
quartiles over its untraced runs, the runs paired by seed that NEW won, and
a verdict:

- ``unresolved``: a side's spread (quartile distance over median) exceeds
  the metric's bound, and not every NEW run beats every BASE run;
- ``gain``: NEW won at least nine tenths of the pairs, ties counting for
  neither, and the medians differ by more than BASE's quartile distance;
- ``regression``: NEW's median is worse than BASE's by more than the bound;
- ``no regression`` otherwise.

It refuses (exit 2) to compare runs whose environment differs: Python,
numpy, BLAS, processor count or a workload's resolved config. It flags (exit
1) runs of the same source and seed whose output digests or BA differ,
for any of the run's sub-seeds.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("python", "numpy", "blas", "nproc", "config_sha256")


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def bounds(benchmark_json=ROOT / "BENCHMARK.json") -> dict:
    with open(benchmark_json, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base: dict, new: dict, better: str, bound: float):
    """Compare {seed: value} maps for one metric; returns (verdict, wins, pairs)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - base) < 0 is a win
    b_med, b_q1, b_q3 = summary(list(base.values()))
    n_med, n_q1, n_q3 = summary(list(new.values()))
    pairs = sorted(set(base) & set(new))
    wins = sum(1 for s in pairs if sign * (new[s] - base[s]) < 0)
    spread = max((b_q3 - b_q1) / abs(b_med), (n_q3 - n_q1) / abs(n_med))
    if better == "lower":
        all_better = max(new.values()) < min(base.values())
    else:
        all_better = min(new.values()) > max(base.values())
    worse_by = sign * (n_med - b_med) / abs(b_med)
    if spread > bound:
        return ("better (every run)" if all_better else "unresolved"), wins, len(pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(n_med - b_med) > b_q3 - b_q1 and worse_by < 0:
        return "gain", wins, len(pairs)
    if worse_by > bound:
        return "regression", wins, len(pairs)
    return "no regression", wins, len(pairs)


def env_conflicts(records: list[dict]) -> list[str]:
    seen = defaultdict(set)
    for r in records:
        if "env" in r:
            seen[r["workload"]].add(tuple(r["env"][k] for k in ENV_KEYS))
    return [f"{w}: environments differ: {sorted(envs)}" for w, envs in seen.items() if len(envs) > 1]


def digest_conflicts(records: list[dict]) -> list[str]:
    """Runs of the same source and seed must produce identical outputs."""
    seen = defaultdict(set)
    for r in records:
        if "subseeds" in r:
            key = (r["workload"], r["seed"], r["env"]["source_sha256"])
            seen[key].add(json.dumps(r["subseeds"], sort_keys=True))
    return [f"{w} seed {s} source {src[:12]}: {len(v)} different outputs"
            for (w, s, src), v in seen.items() if len(v) > 1]


def compare(base_records, new_records, metric_bounds) -> list[dict]:
    rows = []
    for workload in sorted({r["workload"] for r in base_records + new_records}):
        def values(records, metric):
            return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in records
                    if r["workload"] == workload and not r["trace"] and r["result"]["metrics"]}
        for metric, (better, bound) in metric_bounds.items():
            base, new = values(base_records, metric), values(new_records, metric)
            if not base or not new:
                continue
            result, wins, pairs = verdict(base, new, better, bound)
            rows.append({
                "workload": workload, "metric": metric,
                "base": summary(list(base.values())), "new": summary(list(new.values())),
                "wins": wins, "pairs": pairs, "verdict": result,
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_records, new_records = load(argv[0]), load(argv[1])
    conflicts = env_conflicts(base_records + new_records)
    if conflicts:
        print("refusing to compare:\n  " + "\n  ".join(conflicts), file=sys.stderr)
        return 2
    print(f"{'workload':14s} {'metric':12s} {'base median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s} {'won':>7s}  verdict")
    for row in compare(base_records, new_records, bounds()):
        fmt = "{:.4g} [{:.4g}, {:.4g}]"
        print(f"{row['workload']:14s} {row['metric']:12s} {fmt.format(*row['base']):>30s} "
              f"{fmt.format(*row['new']):>30s} {row['wins']:>3d}/{row['pairs']:<3d}  {row['verdict']}")
    digests = digest_conflicts(base_records + new_records)
    if digests:
        print("outputs differ for the same source and seed:\n  " + "\n  ".join(digests),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
