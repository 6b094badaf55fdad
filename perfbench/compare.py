"""Compare two benchmark result sets: a parent commit against a change.

Usage, from the root of a checkout:

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file is a result set written by ``run.py --record``. Runs are paired by
workload and seed. For every workload and end-to-end metric this prints each
side's median and quartiles, the share of pairs the change wins, and a
verdict:

- improved: the change wins at least nine tenths of the pairs, ties counting
  for neither, its median is better by more than the distance between the
  parent's quartiles, and no more commands failed than at the parent;
- unresolved: the parent's own spread (quartile distance over median) is
  wider than the metric's bound, and not every run of the change reads
  better than every run of the parent;
- worse: the change's median is worse than the parent's by more than the
  bound fixed in BENCHMARK.json;
- unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    return [r for r in records if r["info"]["trace"] == 0 and r["info"]["size"] == "full"]


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list, change: list, pairs: list, better: str, bound: float, more_failures: bool) -> tuple:
    """(verdict, win share) for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    share = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (c_med - p_med) / p_med
    if share >= 0.9 and -worse_by * p_med > p_q3 - p_q1 and not more_failures:
        return "improved", share
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if (p_q3 - p_q1) / p_med > bound and not all_better:
        return "unresolved", share
    if worse_by > bound:
        return "worse", share
    return "unchanged", share


def compare(parent_records: list, change_records: list, spec: dict) -> list[dict]:
    rows = []
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        parent = [r for r in parent_records if r["info"]["workload"] == workload]
        change = [r for r in change_records if r["info"]["workload"] == workload]
        if not parent or not change:
            continue
        failed_p = sum(r["result"]["failed"] for r in parent) / sum(r["result"]["attempted"] for r in parent)
        failed_c = sum(r["result"]["failed"] for r in change) / sum(r["result"]["attempted"] for r in change)
        by_seed = {}
        for r in parent:
            by_seed.setdefault(r["info"]["seed"], [[], []])[0].append(r)
        for r in change:
            by_seed.setdefault(r["info"]["seed"], [[], []])[1].append(r)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_values = [r["result"]["metrics"][name]["value"] for r in parent]
            c_values = [r["result"]["metrics"][name]["value"] for r in change]
            pairs = [
                (p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                for ps, cs in by_seed.values()
                for p, c in zip(ps, cs)
            ]
            outcome, share = verdict(p_values, c_values, pairs, metric["better"], metric["bound"], failed_c > failed_p)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "parent": quartiles(p_values),
                    "change": quartiles(c_values),
                    "runs": (len(p_values), len(c_values)),
                    "pairs": len(pairs),
                    "win_share": share,
                    "failed_ratio": (failed_p, failed_c),
                    "verdict": outcome,
                }
            )
    return rows


def machines(records: list) -> list:
    return sorted({json.dumps(r["info"]["machine"], sort_keys=True) for r in records})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(args.parent), load(args.change)
    for label, records in (("parent", parent), ("change", change)):
        for machine in machines(records):
            print(f"{label} machine: {machine}")
    print(f"{'workload':18} {'metric':12} {'parent q1/median/q3':34} {'change q1/median/q3':34} "
          f"{'runs':7} {'wins':5} {'failed p/c':13} verdict")
    for row in compare(parent, change, spec):
        p = "/".join(f"{v:.4g}" for v in row["parent"])
        c = "/".join(f"{v:.4g}" for v in row["change"])
        print(f"{row['workload']:18} {row['metric']:12} {p + ' ' + row['unit']:34} {c + ' ' + row['unit']:34} "
              f"{'%d/%d' % row['runs']:7} {row['win_share']:<5.2f} {'%.3f/%.3f' % row['failed_ratio']:13} "
              f"{row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
