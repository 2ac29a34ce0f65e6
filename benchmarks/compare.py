#!/usr/bin/env python3
"""Paired comparison of a parent and a change checkout on the benchmark.

    python3 benchmarks/compare.py --parent ../parent --change . --out pairs.jsonl
    python3 benchmarks/compare.py --load pairs.jsonl

Every workload of BENCHMARK.json runs in 10 pairs. Pair i runs seed
1000 + i on both sides, the parent first when i is even and the change
first when i is odd, with the same ``run_seconds``. For every workload
and end-to-end metric it prints both sides' medians and quartiles, the
share of pairs the change won (ties count for neither) and a verdict:

* unresolved: fewer than 10 complete pairs, or the parent's spread is
  wider than the metric's bound and not every change run beats every
  parent run;
* improved: the change won at least 9 of 10 pairs, the medians differ by
  more than the parent's own quartile spread, and no more operations
  failed than on the parent;
* worse: the change's median is worse than the parent's by more than
  the bound;
* within bound: otherwise.

A further row per workload compares the failed operations summed over
the pairs: worse whenever the change fails more than the parent, at any
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

PAIRS = 10
BASE_SEED = 1000
WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool = False) -> tuple[str, float]:
    """(verdict, share of pairs won by the change) for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    share = wins / len(parent) if parent else 0.0
    if len(parent) < PAIRS or len(change) < PAIRS:
        return "unresolved", share
    mp, mc = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4)
    iqr = q[2] - q[0]
    if share >= WIN_SHARE and sign * (mp - mc) > iqr and not more_failures:
        return "improved", share
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if mp and iqr / abs(mp) > bound and not all_better:
        return "unresolved", share
    if mp and sign * (mc - mp) / abs(mp) > bound:
        return "worse", share
    return "within bound", share


def run_side(root: Path, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args, bench) -> list[dict]:
    rows = []
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in (w["name"] for w in bench["workloads"]):
            for side in order:
                result = run_side(sides[side], bench["command"], workload, BASE_SEED + i, bench["run_seconds"])
                rows.append({"pair": i, "side": side, "workload": workload, "seed": BASE_SEED + i,
                             "first": side == order[0], **result})
                print(f"pair {i} {workload} {side}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return rows


def report(rows: list[dict], bench: dict) -> list[str]:
    lines = [f"{'workload':12} {'metric':12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
             f"{'won':>5}  verdict"]
    for workload in dict.fromkeys(r["workload"] for r in rows):
        by_pair = {s: {r["pair"]: r for r in rows if r["workload"] == workload and r["side"] == s}
                   for s in ("parent", "change")}
        pairs = sorted(by_pair["parent"].keys() & by_pair["change"].keys())
        by_side = {s: [by_pair[s][i] for i in pairs] for s in by_pair}
        failed = {s: sum(r["failed"] for r in by_side[s]) for s in by_side}
        more_failures = failed["change"] > failed["parent"]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            vals = {s: [r["metrics"][name]["value"] for r in by_side[s]] for s in by_side}
            result, share = verdict(vals["parent"], vals["change"], metric["better"], metric["bound"], more_failures)

            def summary(v):
                if not v:
                    return "no complete pair"
                med = statistics.median(v)
                q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
                return f"{med:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

            lines.append(f"{workload:12} {name:12} {summary(vals['parent']):>30} {summary(vals['change']):>30} "
                         f"{share:5.0%}  {result}")
        lines.append(f"{workload:12} {'failed ops':12} {failed['parent']:>30} {failed['change']:>30} "
                     f"{'':>5}  {'worse' if more_failures else 'not worse'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--out", help="write every run as JSON lines")
    parser.add_argument("--load", help="report on runs saved with --out instead of running")
    args = parser.parse_args(argv)
    bench_root = Path(args.change) if args.change else Path(__file__).resolve().parent.parent
    bench = json.loads((bench_root / "BENCHMARK.json").read_text())
    if args.load:
        rows = [json.loads(line) for line in Path(args.load).read_text().splitlines() if line.strip()]
    else:
        if not (args.parent and args.change):
            parser.error("--parent and --change are required unless --load is given")
        rows = collect(args, bench)
        if args.out:
            Path(args.out).write_text("".join(json.dumps(r) + "\n" for r in rows))
    print("\n".join(report(rows, bench)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
