#!/usr/bin/env python3
"""Compare end-to-end metrics of a parent and a change commit.

Each result file is the stdout of one `run.sh --trace 0` run: a
`workload: W` header line and the JSON result as the last line. Give the
runs in the order they were made, alternating which side ran first; the
i-th parent run of a workload is paired with its i-th change run.

    python3 bench/suite/compare.py --parent p1.txt p2.txt ... \
                                   --change c1.txt c2.txt ...

For every workload x end-to-end metric it prints each side's median and
quartiles, the change's win fraction over the pairs, and a verdict:

  improved      the change wins >= 9/10 of the pairs (ties count for
                neither) and the medians differ by more than the parent's
                interquartile distance;
  regressed     the change's median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json;
  unresolved    the parent's own spread (IQR / median) is wider than the
                bound and not every change run beats every parent run;
  within bound  otherwise.

Exit code 0 when nothing regressed, 1 when something did, 2 on bad input
(fewer than 10 pairs of a workload, unreadable files).
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10


def load(path):
    lines = Path(path).read_text().strip().splitlines()
    workload = next((l.split(":", 1)[1].strip() for l in lines
                     if l.startswith("workload:")), None)
    if workload is None:
        raise ValueError(f"{path}: no 'workload:' line")
    result = json.loads(lines[-1])
    return workload, {k: v["value"] for k, v in result["metrics"].items()}


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4)
    c_q = statistics.quantiles(change, n=4)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    win_frac = wins / len(parent)
    worse = sign * (c_med - p_med) / p_med
    spread = (p_q[2] - p_q[0]) / p_med
    if win_frac >= 0.9 and sign * (p_med - c_med) > p_q[2] - p_q[0]:
        v = "improved"
    elif worse > bound:
        v = "regressed"
    elif spread > bound and not all(sign * (p - c) > 0
                                    for p in parent for c in change):
        v = "unresolved"
    else:
        v = "within bound"
    return p_med, p_q, c_med, c_q, win_frac, worse, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parents[2] / "BENCHMARK.json"))
    args = ap.parse_args()

    try:
        spec = json.loads(Path(args.benchmark).read_text())
        runs = {"parent": defaultdict(list), "change": defaultdict(list)}
        for side in runs:
            for path in getattr(args, side):
                workload, metrics = load(path)
                runs[side][workload].append(metrics)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2

    regressed = False
    for w in spec["workloads"]:
        name = w["name"]
        parent, change = runs["parent"][name], runs["change"][name]
        pairs = min(len(parent), len(change))
        if pairs == 0:
            continue
        if pairs < MIN_PAIRS:
            print(f"compare.py: {name}: {pairs} pairs, need {MIN_PAIRS}",
                  file=sys.stderr)
            return 2
        print(f"{name} ({pairs} pairs)")
        print(f"  {'metric':14s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'wins':>5s} {'worse':>7s}"
              "  verdict")
        for m in spec["end_to_end"]:
            p = [r[m["name"]] for r in parent[:pairs]]
            c = [r[m["name"]] for r in change[:pairs]]
            p_med, p_q, c_med, c_q, win, worse, v = verdict(
                p, c, m["better"], m["bound"])
            regressed |= v == "regressed"
            print(f"  {m['name']:14s} {p_med:11.5g} [{p_q[0]:9.5g}, "
                  f"{p_q[2]:9.5g}] {c_med:11.5g} [{c_q[0]:9.5g}, "
                  f"{c_q[2]:9.5g}] {win:5.2f} {worse:+7.1%}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
