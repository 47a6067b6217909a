#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

Collect one set (one JSON line per run, from the repository root):

    python3 servebench/compare.py collect --out base.jsonl --seeds 1-10 \
        [--workloads chat_multiturn,reasoning_decode] [--trace 0]

Each run lasts BENCHMARK.json's run_seconds. Compare a parent set with a
change set:

    python3 servebench/compare.py compare base.jsonl change.jsonl

Runs are paired by seed. A run is invalid when it exited non-zero or its
result says correct=false (a failed request, a replay mismatch or a leaked
KV page); its metrics are left out. For every workload the tool prints each
side's runs, invalid runs and failed/attempted requests, then for every
metric each side's median and quartiles, the pairs each side won (ties
count for neither) and a verdict under the rules of the benchmark's README:

  gain        the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound (end-to-end metrics only)
  unresolved  either side's spread (interquartile range / median) exceeds
              the bound, and not every change run beats every parent run
  unchanged   none of the above

No gain is granted on a workload where the change failed more requests
than the parent or had an invalid run; such a would-be gain reads
"no gain (failures)".

Exit code 1 when any end-to-end metric is "worse", or on any workload the
change failed more requests than the parent or had an invalid run; else 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {}
    for m in bench["end_to_end"]:
        metrics[m["name"]] = dict(m, kind="end_to_end")
    for m in bench["per_layer"]:
        metrics[m["name"]] = dict(m, kind="per_layer", bound=None)
    return bench, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args):
    bench, _ = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for w in workloads:
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]),
                                          "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, json.JSONDecodeError):
                    sys.stderr.write(proc.stdout + proc.stderr)
                    sys.exit(f"run {w} seed {seed} printed no result "
                             f"(exit {proc.returncode})")
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "trace": args.trace,
                                      "exit": proc.returncode,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{w} seed {seed}: exit {proc.returncode}, "
                      f"correct={result['correct']}, "
                      f"failed {result['failed']}/{result['attempted']}",
                      flush=True)


def read_set(path):
    """{(workload, trace): {seed: record}}; a later line for the same key
    and seed replaces an earlier one."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                key = (rec["workload"], rec.get("trace", 0))
                runs.setdefault(key, {})[rec["seed"]] = rec
    return runs


def valid(rec):
    return rec.get("exit", 0) == 0 and rec["result"]["correct"] is True


def failures(recs):
    """(runs, invalid runs, failed requests, attempted requests)"""
    return (len(recs), sum(1 for r in recs if not valid(r)),
            sum(r["result"]["failed"] for r in recs),
            sum(r["result"]["attempted"] for r in recs))


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better, bound):
    """Returns (verdict, change_wins, base_wins) for two lists paired by
    position."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    c_wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    b_wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (cmed - bmed)
    if bound is not None and bmed != 0:
        if gap < 0 and -gap / abs(bmed) > bound:
            return "worse", c_wins, b_wins
        spreads = [(q3 - q1) / abs(m) if m else float("inf")
                   for q1, m, q3 in ((bq1, bmed, bq3), (cq1, cmed, cq3))]
        all_better = all(sign * (c - b) > 0 for c in change for b in base)
        if max(spreads) > bound and not all_better:
            return "unresolved", c_wins, b_wins
    if pairs and c_wins >= 0.9 * len(pairs) and gap > (bq3 - bq1):
        return "gain", c_wins, b_wins
    return "unchanged", c_wins, b_wins


def compare(args):
    _, metrics = load_benchmark()
    base, change = read_set(args.base), read_set(args.change)
    status = 0
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        seeds = sorted(set(base[key]) & set(change[key]))
        b_recs = [base[key][s] for s in seeds]
        c_recs = [change[key][s] for s in seeds]
        print(f"\n== {workload} (trace {trace}), {len(seeds)} seeds paired")
        b_fail, c_fail = failures(b_recs), failures(c_recs)
        for side, (n, bad, failed, attempted) in (("parent", b_fail),
                                                  ("change", c_fail)):
            print(f"{side}: {n} runs, {bad} invalid, "
                  f"{failed}/{attempted} requests failed")
        failed_more = c_fail[2] > b_fail[2] or c_fail[1] > 0
        if failed_more:
            print("the change failed more requests than the parent or had "
                  "an invalid run: no gain is granted")
            status = 1
        print(f"{'metric':34s} {'parent q1/med/q3':>32s} "
              f"{'change q1/med/q3':>32s} {'wins c:p':>9s}  verdict")
        # Only seeds whose runs are valid on both sides are compared.
        good = [s for s in seeds
                if valid(base[key][s]) and valid(change[key][s])]
        if not good:
            print("no seed has a valid run on both sides")
            continue
        for name in base[key][good[0]]["result"]["metrics"]:
            try:
                b = [base[key][s]["result"]["metrics"][name]["value"] for s in good]
                c = [change[key][s]["result"]["metrics"][name]["value"] for s in good]
            except KeyError:
                continue
            info = metrics.get(name, {"better": "lower", "bound": None})
            v, cw, bw = verdict(b, c, info["better"], info.get("bound"))
            if v == "worse" and info.get("kind") == "end_to_end":
                status = 1
            if v == "gain" and failed_more:
                v = "no gain (failures)"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{name:34s} {fmt(quartiles(b)):>32s} {fmt(quartiles(c)):>32s} "
                  f"{cw:>4d}:{bw:<4d}  {v}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark and append results")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    c.add_argument("--workloads", default="")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("compare", help="compare a parent set with a change set")
    p.add_argument("base")
    p.add_argument("change")
    args = ap.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
