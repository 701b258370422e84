#!/usr/bin/env python3
"""Compare two builds of graphct_bench, or one build against itself.

    python3 bench/suite/ab.py A_BUILD B_BUILD [--pairs 10] [--seed 1]
                              [--holdout-seed 1000] [--seconds S]
                              [--workloads bc_rmat,server_mixed]
    python3 bench/suite/ab.py --same BUILD [--pairs 5] ...

A_BUILD is the parent's build directory (it holds graphct_bench), B_BUILD
the change's. Pair i runs both sides on seed + i, alternating which side
runs first; --holdout-seed adds one more pair on a seed not used while the
change was written, reported on its own. For each workload and end-to-end
metric it prints each side's median, q1 and q3, the fraction of pairs the
change won (ties count for neither side) and a verdict by the rule in the
choosing-metrics guide, section 8:

  improved      B wins at least 9/10 of the pairs and the medians differ by
                more than A's quartile spread
  worse         B's median is worse than A's by more than the bound
  unresolved    A's own spread is wider than the bound and B does not read
                better than A on every run
  within bound  none of the above

Bounds and the default run length come from BENCHMARK.json; end-to-end
lines it does not list (such as read_p99_ms) use the op_ms bound. --same
runs one build as both sides and exits non-zero unless every end-to-end
median is within its bound of the other side's and every exact count (unit
"count") is identical within each pair.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ["twitter_pipeline", "bc_rmat", "bc_packed", "bc_dist", "server_mixed"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def run_once(build, workload, seed, seconds):
    """One untraced run; returns {metric: (value, unit, kind)} and correctness."""
    cmd = [os.path.join(build, "graphct_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    metrics, correct = {}, False
    for line in proc.stdout.splitlines():
        row = json.loads(line)
        if "metric" in row:
            metrics[row["metric"]] = (row["value"], row["unit"], row["kind"])
        elif "correct" in row:
            correct = row["correct"] and proc.returncode == 0
    return metrics, correct


def run_pairs(a, b, workload, seeds, seconds):
    """[(a_metrics, b_metrics)] per seed, alternating which side goes first."""
    pairs, failures = [], 0
    for i, seed in enumerate(seeds):
        order = [("a", a), ("b", b)] if i % 2 == 0 else [("b", b), ("a", a)]
        got = {}
        for side, build in order:
            metrics, correct = run_once(build, workload, seed, seconds)
            failures += 0 if correct else 1
            got[side] = metrics
            print(f"  {workload} seed {seed} {side}: {'ok' if correct else 'FAILED'}",
                  file=sys.stderr, flush=True)
        pairs.append((got["a"], got["b"]))
    return pairs, failures


def quart(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(av, bv, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    (ma, q1a, q3a), (mb, _, _) = quart(av), quart(bv)
    wins = sum(1 for x, y in zip(av, bv) if sign * (y - x) > 0)
    gain = sign * (mb - ma) / ma if ma else 0.0
    spread = (q3a - q1a) / ma if ma else float("inf")
    all_better = min(sign * y for y in bv) > max(sign * x for x in av)
    all_worse = max(sign * y for y in bv) < min(sign * x for x in av)
    if wins >= 0.9 * len(av) and abs(mb - ma) > (q3a - q1a) and gain > 0:
        v = "improved"
    elif all_worse and -gain > bound:
        v = "worse"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif -gain > bound:
        v = "worse"
    else:
        v = "within bound"
    return v, wins, gain


def e2e_names(pairs):
    names = []
    for a, b in pairs:
        for name, (_, _, kind) in list(a.items()) + list(b.items()):
            if kind == "e2e" and name != "fail_frac" and name not in names:
                names.append(name)
    return names


def report(workload, pairs, spec):
    rows = []
    for name in e2e_names(pairs):
        both = [(a[name][0], b[name][0]) for a, b in pairs if name in a and name in b]
        if not both:
            continue
        av, bv = [x for x, _ in both], [y for _, y in both]
        m = spec.get(name, {"better": "higher" if name.endswith("per_s") else "lower",
                            "bound": spec["op_ms"]["bound"]})
        v, wins, gain = verdict(av, bv, m["better"], m["bound"])
        (ma, q1a, q3a), (mb, q1b, q3b) = quart(av), quart(bv)
        rows.append((name, abs(mb - ma) / ma if ma else 0.0, m["bound"]))
        print(f"{workload:16s} {name:14s} A {ma:11.5g} [{q1a:.5g}, {q3a:.5g}]  "
              f"B {mb:11.5g} [{q1b:.5g}, {q3b:.5g}]  wins {wins}/{len(av)}  "
              f"{gain:+.1%} better  {v}")
    return rows


def counts_identical(pairs):
    bad = []
    for a, b in pairs:
        for name, (value, unit, _) in a.items():
            if unit == "count" and name in b and b[name][0] != value:
                bad.append(f"{name}: {value} vs {b[name][0]}")
    return bad


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("builds", nargs="*")
    p.add_argument("--same", metavar="BUILD")
    p.add_argument("--pairs", type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--holdout-seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    args = p.parse_args()

    spec, run_seconds = load_spec()
    seconds = args.seconds or run_seconds
    if args.same:
        a = b = args.same
        pairs_n = args.pairs or 5
    elif len(args.builds) == 2:
        a, b = args.builds
        pairs_n = args.pairs or 10
    else:
        p.error("give two build directories, or --same BUILD")
    seeds = [args.seed + i for i in range(pairs_n)]

    ok = True
    for w in args.workloads.split(","):
        pairs, failures = run_pairs(a, b, w, seeds, seconds)
        rows = report(w, pairs, spec)
        if failures:
            ok = False
            print(f"{w:16s} {failures} run(s) failed their output checks")
        if args.same:
            for name, rel, bound in rows:
                if rel > bound:
                    ok = False
                    print(f"{w:16s} {name}: medians differ by {rel:.1%} > bound {bound:.0%}")
            for msg in counts_identical(pairs):
                ok = False
                print(f"{w:16s} count differs: {msg}")
        if args.holdout_seed is not None:
            held, failures = run_pairs(a, b, w, [args.holdout_seed], seconds)
            print(f"{w:16s} holdout seed {args.holdout_seed}:")
            report(w, held, spec)
            ok = ok and not failures
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
