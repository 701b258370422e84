#!/usr/bin/env python3
"""Validate bench/dist_profile output (one JSON object per line).

Usage: validate_dist_bench.py FILE [--workers 1 2 4]

Checks the two row kinds:

  * partition (one per worker count): edge_cut_fraction in [0, 1] and 0
    for a single block; imbalance >= 1 (a max/mean ratio);
  * kernel (bfs, components, pagerank, bc per worker count): parity ==
    true — bfs, components, and bc must match the single-process kernels
    exactly (bc bitwise: max_abs_diff must be 0), pagerank within
    max_abs_diff <= 1e-9 — plus sane accounting (seconds > 0, steps > 0,
    messages/bytes sent > 0).

Rows whose workers * worker_threads exceed the recorded hw_concurrency
are flagged with a warning on stderr but do not fail validation:
oversubscribed rows measure protocol overhead and contention, not
speedup.

Exits non-zero with a message on the first violation — this is the CI
gate for the distributed substrate's parity guarantee.
"""

import argparse
import json
import sys

NUMERIC = (int, float)

KERNELS = ("bfs", "components", "pagerank", "bc")


def fail(msg):
    print(f"validate_dist_bench: {msg}", file=sys.stderr)
    sys.exit(1)


def warn(msg):
    print(f"validate_dist_bench: WARNING {msg}", file=sys.stderr)


def need(row, field, types=NUMERIC):
    if field not in row:
        fail(f"row {row.get('row')!r} missing field {field!r}: {row}")
    if not isinstance(row[field], types):
        fail(f"field {field!r} has type {type(row[field]).__name__}: {row}")
    return row[field]


def oversubscribed(row):
    """True when the row's worker processes (times their per-worker OpenMP
    teams) exceed the recorded core count.  Older bench outputs lack the
    meta fields; treat those as not oversubscribed."""
    cores = row.get("hw_concurrency", 0)
    workers = row.get("workers", 0)
    threads = row.get("worker_threads", 1)
    return cores > 0 and workers * threads > cores


def warn_if_oversubscribed(row, where):
    if oversubscribed(row):
        warn(
            f"{where}: workers={row['workers']} x "
            f"worker_threads={row.get('worker_threads', 1)} oversubscribes "
            f"hw_concurrency={row['hw_concurrency']} — timings measure "
            f"protocol overhead, not speedup"
        )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("file")
    ap.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    args = ap.parse_args()

    rows = []
    with open(args.file, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as e:
                fail(f"line {lineno} is not valid JSON: {e}")

    rows = [r for r in rows if r.get("bench") == "dist_profile"]
    if not rows:
        fail("no dist_profile rows found")

    partitions = {need(r, "workers", int): r
                  for r in rows if r.get("row") == "partition"}
    for w in args.workers:
        r = partitions.get(w)
        if r is None:
            fail(f"missing partition row for workers={w}")
        cut = need(r, "edge_cut_fraction")
        if not 0.0 <= cut <= 1.0:
            fail(f"edge_cut_fraction out of [0, 1]: {r}")
        if w == 1 and cut != 0.0:
            fail(f"a single block cannot cut edges: {r}")
        if need(r, "imbalance") < 1.0:
            fail(f"imbalance is max/mean and cannot be < 1: {r}")

    kernel_rows = {(r.get("kernel"), need(r, "workers", int)): r
                   for r in rows if r.get("row") == "kernel"}
    for kernel in KERNELS:
        for w in args.workers:
            r = kernel_rows.get((kernel, w))
            if r is None:
                fail(f"missing kernel row for {kernel} workers={w}")
            if need(r, "parity", bool) is not True:
                fail(f"parity failure — distributed {kernel} diverged: {r}")
            if kernel == "pagerank" and need(r, "max_abs_diff") > 1e-9:
                fail(f"pagerank drifted past 1e-9 per vertex: {r}")
            if kernel == "bc" and need(r, "max_abs_diff") != 0:
                fail(f"bc parity is bitwise — any drift is a failure: {r}")
            if need(r, "seconds") <= 0:
                fail(f"seconds must be positive: {r}")
            if need(r, "steps", int) <= 0:
                fail(f"no supersteps driven: {r}")
            if need(r, "messages_sent", int) <= 0:
                fail(f"no messages sent: {r}")
            if need(r, "bytes_sent", int) <= 0:
                fail(f"no bytes sent: {r}")
            warn_if_oversubscribed(r, f"kernel {kernel} workers={w}")

    print(
        f"validate_dist_bench: OK ({len(partitions)} partition rows, "
        f"{len(kernel_rows)} kernel rows, workers {sorted(partitions)})"
    )


if __name__ == "__main__":
    main()
