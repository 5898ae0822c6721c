#!/usr/bin/env python3
"""Compare two sets of perfbench result records (A = parent, B = change).

    python3 perfbench/compare.py A.jsonl B.jsonl [--workload NAME]

Each file holds the records perfbench/run.py appends to
<build>/results/<workload>.jsonl. Records are paired in file order, so
run the two sides alternately (A B, B A, A B, ...) as the A/B recipe in
perfbench/README.md says. The comparison is refused when the two sides
were measured on different hosts or build types or with different run
lengths, or when a side mixes them. For every end-to-end metric it
prints each side's median and quartiles, the share of pairs B wins,
and a verdict:

  better     B wins at least 9/10 of the pairs and the medians differ by
             more than A's own quartile spread;
  worse      B's median is worse than A's by more than the metric's bound;
  unresolved A's spread is wider than the bound;
  same       otherwise.

It also reports cells whose digests differ between A and B for the same
seed: a change that only speeds the simulator must leave them equal.
Exit status: 0 when nothing is worse, 1 when something is, 2 when the
comparison is refused.
"""

import argparse
import json
import os
import statistics
import sys

HOST_KEYS = ("cpu_model", "nproc", "affinity", "jobs", "compiler",
             "build_type")


def load(path, workload):
    recs = []
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            if r["trace"] == 0 and (workload is None or
                                    r["workload"] == workload):
                recs.append(r)
    return recs


def host(rec):
    return tuple(rec["provenance"].get(k) for k in HOST_KEYS)


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--workload")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a, b = load(args.a, args.workload), load(args.b, args.workload)
    if not a or not b:
        sys.exit("compare: no untraced records to compare")
    hosts = {host(r) for r in a + b}
    if len(hosts) != 1:
        print("compare: refused, records come from different hosts or "
              "build types:", file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + json.dumps(dict(zip(HOST_KEYS, h))),
                  file=sys.stderr)
        return 2
    lengths = {r["seconds"] for r in a + b}
    if len(lengths) != 1:
        print("compare: refused, run lengths differ: "
              + ", ".join("%g s" % x for x in sorted(lengths)),
              file=sys.stderr)
        return 2
    workloads = {r["workload"] for r in a + b}
    if len(workloads) != 1:
        print("compare: refused, pass --workload to pick one of "
              + ", ".join(sorted(workloads)), file=sys.stderr)
        return 2

    digests_a = {r["seed"]: r["digest"] for r in a}
    differ = sorted(s for s, d in ((r["seed"], r["digest"]) for r in b)
                    if s in digests_a and digests_a[s] != d)
    pairs = min(len(a), len(b))
    print("workload %s: %d pairs (A %d runs, B %d runs)"
          % (workloads.pop(), pairs, len(a), len(b)))
    if pairs < 10:
        print("  fewer than ten pairs: no claim can rest on this")
    if differ:
        print("  digests differ for seeds " + ", ".join(differ))

    worse = False
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        higher = m["better"] == "higher"
        va = [r["result"]["metrics"][name]["value"] for r in a]
        vb = [r["result"]["metrics"][name]["value"] for r in b]
        qa, qb = quartiles(va), quartiles(vb)
        med_a, med_b = qa[1], qb[1]
        spread_a = (qa[2] - qa[0]) / med_a if med_a else 0.0
        wins = sum(1 for x, y in zip(va[:pairs], vb[:pairs])
                   if (y > x if higher else y < x))
        change = (med_b - med_a) / med_a if med_a else 0.0
        loss = -change if higher else change
        if loss > bound:
            verdict, worse = "worse", True
        elif wins >= 0.9 * pairs and abs(med_b - med_a) > qa[2] - qa[0]:
            verdict = "better"
        elif spread_a > bound:
            verdict = "unresolved"
        else:
            verdict = "same"
        print("  %-12s A %.5g [%.5g, %.5g]  B %.5g [%.5g, %.5g]  "
              "%+.1f%%  B wins %d/%d  %s"
              % (name, med_a, qa[0], qa[2], med_b, qb[0], qb[2],
                 100 * change, wins, pairs, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
