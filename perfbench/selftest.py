#!/usr/bin/env python3
"""Self-tests of the repo benchmark.

    python3 perfbench/selftest.py [--seconds S]

Runs perfbench/run.py from the root of the checkout and checks that
the benchmark notices what it must:

  - a traced run of every workload is correct: each traced cell's digest
    equals the untraced cell's (run.py counts a difference as failed);
  - PINTE_INJECT_FAULT=job:N makes exactly one sweep_detailed cell fail;
  - PINTE_INJECT_FAULT=worker-crash:N makes exactly one cell fail on each
    campaign workload.

Exit status 0 when every check passes.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["sweep_detailed", "sweep_sampled", "campaign_spool",
             "campaign_process"]


def run(workload, seconds, trace, fault=None):
    env = dict(os.environ)
    env.pop("PINTE_INJECT_FAULT", None)
    if fault:
        env["PINTE_INJECT_FAULT"] = fault
    r = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-2000:])
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()

    checks = []
    for w in WORKLOADS:
        res = run(w, args.seconds, 1)
        checks.append(("traced digests equal untraced on " + w,
                       res is not None and res["correct"]
                       and res["failed"] == 0))
    faults = [("sweep_detailed", "job:5")] + [
        (w, "worker-crash:3") for w in ("campaign_process",
                                        "campaign_spool")]
    for w, fault in faults:
        res = run(w, args.seconds, 0, fault)
        checks.append(("%s fails exactly one %s cell" % (fault, w),
                       res is not None and not res["correct"]
                       and res["failed"] == 1))
    for name, ok in checks:
        print("%s  %s" % ("ok  " if ok else "FAIL", name))
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
