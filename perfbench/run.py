#!/usr/bin/env python3
"""The repo benchmark: contention-sweep throughput of pintesim.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the simulator library, the pintesim CLI and the perfbench
program from source (Release, into $CARGO_TARGET_DIR or .bench_build),
runs one workload for S seconds, checks every cell's simulated counters
and prints one JSON object as the last line of stdout. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer metrics of a separate
traced run. Each run also appends a result record with provenance (host,
compiler, build type, commit) to <build>/results/<workload>.jsonl;
perfbench/compare.py compares two such files. See perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 1
U64_MAX = 2**64 - 1

# The four contention classes every workload sweeps: llc-bound,
# dram-bound, core-bound and streaming.
CLASSES = ["450.soplex", "429.mcf", "416.gamess", "462.libquantum"]
SWEEP_POINTS = 12  # standardPInduceSweep(); one pintesim --sweep

# Short campaign cells: spawning, fsync'd streams, leases and merging
# dominate, not simulation.
CAMPAIGN_WARMUP = 20000
CAMPAIGN_ROI = 20000

WORKLOADS = {
    "sweep_detailed": {"kind": "sweep", "mode": "detailed"},
    "sweep_sampled": {"kind": "sweep", "mode": "sampled"},
    "campaign_spool": {"kind": "campaign", "backend": "spool"},
    "campaign_process": {"kind": "campaign", "backend": "process"},
}

# A campaign that outlives this is killed and its unfinished cells
# count as failed (livelocked or fork-storming brokers).
INVOCATION_DEADLINE_S = 30.0
# Slack, beyond --seconds, for everything a run does after measuring.
RUN_SLACK_S = 100.0


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Build and provenance
# ----------------------------------------------------------------------


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(jobs):
    """Configure (once) and build; returns the build directory."""
    bdir = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "experiment.hh")):
        raise BenchError("simulator sources not found under " + ROOT)
    cmd = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=Release"])
    cmd.append(["cmake", "--build", bdir, "-j", str(jobs)])
    for c in cmd:
        r = subprocess.run(c, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(c))
    return bdir


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_sha256():
    """Digest of every file the benchmark builds from."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), BENCH_DIR]
    files = [os.path.join(ROOT, "tools", "pintesim.cpp")]
    for r in roots:
        for dirpath, dirnames, filenames in os.walk(r):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in filenames
                      if not f.endswith(".pyc")]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def provenance(bdir, jobs):
    info = json.loads(subprocess.run(
        [os.path.join(bdir, "perfbench"), "info"], capture_output=True,
        text=True, check=True).stdout)
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "jobs": jobs,
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "kernel": platform.release(),
    }


# ----------------------------------------------------------------------
# Sweep workloads: the perfbench program does the work in-process.
# ----------------------------------------------------------------------


def run_perfbench(bdir, args, timeout):
    cmd = [os.path.join(bdir, "perfbench")] + args
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("perfbench timed out: " + " ".join(args))
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        raise BenchError("perfbench failed: " + " ".join(args))
    return r.stdout


def sweep_workload(bdir, mode, seed, seconds, jobs, trace):
    out = json.loads(run_perfbench(
        bdir, ["sweep", "--mode", mode, "--seed", str(seed),
               "--seconds", repr(seconds), "--jobs", str(jobs),
               "--trace", "1" if trace else "0"],
        seconds + RUN_SLACK_S).strip().splitlines()[-1])
    metrics = out["metrics"]
    if trace:
        # The campaign layer is not on this workload's path.
        for k in ("campaign.overhead_s_per_cell", "campaign.user_cpu_s",
                  "campaign.sys_cpu_s", "campaign.idle_frac",
                  "spool.bytes_per_cell", "spool.files_per_cell"):
            metrics[k] = 0.0
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failures": out["failures"],
        "cell_digests": out["cell_digests"],
        "batch_walls": out["batch_walls"],
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Campaign workloads: pintesim --sweep under a backend, from outside.
# ----------------------------------------------------------------------


def reap_group(pgid):
    """Kill whatever is left of a process group and wait until every
    member has ended; returns True if anything was left. Members
    orphaned by their parent are ours to wait for (child subreaper)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.waitpid(-pgid, 0)
            continue
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() > deadline:
            raise BenchError("process group %d survives SIGKILL" % pgid)
        time.sleep(0.01)


def become_subreaper():
    """Adopt orphaned descendants (PR_SET_CHILD_SUBREAPER), so workers
    of a killed broker can be waited for here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


class Invocation:
    """One pintesim run in its own process group, under a deadline."""

    def __init__(self, argv, env, log_path, deadline_s):
        self.argv = argv
        self.env = env
        self.log_path = log_path
        self.deadline_s = deadline_s
        self.wall = 0.0
        self.user = self.sys = 0.0
        self.maxrss_kb = 0
        self.status = None
        self.timed_out = False
        self._lock = threading.Lock()
        self._reaped = False

    def run(self):
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, self.log_path,
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(self.argv[0], self.argv, self.env,
                             file_actions=actions, setsid=True)
        timer = threading.Timer(self.deadline_s, self._expire, (pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(pid, 0)
        finally:
            with self._lock:
                self._reaped = True
            timer.cancel()
        self.wall = time.perf_counter() - t0
        self.status = os.waitstatus_to_exitcode(status)
        self.user, self.sys = ru.ru_utime, ru.ru_stime
        self.maxrss_kb = ru.ru_maxrss
        # The group leader's pid is the group id; stray workers of a
        # killed or crashed broker are stopped and waited for here.
        if reap_group(pid) and not self.timed_out:
            log("stray processes of %s were killed" % self.argv[2])
        return self

    def _expire(self, pid):
        # Until wait4 has reaped the leader its pid, and so the group
        # id, cannot be reused.
        with self._lock:
            if self._reaped:
                return
            self.timed_out = True
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


class Campaign:
    def __init__(self, bdir, backend, seed, jobs, run_deadline):
        self.pintesim = os.path.join(bdir, "pintesim")
        self.backend = backend
        self.seed = seed
        self.jobs = jobs
        self.run_deadline = run_deadline
        self.work = os.path.join(bdir, "work", backend)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.count = 0
        env = dict(os.environ)
        # An armed fault plan arms one fault per run, as in-process
        # (PINTE_INJECT_FAULT=job:N fires once per process): only the
        # first campaign of the run sees it.
        self.fault = env.pop("PINTE_INJECT_FAULT", None)
        self.env = env

    def invoke(self, cls, backend):
        """Run one class's 12-point sweep; returns (Invocation, report
        path, spool path)."""
        self.count += 1
        tag = "%s-%05d" % (backend, self.count)
        report = os.path.join(self.work, tag + ".json")
        spool = os.path.join(self.work, tag + ".spool")
        argv = [self.pintesim, "-w", cls, "--sweep",
                "--warmup", str(CAMPAIGN_WARMUP), "--roi", str(CAMPAIGN_ROI),
                "--seed", str(self.seed), "--jobs", str(self.jobs),
                "--isolation=" + backend, "--format=json", "--out", report]
        if backend == "spool":
            argv += ["--spool", spool]
        env = self.env
        if self.fault is not None and backend == self.backend:
            env = dict(env, PINTE_INJECT_FAULT=self.fault)
            self.fault = None
        remaining = self.run_deadline - time.monotonic()
        inv = Invocation(argv, env, os.path.join(self.work, tag + ".log"),
                         max(1.0, min(INVOCATION_DEADLINE_S, remaining)))
        return inv.run(), report, spool

    def batch(self, backend):
        """One closed batch: every class's sweep, one after another
        (each sweep already keeps `jobs` workers busy). After a sweep
        hits its deadline the rest are not started; they count as
        unfinished, like the killed one."""
        out = []
        for cls in CLASSES:
            if out and out[-1][1].timed_out:
                left = Invocation([self.pintesim, "-w", cls], None, None, 0)
                left.timed_out = True
                out.append((cls, left, "", ""))
            else:
                out.append((cls,) + self.invoke(cls, backend))
        return out


def spool_usage(path):
    files = size = 0
    for dirpath, _, filenames in os.walk(path):
        for f in filenames:
            files += 1
            size += os.lstat(os.path.join(dirpath, f)).st_size
    return files, size


def digest_reports(bdir, reports):
    """report path -> {contention: digest or None (failed cell)}."""
    present = [r for r in reports if os.path.isfile(r)]
    out = {}
    for i in range(0, len(present), 200):
        text = run_perfbench(bdir, ["digest"] + present[i:i + 200], 120)
        for line in text.splitlines():
            d = json.loads(line)
            out[d["file"]] = {c["contention"]: (c["digest"] if c["ok"]
                                                else None)
                              for c in d["cells"]}
    return out


def campaign_workload(bdir, backend, seed, seconds, jobs, trace):
    run_deadline = time.monotonic() + seconds + RUN_SLACK_S - 20.0
    camp = Campaign(bdir, backend, seed, jobs, run_deadline)
    thread_walls = []
    spool_files = spool_bytes = 0

    def timed_out(batch):
        return any(inv.timed_out for _, inv, _, _ in batch)

    def finish(batch, count):
        nonlocal spool_files, spool_bytes
        for _, _, _, spool in batch:
            if count:
                f, s = spool_usage(spool)
                spool_files += f
                spool_bytes += s
            shutil.rmtree(spool, ignore_errors=True)
        return batch

    # The first batch warms the page cache and is only checked. Set-up
    # repeats before it and once after each timed batch.
    setups = [campaign_setup(camp.pintesim) for _ in range(3)]
    warm = finish(camp.batch(backend), False)
    batches = []
    t0 = time.monotonic()
    # Traced runs alternate backend and thread batches over half the
    # time and give the other half to the in-process layer ledger.
    budget = seconds / 2.0 if trace else seconds
    while not timed_out(warm):
        b = finish(camp.batch(backend), trace)
        batches.append(b)
        last = sum(inv.wall for _, inv, _, _ in b)
        if trace:
            tb = finish(camp.batch("thread"), False)
            thread_walls.append(sum(inv.wall for _, inv, _, _ in tb))
            last += thread_walls[-1]
        setups.append(campaign_setup(camp.pintesim))
        if timed_out(b) or time.monotonic() - t0 + last > budget:
            break
    # A warm-up batch that hit the deadline is all there is to report.
    timed = batches or [warm]
    checked = [warm] + batches

    # Correctness, outside the timed region: every cell must equal the
    # thread backend's result for the same cell.
    ref_batch = camp.batch("thread")
    reports = [rep for b in checked for _, _, rep, _ in b]
    digests = digest_reports(bdir, reports + [r for _, _, r, _ in ref_batch])
    ref = {}
    cell_digests = []
    for cls, inv, rep, _ in ref_batch:
        cells = digests.get(rep, {})
        if inv.timed_out or len(cells) != SWEEP_POINTS or \
                None in cells.values():
            raise BenchError("thread-backend reference failed for " + cls)
        ref[cls] = cells
        cell_digests += list(cells.values())

    attempted = failed = 0
    failures = []
    ok_cells = []  # per checked batch: cells equal to the thread backend
    for b in checked:
        ok_cells.append(0)
        for cls, inv, rep, _ in b:
            got = digests.get(rep, {})
            bad = [c for c, d in ref[cls].items() if got.get(c) != d]
            if inv.timed_out:
                why = "deadline expired"
            elif inv.status != 0 and not bad:
                bad, why = list(ref[cls]), "exit status %d" % inv.status
            else:
                why = "failed or differs from the thread backend"
            attempted += SWEEP_POINTS
            failed += len(bad)
            ok_cells[-1] += SWEEP_POINTS - len(bad)
            failures += ["%s %s: %s" % (cls, c, why) for c in bad[:3]]
    shutil.rmtree(camp.work, ignore_errors=True)

    # Timing over the timed batches. Cells run concurrently inside
    # pintesim and their own times are not visible from outside, so a
    # cell's time is its batch's wall time over the batch's cells.
    walls = [sum(inv.wall for _, inv, _, _ in b) for b in timed]
    timed_ok = ok_cells[1:] if batches else ok_cells
    wall = sum(walls)
    per_batch = len(CLASSES) * SWEEP_POINTS
    cell_walls = [w / per_batch for w in walls for _ in range(per_batch)]
    invs = [inv for b in timed for _, inv, _, _ in b]
    user = sum(inv.user for inv in invs)
    sys_cpu = sum(inv.sys for inv in invs)
    n_cells = len(timed) * len(CLASSES) * SWEEP_POINTS

    res = {"attempted": attempted, "failed": failed, "failures": failures,
           "cell_digests": cell_digests, "batch_walls": walls,
           "sweep_walls": [inv.wall for inv in invs]}
    if not trace:
        instr = CAMPAIGN_WARMUP + CAMPAIGN_ROI
        res["metrics"] = {
            "setup_s": statistics.median(setups),
            "sim_mips": statistics.median(
                n * instr / w / 1e6 for n, w in zip(timed_ok, walls)),
            "cells_per_s": statistics.median(
                n / w for n, w in zip(timed_ok, walls)),
            "cell_p50_s": quantile(cell_walls, 0.5),
            "cell_p80_s": quantile(cell_walls, 0.8),
            "peak_rss_mb": max(inv.maxrss_kb for inv in invs) / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        return res

    layer = sweep_workload(bdir, "short", seed, seconds / 2.0, jobs, True)
    res["failures"] += layer["failures"]
    res["attempted"] += layer["attempted"]
    res["failed"] += layer["failed"]
    m = layer["metrics"]
    m.update({
        "campaign.overhead_s_per_cell":
            (wall - sum(thread_walls)) / n_cells,
        "campaign.user_cpu_s": user / len(timed),
        "campaign.sys_cpu_s": sys_cpu / len(timed),
        "campaign.idle_frac":
            1.0 - (user + sys_cpu) / (jobs * wall),
        "spool.bytes_per_cell": spool_bytes / n_cells,
        "spool.files_per_cell": spool_files / n_cells,
    })
    res["metrics"] = m
    return res


def campaign_setup(pintesim):
    """What every campaign process pays before its first cell: exec,
    static initialisation and the workload zoo (pintesim --list)."""
    t0 = time.perf_counter()
    subprocess.run([pintesim, "--list"], stdout=subprocess.DEVNULL,
                   check=True)
    return time.perf_counter() - t0


def quantile(values, q):
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def workload_digest(cell_digests):
    """Exact 64-bit digest of a workload's cells, as a decimal string."""
    h = hashlib.sha256(",".join(cell_digests).encode()).hexdigest()
    return str(int(h[:16], 16))


def parse_seed(text):
    try:
        seed = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError("seed must be an integer")
    if not 0 <= seed <= U64_MAX:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return seed


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (path, e))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="measured time (default: run_seconds of "
                    "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    expected = load_json(os.path.join(BENCH_DIR, "digests.json"))
    jobs = min(len(os.sched_getaffinity(0)), 4)
    become_subreaper()
    bdir = build(jobs)
    prov = provenance(bdir, jobs)

    wl = WORKLOADS[args.workload]
    if wl["kind"] == "sweep":
        res = sweep_workload(bdir, wl["mode"], args.seed, args.seconds,
                             jobs, args.trace)
    else:
        res = campaign_workload(bdir, wl["backend"], args.seed,
                                args.seconds, jobs, args.trace)

    digest = workload_digest(res["cell_digests"])
    want = expected.get(args.workload)
    if args.seed == DEFAULT_SEED and digest != want:
        res["failed"] = res["attempted"]
        res["failures"].insert(0, "default-seed digest %s != recorded %s"
                               % (digest, want))

    metric_list = spec["per_layer" if args.trace else "end_to_end"]
    raw = res["metrics"]
    missing = [m["name"] for m in metric_list if m["name"] not in raw]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
               for m in metric_list}
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }

    record = {
        "workload": args.workload,
        "seed": str(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "digest": digest,
        "provenance": prov,
        "failures": res["failures"],
        "extra": {k: v for k, v in raw.items() if k not in metrics},
        "batch_walls": res.get("batch_walls", []),
        "sweep_walls": res.get("sweep_walls", []),
        "result": result,
    }
    rdir = os.path.join(bdir, "results")
    os.makedirs(rdir, exist_ok=True)
    with open(os.path.join(rdir, args.workload + ".jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")

    for line in res["failures"][:10]:
        log("failed: " + line)
    print("provenance: " + json.dumps(prov))
    print("digest: " + digest)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(str(e))
        sys.exit(2)
