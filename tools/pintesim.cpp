/**
 * @file
 * pintesim — command-line driver for the PInTE simulator.
 *
 * Runs a single workload (or a pair) on a configurable machine and
 * emits results through a report sink: aligned text (default), the
 * versioned pinte-report JSON schema, or CSV. Everything the library
 * exposes — replacement, inclusion, prefetch and branch-prediction
 * choices, PInTE probability, scope and the DRAM complement — is
 * reachable from here. Options accept both `--flag value` and
 * `--flag=value`; unknown flags and malformed values exit nonzero
 * listing the alternatives.
 *
 * Examples:
 *   pintesim --list
 *   pintesim -w 450.soplex --sweep
 *   pintesim -w 450.soplex -p 0.2 --policy rrip --inclusion exclusive
 *   pintesim -w 450.soplex --pair 470.lbm
 *   pintesim -w 429.mcf -p 0.3 --dram-complement 60 --format=json
 *   pintesim -w 450.soplex --sweep --format=csv --out sweep.csv
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "analysis/sensitivity.hh"
#include "common/error.hh"
#include "common/invariant.hh"
#include "common/logging.hh"
#include "common/trace_events.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/options.hh"
#include "sim/report.hh"
#include "sim/sink.hh"
#include "sim/watchdog.hh"

using namespace pinte;

namespace
{

void
usage()
{
    std::printf(
        "usage: pintesim [options]   (--flag value or --flag=value)\n"
        "  -w, --workload NAME   zoo workload (see --list)\n"
        "  -p, --pinduce P       PInTE probability of induction [0,1]\n"
        "      --sweep           run the standard 12-point P sweep\n"
        "      --pair NAME       2nd-Trace co-run instead of PInTE\n"
        "      --isolation       no contention at all\n"
        "      --isolation=K     --sweep/--policies backend: thread\n"
        "                        (in-process pool, default), process\n"
        "                        (fork-isolated workers: crashes and\n"
        "                        hard hangs become quarantined cells),\n"
        "                        or spool (durable file-queue broker:\n"
        "                        broker and workers all survive\n"
        "                        SIGKILL; requires --spool)\n"
        "      --max-retries N   process/spool backend: attempts per\n"
        "                        cell (process) or shard (spool)\n"
        "                        before quarantine (default 1; only\n"
        "                        worker-level losses are retried)\n"
        "      --spool DIR       spool directory of a spool campaign\n"
        "                        (created if absent; shared by broker\n"
        "                        and workers)\n"
        "      --worker          run as a spool worker: claim and\n"
        "                        execute shards from --spool until the\n"
        "                        campaign completes (all simulation\n"
        "                        parameters come from the spool's\n"
        "                        campaign document, not the CLI)\n"
        "      --shard-size N    spool backend: cells per shard\n"
        "                        (default 1 — loss granularity of one\n"
        "                        cell)\n"
        "      --lease-ttl S     spool backend: reclaim a shard whose\n"
        "                        worker made no progress for S seconds\n"
        "                        (default 30)\n");
    std::printf(
        "      --policy K        llc replacement: %s\n"
        "      --llc-policy K    alias of --policy\n"
        "      --policies LIST   comma-separated replacement-policy\n"
        "                        grid for --sweep: per policy, an\n"
        "                        isolation baseline plus the standard\n"
        "                        12-point P sweep, then a per-policy\n"
        "                        contention-class table with deltas\n"
        "                        against the first policy (runs on\n"
        "                        every --isolation=K backend)\n",
        replacementValidValues().c_str());
    std::printf(
        "      --inclusion K     llc inclusion: non inclusive exclusive\n"
        "      --prefetch SSS    prefetch string (000, NN0, NNN, NNI)\n"
        "      --predictor K     bimodal gshare perceptron hashed\n"
        "      --scope K         pinte scope: llc l2 l2+llc\n"
        "      --dram-complement F  add P*F cycles to DRAM accesses\n"
        "      --warmup N        warmup instructions (default 20000)\n"
        "      --roi N           region of interest (default 60000)\n"
        "      --sample N        sample period (default 3000)\n"
        "      --sample-interval N  snapshot every registered counter\n"
        "                        every N cycles into the report's\n"
        "                        time-series section (0 = off)\n"
        "      --sample-mode K   interval engine schedule: off\n"
        "                        periodic random (default off); when\n"
        "                        on, the ROI alternates detailed and\n"
        "                        functional-warming intervals and the\n"
        "                        report carries mean±CI estimates\n"
        "      --sample-interval-length N  instructions per interval\n"
        "                        (default 10000)\n"
        "      --sample-detailed-fraction F  share of intervals run\n"
        "                        detailed, (0,1] (default 0.1)\n"
        "      --sampling-seed N seed of the random interval schedule\n"
        "      --checkpoint FILE architectural checkpoint file: resume\n"
        "                        from it when present, then rewrite it\n"
        "                        every --checkpoint-every instructions\n"
        "      --checkpoint-every N  checkpoint cadence in ROI\n"
        "                        instructions (default roi/10)\n"
        "      --trace-events FILE  write a chrome://tracing JSON\n"
        "                        event trace of the run to FILE\n"
        "      --seed N          run seed (PInTE RNG stream)\n"
        "      --jobs N          worker threads for --sweep "
        "(default: all cores)\n"
        "      --job-timeout S   fail a job stalled for S seconds\n"
        "      --paranoid[=N]    audit machine invariants every N\n"
        "                        cycles (default 4096) and at end of "
        "run\n"
        "      --resume FILE     journal completed runs in FILE and\n"
        "                        serve already-journaled runs from it\n"
        "      --format FMT      output format: table json csv\n"
        "      --out FILE        write the report to FILE\n"
        "      --json            shorthand for --format=json\n"
        "      --report          full machine statistics dump\n"
        "      --list            list zoo workloads and exit\n"
        "      --help            this text\n");
}

int
pinteMain(int argc, char **argv)
{
    std::optional<double> pinduce;
    std::optional<std::string> pair;
    bool isolation = false, sweep = false;
    bool report = false;
    bool retries_set = false;
    bool worker_mode = false;
    SweepConfig sc; // workload, machine knobs and scale of every mode
    ExperimentParams &params = sc.params;
    CampaignOptions backend; // --sweep's campaign backend
    PInteScope scope = PInteScope::LlcOnly;
    std::string resume_path;
    ReportFormat format = ReportFormat::Table;
    std::string out_path;
    std::string trace_path;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::optional<std::string> inline_val;
        if (a.rfind("--", 0) == 0) {
            const auto eq = a.find('=');
            if (eq != std::string::npos) {
                inline_val = a.substr(eq + 1);
                a = a.substr(0, eq);
            }
        }
        auto need = [&]() -> std::string {
            if (inline_val)
                return *inline_val;
            if (i + 1 >= argc)
                fatal("missing value for " + a);
            return argv[++i];
        };
        auto flag = [&]() {
            if (inline_val)
                fatal("option " + a + " takes no value");
        };

        if (a == "-w" || a == "--workload") {
            sc.workload = need();
        } else if (a == "-p" || a == "--pinduce") {
            pinduce = parseProbability(need());
        } else if (a == "--sweep") {
            flag();
            sweep = true;
        } else if (a == "--pair") {
            pair = need();
        } else if (a == "--isolation") {
            // Bare --isolation is the historical no-contention run
            // mode; with an inline value it selects the campaign
            // backend instead (--isolation=thread|process|spool).
            if (inline_val)
                backend.mode = parseIsolation(*inline_val);
            else
                isolation = true;
        } else if (a == "--max-retries") {
            backend.maxRetries = parseRetries(a, need());
            retries_set = true;
        } else if (a == "--worker") {
            flag();
            worker_mode = true;
        } else if (a == "--spool") {
            backend.spool = need();
        } else if (a == "--shard-size") {
            backend.shardSize =
                static_cast<std::size_t>(parseCount(a, need()));
        } else if (a == "--lease-ttl") {
            sc.leaseTtl = static_cast<double>(parseTimeout(a, need()));
        } else if (a == "--policy" || a == "--llc-policy") {
            sc.policy = need();
        } else if (a == "--policies") {
            sc.policies.clear();
            for (const ReplacementKind kind : parseReplacementList(need()))
                sc.policies.push_back(replacementCliName(kind));
        } else if (a == "--inclusion") {
            sc.inclusion = need();
        } else if (a == "--prefetch") {
            sc.prefetch = need();
        } else if (a == "--predictor") {
            sc.predictor = need();
        } else if (a == "--scope") {
            sc.scope = need();
            scope = parsePInteScope(sc.scope);
        } else if (a == "--dram-complement") {
            sc.dramFactor = parseReal(a, need());
        } else if (a == "--warmup") {
            params.warmup = parseCount(a, need());
        } else if (a == "--roi") {
            params.roi = parseCount(a, need());
        } else if (a == "--sample") {
            params.sampleEvery = parseCount(a, need());
        } else if (a == "--sample-interval") {
            params.sampleIntervalCycles = parseCount(a, need());
        } else if (a == "--sample-mode") {
            params.sampling.mode = parseSampleMode(need());
        } else if (a == "--sample-interval-length") {
            params.sampling.intervalLength = parseCount(a, need());
        } else if (a == "--sample-detailed-fraction") {
            params.sampling.detailedFraction = parseReal(a, need());
        } else if (a == "--sampling-seed") {
            params.sampling.seed = parseCount(a, need());
        } else if (a == "--checkpoint") {
            params.checkpointPath = need();
        } else if (a == "--checkpoint-every") {
            params.checkpointEvery = parseCount(a, need());
        } else if (a == "--trace-events") {
            trace_path = need();
        } else if (a == "--seed") {
            params.runSeed = parseCount(a, need());
        } else if (a == "--jobs") {
            backend.jobs = static_cast<unsigned>(parseCount(a, need()));
        } else if (a == "--job-timeout") {
            sc.jobTimeout =
                static_cast<double>(parseTimeout(a, need()));
        } else if (a == "--paranoid") {
            // Value is optional: a bare --paranoid must not consume
            // the next positional argument.
            Paranoid::enable(parseParanoidInterval(
                a, inline_val ? *inline_val : ""));
        } else if (a == "--resume") {
            resume_path = need();
        } else if (a == "--format") {
            format = parseReportFormat(need());
        } else if (a == "--out") {
            out_path = need();
        } else if (a == "--json") {
            flag();
            format = ReportFormat::Json;
        } else if (a == "--report") {
            flag();
            report = true;
        } else if (a == "--list") {
            flag();
            for (const auto &s : fullZoo())
                std::printf("%-16s %-14s footprint %5llu KB\n",
                            s.name.c_str(), toString(s.klass),
                            static_cast<unsigned long long>(
                                s.footprintLines * blockSize / 1024));
            return 0;
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown option: " + a);
        }
    }

    const MachineConfig machine = sweepMachine(sc);
    const IsolationMode iso_mode = backend.mode;
    if (worker_mode) {
        // A spool worker takes its whole configuration from the
        // campaign document; the CLI only locates the spool.
        if (backend.spool.empty())
            throw ConfigError("--worker requires --spool",
                              {"options", "--worker", ""});
        return spoolWorkerMain(backend.spool);
    }
    if (!sc.policies.empty() && !sweep)
        throw ConfigError("--policies is a --sweep policy grid; "
                          "add --sweep",
                          {"options", "--policies", ""});
    if (iso_mode != IsolationMode::Thread && !sweep)
        throw ConfigError(std::string("--isolation=") +
                              toString(iso_mode) +
                              " is a campaign backend and requires "
                              "--sweep",
                          {"options", "--isolation", toString(iso_mode)});
    if (iso_mode == IsolationMode::Spool) {
        if (backend.spool.empty())
            throw ConfigError("--isolation=spool requires --spool",
                              {"options", "--isolation", "spool"});
        if (!params.checkpointPath.empty())
            throw ConfigError("--checkpoint does not compose with "
                              "--isolation=spool (checkpoints are "
                              "per-process artifacts)",
                              {"options", "--checkpoint", ""});
    } else if (!backend.spool.empty()) {
        throw ConfigError("--spool requires --isolation=spool or "
                          "--worker",
                          {"options", "--spool", backend.spool});
    }
    if (retries_set && iso_mode != IsolationMode::Process &&
        iso_mode != IsolationMode::Spool)
        throw ConfigError("--max-retries is only meaningful with "
                          "--isolation=process or --isolation=spool "
                          "(the thread backend never retries)",
                          {"options", "--max-retries", ""});

    // A checkpoint path without an explicit cadence defaults to ten
    // checkpoints across the ROI.
    if (!params.checkpointPath.empty() && params.checkpointEvery == 0)
        params.checkpointEvery = std::max<InstCount>(1, params.roi / 10);

    const WorkloadSpec spec = findWorkload(sc.workload);

    // Arm event tracing for the rest of the process; the guard writes
    // the collected trace on every exit path (including exceptions
    // unwinding to main) and downgrades a write failure to a warning
    // so the report itself still publishes.
    struct TraceWriter
    {
        std::string path;
        ~TraceWriter()
        {
            if (path.empty())
                return;
            try {
                TraceEvents::write(path);
            } catch (const std::exception &e) {
                warn(std::string("event trace not written: ") +
                     e.what());
            }
        }
    } trace_writer;
    if (!trace_path.empty()) {
        trace_writer.path = trace_path;
        TraceEvents::arm();
    }

    if (report) {
        // A report run drives the machine directly so the full stats
        // block (every cache, DRAM, engines) is still live at dump
        // time; RunResult only carries the summary.
        MachineConfig m = machine;
        m.numCores = 1;
        if (pinduce) {
            m.pinte.pInduce = *pinduce;
            m.pinteScope = scope;
        }
        if (sc.dramFactor > 0.0 && pinduce)
            m.dram.contentionExtra =
                static_cast<Cycle>(*pinduce * sc.dramFactor);
        TraceGenerator gen(spec);
        System sys(m, {&gen});
        {
            TraceEvents::Span span("run", "warmup " + spec.name);
            sys.warmup(params.warmup);
        }
        sys.startSampling(params.sampleIntervalCycles);
        {
            TraceEvents::Span span("run", "measure " + spec.name);
            sys.runUntilCore0(params.roi);
        }
        sys.finishSampling();
        if (Paranoid::on()) {
            sys.audit();
            sys.auditStats();
        }
        Report rep(format, out_path,
                   {"pintesim", m.fingerprint(), params});
        emitMachineReport(sys, rep.sink());
        rep.close();
        return 0;
    }

    // Single runs execute on this thread; arm the hang watchdog here
    // (sweep workers re-arm per job via the Runner).
    if (sc.jobTimeout > 0.0)
        JobWatchdog::arm(sc.jobTimeout);

    Report rep(format, out_path,
               {"pintesim", machine.fingerprint(), params});

    if (pair || isolation || !sweep) {
        // One experiment: a 2nd-Trace pair, or the workload alone or
        // under PInTE at -p.
        const ExperimentSpec e =
            pair ? ExperimentSpec(machine)
                       .workload(spec)
                       .secondTrace(findWorkload(*pair))
                       .params(params)
                 : makeCell(sc, machine,
                            isolation ? std::nullopt : pinduce)
                       .spec;
        for (const auto &r : e.runAll())
            rep->run(r);
        rep.close();
        return 0;
    }

    // The sweep or policy grid on the selected backend: a faulting
    // cell is quarantined as "failed" while every other completes.
    std::unique_ptr<RunJournal> journal;
    if (!resume_path.empty())
        journal = std::make_unique<RunJournal>(resume_path);
    const auto results = runCampaign(sc, backend, journal.get());
    std::size_t failed = 0;
    for (const auto &r : results) {
        if (r.failed())
            ++failed;
        rep->run(r);
    }
    rep.close();

    if (!sc.policies.empty()) {
        // Per policy one pooled contention curve, classified, with
        // deltas against the first policy.
        const auto table = classifyPolicyGrid(policyCurves(sc, results));
        std::printf("policy grid: %s, TPL %.0f%% (deltas vs %s)\n",
                    spec.name.c_str(), defaultTpl * 100,
                    table.empty() ? "-" : table.front().policy.c_str());
        std::printf("  %-8s %-6s %10s %8s %6s\n", "policy", "class",
                    "sensitive", "delta", "shift");
        for (const auto &row : table)
            std::printf("  %-8s %-6s %9.1f%% %+7.1f%% %+6d\n",
                        row.policy.c_str(), toString(row.cls),
                        row.sensitiveFraction * 100,
                        row.deltaFraction * 100, row.classShift);
    }
    if (failed) {
        std::fprintf(stderr, "pintesim: %zu of %zu %s jobs failed\n",
                     failed, results.size(),
                     sc.policies.empty() ? "sweep" : "grid");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Library errors are typed exceptions; keep the one-line fatal UX
    // (and exit code) the old process-killing fatal() provided.
    try {
        return pinteMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
