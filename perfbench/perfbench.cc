/**
 * @file
 * perfbench — the in-process half of the repo benchmark.
 *
 * Subcommands (users run perfbench/run.py, which calls these):
 *
 *   perfbench sweep --mode detailed|sampled|short --seed N
 *             --seconds S --jobs J --trace 0|1
 *       Run the contention sweep of four workload classes (an
 *       isolation cell plus the standard 12-point P grid each) as
 *       closed batches on a Runner pool, through
 *       ExperimentSpec::tryRun, until S seconds have been measured.
 *       With --trace 1 each batch is replayed with timing wrappers
 *       around the trace source and the PInTE hook, paired with an
 *       untraced batch, and followed by the isolated layer kernels.
 *       Prints one JSON object on stdout.
 *
 *   perfbench digest REPORT.json...
 *       Print the cell digests of pintesim JSON reports, one JSON
 *       object per report, so campaign cells are checked with the
 *       same digest the in-process cells use.
 *
 *   perfbench info
 *       Print the compiler and build type this binary was built with.
 */

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/json.hh"
#include "core/pinte.hh"
#include "cpu/core.hh"
#include "dram/dram.hh"
#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "sim/runner.hh"
#include "sim/sink.hh"
#include "trace/generator.hh"
#include "trace/zoo.hh"

using namespace pinte;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The four contention classes every workload sweeps. */
const char *const classNames[] = {
    "450.soplex",     // llc-bound
    "429.mcf",        // dram-bound
    "416.gamess",     // core-bound
    "462.libquantum", // streaming
};

// ------------------------------------------------------------------
// Digest: the simulated counters of one cell folded into 64 bits.
// ------------------------------------------------------------------

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= h >> 31;
    h *= 0xbf58476d1ce4e5b9ull;
    return h ^ (h >> 29);
}

std::uint64_t
fold(std::uint64_t h, double v)
{
    return fold(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t
fold(std::uint64_t h, const std::string &s)
{
    h = fold(h, static_cast<std::uint64_t>(s.size()));
    for (const unsigned char c : s)
        h = fold(h, static_cast<std::uint64_t>(c));
    return h;
}

/**
 * Digest of a finished cell. RunMetrics are exact functions of the
 * core's instructions and cycles, each level's accesses and misses,
 * LLC writebacks and DRAM latency (through AMAT and IPC); the miss
 * latency histograms carry every level's miss count, and the PInTE
 * block carries triggers and invalidations.
 */
std::uint64_t
digest(const RunResult &r)
{
    std::uint64_t h = fold(0, r.workload);
    h = fold(h, r.contention);
    const RunMetrics &m = r.metrics;
    for (const double v :
         {m.ipc, m.missRate, m.amat, m.interferenceRate, m.theftRate,
          m.l2InterferenceRate, m.branchAccuracy, m.l1dMissRate,
          m.l2MissRate, m.prefetchMissRate, m.l2Mpki, m.llcMpki,
          m.llcWbShare, m.llcOccupancyFraction})
        h = fold(h, v);
    h = fold(h, m.llcAccesses);
    h = fold(h, m.llcMisses);
    h = fold(h, r.pinte.accessesSeen);
    h = fold(h, r.pinte.triggers);
    h = fold(h, r.pinte.promotions);
    h = fold(h, r.pinte.invalidations);
    h = fold(h, r.pinte.requestedEvicts);
    for (std::size_t b = 0; b < r.reuse.size(); ++b)
        h = fold(h, r.reuse.at(b));
    for (const HistogramData &hd : r.histograms) {
        h = fold(h, hd.path);
        h = fold(h, hd.total);
        for (const std::uint64_t c : hd.counts)
            h = fold(h, c);
    }
    return h;
}

// ------------------------------------------------------------------
// Workload cells.
// ------------------------------------------------------------------

struct Mode
{
    ExperimentParams params;
};

Mode
parseMode(const std::string &name, std::uint64_t seed)
{
    Mode m;
    m.params.runSeed = seed;
    if (name == "detailed") {
        m.params.warmup = 60000;
        m.params.roi = 150000;
    } else if (name == "sampled") {
        m.params.warmup = 60000;
        m.params.roi = 2000000;
        m.params.sampling.mode = SampleMode::Periodic;
        m.params.sampling.detailedFraction = 0.05;
    } else if (name == "short") {
        // The campaign workloads' cells (pintesim --warmup/--roi).
        m.params.warmup = 20000;
        m.params.roi = 20000;
    } else {
        throw std::invalid_argument("unknown mode '" + name + "'");
    }
    return m;
}

struct Cell
{
    WorkloadSpec spec;
    unsigned cls = 0;
    double p = -1.0; //!< P_Induce; negative for the isolation cell
};

std::vector<Cell>
sweepCells()
{
    std::vector<Cell> cells;
    for (unsigned c = 0; c < std::size(classNames); ++c) {
        const WorkloadSpec spec = findWorkload(classNames[c]);
        cells.push_back({spec, c, -1.0});
        for (const double p : standardPInduceSweep())
            cells.push_back({spec, c, p});
    }
    return cells;
}

ExperimentSpec
experiment(const Cell &c, const Mode &mode)
{
    ExperimentSpec e(MachineConfig::scaled());
    e.workload(c.spec).params(mode.params);
    if (c.p >= 0.0)
        e.pinte(c.p);
    return e;
}

// ------------------------------------------------------------------
// Timing wrappers for the traced replay and the kernels.
// ------------------------------------------------------------------

/** Cost of one Clock::now() call, subtracted from wrapped spans. */
double
clockCostNs()
{
    constexpr int n = 200000;
    const auto t0 = Clock::now();
    Clock::time_point t = t0;
    for (int i = 0; i < n; ++i)
        t = Clock::now();
    return std::chrono::duration<double, std::nano>(t - t0).count() / n;
}

std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** TraceSource that times every call into the wrapped generator. */
class TimedSource : public TraceSource
{
  public:
    explicit TimedSource(TraceSource &inner) : inner_(inner) {}

    TraceRecord
    next() override
    {
        const auto t = Clock::now();
        const TraceRecord r = inner_.next();
        ns += nsBetween(t, Clock::now());
        ++records;
        return r;
    }

    void
    skip(std::uint64_t n) override
    {
        const auto t = Clock::now();
        inner_.skip(n);
        ns += nsBetween(t, Clock::now());
        ++skips;
    }

    void reset() override { inner_.reset(); }
    bool done() const override { return inner_.done(); }
    void saveState(SnapshotWriter &w) const override
    { inner_.saveState(w); }
    void loadState(SnapshotReader &r) override { inner_.loadState(r); }

    std::int64_t ns = 0;
    std::uint64_t records = 0;
    std::uint64_t skips = 0;

  private:
    TraceSource &inner_;
};

/** ReplacementHook that times every call into the wrapped engine. */
class TimedHook : public ReplacementHook
{
  public:
    explicit TimedHook(ReplacementHook &inner) : inner_(inner) {}

    void
    onAccess(Cache &cache, unsigned set, CoreId core,
             Cycle cycle) override
    {
        const auto t = Clock::now();
        inner_.onAccess(cache, set, core, cycle);
        ns += nsBetween(t, Clock::now());
        ++calls;
    }

    std::int64_t ns = 0;
    std::uint64_t calls = 0;

  private:
    ReplacementHook &inner_;
};

/** MemoryLevel that times every call into the wrapped level. */
class TimedLevel : public MemoryLevel
{
  public:
    explicit TimedLevel(MemoryLevel &inner) : inner_(inner) {}

    AccessResult
    access(const MemAccess &req) override
    {
        const auto t = Clock::now();
        const AccessResult r = inner_.access(req);
        ns += nsBetween(t, Clock::now());
        ++calls;
        return r;
    }

    const char *levelName() const override { return inner_.levelName(); }

    std::int64_t ns = 0;
    std::uint64_t calls = 0;

  private:
    MemoryLevel &inner_;
};

/** Fixed-latency memory; optionally records the requests it serves. */
class StubLevel : public MemoryLevel
{
  public:
    StubLevel(Cycle latency, bool record)
        : latency_(latency), record_(record)
    {
    }

    AccessResult
    access(const MemAccess &req) override
    {
        if (record_)
            log.push_back(req);
        return {req.cycle + latency_, true};
    }

    const char *levelName() const override { return "stub"; }

    std::vector<MemAccess> log;

  private:
    Cycle latency_;
    bool record_;
};

// ------------------------------------------------------------------
// Traced replay of ExperimentSpec::runAll for one single-core cell.
// ------------------------------------------------------------------

struct CellTrace
{
    double setup = 0, warmup = 0, measure = 0;
    double skip = 0, functional = 0, detailed = 0;
    double traceSelf = 0, pinteSelf = 0, timerCost = 0;
    std::uint64_t records = 0, pinteCalls = 0;
    std::uint64_t triggers = 0, accessesSeen = 0;
    std::uint64_t detailedInstr = 0;
    std::uint64_t l1iCalls = 0, l1dCalls = 0, l2Calls = 0, llcCalls = 0;
    std::uint64_t dramCalls = 0;
    std::uint64_t digest = 0;
};

std::uint64_t
levelCalls(const Cache &c)
{
    std::uint64_t n = 0;
    for (const PerCoreCacheStats &s : c.stats().perCore)
        n += s.accesses + s.writebacksIn;
    return n;
}

/** The machine ExperimentSpec::runAll builds for a single-core cell. */
MachineConfig
cellMachine(const Cell &c, const ExperimentParams &ep)
{
    MachineConfig machine = MachineConfig::scaled();
    machine.numCores = 1;
    machine.pinte.pInduce = c.p >= 0.0 ? c.p : 0.0;
    if (c.p >= 0.0)
        machine.pinte.seed = 0x5157 + ep.runSeed * 0x9e3779b9ull;
    return machine;
}

/**
 * Replays ExperimentSpec::runAll's call sequence on a System (one
 * workload, no checkpoint, no cycle sampler), with a timing source
 * around the TraceGenerator and a timing hook around the PInTE engine,
 * and rebuilds the digest fields of the RunResult that run would
 * return. The caller checks that digest against the untraced cell.
 */
CellTrace
tracedCell(const Cell &c, const Mode &mode, double clock_ns)
{
    CellTrace t;
    const ExperimentParams &ep = mode.params;
    const SamplingParams &sp = ep.sampling;

    auto t0 = Clock::now();
    TraceGenerator gen(c.spec);
    TimedSource src(gen);
    System sys(cellMachine(c, ep), {&src});
    std::unique_ptr<TimedHook> hook;
    if (sys.pinte()) {
        hook = std::make_unique<TimedHook>(*sys.pinte());
        sys.llc().setReplacementHook(hook.get());
    }
    t.setup = since(t0);

    t0 = Clock::now();
    if (sp.enabled())
        sys.setExecMode(ExecMode::FunctionalWarming);
    sys.warmup(ep.warmup);
    sys.setExecMode(ExecMode::Detailed);
    sys.startSampling(ep.sampleIntervalCycles);
    t.warmup = since(t0);

    const std::int64_t trace_ns0 = src.ns;
    const std::uint64_t records0 = src.records, skips0 = src.skips;
    const std::int64_t pinte_ns0 = hook ? hook->ns : 0;
    const std::uint64_t calls0 = hook ? hook->calls : 0;
    const PInteStats eng0 = sys.pinte() ? sys.pinte()->stats()
                                        : PInteStats{};

    t0 = Clock::now();
    InstCount done = 0;
    if (sp.enabled()) {
        std::uint64_t k = 0;
        while (done < ep.roi) {
            const InstCount step =
                std::min<InstCount>(sp.intervalLength, ep.roi - done);
            const auto s0 = Clock::now();
            if (intervalIsDetailed(sp, k)) {
                sys.setExecMode(ExecMode::Detailed);
                sys.runUntilCore0(step);
                t.detailed += since(s0);
                t.detailedInstr += step;
            } else if (intervalIsDetailed(sp, k + 1)) {
                sys.setExecMode(ExecMode::FunctionalWarming);
                sys.runUntilCore0(step);
                t.functional += since(s0);
            } else {
                sys.fastForwardCore0(step);
                t.skip += since(s0);
            }
            done += step;
            ++k;
        }
        sys.setExecMode(ExecMode::Detailed);
    } else {
        while (done < ep.roi) {
            const InstCount step =
                std::min<InstCount>(ep.sampleEvery, ep.roi - done);
            sys.runUntilCore0(step);
            done += step;
        }
        t.detailedInstr = done;
    }
    t.measure = since(t0);
    if (!sp.enabled())
        t.detailed = t.measure;
    sys.finishSampling();

    // Every timed call pays about two clock reads the untraced run
    // does not; the spans below carry one of them each.
    t.records = src.records - records0;
    const std::uint64_t trace_calls = t.records + (src.skips - skips0);
    t.pinteCalls = hook ? hook->calls - calls0 : 0;
    t.traceSelf = std::max(
        0.0, (static_cast<double>(src.ns - trace_ns0) -
              clock_ns * static_cast<double>(trace_calls)) * 1e-9);
    t.pinteSelf = std::max(
        0.0, (static_cast<double>((hook ? hook->ns : 0) - pinte_ns0) -
              clock_ns * static_cast<double>(t.pinteCalls)) * 1e-9);
    t.timerCost = 2.0 * clock_ns *
                  static_cast<double>(trace_calls + t.pinteCalls) * 1e-9;
    if (sys.pinte()) {
        const PInteStats &e = sys.pinte()->stats();
        t.triggers = e.triggers - std::min(e.triggers, eng0.triggers);
        t.accessesSeen =
            e.accessesSeen - std::min(e.accessesSeen, eng0.accessesSeen);
    }
    // warmup() cleared every statistic, so these are ROI counts.
    t.l1iCalls = sys.registry().counter("l1i.0.demand.accesses");
    t.l1dCalls = levelCalls(sys.l1d(0));
    t.l2Calls = levelCalls(sys.l2(0));
    t.llcCalls = levelCalls(sys.llc());
    for (const PerCoreDramStats &s : sys.dram().stats())
        t.dramCalls += s.reads + s.writes;

    RunResult r;
    r.workload = c.spec.name;
    r.contention = experiment(c, mode).contention();
    r.metrics = computeRunMetrics(sys, 0);
    r.reuse = Histogram(sys.llc().assoc());
    r.reuse.merge(sys.llc().stats().reuse[0]);
    if (sys.pinte())
        r.pinte = sys.pinte()->stats();
    for (const auto &e : sys.registry().entries()) {
        if (e->kind != StatRegistry::Kind::Log2)
            continue;
        r.histograms.push_back(
            {e->path, e->log2->counts(), e->log2->total()});
    }
    t.digest = digest(r);
    return t;
}

// ------------------------------------------------------------------
// Isolated layer kernels, fed each class's generated stream.
// ------------------------------------------------------------------

/** Self time and work of one layer, from a kernel or a whole run. */
struct Cost
{
    double seconds = 0.0;
    double work = 0.0; //!< instructions, accesses or calls

    double nsPer() const { return work > 0 ? seconds * 1e9 / work : 0.0; }

    Cost &
    operator+=(const Cost &o)
    {
        seconds += o.seconds;
        work += o.work;
        return *this;
    }
};

/** A count out of a total, summable across classes. */
struct Share
{
    double part = 0.0;
    double whole = 0.0;

    double value() const { return whole > 0 ? part / whole : 0.0; }

    Share &
    operator+=(const Share &o)
    {
        part += o.part;
        whole += o.whole;
        return *this;
    }
};

/** Isolated-kernel results for one workload class. */
struct KernelCost
{
    Cost cpu, l1i, l1d, l2, llc, dram;
    Share l1dMiss, l2Miss, llcMiss; //!< demand misses / accesses
    Share rowHit;                   //!< DRAM row hits / accesses
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Value at quantile q of v, by linear interpolation. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/** Median, over repetitions, of per-unit costs. */
Cost
medianCost(const std::vector<double> &seconds, double work)
{
    return {median(seconds), work};
}

/**
 * Time each layer in isolation on `spec`'s generated stream: the core
 * over fixed-latency memory; the cache hierarchy (L1I and L1D under
 * one L2, the LLC, then a recording stub in place of DRAM) with timing
 * wrappers between levels; DRAM on the LLC's recorded miss and
 * writeback stream. Each kernel runs three times; the median counts.
 */
KernelCost
kernels(const WorkloadSpec &spec, double clock_ns)
{
    constexpr std::size_t records = 200000;
    constexpr int reps = 3;
    MachineConfig m = MachineConfig::scaled();
    m.l1i.numCores = m.l1d.numCores = m.l2.numCores = 1;
    m.llc.numCores = m.dram.numCores = 1;
    m.l1i.prefetcher = m.prefetch.l1i;
    m.l1d.prefetcher = m.prefetch.l1d;
    m.l2.prefetcher = m.prefetch.l2;

    TraceGenerator gen(spec);
    std::vector<TraceRecord> recs(records);
    for (auto &r : recs)
        r = gen.next();

    KernelCost k;
    std::vector<double> cpu, l1i, l1d, l2, llc, dram;
    double n_l1i = 0, n_l1d = 0, n_l2 = 0, n_llc = 0, n_dram = 0;
    const double c = clock_ns;
    auto ns = [](const TimedLevel &t) { return static_cast<double>(t.ns); };
    for (int rep = 0; rep < reps; ++rep) {
        {
            VectorTraceSource src(recs);
            StubLevel imem(m.l1i.latency, false);
            StubLevel dmem(m.l1d.latency, false);
            Core core(m.core, 0, &src, &imem, &dmem);
            const auto t0 = Clock::now();
            core.runInstructions(records);
            cpu.push_back(since(t0));
        }

        StubLevel mem(m.dram.tRp + m.dram.tRcd + m.dram.tCas, true);
        TimedLevel t_mem(mem);
        Cache c_llc(m.llc, &t_mem);
        TimedLevel t_llc(c_llc);
        Cache c_l2(m.l2, &t_llc);
        TimedLevel t_l2i(c_l2), t_l2d(c_l2);
        Cache c_l1i(m.l1i, &t_l2i), c_l1d(m.l1d, &t_l2d);
        TimedLevel t_l1i(c_l1i), t_l1d(c_l1d);
        c_llc.addUpstream(&c_l2);
        c_l2.addUpstream(&c_l1i);
        c_l2.addUpstream(&c_l1d);
        MemAccess req;
        Cycle cycle = 0;
        Addr last_line = ~Addr{0};
        for (const TraceRecord &r : recs) {
            req.ip = r.ip;
            req.cycle = cycle++;
            // The core fetches once per new instruction line.
            if (lineNumber(r.ip) != last_line) {
                last_line = lineNumber(r.ip);
                req.addr = r.ip;
                req.type = AccessType::Instruction;
                t_l1i.access(req);
            }
            req.type = AccessType::Load;
            for (unsigned i = 0; i < r.numLoads; ++i) {
                req.addr = r.loadAddr[i];
                t_l1d.access(req);
            }
            req.type = AccessType::Store;
            for (unsigned i = 0; i < r.numStores; ++i) {
                req.addr = r.storeAddr[i];
                t_l1d.access(req);
            }
        }
        // A wrapper's interval holds its level's work, one clock read,
        // and each wrapped call below it (that call's own interval
        // plus one more clock read).
        n_l1i = static_cast<double>(t_l1i.calls);
        n_l1d = static_cast<double>(t_l1d.calls);
        const double n_l2i = static_cast<double>(t_l2i.calls);
        const double n_l2d = static_cast<double>(t_l2d.calls);
        n_l2 = n_l2i + n_l2d;
        n_llc = static_cast<double>(t_llc.calls);
        const double n_mem = static_cast<double>(t_mem.calls);
        l1i.push_back(ns(t_l1i) - c * n_l1i - ns(t_l2i) - c * n_l2i);
        l1d.push_back(ns(t_l1d) - c * n_l1d - ns(t_l2d) - c * n_l2d);
        l2.push_back(ns(t_l2i) + ns(t_l2d) - c * n_l2 - ns(t_llc) -
                     c * n_llc);
        llc.push_back(ns(t_llc) - c * n_llc - ns(t_mem) - c * n_mem);
        auto misses = [](const Cache &x) {
            return Share{static_cast<double>(x.stats().totalMisses()),
                         static_cast<double>(x.stats().totalAccesses())};
        };
        k.l1dMiss = misses(c_l1d);
        k.l2Miss = misses(c_l2);
        k.llcMiss = misses(c_llc);

        Dram d(m.dram);
        const auto d0 = Clock::now();
        for (const MemAccess &a : mem.log)
            d.access(a);
        dram.push_back(since(d0));
        n_dram = static_cast<double>(mem.log.size());
        k.rowHit = {d.rowHitRate() * n_dram, n_dram};
    }
    for (auto *v : {&l1i, &l1d, &l2, &llc})
        for (double &x : *v)
            x = std::max(0.0, x) * 1e-9;
    k.cpu = medianCost(cpu, static_cast<double>(records));
    k.l1i = medianCost(l1i, n_l1i);
    k.l1d = medianCost(l1d, n_l1d);
    k.l2 = medianCost(l2, n_l2);
    k.llc = medianCost(llc, n_llc);
    k.dram = medianCost(dram, n_dram);
    return k;
}

// ------------------------------------------------------------------
// The sweep workload.
// ------------------------------------------------------------------

struct SweepArgs
{
    std::string mode = "detailed";
    std::uint64_t seed = 1;
    double seconds = 10.0;
    unsigned jobs = 1;
    bool trace = false;
};

struct Batch
{
    double wall = 0.0;
    std::vector<double> cellWall;
    std::vector<std::uint64_t> digests;
    std::vector<std::uint8_t> ok; // not vector<bool>: written concurrently
    std::vector<std::string> errors;
};

/** One closed batch: every cell submitted at t0, pulled by the pool
 *  in `order` (job j runs cell order[j]). */
Batch
untracedBatch(const Runner &runner, const std::vector<Cell> &cells,
              const Mode &mode, const std::vector<std::size_t> &order)
{
    Batch b;
    const std::size_t n = cells.size();
    b.cellWall.resize(n);
    b.digests.resize(n);
    b.ok.resize(n);
    b.errors.resize(n);
    std::vector<ExperimentSpec> specs;
    for (const Cell &c : cells)
        specs.push_back(experiment(c, mode));
    const auto t0 = Clock::now();
    runner.forEach(n, [&](std::size_t j) {
        const std::size_t i = order[j];
        const auto c0 = Clock::now();
        const RunOutcome o = specs[i].tryRun();
        b.cellWall[i] = since(c0);
        b.ok[i] = o.ok();
        if (o.ok())
            b.digests[i] = digest(o.result);
        else
            b.errors[i] = o.error().message;
    });
    b.wall = since(t0);
    return b;
}

/** Construct every cell's trace generator and machine, as each
 *  tryRun does before its first instruction. */
double
setupOnce(const std::vector<Cell> &cells, const Mode &mode)
{
    const auto t0 = Clock::now();
    for (const Cell &c : cells) {
        TraceGenerator gen(c.spec);
        System sys(cellMachine(c, mode.params), {&gen});
    }
    return since(t0);
}

double
peakRssMb()
{
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

int
sweepMain(const SweepArgs &a)
{
    const Mode mode = parseMode(a.mode, a.seed);
    const std::vector<Cell> cells = sweepCells();
    const std::size_t n = cells.size();
    const Runner runner(a.jobs);

    // Set-up repeats before the batches and once after each timed
    // batch, so its median samples the same stretch of host time as
    // the batches do.
    std::vector<double> setups;
    for (int i = 0; i < 3; ++i)
        setups.push_back(setupOnce(cells, mode));

    // Every batch must reproduce the first batch's digests exactly.
    std::vector<std::uint64_t> ref(n, 0);
    std::vector<bool> have_ref(n, false);
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    auto check = [&](std::size_t i, bool ok, std::uint64_t d,
                     const std::string &why) {
        ++attempted;
        if (ok && !have_ref[i]) {
            ref[i] = d;
            have_ref[i] = true;
        }
        if (!ok || d != ref[i]) {
            ++failed;
            failures.push_back(cells[i].spec.name + " " +
                               experiment(cells[i], mode).contention() +
                               ": " +
                               (ok ? std::string("digest differs") : why));
        }
    };

    const double instr_per_cell =
        static_cast<double>(mode.params.warmup + mode.params.roi);
    std::vector<double> cell_walls, batch_walls, batch_mips, batch_cps;

    // Traced-run accumulators.
    const double clock_ns = a.trace ? clockCostNs() : 0.0;
    std::vector<CellTrace> traces;
    std::vector<unsigned> trace_cls;
    double traced_wall = 0.0, untraced_wall = 0.0, busy = 0.0;
    double pool_wall = 0.0;

    // The first batch warms the allocator and caches and only has its
    // digests checked. Timed batches then submit the longest cells
    // first, so the batch tail, where workers idle, is as short and
    // as repeatable as the pool allows.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    if (!a.trace) {
        const Batch b = untracedBatch(runner, cells, mode, order);
        for (std::size_t i = 0; i < n; ++i)
            check(i, b.ok[i], b.digests[i], b.errors[i]);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t x, std::size_t y) {
                             return b.cellWall[x] > b.cellWall[y];
                         });
    }

    double measured = 0.0, last = 0.0;
    const auto m0 = Clock::now();
    do {
        if (a.trace) {
            std::vector<CellTrace> tb(n);
            const auto t0 = Clock::now();
            runner.forEach(n, [&](std::size_t i) {
                tb[i] = tracedCell(cells[i], mode, clock_ns);
            });
            traced_wall += since(t0);
            for (std::size_t i = 0; i < n; ++i) {
                traces.push_back(tb[i]);
                trace_cls.push_back(cells[i].cls);
            }
            const Batch b = untracedBatch(runner, cells, mode, order);
            untraced_wall += b.wall;
            pool_wall += b.wall * runner.jobs();
            for (std::size_t i = 0; i < n; ++i) {
                busy += b.cellWall[i];
                check(i, b.ok[i], b.digests[i], b.errors[i]);
                ++attempted;
                if (tb[i].digest != b.digests[i] || !b.ok[i]) {
                    ++failed;
                    failures.push_back(cells[i].spec.name + " " +
                                       experiment(cells[i], mode)
                                           .contention() +
                                       ": traced digest differs");
                }
            }
            last = since(t0);
        } else {
            const Batch b = untracedBatch(runner, cells, mode, order);
            double ok_cells = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                check(i, b.ok[i], b.digests[i], b.errors[i]);
                cell_walls.push_back(b.cellWall[i]);
                ok_cells += b.ok[i] ? 1.0 : 0.0;
            }
            batch_walls.push_back(b.wall);
            batch_mips.push_back(ok_cells * instr_per_cell / b.wall / 1e6);
            batch_cps.push_back(ok_cells / b.wall);
            last = b.wall;
        }
        setups.push_back(setupOnce(cells, mode));
        measured = since(m0);
    } while (measured + last <= a.seconds);

    std::ostringstream o;
    o.precision(17);
    o << "{\"cell_digests\": [";
    for (std::size_t i = 0; i < n; ++i)
        o << (i ? ", " : "") << "\"" << std::to_string(ref[i]) << "\"";
    o << "], \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
        o << (i ? ", " : "") << "\"" << failures[i] << "\"";
    o << "], \"measured_s\": " << measured << ", \"batch_walls\": [";
    for (std::size_t i = 0; i < batch_walls.size(); ++i)
        o << (i ? ", " : "") << batch_walls[i];
    o << "], \"metrics\": {";

    auto metric = [&, first = true](const char *name, double v) mutable {
        o << (first ? "" : ", ") << "\"" << name << "\": " << v;
        first = false;
    };
    metric("setup_s", median(setups));
    if (!a.trace) {
        metric("sim_mips", median(batch_mips));
        metric("cells_per_s", median(batch_cps));
        metric("cell_p50_s", quantile(cell_walls, 0.5));
        metric("cell_p80_s", quantile(cell_walls, 0.8));
        metric("peak_rss_mb", peakRssMb());
        metric("ok_frac",
               1.0 - static_cast<double>(failed) /
                         static_cast<double>(std::max<std::uint64_t>(
                             attempted, 1)));
    } else {
        CellTrace s;
        for (const CellTrace &t : traces) {
            s.setup += t.setup;
            s.warmup += t.warmup;
            s.measure += t.measure;
            s.skip += t.skip;
            s.functional += t.functional;
            s.detailed += t.detailed;
            s.traceSelf += t.traceSelf;
            s.pinteSelf += t.pinteSelf;
            s.timerCost += t.timerCost;
            s.records += t.records;
            s.pinteCalls += t.pinteCalls;
            s.triggers += t.triggers;
            s.accessesSeen += t.accessesSeen;
        }
        // Kernels per class, then the ledger: each cell's in-run
        // counts priced at its class's kernel costs. Functional
        // warming and skipped intervals have no core timing, so only
        // detailed instructions are priced at the core's cost.
        std::vector<KernelCost> kc;
        KernelCost all;
        for (const char *name : classNames) {
            kc.push_back(kernels(findWorkload(name), clock_ns));
            const KernelCost &k = kc.back();
            for (auto [sum, part] :
                 {std::pair{&all.cpu, &k.cpu}, {&all.l1i, &k.l1i},
                  {&all.l1d, &k.l1d}, {&all.l2, &k.l2}, {&all.llc, &k.llc},
                  {&all.dram, &k.dram}})
                *sum += *part;
            for (auto [sum, part] :
                 {std::pair{&all.l1dMiss, &k.l1dMiss},
                  {&all.l2Miss, &k.l2Miss}, {&all.llcMiss, &k.llcMiss},
                  {&all.rowHit, &k.rowHit}})
                *sum += *part;
        }
        double accounted = 0.0;
        for (std::size_t j = 0; j < traces.size(); ++j) {
            const CellTrace &t = traces[j];
            const KernelCost &k = kc[trace_cls[j]];
            accounted += t.traceSelf + t.pinteSelf;
            accounted += 1e-9 * (k.cpu.nsPer() * t.detailedInstr +
                                 k.l1i.nsPer() * t.l1iCalls +
                                 k.l1d.nsPer() * t.l1dCalls +
                                 k.l2.nsPer() * t.l2Calls +
                                 k.llc.nsPer() * t.llcCalls +
                                 k.dram.nsPer() * t.dramCalls);
        }
        // The wrappers' clock reads are no layer's work.
        const double measure_net = s.measure - s.timerCost;
        auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        metric("sim.setup_s", s.setup);
        metric("sim.warmup_s", s.warmup);
        metric("sim.measure_s", s.measure);
        metric("sim.skip_s", s.skip);
        metric("sim.functional_s", s.functional);
        metric("sim.detailed_s", s.detailed);
        metric("trace.self_s", s.traceSelf);
        metric("trace.records", static_cast<double>(s.records));
        metric("trace.ns_per_record",
               Cost{s.traceSelf, static_cast<double>(s.records)}.nsPer());
        metric("pinte.self_s", s.pinteSelf);
        metric("pinte.calls", static_cast<double>(s.pinteCalls));
        metric("pinte.triggers", static_cast<double>(s.triggers));
        metric("pinte.trigger_rate",
               ratio(static_cast<double>(s.triggers),
                     static_cast<double>(s.accessesSeen)));
        metric("sim.core_cache_dram_s",
               measure_net - s.traceSelf - s.pinteSelf);
        metric("cpu.ns_per_instr", all.cpu.nsPer());
        metric("cache.l1i.ns_per_access", all.l1i.nsPer());
        metric("cache.l1d.ns_per_access", all.l1d.nsPer());
        metric("cache.l2.ns_per_access", all.l2.nsPer());
        metric("cache.llc.ns_per_access", all.llc.nsPer());
        metric("cache.l1d.miss_ratio", all.l1dMiss.value());
        metric("cache.l2.miss_ratio", all.l2Miss.value());
        metric("cache.llc.miss_ratio", all.llcMiss.value());
        metric("dram.ns_per_access", all.dram.nsPer());
        metric("dram.row_hit_ratio", all.rowHit.value());
        metric("runner.utilization", ratio(busy, pool_wall));
        metric("ledger.unaccounted_frac",
               ratio(measure_net - accounted, measure_net));
        metric("tracing.overhead_frac",
               ratio(traced_wall - untraced_wall, untraced_wall));
        metric("clock_ns", clock_ns);
    }
    o << "}}";
    std::printf("%s\n", o.str().c_str());
    return 0;
}

// ------------------------------------------------------------------
// Digests of pintesim reports.
// ------------------------------------------------------------------

int
digestMain(const std::vector<std::string> &files)
{
    for (const std::string &f : files) {
        std::ifstream in(f);
        if (!in)
            throw std::runtime_error("cannot read " + f);
        std::stringstream ss;
        ss << in.rdbuf();
        std::string err;
        const JsonValue doc = parseJson(ss.str(), &err);
        if (!err.empty())
            throw std::runtime_error(f + ": " + err);
        std::printf("{\"file\": \"%s\", \"cells\": [", f.c_str());
        const JsonValue &runs = doc.at("runs");
        for (std::size_t i = 0; i < runs.array.size(); ++i) {
            const RunResult r = runFromJson(runs.array[i]);
            std::printf("%s{\"contention\": \"%s\", \"ok\": %s, "
                        "\"digest\": \"%s\"}",
                        i ? ", " : "", r.contention.c_str(),
                        r.failed() ? "false" : "true",
                        std::to_string(r.failed() ? 0 : digest(r)).c_str());
        }
        std::printf("]}\n");
    }
    return 0;
}

std::uint64_t
parseU64(const std::string &s)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument("not an unsigned integer: '" + s + "'");
    return static_cast<std::uint64_t>(std::stoull(s, nullptr, 10));
}

int
benchMain(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        throw std::invalid_argument("usage: perfbench sweep|digest|info");
    if (args[0] == "info") {
        std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                    PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
        return 0;
    }
    if (args[0] == "digest")
        return digestMain({args.begin() + 1, args.end()});
    if (args[0] != "sweep")
        throw std::invalid_argument("unknown subcommand " + args[0]);
    if (args.size() % 2 == 0)
        throw std::invalid_argument("sweep flags come in pairs");
    SweepArgs a;
    for (std::size_t i = 1; i + 1 < args.size(); i += 2) {
        const std::string &k = args[i], &v = args[i + 1];
        if (k == "--mode")
            a.mode = v;
        else if (k == "--seed")
            a.seed = parseU64(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--jobs")
            a.jobs = static_cast<unsigned>(parseU64(v));
        else if (k == "--trace")
            a.trace = v == "1";
        else
            throw std::invalid_argument("unknown flag " + k);
    }
    if (a.jobs == 0)
        throw std::invalid_argument("--jobs must be > 0");
    return sweepMain(a);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
