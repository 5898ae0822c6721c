#include "hotpath_bench.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cache/cache.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "core/pinte.hh"
#include "dram/dram.hh"
#include "replacement/policy.hh"
#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "trace/generator.hh"
#include "trace/trace_io.hh"
#include "trace/zoo.hh"

namespace pinte
{

namespace
{

/**
 * The contention classes a perfbench sweep covers: llc-bound,
 * dram-bound, core-bound and streaming.
 */
const char *const sweepClasses[] = {"450.soplex", "429.mcf", "416.gamess",
                                    "462.libquantum"};

/** Fold `v` into `sum` (order-sensitive, cheap). */
std::uint64_t
fold(std::uint64_t sum, std::uint64_t v)
{
    return sum * 0x100000001b3ull + v;
}

/**
 * Best-of-N wall time of `fn`, which returns a checksum. Every
 * repetition must produce the same checksum: a kernel whose result
 * depends on the repetition would make the recorded rate meaningless.
 */
template <typename Fn>
HotpathEntry
bestOf(const HotpathOptions &opt, const char *kernel, std::uint64_t work,
       Fn &&fn)
{
    HotpathEntry e;
    e.label = opt.label;
    e.kernel = kernel;
    e.work = work;
    e.reps = opt.reps;
    e.bestWallSeconds = -1.0;
    for (unsigned r = 0; r < opt.reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t sum = fn();
        const auto t1 = std::chrono::steady_clock::now();
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();
        if (r == 0)
            e.checksum = sum;
        else if (sum != e.checksum)
            throw SimError("hotpath kernel '" + std::string(kernel) +
                               "' is nondeterministic across repetitions",
                           {"hotpath_bench", "", std::to_string(sum)});
        if (e.bestWallSeconds < 0.0 || secs < e.bestWallSeconds)
            e.bestWallSeconds = secs;
    }
    e.ratePerSecond =
        e.bestWallSeconds > 0.0
            ? static_cast<double>(work) / e.bestWallSeconds
            : 0.0;
    return e;
}

} // namespace

HotpathScratchTrace::HotpathScratchTrace(const std::string &dir,
                                         std::uint64_t records)
{
    path_ = dir + "/hotpath_bench_" +
            std::to_string(static_cast<unsigned long>(getpid())) +
            ".pnttrc";
    TraceGenerator gen(findWorkload("450.soplex"));
    writeTrace(path_, gen, records);
}

HotpathScratchTrace::~HotpathScratchTrace()
{
    std::remove(path_.c_str());
}

std::uint64_t
hotpathEndToEndOnce(const std::string &trace_path,
                    std::uint64_t instructions)
{
    FileTraceSource src(trace_path);
    System sys(hotpathMachine(), {&src});
    sys.runUntilCore0(instructions);
    std::uint64_t sum = 0;
    sum = fold(sum, sys.core(0).stats().instructions);
    sum = fold(sum, sys.core(0).stats().cycles);
    sum = fold(sum, sys.llc().stats().totalAccesses());
    sum = fold(sum, sys.llc().stats().totalMisses());
    if (const PInte *engine = sys.pinte()) {
        sum = fold(sum, engine->stats().triggers);
        sum = fold(sum, engine->stats().invalidations);
    }
    return sum;
}

std::uint64_t
hotpathFastForwardOnce(const std::string &trace_path,
                       std::uint64_t instructions)
{
    // The interval engine's functional-warming phase: identical
    // machine and trace to end_to_end, cycle timing skipped. The
    // rate ratio between this row and end_to_end is the fast-forward
    // speedup the sampled schedules bank on.
    FileTraceSource src(trace_path);
    System sys(hotpathMachine(), {&src});
    sys.setExecMode(ExecMode::FunctionalWarming);
    sys.runUntilCore0(instructions);
    std::uint64_t sum = 0;
    sum = fold(sum, sys.core(0).stats().instructions);
    sum = fold(sum, sys.llc().stats().totalAccesses());
    sum = fold(sum, sys.llc().stats().totalMisses());
    if (const PInte *engine = sys.pinte()) {
        sum = fold(sum, engine->stats().triggers);
        sum = fold(sum, engine->stats().invalidations);
    }
    return sum;
}

std::uint64_t
hotpathCacheAccessOnce(std::uint64_t accesses)
{
    CacheConfig cfg;
    cfg.name = "bench-llc";
    cfg.numSets = 1024;
    cfg.assoc = 16;
    cfg.numCores = 2;
    Cache c(cfg, nullptr);

    // 3x-capacity footprint: a steady mix of hits, misses and
    // cross-core thefts, alternating requesters.
    const Addr footprint_lines = 3 * Addr(cfg.numSets) * cfg.assoc;
    Rng rng(0xb43c);
    MemAccess req;
    req.type = AccessType::Load;
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const Addr line = i % 4 ? rng.drawRange(footprint_lines)
                                : (i / 4) % footprint_lines;
        req.addr = line << blockShift;
        req.core = static_cast<CoreId>(i & 1);
        req.cycle = i;
        req.type = (i % 7) ? AccessType::Load : AccessType::Store;
        sum = fold(sum, c.access(req).hit);
    }
    sum = fold(sum, c.stats().totalMisses());
    return sum;
}

std::uint64_t
hotpathDrripInductionOnce(std::uint64_t accesses)
{
    // DRRIP LLC with a live PInTE engine at a high induction rate:
    // every trigger's BLOCK-SELECT walk reads the eviction order
    // through Cache::ranks(), so this kernel times the RRPV rank path
    // the single-pass counting-sort override optimizes (an O(assoc)
    // bulk ranks() versus the per-way O(assoc^2) it replaced).
    CacheConfig cfg;
    cfg.name = "bench-llc";
    cfg.numSets = 1024;
    cfg.assoc = 16;
    cfg.numCores = 2;
    cfg.replacement = ReplacementKind::Drrip;
    Cache c(cfg, nullptr);

    PInteConfig pcfg;
    pcfg.pInduce = 0.5;
    PInte engine(pcfg);
    c.setReplacementHook(&engine);

    const Addr footprint_lines = 3 * Addr(cfg.numSets) * cfg.assoc;
    Rng rng(0xd221);
    MemAccess req;
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const Addr line = i % 4 ? rng.drawRange(footprint_lines)
                                : (i / 4) % footprint_lines;
        req.addr = line << blockShift;
        req.core = static_cast<CoreId>(i & 1);
        req.cycle = i;
        req.type = (i % 7) ? AccessType::Load : AccessType::Store;
        sum = fold(sum, c.access(req).hit);
    }
    sum = fold(sum, c.stats().totalMisses());
    sum = fold(sum, engine.stats().invalidations);
    return sum;
}

std::uint64_t
hotpathTraceDecodeOnce(const std::string &trace_path,
                       std::uint64_t records)
{
    FileTraceSource src(trace_path);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < records; ++i) {
        const TraceRecord r = src.next();
        sum = fold(sum, r.ip + r.numLoads + r.isBranch);
    }
    return sum;
}

std::uint64_t
hotpathLruPromoteOnce(std::uint64_t ops)
{
    const unsigned sets = 1024, assoc = 16;
    auto policy = makeReplacementPolicy(ReplacementKind::Lru, sets,
                                        assoc, 1);
    Rng rng(0x9e37);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        const unsigned set =
            static_cast<unsigned>(rng.drawRange(sets));
        const unsigned way =
            static_cast<unsigned>(rng.drawRange(assoc));
        policy->onHit(set, way);
        sum = fold(sum, policy->rank(set, way));
        if ((i & 0xf) == 0)
            sum = fold(sum, policy->victim(set));
    }
    return sum;
}

std::uint64_t
hotpathZooGenerateOnce(std::uint64_t records)
{
    // Synthetic trace generation alone: what every sweep cell pays per
    // instruction before the core sees it. A quarter of the records
    // from each contention class.
    std::uint64_t sum = 0;
    for (const char *name : sweepClasses) {
        TraceGenerator gen(findWorkload(name));
        for (std::uint64_t i = 0; i < records / 4; ++i) {
            const TraceRecord r = gen.next();
            sum = fold(sum, r.ip + r.loadAddr[0] + r.storeAddr[0] +
                                r.isBranch + r.execLatency);
        }
    }
    return sum;
}

std::uint64_t
hotpathDramAccessOnce(std::uint64_t accesses)
{
    // The DRAM model alone on an LLC miss stream in miniature: half the
    // requests continue one of eight sequential streams, the rest go
    // to random lines of a 16 MiB region, and one in four is a
    // writeback. Issue stamps advance a few cycles a request and now
    // and then step back, as the hierarchy walk produces. This
    // exercises row hits, misses and conflicts and both slot
    // calendars.
    Dram dram(hotpathMachine().dram);
    constexpr Addr regionLines = (Addr(16) << 20) / blockSize;
    Addr streams[8] = {};
    for (Addr k = 0; k < 8; ++k)
        streams[k] = k * regionLines / 8;
    Rng rng(0xd7a3);
    MemAccess req;
    Cycle now = 0;
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const Addr line = rng.drawBool(0.5)
                              ? ++streams[rng.drawRange(8)]
                              : rng.drawRange(regionLines);
        req.addr = line << blockShift;
        req.type = rng.drawRange(4) == 0 ? AccessType::Writeback
                                         : AccessType::Load;
        now += rng.drawRange(24);
        req.cycle = now > 200 && rng.drawRange(8) == 0 ? now - 200 : now;
        sum = fold(sum, dram.access(req).readyCycle - req.cycle);
    }
    sum = fold(sum, dram.stats()[0].rowHits);
    sum = fold(sum, dram.stats()[0].rowConflicts);
    return sum;
}

namespace
{

/**
 * Shared scale parameters for the paired detailed_run/sampled_run
 * kernels: identical warmup and ROI so the two rows' rate ratio IS
 * the interval engine's end-to-end speedup at a detailed fraction of
 * 5% (acceptance bar: >= 5x at a fraction <= 10%, with the sampled
 * estimates inside their own error bars of the detailed run).
 */
ExperimentParams
acceptanceParams(std::uint64_t instructions)
{
    ExperimentParams p;
    p.warmup = instructions / 30;
    p.roi = instructions;
    p.sampleEvery = std::max<std::uint64_t>(1, instructions / 10);
    return p;
}

std::uint64_t
foldRun(const RunResult &r)
{
    std::uint64_t sum = 0;
    sum = fold(sum, r.metrics.llcAccesses);
    sum = fold(sum, r.metrics.llcMisses);
    sum = fold(sum, r.pinte.accessesSeen);
    sum = fold(sum, r.pinte.triggers);
    sum = fold(sum, r.sampled.detailedIntervals);
    return sum;
}

} // namespace

std::uint64_t
hotpathDetailedRunOnce(std::uint64_t instructions)
{
    const RunResult r = ExperimentSpec(hotpathMachine())
                            .workload(findWorkload("450.soplex"))
                            .pinte(0.2)
                            .params(acceptanceParams(instructions))
                            .run();
    return foldRun(r);
}

std::uint64_t
hotpathSampledRunOnce(std::uint64_t instructions)
{
    ExperimentParams p = acceptanceParams(instructions);
    p.sampling.mode = SampleMode::Periodic;
    p.sampling.intervalLength =
        std::max<std::uint64_t>(400, instructions / 150);
    p.sampling.detailedFraction = 0.05;
    const RunResult r = ExperimentSpec(hotpathMachine())
                            .workload(findWorkload("450.soplex"))
                            .pinte(0.2)
                            .params(p)
                            .run();
    return foldRun(r);
}

const char *
hotpathTableName()
{
    return "hotpath_bench";
}

MachineConfig
hotpathMachine()
{
    // The trajectory is only comparable at one machine configuration.
    MachineConfig m = MachineConfig::scaled();
    // A live engine so the measured loop includes the PInTE hook, the
    // theft accounting and the induced writeback traffic — the paths
    // the contention sweeps actually exercise.
    m.pinte.pInduce = 0.2;
    return m;
}

std::vector<HotpathEntry>
runHotpathSuite(const HotpathOptions &opt)
{
    if (opt.reps == 0)
        throw ConfigError("hotpath bench needs reps >= 1",
                          {"hotpath_bench", "", "0"});

    const bool q = opt.quick;
    const std::uint64_t instr = q ? 60'000 : opt.instructions;
    const std::uint64_t trace_records = q ? (1u << 14) : (1u << 18);
    const std::uint64_t cache_ops = q ? 200'000 : 5'000'000;
    const std::uint64_t decode_ops = q ? 100'000 : 4'000'000;
    const std::uint64_t promote_ops = q ? 200'000 : 8'000'000;
    const std::uint64_t generate_ops = q ? 200'000 : 4'000'000;
    const std::uint64_t dram_ops = q ? 100'000 : 2'000'000;

    HotpathScratchTrace trace(opt.scratchDir, trace_records);

    std::vector<HotpathEntry> out;
    out.push_back(bestOf(opt, "end_to_end", instr, [&] {
        return hotpathEndToEndOnce(trace.path(), instr);
    }));
    out.push_back(bestOf(opt, "fast_forward", instr, [&] {
        return hotpathFastForwardOnce(trace.path(), instr);
    }));
    out.push_back(bestOf(opt, "cache_access", cache_ops, [&] {
        return hotpathCacheAccessOnce(cache_ops);
    }));
    out.push_back(bestOf(opt, "trace_decode", decode_ops, [&] {
        return hotpathTraceDecodeOnce(trace.path(), decode_ops);
    }));
    out.push_back(bestOf(opt, "lru_promote", promote_ops, [&] {
        return hotpathLruPromoteOnce(promote_ops);
    }));
    out.push_back(bestOf(opt, "drrip_induction", cache_ops, [&] {
        return hotpathDrripInductionOnce(cache_ops);
    }));
    out.push_back(bestOf(opt, "zoo_generate", generate_ops, [&] {
        return hotpathZooGenerateOnce(generate_ops);
    }));
    out.push_back(bestOf(opt, "dram_access", dram_ops, [&] {
        return hotpathDramAccessOnce(dram_ops);
    }));
    out.push_back(bestOf(opt, "detailed_run", instr, [&] {
        return hotpathDetailedRunOnce(instr);
    }));
    out.push_back(bestOf(opt, "sampled_run", instr, [&] {
        return hotpathSampledRunOnce(instr);
    }));
    return out;
}

TableData
hotpathTable(const std::vector<HotpathEntry> &entries)
{
    TableData t(hotpathTableName(),
                {"label", "kernel", "work_items", "reps", "best_wall_s",
                 "rate_per_s", "checksum"});
    for (const HotpathEntry &e : entries)
        t.addRow({Cell(e.label), Cell(e.kernel), Cell::count(e.work),
                  Cell::count(e.reps), Cell::real(e.bestWallSeconds, 6),
                  Cell::real(e.ratePerSecond, 1),
                  Cell::count(e.checksum)});
    return t;
}

std::vector<HotpathEntry>
loadHotpathBaseline(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return {};
    std::stringstream ss;
    ss << in.rdbuf();

    std::string err;
    const JsonValue doc = parseJson(ss.str(), &err);
    if (!err.empty() || !doc.isObject())
        throw ConfigError("baseline file is not valid JSON: " + path +
                              (err.empty() ? "" : " (" + err + ")"),
                          {"hotpath_bench", path, ""});
    const JsonValue *tables = doc.find("tables");
    if (!tables || !tables->isArray())
        throw ConfigError(
            "baseline file has no tables section: " + path,
            {"hotpath_bench", path, ""});

    std::vector<HotpathEntry> out;
    for (const JsonValue &t : tables->array) {
        const JsonValue *name = t.find("name");
        if (!name || name->asString() != hotpathTableName())
            continue;
        // Column order is resolved by name so older files survive
        // column additions.
        std::vector<std::string> cols;
        for (const JsonValue &c : t.at("columns").array)
            cols.push_back(c.asString());
        auto idx = [&](const char *want) -> int {
            for (std::size_t i = 0; i < cols.size(); ++i)
                if (cols[i] == want)
                    return static_cast<int>(i);
            return -1;
        };
        const int li = idx("label"), ki = idx("kernel"),
                  wi = idx("work_items"), ri = idx("reps"),
                  bi = idx("best_wall_s"), pi = idx("rate_per_s"),
                  ci = idx("checksum");
        if (li < 0 || ki < 0 || wi < 0 || ri < 0 || bi < 0 || pi < 0)
            throw ConfigError("baseline table misses required columns: " +
                                  path,
                              {"hotpath_bench", path, ""});
        for (const JsonValue &row : t.at("rows").array) {
            const auto &cells = row.array;
            HotpathEntry e;
            e.label = cells.at(li).asString();
            e.kernel = cells.at(ki).asString();
            e.work = cells.at(wi).asU64();
            e.reps = static_cast<unsigned>(cells.at(ri).asU64());
            e.bestWallSeconds = cells.at(bi).asDouble();
            e.ratePerSecond = cells.at(pi).asDouble();
            e.checksum = ci >= 0 ? cells.at(ci).asU64() : 0;
            out.push_back(std::move(e));
        }
    }
    return out;
}

std::size_t
recordHotpathBaseline(const std::string &path, const HotpathOptions &opt,
                      const std::string &tool)
{
    // Load first so a malformed existing file fails before the (slow)
    // measurement, not after it.
    std::vector<HotpathEntry> merged = loadHotpathBaseline(path);
    std::erase_if(merged, [&](const HotpathEntry &e) {
        return e.label == opt.label;
    });
    const std::vector<HotpathEntry> batch = runHotpathSuite(opt);
    for (const HotpathEntry &e : batch)
        std::fprintf(stderr, "  %-12s %12llu items  best %9.6f s  "
                             "%12.0f /s\n",
                     e.kernel.c_str(),
                     static_cast<unsigned long long>(e.work),
                     e.bestWallSeconds, e.ratePerSecond);
    merged.insert(merged.end(), batch.begin(), batch.end());

    Report rep(ReportFormat::Json, path,
               {tool, hotpathMachine().fingerprint(), ExperimentParams{}});
    rep->table(hotpathTable(merged));
    rep.close();
    return merged.size();
}

} // namespace pinte
