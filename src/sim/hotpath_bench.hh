/**
 * @file
 * Hot-path perf-baseline harness: pinned best-of-N wall-time kernels.
 *
 * The simulator's speed claims are only as good as their baselines, so
 * this module measures a fixed set of kernels — the end-to-end engine
 * on a multi-million-instruction file-trace run plus isolated
 * per-component loops (cache access, trace decode, LRU promote, zoo
 * trace generation, DRAM access) — and
 * emits the results as a `hotpath_bench` table through the existing
 * report sinks. The committed `BENCH_hotpath.json` at the repo root
 * accumulates one batch of rows per measurement point (label column),
 * forming the perf trajectory every later PR diffs against; see
 * EXPERIMENTS.md "Recording a perf baseline" for the protocol and
 * tools/check_bench.py for the schema the file must satisfy.
 *
 * Wall time (std::chrono::steady_clock), not CPU time, is recorded:
 * a baseline answers "how long does a run take", and best-of-N on an
 * otherwise idle machine is the standard way to strip scheduler noise
 * from that number. Each kernel also folds a checksum over its
 * simulation-visible results so a speedup that silently changed
 * behavior is caught at merge time, not in a later campaign.
 */

#ifndef PINTE_SIM_HOTPATH_BENCH_HH
#define PINTE_SIM_HOTPATH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.hh"
#include "sim/sink.hh"

namespace pinte
{

/** One measured kernel: best-of-N wall time at a pinned work size. */
struct HotpathEntry
{
    std::string label;   //!< measurement point, e.g. "pr6-pre"
    std::string kernel;  //!< "end_to_end", "cache_access", ...
    std::uint64_t work = 0;        //!< items processed per repetition
    unsigned reps = 0;             //!< repetitions measured
    double bestWallSeconds = 0.0;  //!< fastest repetition
    double ratePerSecond = 0.0;    //!< work / bestWallSeconds
    std::uint64_t checksum = 0;    //!< result digest (determinism guard)
};

/** Harness configuration. Defaults are the committed-baseline pins. */
struct HotpathOptions
{
    std::string label = "dev";

    /** Repetitions per kernel; the fastest one is recorded. */
    unsigned reps = 5;

    /**
     * End-to-end ROI instructions. The acceptance bar for engine PRs
     * is measured at >= 3M; --quick shrinks every kernel to smoke-test
     * size (the perf.smoke ctest entry) without touching the pins.
     */
    std::uint64_t instructions = 3'000'000;

    /** Scale every kernel down to CI smoke size. */
    bool quick = false;

    /**
     * Directory for the scratch trace file the end-to-end and decode
     * kernels stream from (defaults to the current directory).
     */
    std::string scratchDir = ".";
};

/** Name of the report table the harness emits and the tools validate. */
const char *hotpathTableName();

/**
 * The pinned machine the end-to-end kernel measures (scaled hierarchy,
 * live PInTE engine). Exposed so drivers can stamp its fingerprint
 * into the baseline document they publish.
 */
MachineConfig hotpathMachine();

/** Run every kernel best-of-N. Deterministic modulo wall time. */
std::vector<HotpathEntry> runHotpathSuite(const HotpathOptions &opt);

/**
 * @name Individual kernels
 * One repetition of each suite kernel, returning its checksum. Shared
 * with bench_micro so the google-benchmark per-component wrappers and
 * the committed-baseline harness measure the very same loops.
 */
/// @{
std::uint64_t hotpathEndToEndOnce(const std::string &trace_path,
                                  std::uint64_t instructions);
std::uint64_t hotpathFastForwardOnce(const std::string &trace_path,
                                     std::uint64_t instructions);
std::uint64_t hotpathDetailedRunOnce(std::uint64_t instructions);
std::uint64_t hotpathSampledRunOnce(std::uint64_t instructions);
std::uint64_t hotpathCacheAccessOnce(std::uint64_t accesses);
std::uint64_t hotpathTraceDecodeOnce(const std::string &trace_path,
                                     std::uint64_t records);
std::uint64_t hotpathLruPromoteOnce(std::uint64_t ops);
std::uint64_t hotpathDrripInductionOnce(std::uint64_t accesses);
std::uint64_t hotpathZooGenerateOnce(std::uint64_t records);
std::uint64_t hotpathDramAccessOnce(std::uint64_t accesses);
/// @}

/**
 * Scratch trace for the file-streaming kernels: written on
 * construction (450.soplex generator output), deleted on destruction.
 */
class HotpathScratchTrace
{
  public:
    /** @param dir directory to stage in  @param records trace length */
    HotpathScratchTrace(const std::string &dir, std::uint64_t records);
    ~HotpathScratchTrace();

    HotpathScratchTrace(const HotpathScratchTrace &) = delete;
    HotpathScratchTrace &operator=(const HotpathScratchTrace &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Render entries as the `hotpath_bench` table (schema in check_bench.py). */
TableData hotpathTable(const std::vector<HotpathEntry> &entries);

/**
 * Load the `hotpath_bench` rows of an existing baseline document so a
 * new measurement batch can append to the trajectory instead of
 * overwriting it. Returns no entries when `path` does not exist;
 * throws ConfigError when it exists but is not a baseline document.
 */
std::vector<HotpathEntry> loadHotpathBaseline(const std::string &path);

/** Measure the suite and merge the batch into the baseline at `path`
 *  (rows labelled `opt.label` are replaced, the rest kept exactly);
 *  `tool` names the writer. Returns the merged row count. */
std::size_t recordHotpathBaseline(const std::string &path,
                                  const HotpathOptions &opt,
                                  const std::string &tool);

} // namespace pinte

#endif // PINTE_SIM_HOTPATH_BENCH_HH
