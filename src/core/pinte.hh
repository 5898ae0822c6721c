/**
 * @file
 * PInTE: Probabilistic Induction of Theft Evictions.
 *
 * This is the paper's primary contribution. PInTE lets the simulated
 * system act as a second, adversarial workload: after every demand
 * access to the last-level cache it rolls a trigger ratio against the
 * configured probability of induction (P_Induce), and when the roll
 * triggers it promotes-then-invalidates blocks from the eviction end of
 * the replacement stack — exactly the movement a real co-runner's fills
 * would cause, at a controllable rate, for the cost of a single-core
 * simulation.
 *
 * The state machine follows Fig 4 of the paper:
 *
 *   UPDATE-ACCESS -> GEN-PROBABILITY -> GEN-EVICT-CNT ->
 *   { BLOCK-SELECT -> PROMOTE -> [INVALIDATE] -> DECREMENT }*
 *
 * UPDATE-ACCESS is the cache's own hit/fill bookkeeping, which has
 * already run by the time the ReplacementHook fires.
 */

#ifndef PINTE_CORE_PINTE_HH
#define PINTE_CORE_PINTE_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "common/types.hh"

namespace pinte
{

/**
 * Which block BLOCK-SELECT targets. The paper's flow walks the
 * eviction end of the replacement stack; RandomValid is an ablation
 * that invalidates uniformly chosen valid blocks instead, breaking the
 * "steal what a real fill would steal" property.
 */
enum class BlockSelectPolicy
{
    StackEnd,    //!< the paper's Fig 4 flow
    RandomValid, //!< ablation: uniform random valid block
};

/** Printable name for a block-select policy. */
const char *toString(BlockSelectPolicy p);

/** Configuration of one PInTE engine instance. */
struct PInteConfig
{
    /**
     * Probability of induction (section IV-C): the chance that any
     * given LLC access triggers a contention-induction episode. Range
     * [0, 1]; 0 disables the engine.
     */
    double pInduce = 0.0;

    /** Seed for the engine's private RNG stream. */
    std::uint64_t seed = 0x5157;

    /**
     * Ablation: skip the PROMOTE state, leaving invalidated blocks at
     * the eviction end. Without promotion the induced evictions stop
     * mimicking an adversary's insertions — surviving blocks keep
     * their isolation-time stack depths — and the walk degenerates to
     * trimming the same end of the stack.
     */
    bool promote = true;

    /** Which block the BLOCK-SELECT state picks. */
    BlockSelectPolicy select = BlockSelectPolicy::StackEnd;
};

/** Counters the engine keeps about its own activity. */
struct PInteStats
{
    std::uint64_t accessesSeen = 0;  //!< GEN-PROBABILITY entries
    std::uint64_t triggers = 0;      //!< draws that passed P_Induce
    std::uint64_t promotions = 0;    //!< PROMOTE transitions
    std::uint64_t invalidations = 0; //!< INVALIDATE transitions
    std::uint64_t requestedEvicts = 0; //!< sum of Blocks_evict draws

    /** Observed trigger rate; converges to P_Induce by construction. */
    double
    triggerRate() const
    {
        return accessesSeen ? static_cast<double>(triggers) /
                                  static_cast<double>(accessesSeen)
                            : 0.0;
    }
};

/**
 * The PInTE engine. Install on the LLC via Cache::setReplacementHook().
 *
 * Re-runs with a different seed trigger at different points but, by the
 * law of large numbers, induce statistically indistinguishable
 * contention — the stability property of Fig 3.
 */
class PInte : public ReplacementHook
{
  public:
    explicit PInte(const PInteConfig &config);

    /** The GEN-PROBABILITY .. DECREMENT pipeline of Fig 4. */
    void onAccess(Cache &cache, unsigned set, CoreId core,
                  Cycle cycle) override;

    /** Engine activity counters. */
    const PInteStats &stats() const { return stats_; }

    /** Reset activity counters (end of warmup). */
    void clearStats() { stats_ = PInteStats{}; }

    /** Configured probability of induction. */
    double pInduce() const { return config_.pInduce; }

    /** Register engine activity counters under `prefix`. */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /**
     * @name Checkpoint support
     * The RNG stream position plus the activity counters — everything
     * a restored engine needs to continue bit-identically.
     */
    /// @{
    void
    saveState(SnapshotWriter &w) const
    {
        saveRng(w, rng_);
        w.put64(stats_.accessesSeen);
        w.put64(stats_.triggers);
        w.put64(stats_.promotions);
        w.put64(stats_.invalidations);
        w.put64(stats_.requestedEvicts);
    }

    void
    loadState(SnapshotReader &r)
    {
        loadRng(r, rng_);
        stats_.accessesSeen = r.get64();
        stats_.triggers = r.get64();
        stats_.promotions = r.get64();
        stats_.invalidations = r.get64();
        stats_.requestedEvicts = r.get64();
    }
    /// @}

  private:
    PInteConfig config_;
    Rng rng_;
    /** Rng::unitThreshold(pInduce): drawBelow() is the trigger roll. */
    std::uint64_t triggerT_;
    PInteStats stats_;
};

/**
 * The 12 P_Induce configurations used throughout the paper's sweeps
 * (expressed as fractions; the case-study x-axis labels them by their
 * percentage, e.g. "7.5" and "70"). Spans light to extreme contention.
 */
const std::vector<double> &standardPInduceSweep();

} // namespace pinte

#endif // PINTE_CORE_PINTE_HH
