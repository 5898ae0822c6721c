#include "pinte.hh"

#include "common/error.hh"
#include "common/invariant.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/trace_events.hh"

namespace pinte
{

const char *
toString(BlockSelectPolicy p)
{
    switch (p) {
      case BlockSelectPolicy::StackEnd: return "stack-end";
      case BlockSelectPolicy::RandomValid: return "random-valid";
    }
    return "unknown";
}

PInte::PInte(const PInteConfig &config)
    : config_(config), rng_(config.seed),
      triggerT_(Rng::unitThreshold(config.pInduce))
{
    if (!(config.pInduce >= 0.0 && config.pInduce <= 1.0))
        throw ConfigError("P_Induce must lie in [0, 1]",
                          {"pinte", "", std::to_string(config.pInduce)});
}

void
PInte::onAccess(Cache &cache, unsigned set, CoreId core, Cycle cycle)
{
    (void)core;
    ++stats_.accessesSeen;

    // GEN-PROBABILITY: trigger ratio = random / max_random (eq. 2);
    // exit unless the ratio falls below P_Induce (as the integer
    // compare against its precomputed threshold, common/rng.hh).
    if (!rng_.drawBelow(triggerT_))
        return;
    ++stats_.triggers;

    // GEN-EVICT-CNT: Blocks_evict bounded between 0 and associativity.
    const unsigned assoc = cache.assoc();
    std::uint64_t blocks_evict = rng_.drawBetween(0, assoc);
    stats_.requestedEvicts += blocks_evict;
    if (TraceEvents::on())
        TraceEvents::mark("pinte", "trigger", blocks_evict);

    // BLOCK-SELECT .. DECREMENT: walk blocks from the eviction end of
    // the rank permutation (replacement/policy.hh — rank 0 is the next
    // victim under any policy, stack-shaped or learned). Each PROMOTE
    // moves the selected block toward the protected end — the
    // adversary's "insertion" — and INVALIDATE then mocks the theft on
    // valid data. Promoting an already-invalid block models inserting
    // on a previously stolen slot (Fig 2b), so the walk always
    // promotes, but only valid blocks count as thefts.
    //
    // The walk reads the eviction order through one bulk ranks() call
    // per permutation version instead of assoc per-way rank() calls.
    // Theft invalidation never touches policy state, so the
    // permutation only changes when PROMOTE runs: with it enabled the
    // ranks are re-read each iteration (for stack policies each
    // promotion rotates a fresh block into rank 0; a policy whose
    // promotion does not reorder, e.g. Random, keeps re-selecting the
    // same already-stolen slot, and only the first selection counts a
    // theft); without it the permutation is frozen for the whole walk
    // and the single snapshot is exact — the walk then climbs ranks
    // 0..k-1 itself to reach k distinct blocks instead of re-selecting
    // the same way every iteration.
    std::uint8_t ranks[64];
    bool ranks_fresh = false;
    unsigned w = 0;
    unsigned stack_rank = 0;
    while (blocks_evict > 0 && w < assoc) {
        unsigned way = 0;
        switch (config_.select) {
          case BlockSelectPolicy::StackEnd: {
            if (!ranks_fresh) {
                cache.ranks(set, ranks);
                ranks_fresh = true;
            }
            const unsigned target = config_.promote ? 0 : stack_rank;
            for (unsigned cand = 0; cand < assoc; ++cand) {
                if (ranks[cand] == target) {
                    way = cand;
                    break;
                }
            }
            ++stack_rank;
            break;
          }
          case BlockSelectPolicy::RandomValid:
            way = static_cast<unsigned>(rng_.drawRange(assoc));
            break;
        }

        if (config_.promote) {
            cache.promoteWay(set, way);
            ++stats_.promotions;
            ranks_fresh = false; // promotion may reorder the ranks
        }

        if (cache.valid(set, way)) {
            cache.invalidateWayAsTheft(set, way, cycle);
            ++stats_.invalidations;
        }

        --blocks_evict;
        ++w;
    }

    // Every induction site is an audit site: promote-then-invalidate
    // is precisely the state mutation most likely to corrupt the
    // replacement stack, so paranoid mode re-validates the touched set
    // before the access that triggered us returns, plus the engine's
    // own counter identities.
    if (Paranoid::on()) {
        cache.auditSet(set);
        if (stats_.triggers > stats_.accessesSeen)
            invariantFail("pinte", "triggers (" +
                              std::to_string(stats_.triggers) +
                              ") exceed accesses seen (" +
                              std::to_string(stats_.accessesSeen) + ")");
        if (stats_.invalidations > stats_.requestedEvicts)
            invariantFail("pinte", "invalidations (" +
                              std::to_string(stats_.invalidations) +
                              ") exceed requested evictions (" +
                              std::to_string(stats_.requestedEvicts) + ")");
        if (config_.promote && stats_.invalidations > stats_.promotions)
            invariantFail("pinte",
                          "more invalidations than promotions with the "
                          "PROMOTE state enabled");
    }
}

const std::vector<double> &
standardPInduceSweep()
{
    static const std::vector<double> sweep = {
        0.001, 0.005, 0.01, 0.025, 0.05, 0.075,
        0.10, 0.20, 0.30, 0.40, 0.55, 0.70,
    };
    return sweep;
}

void
PInte::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    const PInteStats &s = stats_;
    reg.addCounter(prefix + ".accesses_seen", "GEN-PROBABILITY entries",
                   &s.accessesSeen);
    reg.addCounter(prefix + ".triggers", "draws that passed P_Induce",
                   &s.triggers);
    reg.addCounter(prefix + ".promotions", "PROMOTE transitions",
                   &s.promotions);
    reg.addCounter(prefix + ".inductions",
                   "induced theft evictions (INVALIDATE transitions)",
                   &s.invalidations);
    reg.addCounter(prefix + ".requested_evicts",
                   "sum of Blocks_evict draws", &s.requestedEvicts);
    reg.addDerived(prefix + ".trigger_rate",
                   "observed trigger rate (converges to P_Induce)",
                   [&s] { return s.triggerRate(); });
}

} // namespace pinte
