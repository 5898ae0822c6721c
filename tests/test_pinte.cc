/**
 * @file
 * Tests for the PInTE engine (core/pinte.hh): the Fig 4 state machine,
 * trigger-rate convergence, stability across seeds, and correct
 * interaction with every replacement policy.
 */

#include <gtest/gtest.h>

#include "expect_error.hh"

#include <cmath>
#include <set>

#include "cache/cache.hh"
#include "common/summary_stats.hh"
#include "core/pinte.hh"

using namespace pinte;

namespace
{

CacheConfig
llcConfig(ReplacementKind repl = ReplacementKind::Lru)
{
    CacheConfig c;
    c.name = "LLC";
    c.numSets = 8;
    c.assoc = 8;
    c.latency = 10;
    c.replacement = repl;
    return c;
}

MemAccess
load(Addr addr, Cycle cycle = 0)
{
    MemAccess r;
    r.addr = addr;
    r.type = AccessType::Load;
    r.cycle = cycle;
    return r;
}

/** Drive `n` distinct-line loads through the cache. */
void
drive(Cache &c, int n, Addr base = 0)
{
    for (int i = 0; i < n; ++i)
        c.access(load(base + static_cast<Addr>(i) * blockSize,
                      static_cast<Cycle>(i) * 20));
}

} // namespace

TEST(PInte, ZeroProbabilityNeverTriggers)
{
    Cache c(llcConfig(), nullptr);
    PInte engine({0.0, 1});
    c.setReplacementHook(&engine);
    drive(c, 1000);
    EXPECT_EQ(engine.stats().triggers, 0u);
    EXPECT_EQ(engine.stats().invalidations, 0u);
    EXPECT_EQ(engine.stats().accessesSeen, 1000u);
}

TEST(PInte, CertainProbabilityAlwaysTriggers)
{
    Cache c(llcConfig(), nullptr);
    PInte engine({1.0, 1});
    c.setReplacementHook(&engine);
    drive(c, 500);
    EXPECT_EQ(engine.stats().triggers, 500u);
}

TEST(PInte, TriggerRateConvergesToPInduce)
{
    for (double p : {0.05, 0.25, 0.6}) {
        Cache c(llcConfig(), nullptr);
        PInte engine({p, 42});
        c.setReplacementHook(&engine);
        drive(c, 20000);
        EXPECT_NEAR(engine.stats().triggerRate(), p, 0.02) << "p=" << p;
    }
}

TEST(PInte, MockedTheftsLandInCacheStats)
{
    Cache c(llcConfig(), nullptr);
    PInte engine({0.5, 7});
    c.setReplacementHook(&engine);
    drive(c, 2000);
    EXPECT_EQ(c.stats().perCore[0].mockedThefts,
              engine.stats().invalidations);
    EXPECT_GT(engine.stats().invalidations, 0u);
}

TEST(PInte, PromotionsAtLeastInvalidations)
{
    Cache c(llcConfig(), nullptr);
    PInte engine({0.3, 9});
    c.setReplacementHook(&engine);
    drive(c, 5000);
    EXPECT_GE(engine.stats().promotions, engine.stats().invalidations);
}

TEST(PInte, EvictCountBoundedByAssociativity)
{
    Cache c(llcConfig(), nullptr);
    PInte engine({1.0, 11});
    c.setReplacementHook(&engine);
    drive(c, 1000);
    // Each trigger draws Blocks_evict in [0, assoc]; the mean of the
    // per-trigger request must sit near assoc/2 and never exceed assoc.
    const double mean_req =
        static_cast<double>(engine.stats().requestedEvicts) /
        static_cast<double>(engine.stats().triggers);
    EXPECT_GT(mean_req, 2.0);
    EXPECT_LE(mean_req, 8.0);
}

TEST(PInte, ContentionRateMonotoneInPInduce)
{
    double previous = -1.0;
    for (double p : {0.01, 0.05, 0.2, 0.5}) {
        Cache c(llcConfig(), nullptr);
        PInte engine({p, 5});
        c.setReplacementHook(&engine);
        // Loop over a footprint that fits the cache so blocks are
        // valid and theft-able.
        for (int i = 0; i < 8000; ++i)
            c.access(load((static_cast<Addr>(i) % 64) * blockSize,
                          static_cast<Cycle>(i) * 20));
        const double rate = c.stats().perCore[0].contentionRate();
        EXPECT_GT(rate, previous) << "p=" << p;
        previous = rate;
    }
}

TEST(PInte, InducedContentionCausesMisses)
{
    // Without PInTE the loop fits: ~zero steady-state misses. With
    // PInTE at 30%, stolen blocks force re-fetches.
    auto run = [](double p) {
        Cache c(llcConfig(), nullptr);
        PInte engine({p, 3});
        c.setReplacementHook(&engine);
        for (int i = 0; i < 4000; ++i)
            c.access(load((static_cast<Addr>(i) % 64) * blockSize,
                          static_cast<Cycle>(i) * 20));
        return c.stats().perCore[0].misses;
    };
    EXPECT_GT(run(0.3), 4 * run(0.0));
}

TEST(PInte, InvalidatedBlocksKeepPromotedPosition)
{
    // After a PInTE episode the invalid slot sits at the protected end
    // (the mocked adversary "inserted" there); the next fill must
    // reclaim an invalid way rather than evict valid data.
    Cache c(llcConfig(), nullptr);
    // Fill set 0 completely.
    for (unsigned t = 0; t < 8; ++t)
        c.access(load(t * 8 * blockSize, t * 20));
    PInte engine({1.0, 13});
    c.setReplacementHook(&engine);
    const auto before = c.stats().perCore[0].selfEvictions;
    // This access triggers an episode; follow-up fills go to invalid
    // ways, so self-evictions should not explode.
    c.access(load(99 * 8 * blockSize, 1000));
    c.setReplacementHook(nullptr);
    c.access(load(100 * 8 * blockSize, 2000));
    c.access(load(101 * 8 * blockSize, 3000));
    EXPECT_EQ(c.stats().perCore[0].selfEvictions, before + 1);
}

TEST(PInte, DirtyVictimsCreateWritebackTraffic)
{
    class WbCounter : public MemoryLevel
    {
      public:
        AccessResult
        access(const MemAccess &req) override
        {
            if (req.type == AccessType::Writeback)
                ++writebacks;
            return {req.cycle + 50, false};
        }
        const char *levelName() const override { return "wb"; }
        int writebacks = 0;
    };

    WbCounter mem;
    Cache c(llcConfig(), &mem);
    PInte engine({0.5, 17});
    c.setReplacementHook(&engine);
    for (int i = 0; i < 2000; ++i) {
        MemAccess st;
        st.addr = (static_cast<Addr>(i) % 64) * blockSize;
        st.type = AccessType::Store;
        st.cycle = static_cast<Cycle>(i) * 20;
        c.access(st);
    }
    EXPECT_GT(mem.writebacks, 0);
}

TEST(PInte, NoPromoteWalkInvalidatesDistinctBlocks)
{
    // Regression: without PROMOTE the stack ranks never shift (theft
    // invalidation keeps the slot's position), and the StackEnd walk
    // re-selected the rank-0 way every iteration — a Blocks_evict draw
    // of k invalidated at most one block. On a full set every
    // requested eviction must land on a distinct valid block.
    bool saw_multi_block_episode = false;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        Cache c(llcConfig(), nullptr);
        for (unsigned t = 0; t < 8; ++t) // fill set 0 completely
            c.access(load(t * 8 * blockSize, t * 20));
        PInte engine({1.0, seed, /*promote=*/false,
                      BlockSelectPolicy::StackEnd});
        engine.onAccess(c, 0, 0, 1000);
        const auto &st = engine.stats();
        ASSERT_EQ(st.triggers, 1u);
        EXPECT_EQ(st.invalidations, st.requestedEvicts);
        unsigned invalid = 0;
        for (unsigned way = 0; way < 8; ++way)
            if (!c.valid(0, way))
                ++invalid;
        EXPECT_EQ(invalid, st.invalidations);
        if (st.requestedEvicts >= 2)
            saw_multi_block_episode = true;
    }
    // At least one seed must draw a multi-block episode, or this test
    // cannot distinguish the walk from the broken one.
    EXPECT_TRUE(saw_multi_block_episode);
}

TEST(PInte, StatsClearable)
{
    Cache c(llcConfig(), nullptr);
    PInte engine({0.5, 19});
    c.setReplacementHook(&engine);
    drive(c, 500);
    engine.clearStats();
    EXPECT_EQ(engine.stats().triggers, 0u);
    EXPECT_EQ(engine.stats().accessesSeen, 0u);
}

TEST(PInte, OutOfRangeProbabilityIsFatal)
{
    EXPECT_ERROR(PInte({1.5, 1}), ConfigError, "P_Induce");
    EXPECT_ERROR(PInte({-0.1, 1}), ConfigError, "P_Induce");
    EXPECT_ERROR(PInte({std::nan(""), 1}), ConfigError, "P_Induce");
}

TEST(PInte, StandardSweepHasTwelveAscendingPoints)
{
    const auto &sweep = standardPInduceSweep();
    ASSERT_EQ(sweep.size(), 12u);
    for (std::size_t i = 1; i < sweep.size(); ++i)
        EXPECT_GT(sweep[i], sweep[i - 1]);
    EXPECT_GT(sweep.front(), 0.0);
    EXPECT_LE(sweep.back(), 1.0);
}

TEST(PInte, StabilityAcrossSeeds)
{
    // Fig 3: re-runs with different engine seeds must land within a
    // tight band. Normalized stddev of the miss count < 5%.
    std::vector<double> misses;
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        Cache c(llcConfig(), nullptr);
        PInte engine({0.2, seed});
        c.setReplacementHook(&engine);
        for (int i = 0; i < 6000; ++i)
            c.access(load((static_cast<Addr>(i) % 64) * blockSize,
                          static_cast<Cycle>(i) * 20));
        misses.push_back(
            static_cast<double>(c.stats().perCore[0].misses));
    }
    const SummaryStats s = summarize(misses);
    EXPECT_LT(s.normStddev(), 0.05);
    EXPECT_GT(s.mean, 0.0);
}

TEST(PInte, DifferentSeedsGiveDifferentEventPlacement)
{
    auto run = [](std::uint64_t seed) {
        Cache c(llcConfig(), nullptr);
        PInte engine({0.2, seed});
        c.setReplacementHook(&engine);
        drive(c, 200);
        return engine.stats().triggers;
    };
    // Counts may coincide, but across several seeds we expect spread.
    const auto a = run(1), b = run(2), c2 = run(3);
    EXPECT_TRUE(a != b || b != c2);
}

TEST(PInte, ContentionSpreadsUniformlyAcrossSets)
{
    // Fig 1's premise: PInTE covers contention uniformly, because it
    // triggers on whatever set the workload touches and the driver
    // touches all sets evenly here. No set should soak up a
    // disproportionate share of the induced thefts.
    Cache c(llcConfig(), nullptr);
    PInte engine({0.5, 29});
    c.setReplacementHook(&engine);

    std::vector<std::uint64_t> before(8, 0);
    // Round-robin across the 8 sets with a footprint that keeps every
    // set full.
    for (int i = 0; i < 32000; ++i)
        c.access(load((static_cast<Addr>(i) % 64) * blockSize,
                      static_cast<Cycle>(i) * 20));

    // Count mocked thefts per set by probing valid-block churn: redo
    // with per-set counting through the stats delta of a fresh cache.
    // Simpler: count invalid blocks encountered per set over time is
    // noisy; instead verify via per-set theft counters kept here.
    // The engine doesn't expose per-set stats, so re-run with 8
    // single-set caches, one per set index - equivalent workload.
    std::vector<double> per_set;
    for (unsigned s = 0; s < 8; ++s) {
        CacheConfig cfg = llcConfig();
        cfg.numSets = 1;
        Cache single(cfg, nullptr);
        PInte e({0.5, 29 + s});
        single.setReplacementHook(&e);
        for (int i = 0; i < 4000; ++i)
            single.access(load((static_cast<Addr>(i) % 8) * blockSize *
                                   8,
                               static_cast<Cycle>(i) * 20));
        per_set.push_back(
            static_cast<double>(e.stats().invalidations));
    }
    const SummaryStats stats = summarize(per_set);
    EXPECT_LT(stats.normStddev(), 0.15);
    EXPECT_GT(stats.mean, 100.0);
}

TEST(PInte, GoldenDeterminism)
{
    // Regression pin: the exact event counts of a fixed scenario.
    // This intentionally breaks when any component on the access path
    // changes behavior — update the constants deliberately, never
    // casually. (Scenario: 64-line loop, 8x8 LLC, P=0.25, seed 77.)
    Cache c(llcConfig(), nullptr);
    PInte engine({0.25, 77});
    c.setReplacementHook(&engine);
    for (int i = 0; i < 5000; ++i)
        c.access(load((static_cast<Addr>(i) % 64) * blockSize,
                      static_cast<Cycle>(i) * 20));
    const auto &st = c.stats().perCore[0];
    const auto &es = engine.stats();
    EXPECT_EQ(st.accesses, 5000u);
    EXPECT_EQ(es.accessesSeen, 5000u);
    // Trigger count is a pure function of the seed and P_Induce.
    EXPECT_EQ(es.triggers, 1253u);
    EXPECT_EQ(st.misses, st.accesses - st.hits);
    EXPECT_EQ(st.mockedThefts, es.invalidations);
}

class PIntePolicyTest
    : public ::testing::TestWithParam<ReplacementKind>
{
};

TEST_P(PIntePolicyTest, EngineWorksWithEveryReplacementPolicy)
{
    Cache c(llcConfig(GetParam()), nullptr);
    PInte engine({0.4, 23});
    c.setReplacementHook(&engine);
    for (int i = 0; i < 4000; ++i)
        c.access(load((static_cast<Addr>(i) % 64) * blockSize,
                      static_cast<Cycle>(i) * 20));
    EXPECT_GT(engine.stats().triggers, 0u);
    EXPECT_GT(engine.stats().invalidations, 0u);
    EXPECT_EQ(c.stats().perCore[0].mockedThefts,
              engine.stats().invalidations);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PIntePolicyTest,
    ::testing::Values(ReplacementKind::Lru, ReplacementKind::PseudoLru,
                      ReplacementKind::Nmru, ReplacementKind::Rrip,
                      ReplacementKind::Random, ReplacementKind::Drrip,
                      ReplacementKind::Lhd),
    [](const auto &info) { return std::string(toString(info.param)); });

TEST(PInte, RandomPolicyTheftsSpreadAcrossWays)
{
    // Regression: RandomPolicy::rank() used to return the way index,
    // making the rank permutation the identity in every set — the
    // StackEnd walk's rank-0 target was always way 0, so every induced
    // theft under random replacement stole way 0, a systematic bias no
    // real random-replacement cache exhibits. With seeded per-set
    // permutations, the rank-0 way varies by set and the stolen-way
    // histogram must cover multiple ways.
    CacheConfig cfg = llcConfig(ReplacementKind::Random);
    cfg.numSets = 32;
    Cache c(cfg, nullptr);
    for (unsigned t = 0; t < 8; ++t)
        for (unsigned s = 0; s < 32; ++s)
            c.access(load(static_cast<Addr>(t * 32 + s) * blockSize,
                          static_cast<Cycle>(t) * 20));
    PInte engine({1.0, 9});
    std::set<unsigned> stolen_ways;
    for (unsigned s = 0; s < 32; ++s) {
        engine.onAccess(c, s, 0, 1000);
        for (unsigned w = 0; w < 8; ++w)
            if (!c.valid(s, w))
                stolen_ways.insert(w);
    }
    EXPECT_GT(engine.stats().invalidations, 0u);
    EXPECT_GE(stolen_ways.size(), 3u);
}
