/**
 * @file
 * Tests for the DRAM model (dram/dram.hh).
 */

#include <gtest/gtest.h>

#include "expect_error.hh"

#include <cstddef>
#include <vector>

#include "common/snapshot.hh"
#include "dram/dram.hh"

using namespace pinte;

namespace
{

MemAccess
rdAccess(Addr addr, Cycle cycle = 0, CoreId core = 0)
{
    MemAccess r;
    r.addr = addr;
    r.core = core;
    r.type = AccessType::Load;
    r.cycle = cycle;
    return r;
}

DramConfig
cfg()
{
    DramConfig c;
    c.channels = 2;
    c.banksPerChannel = 4;
    c.linesPerRow = 8;
    return c;
}

} // namespace

TEST(Dram, FirstAccessIsRowMiss)
{
    Dram d(cfg());
    d.access(rdAccess(0));
    EXPECT_EQ(d.stats()[0].rowMisses, 1u);
    EXPECT_EQ(d.stats()[0].reads, 1u);
}

TEST(Dram, SecondAccessSameRowIsRowHit)
{
    Dram d(cfg());
    const Cycle r1 = d.access(rdAccess(0, 0)).readyCycle;
    d.access(rdAccess(blockSize * 2, r1)); // same channel/row (lines 0 and 2
                                       // interleave: line 2 -> channel 0)
    EXPECT_EQ(d.stats()[0].rowHits, 1u);
}

TEST(Dram, RowHitIsFasterThanRowMiss)
{
    Dram d(cfg());
    const Cycle t0 = 0;
    const Cycle miss_ready = d.access(rdAccess(0, t0)).readyCycle;
    const Cycle miss_lat = miss_ready - t0;

    const Cycle t1 = miss_ready + 10;
    const Cycle hit_ready = d.access(rdAccess(blockSize * 2, t1)).readyCycle;
    const Cycle hit_lat = hit_ready - t1;

    EXPECT_LT(hit_lat, miss_lat);
}

TEST(Dram, RowConflictIsSlowest)
{
    DramConfig c = cfg();
    c.channels = 1;
    c.banksPerChannel = 1;
    Dram d(c);

    const Cycle t0 = 0;
    const Cycle lat_miss = d.access(rdAccess(0, t0)).readyCycle - t0;

    // Different row, same (only) bank: conflict.
    const Addr far = blockSize * c.linesPerRow * 64;
    const Cycle t1 = 100000;
    const Cycle lat_conf = d.access(rdAccess(far, t1)).readyCycle - t1;
    EXPECT_GT(lat_conf, lat_miss);
    EXPECT_EQ(d.stats()[0].rowConflicts, 1u);
}

TEST(Dram, ConsecutiveLinesUseBothChannels)
{
    Dram d(cfg());
    // Lines 0 and 1 map to different channels, so two simultaneous
    // reads shouldn't serialize on one bus.
    const Cycle a = d.access(rdAccess(0, 0)).readyCycle;
    const Cycle b = d.access(rdAccess(blockSize, 0)).readyCycle;
    EXPECT_EQ(a, b); // identical independent latencies
}

TEST(Dram, BankBusySerializesBackToBackConflicts)
{
    DramConfig c = cfg();
    c.channels = 1;
    c.banksPerChannel = 1;
    Dram d(c);
    const Cycle a = d.access(rdAccess(0, 0)).readyCycle;
    // Issued at cycle 0 too, but the bank is busy until `a`.
    const Addr far = blockSize * c.linesPerRow * 64;
    const Cycle b = d.access(rdAccess(far, 0)).readyCycle;
    EXPECT_GT(b, a);
}

TEST(Dram, BandwidthSaturationGrowsLatency)
{
    DramConfig c = cfg();
    c.channels = 1;
    Dram d(c);
    // Flood one channel with same-cycle requests; later requests must
    // see growing queueing delay through busy-until.
    Cycle first = 0, last = 0;
    for (int i = 0; i < 32; ++i) {
        const Cycle ready =
            d.access(rdAccess(blockSize * 2 * i, 0)).readyCycle;
        if (i == 0)
            first = ready;
        last = ready;
    }
    EXPECT_GT(last, first + 31 * c.transfer - 1);
}

TEST(Dram, WritesCountSeparately)
{
    Dram d(cfg());
    MemAccess wb;
    wb.addr = 0;
    wb.type = AccessType::Writeback;
    d.access(wb);
    EXPECT_EQ(d.stats()[0].writes, 1u);
    EXPECT_EQ(d.stats()[0].reads, 0u);
}

TEST(Dram, PerCoreStatsSeparated)
{
    DramConfig c = cfg();
    c.numCores = 2;
    Dram d(c);
    d.access(rdAccess(0, 0, 0));
    d.access(rdAccess(blockSize, 0, 1));
    EXPECT_EQ(d.stats()[0].reads, 1u);
    EXPECT_EQ(d.stats()[1].reads, 1u);
}

TEST(Dram, AvgReadLatencyTracked)
{
    Dram d(cfg());
    d.access(rdAccess(0, 0));
    EXPECT_GT(d.stats()[0].avgReadLatency(), 0.0);
}

TEST(Dram, RowHitRateAggregates)
{
    Dram d(cfg());
    d.access(rdAccess(0, 0));
    d.access(rdAccess(blockSize * 2, 1000));
    d.access(rdAccess(blockSize * 4, 2000));
    // 1 miss then 2 hits in the same row.
    EXPECT_NEAR(d.rowHitRate(), 2.0 / 3.0, 1e-12);
}

TEST(Dram, ClearStatsResetsCountersOnly)
{
    Dram d(cfg());
    d.access(rdAccess(0, 0));
    d.clearStats();
    EXPECT_EQ(d.stats()[0].reads, 0u);
    // Bank state survives: the next same-row access is still a hit.
    d.access(rdAccess(blockSize * 2, 1000));
    EXPECT_EQ(d.stats()[0].rowHits, 1u);
}

TEST(Dram, HalvedResourcesShrinkGeometry)
{
    const DramConfig full = cfg();
    const DramConfig half = full.halvedResources();
    EXPECT_EQ(half.channels, full.channels / 2);
    EXPECT_EQ(half.banksPerChannel, full.banksPerChannel / 2);
    EXPECT_EQ(half.linesPerRow, full.linesPerRow / 2);
    EXPECT_EQ(half.transfer, full.transfer * 2);
}

TEST(Dram, HalvedResourcesNeverReachZero)
{
    DramConfig c = cfg();
    c.channels = 1;
    c.banksPerChannel = 1;
    c.linesPerRow = 1;
    const DramConfig half = c.halvedResources();
    EXPECT_GE(half.channels, 1u);
    EXPECT_GE(half.banksPerChannel, 1u);
    EXPECT_GE(half.linesPerRow, 1u);
}

TEST(Dram, HalvedResourcesAreSlowerUnderLoad)
{
    DramConfig full_cfg = cfg();
    Dram full(full_cfg);
    Dram half(full_cfg.halvedResources());

    auto flood = [](Dram &d) {
        Cycle last = 0;
        for (int i = 0; i < 64; ++i)
            last = d.access(rdAccess(blockSize * i, 0)).readyCycle;
        return last;
    };
    EXPECT_GT(flood(half), flood(full));
}

TEST(Dram, NonPowerOfTwoGeometryIsFatal)
{
    DramConfig c = cfg();
    c.banksPerChannel = 3;
    EXPECT_ERROR(Dram d(c), ConfigError, "powers of two");
}

namespace
{

/**
 * A hand-built Dram snapshot for cfg(): closed banks, every bank and
 * bus calendar ring `ring_slots` long, zeroed counters.
 */
SnapshotReader
snapshotWithRings(std::size_t ring_slots)
{
    const DramConfig c = cfg();
    const std::size_t banks = std::size_t(c.channels) * c.banksPerChannel;
    SnapshotWriter w;
    for (std::size_t b = 0; b < banks; ++b) {
        w.put64(~std::uint64_t(0));
        w.putBool(false);
    }
    for (std::size_t i = 0; i < banks + c.channels; ++i)
        w.putVec64(std::vector<std::uint64_t>(ring_slots, 0));
    for (unsigned core = 0; core < c.numCores; ++core)
        for (int field = 0; field < 8; ++field)
            w.put64(0);
    return SnapshotReader(w.bytes());
}

} // namespace

TEST(Dram, RestoreRejectsZeroLengthCalendarRing)
{
    // Accepting it left book() to take `% 0` on the next access: the
    // process died of SIGFPE instead of reporting a bad checkpoint.
    Dram d(cfg());
    SnapshotReader r = snapshotWithRings(0);
    EXPECT_ERROR(
        {
            d.loadState(r);
            d.access(rdAccess(0));
        },
        SimError, "slot-calendar ring");
}

TEST(Dram, RestoreRejectsWrongLengthCalendarRing)
{
    // The bank ring is 16384 / 4 = 4096 slots; one short would move
    // every slot's ring entry.
    Dram d(cfg());
    SnapshotReader r = snapshotWithRings(4095);
    EXPECT_ERROR(d.loadState(r), SimError, "slot-calendar ring");
}
