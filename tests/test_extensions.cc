/**
 * @file
 * Tests for the section IV-B extension features: flow ablation knobs
 * (PROMOTE / BLOCK-SELECT), the DRAM-cost complement, PInTE scoping
 * beyond the LLC, and the order-tolerant DRAM slot calendar.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "core/pinte.hh"
#include "dram/dram.hh"
#include "sim/experiment.hh"

using namespace pinte;

namespace
{

CacheConfig
llcConfig()
{
    CacheConfig c;
    c.name = "LLC";
    c.numSets = 8;
    c.assoc = 8;
    c.latency = 10;
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

void
loopDrive(Cache &c, int n)
{
    for (int i = 0; i < n; ++i)
        c.access(load((static_cast<Addr>(i) % 64) * blockSize,
                      static_cast<Cycle>(i) * 20));
}

ExperimentParams
quick()
{
    ExperimentParams p;
    p.warmup = 5000;
    p.roi = 15000;
    p.sampleEvery = 3000;
    return p;
}

/** @name ExperimentSpec shorthands for the extension shapes below. */
/// @{
RunResult
isolation(const WorkloadSpec &spec, const MachineConfig &machine,
          const ExperimentParams &p)
{
    return ExperimentSpec(machine).workload(spec).params(p).run();
}

RunResult
pinteRun(const WorkloadSpec &spec, double p_induce,
         const MachineConfig &machine, const ExperimentParams &p)
{
    return ExperimentSpec(machine)
        .workload(spec)
        .pinte(p_induce)
        .params(p)
        .run();
}

RunResult
pinteDramComplement(const WorkloadSpec &spec, double p_induce,
                    const MachineConfig &machine,
                    const ExperimentParams &p, double factor)
{
    return ExperimentSpec(machine)
        .workload(spec)
        .pinte(p_induce)
        .dramComplement(factor)
        .params(p)
        .run();
}

RunResult
pinteScoped(const WorkloadSpec &spec, double p_induce, PInteScope s,
            const MachineConfig &machine, const ExperimentParams &p)
{
    return ExperimentSpec(machine)
        .workload(spec)
        .pinte(p_induce)
        .scope(s)
        .params(p)
        .run();
}
/// @}

} // namespace

TEST(FlowAblation, NoPromoteStillInducesComparableContention)
{
    auto run = [](bool promote) {
        Cache c(llcConfig(), nullptr);
        PInteConfig cfg{0.5, 7};
        cfg.promote = promote;
        PInte engine(cfg);
        c.setReplacementHook(&engine);
        loopDrive(c, 6000);
        return engine.stats().invalidations;
    };
    // Regression (inverted from the pre-fix expectation): the StackEnd
    // walk used to re-select the rank-0 way every iteration when
    // PROMOTE was off — ranks never shift without promotion — so the
    // no-promote ablation was starved of >2x its induction volume.
    // The fixed walk climbs ranks itself (see test_pinte.cc
    // NoPromoteWalkInvalidatesDistinctBlocks), so both modes induce
    // heavily; PROMOTE only changes *where* stolen slots end up in the
    // stack, not how many thefts a trigger delivers.
    const std::uint64_t with_promote = run(true);
    const std::uint64_t without_promote = run(false);
    EXPECT_GT(with_promote, 1000u);
    EXPECT_GT(without_promote, 1000u);
    EXPECT_GT(2 * without_promote, with_promote)
        << "no-promote walk starved again (pre-fix signature)";
}

TEST(FlowAblation, NoPromoteRecordsNoPromotions)
{
    Cache c(llcConfig(), nullptr);
    PInteConfig cfg{0.5, 7};
    cfg.promote = false;
    PInte engine(cfg);
    c.setReplacementHook(&engine);
    loopDrive(c, 2000);
    EXPECT_EQ(engine.stats().promotions, 0u);
    EXPECT_GT(engine.stats().invalidations, 0u);
}

TEST(FlowAblation, RandomValidSelectInducesContention)
{
    Cache c(llcConfig(), nullptr);
    PInteConfig cfg{0.3, 11};
    cfg.select = BlockSelectPolicy::RandomValid;
    PInte engine(cfg);
    c.setReplacementHook(&engine);
    loopDrive(c, 4000);
    EXPECT_GT(engine.stats().invalidations, 100u);
    EXPECT_EQ(c.stats().perCore[0].mockedThefts,
              engine.stats().invalidations);
}

TEST(FlowAblation, SelectPolicyNamesDistinct)
{
    EXPECT_STRNE(toString(BlockSelectPolicy::StackEnd),
                 toString(BlockSelectPolicy::RandomValid));
}

TEST(DramComplement, ExtraCyclesSlowEveryAccess)
{
    DramConfig base;
    DramConfig pen = base;
    pen.contentionExtra = 50;
    Dram fast(base), slow(pen);

    MemAccess req;
    req.addr = 0x1000;
    req.type = AccessType::Load;
    req.cycle = 0;
    const Cycle a = fast.access(req).readyCycle;
    const Cycle b = slow.access(req).readyCycle;
    EXPECT_EQ(b, a + 50);
}

TEST(DramComplement, RunnerScalesWithPInduce)
{
    const auto spec = findWorkload("429.mcf");
    const MachineConfig m = MachineConfig::scaled();
    const RunResult base = pinteRun(spec, 0.4, m, quick());
    const RunResult comp =
        pinteDramComplement(spec, 0.4, m, quick(), 60.0);
    // Same induced theft rate, but the complement adds DRAM latency.
    EXPECT_LT(comp.metrics.ipc, base.metrics.ipc);
    EXPECT_GT(comp.metrics.amat, base.metrics.amat);
    EXPECT_NE(comp.contention.find("+dram"), std::string::npos);
}

TEST(DramComplement, ZeroFactorMatchesBase)
{
    const auto spec = findWorkload("435.gromacs");
    const MachineConfig m = MachineConfig::scaled();
    const RunResult base = pinteRun(spec, 0.2, m, quick());
    const RunResult comp =
        pinteDramComplement(spec, 0.2, m, quick(), 0.0);
    EXPECT_EQ(comp.metrics.ipc, base.metrics.ipc);
}

TEST(PInteScope, LlcOnlyCannotTouchCoreBound)
{
    const auto spec = findWorkload("465.tonto");
    const MachineConfig m = MachineConfig::scaled();
    const RunResult iso = isolation(spec, m, quick());
    const RunResult r = pinteScoped(spec, 0.3,
                                       PInteScope::LlcOnly, m, quick());
    EXPECT_GT(weightedIpc(r.metrics.ipc, iso.metrics.ipc), 0.98);
}

TEST(PInteScope, L2ScopeReachesCoreBound)
{
    // L2-scoped engines must hurt a core-bound workload strictly more
    // than the LLC-scoped engine can (the whole point of the scope
    // extension); absolute drop depends on ROI length, so compare
    // scopes rather than fixing a threshold.
    const auto spec = findWorkload("416.gamess");
    const MachineConfig m = MachineConfig::scaled();
    const RunResult llc_only = pinteScoped(
        spec, 0.6, PInteScope::LlcOnly, m, quick());
    const RunResult l2_llc = pinteScoped(
        spec, 0.6, PInteScope::L2AndLlc, m, quick());
    EXPECT_LT(l2_llc.metrics.ipc, 0.995 * llc_only.metrics.ipc);
    EXPECT_GT(l2_llc.metrics.l2InterferenceRate, 0.1);
}

TEST(PInteScope, L2OnlyLeavesLlcHookEmpty)
{
    TraceGenerator gen(findWorkload("450.soplex"));
    MachineConfig m = MachineConfig::scaled();
    m.pinte.pInduce = 0.3;
    m.pinteScope = PInteScope::L2Only;
    System sys(m, {&gen});
    sys.warmup(3000);
    sys.runUntilCore0(10000);
    // No engine on the LLC: LLC mocked thefts must stay zero while the
    // L2 engine fires.
    EXPECT_EQ(sys.llc().stats().perCore[0].mockedThefts, 0u);
    EXPECT_GT(sys.l2(0).stats().perCore[0].mockedThefts, 0u);
}

TEST(PInteScope, EngineCountMatchesScope)
{
    auto count = [](PInteScope scope, unsigned cores) {
        std::vector<std::unique_ptr<TraceGenerator>> gens;
        std::vector<TraceSource *> srcs;
        for (unsigned i = 0; i < cores; ++i) {
            gens.push_back(std::make_unique<TraceGenerator>(
                findWorkload("435.gromacs")));
            srcs.push_back(gens.back().get());
        }
        MachineConfig m = MachineConfig::scaled(cores);
        m.pinte.pInduce = 0.1;
        m.pinteScope = scope;
        System sys(m, srcs);
        return sys.allPinteEngines().size();
    };
    EXPECT_EQ(count(PInteScope::LlcOnly, 1), 1u);
    EXPECT_EQ(count(PInteScope::L2Only, 1), 1u);
    EXPECT_EQ(count(PInteScope::L2AndLlc, 1), 2u);
    EXPECT_EQ(count(PInteScope::L2AndLlc, 2), 3u);
}

TEST(PInteScope, NamesDistinct)
{
    EXPECT_STRNE(toString(PInteScope::LlcOnly),
                 toString(PInteScope::L2Only));
    EXPECT_STRNE(toString(PInteScope::L2Only),
                 toString(PInteScope::L2AndLlc));
}

TEST(SlotCalendar, FirstBookingStartsAtRequest)
{
    SlotCalendar cal(4, 64);
    EXPECT_EQ(cal.book(16, 1), 16u);
}

TEST(SlotCalendar, MidSlotRequestStartsAtRequestTime)
{
    // The booking occupies slot [16, 20) but service never starts
    // before the requested cycle.
    SlotCalendar cal(4, 64);
    EXPECT_EQ(cal.book(18, 1), 18u);
    // The slot is consumed: the next request moves on.
    EXPECT_EQ(cal.book(16, 1), 20u);
}

TEST(SlotCalendar, SecondBookingSameSlotMovesOn)
{
    SlotCalendar cal(4, 64);
    cal.book(16, 1);
    EXPECT_EQ(cal.book(16, 1), 20u);
}

TEST(SlotCalendar, EarlierRequestUnaffectedByFutureBooking)
{
    // The property busy-until scalars lack: booking far in the future
    // must not delay an earlier request.
    SlotCalendar cal(4, 1024);
    cal.book(4000, 1);
    EXPECT_EQ(cal.book(16, 1), 16u);
}

TEST(SlotCalendar, MultiSlotBookingIsContiguous)
{
    SlotCalendar cal(4, 64);
    EXPECT_EQ(cal.book(0, 3), 0u);  // occupies slots 0-2
    EXPECT_EQ(cal.book(0, 1), 12u); // next free slot is 3
}

TEST(SlotCalendar, MultiSlotSkipsPartialGaps)
{
    SlotCalendar cal(4, 64);
    cal.book(8, 1); // slot 2 busy
    // A 3-slot booking at t=0 does not fit in slots 0-1; it must land
    // after slot 2.
    EXPECT_EQ(cal.book(0, 3), 12u);
}

TEST(SlotCalendar, SaturationSerializes)
{
    SlotCalendar cal(2, 256);
    Cycle last = 0;
    for (int i = 0; i < 50; ++i)
        last = cal.book(0, 1);
    EXPECT_EQ(last, 49u * 2);
}

namespace
{

/**
 * SlotCalendar::book as it was written before the ring cursor: `% n`
 * on every slot probed and written. The reference the cursor version
 * must match booking for booking.
 */
struct ModuloCalendar
{
    Cycle gran;
    std::vector<std::uint64_t> booked;

    Cycle
    book(Cycle t, unsigned count)
    {
        if (count == 0)
            count = 1;
        const std::size_t n = booked.size();
        std::uint64_t s = t / gran;
        for (;;) {
            bool free = true;
            for (unsigned k = 0; k < count; ++k) {
                if (booked[(s + k) % n] == s + k + 1) {
                    free = false;
                    s = s + k + 1;
                    break;
                }
            }
            if (free) {
                for (unsigned k = 0; k < count; ++k)
                    booked[(s + k) % n] = s + k + 1;
                return std::max<Cycle>(t, s * gran);
            }
        }
    }
};

} // namespace

TEST(SlotCalendar, CursorBookingMatchesModuloReference)
{
    // The bank ring (4-cycle slots), the bus ring at transfer 2 and
    // at transfer 3 (16384 / 3 slots, not a power of two), and a ring
    // shorter than the longest booking.
    struct Ring
    {
        Cycle gran;
        std::size_t slots;
    };
    for (const Ring ring : {Ring{4, 4096}, Ring{2, 8192}, Ring{3, 5461},
                            Ring{4, 7}}) {
        SlotCalendar cal(ring.gran, ring.slots);
        ModuloCalendar ref{ring.gran,
                           std::vector<std::uint64_t>(ring.slots, 0)};
        Rng rng(ring.slots);
        const Cycle window = ring.gran * ring.slots;
        Cycle now = 0;
        for (int i = 0; i < 1000000; ++i) {
            // 0..13 slots (0 books one), as a bank or bus booking
            // asks; the clock advances about 8 slots a booking, so
            // rings stay busy without a runaway backlog and wrap many
            // times over. Requests land behind and ahead of the clock,
            // and now and then a whole window or more ahead, so ring
            // entries alias across wraps.
            const auto count = static_cast<unsigned>(rng.drawRange(14));
            now += rng.drawRange(16 * ring.gran);
            Cycle t = now + rng.drawRange(64 * ring.gran);
            t = t > 32 * ring.gran ? t - 32 * ring.gran : 0;
            if (rng.drawRange(64) == 0)
                t += window * (1 + rng.drawRange(3));
            ASSERT_EQ(cal.book(t, count), ref.book(t, count))
                << ring.slots << "-slot ring, booking " << i;
        }
        SnapshotWriter got, want;
        cal.saveState(got);
        want.putVec64(ref.booked);
        EXPECT_EQ(got.bytes(), want.bytes()) << ring.slots << "-slot ring";
    }
}
