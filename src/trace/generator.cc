#include "generator.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/logging.hh"

namespace pinte
{

namespace
{

/** Bytes per generated instruction. */
constexpr Addr instBytes = 4;

// Thresholds of the generator's fixed Bernoulli probabilities.
constexpr std::uint64_t secondLoadT = Rng::unitThreshold(0.08);
constexpr std::uint64_t hasSrcT = Rng::unitThreshold(0.8);
constexpr std::uint64_t biasHeldT = Rng::unitThreshold(0.9);
constexpr std::uint64_t coinT = Rng::unitThreshold(0.5);

} // namespace

void
TraceSource::saveState(SnapshotWriter &) const
{
    throw SimError("trace source does not support checkpointing",
                   {"trace", "", ""});
}

void
TraceSource::loadState(SnapshotReader &)
{
    throw SimError("trace source does not support checkpointing",
                   {"trace", "", ""});
}

TraceGenerator::TraceGenerator(WorkloadSpec spec, std::uint64_t run_seed)
    : spec_(std::move(spec)), runSeed_(run_seed),
      rng_(spec_.seed * 0x100000001b3ull + run_seed)
{
    spec_.normalizeMix();
    if (spec_.footprintLines == 0)
        throw ConfigError("workload '" + spec_.name +
                              "' has zero footprint",
                          {"generator", "", spec_.name});
    if (spec_.hotLines > spec_.footprintLines)
        spec_.hotLines = spec_.footprintLines;
    if (spec_.phases == 0)
        spec_.phases = 1;

    // Build the pointer-chase cycle with Sattolo's algorithm: one cycle
    // through every line, so chase reuse distance == footprint.
    const std::size_t n = static_cast<std::size_t>(spec_.footprintLines);
    chaseNext_.resize(n);
    std::vector<std::uint32_t> perm(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = static_cast<std::uint32_t>(i);
    Rng chase_rng(spec_.seed ^ 0xc2b2ae3d27d4eb4full);
    for (std::size_t i = n - 1; i > 0; --i) {
        const std::size_t j = chase_rng.drawRange(i);
        std::swap(perm[i], perm[j]);
    }
    for (std::size_t i = 0; i < n; ++i)
        chaseNext_[perm[i]] = perm[(i + 1) % n];

    // Lay out branch sites: a third loop-like, the rest biased, with a
    // (1 - branchBias) slice of coin-flip sites that no predictor can
    // learn. Each site ends a basic block of blockLen_ instructions.
    Rng site_rng(spec_.seed ^ 0x9e3779b97f4a7c15ull);
    const std::uint32_t nsites = std::max<std::uint32_t>(1,
                                                         spec_.branchSites);
    sites_.resize(nsites);
    for (std::uint32_t i = 0; i < nsites; ++i) {
        BranchSite &s = sites_[i];
        s.ip = spec_.codeBase + (i + 1) * blockLen_ * instBytes - instBytes;
        // Backward target two blocks up (loop shape); forward otherwise.
        const Addr back = (i >= 2 ? s.ip - 2 * blockLen_ * instBytes
                                  : spec_.codeBase);
        s.target = back;
        const double r = site_rng.drawUnit();
        const double random_share = 1.0 - spec_.branchBias;
        if (r < random_share) {
            s.kind = BranchSite::Kind::Random;
        } else if (r < random_share + 0.33) {
            s.kind = BranchSite::Kind::Loop;
        } else {
            s.kind = BranchSite::Kind::Biased;
        }
        s.period = 2 + static_cast<std::uint32_t>(site_rng.drawRange(14));
        s.counter = 0;
        s.biasTaken = site_rng.drawBool(0.7);
    }

    for (auto &r : recentRegs_)
        r = 1;

    // Per-phase mixes: later phases rotate the mix so phase changes are
    // visible in the run-time metric series (Fig 7 relies on dynamic
    // behavior).
    for (std::uint32_t ph = 0; ph < 4; ++ph) {
        double hot_frac = spec_.hotFraction;
        double stream_f = spec_.streamFraction;
        double stride_f = spec_.strideFraction;
        double chase_f = spec_.chaseFraction;
        if (ph == 1) {
            hot_frac *= 0.5;
            std::swap(stream_f, chase_f);
        } else if (ph == 2) {
            hot_frac = std::min(1.0, hot_frac * 1.5);
            std::swap(stream_f, stride_f);
        } else if (ph >= 3) {
            hot_frac *= 0.75;
        }
        mix_[ph] = {Rng::unitThreshold(hot_frac),
                    Rng::unitThreshold(stream_f),
                    Rng::unitThreshold(stream_f + stride_f),
                    Rng::unitThreshold(stream_f + stride_f + chase_f)};
    }
    branchT_ = Rng::unitThreshold(
        std::min(1.0, spec_.branchFraction * blockLen_));
    loadT_ = Rng::unitThreshold(spec_.loadFraction);
    storeT_ = Rng::unitThreshold(spec_.storeFraction);
    depChainT_ = Rng::unitThreshold(spec_.depChain);
    longLatT_ = Rng::unitThreshold(spec_.longLatFraction);
    execLat2T_ = Rng::unitThreshold(spec_.meanExecLatency - 1.0);

    reset();
}

void
TraceGenerator::reset()
{
    rng_.reseed(spec_.seed * 0x100000001b3ull + runSeed_);
    generated_ = 0;
    seqCursor_ = 0;
    strideCursor_ = 0;
    chaseCursor_ = 0;
    siteIdx_ = 0;
    ip_ = spec_.codeBase;
    blockPos_ = 0;
    recentHead_ = 0;
    for (auto &s : sites_)
        s.counter = 0;
    for (auto &r : recentRegs_)
        r = 1;
}

std::uint32_t
TraceGenerator::phase() const
{
    if (spec_.phases <= 1)
        return 0;
    return static_cast<std::uint32_t>(
        (generated_ / spec_.phaseLength) % spec_.phases);
}

std::uint64_t
TraceGenerator::nextDataLine()
{
    const PhaseMix &mix = mix_[std::min<std::uint32_t>(phase(), 3)];

    if (spec_.hotLines > 0 && rng_.drawBelow(mix.hot))
        return rng_.drawRange(spec_.hotLines);

    // One uniform draw picks the pattern component.
    const std::uint64_t r = rng_.next() >> 11;
    const std::uint64_t n = spec_.footprintLines;
    if (r < mix.stream) {
        if (++seqCursor_ == n)
            seqCursor_ = 0;
        return seqCursor_;
    }
    if (r < mix.stride) {
        // The step may exceed the footprint, so this wrap keeps `%`.
        strideCursor_ = (strideCursor_ + spec_.strideLines) % n;
        return strideCursor_;
    }
    if (r < mix.chase) {
        chaseCursor_ = chaseNext_[chaseCursor_];
        return chaseCursor_;
    }
    return rng_.drawRange(n);
}

void
TraceGenerator::fillBranch(TraceRecord &r)
{
    BranchSite &s = sites_[siteIdx_];
    r.isBranch = true;
    r.ip = s.ip;
    r.branchTarget = s.target;
    switch (s.kind) {
      case BranchSite::Kind::Loop:
        s.counter++;
        r.branchTaken = (s.counter % s.period) != 0;
        break;
      case BranchSite::Kind::Biased:
        r.branchTaken = rng_.drawBelow(biasHeldT) ? s.biasTaken
                                                  : !s.biasTaken;
        break;
      case BranchSite::Kind::Random:
        r.branchTaken = rng_.drawBelow(coinT);
        break;
    }
    if (++siteIdx_ == sites_.size())
        siteIdx_ = 0;
    ip_ = r.branchTaken ? s.target
                        : s.ip + instBytes;
}

TraceRecord
TraceGenerator::next()
{
    TraceRecord r;
    r.ip = ip_;

    const bool block_end = (blockPos_ + 1 >= blockLen_);
    const bool is_branch = block_end && rng_.drawBelow(branchT_);

    if (is_branch) {
        fillBranch(r);
        blockPos_ = 0;
    } else {
        ip_ += instBytes;
        blockPos_ = block_end ? 0 : blockPos_ + 1;
        // Keep the synthetic code footprint bounded: wrap back to the
        // segment start once past the last branch site.
        const Addr code_end =
            spec_.codeBase + sites_.size() * blockLen_ * instBytes;
        if (ip_ >= code_end)
            ip_ = spec_.codeBase;
    }

    // Memory operands.
    if (rng_.drawBelow(loadT_)) {
        r.loadAddr[r.numLoads++] =
            spec_.dataBase + nextDataLine() * blockSize +
            rng_.drawRange(blockSize / 8) * 8;
        // A small share of instructions carry a second load (gather-ish).
        if (rng_.drawBelow(secondLoadT)) {
            r.loadAddr[r.numLoads++] =
                spec_.dataBase + nextDataLine() * blockSize;
        }
    }
    if (rng_.drawBelow(storeT_)) {
        r.storeAddr[r.numStores++] =
            spec_.dataBase + nextDataLine() * blockSize +
            rng_.drawRange(blockSize / 8) * 8;
    }

    // Register dependencies: destination is pseudo-random; each source
    // follows a recent producer with probability depChain.
    r.dstReg = static_cast<std::uint8_t>(1 + rng_.drawRange(numArchRegs - 1));
    for (int i = 0; i < 2; ++i) {
        if (rng_.drawBelow(hasSrcT)) {
            if (rng_.drawBelow(depChainT_)) {
                r.srcReg[i] = recentRegs_[(recentHead_ + 7) % 8];
            } else {
                r.srcReg[i] = static_cast<std::uint8_t>(
                    1 + rng_.drawRange(numArchRegs - 1));
            }
        }
    }
    recentRegs_[recentHead_] = r.dstReg;
    recentHead_ = (recentHead_ + 1) % 8;

    // Execution latency: mostly single-cycle with a long-latency tail.
    if (rng_.drawBelow(longLatT_)) {
        r.execLatency = static_cast<std::uint8_t>(8 + rng_.drawRange(8));
    } else {
        r.execLatency = rng_.drawBelow(execLat2T_) ? 2 : 1;
    }

    ++generated_;
    return r;
}

void
TraceGenerator::saveState(SnapshotWriter &w) const
{
    saveRng(w, rng_);
    w.put64(generated_);
    w.put64(seqCursor_);
    w.put64(strideCursor_);
    w.put64(chaseCursor_);
    w.put32(siteIdx_);
    w.put64(ip_);
    w.put32(blockPos_);
    w.put32(recentHead_);
    for (const std::uint8_t reg : recentRegs_)
        w.put8(reg);
    // Only the loop trip counters mutate after construction; the site
    // layout is rebuilt deterministically from the spec.
    w.put64(sites_.size());
    for (const BranchSite &s : sites_)
        w.put32(s.counter);
}

void
TraceGenerator::loadState(SnapshotReader &r)
{
    loadRng(r, rng_);
    generated_ = r.get64();
    seqCursor_ = r.get64();
    strideCursor_ = r.get64();
    chaseCursor_ = r.get64();
    siteIdx_ = r.get32();
    ip_ = r.get64();
    blockPos_ = r.get32();
    recentHead_ = r.get32();
    for (std::uint8_t &reg : recentRegs_)
        reg = r.get8();
    const std::uint64_t nsites = r.get64();
    if (nsites != sites_.size())
        throw SimError("checkpoint branch-site count mismatch",
                       {"generator", "", std::to_string(nsites)});
    for (BranchSite &s : sites_)
        s.counter = r.get32();
    // The cursors wrap by compare, not `%`, and index the chase cycle
    // and the site table: a restored one must lie inside its range.
    const std::uint64_t n = spec_.footprintLines;
    if (seqCursor_ >= n || strideCursor_ >= n || chaseCursor_ >= n ||
        siteIdx_ >= sites_.size())
        throw SimError("checkpoint generator cursor out of range",
                       {"generator", "", spec_.name});
}

VectorTraceSource::VectorTraceSource(std::vector<TraceRecord> records)
    : records_(std::move(records))
{
}

TraceRecord
VectorTraceSource::next()
{
    if (pos_ >= records_.size()) {
        // Wrap like ChampSim does when a trace is shorter than the
        // requested instruction budget.
        pos_ = 0;
        if (records_.empty())
            return TraceRecord{};
    }
    return records_[pos_++];
}

} // namespace pinte
