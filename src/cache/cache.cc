#include "cache.hh"

#include <algorithm>
#include <bit>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/invariant.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "prefetch/prefetchers.hh"
#include "replacement/lhd.hh"
#include "replacement/policies.hh"

namespace pinte
{

const char *
toString(InclusionPolicy p)
{
    switch (p) {
      case InclusionPolicy::NonInclusive: return "non-inclusive";
      case InclusionPolicy::Inclusive: return "inclusive";
      case InclusionPolicy::Exclusive: return "exclusive";
    }
    return "unknown";
}

namespace
{

/** Entries in the direct-mapped pending-fill (MSHR merge) table. */
constexpr std::size_t pendingEntries = 1024;

/** Render a line number as lowercase hex for audit messages. */
std::string
hexLine(Addr line)
{
    static const char digits[] = "0123456789abcdef";
    std::string s;
    do {
        s.insert(s.begin(), digits[line & 0xf]);
        line >>= 4;
    } while (line);
    return "0x" + s;
}

} // namespace

template <typename F>
decltype(auto)
Cache::withPolicy(F &&f)
{
    switch (config_.replacement) {
      case ReplacementKind::Lru:
        return f(static_cast<LruPolicy &>(*policy_));
      case ReplacementKind::PseudoLru:
        return f(static_cast<PseudoLruPolicy &>(*policy_));
      case ReplacementKind::Nmru:
        return f(static_cast<NmruPolicy &>(*policy_));
      case ReplacementKind::Rrip:
        return f(static_cast<RripPolicy &>(*policy_));
      case ReplacementKind::Random:
        return f(static_cast<RandomPolicy &>(*policy_));
      case ReplacementKind::Drrip:
        return f(static_cast<DrripPolicy &>(*policy_));
      case ReplacementKind::Lhd:
        return f(static_cast<LhdPolicy &>(*policy_));
    }
    return f(*policy_);
}

template <typename F>
decltype(auto)
Cache::withPolicy(F &&f) const
{
    switch (config_.replacement) {
      case ReplacementKind::Lru:
        return f(static_cast<const LruPolicy &>(*policy_));
      case ReplacementKind::PseudoLru:
        return f(static_cast<const PseudoLruPolicy &>(*policy_));
      case ReplacementKind::Nmru:
        return f(static_cast<const NmruPolicy &>(*policy_));
      case ReplacementKind::Rrip:
        return f(static_cast<const RripPolicy &>(*policy_));
      case ReplacementKind::Random:
        return f(static_cast<const RandomPolicy &>(*policy_));
      case ReplacementKind::Drrip:
        return f(static_cast<const DrripPolicy &>(*policy_));
      case ReplacementKind::Lhd:
        return f(static_cast<const LhdPolicy &>(*policy_));
    }
    return f(static_cast<const ReplacementPolicy &>(*policy_));
}

Cache::Cache(const CacheConfig &config, MemoryLevel *next)
    : config_(config), next_(next),
      lines_(std::size_t(config.numSets) * config.assoc, 0),
      owners_(std::size_t(config.numSets) * config.assoc, invalidCoreId),
      validBits_(config.numSets, 0),
      dirtyBits_(config.numSets, 0),
      prefetchedBits_(config.numSets, 0),
      fullMask_(config.assoc >= 64 ? ~std::uint64_t(0)
                                   : ((std::uint64_t(1) << config.assoc) -
                                      1)),
      policy_(makeReplacementPolicy(config.replacement, config.numSets,
                                    config.assoc, config.seed)),
      prefetcher_(makePrefetcher(config.prefetcher,
                                 config.prefetchDegree)),
      wayMasks_(config.numCores, ~std::uint64_t(0)),
      occupancy_(config.numCores, 0),
      pending_(pendingEntries),
      stats_(config.numCores, config.assoc),
      indexBits_(floorLog2(config.numSets))
{
    if (!isPowerOfTwo(config.numSets))
        throw ConfigError("cache '" + config.name +
                              "': numSets must be a power of 2",
                          {"cache", "", std::to_string(config.numSets)});
    if (config.assoc > 64)
        throw ConfigError("cache '" + config.name +
                              "': assoc > 64 unsupported",
                          {"cache", "", std::to_string(config.assoc)});
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>(lineNumber(addr) &
                                 ((Addr(1) << indexBits_) - 1));
}

unsigned
Cache::rank(unsigned set, unsigned way) const
{
    return withPolicy([&](const auto &p) { return p.rank(set, way); });
}

void
Cache::ranks(unsigned set, std::uint8_t *out) const
{
    withPolicy([&](const auto &p) { p.ranks(set, out); });
}

bool
Cache::probe(Addr addr) const
{
    return findWay(setIndex(addr), lineNumber(addr)) >= 0;
}

int
Cache::findWay(unsigned set, Addr line) const
{
    const Addr *tags = lines_.data() + std::size_t(set) * config_.assoc;
    for (std::uint64_t v = validBits_[set]; v; v &= v - 1) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(v));
        if (tags[w] == line)
            return static_cast<int>(w);
    }
    return -1;
}

void
Cache::setWayMask(CoreId core, std::uint64_t mask)
{
    if (core >= wayMasks_.size())
        throw ConfigError("setWayMask: core id out of range",
                          {"cache", "", std::to_string(core)});
    if ((mask & fullMask_) == 0)
        throw ConfigError("setWayMask: mask allows no ways", {"cache", "", ""});
    wayMasks_[core] = mask;
}

Cycle
Cache::pendingReady(Addr line) const
{
    const Pending &p = pending_[line % pendingEntries];
    return p.line == line ? p.ready : 0;
}

void
Cache::notePending(Addr line, Cycle ready)
{
    Pending &p = pending_[line % pendingEntries];
    p.line = line;
    p.ready = ready;
}

unsigned
Cache::pickVictim(unsigned set, CoreId core)
{
    const std::uint64_t allowed =
        (core < wayMasks_.size() ? wayMasks_[core] : ~std::uint64_t(0)) &
        fullMask_;

    // Invalid allowed ways first: one bitmask op instead of a scan.
    const std::uint64_t invalid = allowed & ~validBits_[set];
    if (invalid)
        return static_cast<unsigned>(std::countr_zero(invalid));

    if (allowed == fullMask_)
        return withPolicy([&](auto &p) { return p.victim(set); });

    // Masked allocation: lowest-rank allowed way. One bulk ranks()
    // call instead of a per-way rank() virtual call.
    std::uint8_t ranks[64];
    withPolicy([&](const auto &p) { p.ranks(set, ranks); });
    unsigned best_way = 0;
    unsigned best_rank = ~0u;
    for (std::uint64_t m = allowed; m; m &= m - 1) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(m));
        if (ranks[w] < best_rank) {
            best_rank = ranks[w];
            best_way = w;
        }
    }
    // setWayMask rejects masks with no in-range ways, so an empty
    // candidate list here means corrupted mask state, not user error.
    if (best_rank == ~0u)
        invariantFail("cache:" + config_.name,
                      "pickVictim: effective way mask for core " +
                          std::to_string(core) + " allows no ways",
                      set);
    return best_way;
}

void
Cache::evict(unsigned set, unsigned way, CoreId requester, Cycle cycle,
             bool for_refill)
{
    const std::uint64_t bit = wayBit(way);
    if (!(validBits_[set] & bit))
        return;
    const std::size_t bi = blockIndex(set, way);
    const Addr line = lines_[bi];
    const CoreId block_owner = owners_[bi];

    // Theft accounting (section IV-A): an inter-core eviction is a
    // theft caused by the requester and suffered by the victim's owner.
    if (block_owner < stats_.perCore.size()) {
        if (requester != block_owner &&
            requester < stats_.perCore.size()) {
            stats_.perCore[requester].theftsCaused++;
            stats_.perCore[block_owner].theftsSuffered++;
        } else if (requester == block_owner) {
            stats_.perCore[block_owner].selfEvictions++;
        }
        occupancy_[block_owner]--;
    }

    // Inclusive caches force the line out of the upper levels; a dirty
    // upper copy merges its dirtiness into the victim before writeback.
    bool is_dirty = dirtyBits_[set] & bit;
    if (config_.inclusion == InclusionPolicy::Inclusive) {
        for (Cache *up : upstreams_)
            if (up->invalidateLine(line << blockShift, cycle, false))
                is_dirty = true;
    }

    if (is_dirty && next_) {
        MemAccess wb;
        wb.addr = line << blockShift;
        wb.core = block_owner < stats_.perCore.size() ? block_owner
                                                      : requester;
        wb.type = AccessType::Writeback;
        wb.cycle = cycle;
        wb.wbDirty = true;
        if (wb.core < stats_.perCore.size())
            stats_.perCore[wb.core].writebacksOut++;
        next_->access(wb);
    } else if (!is_dirty && next_) {
        // Clean evictions feed exclusive downstream caches (victim
        // cache behavior); everyone else ignores them.
        auto *down = dynamic_cast<Cache *>(next_);
        if (down && down->config_.inclusion == InclusionPolicy::Exclusive) {
            MemAccess ev;
            ev.addr = line << blockShift;
            ev.core = block_owner < stats_.perCore.size() ? block_owner
                                                          : requester;
            ev.type = AccessType::Writeback;
            ev.cycle = cycle;
            ev.wbDirty = false;
            if (ev.core < stats_.perCore.size())
                stats_.perCore[ev.core].writebacksOut++;
            next_->access(ev);
        }
    }

    validBits_[set] &= ~bit;
    dirtyBits_[set] &= ~bit;
    // When the caller refills this way immediately (the per-miss
    // evict+fill pair), onInvalidate followed by onFill on the same
    // way is state-identical to onFill alone for every built-in
    // policy — LRU/PseudoLRU/NMRU/RRIP/Random/DRRIP either no-op on
    // invalidate or have the fill overwrite exactly what invalidate
    // wrote, LHD tracks slot liveness itself so a fill over a live
    // slot records the same eviction sample the skipped onInvalidate
    // would have, no policy reads its state in between, and none
    // draws RNG or advances a clock in onInvalidate — so the call is
    // skipped on the hot path.
    if (!for_refill)
        withPolicy([&](auto &p) { p.onInvalidate(set, way); });
}

void
Cache::fillBlock(unsigned set, unsigned way, Addr line, CoreId core,
                 bool is_write, bool is_prefetch)
{
    const std::uint64_t bit = wayBit(way);
    const std::size_t bi = blockIndex(set, way);
    lines_[bi] = line;
    owners_[bi] = core;
    validBits_[set] |= bit;
    dirtyBits_[set] = (dirtyBits_[set] & ~bit) | (is_write ? bit : 0);
    prefetchedBits_[set] =
        (prefetchedBits_[set] & ~bit) | (is_prefetch ? bit : 0);
    if (core < occupancy_.size())
        occupancy_[core]++;
    withPolicy([&](auto &p) { p.onFill(set, way); });
}

bool
Cache::invalidateLine(Addr addr, Cycle cycle, bool writeback_dirty)
{
    const unsigned set = setIndex(addr);
    const int way = findWay(set, lineNumber(addr));

    // Maintain transitive invalidation through our own upstreams.
    bool upper_dirty = false;
    for (Cache *up : upstreams_)
        if (up->invalidateLine(addr, cycle, writeback_dirty))
            upper_dirty = true;

    if (way < 0)
        return upper_dirty;

    const unsigned w = static_cast<unsigned>(way);
    const std::uint64_t bit = wayBit(w);
    const CoreId block_owner = owners_[blockIndex(set, w)];
    const bool was_dirty = (dirtyBits_[set] & bit) || upper_dirty;
    if (block_owner < occupancy_.size())
        occupancy_[block_owner]--;
    validBits_[set] &= ~bit;
    dirtyBits_[set] &= ~bit;
    withPolicy([&](auto &p) { p.onInvalidate(set, w); });

    if (was_dirty && writeback_dirty && next_) {
        MemAccess wb;
        wb.addr = lineAlign(addr);
        wb.core = block_owner < stats_.perCore.size() ? block_owner : 0;
        wb.type = AccessType::Writeback;
        wb.cycle = cycle;
        stats_.perCore[wb.core].writebacksOut++;
        next_->access(wb);
        return false;
    }
    return was_dirty;
}

void
Cache::promoteWay(unsigned set, unsigned way)
{
    withPolicy([&](auto &p) { p.onHit(set, way); });
}

void
Cache::invalidateWayAsTheft(unsigned set, unsigned way, Cycle cycle)
{
    const std::uint64_t bit = wayBit(way);
    if (!(validBits_[set] & bit))
        return;
    const std::size_t bi = blockIndex(set, way);
    const CoreId block_owner = owners_[bi];

    // The system mocked a theft against this block's owner (Fig 2b).
    if (block_owner < stats_.perCore.size()) {
        stats_.perCore[block_owner].mockedThefts++;
        occupancy_[block_owner]--;
    }

    // Deliberately NO back-invalidation of upper levels, even in an
    // inclusive hierarchy: the paper's INVALIDATE state (Fig 4) only
    // clears the valid bit and queues the writeback. A real adversary
    // fill in an inclusive LLC would also kill the L1/L2 copies — one
    // of the access-pattern details PInTE trades away (section IV-B),
    // and the mechanism behind the inclusion row of Fig 11. From here
    // on strict inclusion no longer holds, so the paranoid audit stops
    // checking it.
    if (config_.inclusion == InclusionPolicy::Inclusive)
        inclusionCompromised_ = true;

    // Dirty victims create writeback traffic toward DRAM, the one form
    // of downstream contention PInTE does produce (section IV-B).
    if ((dirtyBits_[set] & bit) && next_) {
        MemAccess wb;
        wb.addr = lines_[bi] << blockShift;
        wb.core = block_owner < stats_.perCore.size() ? block_owner : 0;
        wb.type = AccessType::Writeback;
        wb.cycle = cycle;
        stats_.perCore[wb.core].writebacksOut++;
        next_->access(wb);
    }

    validBits_[set] &= ~bit;
    dirtyBits_[set] &= ~bit;
    // Deliberately no policy onInvalidate(): the mocked adversary
    // "inserted" at this block's promoted position (Fig 2b), so the
    // slot keeps its rank — its stack position under a stack policy,
    // its learned class/age state under LHD (whose next real fill on
    // the slot records the stolen block's eviction sample) — until a
    // real fill reclaims it.
}

AccessResult
Cache::handleWriteback(const MemAccess &req)
{
    const unsigned set = setIndex(req.addr);
    const Addr line = lineNumber(req.addr);
    const CoreId c = req.core < stats_.perCore.size() ? req.core : 0;
    stats_.perCore[c].writebacksIn++;

    const int way = findWay(set, line);
    if (way >= 0) {
        const unsigned w = static_cast<unsigned>(way);
        if (req.wbDirty)
            dirtyBits_[set] |= wayBit(w);
        withPolicy([&](auto &p) { p.onHit(set, w); });
        return {req.cycle + config_.latency, true};
    }

    // Allocate the displaced line here (write-allocate spill). This is
    // the "L2 activity spilling" the paper's Fig 6b root-causes.
    stats_.perCore[c].writebackMisses++;
    const unsigned victim = pickVictim(set, req.core);
    evict(set, victim, req.core, req.cycle, /*for_refill=*/true);
    fillBlock(set, victim, line, req.core, req.wbDirty, false);
    return {req.cycle + config_.latency, false};
}

void
Cache::runPrefetcher(const MemAccess &req, bool hit)
{
    prefetchBuf_.clear();
    // Devirtualized observe(): this runs once per demand access.
    switch (config_.prefetcher) {
      case PrefetcherKind::NextLine:
        static_cast<NextLinePrefetcher &>(*prefetcher_)
            .observe(req.addr, req.ip, hit, prefetchBuf_);
        break;
      case PrefetcherKind::IpStride:
        static_cast<IpStridePrefetcher &>(*prefetcher_)
            .observe(req.addr, req.ip, hit, prefetchBuf_);
        break;
      default:
        prefetcher_->observe(req.addr, req.ip, hit, prefetchBuf_);
        break;
    }
    if (prefetchBuf_.empty())
        return;

    const CoreId c = req.core < stats_.perCore.size() ? req.core : 0;
    for (Addr target : prefetchBuf_) {
        if (probe(target) || pendingReady(lineNumber(target)) > req.cycle)
            continue;
        prefetcher_->noteIssued(1);
        stats_.perCore[c].prefetchIssued++;
        MemAccess pf;
        pf.addr = target;
        pf.ip = req.ip;
        pf.core = req.core;
        pf.type = AccessType::Prefetch;
        pf.cycle = req.cycle;
        access(pf);
    }
}

AccessResult
Cache::access(const MemAccess &req)
{
    if (req.type == AccessType::Writeback)
        return handleWriteback(req);

    const unsigned set = setIndex(req.addr);
    const Addr line = lineNumber(req.addr);
    const CoreId c = req.core < stats_.perCore.size() ? req.core : 0;
    PerCoreCacheStats &st = stats_.perCore[c];

    const bool is_prefetch = (req.type == AccessType::Prefetch);
    const bool is_store = (req.type == AccessType::Store);

    if (!is_prefetch) {
        st.accesses++;
        if (req.type == AccessType::Load || req.type ==
            AccessType::Instruction) {
            st.loadAccesses++;
        } else {
            st.storeAccesses++;
        }
    }

    const int way = findWay(set, line);
    AccessResult result;

    if (way >= 0) {
        const unsigned w = static_cast<unsigned>(way);
        const std::uint64_t bit = wayBit(w);
        const Cycle pend = pendingReady(line);
        const bool merged = pend > req.cycle;

        if (is_prefetch) {
            // Already present (or in flight): nothing to do.
            return {req.cycle, true};
        }

        if (merged) {
            // Miss merged into an in-flight fill: pays the residual
            // fill latency and counts as a miss, but allocates nothing.
            st.misses++;
            st.mergedMisses++;
            if (req.type == AccessType::Store)
                st.storeMisses++;
            else
                st.loadMisses++;
            result = {pend, false};
        } else {
            st.hits++;
            // Injected corruption: a spurious hit with no matching
            // access breaks accesses = hits + misses, which the
            // paranoid stat audit must flag (tests/test_invariants.cc).
            if (faultInjected("stat-skew"))
                st.hits++;
            // Reuse-position histogram: stack depth before promotion,
            // 0 = MRU end (Fig 5/6 compare these distributions).
            const unsigned depth =
                config_.assoc - 1 -
                withPolicy([&](const auto &p) { return p.rank(set, w); });
            stats_.reuse[c].add(depth);
            if (prefetchedBits_[set] & bit) {
                st.prefetchUseful++;
                prefetchedBits_[set] &= ~bit;
            }
            result = {req.cycle + config_.latency, true};
        }

        withPolicy([&](auto &p) { p.onHit(set, w); });
        if (is_store)
            dirtyBits_[set] |= bit;

        // Exclusive caches hand the block upward on demand hits: the
        // requesting upper level will allocate it; our copy dies.
        if (config_.inclusion == InclusionPolicy::Exclusive && !merged) {
            const std::size_t bi = blockIndex(set, w);
            if ((dirtyBits_[set] & bit) && next_) {
                MemAccess wb;
                wb.addr = lines_[bi] << blockShift;
                wb.core = owners_[bi] < stats_.perCore.size() ? owners_[bi]
                                                              : c;
                wb.type = AccessType::Writeback;
                wb.cycle = req.cycle;
                stats_.perCore[wb.core].writebacksOut++;
                next_->access(wb);
            }
            if (owners_[bi] < occupancy_.size())
                occupancy_[owners_[bi]]--;
            validBits_[set] &= ~bit;
            dirtyBits_[set] &= ~bit;
            withPolicy([&](auto &p) { p.onInvalidate(set, w); });
        }
    } else {
        // Miss.
        if (!is_prefetch) {
            st.misses++;
            if (req.type == AccessType::Store)
                st.storeMisses++;
            else
                st.loadMisses++;
        } else {
            st.prefetchMisses++;
        }

        Cycle down_ready = req.cycle + config_.latency;
        if (next_) {
            MemAccess down = req;
            down.cycle = req.cycle + config_.latency;
            down_ready = next_->access(down).readyCycle;
        }
        if (!is_prefetch)
            stats_.missLatency.add(down_ready - req.cycle);

        // Exclusive caches do not allocate on demand fills from below;
        // the line goes straight to the requester's level.
        if (config_.inclusion != InclusionPolicy::Exclusive) {
            const unsigned victim = pickVictim(set, req.core);
            evict(set, victim, req.core, req.cycle,
                  /*for_refill=*/true);
            fillBlock(set, victim, line, req.core, is_store, is_prefetch);
            notePending(line, down_ready);
            // Injected corruption: clone the filled tag into a second
            // way — the classic replacement-stack corruption the
            // duplicate-tag audit exists to catch.
            if (config_.assoc > 1 && faultInjected("stack-corrupt")) {
                const unsigned w2 = (victim + 1) % config_.assoc;
                const std::uint64_t vb = wayBit(victim);
                const std::uint64_t b2 = wayBit(w2);
                lines_[blockIndex(set, w2)] = lines_[blockIndex(set, victim)];
                owners_[blockIndex(set, w2)] =
                    owners_[blockIndex(set, victim)];
                validBits_[set] = (validBits_[set] & ~b2) |
                                  (validBits_[set] & vb ? b2 : 0);
                dirtyBits_[set] = (dirtyBits_[set] & ~b2) |
                                  (dirtyBits_[set] & vb ? b2 : 0);
                prefetchedBits_[set] = (prefetchedBits_[set] & ~b2) |
                                       (prefetchedBits_[set] & vb ? b2 : 0);
            }
        }

        result = {down_ready, false};
    }

    if (!is_prefetch) {
        if (prefetcher_)
            runPrefetcher(req, result.hit);
        if (hook_)
            hook_->onAccess(*this, set, req.core, req.cycle);
    }

    return result;
}

void
Cache::saveState(SnapshotWriter &w) const
{
    w.putVec64(lines_);
    w.put64(owners_.size());
    for (const CoreId o : owners_)
        w.put32(o);
    w.putVec64(validBits_);
    w.putVec64(dirtyBits_);
    w.putVec64(prefetchedBits_);
    w.putVec64(wayMasks_);
    w.putVec64(occupancy_);
    w.put64(pending_.size());
    for (const Pending &p : pending_) {
        w.put64(p.line);
        w.put64(p.ready);
    }
    w.putBool(inclusionCompromised_);
    policy_->saveState(w);
    if (prefetcher_)
        prefetcher_->saveState(w);
    for (const PerCoreCacheStats &s : stats_.perCore) {
        w.put64(s.accesses);
        w.put64(s.hits);
        w.put64(s.misses);
        w.put64(s.mergedMisses);
        w.put64(s.loadAccesses);
        w.put64(s.loadMisses);
        w.put64(s.storeAccesses);
        w.put64(s.storeMisses);
        w.put64(s.writebacksIn);
        w.put64(s.writebackMisses);
        w.put64(s.writebacksOut);
        w.put64(s.prefetchIssued);
        w.put64(s.prefetchMisses);
        w.put64(s.prefetchUseful);
        w.put64(s.theftsCaused);
        w.put64(s.theftsSuffered);
        w.put64(s.mockedThefts);
        w.put64(s.selfEvictions);
    }
    for (const Histogram &h : stats_.reuse)
        w.putVec64(h.counts());
    w.putVec64(stats_.missLatency.counts());
}

void
Cache::loadState(SnapshotReader &r)
{
    lines_ = r.getVec64();
    owners_.resize(r.get64());
    for (CoreId &o : owners_)
        o = r.get32();
    validBits_ = r.getVec64();
    dirtyBits_ = r.getVec64();
    prefetchedBits_ = r.getVec64();
    wayMasks_ = r.getVec64();
    occupancy_ = r.getVec64();
    pending_.resize(r.get64());
    for (Pending &p : pending_) {
        p.line = r.get64();
        p.ready = r.get64();
    }
    inclusionCompromised_ = r.getBool();
    policy_->loadState(r);
    if (prefetcher_)
        prefetcher_->loadState(r);
    for (PerCoreCacheStats &s : stats_.perCore) {
        s.accesses = r.get64();
        s.hits = r.get64();
        s.misses = r.get64();
        s.mergedMisses = r.get64();
        s.loadAccesses = r.get64();
        s.loadMisses = r.get64();
        s.storeAccesses = r.get64();
        s.storeMisses = r.get64();
        s.writebacksIn = r.get64();
        s.writebackMisses = r.get64();
        s.writebacksOut = r.get64();
        s.prefetchIssued = r.get64();
        s.prefetchMisses = r.get64();
        s.prefetchUseful = r.get64();
        s.theftsCaused = r.get64();
        s.theftsSuffered = r.get64();
        s.mockedThefts = r.get64();
        s.selfEvictions = r.get64();
    }
    for (Histogram &h : stats_.reuse)
        h = Histogram::fromCounts(r.getVec64());
    stats_.missLatency = Log2Histogram::fromCounts(r.getVec64());
}

void
Cache::auditSet(unsigned set) const
{
    const std::string comp = "cache:" + config_.name;

    if (dirtyBits_[set] & ~validBits_[set]) {
        const unsigned w = static_cast<unsigned>(
            std::countr_zero(dirtyBits_[set] & ~validBits_[set]));
        invariantFail(comp, "dirty bit set on an invalid block", set, w);
    }
    if (validBits_[set] & ~fullMask_) {
        const unsigned w = static_cast<unsigned>(
            std::countr_zero(validBits_[set] & ~fullMask_));
        invariantFail(comp, "valid bit set beyond the last way", set, w);
    }

    for (std::uint64_t v = validBits_[set]; v; v &= v - 1) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(v));
        if (owners_[blockIndex(set, w)] >= config_.numCores)
            invariantFail(
                comp,
                "valid block owned by out-of-range core " +
                    std::to_string(owners_[blockIndex(set, w)]),
                set, w);
        for (std::uint64_t v2 = v & (v - 1); v2; v2 &= v2 - 1) {
            const unsigned w2 =
                static_cast<unsigned>(std::countr_zero(v2));
            if (lines_[blockIndex(set, w2)] == lines_[blockIndex(set, w)])
                invariantFail(
                    comp,
                    "duplicate tag: ways " + std::to_string(w) + " and " +
                        std::to_string(w2) + " both hold line " +
                        hexLine(lines_[blockIndex(set, w)]),
                    set, w2);
        }
    }

    policy_->auditSet(set);
}

void
Cache::audit() const
{
    const std::string comp = "cache:" + config_.name;

    for (unsigned s = 0; s < config_.numSets; ++s)
        auditSet(s);

    // Occupancy counters must match a recount of valid blocks.
    std::vector<std::uint64_t> recount(config_.numCores, 0);
    for (unsigned s = 0; s < config_.numSets; ++s)
        for (std::uint64_t v = validBits_[s]; v; v &= v - 1) {
            const unsigned w = static_cast<unsigned>(std::countr_zero(v));
            const CoreId o = owners_[blockIndex(s, w)];
            if (o < config_.numCores)
                recount[o]++;
        }
    for (unsigned c = 0; c < config_.numCores; ++c)
        if (recount[c] != occupancy_[c])
            invariantFail(comp,
                          "occupancy drift for core " + std::to_string(c) +
                              ": counter " + std::to_string(occupancy_[c]) +
                              ", recount " + std::to_string(recount[c]));

    // Pending-fill (MSHR merge) table: each entry either holds the
    // initial sentinel or a line that maps to its slot.
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        const Pending &p = pending_[i];
        if (p.line != ~Addr(0) && p.line % pendingEntries != i)
            invariantFail(comp,
                          "pending-fill entry " + std::to_string(i) +
                              " holds line " + hexLine(p.line) +
                              ", which maps to slot " +
                              std::to_string(p.line % pendingEntries));
    }

    // Inclusive hierarchies: every valid upper-level line must be
    // resident here — until the first induced theft deliberately
    // breaks inclusion (see invalidateWayAsTheft).
    if (config_.inclusion == InclusionPolicy::Inclusive &&
        !inclusionCompromised_) {
        for (const Cache *up : upstreams_)
            for (unsigned s = 0; s < up->config_.numSets; ++s)
                for (std::uint64_t v = up->validBits_[s]; v; v &= v - 1) {
                    const unsigned w =
                        static_cast<unsigned>(std::countr_zero(v));
                    if (!probe(up->lines_[up->blockIndex(s, w)]
                               << blockShift))
                        invariantFail(comp,
                                      "inclusion violated: line held by "
                                      "upstream '" + up->config_.name +
                                          "' is not resident",
                                      s, w);
                }
    }

    // Local stat conservation: every demand access is exactly one of a
    // hit or a miss, and exactly one of a load or a store.
    for (unsigned c = 0; c < config_.numCores; ++c) {
        const PerCoreCacheStats &st = stats_.perCore[c];
        if (st.hits + st.misses != st.accesses)
            invariantFail(comp,
                          "core " + std::to_string(c) + ": hits (" +
                              std::to_string(st.hits) + ") + misses (" +
                              std::to_string(st.misses) +
                              ") != accesses (" +
                              std::to_string(st.accesses) + ")");
        if (st.loadAccesses + st.storeAccesses != st.accesses)
            invariantFail(comp,
                          "core " + std::to_string(c) +
                              ": loads + stores != accesses");
        if (st.loadMisses + st.storeMisses != st.misses)
            invariantFail(comp,
                          "core " + std::to_string(c) +
                              ": load misses + store misses != misses");
        if (st.mergedMisses > st.misses)
            invariantFail(comp,
                          "core " + std::to_string(c) +
                              ": merged misses exceed misses");
    }
}

void
Cache::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    for (unsigned c = 0; c < config_.numCores; ++c) {
        const PerCoreCacheStats &s = stats_.perCore[c];
        const std::string p = prefix + ".core" + std::to_string(c);
        reg.addCounter(p + ".accesses", "demand accesses", &s.accesses);
        reg.addCounter(p + ".hits", "demand hits", &s.hits);
        reg.addCounter(p + ".misses", "demand misses (incl. merged)",
                       &s.misses);
        reg.addCounter(p + ".merged_misses",
                       "misses merged into in-flight fills",
                       &s.mergedMisses);
        reg.addCounter(p + ".load_accesses", "demand loads",
                       &s.loadAccesses);
        reg.addCounter(p + ".load_misses", "demand load misses",
                       &s.loadMisses);
        reg.addCounter(p + ".store_accesses", "demand stores",
                       &s.storeAccesses);
        reg.addCounter(p + ".store_misses", "demand store misses",
                       &s.storeMisses);
        reg.addCounter(p + ".writebacks_in", "writebacks received",
                       &s.writebacksIn);
        reg.addCounter(p + ".writeback_misses",
                       "writebacks that allocated", &s.writebackMisses);
        reg.addCounter(p + ".writebacks_out", "writebacks sent downstream",
                       &s.writebacksOut);
        reg.addCounter(p + ".prefetch_issued", "prefetches issued",
                       &s.prefetchIssued);
        reg.addCounter(p + ".prefetch_misses",
                       "prefetches that went downstream",
                       &s.prefetchMisses);
        reg.addCounter(p + ".prefetch_useful",
                       "demand hits on prefetched lines",
                       &s.prefetchUseful);
        reg.addCounter(p + ".thefts_caused", "thefts caused",
                       &s.theftsCaused);
        reg.addCounter(p + ".thefts_suffered",
                       "thefts suffered (interference)",
                       &s.theftsSuffered);
        reg.addCounter(p + ".mocked_thefts",
                       "PInTE-induced (system-caused) thefts",
                       &s.mockedThefts);
        reg.addCounter(p + ".self_evictions",
                       "own valid blocks evicted", &s.selfEvictions);
        reg.addDerived(p + ".miss_rate", "demand miss rate [0,1]",
                       [&s] { return s.missRate(); });
        reg.addDerived(p + ".contention_rate",
                       "thefts experienced per demand access",
                       [&s] { return s.contentionRate(); });
        reg.addCounter(p + ".occupancy_blocks",
                       "valid blocks currently owned",
                       [this, c] { return occupancy(c); },
                       /*monotone=*/false);
        reg.addDerived(
            p + ".occupancy_fraction", "share of the cache owned",
            [this, c] {
                return static_cast<double>(occupancy(c)) /
                       (static_cast<double>(numSets()) * assoc());
            });
        reg.addDistribution(p + ".reuse",
                            "demand-hit reuse positions (0 = MRU)",
                            &stats_.reuse[c]);
    }
    reg.addCounter(prefix + ".demand.accesses",
                   "demand accesses, all cores",
                   [this] { return stats_.totalAccesses(); });
    reg.addCounter(prefix + ".demand.misses",
                   "demand misses, all cores",
                   [this] { return stats_.totalMisses(); });
    reg.addLog2Histogram(prefix + ".miss_latency",
                         "demand miss latency, cycles (log2 buckets)",
                         &stats_.missLatency);
    if (prefetcher_)
        prefetcher_->registerStats(reg, prefix + ".prefetcher");
}

} // namespace pinte
