#include "core.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/invariant.hh"
#include "common/stats.hh"

namespace pinte
{

Core::Core(const CoreConfig &config, CoreId id, TraceSource *source,
           MemoryLevel *l1i, MemoryLevel *l1d)
    : config_(config), id_(id), source_(source), l1i_(l1i), l1d_(l1d),
      predictor_(makeBranchPredictor(config.predictor,
                                     config.predictorSizeLog2)),
      loadRing_(std::max(1u, config.maxOutstandingLoads), 0)
{
}

void
Core::clearStats()
{
    stats_ = CoreStats{};
    // The predictor's tables keep their warmup training, but its
    // accuracy counters restart with the ROI like every other stat.
    predictor_->clearStats();
}

void
Core::retire()
{
    // Replenish retire bandwidth for every cycle that has elapsed since
    // the last retirement opportunity (the main loop may skip cycles).
    if (cycle_ > lastRetireCycle_) {
        const Cycle elapsed = cycle_ - lastRetireCycle_;
        const std::uint64_t grant =
            elapsed * static_cast<std::uint64_t>(config_.retireWidth);
        retireAllowance_ = std::min<std::uint64_t>(
            retireAllowance_ + grant, 4ull * config_.robSize);
        lastRetireCycle_ = cycle_;
    }

    while (!rob_.empty() && rob_.front() <= cycle_ &&
           retireAllowance_ > 0) {
        rob_.pop_front();
        --retireAllowance_;
        ++retiredTotal_;
        ++stats_.instructions;
    }
}

void
Core::dispatch(const TraceRecord &rec)
{
    // Frontend: touch the I-cache once per new fetch line. A miss
    // stalls further fetch until the line arrives.
    Cycle fetch_ready = cycle_;
    if (l1i_) {
        const Addr line = lineNumber(rec.ip);
        if (line != lastFetchLine_) {
            lastFetchLine_ = line;
            MemAccess req;
            req.addr = rec.ip;
            req.ip = rec.ip;
            req.core = id_;
            req.type = AccessType::Instruction;
            req.cycle = cycle_;
            const AccessResult res = l1i_->access(req);
            fetch_ready = res.readyCycle;
            if (!res.hit && fetch_ready > cycle_ + 1)
                fetchStallUntil_ = std::max(fetchStallUntil_, fetch_ready);
        }
    }

    // Source operands gate issue.
    Cycle ready = std::max(fetch_ready, cycle_ + 1);
    for (std::uint8_t src : rec.srcReg)
        if (src != noReg)
            ready = std::max(ready, regReady_[src]);

    // Loads issue once operands are ready; each carries its own
    // completion time, so independent loads overlap (MLP) up to the
    // MSHR-style outstanding-load cap.
    Cycle complete = ready + rec.execLatency;
    for (unsigned i = 0; i < rec.numLoads; ++i) {
        // The ring holds the completion times of the last N loads; a
        // new load cannot issue before the oldest of them finishes.
        const Cycle issue =
            std::max(ready, loadRing_[loadRingHead_]);
        // MLP at issue: how many of the last N loads are still in
        // flight when this one leaves.
        std::uint64_t in_flight = 0;
        for (const Cycle done : loadRing_)
            if (done > issue)
                ++in_flight;
        stats_.mshrOccupancy.add(in_flight);
        MemAccess req;
        req.addr = rec.loadAddr[i];
        req.ip = rec.ip;
        req.core = id_;
        req.type = AccessType::Load;
        req.cycle = issue;
        const AccessResult res = l1d_ ? l1d_->access(req)
                                      : AccessResult{issue + 1, true};
        ++stats_.loads;
        stats_.totalLoadLatency += res.readyCycle - issue;
        complete = std::max(complete, res.readyCycle);
        loadRing_[loadRingHead_] = res.readyCycle;
        if (++loadRingHead_ == loadRing_.size())
            loadRingHead_ = 0;
    }

    // Stores drain through the store buffer after completion and do not
    // extend the dependency chain.
    for (unsigned i = 0; i < rec.numStores; ++i) {
        MemAccess req;
        req.addr = rec.storeAddr[i];
        req.ip = rec.ip;
        req.core = id_;
        req.type = AccessType::Store;
        req.cycle = complete;
        if (l1d_)
            l1d_->access(req);
    }

    if (rec.dstReg != noReg)
        regReady_[rec.dstReg] = complete;

    if (rec.isBranch) {
        ++stats_.branches;
        const bool pred = predictor_->predict(rec.ip);
        predictor_->update(rec.ip, rec.branchTaken);
        predictor_->recordOutcome(pred, rec.branchTaken);
        if (pred != rec.branchTaken) {
            ++stats_.mispredicts;
            // Wrong-path flush: the frontend refills only after the
            // branch resolves plus the pipeline restart penalty.
            fetchStallUntil_ = std::max(
                fetchStallUntil_, complete + config_.mispredictPenalty);
        }
    }

    stats_.robOccupancy.add(rob_.size());
    rob_.push_back(complete);
}

void
Core::fetch()
{
    for (unsigned n = 0; n < config_.fetchWidth; ++n) {
        if (rob_.size() >= config_.robSize)
            return;
        if (fetchStallUntil_ > cycle_)
            return;
        ++recordsConsumed_;
        dispatch(source_->next());
    }
}

void
Core::runCycles(Cycle quantum)
{
    const Cycle end = cycle_ + quantum;
    while (cycle_ < end) {
        retire();
        fetch();

        // Fast-forward when nothing can happen this cycle: jump to the
        // earliest of ROB-head completion and frontend restart.
        Cycle next_cycle = cycle_ + 1;
        const bool stalled = fetchStallUntil_ > cycle_;
        const bool full = rob_.size() >= config_.robSize;
        if (stalled || full) {
            Cycle wake = end;
            if (!rob_.empty())
                wake = std::min(wake, rob_.front());
            if (stalled)
                wake = std::min(wake, fetchStallUntil_);
            next_cycle = std::max(next_cycle, wake);
        }
        cycle_ = std::min(next_cycle, end);
    }
    stats_.cycles += quantum;
    retire();
}

void
Core::runInstructions(InstCount n)
{
    const InstCount target = retiredTotal_ + n;
    while (retiredTotal_ < target) {
        // Modest quanta keep multi-core interleaving fair while letting
        // the fast-forward logic skip dead cycles inside the quantum.
        const Cycle before = cycle_;
        runCycles(512);
        (void)before;
    }
}

void
Core::runInstructionsFunctional(InstCount n)
{
    // Drain in-flight work first so the record-conservation invariant
    // (retired + in-ROB == records consumed) holds across the switch.
    while (!rob_.empty()) {
        cycle_ = std::max(cycle_, rob_.front());
        rob_.pop_front();
        ++retiredTotal_;
        ++stats_.instructions;
    }
    lastRetireCycle_ = cycle_;
    retireAllowance_ = 0;

    for (InstCount i = 0; i < n; ++i) {
        const TraceRecord rec = source_->next();
        ++recordsConsumed_;
        // Nominal one-IPC clock: keeps request timestamps monotone for
        // the DRAM calendars without modeling the pipeline.
        ++cycle_;
        ++stats_.cycles;

        if (l1i_) {
            const Addr line = lineNumber(rec.ip);
            if (line != lastFetchLine_) {
                lastFetchLine_ = line;
                MemAccess req;
                req.addr = rec.ip;
                req.ip = rec.ip;
                req.core = id_;
                req.type = AccessType::Instruction;
                req.cycle = cycle_;
                l1i_->access(req);
            }
        }

        for (unsigned m = 0; m < rec.numLoads; ++m) {
            MemAccess req;
            req.addr = rec.loadAddr[m];
            req.ip = rec.ip;
            req.core = id_;
            req.type = AccessType::Load;
            req.cycle = cycle_;
            if (l1d_)
                l1d_->access(req);
            ++stats_.loads;
        }
        for (unsigned m = 0; m < rec.numStores; ++m) {
            MemAccess req;
            req.addr = rec.storeAddr[m];
            req.ip = rec.ip;
            req.core = id_;
            req.type = AccessType::Store;
            req.cycle = cycle_;
            if (l1d_)
                l1d_->access(req);
        }

        if (rec.dstReg != noReg)
            regReady_[rec.dstReg] = cycle_;

        if (rec.isBranch) {
            ++stats_.branches;
            const bool pred = predictor_->predict(rec.ip);
            predictor_->update(rec.ip, rec.branchTaken);
            predictor_->recordOutcome(pred, rec.branchTaken);
            if (pred != rec.branchTaken)
                ++stats_.mispredicts;
        }

        ++retiredTotal_;
        ++stats_.instructions;
    }
    lastRetireCycle_ = cycle_;
    fetchStallUntil_ = std::min(fetchStallUntil_, cycle_);
}

void
Core::skipInstructions(InstCount n)
{
    // Same mode-switch drain as the functional path.
    while (!rob_.empty()) {
        cycle_ = std::max(cycle_, rob_.front());
        rob_.pop_front();
        ++retiredTotal_;
        ++stats_.instructions;
    }
    retireAllowance_ = 0;

    source_->skip(n);
    recordsConsumed_ += n;
    retiredTotal_ += n;
    stats_.instructions += n;
    // Nominal one-IPC clock, as in functional mode, so timestamps of
    // whatever runs next stay monotone.
    cycle_ += n;
    stats_.cycles += n;
    lastRetireCycle_ = cycle_;
    fetchStallUntil_ = std::min(fetchStallUntil_, cycle_);
}

void
Core::saveState(SnapshotWriter &w) const
{
    w.put64(cycle_);
    w.put64(retiredTotal_);
    w.put64(recordsConsumed_);
    w.put64(rob_.size());
    for (const Cycle c : rob_)
        w.put64(c);
    for (const Cycle c : regReady_)
        w.put64(c);
    w.put64(fetchStallUntil_);
    w.put64(lastRetireCycle_);
    w.put64(retireAllowance_);
    w.put64(lastFetchLine_);
    w.putVec64(loadRing_);
    w.put64(loadRingHead_);
    w.put64(stats_.instructions);
    w.put64(stats_.cycles);
    w.put64(stats_.branches);
    w.put64(stats_.mispredicts);
    w.put64(stats_.loads);
    w.put64(stats_.totalLoadLatency);
    w.putVec64(stats_.mshrOccupancy.counts());
    w.putVec64(stats_.robOccupancy.counts());
    predictor_->saveState(w);
    source_->saveState(w);
}

void
Core::loadState(SnapshotReader &r)
{
    cycle_ = r.get64();
    retiredTotal_ = r.get64();
    recordsConsumed_ = r.get64();
    rob_.clear();
    const std::uint64_t rob_n = r.get64();
    for (std::uint64_t i = 0; i < rob_n; ++i)
        rob_.push_back(r.get64());
    for (Cycle &c : regReady_)
        c = r.get64();
    fetchStallUntil_ = r.get64();
    lastRetireCycle_ = r.get64();
    retireAllowance_ = r.get64();
    lastFetchLine_ = r.get64();
    std::vector<Cycle> ring = r.getVec64();
    const std::uint64_t head = r.get64();
    // The head wraps by compare and indexes the ring: both must match
    // the configured MLP cap.
    if (ring.size() != loadRing_.size() || head >= ring.size())
        throw SimError("checkpoint load ring does not match the core's "
                       "outstanding-load cap",
                       {"core" + std::to_string(id_), "",
                        std::to_string(ring.size())});
    loadRing_ = std::move(ring);
    loadRingHead_ = static_cast<std::size_t>(head);
    stats_.instructions = r.get64();
    stats_.cycles = r.get64();
    stats_.branches = r.get64();
    stats_.mispredicts = r.get64();
    stats_.loads = r.get64();
    stats_.totalLoadLatency = r.get64();
    stats_.mshrOccupancy = Log2Histogram::fromCounts(r.getVec64());
    stats_.robOccupancy = Log2Histogram::fromCounts(r.getVec64());
    predictor_->loadState(r);
    source_->loadState(r);
}

void
Core::audit() const
{
    const std::string comp = "core" + std::to_string(id_);

    if (rob_.size() > config_.robSize)
        invariantFail(comp, "ROB holds " + std::to_string(rob_.size()) +
                                " entries, capacity " +
                                std::to_string(config_.robSize));

    // No squash path exists (mispredicts only stall the frontend), so
    // every consumed record is accounted for: retired or in flight.
    if (retiredTotal_ + rob_.size() != recordsConsumed_)
        invariantFail(comp,
                      "record conservation: retired (" +
                          std::to_string(retiredTotal_) + ") + in-ROB (" +
                          std::to_string(rob_.size()) +
                          ") != records consumed (" +
                          std::to_string(recordsConsumed_) + ")");

    if (stats_.instructions > retiredTotal_)
        invariantFail(comp,
                      "windowed retirement count exceeds lifetime total");
    if (stats_.mispredicts > stats_.branches)
        invariantFail(comp, "more mispredicts than branches");
}

void
Core::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    const CoreStats &s = stats_;
    reg.addCounter(prefix + ".instructions", "instructions retired",
                   &s.instructions);
    reg.addCounter(prefix + ".cycles", "cycles elapsed", &s.cycles);
    reg.addCounter(prefix + ".branches", "conditional branches",
                   &s.branches);
    reg.addCounter(prefix + ".mispredicts", "branch mispredictions",
                   &s.mispredicts);
    reg.addCounter(prefix + ".loads", "demand loads issued", &s.loads);
    reg.addCounter(prefix + ".load_latency",
                   "total load latency, issue to data-ready (cycles)",
                   &s.totalLoadLatency);
    reg.addLog2Histogram(prefix + ".mshr_occupancy",
                         "outstanding loads at load issue (log2 buckets)",
                         &s.mshrOccupancy);
    reg.addLog2Histogram(prefix + ".rob_occupancy",
                         "ROB entries at dispatch (log2 buckets)",
                         &s.robOccupancy);
    reg.addDerived(prefix + ".ipc", "instructions per cycle",
                   [&s] { return s.ipc(); });
    reg.addDerived(prefix + ".amat",
                   "average memory access time of demand loads (cycles)",
                   [&s] { return s.amat(); });
    reg.addDerived(prefix + ".branch_accuracy",
                   "branch prediction accuracy [0,1]",
                   [&s] { return s.branchAccuracy(); });
    predictor_->registerStats(reg, prefix + ".predictor");
}

} // namespace pinte
