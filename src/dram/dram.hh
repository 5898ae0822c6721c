/**
 * @file
 * DRAM timing model: channels, banks, open-row policy, bus occupancy.
 *
 * Latency is computed with busy-until timestamps per bank and per
 * channel bus, which captures row-buffer locality and bandwidth
 * saturation without queue-by-queue simulation. The Fig 10 study uses
 * halvedResources() to mirror the paper's trick of halving key DRAM
 * features (ranks, banks, columns, transfer rate) so off-chip
 * contention that PInTE does not model becomes visible.
 */

#ifndef PINTE_DRAM_DRAM_HH
#define PINTE_DRAM_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/memory_level.hh"
#include "common/snapshot.hh"
#include "common/types.hh"

namespace pinte
{

class StatRegistry;

/** Static DRAM configuration. All timings in CPU cycles. */
struct DramConfig
{
    unsigned channels = 2;       //!< paper: 2-channel, 4GB DIMMs
    /**
     * Banks per channel. The reproduction hierarchy is ~64x smaller
     * than the paper's, which multiplies per-instruction miss traffic;
     * bank count and transfer time are provisioned so that two cores
     * at reproduction-scale MPKI load DRAM about as heavily as two
     * Skylake cores load 2-channel DDR4 — otherwise queueing, not LLC
     * contention, would dominate every pair experiment.
     */
    unsigned banksPerChannel = 16;
    unsigned linesPerRow = 32;   //!< 2KB rows in 64B lines

    Cycle tCas = 22;             //!< column access (row already open)
    Cycle tRcd = 22;             //!< activate (row was closed)
    Cycle tRp = 22;              //!< precharge (row conflict)
    /**
     * Column-to-column command spacing: how soon the bank can accept
     * another column command to the open row. Banks pipeline column
     * accesses — occupying the bank for the full access latency would
     * cap a streaming workload at ~1 access per 30 cycles per bank.
     */
    Cycle tCcd = 4;
    Cycle transfer = 2;          //!< channel bus occupancy per line
    Cycle frontend = 8;          //!< controller queue/decode overhead

    /**
     * Extra cycles added to every access: the DRAM-contention
     * complement the paper sketches in section IV-B ("increasing DRAM
     * access costs could complement this") for the DRAM-bound
     * workloads PInTE's LLC-only contention cannot reach. Typically
     * set proportional to P_Induce; see runPInteDramComplement().
     */
    Cycle contentionExtra = 0;

    unsigned numCores = 1;

    /**
     * Halve ranks/banks/columns/transfer rate the way section V-D does
     * to let off-chip contention show through in the Fig 10 proxy.
     */
    DramConfig halvedResources() const;
};

/** Per-core DRAM counters. */
struct PerCoreDramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;    //!< bank idle, activate needed
    std::uint64_t rowConflicts = 0; //!< other row open, precharge first
    std::uint64_t totalReadLatency = 0;
    std::uint64_t totalBankWait = 0; //!< cycles queued on busy banks
    std::uint64_t totalBusWait = 0;  //!< cycles queued on the channel bus

    /** Mean read latency in cycles. */
    double
    avgReadLatency() const
    {
        return reads ? static_cast<double>(totalReadLatency) /
                           static_cast<double>(reads)
                     : 0.0;
    }
};

/**
 * Order-tolerant resource reservation calendar.
 *
 * The hierarchy walk presents requests in program order, not time
 * order: dependency chains and multi-core quantum interleaving stamp
 * requests with issue cycles that go backwards by hundreds of cycles.
 * A scalar busy-until would let a future-stamped request block an
 * earlier one, compounding into phantom queueing. The calendar books
 * discrete service slots instead, so requests reserve capacity at
 * their own point in time regardless of arrival order.
 */
class SlotCalendar
{
  public:
    /**
     * @param granularity cycles per slot (the resource service quantum)
     * @param slots ring size; the usable window is granularity*slots
     */
    SlotCalendar(Cycle granularity, std::size_t slots);

    /**
     * Reserve `count` consecutive slots at or after cycle `t`.
     * @return the cycle at which the reservation starts
     */
    Cycle book(Cycle t, unsigned count);

    Cycle granularity() const { return gran_; }

    /** @name Checkpoint support (the booked-slot ring) */
    /// @{
    void saveState(SnapshotWriter &w) const { w.putVec64(booked_); }
    /** Throws SimError unless the ring has the configured length. */
    void loadState(SnapshotReader &r);
    /// @}

  private:
    Cycle gran_;
    /** Absolute slot id + 1 occupying each ring entry; 0 = free. */
    std::vector<std::uint64_t> booked_;
};

/** Open-row DRAM with slot-calendar bank and channel-bus timing. */
class Dram : public MemoryLevel
{
  public:
    explicit Dram(const DramConfig &config);

    AccessResult access(const MemAccess &req) override;
    const char *levelName() const override { return "DRAM"; }

    /** Per-core statistics. */
    const std::vector<PerCoreDramStats> &stats() const { return stats_; }

    /** Reset statistics (not bank state). */
    void clearStats();

    /** Aggregate row-buffer hit rate in [0, 1]. */
    double rowHitRate() const;

    /** Register per-core counters and latency views under `prefix`. */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Paranoid-mode audit: per-core accounting must conserve (every
     * access is exactly one of a read or a write and exactly one of a
     * row hit/miss/conflict) and bank state must be coherent (a closed
     * bank has no open row). Throws InvariantError on violation.
     */
    void audit() const;

    const DramConfig &config() const { return config_; }

    /**
     * @name Checkpoint support
     * Serializes bank open-row state, both slot calendars, and the
     * per-core counters (geometry is rebuilt from configuration).
     */
    /// @{
    void saveState(SnapshotWriter &w) const;
    void loadState(SnapshotReader &r);
    /// @}

  private:
    struct Bank
    {
        std::uint64_t openRow = ~std::uint64_t(0);
        bool rowOpen = false;
    };

    /** Decompose a line address into channel / bank / row. */
    void map(Addr line, unsigned &channel, unsigned &bank,
             std::uint64_t &row) const;

    DramConfig config_;
    std::vector<Bank> banks_;              //!< [channel * banks + bank]
    std::vector<SlotCalendar> bankCal_;    //!< same indexing
    std::vector<SlotCalendar> busCal_;     //!< per channel
    std::vector<PerCoreDramStats> stats_;
};

} // namespace pinte

#endif // PINTE_DRAM_DRAM_HH
