/**
 * @file
 * Campaign orchestration: the one path from a sweep description to
 * cells and results, whichever backend runs them (DESIGN.md §4l).
 * runCampaign() serves --resume journal hits up front, hands only the
 * pending cells to the Runner pool, runProcessCampaign or
 * runSpoolBroker, and journals fresh successes as they arrive.
 */

#ifndef PINTE_SIM_CAMPAIGN_HH
#define PINTE_SIM_CAMPAIGN_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/sensitivity.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"

namespace pinte
{

/** Everything a campaign's cells depend on, as the spool's campaign
 *  document carries it: the raw CLI strings of the machine knobs (a
 *  worker re-parses exactly what the user typed) plus the scale. */
struct SweepConfig
{
    std::string workload = "450.soplex";
    std::string policy;    //!< --policy, empty = machine default
    std::string inclusion; //!< --inclusion
    std::string prefetch;  //!< --prefetch
    std::string predictor; //!< --predictor
    std::string scope;     //!< --scope, empty = not set
    std::vector<std::string> policies; //!< --policies grid, CLI names
    double dramFactor = 0.0;           //!< --dram-complement
    ExperimentParams params;
    double jobTimeout = 0.0; //!< --job-timeout seconds, 0 = off
    double leaseTtl = 30.0;  //!< --lease-ttl seconds (spool)
};

/** The machine a SweepConfig describes (the grid's base machine). */
MachineConfig sweepMachine(const SweepConfig &sc);

/** The journal key of core `core` of `spec` (the only key function):
 *  fingerprint at the spec's core count, scale, workload, contention,
 *  and for a multi-core cell the core and every core's workload. */
std::string cellKey(const ExperimentSpec &spec, std::size_t core = 0);

/** One campaign cell. */
struct CampaignCell
{
    ExperimentSpec spec;
    std::string contention; //!< report label, "lru:pinte@…" in a grid
    std::string key;        //!< cellKey(spec)
};

/** The cell running `sc`'s workload on `machine`: isolation without
 *  `p`, else PInTE at `p` with `sc`'s scope and DRAM complement. */
CampaignCell makeCell(const SweepConfig &sc, const MachineConfig &machine,
                      std::optional<double> p);

/** The ordered cells of `sc`: the sweep, or the --policies grid. */
std::vector<CampaignCell> campaignCells(const SweepConfig &sc);

/** The grid's per-policy contention curves from `results` (in
 *  campaignCells() order), each weighted against its own isolation
 *  run; failed cells are skipped. */
std::vector<PolicyCurve> policyCurves(const SweepConfig &sc,
                                      const std::vector<RunResult> &results);

/** One experiment as a journaled campaign cell, all cores: served
 *  from `journal` (may be null) when every core is filed there, else
 *  tryRunAll() with a fresh success journaled before returning. */
std::vector<RunResult> runJournaledCell(const ExperimentSpec &spec,
                                        RunJournal *journal);

/** The campaign backend and its knobs. */
struct CampaignOptions
{
    IsolationMode mode = IsolationMode::Thread;
    unsigned jobs = 0;            //!< threads or workers, 0 = all cores
    std::uint32_t maxRetries = 1; //!< process and spool backends
    std::string spool;            //!< spool directory
    std::size_t shardSize = 1;    //!< spool cells per shard
};

/** Run every cell of `sc`; results come back in campaignCells()
 *  order under the cells' report labels. A failed cell is a failed()
 *  result; throws only on configuration and parent-side errors. */
std::vector<RunResult> runCampaign(const SweepConfig &sc,
                                   const CampaignOptions &opt,
                                   RunJournal *journal);

/** Spool worker entry (`pintesim --worker --spool DIR`): rebuild the
 *  cells from the spool's campaign document, check that this binary
 *  derives the same fingerprint and cell keys (fencing binary skew
 *  between hosts), then run shards until the campaign completes.
 *  @throws ConfigError on an unreadable document or any mismatch */
int spoolWorkerMain(const std::string &spoolDir);

} // namespace pinte

#endif // PINTE_SIM_CAMPAIGN_HH
