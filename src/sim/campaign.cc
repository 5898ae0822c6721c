#include "campaign.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "common/error.hh"
#include "common/json.hh"
#include "core/pinte.hh"
#include "sim/broker.hh"
#include "sim/options.hh"
#include "sim/runner.hh"
#include "sim/worker_proc.hh"

namespace pinte
{

MachineConfig
sweepMachine(const SweepConfig &sc)
{
    MachineConfig m = MachineConfig::scaled();
    if (!sc.policy.empty())
        m.llc.replacement = parseReplacement(sc.policy);
    if (!sc.inclusion.empty())
        m.llc.inclusion = parseInclusion(sc.inclusion);
    if (!sc.prefetch.empty())
        m.prefetch = PrefetchConfig::parse(sc.prefetch.c_str());
    if (!sc.predictor.empty())
        m.core.predictor = parsePredictor(sc.predictor);
    return m;
}

namespace
{

/** One-line JSON of `sc`, as the spool campaign document holds it. */
std::string
sweepConfigToJson(const SweepConfig &sc)
{
    std::ostringstream os;
    {
        JsonWriter w(os, 0);
        w.beginObject();
        w.member("workload", sc.workload);
        w.member("policy", sc.policy);
        w.member("inclusion", sc.inclusion);
        w.member("prefetch", sc.prefetch);
        w.member("predictor", sc.predictor);
        w.member("scope", sc.scope);
        w.key("policies");
        w.beginArray();
        for (const std::string &p : sc.policies)
            w.value(p);
        w.endArray();
        w.member("dram_factor", sc.dramFactor);
        const ExperimentParams &p = sc.params;
        w.member("warmup", p.warmup);
        w.member("roi", p.roi);
        w.member("sample_every", p.sampleEvery);
        w.member("sample_interval_cycles", p.sampleIntervalCycles);
        w.member("sample_mode", toString(p.sampling.mode));
        w.member("sample_interval_length", p.sampling.intervalLength);
        w.member("sample_detailed_fraction", p.sampling.detailedFraction);
        w.member("sampling_seed", p.sampling.seed);
        w.member("run_seed", p.runSeed);
        w.member("job_timeout", sc.jobTimeout);
        w.member("lease_ttl", sc.leaseTtl);
        w.endObject();
    }
    std::string flat = os.str(); // newlines even at indent 0
    std::erase(flat, '\n');
    return flat;
}

SweepConfig
sweepConfigFromJson(const JsonValue &v)
{
    SweepConfig sc;
    sc.workload = v.at("workload").asString();
    sc.policy = v.at("policy").asString();
    sc.inclusion = v.at("inclusion").asString();
    sc.prefetch = v.at("prefetch").asString();
    sc.predictor = v.at("predictor").asString();
    sc.scope = v.at("scope").asString();
    for (const JsonValue &p : v.at("policies").array)
        sc.policies.push_back(p.asString());
    sc.dramFactor = v.at("dram_factor").asDouble();
    ExperimentParams &p = sc.params;
    p.warmup = v.at("warmup").asU64();
    p.roi = v.at("roi").asU64();
    p.sampleEvery = v.at("sample_every").asU64();
    p.sampleIntervalCycles = v.at("sample_interval_cycles").asU64();
    p.sampling.mode = parseSampleMode(v.at("sample_mode").asString());
    p.sampling.intervalLength = v.at("sample_interval_length").asU64();
    p.sampling.detailedFraction =
        v.at("sample_detailed_fraction").asDouble();
    p.sampling.seed = v.at("sampling_seed").asU64();
    p.runSeed = v.at("run_seed").asU64();
    sc.jobTimeout = v.at("job_timeout").asDouble();
    sc.leaseTtl = v.at("lease_ttl").asDouble();
    return sc;
}

std::vector<std::string>
keysOf(const std::vector<CampaignCell> &cells)
{
    std::vector<std::string> keys;
    for (const CampaignCell &c : cells)
        keys.push_back(c.key);
    return keys;
}

/** The spool campaign document: identity (fingerprint + the full
 *  cell-key list) plus the spec workers rebuild their cells from. */
std::string
campaignDocument(const std::string &fingerprint, const SweepConfig &sc,
                 const std::vector<CampaignCell> &cells)
{
    std::string doc = "{\"schema\": \"pinte.spool.campaign\", "
                      "\"tool\": \"pintesim\", \"fingerprint\": " +
                      jsonQuote(fingerprint) +
                      ", \"spec\": " + sweepConfigToJson(sc) +
                      ", \"cells\": [";
    for (std::size_t k = 0; k < cells.size(); ++k)
        doc += (k ? ", " : "") + jsonQuote(cells[k].key);
    return doc + "]}";
}

/** This process's own binary, for exec'ing local spool workers (the
 *  broker's execvp searches PATH when /proc is unavailable). */
std::string
selfExecutable()
{
    char exe[4096];
    const ::ssize_t len =
        ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    return len > 0 ? std::string(exe, static_cast<std::size_t>(len))
                   : "pintesim";
}

} // namespace

std::string
cellKey(const ExperimentSpec &spec, std::size_t core)
{
    const auto &workloads = spec.workloads();
    MachineConfig m = spec.machineConfig();
    m.numCores = static_cast<unsigned>(
        std::max<std::size_t>(1, workloads.size()));
    // A multi-core cell's contention label (the peer's name,
    // "mix-of-N") is shared by the same pair the other way round and by
    // every mix of that size: bind the core and the whole workload
    // order too.
    std::string contention = spec.contention(core);
    if (workloads.size() > 1) {
        contention += "|core" + std::to_string(core) + ":";
        for (const WorkloadSpec &w : workloads)
            contention += w.name + ",";
    }
    return journalKey(m.fingerprint(), spec.experimentParams(),
                      workloads.empty() ? std::string("?")
                                        : workloads[core].name,
                      contention);
}

CampaignCell
makeCell(const SweepConfig &sc, const MachineConfig &machine,
         std::optional<double> p)
{
    ExperimentSpec e(machine);
    e.workload(findWorkload(sc.workload)).params(sc.params);
    if (p) {
        e.pinte(*p);
        if (!sc.scope.empty())
            e.scope(parsePInteScope(sc.scope));
        if (sc.dramFactor > 0.0)
            e.dramComplement(sc.dramFactor);
    }
    std::string contention = e.contention();
    std::string key = cellKey(e);
    return {std::move(e), std::move(contention), std::move(key)};
}

std::vector<CampaignCell>
campaignCells(const SweepConfig &sc)
{
    const MachineConfig base = sweepMachine(sc);
    const auto &points = standardPInduceSweep();
    std::vector<CampaignCell> cells;
    if (sc.policies.empty()) {
        for (const double p : points)
            cells.push_back(makeCell(sc, base, p));
        return cells;
    }
    // One machine per policy, each with its own isolation baseline (a
    // policy competes with itself unloaded). The per-policy
    // fingerprints keep the journal keys distinct, the label prefix
    // the report's rows.
    for (const std::string &policy : sc.policies) {
        MachineConfig m = base;
        m.llc.replacement = parseReplacement(policy);
        for (std::size_t i = 0; i <= points.size(); ++i) {
            cells.push_back(makeCell(
                sc, m, i ? std::optional(points[i - 1]) : std::nullopt));
            cells.back().contention =
                policy + ":" + cells.back().contention;
        }
    }
    return cells;
}

std::vector<PolicyCurve>
policyCurves(const SweepConfig &sc, const std::vector<RunResult> &results)
{
    const std::size_t perPolicy = 1 + standardPInduceSweep().size();
    std::vector<PolicyCurve> grid;
    for (std::size_t pol = 0; pol < sc.policies.size(); ++pol) {
        const RunResult &iso = results.at(pol * perPolicy);
        PolicyCurve curve{sc.policies[pol], {}};
        for (std::size_t idx = 1; idx < perPolicy && !iso.failed(); ++idx) {
            const RunResult &r = results.at(pol * perPolicy + idx);
            const std::size_t n = r.failed() ? 0
                                  : std::min(r.samples.size(),
                                             iso.samples.size());
            for (std::size_t s = 0; s < n; ++s)
                curve.weightedIpc.push_back(
                    weightedIpc(r.samples[s].ipc, iso.samples[s].ipc));
        }
        grid.push_back(std::move(curve));
    }
    return grid;
}

std::vector<RunResult>
runJournaledCell(const ExperimentSpec &spec, RunJournal *journal)
{
    std::vector<std::string> keys;
    if (journal)
        for (std::size_t i = 0; i < spec.workloads().size(); ++i)
            keys.push_back(cellKey(spec, i));
    // The cell resumes only when every core of it was journaled (they
    // complete together, so either all or none are).
    std::vector<RunResult> results;
    for (const std::string &key : keys)
        if (const RunResult *done = journal->find(key))
            results.push_back(*done);
    if (!keys.empty() && results.size() == keys.size())
        return results;

    results.clear();
    bool ok = true;
    for (RunOutcome &o : spec.tryRunAll()) {
        ok = ok && o.ok();
        results.push_back(std::move(o.result));
    }
    for (std::size_t i = 0; ok && i < keys.size(); ++i)
        journal->record(keys[i], results[i]);
    return results;
}

std::vector<RunResult>
runCampaign(const SweepConfig &sc, const CampaignOptions &opt,
            RunJournal *journal)
{
    const std::vector<CampaignCell> cells = campaignCells(sc);
    std::vector<RunResult> results(cells.size());
    std::vector<const RunResult *> hits(cells.size(), nullptr);
    std::vector<std::size_t> pending;
    for (std::size_t k = 0; k < cells.size(); ++k) {
        if (journal)
            hits[k] = journal->find(cells[k].key);
        if (hits[k])
            results[k] = *hits[k];
        else
            pending.push_back(k);
    }

    const auto run = [&](std::size_t k) {
        return cells[k].spec.tryRun().result;
    };
    const auto record = [&](std::size_t k, const RunResult &r) {
        if (journal && !r.failed())
            journal->record(cells[k].key, r);
    };
    const unsigned workers =
        opt.jobs ? opt.jobs
                 : std::max(1u, std::thread::hardware_concurrency());

    // fresh[j] is the result of cell pending[j].
    std::vector<RunResult> fresh;
    switch (opt.mode) {
      case IsolationMode::Thread: {
        Runner runner(workers);
        runner.jobTimeout(sc.jobTimeout);
        fresh = runner.map(pending.size(), [&](std::size_t j) {
            RunResult r = run(pending[j]);
            record(pending[j], r);
            return r;
        });
        break;
      }
      case IsolationMode::Process: {
        ProcOptions popt;
        popt.workers = workers;
        popt.jobTimeout = sc.jobTimeout;
        popt.maxRetries = opt.maxRetries;
        fresh = runProcessCampaign(
            pending.size(),
            [&](std::size_t j) { return run(pending[j]); }, popt, {},
            [&](std::size_t j, const RunResult &r) {
                record(pending[j], r);
            });
        break;
      }
      case IsolationMode::Spool: {
        // The spool's document pins the full cell list, so a broker
        // restarted after more cells were journaled still adopts its
        // spool; journal hits reach it through the lookup instead.
        const std::string fp = sweepMachine(sc).fingerprint();
        BrokerOptions bopt;
        bopt.spool = opt.spool;
        bopt.workers = workers;
        bopt.workerArgv = {selfExecutable(), "--worker", "--spool",
                           opt.spool};
        bopt.leaseTtl = sc.leaseTtl;
        bopt.maxRetries = opt.maxRetries;
        bopt.shardSize = opt.shardSize;
        const auto all = runSpoolBroker(
            campaignDocument(fp, sc, cells), fp, keysOf(cells), bopt,
            record,
            [&](std::size_t k) { return hits[k]; });
        for (const std::size_t k : pending)
            fresh.push_back(all[k]);
        break;
      }
    }

    for (std::size_t j = 0; j < pending.size(); ++j)
        results[pending[j]] = std::move(fresh[j]);
    // Label every cell here, including the losses a backend quarantined
    // without a run to carry the names.
    for (std::size_t k = 0; k < cells.size(); ++k) {
        results[k].workload = sc.workload;
        results[k].contention = cells[k].contention;
    }
    return results;
}

int
spoolWorkerMain(const std::string &spoolDir)
{
    Spool spool(spoolDir);
    // A hand-started worker may beat the broker to the spool: wait
    // for the campaign document rather than failing the race.
    while (!spool.hasCampaign()) {
        if (spool.complete())
            return 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    std::string err;
    const JsonValue doc = parseJson(spool.readCampaign(), &err);
    if (!err.empty() || !doc.isObject())
        throw ConfigError("spool campaign document unparseable: " + err,
                          {"pintesim", spoolDir, ""});
    const SweepConfig sc = sweepConfigFromJson(doc.at("spec"));
    const std::string fp = sweepMachine(sc).fingerprint();
    if (doc.at("fingerprint").asString() != fp)
        throw ConfigError(
            "campaign fingerprint mismatch: this build derives " + fp +
                ", campaign carries " + doc.at("fingerprint").asString(),
            {"pintesim", spoolDir, fp});
    const std::vector<CampaignCell> cells = campaignCells(sc);
    const std::vector<std::string> keys = keysOf(cells);
    const auto &carried = doc.at("cells").array;
    if (carried.size() != keys.size())
        throw ConfigError("campaign cell count mismatch",
                          {"pintesim", spoolDir, ""});
    for (std::size_t k = 0; k < keys.size(); ++k)
        if (carried[k].asString() != keys[k])
            throw ConfigError("campaign cell key mismatch at index " +
                                  std::to_string(k),
                              {"pintesim", spoolDir, keys[k]});

    SpoolWorkerOptions wopt;
    wopt.leaseTtl = sc.leaseTtl;
    wopt.jobTimeout = sc.jobTimeout;
    wopt.fingerprint = fp;
    runSpoolWorker(
        spoolDir, keys,
        [&](std::size_t k) { return cells[k].spec.tryRun().result; },
        wopt);
    return 0;
}

} // namespace pinte
