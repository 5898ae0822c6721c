/**
 * @file
 * Report-sink tests: the JSON document shape is pinned by a golden
 * file, a JSON report parses back to bit-identical metric values, and
 * the registry-derived RunMetrics computation matches the legacy
 * struct-walking one on live systems.
 *
 * Regenerate the golden file after an intentional schema change with
 *   PINTE_REGOLD=1 ./test_sinks --gtest_filter=Sinks.JsonGoldenFile
 * and bump reportSchemaVersion.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hh"
#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/sink.hh"

namespace pinte
{
namespace
{

/** A fully hand-built report input: deterministic by construction. */
RunResult
goldenRun()
{
    RunResult r;
    r.workload = "synthetic.golden";
    r.contention = "pinte@0.250000";
    r.metrics.ipc = 1.25;
    // Counters and rates satisfy the conservation identities
    // check_report.py enforces: miss_rate == llc_misses/llc_accesses.
    r.metrics.missRate = 0.125;
    r.metrics.amat = 42.5;
    r.metrics.interferenceRate = 0.03125;
    r.metrics.theftRate = 0.015625;
    r.metrics.l2InterferenceRate = 0.0;
    r.metrics.branchAccuracy = 0.9375;
    r.metrics.l1dMissRate = 0.2;
    r.metrics.l2MissRate = 0.3;
    r.metrics.prefetchMissRate = 0.4;
    r.metrics.l2Mpki = 12.5;
    r.metrics.llcMpki = 6.25;
    r.metrics.llcWbShare = 0.125;
    r.metrics.llcOccupancyFraction = 0.5;
    r.metrics.llcAccesses = 4096;
    r.metrics.llcMisses = 512;

    Sample s;
    s.ipc = 1.5;
    s.missRate = 0.25;
    s.amat = 40.0;
    s.interferenceRate = 0.0625;
    s.theftRate = 0.03125;
    s.occupancyFraction = 0.75;
    s.instructions = 3000;
    r.samples.push_back(s);
    s.ipc = 1.0 / 3.0; // exercises round-trip number printing
    s.instructions = 6000;
    r.samples.push_back(s);

    r.reuse = Histogram(4);
    r.reuse.add(0, 5);
    r.reuse.add(2, 1);

    r.pinte.accessesSeen = 1000;
    r.pinte.triggers = 250;
    r.pinte.promotions = 200;
    r.pinte.invalidations = 150;
    r.pinte.requestedEvicts = 300;

    // v3 observability payloads: two counters over three intervals
    // whose column sums equal the metrics' end-of-run values above
    // (4096 accesses, 512 misses — check_report.py cross-checks the
    // conservation identity), plus one log2 histogram whose bucket
    // counts sum to its total. A second all-zero histogram pins the
    // emit-side rule that empty histograms are dropped.
    r.timeseries.intervalCycles = 1024;
    r.timeseries.paths = {"llc.core0.accesses", "llc.core0.misses"};
    r.timeseries.cycles = {1024, 2048, 3072};
    r.timeseries.deltas = {{2048, 256}, {1024, 0}, {1024, 256}};
    HistogramData h;
    h.path = "llc.miss_latency";
    h.counts = {1, 0, 2, 5};
    h.total = 8;
    r.histograms.push_back(h);
    HistogramData empty;
    empty.path = "core0.mshr_occupancy";
    r.histograms.push_back(empty);

    r.cpuSeconds = 0.015625;
    return r;
}

/** A quarantined failure: identity plus error, no data. */
RunResult
goldenFailedRun()
{
    RunResult r;
    r.workload = "synthetic.poisoned";
    r.contention = "isolation";
    r.error.kind = "trace";
    r.error.component = "trace_io";
    r.error.path = "/tmp/poison.trc";
    r.error.message = "truncated trace /tmp/poison.trc";
    return r;
}

/**
 * A worker-level loss under --isolation=process (schema v5): the
 * error object additionally carries the terminating signal and the
 * full retry history.
 */
RunResult
goldenCrashedRun()
{
    RunResult r;
    r.workload = "synthetic.crashy";
    r.contention = "pinte@0.250000";
    r.error.kind = "worker";
    r.error.component = "worker_proc";
    r.error.message =
        "worker lost (killed by signal 6 (Aborted)) after 2 attempt(s)";
    r.error.signal = 6;
    r.error.exitCode = 0;
    r.error.attempts = 2;
    r.error.attemptLog = {"attempt 1: killed by signal 6 (Aborted)",
                          "attempt 2: killed by signal 6 (Aborted)"};
    return r;
}

/**
 * A broker-level loss under --isolation=spool (schema v6): the error
 * object additionally carries the losing shard id and the fencing
 * token it held when the retry budget ran out, alongside the v5 loss
 * record every worker-level loss carries.
 */
RunResult
goldenSpoolLostRun()
{
    RunResult r;
    r.workload = "synthetic.spooled";
    r.contention = "pinte@0.250000";
    r.error.kind = "worker";
    r.error.component = "broker";
    r.error.message =
        "shard s000007 lost after 2 attempt(s); cell quarantined "
        "(lease-ttl=30s)";
    r.error.signal = 0;
    r.error.exitCode = 0;
    r.error.attempts = 2;
    r.error.attemptLog = {
        "attempt 1: lease expired (token 1, pid 4242 on vm, ttl 30s)",
        "attempt 2: worker exited (token 2, pid 4243 on vm)"};
    r.error.shard = "s000007";
    r.error.fencingToken = 3;
    return r;
}

ReportMeta
goldenMeta()
{
    ExperimentParams params;
    params.warmup = 60000;
    params.roi = 60000;
    params.sampleEvery = 3000;
    params.runSeed = 7;
    return {"test_sinks", "golden-fingerprint", params};
}

std::string
emitGoldenJson()
{
    std::ostringstream os;
    {
        JsonSink sink(os, goldenMeta());
        sink.note("golden note");
        sink.note(""); // spacing hint: machine sinks must drop it
        sink.run(goldenRun());
        sink.run(goldenFailedRun());
        sink.run(goldenCrashedRun());
        sink.run(goldenSpoolLostRun());
        TableData t("golden_table", {"label", "count", "value"});
        t.addRow({"row-one", Cell::count(42), Cell::real(0.125, 3)});
        t.addRow({"row,two", Cell::count(0), Cell::pct(0.5, 1)});
        sink.table(t);
        sink.close();
    }
    return os.str();
}

TEST(Sinks, JsonGoldenFile)
{
    const std::string path = std::string(PINTE_TEST_DATA_DIR) +
                             "/golden/report_v" +
                             std::to_string(reportSchemaVersion) +
                             ".json";
    const std::string doc = emitGoldenJson();

    if (std::getenv("PINTE_REGOLD")) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << doc;
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (regenerate with PINTE_REGOLD=1)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(doc, want.str())
        << "JSON report shape changed; if intentional, bump "
           "reportSchemaVersion and regenerate with PINTE_REGOLD=1";
}

TEST(Sinks, JsonRoundTrip)
{
    const RunResult r = goldenRun();
    const std::string doc = emitGoldenJson();

    std::string error;
    const JsonValue v = parseJson(doc, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_TRUE(v.isObject());

    EXPECT_EQ(v.at("schema").asString(), "pinte-report");
    EXPECT_EQ(v.at("schema_version").asU64(),
              static_cast<std::uint64_t>(reportSchemaVersion));
    EXPECT_EQ(v.at("tool").asString(), "test_sinks");

    const JsonValue &config = v.at("config");
    EXPECT_EQ(config.at("fingerprint").asString(),
              "golden-fingerprint");
    EXPECT_EQ(config.at("warmup").asU64(), 60000u);
    EXPECT_EQ(config.at("roi").asU64(), 60000u);
    EXPECT_EQ(config.at("sample_every").asU64(), 3000u);
    EXPECT_EQ(config.at("run_seed").asU64(), 7u);

    // The empty note was a layout hint and must not appear.
    ASSERT_EQ(v.at("notes").array.size(), 1u);
    EXPECT_EQ(v.at("notes").array[0].asString(), "golden note");

    ASSERT_EQ(v.at("runs").array.size(), 4u);
    const JsonValue &run = v.at("runs").array[0];
    EXPECT_EQ(run.at("workload").asString(), r.workload);
    EXPECT_EQ(run.at("contention").asString(), r.contention);
    EXPECT_EQ(run.at("status").asString(), "ok");

    // The quarantined run carries identity + error only — in
    // particular no "metrics" key a v1 consumer could mistake for
    // data — and the campaign-level summary counts it.
    const JsonValue &bad = v.at("runs").array[1];
    EXPECT_EQ(bad.at("workload").asString(), "synthetic.poisoned");
    EXPECT_EQ(bad.at("status").asString(), "failed");
    EXPECT_EQ(bad.find("metrics"), nullptr);
    EXPECT_EQ(bad.find("samples"), nullptr);
    const JsonValue &err = bad.at("error");
    EXPECT_EQ(err.at("kind").asString(), "trace");
    EXPECT_EQ(err.at("component").asString(), "trace_io");
    EXPECT_EQ(err.at("path").asString(), "/tmp/poison.trc");
    EXPECT_EQ(err.at("message").asString(),
              "truncated trace /tmp/poison.trc");
    // In-process failures keep the v2 error shape: no loss record.
    EXPECT_EQ(err.find("attempts"), nullptr);
    EXPECT_EQ(err.find("signal"), nullptr);

    // The worker-level loss (v5) carries the signal and retry
    // history, and both survive the runFromJson round trip.
    const JsonValue &crashed = v.at("runs").array[2];
    EXPECT_EQ(crashed.at("status").asString(), "failed");
    const JsonValue &loss = crashed.at("error");
    EXPECT_EQ(loss.at("kind").asString(), "worker");
    EXPECT_EQ(loss.at("component").asString(), "worker_proc");
    EXPECT_EQ(loss.at("signal").asU64(), 6u);
    EXPECT_EQ(loss.at("exit_code").asU64(), 0u);
    EXPECT_EQ(loss.at("attempts").asU64(), 2u);
    ASSERT_EQ(loss.at("attempt_log").array.size(), 2u);
    EXPECT_EQ(loss.at("attempt_log").array[0].asString(),
              "attempt 1: killed by signal 6 (Aborted)");
    const RunResult lost = runFromJson(crashed);
    EXPECT_TRUE(lost.failed());
    EXPECT_EQ(lost.error.signal, 6);
    EXPECT_EQ(lost.error.exitCode, 0);
    EXPECT_EQ(lost.error.attempts, 2u);
    EXPECT_EQ(lost.error.attemptLog,
              goldenCrashedRun().error.attemptLog);
    // A process-mode loss carries no spool provenance.
    EXPECT_EQ(loss.find("shard"), nullptr);
    EXPECT_EQ(loss.find("fencing_token"), nullptr);

    // The broker-level loss (v6) adds the shard/fencing-token pair on
    // top of the v5 loss record, and both survive the round trip.
    const JsonValue &spooled = v.at("runs").array[3];
    EXPECT_EQ(spooled.at("status").asString(), "failed");
    const JsonValue &sloss = spooled.at("error");
    EXPECT_EQ(sloss.at("component").asString(), "broker");
    EXPECT_EQ(sloss.at("shard").asString(), "s000007");
    EXPECT_EQ(sloss.at("fencing_token").asU64(), 3u);
    EXPECT_EQ(sloss.at("attempts").asU64(), 2u);
    ASSERT_EQ(sloss.at("attempt_log").array.size(), 2u);
    const RunResult slost = runFromJson(spooled);
    EXPECT_TRUE(slost.failed());
    EXPECT_EQ(slost.error.shard, "s000007");
    EXPECT_EQ(slost.error.fencingToken, 3u);
    EXPECT_EQ(slost.error.attempts, 2u);
    EXPECT_EQ(slost.error.attemptLog,
              goldenSpoolLostRun().error.attemptLog);

    const JsonValue &failures = v.at("failures");
    EXPECT_EQ(failures.at("failed").asU64(), 3u);
    EXPECT_EQ(failures.at("total").asU64(), 4u);

    // Metrics round-trip bit-identically (EXPECT_EQ, not NEAR).
    const JsonValue &m = run.at("metrics");
    EXPECT_EQ(m.at("ipc").asDouble(), r.metrics.ipc);
    EXPECT_EQ(m.at("miss_rate").asDouble(), r.metrics.missRate);
    EXPECT_EQ(m.at("amat").asDouble(), r.metrics.amat);
    EXPECT_EQ(m.at("interference_rate").asDouble(),
              r.metrics.interferenceRate);
    EXPECT_EQ(m.at("theft_rate").asDouble(), r.metrics.theftRate);
    EXPECT_EQ(m.at("l2_interference_rate").asDouble(),
              r.metrics.l2InterferenceRate);
    EXPECT_EQ(m.at("branch_accuracy").asDouble(),
              r.metrics.branchAccuracy);
    EXPECT_EQ(m.at("l1d_miss_rate").asDouble(), r.metrics.l1dMissRate);
    EXPECT_EQ(m.at("l2_miss_rate").asDouble(), r.metrics.l2MissRate);
    EXPECT_EQ(m.at("prefetch_miss_rate").asDouble(),
              r.metrics.prefetchMissRate);
    EXPECT_EQ(m.at("l2_mpki").asDouble(), r.metrics.l2Mpki);
    EXPECT_EQ(m.at("llc_mpki").asDouble(), r.metrics.llcMpki);
    EXPECT_EQ(m.at("llc_wb_share").asDouble(), r.metrics.llcWbShare);
    EXPECT_EQ(m.at("llc_occupancy_fraction").asDouble(),
              r.metrics.llcOccupancyFraction);
    EXPECT_EQ(m.at("llc_accesses").asU64(), r.metrics.llcAccesses);
    EXPECT_EQ(m.at("llc_misses").asU64(), r.metrics.llcMisses);

    // Samples — including the non-dyadic 1/3 IPC.
    ASSERT_EQ(run.at("samples").array.size(), r.samples.size());
    for (std::size_t i = 0; i < r.samples.size(); ++i) {
        const JsonValue &js = run.at("samples").array[i];
        const Sample &ss = r.samples[i];
        EXPECT_EQ(js.at("ipc").asDouble(), ss.ipc);
        EXPECT_EQ(js.at("miss_rate").asDouble(), ss.missRate);
        EXPECT_EQ(js.at("amat").asDouble(), ss.amat);
        EXPECT_EQ(js.at("interference_rate").asDouble(),
                  ss.interferenceRate);
        EXPECT_EQ(js.at("theft_rate").asDouble(), ss.theftRate);
        EXPECT_EQ(js.at("occupancy_fraction").asDouble(),
                  ss.occupancyFraction);
        EXPECT_EQ(js.at("instructions").asU64(), ss.instructions);
    }

    const JsonValue &reuse = run.at("reuse_histogram");
    ASSERT_EQ(reuse.array.size(), r.reuse.size());
    for (std::size_t i = 0; i < r.reuse.size(); ++i)
        EXPECT_EQ(reuse.array[i].asU64(), r.reuse.at(i));

    const JsonValue &p = run.at("pinte");
    EXPECT_EQ(p.at("accesses_seen").asU64(), r.pinte.accessesSeen);
    EXPECT_EQ(p.at("triggers").asU64(), r.pinte.triggers);
    EXPECT_EQ(p.at("promotions").asU64(), r.pinte.promotions);
    EXPECT_EQ(p.at("invalidations").asU64(), r.pinte.invalidations);
    EXPECT_EQ(p.at("requested_evicts").asU64(),
              r.pinte.requestedEvicts);
    EXPECT_EQ(run.at("cpu_seconds").asDouble(), r.cpuSeconds);

    // v3 observability payloads round-trip: the timeseries object
    // matches the synthetic input, and only the non-empty histogram
    // survives emission.
    const JsonValue &ts = run.at("timeseries");
    EXPECT_EQ(ts.at("interval_cycles").asU64(),
              r.timeseries.intervalCycles);
    ASSERT_EQ(ts.at("paths").array.size(), r.timeseries.paths.size());
    for (std::size_t i = 0; i < r.timeseries.paths.size(); ++i)
        EXPECT_EQ(ts.at("paths").array[i].asString(),
                  r.timeseries.paths[i]);
    ASSERT_EQ(ts.at("cycles").array.size(),
              r.timeseries.cycles.size());
    ASSERT_EQ(ts.at("deltas").array.size(),
              r.timeseries.deltas.size());
    for (std::size_t row = 0; row < r.timeseries.deltas.size(); ++row) {
        EXPECT_EQ(ts.at("cycles").array[row].asU64(),
                  r.timeseries.cycles[row]);
        const JsonValue &jrow = ts.at("deltas").array[row];
        ASSERT_EQ(jrow.array.size(), r.timeseries.deltas[row].size());
        for (std::size_t col = 0; col < jrow.array.size(); ++col)
            EXPECT_EQ(jrow.array[col].asU64(),
                      r.timeseries.deltas[row][col]);
    }
    const JsonValue &hists = run.at("histograms");
    ASSERT_EQ(hists.array.size(), 1u)
        << "all-zero histograms must be dropped";
    const JsonValue &h = hists.array[0];
    EXPECT_EQ(h.at("path").asString(), "llc.miss_latency");
    EXPECT_EQ(h.at("total").asU64(), 8u);
    ASSERT_EQ(h.at("counts").array.size(), 4u);
    std::uint64_t bucket_sum = 0;
    for (const JsonValue &c : h.at("counts").array)
        bucket_sum += c.asU64();
    EXPECT_EQ(bucket_sum, h.at("total").asU64());

    // A failed run never carries observability payloads.
    EXPECT_EQ(bad.find("timeseries"), nullptr);
    EXPECT_EQ(bad.find("histograms"), nullptr);

    // runFromJson restores the payloads structurally.
    const RunResult back = runFromJson(run);
    EXPECT_EQ(back.timeseries.intervalCycles,
              r.timeseries.intervalCycles);
    EXPECT_EQ(back.timeseries.paths, r.timeseries.paths);
    EXPECT_EQ(back.timeseries.cycles, r.timeseries.cycles);
    EXPECT_EQ(back.timeseries.deltas, r.timeseries.deltas);
    ASSERT_EQ(back.histograms.size(), 1u);
    EXPECT_EQ(back.histograms[0].path, "llc.miss_latency");
    EXPECT_EQ(back.histograms[0].total, 8u);
    EXPECT_EQ(back.histograms[0].counts, r.histograms[0].counts);

    // Typed table cells keep their raw values.
    ASSERT_EQ(v.at("tables").array.size(), 1u);
    const JsonValue &t = v.at("tables").array[0];
    EXPECT_EQ(t.at("name").asString(), "golden_table");
    ASSERT_EQ(t.at("rows").array.size(), 2u);
    EXPECT_EQ(t.at("rows").array[0].array[1].asU64(), 42u);
    EXPECT_EQ(t.at("rows").array[0].array[2].asDouble(), 0.125);
    EXPECT_EQ(t.at("rows").array[1].array[2].asDouble(), 0.5);
}

TEST(Sinks, CsvCarriesRunsAndTables)
{
    std::ostringstream os;
    {
        CsvSink sink(os, goldenMeta());
        sink.note("");
        sink.run(goldenRun());
        sink.run(goldenFailedRun());
        sink.run(goldenCrashedRun());
        TableData t("golden_table", {"label", "value"});
        t.addRow({"row,with,commas", Cell::real(0.5, 3)});
        sink.table(t);
        sink.close();
    }
    const std::string doc = os.str();
    EXPECT_NE(doc.find("# pinte-report v" +
                       std::to_string(reportSchemaVersion)),
              std::string::npos);
    EXPECT_NE(doc.find("workload,contention,status,ipc"),
              std::string::npos);
    EXPECT_NE(doc.find("synthetic.golden"), std::string::npos);
    EXPECT_NE(doc.find(",ok,"), std::string::npos);
    EXPECT_NE(doc.find("synthetic.poisoned,isolation,failed,"),
              std::string::npos);
    EXPECT_NE(doc.find("truncated trace /tmp/poison.trc"),
              std::string::npos);
    // A worker-level loss flattens to its kind + message; the CSV
    // shape (column list) is unchanged by schema v5.
    EXPECT_NE(doc.find("synthetic.crashy,pinte@0.250000,failed,"),
              std::string::npos);
    EXPECT_NE(doc.find(",worker,"), std::string::npos);
    EXPECT_NE(
        doc.find("worker lost (killed by signal 6 (Aborted)) after "
                 "2 attempt(s)"),
        std::string::npos);
    EXPECT_NE(doc.find("\"row,with,commas\""), std::string::npos);
    EXPECT_EQ(doc.find("# note:"), std::string::npos)
        << "empty note must be dropped by machine sinks";

    // v3 wide sections: the timeseries block carries its interval and
    // per-path header, the non-empty histogram gets a bucket table
    // with log2 lower bounds, and the all-zero histogram is dropped.
    EXPECT_NE(doc.find("# timeseries: synthetic.golden vs "
                       "pinte@0.250000 interval 1024"),
              std::string::npos);
    EXPECT_NE(doc.find("cycle,llc.core0.accesses,llc.core0.misses"),
              std::string::npos);
    EXPECT_NE(doc.find("1024,2048,256"), std::string::npos);
    EXPECT_NE(doc.find("3072,1024,256"), std::string::npos);
    EXPECT_NE(doc.find("# histogram: llc.miss_latency total 8"),
              std::string::npos);
    EXPECT_NE(doc.find("bucket,low,count"), std::string::npos);
    EXPECT_NE(doc.find("3,4,5"), std::string::npos);
    EXPECT_EQ(doc.find("core0.mshr_occupancy"), std::string::npos)
        << "all-zero histograms must be dropped";
}

/**
 * The acceptance check for the registry refactor: the registry-derived
 * aggregation must be bit-identical to the legacy struct-walking one
 * on live, finished systems — isolation, PInTE and pair runs.
 */
void
expectMetricsEqual(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.missRate, b.missRate);
    EXPECT_EQ(a.amat, b.amat);
    EXPECT_EQ(a.interferenceRate, b.interferenceRate);
    EXPECT_EQ(a.theftRate, b.theftRate);
    EXPECT_EQ(a.l2InterferenceRate, b.l2InterferenceRate);
    EXPECT_EQ(a.branchAccuracy, b.branchAccuracy);
    EXPECT_EQ(a.l1dMissRate, b.l1dMissRate);
    EXPECT_EQ(a.l2MissRate, b.l2MissRate);
    EXPECT_EQ(a.prefetchMissRate, b.prefetchMissRate);
    EXPECT_EQ(a.l2Mpki, b.l2Mpki);
    EXPECT_EQ(a.llcMpki, b.llcMpki);
    EXPECT_EQ(a.llcWbShare, b.llcWbShare);
    EXPECT_EQ(a.llcOccupancyFraction, b.llcOccupancyFraction);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
}

TEST(Sinks, RegistryMatchesLegacyIsolation)
{
    MachineConfig machine = MachineConfig::scaled();
    TraceGenerator gen(findWorkload("450.soplex"));
    System sys(machine, {&gen});
    sys.warmup(2000);
    sys.runUntilCore0(6000);
    expectMetricsEqual(computeRunMetrics(sys, 0),
                       computeRunMetricsLegacy(sys, 0));
}

TEST(Sinks, RegistryMatchesLegacyPInte)
{
    MachineConfig machine = MachineConfig::scaled();
    machine.pinte.pInduce = 0.3;
    TraceGenerator gen(findWorkload("429.mcf"));
    System sys(machine, {&gen});
    sys.warmup(2000);
    sys.runUntilCore0(6000);
    expectMetricsEqual(computeRunMetrics(sys, 0),
                       computeRunMetricsLegacy(sys, 0));
}

TEST(Sinks, RegistryMatchesLegacyPair)
{
    MachineConfig machine = MachineConfig::scaled();
    machine.numCores = 2;
    WorkloadSpec peer = findWorkload("470.lbm");
    peer.dataBase += 0x800000000ull;
    peer.codeBase += 0x40000000ull;
    TraceGenerator ga(findWorkload("450.soplex")), gb(peer);
    System sys(machine, {&ga, &gb});
    sys.warmup(2000);
    sys.runUntilCore0(6000);
    for (unsigned c = 0; c < 2; ++c)
        expectMetricsEqual(computeRunMetrics(sys, c),
                           computeRunMetricsLegacy(sys, c));
}

/** Unsigned integers survive a JSON write/parse round trip exactly,
 *  including values a double rounds (2^53 + 1, 2^64 - 1). */
TEST(Json, U64RoundTripIsExact)
{
    for (const std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{9007199254740993ULL},
          std::uint64_t{18446744073709551615ULL}}) {
        std::ostringstream os;
        {
            JsonWriter w(os, 0);
            w.beginObject();
            w.member("v", v);
            w.endObject();
        }
        std::string err;
        const JsonValue doc = parseJson(os.str(), &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(doc.at("v").asU64(), v) << os.str();
    }
}

/** asU64 refuses values with no exact u64 representation with a
 *  typed error instead of casting (UB at 2^64) or exiting. */
TEST(Json, U64RejectsFractionalNegativeAndOverflow)
{
    for (const char *text :
         {"0.5", "-1", "-0.5", "18446744073709551616", "1e20", "\"7\""}) {
        const JsonValue v = parseJson(text);
        EXPECT_THROW(v.asU64(), ConfigError) << text;
    }
    // Integral values in other spellings still convert.
    EXPECT_EQ(parseJson("4096.0").asU64(), 4096u);
    EXPECT_EQ(parseJson("1e3").asU64(), 1000u);
    // A double keeps reading the rounded value.
    EXPECT_EQ(parseJson("9007199254740993").asDouble(), 9007199254740992.0);
}

} // namespace
} // namespace pinte
