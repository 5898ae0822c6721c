/**
 * @file
 * Tests for the trace substrate: generator determinism, pattern
 * properties, the SPEC-like zoo, and trace file I/O.
 */

#include <gtest/gtest.h>

#include "expect_error.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "trace/generator.hh"
#include "trace/trace_io.hh"
#include "trace/zoo.hh"

using namespace pinte;

namespace
{

WorkloadSpec
tinySpec()
{
    WorkloadSpec s;
    s.name = "tiny";
    s.seed = 5;
    s.footprintLines = 64;
    s.hotLines = 8;
    return s;
}

} // namespace

TEST(TraceGenerator, DeterministicForSameSeed)
{
    TraceGenerator a(tinySpec()), b(tinySpec());
    for (int i = 0; i < 5000; ++i) {
        const TraceRecord ra = a.next();
        const TraceRecord rb = b.next();
        ASSERT_EQ(ra.ip, rb.ip);
        ASSERT_EQ(ra.numLoads, rb.numLoads);
        ASSERT_EQ(ra.loadAddr[0], rb.loadAddr[0]);
        ASSERT_EQ(ra.isBranch, rb.isBranch);
        ASSERT_EQ(ra.branchTaken, rb.branchTaken);
    }
}

TEST(TraceGenerator, RunSeedPerturbsStream)
{
    TraceGenerator a(tinySpec(), 0), b(tinySpec(), 1);
    int diff = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next().loadAddr[0] != b.next().loadAddr[0])
            ++diff;
    }
    EXPECT_GT(diff, 0);
}

TEST(TraceGenerator, ResetReproducesStream)
{
    TraceGenerator g(tinySpec());
    std::vector<Addr> first;
    for (int i = 0; i < 1000; ++i)
        first.push_back(g.next().ip);
    g.reset();
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(g.next().ip, first[i]);
    EXPECT_EQ(g.generated(), 1000u);
}

TEST(TraceGenerator, LoadsStayInsideFootprint)
{
    WorkloadSpec s = tinySpec();
    TraceGenerator g(s);
    const Addr lo = s.dataBase;
    const Addr hi = s.dataBase + s.footprintLines * blockSize;
    for (int i = 0; i < 20000; ++i) {
        const TraceRecord r = g.next();
        for (unsigned l = 0; l < r.numLoads; ++l) {
            ASSERT_GE(r.loadAddr[l], lo);
            ASSERT_LT(r.loadAddr[l], hi);
        }
        for (unsigned st = 0; st < r.numStores; ++st) {
            ASSERT_GE(r.storeAddr[st], lo);
            ASSERT_LT(r.storeAddr[st], hi);
        }
    }
}

TEST(TraceGenerator, LoadFractionApproximatelyHonored)
{
    WorkloadSpec s = tinySpec();
    s.loadFraction = 0.25;
    TraceGenerator g(s);
    int loads = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        if (g.next().numLoads > 0)
            ++loads;
    EXPECT_NEAR(loads / double(n), 0.25, 0.02);
}

TEST(TraceGenerator, BranchesArePresentAndBounded)
{
    WorkloadSpec s = tinySpec();
    s.branchFraction = 0.15;
    TraceGenerator g(s);
    int branches = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        if (g.next().isBranch)
            ++branches;
    EXPECT_GT(branches, n / 20);
    EXPECT_LT(branches, n / 3);
}

TEST(TraceGenerator, BranchTargetsMatchSites)
{
    TraceGenerator g(tinySpec());
    for (int i = 0; i < 20000; ++i) {
        const TraceRecord r = g.next();
        if (r.isBranch && r.branchTaken)
            ASSERT_NE(r.branchTarget, 0u);
    }
}

TEST(TraceGenerator, ChasePermutationIsSingleCycle)
{
    // A Sattolo cycle must visit every line exactly once before
    // returning to the start: chase-only workload touches the whole
    // footprint.
    WorkloadSpec s = tinySpec();
    s.hotFraction = 0.0;
    s.streamFraction = 0.0;
    s.strideFraction = 0.0;
    s.randomFraction = 0.0;
    s.chaseFraction = 1.0;
    s.loadFraction = 1.0;
    s.storeFraction = 0.0;
    s.footprintLines = 32;
    TraceGenerator g(s);
    std::set<Addr> lines;
    int loads_seen = 0;
    while (loads_seen < 32) {
        const TraceRecord r = g.next();
        for (unsigned l = 0; l < r.numLoads; ++l) {
            lines.insert(lineNumber(r.loadAddr[l]));
            ++loads_seen;
            if (loads_seen >= 32)
                break;
        }
    }
    // Second loads (8% gather probability) may duplicate, so require
    // near-complete coverage rather than exact.
    EXPECT_GE(lines.size(), 28u);
}

TEST(TraceGenerator, PhasesChangeAccessMix)
{
    WorkloadSpec s = tinySpec();
    s.phases = 2;
    s.phaseLength = 5000;
    s.hotFraction = 0.9;
    TraceGenerator g(s);
    // Count hot-set accesses in phase 0 vs phase 1: phase 1 halves
    // hotFraction, so hot accesses should drop.
    auto hot_share = [&](int n) {
        int hot = 0, total = 0;
        for (int i = 0; i < n; ++i) {
            const TraceRecord r = g.next();
            for (unsigned l = 0; l < r.numLoads; ++l) {
                ++total;
                if (lineNumber(r.loadAddr[l]) - lineNumber(s.dataBase) <
                    s.hotLines)
                    ++hot;
            }
        }
        return total ? hot / double(total) : 0.0;
    };
    const double phase0 = hot_share(5000);
    const double phase1 = hot_share(5000);
    EXPECT_GT(phase0, phase1 + 0.1);
}

TEST(TraceGenerator, CodeFootprintIsBounded)
{
    // Instruction pointers must stay inside the declared code segment
    // so the L1I working set is controlled.
    WorkloadSpec s = tinySpec();
    s.branchSites = 64;
    TraceGenerator g(s);
    const Addr lo = s.codeBase;
    const Addr hi = s.codeBase + 64 * 6 * 4 + 64; // sites*blk*instBytes
    for (int i = 0; i < 20000; ++i) {
        const Addr ip = g.next().ip;
        ASSERT_GE(ip, lo);
        ASSERT_LT(ip, hi);
    }
}

TEST(TraceGenerator, CodeBaseOffsetRelocatesIps)
{
    WorkloadSpec a = tinySpec();
    WorkloadSpec b = tinySpec();
    b.codeBase += 0x1000000;
    TraceGenerator ga(a), gb(b);
    for (int i = 0; i < 1000; ++i) {
        const TraceRecord ra = ga.next();
        const TraceRecord rb = gb.next();
        ASSERT_EQ(ra.ip + 0x1000000, rb.ip);
        ASSERT_EQ(ra.isBranch, rb.isBranch);
    }
}

TEST(TraceGenerator, HighBiasMakesBranchesPredictable)
{
    // branchBias controls the share of coin-flip sites; a bias-1.0
    // spec should produce a taken-rate far from 0.5 overall and with
    // strong per-site structure (loop/biased only).
    WorkloadSpec s = tinySpec();
    s.branchBias = 1.0;
    s.branchFraction = 0.2;
    TraceGenerator g(s);
    int taken = 0, branches = 0;
    for (int i = 0; i < 40000; ++i) {
        const TraceRecord r = g.next();
        if (r.isBranch) {
            ++branches;
            taken += r.branchTaken;
        }
    }
    ASSERT_GT(branches, 1000);
    const double rate = taken / double(branches);
    EXPECT_GT(rate, 0.55); // loops + biased sites skew taken
}

TEST(TraceGenerator, ExecLatencyWithinDeclaredRange)
{
    TraceGenerator g(tinySpec());
    for (int i = 0; i < 10000; ++i) {
        const auto lat = g.next().execLatency;
        ASSERT_GE(lat, 1);
        ASSERT_LE(lat, 16);
    }
}

TEST(VectorTraceSource, ReplaysAndWraps)
{
    std::vector<TraceRecord> recs(3);
    recs[0].ip = 10;
    recs[1].ip = 20;
    recs[2].ip = 30;
    VectorTraceSource src(recs);
    EXPECT_EQ(src.next().ip, 10u);
    EXPECT_EQ(src.next().ip, 20u);
    EXPECT_EQ(src.next().ip, 30u);
    EXPECT_TRUE(src.done());
    EXPECT_EQ(src.next().ip, 10u); // wraps
    src.reset();
    EXPECT_EQ(src.next().ip, 10u);
}

TEST(TraceIo, RoundTrip)
{
    const std::string path = ::testing::TempDir() + "roundtrip.trc";
    TraceGenerator g(tinySpec());
    std::vector<TraceRecord> original;
    for (int i = 0; i < 500; ++i)
        original.push_back(g.next());
    writeTrace(path, original);

    const auto loaded = readTrace(path);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(loaded[i].ip, original[i].ip);
        EXPECT_EQ(loaded[i].loadAddr[0], original[i].loadAddr[0]);
        EXPECT_EQ(loaded[i].isBranch, original[i].isBranch);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, GeneratorToFile)
{
    const std::string path = ::testing::TempDir() + "gen.trc";
    TraceGenerator g(tinySpec());
    EXPECT_EQ(writeTrace(path, g, 100), 100u);

    FileTraceSource src(path);
    EXPECT_EQ(src.count(), 100u);
    TraceGenerator ref(tinySpec());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(src.next().ip, ref.next().ip);
    std::remove(path.c_str());
}

TEST(TraceIo, FileSourceWrapsLikeChampSim)
{
    const std::string path = ::testing::TempDir() + "wrap.trc";
    std::vector<TraceRecord> recs(2);
    recs[0].ip = 1;
    recs[1].ip = 2;
    writeTrace(path, recs);
    FileTraceSource src(path);
    EXPECT_EQ(src.next().ip, 1u);
    EXPECT_EQ(src.next().ip, 2u);
    EXPECT_EQ(src.next().ip, 1u); // wrapped
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileIsFatal)
{
    EXPECT_ERROR(FileTraceSource("/nonexistent/file.trc"), TraceError,
                 "cannot open");
}

TEST(TraceIo, BadMagicIsFatal)
{
    const std::string path = ::testing::TempDir() + "garbage.trc";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[64] = "this is not a pinte trace file at all";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
    EXPECT_ERROR(FileTraceSource src(path), TraceError, "not a pinte trace");
    std::remove(path.c_str());
}

TEST(TraceIo, EmptyTraceRejectedAtOpen)
{
    // A zero-record trace has nothing to replay or wrap to; the reader
    // must refuse it at open instead of serving default records.
    const std::string path = ::testing::TempDir() + "empty.trc";
    writeTrace(path, std::vector<TraceRecord>{});
    EXPECT_ERROR(FileTraceSource src(path), TraceError, "empty trace");
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedHeaderIsFatal)
{
    const std::string path = ::testing::TempDir() + "short.trc";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("PN", 1, 2, f);
    std::fclose(f);
    EXPECT_ERROR(FileTraceSource src(path), TraceError, "trace read failed");
    std::remove(path.c_str());
}

namespace
{

/** XOR one bit of a file in place. */
void
flipBit(const std::string &path, long offset, unsigned bit = 0)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f) << path;
    f.seekg(offset);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ (1u << bit));
    f.seekp(offset);
    f.write(&byte, 1);
}

/** Rewrite a current-version trace as version 1: no footer, old tag. */
void
downgradeToV1(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GE(bytes.size(), sizeof(std::uint32_t));
    bytes.resize(bytes.size() - sizeof(std::uint32_t)); // drop footer
    const std::uint32_t v1 = 1;
    bytes.replace(8, sizeof(v1), // version field offset in the header
                  reinterpret_cast<const char *>(&v1), sizeof(v1));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(TraceIo, WriterStampsCurrentVersion)
{
    const std::string path = ::testing::TempDir() + "version.trc";
    writeTrace(path, std::vector<TraceRecord>(3));
    FileTraceSource src(path);
    EXPECT_EQ(src.version(), traceVersion);
    EXPECT_EQ(src.version(), 2u);
    std::remove(path.c_str());
}

TEST(TraceIo, BitFlippedTraceRejectedAtOpen)
{
    const std::string path = ::testing::TempDir() + "bitflip.trc";
    TraceGenerator g(tinySpec());
    writeTrace(path, g, 64);
    { FileTraceSource ok(path); } // pristine file opens fine
    // One flipped bit in the middle of the record payload: silent
    // corruption the CRC32 footer exists to catch.
    flipBit(path, 24 + 30 * 56 + 17, 3);
    EXPECT_ERROR(FileTraceSource src(path), TraceError,
                 "checksum mismatch");
    std::remove(path.c_str());
}

TEST(TraceIo, FlippedFooterAlsoRejected)
{
    const std::string path = ::testing::TempDir() + "footflip.trc";
    writeTrace(path, std::vector<TraceRecord>(5));
    std::error_code ec;
    const long end = static_cast<long>(
        std::filesystem::file_size(path, ec));
    flipBit(path, end - 2, 6);
    EXPECT_ERROR(FileTraceSource src(path), TraceError,
                 "checksum mismatch");
    std::remove(path.c_str());
}

TEST(TraceIo, Version1WithoutFooterStillReadable)
{
    const std::string path = ::testing::TempDir() + "old_v1.trc";
    TraceGenerator g(tinySpec());
    std::vector<TraceRecord> original;
    for (int i = 0; i < 50; ++i)
        original.push_back(g.next());
    writeTrace(path, original);
    downgradeToV1(path);

    FileTraceSource src(path);
    EXPECT_EQ(src.version(), 1u);
    ASSERT_EQ(src.count(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const TraceRecord r = src.next();
        EXPECT_EQ(r.ip, original[i].ip);
        EXPECT_EQ(r.isBranch, original[i].isBranch);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, RecordValidationRejectsOutOfRangeFields)
{
    TraceRecord r; // defaults are valid
    validateRecord(r, 0, "unit");

    TraceRecord loads = r;
    loads.numLoads = 7;
    EXPECT_ERROR(validateRecord(loads, 1, "unit"), TraceError,
                 "numLoads 7 exceeds 2");
    TraceRecord stores = r;
    stores.numStores = 3;
    EXPECT_ERROR(validateRecord(stores, 2, "unit"), TraceError,
                 "numStores 3 exceeds 2");
    TraceRecord branch = r;
    branch.isBranch = 2;
    EXPECT_ERROR(validateRecord(branch, 3, "unit"), TraceError,
                 "isBranch byte is 2");
    TraceRecord taken = r;
    taken.branchTaken = 1;
    EXPECT_ERROR(validateRecord(taken, 4, "unit"), TraceError,
                 "branchTaken set on a non-branch");
    TraceRecord reg = r;
    reg.srcReg[1] = 64; // numArchRegs, but not the 0xff sentinel
    EXPECT_ERROR(validateRecord(reg, 5, "unit"), TraceError,
                 "register id 64 out of range");
    TraceRecord lat = r;
    lat.execLatency = 0;
    EXPECT_ERROR(validateRecord(lat, 6, "unit"), TraceError,
                 "zero execution latency");
}

TEST(TraceIo, CorruptRecordInV1RejectedOnRead)
{
    // A version-1 file has no checksum, so a poisoned field is only
    // caught by per-record validation at read time. The reader decodes
    // in batches, so the error surfaces on the next() that pulls in
    // the batch holding the bad record (here: the very first call) —
    // but it still names the offending record's own index.
    const std::string path = ::testing::TempDir() + "badrec_v1.trc";
    writeTrace(path, std::vector<TraceRecord>(4));
    downgradeToV1(path);
    flipBit(path, 24 + 2 * 56 + 51, 2); // record 2's numLoads -> 4
    FileTraceSource src(path);
    EXPECT_ERROR((void)src.next(), TraceError, "bad trace record 2");
    std::remove(path.c_str());
}

TEST(TraceIo, CorpusReplayNeverCrashesTheReader)
{
    // Every committed corpus input — including regression cases for
    // reader bugs — must produce either a clean parse or a typed
    // TraceError; anything else (crash, unhandled exception) fails.
    const std::string dir = std::string(PINTE_TEST_DATA_DIR) + "/corpus";
    std::size_t total = 0, clean = 0, rejected = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".trc")
            continue;
        ++total;
        try {
            FileTraceSource src(entry.path().string());
            for (std::uint64_t i = 0; i < src.count(); ++i)
                (void)src.next();
            ++clean;
            EXPECT_EQ(entry.path().filename().string().rfind("seed_", 0),
                      0u)
                << entry.path() << " parsed cleanly but is not a seed";
        } catch (const TraceError &) {
            ++rejected;
        }
    }
    EXPECT_GE(total, 10u) << "corpus went missing from " << dir;
    EXPECT_EQ(clean, 2u); // seed_minimal.trc and seed_v1.trc
    EXPECT_EQ(rejected, total - clean);
}

TEST(Zoo, SuiteSizesMatchTableTwo)
{
    EXPECT_EQ(spec2006Zoo().size(), 29u);
    EXPECT_EQ(spec2017Zoo().size(), 20u);
    EXPECT_EQ(fullZoo().size(), 49u);
}

TEST(Zoo, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &s : fullZoo())
        names.insert(s.name);
    EXPECT_EQ(names.size(), 49u);
}

TEST(Zoo, AllEntriesGenerateCleanly)
{
    for (const auto &spec : fullZoo()) {
        TraceGenerator g(spec);
        for (int i = 0; i < 200; ++i)
            (void)g.next();
        EXPECT_EQ(g.generated(), 200u) << spec.name;
    }
}

namespace
{

/** FNV-1a over every field of every record, in stream order. */
std::uint64_t
streamDigest(TraceGenerator &g, std::uint64_t records)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (std::uint64_t i = 0; i < records; ++i) {
        const TraceRecord r = g.next();
        mix(r.ip);
        for (const Addr a : r.loadAddr)
            mix(a);
        for (const Addr a : r.storeAddr)
            mix(a);
        mix(r.branchTarget);
        mix(r.srcReg[0]);
        mix(r.srcReg[1]);
        mix(r.dstReg);
        mix(r.numLoads);
        mix(r.numStores);
        mix(r.isBranch);
        mix(r.branchTaken);
        mix(r.execLatency);
    }
    return h;
}

} // namespace

// The generator's output pinned record by record: the digest of the
// first 100K records of every zoo workload at run seed 0 and at one
// nonzero run seed, recorded before the generator's Bernoulli draws
// became integer-threshold compares. A generator speed-up must leave
// every line of tests/golden/generator_streams.txt unchanged.
TEST(Zoo, GeneratorStreamsMatchGolden)
{
    const std::string path =
        std::string(PINTE_TEST_DATA_DIR) + "/golden/generator_streams.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing " << path;
    std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> golden;
    std::string name;
    std::uint64_t seed = 0, digest = 0;
    while (in >> name >> seed >> std::hex >> digest >> std::dec)
        golden[{name, seed}] = digest;

    constexpr std::uint64_t records = 100000;
    for (const std::uint64_t run_seed :
         {std::uint64_t(0), std::uint64_t(0xdeadbeefcafef00dull)}) {
        for (const WorkloadSpec &spec : fullZoo()) {
            TraceGenerator g(spec, run_seed);
            const std::uint64_t got = streamDigest(g, records);
            const auto it = golden.find({spec.name, run_seed});
            ASSERT_NE(it, golden.end())
                << "no golden for " << spec.name << ' ' << run_seed
                << "; computed " << std::hex << got;
            EXPECT_EQ(got, it->second)
                << spec.name << " at run seed " << run_seed;
        }
    }
    EXPECT_EQ(golden.size(), 2 * fullZoo().size());
}

TEST(Zoo, ClassesAssignedAsDocumented)
{
    EXPECT_EQ(findWorkload("429.mcf").klass, WorkloadClass::DramBound);
    EXPECT_EQ(findWorkload("465.tonto").klass, WorkloadClass::CoreBound);
    EXPECT_EQ(findWorkload("450.soplex").klass, WorkloadClass::LlcBound);
    EXPECT_EQ(findWorkload("470.lbm").klass, WorkloadClass::Streaming);
    EXPECT_EQ(findWorkload("403.gcc").klass, WorkloadClass::Mixed);
    EXPECT_EQ(findWorkload("602.gcc").klass, WorkloadClass::DramBound);
}

TEST(Zoo, SuitesTaggedCorrectly)
{
    for (const auto &s : spec2006Zoo())
        EXPECT_EQ(s.suite, Suite::Spec2006) << s.name;
    for (const auto &s : spec2017Zoo())
        EXPECT_EQ(s.suite, Suite::Spec2017) << s.name;
}

TEST(Zoo, SmallZooIsSubsetOfFullZoo)
{
    const auto small = smallZoo();
    EXPECT_GE(small.size(), 10u);
    for (const auto &s : small)
        EXPECT_NO_FATAL_FAILURE(findWorkload(s.name));
}

TEST(Zoo, SmallZooSpansClasses)
{
    std::set<WorkloadClass> classes;
    for (const auto &s : smallZoo())
        classes.insert(s.klass);
    EXPECT_GE(classes.size(), 5u);
}

TEST(Zoo, UnknownNameIsFatal)
{
    EXPECT_ERROR(findWorkload("999.nonesuch"), ConfigError,
                 "unknown zoo workload");
}

TEST(WorkloadSpec, NormalizeMixSumsToOne)
{
    WorkloadSpec s;
    s.streamFraction = 2.0;
    s.strideFraction = 1.0;
    s.chaseFraction = 1.0;
    s.randomFraction = 0.0;
    s.normalizeMix();
    EXPECT_NEAR(s.streamFraction + s.strideFraction + s.chaseFraction +
                    s.randomFraction,
                1.0, 1e-12);
    EXPECT_NEAR(s.streamFraction, 0.5, 1e-12);
}

TEST(WorkloadSpec, NormalizeMixDegenerateFallsBackToStream)
{
    WorkloadSpec s;
    s.streamFraction = s.strideFraction = 0.0;
    s.chaseFraction = s.randomFraction = 0.0;
    s.normalizeMix();
    EXPECT_EQ(s.streamFraction, 1.0);
}

TEST(WorkloadClassNames, AllDistinct)
{
    std::set<std::string> names;
    names.insert(toString(WorkloadClass::CoreBound));
    names.insert(toString(WorkloadClass::CacheFriendly));
    names.insert(toString(WorkloadClass::LlcBound));
    names.insert(toString(WorkloadClass::DramBound));
    names.insert(toString(WorkloadClass::Streaming));
    names.insert(toString(WorkloadClass::Mixed));
    EXPECT_EQ(names.size(), 6u);
}
