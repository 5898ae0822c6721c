/**
 * @file
 * bench_hotpath — record a hot-path perf baseline batch.
 *
 * Runs the pinned best-of-N kernel suite (sim/hotpath_bench.hh) and
 * merges the measured batch into a baseline document, by default the
 * committed BENCH_hotpath.json trajectory at the repo root. Rows whose
 * label matches the new batch are replaced (re-measuring a point
 * refreshes it); every other label's rows are preserved verbatim, so
 * the file accumulates one batch per measurement point.
 *
 * Protocol (EXPERIMENTS.md "Recording a perf baseline"): Release
 * build, idle machine, best-of-5.
 *
 * Usage:
 *   bench_hotpath --label=pr6-post --out=BENCH_hotpath.json
 *   bench_hotpath --quick --label=smoke --out=/tmp/smoke.json
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hh"
#include "sim/hotpath_bench.hh"
#include "sim/options.hh"
#include "sim/report.hh"
#include "sim/sink.hh"

using namespace pinte;

namespace
{

int
hotpathMain(int argc, char **argv)
{
    HotpathOptions opt;
    std::string out_path = "BENCH_hotpath.json";

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--label=", 0) == 0) {
            opt.label = a.substr(8);
        } else if (a.rfind("--reps=", 0) == 0) {
            opt.reps = static_cast<unsigned>(
                parseCount("--reps", a.substr(7)));
        } else if (a.rfind("--instr=", 0) == 0) {
            opt.instructions = parseCount("--instr", a.substr(8));
        } else if (a.rfind("--scratch=", 0) == 0) {
            opt.scratchDir = a.substr(10);
        } else if (a == "--quick") {
            opt.quick = true;
        } else if (a.rfind("--out=", 0) == 0) {
            out_path = a.substr(6);
        } else if (a == "--help" || a == "-h") {
            std::printf(
                "usage: bench_hotpath [--label=L] [--reps=N] "
                "[--instr=N] [--quick]\n"
                "                     [--scratch=DIR] [--out=FILE]\n"
                "  merges a best-of-N kernel batch into FILE "
                "(default BENCH_hotpath.json),\n"
                "  replacing rows with the same label\n");
            return 0;
        } else {
            throw ConfigError("unknown option: " + a +
                                  " (see --help)",
                              {"bench_hotpath", "", a});
        }
    }
    if (opt.label.empty())
        throw ConfigError("--label must not be empty",
                          {"bench_hotpath", "", ""});

    std::fprintf(stderr,
                 "bench_hotpath: measuring label '%s' (%u reps%s)\n",
                 opt.label.c_str(), opt.reps,
                 opt.quick ? ", quick" : "");
    const std::size_t rows =
        recordHotpathBaseline(out_path, opt, "bench_hotpath");
    std::fprintf(stderr, "bench_hotpath: wrote %zu entries to %s\n",
                 rows, out_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return hotpathMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
