/**
 * @file
 * Golden tests of the paper figure reporters: every
 * configs/paper/<figure>.json, run through the run_experiment command
 * line on a small --workloads slice, must print exactly the text in
 * tests/golden/. The goldens were printed by the standalone figure
 * binaries these configs and reporters replaced (same slice), so a
 * reporter that drifts from the paper tables fails here.
 */

#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "core/paper_figures.hh"

namespace {

using namespace cassandra;

struct GoldenCase
{
    const char *config;    ///< configs/paper/<config>.json
    const char *workloads; ///< the --workloads slice
    const char *golden;    ///< tests/golden/<golden>.txt
};

const GoldenCase goldenCases[] = {
    {"fig7", "ChaCha20_ct,SHAKE,kyber512", "fig7"},
    {"fig8", "synthetic/chacha20/25,synthetic/curve25519/25", "fig8"},
    {"fig9", "ChaCha20_ct,SHAKE", "fig9"},
    {"table1", "ChaCha20_ct,SHA-256,kyber512", "table1"},
    {"ablation_btu", "SHA-256", "ablation_btu"},
    {"q3", "server/tls/16", "q3"},
    {"q3", "SHAKE", "q3_kernels"},
    {"q4", "ChaCha20_ct,SHA-256", "q4"},
};

std::string
readFile(const std::string &path)
{
    std::ifstream file(path);
    EXPECT_TRUE(file) << "cannot open " << path;
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
}

/** The report `run_experiment CONFIG --workloads=W` prints. */
std::string
figureReport(const std::string &config, const std::string &workloads)
{
    const std::string slice = "--workloads=" + workloads;
    std::vector<const char *> argv = {"run_experiment", config.c_str(),
                                      slice.c_str(), "--threads=2"};
    const core::ExperimentSpec spec = bench::parseCli(
        static_cast<int>(argv.size()), const_cast<char **>(argv.data()));
    std::ostringstream os;
    core::makeReporter(spec.format)->write(bench::runExperiment(spec), os);
    return os.str();
}

TEST(PaperFiguresTest, ReportsMatchTheGoldens)
{
    for (const GoldenCase &c : goldenCases) {
        SCOPED_TRACE(c.golden);
        const std::string config = std::string(CASSANDRA_CONFIG_DIR) +
            "/paper/" + c.config + ".json";
        EXPECT_EQ(figureReport(config, c.workloads),
                  readFile(std::string(CASSANDRA_GOLDEN_DIR) + "/" +
                           c.golden + ".txt"));
    }
}

TEST(PaperFiguresTest, EveryPaperConfigHasAGolden)
{
    std::set<std::string> covered;
    for (const GoldenCase &c : goldenCases)
        covered.insert(std::string(c.config) + ".json");
    std::set<std::string> configs;
    const std::string dir = std::string(CASSANDRA_CONFIG_DIR) + "/paper";
    DIR *d = opendir(dir.c_str());
    ASSERT_NE(d, nullptr) << dir;
    while (const dirent *e = readdir(d)) {
        const std::string name = e->d_name;
        if (name.size() > 5 && name.substr(name.size() - 5) == ".json")
            configs.insert(name);
    }
    closedir(d);
    EXPECT_EQ(configs, covered);
    EXPECT_EQ(configs.size(), 7u);
}

TEST(PaperFiguresTest, FiguresSkipWorkloadsMissingTheirCells)
{
    // A sweep that lacks a figure's schemes or configs renders skip
    // rows instead of dereferencing a missing cell.
    core::ExperimentSpec spec;
    spec.threads = 2;
    spec.matrix.workloads = {"ChaCha20_ct"};
    spec.matrix.schemes = {uarch::Scheme::Spt};
    const core::Experiment exp = bench::runExperiment(spec);
    for (const char *figure :
         {"fig7", "fig8", "fig9", "ablation_btu", "q3", "q4"}) {
        std::ostringstream os;
        core::makeReporter(figure)->write(exp, os);
        EXPECT_NE(os.str().find("(skipped: "), std::string::npos)
            << figure << ":\n"
            << os.str();
    }
}

} // namespace
