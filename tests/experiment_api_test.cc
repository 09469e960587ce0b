/**
 * @file
 * Tests for the unified experiment API: SimConfig plumbing through
 * Simulation -> OooCore -> Btu (BTU geometry really reaches the
 * unit, zero geometry is rejected), ExperimentRunner determinism
 * across thread counts and its failure path, parity with fresh
 * single-workload analyses, cell dedup across batched matrices, and
 * the structured reporters.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/experiment.hh"
#include "core/sim_config.hh"
#include "crypto/workload_registry.hh"

namespace {

using namespace cassandra;
using core::ExperimentMatrix;
using core::ExperimentRunner;
using core::RunnerOptions;
using core::SimConfig;
using uarch::Scheme;

core::Workload
workload(const char *name)
{
    return crypto::WorkloadRegistry::global().make(name);
}

TEST(SimConfigTest, FluentDerivationsOnlyTouchTheirKnob)
{
    SimConfig base;
    SimConfig derived = base.withBtuGeometry(2, 4)
                            .withBtuFillLatency(40)
                            .withScheme(Scheme::Cassandra)
                            .named("sweep");
    EXPECT_EQ(derived.btu.sets, 2u);
    EXPECT_EQ(derived.btu.ways, 4u);
    EXPECT_EQ(derived.btu.fillLatency, 40u);
    EXPECT_EQ(derived.scheme, Scheme::Cassandra);
    EXPECT_EQ(derived.name, "sweep");
    EXPECT_EQ(derived.core.robSize, base.core.robSize);
    // The base is untouched.
    EXPECT_EQ(base.btu.ways, 16u);
    EXPECT_EQ(base.scheme, Scheme::UnsafeBaseline);
    EXPECT_EQ(base.name, "default");
}

TEST(SimConfigTest, BtuGeometryReachesTheUnit)
{
    // A branch-rich workload whose crypto working set exceeds one BTU
    // entry: shrinking to a single entry must force evictions and
    // change the cycle count.
    core::Simulation sys(
        core::AnalyzedWorkload::analyze(workload("SHA-256")));
    SimConfig cass;
    cass.scheme = Scheme::Cassandra;

    auto full = sys.run(cass);
    auto tiny = sys.run(cass.withBtuGeometry(1, 1));

    EXPECT_EQ(full.btu.evictions, 0u);
    EXPECT_GT(tiny.btu.evictions, 0u);
    EXPECT_NE(full.stats.cycles, tiny.stats.cycles);
    EXPECT_LT(full.stats.cycles, tiny.stats.cycles);
    // Replay stays exact regardless of geometry.
    EXPECT_EQ(full.stats.btuMismatches, 0u);
    EXPECT_EQ(tiny.stats.btuMismatches, 0u);
}

TEST(SimConfigTest, FillLatencyReachesTheMissPath)
{
    core::Simulation sys(
        core::AnalyzedWorkload::analyze(workload("SHA-256")));
    SimConfig tiny;
    tiny.scheme = Scheme::Cassandra;
    tiny = tiny.withBtuGeometry(1, 1); // evictions -> refills

    auto fast = sys.run(tiny.withBtuFillLatency(1));
    auto slow = sys.run(tiny.withBtuFillLatency(400));
    EXPECT_LT(fast.stats.cycles, slow.stats.cycles);
}

TEST(SimConfigTest, CoreParamsStillApply)
{
    core::Simulation sys(
        core::AnalyzedWorkload::analyze(workload("ChaCha20_ct")));
    SimConfig wide;
    wide.scheme = Scheme::Cassandra;
    SimConfig narrow = wide;
    narrow.core.fetchWidth = 1;
    narrow.core.issueWidth = 1;
    narrow.core.commitWidth = 1;
    EXPECT_GT(sys.run(narrow).stats.cycles, sys.run(wide).stats.cycles);
}

TEST(SimConfigTest, ZeroGeometryIsRejectedByName)
{
    // A hand-built config never passes the config parser's check, so
    // Simulation::run makes it: no division by zero, no endless loop.
    core::Simulation sys(
        core::AnalyzedWorkload::analyze(workload("ChaCha20_ct")));
    const SimConfig cass = SimConfig{}.withScheme(Scheme::Cassandra);
    SimConfig no_width = cass;
    no_width.core.fetchWidth = 0;
    const std::pair<SimConfig, std::string> cases[] = {
        {cass.withBtuGeometry(0, 16), "btu.sets"},
        {cass.withBtuGeometry(1, 0), "btu.ways"},
        {no_width, "core.fetch_width"},
    };
    for (const auto &[cfg, key] : cases) {
        try {
            sys.run(cfg);
            ADD_FAILURE() << key << " = 0 ran";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
}

TEST(SimConfigTest, SchemeOverloadMatchesSimConfig)
{
    core::Simulation sys(
        core::AnalyzedWorkload::analyze(workload("ChaCha20_ct")));
    for (Scheme s : {Scheme::UnsafeBaseline, Scheme::Cassandra,
                     Scheme::CassandraLite, Scheme::Spt}) {
        SimConfig cfg;
        cfg.scheme = s;
        EXPECT_EQ(sys.run(s).stats.cycles, sys.run(cfg).stats.cycles)
            << uarch::schemeName(s);
    }
}

ExperimentMatrix
smallMatrix()
{
    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct", "SHAKE", "synthetic/chacha20/0"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};
    return m;
}

TEST(ExperimentRunnerTest, DeterministicAcrossThreadCounts)
{
    // A heavy and a light workload: the light one's cells start while
    // the heavy one's analysis passes still run, so the task graph
    // schedules differently at every thread count. The report must
    // not change, byte for byte.
    ExperimentMatrix m;
    m.workloads = {"DES_ct", "ChaCha20_ct"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra,
                 Scheme::Prospect};
    SimConfig base;
    m.configs = {base, base.withBtuGeometry(1, 2).named("ways=2")};
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    std::string reference;
    for (unsigned threads : {1u, 2u, 4u}) {
        auto exp = ExperimentRunner(resolver, RunnerOptions{threads}).run(m);
        ASSERT_EQ(exp.cells.size(), 12u);
        std::ostringstream json;
        core::makeReporter("json")->write(exp, json);
        if (threads == 1)
            reference = json.str();
        else
            EXPECT_EQ(json.str(), reference) << threads << " threads";
    }
}

TEST(ExperimentRunnerTest, AnalysisFailureJoinsEveryWorker)
{
    // DES_ct capped at 10'000 instructions fails both its recording
    // and its Algorithm 2 pass while the other workloads' tasks and
    // cells are in flight. run() must rethrow the typed error with
    // every worker joined; a worker left waiting would hang here (the
    // ctest TIMEOUT catches that).
    auto registry = crypto::WorkloadRegistry::global().resolver();
    auto resolver = [registry](const std::string &name) {
        core::Workload w = registry(name);
        if (name == "DES_ct")
            w.maxDynInsts = 10'000;
        return w;
    };
    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct", "DES_ct", "SHAKE"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};
    for (unsigned threads : {1u, 2u, 4u}) {
        ExperimentRunner runner(resolver, RunnerOptions{threads});
        EXPECT_THROW(runner.run(m), core::InstructionBudgetError)
            << threads << " threads";
    }
}

TEST(ExperimentRunnerTest, ParityWithFreshAnalyses)
{
    auto exp = ExperimentRunner(
                   crypto::WorkloadRegistry::global().resolver(),
                   RunnerOptions{3})
                   .run(smallMatrix());
    for (const auto &cell : exp.cells) {
        core::Simulation sys(core::AnalyzedWorkload::analyze(
            workload(cell.workload.c_str())));
        auto fresh = sys.run(cell.scheme);
        EXPECT_EQ(cell.result.stats.cycles, fresh.stats.cycles)
            << cell.workload << " / "
            << uarch::schemeName(cell.scheme);
        EXPECT_EQ(cell.result.stats.instructions,
                  fresh.stats.instructions);
    }
}

TEST(ExperimentRunnerTest, MatrixOrderAndFind)
{
    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct"};
    m.schemes = {Scheme::Cassandra};
    SimConfig base;
    m.configs = {base, base.withBtuGeometry(1, 1).named("ways=1")};
    auto exp = ExperimentRunner(
                   crypto::WorkloadRegistry::global().resolver())
                   .run(m);
    ASSERT_EQ(exp.cells.size(), 2u);
    EXPECT_EQ(exp.cells[0].config, "default");
    EXPECT_EQ(exp.cells[1].config, "ways=1");
    EXPECT_EQ(exp.find("ChaCha20_ct", Scheme::Cassandra, "ways=1"),
              &exp.cells[1]);
    EXPECT_EQ(exp.find("ChaCha20_ct", Scheme::Cassandra),
              &exp.cells[0]);
    EXPECT_EQ(exp.find("ChaCha20_ct", Scheme::Spt), nullptr);
    EXPECT_EQ(exp.find("DES_ct", Scheme::Cassandra), nullptr);
}

TEST(ExperimentRunnerTest, OverlappingMatricesMatchSeparateRunsWithDedup)
{
    // Two sweeps sharing the SHAKE x {baseline, Cassandra} cells.
    ExperimentMatrix a;
    a.workloads = {"ChaCha20_ct", "SHAKE"};
    a.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};
    ExperimentMatrix b;
    b.workloads = {"SHAKE"};
    b.schemes = a.schemes;

    const auto resolver = crypto::WorkloadRegistry::global().resolver();
    const core::Experiment batch = ExperimentRunner(resolver).run({a, b});
    ASSERT_EQ(batch.cells.size(), a.cellCount() + b.cellCount());
    // b's two cells repeat a's SHAKE cells: each simulates once.
    EXPECT_EQ(batch.telemetry.dedupedCells, 2u);
    EXPECT_EQ(batch.telemetry.simulatedCells, 4u);

    // Each matrix's slice of the batch reports byte-identically to a
    // run of that matrix alone.
    const auto report = [](std::vector<core::CellResult> cells) {
        core::Experiment exp;
        exp.cells = std::move(cells);
        std::ostringstream os;
        core::JsonReporter().write(exp, os);
        return os.str();
    };
    const auto split = batch.cells.begin() + a.cellCount();
    EXPECT_EQ(report({batch.cells.begin(), split}),
              report(ExperimentRunner(resolver).run(a).cells));
    EXPECT_EQ(report({split, batch.cells.end()}),
              report(ExperimentRunner(resolver).run(b).cells));
}

TEST(ExperimentRunnerTest, UnknownWorkloadRethrows)
{
    ExperimentMatrix m;
    m.workloads = {"rot13"};
    m.schemes = {Scheme::UnsafeBaseline};
    ExperimentRunner runner(
        crypto::WorkloadRegistry::global().resolver(), RunnerOptions{2});
    EXPECT_THROW(runner.run(m), std::invalid_argument);
}

TEST(ReporterTest, JsonAndCsvCaptureEveryCell)
{
    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};
    auto exp = ExperimentRunner(
                   crypto::WorkloadRegistry::global().resolver())
                   .run(m);

    std::ostringstream json;
    core::makeReporter("json")->write(exp, json);
    const std::string j = json.str();
    EXPECT_NE(j.find("\"results\""), std::string::npos);
    EXPECT_NE(j.find("\"workload\": \"ChaCha20_ct\""),
              std::string::npos);
    EXPECT_NE(j.find("\"scheme\": \"Cassandra\""), std::string::npos);
    EXPECT_NE(j.find("\"btu\""), std::string::npos);
    EXPECT_NE(j.find("\"caches\""), std::string::npos);
    // Derived metrics: per-cell normalization and the geomean block.
    EXPECT_NE(j.find("\"cycles_vs_baseline\""), std::string::npos);
    EXPECT_NE(j.find("\"geomeans\""), std::string::npos);
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
    EXPECT_EQ(std::count(j.begin(), j.end(), '['),
              std::count(j.begin(), j.end(), ']'));

    std::ostringstream csv;
    core::makeReporter("csv")->write(exp, csv);
    const std::string c = csv.str();
    // Header + one row per cell + one geomean row per scheme.
    EXPECT_EQ(std::count(c.begin(), c.end(), '\n'), 5);
    EXPECT_NE(c.find("workload,suite,scheme,config,cycles"),
              std::string::npos);
    EXPECT_NE(c.find(",cycles_vs_baseline"), std::string::npos);
    EXPECT_NE(c.find("geomean,,UnsafeBaseline,default"),
              std::string::npos);
    EXPECT_NE(c.find("geomean,,Cassandra,default"), std::string::npos);

    std::ostringstream table;
    core::makeReporter("table")->write(exp, table);
    EXPECT_NE(table.str().find("ChaCha20_ct"), std::string::npos);
    EXPECT_NE(table.str().find("vs_base"), std::string::npos);
    EXPECT_NE(table.str().find("geomean"), std::string::npos);

    EXPECT_THROW(core::makeReporter("yaml"), std::invalid_argument);
}

TEST(DerivedMetricsTest, NormalizesToBaselineAndGroupsGeomeans)
{
    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct", "SHAKE"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};
    auto exp = ExperimentRunner(
                   crypto::WorkloadRegistry::global().resolver())
                   .run(m);
    auto derived = core::computeDerived(exp);
    ASSERT_EQ(derived.cyclesVsBaseline.size(), exp.cells.size());

    for (size_t i = 0; i < exp.cells.size(); i++) {
        const auto &cell = exp.cells[i];
        const auto *base =
            exp.find(cell.workload, Scheme::UnsafeBaseline);
        ASSERT_NE(base, nullptr);
        double expected =
            static_cast<double>(cell.result.stats.cycles) /
            base->result.stats.cycles;
        EXPECT_DOUBLE_EQ(derived.cyclesVsBaseline[i], expected)
            << cell.workload;
        if (cell.scheme == Scheme::UnsafeBaseline) {
            EXPECT_DOUBLE_EQ(derived.cyclesVsBaseline[i], 1.0);
        }
    }

    ASSERT_EQ(derived.geomeans.size(), 2u); // one per scheme
    for (const auto &g : derived.geomeans)
        EXPECT_EQ(g.workloads, 2u);
    EXPECT_EQ(derived.geomeans[0].scheme, Scheme::UnsafeBaseline);
    EXPECT_DOUBLE_EQ(derived.geomeans[0].cyclesVsBaseline, 1.0);
    EXPECT_EQ(derived.geomeans[1].scheme, Scheme::Cassandra);
    EXPECT_GT(derived.geomeans[1].cyclesVsBaseline, 0.0);
}

} // namespace
