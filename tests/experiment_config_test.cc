/**
 * @file
 * Tests for the JSON experiment-config front end: schema mapping into
 * ExperimentMatrix/SimConfig, scheme-name aliases, report/threads/
 * artifacts settings, and loud failures on malformed input — zero
 * geometry fields included, which the shard-manifest reader rejects
 * the same way.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "core/cell_executor.hh"
#include "core/experiment_config.hh"
#include "core/trace_stream.hh"

namespace {

using namespace cassandra;
using core::ExperimentSpec;
using core::parseExperimentSpec;
using uarch::Scheme;

TEST(ExperimentConfigTest, FullSchemaParses)
{
    const char *json = R"({
      "name": "fig7-smoke",
      "workloads": ["ChaCha20_ct", "kyber768"],
      "suites": ["BearSSL"],
      "schemes": ["UnsafeBaseline", "Cassandra", "cassandra+stl",
                  "SPT"],
      "configs": [
        {"name": "default"},
        {"name": "ways=4",
         "btu": {"sets": 1, "ways": 4, "fill_latency": 40},
         "core": {"rob_size": 256, "fetch_width": 4,
                  "btu_flush_period": 1000000,
                  "l1d": {"size_kb": 32, "ways": 8, "latency": 4}}}
      ],
      "threads": 6,
      "report": {"format": "json", "out": "sweep.json"},
      "artifacts": {"dir": "aw-cache", "save": true}
    })";

    ExperimentSpec spec = parseExperimentSpec(json);
    EXPECT_EQ(spec.name, "fig7-smoke");
    ASSERT_EQ(spec.matrix.workloads.size(), 2u);
    EXPECT_EQ(spec.matrix.workloads[0], "ChaCha20_ct");
    ASSERT_EQ(spec.suites.size(), 1u);
    EXPECT_EQ(spec.suites[0], "BearSSL");
    ASSERT_EQ(spec.matrix.schemes.size(), 4u);
    EXPECT_EQ(spec.matrix.schemes[0], Scheme::UnsafeBaseline);
    EXPECT_EQ(spec.matrix.schemes[2], Scheme::CassandraStl);
    EXPECT_EQ(spec.matrix.schemes[3], Scheme::Spt);

    ASSERT_EQ(spec.matrix.configs.size(), 2u);
    EXPECT_EQ(spec.matrix.configs[0].name, "default");
    const core::SimConfig &sweep = spec.matrix.configs[1];
    EXPECT_EQ(sweep.name, "ways=4");
    EXPECT_EQ(sweep.btu.sets, 1u);
    EXPECT_EQ(sweep.btu.ways, 4u);
    EXPECT_EQ(sweep.btu.fillLatency, 40u);
    EXPECT_EQ(sweep.core.robSize, 256u);
    EXPECT_EQ(sweep.core.fetchWidth, 4u);
    EXPECT_EQ(sweep.core.btuFlushPeriod, 1000000u);
    EXPECT_EQ(sweep.core.l1d.sizeBytes, 32u * 1024);
    EXPECT_EQ(sweep.core.l1d.ways, 8u);
    EXPECT_EQ(sweep.core.l1d.latency, 4u);
    // Untouched knobs keep their defaults.
    EXPECT_EQ(sweep.core.commitWidth, uarch::CoreParams{}.commitWidth);

    EXPECT_EQ(spec.threads, 6u);
    EXPECT_EQ(spec.format, "json");
    EXPECT_EQ(spec.out, "sweep.json");
    EXPECT_EQ(spec.artifactDir, "aw-cache");
    EXPECT_TRUE(spec.artifactSave);
}

TEST(ExperimentConfigTest, MinimalSchemaParses)
{
    ExperimentSpec spec = parseExperimentSpec(
        R"({"workloads": ["SHAKE"], "schemes": ["Cassandra"]})");
    EXPECT_EQ(spec.matrix.workloads.size(), 1u);
    EXPECT_EQ(spec.matrix.schemes.size(), 1u);
    EXPECT_TRUE(spec.matrix.configs.empty());
    EXPECT_EQ(spec.threads, 0u);
    EXPECT_TRUE(spec.format.empty());
}

TEST(ExperimentConfigTest, SchemeDisplayNamesParse)
{
    ExperimentSpec spec = parseExperimentSpec(
        R"({"workloads": ["SHAKE"],
            "schemes": ["Cassandra-lite", "ProSpeCT",
                        "Cassandra+ProSpeCT", "baseline"]})");
    ASSERT_EQ(spec.matrix.schemes.size(), 4u);
    EXPECT_EQ(spec.matrix.schemes[0], Scheme::CassandraLite);
    EXPECT_EQ(spec.matrix.schemes[1], Scheme::Prospect);
    EXPECT_EQ(spec.matrix.schemes[2], Scheme::CassandraProspect);
    EXPECT_EQ(spec.matrix.schemes[3], Scheme::UnsafeBaseline);
}

TEST(ExperimentConfigTest, RejectsMalformedInput)
{
    // Not JSON at all.
    EXPECT_THROW(parseExperimentSpec("not json"),
                 std::invalid_argument);
    // Trailing garbage.
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads":["A"],"schemes":["SPT"]} x)"),
                 std::invalid_argument);
    // Unknown top-level key.
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "wrkloads": []})"),
                 std::invalid_argument);
    // Unknown scheme.
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["Meltdown"]})"),
                 std::invalid_argument);
    // Unknown config key.
    EXPECT_THROW(
        parseExperimentSpec(
            R"({"workloads": ["A"], "schemes": ["SPT"],
                "configs": [{"nmae": "x"}]})"),
        std::invalid_argument);
    // Unknown core key.
    EXPECT_THROW(
        parseExperimentSpec(
            R"({"workloads": ["A"], "schemes": ["SPT"],
                "configs": [{"core": {"rob": 1}}]})"),
        std::invalid_argument);
    // No workloads or suites.
    EXPECT_THROW(parseExperimentSpec(R"({"schemes": ["SPT"]})"),
                 std::invalid_argument);
    // No schemes.
    EXPECT_THROW(parseExperimentSpec(R"({"workloads": ["A"]})"),
                 std::invalid_argument);
    // Bad report format.
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "report": {"format": "yaml"}})"),
                 std::invalid_argument);
    // Negative / non-integer numbers.
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "threads": -2})"),
                 std::invalid_argument);
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "threads": 1.5})"),
                 std::invalid_argument);
    // The retired shared-box execution mode and its keys.
    for (const char *execution :
         {R"({"mode": "remote"})", R"({"dropbox": "box"})",
          R"({"agents": 2})", R"({"task_timeout_ms": 200})"}) {
        EXPECT_THROW(parseExperimentSpec(
                         std::string(R"({"workloads": ["A"],
                                         "schemes": ["SPT"],
                                         "execution": )") +
                         execution + "}"),
                     std::invalid_argument)
            << execution;
    }
}

/** The schema error parseExperimentSpec raises for `json`, or "". */
std::string
schemaError(const std::string &json)
{
    try {
        parseExperimentSpec(json);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(ExperimentConfigTest, TraceModeIsSweepLevelOnly)
{
    // One run-level setting, whole-trace by default; a stream sweep
    // keeps the runner's implicit default config.
    EXPECT_EQ(parseExperimentSpec(
                  R"({"workloads": ["A"], "schemes": ["SPT"]})")
                  .traceMode,
              core::TraceMode::Whole);
    ExperimentSpec spec = parseExperimentSpec(
        R"({"workloads": ["A"], "schemes": ["SPT"],
            "trace_mode": "stream"})");
    EXPECT_EQ(spec.traceMode, core::TraceMode::Stream);
    EXPECT_TRUE(spec.matrix.configs.empty());

    // The retired per-config key is a schema error naming it.
    const std::string per_config = schemaError(
        R"({"workloads": ["A"], "schemes": ["SPT"],
            "configs": [{"name": "x", "trace_mode": "stream"}]})");
    EXPECT_NE(per_config.find("configs[0].trace_mode: unknown config key"),
              std::string::npos)
        << per_config;
    EXPECT_NE(schemaError(R"({"workloads": ["A"], "schemes": ["SPT"],
                              "trace_mode": "chunked"})"),
              "");
}

TEST(ExperimentConfigTest, ReportFormatsComeFromMakeReporter)
{
    // Every reporter name is a valid report.format, the paper figures
    // included, and nothing else is.
    for (const char *format : {"table", "json", "csv", "fig7", "fig8",
                               "fig9", "table1", "ablation_btu", "q3",
                               "q4"}) {
        EXPECT_NE(core::makeReporter(format), nullptr) << format;
        EXPECT_EQ(parseExperimentSpec(
                      std::string(R"({"workloads": ["A"],
                                      "schemes": ["SPT"],
                                      "report": {"format": ")") +
                      format + "\"}}")
                      .format,
                  format);
    }
    const std::string error = schemaError(
        R"({"workloads": ["A"], "schemes": ["SPT"],
            "report": {"format": "yaml"}})");
    EXPECT_NE(error.find("report.format: unknown report format \"yaml\" "
                         "(expected one of table, json, csv, fig7"),
              std::string::npos)
        << error;
}

TEST(ExperimentConfigTest, EmptySchemesIsAnAnalysisOnlySweep)
{
    ExperimentSpec spec = parseExperimentSpec(
        R"({"suites": ["PQC"], "schemes": []})");
    EXPECT_TRUE(spec.matrix.schemes.empty());
    EXPECT_EQ(spec.matrix.cellCount(), 0u);
    // Leaving the key out is still an error.
    EXPECT_NE(schemaError(R"({"suites": ["PQC"]})")
                  .find("schemes: config lists no schemes"),
              std::string::npos);
}

TEST(ExperimentConfigTest, TraceCompressionKeyIsRejected)
{
    // Stream files have one encoding; the retired knob is an unknown
    // key at both levels, whatever its value.
    for (const char *value : {"\"delta\"", "\"none\""}) {
        const std::string sweep = schemaError(
            std::string(R"({"workloads": ["A"], "schemes": ["SPT"],
                            "trace_compression": )") +
            value + "}");
        EXPECT_NE(sweep.find("trace_compression: unknown top-level key"),
                  std::string::npos)
            << sweep;
        const std::string per_config = schemaError(
            std::string(R"({"workloads": ["A"], "schemes": ["SPT"],
                            "configs": [{"trace_compression": )") +
            value + "}]}");
        EXPECT_NE(per_config.find("configs[0].trace_compression: "
                                  "unknown config key"),
                  std::string::npos)
            << per_config;
    }
}

TEST(ExperimentConfigDeathTest, RetiredFlagsAreUnknown)
{
    // Retired knobs (trace compression, cell dedup) and the retired
    // shared-box execution mode, its flags and the spool service.
    const std::vector<std::vector<const char *>> cases = {
        {"--trace-compression=delta"},
        {"--execution", "remote"},
        {"--dropbox=box"},
        {"--agents=2"},
        {"--task-timeout-ms=200"},
        {"--serve"},
        {"--submit"},
        {"--dedup=on"},
    };
    for (const auto &flags : cases) {
        std::vector<const char *> argv = {"bench"};
        argv.insert(argv.end(), flags.begin(), flags.end());
        EXPECT_EXIT(bench::parseCli(static_cast<int>(argv.size()),
                                    const_cast<char **>(argv.data())),
                    ::testing::ExitedWithCode(2),
                    std::string("unknown option(: | value: )") +
                        flags[0])
            << flags[0];
    }
}

/**
 * Every geometry field the timing model divides by, sizes a ring
 * with or paces a per-cycle loop with: at 0 each one used to crash
 * (SIGFPE/SIGSEGV) or hang the simulator.
 */
struct ZeroGeometryRow
{
    const char *configJson; ///< one configs[] entry setting the field
    const char *key;        ///< invalidGeometryKey's spelling
    std::function<void(core::SimConfig &)> zero;
};

const ZeroGeometryRow zeroGeometryRows[] = {
    {R"({"btu": {"sets": 0}})", "btu.sets",
     [](core::SimConfig &c) { c.btu.sets = 0; }},
    {R"({"btu": {"ways": 0}})", "btu.ways",
     [](core::SimConfig &c) { c.btu.ways = 0; }},
    {R"({"core": {"l1d": {"ways": 0}}})", "core.l1d.ways",
     [](core::SimConfig &c) { c.core.l1d.ways = 0; }},
    {R"({"core": {"l2": {"ways": 0}}})", "core.l2.ways",
     [](core::SimConfig &c) { c.core.l2.ways = 0; }},
    {R"({"core": {"l1d": {"line_bytes": 0}}})", "core.l1d.line_bytes",
     [](core::SimConfig &c) { c.core.l1d.lineBytes = 0; }},
    {R"({"core": {"rob_size": 0}})", "core.rob_size",
     [](core::SimConfig &c) { c.core.robSize = 0; }},
    {R"({"core": {"iq_size": 0}})", "core.iq_size",
     [](core::SimConfig &c) { c.core.iqSize = 0; }},
    {R"({"core": {"lq_size": 0}})", "core.lq_size",
     [](core::SimConfig &c) { c.core.lqSize = 0; }},
    {R"({"core": {"sq_size": 0}})", "core.sq_size",
     [](core::SimConfig &c) { c.core.sqSize = 0; }},
    {R"({"core": {"issue_width": 0}})", "core.issue_width",
     [](core::SimConfig &c) { c.core.issueWidth = 0; }},
    {R"({"core": {"commit_width": 0}})", "core.commit_width",
     [](core::SimConfig &c) { c.core.commitWidth = 0; }},
    {R"({"core": {"num_alu": 0}})", "core.num_alu",
     [](core::SimConfig &c) { c.core.numAlu = 0; }},
    {R"({"core": {"num_lsu": 0}})", "core.num_lsu",
     [](core::SimConfig &c) { c.core.numLsu = 0; }},
    {R"({"core": {"num_mul": 0}})", "core.num_mul",
     [](core::SimConfig &c) { c.core.numMul = 0; }},
};

TEST(ExperimentConfigTest, ZeroGeometryIsRejectedByConfigAndManifest)
{
    for (const ZeroGeometryRow &row : zeroGeometryRows) {
        SCOPED_TRACE(row.key);
        // Config file: a schema error naming the key.
        const std::string error = schemaError(
            std::string(R"({"workloads": ["RSA_i62"],
                            "schemes": ["Cassandra"], "configs": [)") +
            row.configJson + "]}");
        EXPECT_NE(error.find(std::string("configs[0].") + row.key +
                             ": must be at least 1"),
                  std::string::npos)
            << error;
        // ... and 1 is accepted.
        std::string one = row.configJson;
        one.replace(one.find(": 0"), 3, ": 1");
        EXPECT_EQ(schemaError(std::string(R"({"workloads": ["RSA_i62"],
                                             "schemes": ["Cassandra"],
                                             "configs": [)") +
                              one + "]}"),
                  "");

        // Shard manifest: the typed format error, before any cell can
        // reach the timing model.
        core::SimConfig cfg;
        row.zero(cfg);
        EXPECT_EQ(core::invalidGeometryKey(cfg), row.key);
        core::ShardManifest manifest;
        manifest.indices = {0};
        manifest.cells = {core::PlannedCell{"RSA_i62",
                                            Scheme::Cassandra, cfg}};
        const auto bytes = core::packShardManifest(manifest);
        try {
            core::unpackShardManifest(bytes);
            ADD_FAILURE() << "manifest accepted";
        } catch (const core::ArtifactFormatError &e) {
            EXPECT_NE(std::string(e.what()).find(row.key),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(core::invalidGeometryKey(core::SimConfig{}), "");
}

TEST(ExperimentConfigTest, CacheSettingsParse)
{
    // Defaults: cache off, nothing spelled.
    ExperimentSpec plain = parseExperimentSpec(
        R"({"workloads": ["A"], "schemes": ["SPT"]})");
    EXPECT_EQ(plain.cacheMode, core::CacheMode::Off);
    EXPECT_TRUE(plain.cacheDir.empty());
    EXPECT_TRUE(plain.statsOut.empty());

    ExperimentSpec spec = parseExperimentSpec(R"({
      "workloads": ["A"],
      "schemes": ["SPT"],
      "execution": {"mode": "subprocess", "shards": 4},
      "cache": {"mode": "on", "dir": "my-cache"},
      "report": {"format": "json", "stats_out": "stats.json"}
    })");
    EXPECT_EQ(spec.cacheMode, core::CacheMode::On);
    EXPECT_EQ(spec.cacheDir, "my-cache");
    EXPECT_EQ(spec.statsOut, "stats.json");

    // Readonly accepts both spellings.
    EXPECT_EQ(parseExperimentSpec(
                  R"({"workloads": ["A"], "schemes": ["SPT"],
                      "cache": {"mode": "readonly"}})")
                  .cacheMode,
              core::CacheMode::Readonly);
    EXPECT_EQ(parseExperimentSpec(
                  R"({"workloads": ["A"], "schemes": ["SPT"],
                      "cache": {"mode": "read-only"}})")
                  .cacheMode,
              core::CacheMode::Readonly);

    // Unknown modes and keys fail loudly — the retired scheduler key
    // included (LPT is the only shard scheduler).
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "cache": {"mode": "maybe"}})"),
                 std::invalid_argument);
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "cache": {"directory": "x"}})"),
                 std::invalid_argument);
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "execution": {"scheduler": "lpt"}})"),
                 std::invalid_argument);
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "cache": {"mode": 1}})"),
                 std::invalid_argument);
}

TEST(ExperimentConfigTest, LoadFromFile)
{
    const std::string path =
        testing::TempDir() + "/experiment_config_test.json";
    {
        std::ofstream file(path);
        file << R"({"workloads": ["ChaCha20_ct"],
                    "schemes": ["Cassandra"], "threads": 2})";
    }
    ExperimentSpec spec = core::loadExperimentSpec(path);
    EXPECT_EQ(spec.matrix.workloads.size(), 1u);
    EXPECT_EQ(spec.threads, 2u);

    EXPECT_THROW(core::loadExperimentSpec(path + ".missing"),
                 std::runtime_error);
}

/** bench::parseCli over a literal argument list. */
ExperimentSpec
parseArgs(std::vector<const char *> argv)
{
    return bench::parseCli(static_cast<int>(argv.size()),
                           const_cast<char **>(argv.data()));
}

TEST(ExperimentConfigTest, CliFlagsWriteIntoTheLoadedConfig)
{
    const std::string path = testing::TempDir() + "/cli_config.json";
    {
        std::ofstream file(path);
        file << R"({"suites": ["PQC"], "schemes": ["Cassandra"],
                    "threads": 2, "trace_mode": "stream",
                    "report": {"format": "fig7", "out": "a.txt"},
                    "execution": {"mode": "subprocess", "shards": 3},
                    "cache": {"mode": "readonly", "dir": "c",
                              "gc_mb": 5}})";
    }
    // Without flags the config stands; its suites become names.
    ExperimentSpec spec = parseArgs({"run_experiment", path.c_str()});
    EXPECT_EQ(spec.matrix.workloads,
              crypto::WorkloadRegistry::global().names("PQC"));
    EXPECT_TRUE(spec.suites.empty());
    EXPECT_EQ(spec.threads, 2u);
    EXPECT_EQ(spec.traceMode, core::TraceMode::Stream);
    EXPECT_EQ(spec.format, "fig7");
    EXPECT_EQ(spec.out, "a.txt");
    EXPECT_EQ(spec.executionMode, core::ExecutionMode::Subprocess);
    EXPECT_EQ(spec.shards, 3u);
    EXPECT_EQ(spec.cacheMode, core::CacheMode::Readonly);
    EXPECT_EQ(spec.cacheDir, "c");
    EXPECT_EQ(spec.cacheGcMb, 5u);

    // Every flag overrides its key, as --flag=VALUE or --flag VALUE.
    spec = parseArgs({"run_experiment", "--format", "json",
                      "--out=b.json", "--threads=4", "--trace-mode",
                      "whole", "--execution=inprocess", "--shards", "2",
                      "--cache", "on", "--cache-dir", "d",
                      "--cache-gc-mb=7", "--stats-out", "s.json",
                      "--workloads", "kyber512,SHAKE", "--config",
                      path.c_str()});
    EXPECT_EQ(spec.matrix.workloads,
              (std::vector<std::string>{"kyber512", "SHAKE"}));
    EXPECT_EQ(spec.format, "json");
    EXPECT_EQ(spec.out, "b.json");
    EXPECT_EQ(spec.threads, 4u);
    EXPECT_EQ(spec.traceMode, core::TraceMode::Whole);
    EXPECT_EQ(spec.executionMode, core::ExecutionMode::InProcess);
    EXPECT_EQ(spec.shards, 2u);
    EXPECT_EQ(spec.cacheMode, core::CacheMode::On);
    EXPECT_EQ(spec.cacheDir, "d");
    EXPECT_EQ(spec.cacheGcMb, 7u);
    EXPECT_EQ(spec.statsOut, "s.json");

    // --suite filters the config's list.
    spec = parseArgs({"run_experiment", path.c_str(), "--suite=PQC",
                      "--format=q4"});
    EXPECT_EQ(spec.matrix.workloads.size(),
              crypto::WorkloadRegistry::global().names("PQC").size());
    EXPECT_EQ(spec.format, "q4");
}

TEST(ExperimentConfigDeathTest, BadCliValuesExit2)
{
    const std::string path = testing::TempDir() + "/cli_bad_config.json";
    {
        std::ofstream file(path);
        file << R"({"workloads": ["SHAKE"], "schemes": ["Cassandra"]})";
    }
    const std::vector<std::pair<const char *, const char *>> cases = {
        {"--format=yaml", "unknown report format"},
        {"--threads=x", "invalid --threads=x"},
        {"--shards=0", "invalid --shards=0"},
        {"--cache=maybe", "unknown cache mode"},
        {"--workloads=nope", "unknown workload: nope"},
        {"--suite=PQC", "no workloads selected"},
        {"--out", "missing option value: --out"},
    };
    for (const auto &[flag, message] : cases)
        EXPECT_EXIT(parseArgs({"run_experiment", path.c_str(), flag}),
                    ::testing::ExitedWithCode(2), message)
            << flag;
    EXPECT_EXIT(parseArgs({"run_experiment", "--threads=2"}),
                ::testing::ExitedWithCode(2), "usage: ");
}

} // namespace
