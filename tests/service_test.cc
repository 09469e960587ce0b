/**
 * @file
 * Tests for the experiment service stack: the content-addressed
 * artifact store (upload-once per fingerprint, corrupt artifacts
 * rejected + re-uploaded, claim-exactly-once task handoff), the
 * remote shard executor against the real `run_experiment --agent`
 * binary (end-to-end manifest execution, byte-identical reports,
 * snapshot reuse across runs, the empty-pool timeout retry), and the
 * spool service (two overlapping jobs batched through one runner —
 * per-job reports byte-identical to direct runs, shared cells
 * simulated once — plus bad-job isolation).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "core/artifact_store.hh"
#include "core/experiment.hh"
#include "core/experiment_config.hh"
#include "core/experiment_service.hh"
#include "core/remote_executor.hh"
#include "core/serialize.hh"
#include "core/trace_stream.hh"
#include "crypto/workload_registry.hh"

namespace {

using namespace cassandra;
using core::ArtifactStore;
using core::ExecutionMode;
using core::ExperimentMatrix;
using core::ExperimentRunner;
using core::ExperimentService;
using core::RemoteShardExecutor;
using core::RunnerOptions;
using uarch::Scheme;

#ifdef CASSANDRA_RUN_EXPERIMENT_BINARY
const char *agentBinary = CASSANDRA_RUN_EXPERIMENT_BINARY;
#else
const char *agentBinary = nullptr;
#endif

std::shared_ptr<core::AnalysisCache>
registryCache()
{
    return std::make_shared<core::AnalysisCache>(
        crypto::WorkloadRegistry::global().resolver());
}

std::string
jsonReport(const core::Experiment &exp)
{
    std::ostringstream os;
    core::JsonReporter().write(exp, os);
    return os.str();
}

/** Fresh, process-unique test directory path (not created). */
std::string
freshDir(const std::string &tag)
{
    static int counter = 0;
    return testing::TempDir() + "/" + tag + "-" +
        core::processUniqueSuffix() + "-" + std::to_string(counter++);
}

std::string
readText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

// ---------------------------------------------------------------------
// Drop-box artifact round trips
// ---------------------------------------------------------------------

TEST(ArtifactStoreTest, UploadsOncePerFingerprint)
{
    ArtifactStore store(freshDir("box-once"));
    const std::string key =
        ArtifactStore::artifactKey(0x1234abcd5678ef00ull,
                                   core::artifactFormatVersion);
    const std::vector<uint8_t> bytes{1, 2, 3, 4, 5, 6, 7, 8};

    EXPECT_FALSE(store.hasValidArtifact(key));
    EXPECT_TRUE(store.publishArtifactOnce(key, bytes));
    EXPECT_TRUE(store.hasValidArtifact(key));
    // Second and third publish of the same content key: presence
    // check saves the transfer.
    EXPECT_FALSE(store.publishArtifactOnce(key, bytes));
    EXPECT_FALSE(store.publishArtifactOnce(key, bytes));
    EXPECT_EQ(store.stats().artifactUploads, 1u);
    EXPECT_EQ(store.stats().artifactReuses, 2u);

    EXPECT_EQ(core::readFileBytes(store.fetchArtifact(key), "artifact"),
              bytes);
}

TEST(ArtifactStoreTest, CorruptArtifactIsRejectedAndReuploaded)
{
    const std::string root = freshDir("box-corrupt");
    ArtifactStore store(root);
    const std::string key =
        ArtifactStore::artifactKey(0xfeedface00112233ull,
                                   core::artifactFormatVersion);
    const std::vector<uint8_t> bytes{9, 8, 7, 6, 5, 4, 3, 2, 1};
    ASSERT_TRUE(store.publishArtifactOnce(key, bytes));

    // Flip bytes behind the store's back (a torn copy / bit rot); the
    // checksum sidecar no longer matches.
    writeText(root + "/" + key, "garbage that is not the artifact");
    EXPECT_FALSE(store.hasValidArtifact(key));
    EXPECT_THROW(store.fetchArtifact(key), core::ArtifactFormatError);
    EXPECT_GE(store.stats().corruptRejected, 1u);

    // The corrupt copy was evicted, so the next publish re-uploads
    // and readers see good bytes again.
    EXPECT_TRUE(store.publishArtifactOnce(key, bytes));
    EXPECT_EQ(core::readFileBytes(store.fetchArtifact(key), "artifact"),
              bytes);
    EXPECT_EQ(store.stats().artifactUploads, 2u);
}

TEST(ArtifactStoreTest, AnySingleBitFlipFailsValidation)
{
    // Larger than one hashing chunk, with a ragged tail, so the flips
    // land in the first block, across the chunk seam and in the
    // zero-padded last block.
    const std::string root = freshDir("box-bitflip");
    ArtifactStore store(root);
    const std::string key =
        ArtifactStore::artifactKey(0x0123456789abcdefull,
                                   core::artifactFormatVersion);
    std::vector<uint8_t> bytes((1u << 20) + 37);
    for (size_t i = 0; i < bytes.size(); i++)
        bytes[i] = static_cast<uint8_t>(i * 131 + 7);
    ASSERT_TRUE(store.publishArtifactOnce(key, bytes));
    EXPECT_EQ(readText(root + "/" + key + ".sum").rfind("CASSUM2 ", 0),
              0u);

    for (size_t offset : {size_t{0}, size_t{(1u << 20) - 1},
                          size_t{1u << 20}, bytes.size() - 1}) {
        std::vector<uint8_t> flipped = bytes;
        flipped[offset] ^= 0x10;
        core::writeFileBytes(root + "/" + key, flipped);
        EXPECT_FALSE(store.hasValidArtifact(key)) << "offset " << offset;
    }
    core::writeFileBytes(root + "/" + key, bytes);
    EXPECT_TRUE(store.hasValidArtifact(key));
}

TEST(ArtifactStoreTest, TasksAreClaimedExactlyOnce)
{
    ArtifactStore store(freshDir("box-claim"));
    const std::vector<uint8_t> manifest{1, 2, 3};
    store.publishTask("run-1-shard-0", manifest);

    const std::string won = store.claimTask("agent-a");
    EXPECT_EQ(won, "run-1-shard-0");
    // The second claimant loses the rename race: nothing left.
    EXPECT_EQ(store.claimTask("agent-b"), "");
    EXPECT_EQ(store.fetchClaimedTask(won, "agent-a"), manifest);

    store.publishResult(won, "agent-a", {4, 5, 6});
    EXPECT_TRUE(
        store.transport().exists(ArtifactStore::resultKey(won)));
    // Publishing the result dropped the claim.
    EXPECT_FALSE(store.transport().exists(
        ArtifactStore::claimedKey(won, "agent-a")));
}

TEST(ArtifactStoreTest, GcReapsUnreferencedArtifacts)
{
    ArtifactStore store(freshDir("box-gc"));
    const std::string key_a =
        ArtifactStore::artifactKey(0x1111ull, core::artifactFormatVersion);
    const std::string key_b =
        ArtifactStore::artifactKey(0x2222ull, core::artifactFormatVersion);
    ASSERT_TRUE(store.publishArtifactOnce(key_a, {1, 2, 3}));
    ASSERT_TRUE(store.publishArtifactOnce(key_b, {4, 5, 6}));

    // Age floor 1h: everything is fresh, nothing is reaped.
    auto kept = store.gc(3600);
    EXPECT_EQ(kept.removedArtifacts, 0u);
    EXPECT_EQ(kept.keptFresh, 2u);
    EXPECT_TRUE(store.hasValidArtifact(key_a));

    // Age floor 0 with no live manifests: both snapshots (and their
    // checksum sidecars) go.
    auto reaped = store.gc(0);
    EXPECT_EQ(reaped.removedArtifacts, 2u);
    EXPECT_GT(reaped.reclaimedBytes, 0u);
    EXPECT_FALSE(store.hasValidArtifact(key_a));
    EXPECT_FALSE(store.hasValidArtifact(key_b));
    EXPECT_GE(store.stats().gcRemoved, 2u);
}

// ---------------------------------------------------------------------
// Remote execution against the real agent binary
// ---------------------------------------------------------------------

#if !defined(_WIN32)

TEST(RemoteExecutorTest, AgentExecutesManifestsEndToEnd)
{
    ASSERT_NE(agentBinary, nullptr);
    ExperimentMatrix matrix;
    matrix.workloads = {"ChaCha20_ct", "SHAKE"};
    matrix.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra,
                      Scheme::Spt};
    const std::string want =
        jsonReport(ExperimentRunner(registryCache()).run(matrix));

    RemoteShardExecutor::Options opts;
    opts.dropboxDir = freshDir("box-e2e");
    opts.shards = 2;
    opts.agents = 1;
    opts.agentBinary = agentBinary;
    auto executor = std::make_shared<RemoteShardExecutor>(opts);

    RunnerOptions options;
    options.execution = ExecutionMode::Remote;
    options.dropboxDir = opts.dropboxDir;
    options.shards = 2;
    auto exp =
        ExperimentRunner(registryCache(), options, executor).run(matrix);

    // The executor contract: byte-identical to in-process.
    EXPECT_EQ(want, jsonReport(exp));
    EXPECT_EQ(executor->stats().tasksPublished, 2u);
    EXPECT_EQ(executor->stats().tasksCompleted, 2u);
    EXPECT_EQ(executor->stats().tasksTimedOut, 0u);
    // Content addressing: one upload per distinct workload.
    EXPECT_EQ(executor->store().stats().artifactUploads, 2u);

    // A second run through the same box re-uses both snapshots — the
    // upload-once-per-fingerprint acceptance check.
    auto again =
        ExperimentRunner(registryCache(), options, executor).run(matrix);
    EXPECT_EQ(want, jsonReport(again));
    EXPECT_EQ(executor->store().stats().artifactUploads, 2u);
    EXPECT_GE(executor->store().stats().artifactReuses, 2u);
}

TEST(RemoteExecutorTest, EmptyPoolTimesOutAndRetriesInProcess)
{
    // No agents at all: every task hits its (tiny) deadline, is
    // withdrawn, and its cells run in-process — the same recovery
    // that covers a lost or stuck agent.
    ExperimentMatrix matrix;
    matrix.workloads = {"ChaCha20_ct"};
    matrix.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};
    const std::string want =
        jsonReport(ExperimentRunner(registryCache()).run(matrix));

    RemoteShardExecutor::Options opts;
    opts.dropboxDir = freshDir("box-timeout");
    opts.shards = 1;
    opts.agents = 0;
    opts.taskTimeoutMs = 200;
    opts.pollMs = 20;
    auto executor = std::make_shared<RemoteShardExecutor>(opts);

    RunnerOptions options;
    options.execution = ExecutionMode::Remote;
    options.dropboxDir = opts.dropboxDir;
    options.shards = 1;
    auto exp =
        ExperimentRunner(registryCache(), options, executor).run(matrix);

    EXPECT_EQ(want, jsonReport(exp));
    EXPECT_EQ(executor->stats().tasksTimedOut, 1u);
    EXPECT_EQ(executor->stats().cellsRetried, 2u);
    EXPECT_EQ(executor->stats().tasksCompleted, 0u);
}

TEST(RemoteExecutorTest, AgentBinaryIsRequiredToSpawn)
{
    RemoteShardExecutor::Options opts;
    opts.dropboxDir = freshDir("box-noagent");
    opts.agents = 2; // but no binary
    EXPECT_THROW(RemoteShardExecutor{opts}, std::invalid_argument);
    EXPECT_THROW(RemoteShardExecutor{RemoteShardExecutor::Options{}},
                 std::invalid_argument);
}

#endif // !_WIN32

// ---------------------------------------------------------------------
// The spool service
// ---------------------------------------------------------------------

ExperimentService::Options
serviceOptions(const std::string &spool)
{
    ExperimentService::Options sopts;
    sopts.spoolDir = spool;
    sopts.resolver = crypto::WorkloadRegistry::global().resolver();
    sopts.expandSuite = [](const std::string &suite) {
        return crypto::WorkloadRegistry::global().names(suite);
    };
    sopts.pollMs = 10;
    return sopts;
}

TEST(ExperimentServiceTest, OverlappingJobsMatchDirectRunsWithDedup)
{
    const std::string dir = freshDir("svc-jobs");
    core::ensureDirectories(dir);
    // Two sweeps sharing the SHAKE x {baseline, Cassandra} cells.
    const std::string config_a = dir + "/job_a.json";
    writeText(config_a, R"({
  "workloads": ["ChaCha20_ct", "SHAKE"],
  "schemes": ["UnsafeBaseline", "Cassandra"],
  "report": {"format": "json"}
})");
    const std::string config_b = dir + "/job_b.json";
    writeText(config_b, R"({
  "workloads": ["SHAKE"],
  "schemes": ["UnsafeBaseline", "Cassandra"],
  "report": {"format": "json"}
})");

    // Direct single-process runs are the byte-level reference.
    const auto direct = [](const std::string &path) {
        const auto spec = core::loadExperimentSpec(path);
        return jsonReport(
            ExperimentRunner(registryCache()).run(spec.matrix));
    };
    const std::string want_a = direct(config_a);
    const std::string want_b = direct(config_b);

    const std::string spool = dir + "/spool";
    const std::string job_a = ExperimentService::submit(spool, config_a);
    const std::string job_b = ExperimentService::submit(spool, config_b);
    EXPECT_NE(job_a, job_b);

    auto sopts = serviceOptions(spool);
    sopts.maxJobs = 2;
    ExperimentService service(std::move(sopts));
    std::ostringstream log;
    ASSERT_EQ(service.serve(log), 0) << log.str();

    // Both jobs completed, and their reports are byte-identical to
    // the direct runs even though they executed as one merged batch.
    EXPECT_EQ(ExperimentService::waitForJob(spool, job_a, 1000), "ok\n");
    EXPECT_EQ(ExperimentService::waitForJob(spool, job_b, 1000), "ok\n");
    EXPECT_EQ(readText(spool + "/" +
                       ExperimentService::reportKey(job_a)),
              want_a);
    EXPECT_EQ(readText(spool + "/" +
                       ExperimentService::reportKey(job_b)),
              want_b);

    // Job B's 2 cells duplicate job A's SHAKE cells: simulated once.
    EXPECT_EQ(service.stats().jobsDone, 2u);
    EXPECT_EQ(service.stats().batches, 1u);
    EXPECT_EQ(service.stats().cellsTotal, 6u);
    EXPECT_EQ(service.stats().cellsDeduped, 2u);
    EXPECT_EQ(service.stats().cellsSimulated, 4u);

    // The per-job telemetry and service counters are published too.
    const std::string telemetry = readText(
        spool + "/" + ExperimentService::telemetryKey(job_a));
    EXPECT_NE(telemetry.find("\"deduped_cells\": 2"),
              std::string::npos)
        << telemetry;
    EXPECT_NE(readText(spool + "/service_stats.json")
                  .find("\"deduped\": 2"),
              std::string::npos);
}

TEST(ExperimentServiceTest, BadJobFailsWithoutPoisoningTheBatch)
{
    const std::string dir = freshDir("svc-poison");
    core::ensureDirectories(dir);
    const std::string good_cfg = dir + "/good.json";
    writeText(good_cfg, R"({
  "workloads": ["ChaCha20_ct"],
  "schemes": ["UnsafeBaseline"],
  "report": {"format": "json"}
})");
    // Parses fine, but the workload does not resolve — the failure
    // only surfaces inside the batch run.
    const std::string bad_cfg = dir + "/bad.json";
    writeText(bad_cfg, R"({
  "workloads": ["no-such-workload"],
  "schemes": ["UnsafeBaseline"],
  "report": {"format": "json"}
})");

    const std::string spool = dir + "/spool";
    const std::string good = ExperimentService::submit(spool, good_cfg);
    const std::string bad = ExperimentService::submit(spool, bad_cfg);

    auto sopts = serviceOptions(spool);
    sopts.maxJobs = 2;
    ExperimentService service(std::move(sopts));
    std::ostringstream log;
    ASSERT_EQ(service.serve(log), 0) << log.str();

    EXPECT_EQ(service.stats().jobsDone, 1u);
    EXPECT_EQ(service.stats().jobsFailed, 1u);
    EXPECT_EQ(ExperimentService::waitForJob(spool, good, 1000), "ok\n");
    const std::string bad_status =
        ExperimentService::waitForJob(spool, bad, 1000);
    EXPECT_EQ(bad_status.rfind("error:", 0), 0u) << bad_status;
    // The good job still produced its report.
    EXPECT_FALSE(
        readText(spool + "/" + ExperimentService::reportKey(good))
            .empty());
}

TEST(ExperimentServiceTest, MalformedJobFailsAtClaimTime)
{
    const std::string dir = freshDir("svc-malformed");
    core::ensureDirectories(dir);
    const std::string cfg = dir + "/broken.json";
    writeText(cfg, "this is not json");

    const std::string spool = dir + "/spool";
    const std::string job = ExperimentService::submit(spool, cfg);

    auto sopts = serviceOptions(spool);
    sopts.maxJobs = 1;
    ExperimentService service(std::move(sopts));
    std::ostringstream log;
    ASSERT_EQ(service.serve(log), 0) << log.str();
    EXPECT_EQ(service.stats().jobsFailed, 1u);
    EXPECT_EQ(ExperimentService::waitForJob(spool, job, 1000)
                  .rfind("error:", 0),
              0u);
}

} // namespace
