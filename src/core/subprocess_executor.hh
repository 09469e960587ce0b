/**
 * @file
 * The out-of-process cell executor: shard dispatch to spawned agent
 * processes over a private, content-addressed drop box.
 *
 * Each execute() creates a fresh ArtifactStore box under
 * Options::scratchDir (empty = the temp directory), spawns one
 * `run_experiment --agent --inbox=BOX` process per shard into it, and
 * publishes CASSSM4 shard manifests plus the CASSAW4 snapshots they
 * reference. Agents claim tasks, execute them and publish CASSCR1
 * result sets back; results merge by global cell index:
 *
 *   coordinator                      drop box              agents
 *   ----------                       --------              ------
 *   publishArtifactOnce(.aw) ---->   artifacts/
 *   publishTask(.sm)         ---->   tasks/inbox/   ---->  claimTask
 *                                    tasks/claimed/        execute
 *   poll results             <----   tasks/outbox/  <----  publishResult
 *
 * Snapshots are content-addressed (workload fingerprint + CASSAW
 * version), so each distinct workload uploads once per run however
 * many shards read it. Agents run with TMPDIR pointed inside the box,
 * so their rehydrated trace streams live there too. The box is removed
 * after a successful run and kept, with every agent's captured stderr,
 * when the run fails.
 *
 * Failure handling: a task whose agent reports an error, returns a
 * corrupt result set, or has no result after Options::taskTimeoutMs
 * is withdrawn and its cells retried once in-process. Spawned agents
 * are reaped while the coordinator polls, so a task claimed by an
 * agent that died fails at once instead of waiting for the deadline;
 * the agent's stderr tail rides along on the WorkerError. Run-unique
 * task names make a late straggler result harmless.
 */

#ifndef CASSANDRA_CORE_SUBPROCESS_EXECUTOR_HH
#define CASSANDRA_CORE_SUBPROCESS_EXECUTOR_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "core/cell_executor.hh"

namespace cassandra::core {

class ArtifactStore;

/** Agent-side knobs (the `run_experiment --agent` loop). */
struct AgentOptions
{
    /** Drop-box directory to poll (required). */
    std::string inboxDir;
    /** Poll interval while the inbox is empty. */
    uint64_t pollMs = 50;
    /**
     * Exit after this long with no work (0 = poll until killed). The
     * coordinator sets it, so an agent orphaned by a killed
     * coordinator cannot outlive its run forever.
     */
    uint64_t idleExitMs = 0;
};

/**
 * The agent main loop: claim tasks from the box, fetch + validate the
 * referenced snapshots, execute the cells in-process with the
 * manifest's workerThreads and publish CASSCR1 results (errors become
 * error reports, not agent deaths). Returns 0 on an idle exit. Honors
 * the CASSANDRA_TEST_WORKER_CRASH fault-injection hook: an agent that
 * claims a manifest whose shard index matches the variable exits at
 * once with status 42, leaving its claim behind like a hard crash
 * (exercises the coordinator's reaping and retry paths). `log` gets
 * one line per task.
 */
int runShardAgent(const AgentOptions &options,
                  const AnalysisCache::Resolver &resolver,
                  std::ostream &log);

/** Cells dispatched to spawned agent processes over a private drop
 * box (file comment). */
class SubprocessExecutor : public CellExecutor
{
  public:
    struct Options
    {
        /** Parent of the private box; empty = the temp directory. */
        std::string scratchDir;
        /** Shard (task) count; 0 = auto (RunnerOptions::resolveShards). */
        unsigned shards = 0;
        /** Coordinator-side thread request; per-task budgets derive
         * from it via RunnerOptions::resolveThreads(work, shards). */
        unsigned threads = 0;
        /** Binary implementing `--agent` (required). */
        std::string agentBinary;
        /** Per-task deadline before the coordinator gives up on the
         * task and retries its cells in-process (tests shorten it). */
        uint64_t taskTimeoutMs = 120000;
        /** Coordinator poll interval for outbox results. */
        uint64_t pollMs = 20;
        /** Retry timed-out/failed tasks in-process before failing the
         * run (tests disable it to see the WorkerError directly). */
        bool retryInProcess = true;
        /** Prior-cycles source for the scheduler's cost model (may be
         * null: static ops counts). */
        std::shared_ptr<const ResultStore> costSource;
    };

    /** Cumulative backend counters. */
    struct Stats
    {
        uint64_t tasksPublished = 0;
        uint64_t tasksCompleted = 0; ///< merged from an outbox result
        uint64_t tasksFailed = 0; ///< error, corrupt result or agent died
        uint64_t tasksTimedOut = 0;  ///< deadline passed, withdrawn
        uint64_t cellsRetried = 0;   ///< recovered in-process
        uint64_t agentsSpawned = 0;
    };

    /** @throws std::invalid_argument when agentBinary is empty. */
    explicit SubprocessExecutor(Options options);

    std::vector<CellResult>
    execute(const std::vector<PlannedCell> &cells,
            const ArtifactMap &artifacts,
            AnalysisPhaseMask phases) override;

    ScheduleSummary lastSchedule() const override { return schedule_; }

    const Stats &stats() const { return stats_; }

    /** The box store of the last execute() (its upload/reuse counters
     * prove upload-once per fingerprint); null before the first
     * execute(). */
    const std::shared_ptr<ArtifactStore> &store() const { return store_; }

  private:
    std::vector<CellResult>
    dispatch(const std::vector<PlannedCell> &cells,
             const ArtifactMap &artifacts, const std::string &box_dir);

    Options options_;
    std::shared_ptr<ArtifactStore> store_;
    Stats stats_;
    ScheduleSummary schedule_;
};

} // namespace cassandra::core

#endif // CASSANDRA_CORE_SUBPROCESS_EXECUTOR_HH
