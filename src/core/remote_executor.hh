/**
 * @file
 * The out-of-process cell executor: shard dispatch over the
 * content-addressed artifact store.
 *
 * RemoteShardExecutor publishes CASSSM3 shard manifests and CASSAW4
 * snapshots into an ArtifactStore drop box and lets *agents* —
 * `run_experiment --agent --inbox=DIR` processes, on this host or any
 * host that can see the box — claim tasks, execute them and publish
 * CASSCR1 result sets back:
 *
 *   coordinator                      drop box              agents
 *   ----------                       --------              ------
 *   publishArtifactOnce(.aw) ---->   artifacts/
 *   publishTask(.sm)         ---->   tasks/inbox/   ---->  claimTask
 *                                    tasks/claimed/        execute
 *   poll results             <----   tasks/outbox/  <----  publishResult
 *
 * Two spellings of the one mechanism:
 *
 *  - Shared box (Options::dropboxDir; `--execution remote`).
 *    Snapshots are content-addressed (workload fingerprint + CASSAW
 *    version), so across runs, sweeps and coordinators each distinct
 *    workload uploads exactly once (ArtifactStore::Stats proves it).
 *    Agents are a standing pool, or Options::agents local ones
 *    spawned for the duration of one execute() call.
 *
 *  - Private box (no dropboxDir; `--execution subprocess`). Each
 *    execute() creates a fresh box under Options::scratchDir (empty =
 *    the temp directory) and spawns one agent per shard into it, with
 *    TMPDIR pointed inside the box so the agents' rehydrated trace
 *    streams live there too. The box is removed after a successful
 *    run and kept, with every agent's captured stderr, when the run
 *    fails.
 *
 * Failure handling: a task whose agent reports an error, returns a
 * corrupt result set, or has no result after Options::taskTimeoutMs
 * is withdrawn and its cells retried once in-process. Spawned agents
 * are reaped while the coordinator polls, so a task claimed by an
 * agent that died fails at once instead of waiting for the deadline;
 * the agent's stderr tail rides along on the WorkerError. Run-unique
 * task names make a late straggler result harmless.
 */

#ifndef CASSANDRA_CORE_REMOTE_EXECUTOR_HH
#define CASSANDRA_CORE_REMOTE_EXECUTOR_HH

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
    /** Thread budget per task; 0 honors the manifest's workerThreads. */
    unsigned threads = 0;
    /** Poll interval while the inbox is empty. */
    uint64_t pollMs = 50;
    /**
     * Exit after this long with no work (0 = poll until the box's
     * stop flag rises). Coordinator-spawned pools set a small value
     * so orphaned agents cannot outlive their run forever.
     */
    uint64_t idleExitMs = 0;
};

/**
 * The agent main loop: claim tasks from the box, fetch + validate the
 * referenced snapshots, execute the cells in-process and publish
 * CASSCR1 results (errors become error reports, not agent deaths).
 * Returns 0 on a clean stop (stop flag or idle exit). Honors the
 * CASSANDRA_TEST_WORKER_CRASH fault-injection hook: an agent that
 * claims a manifest whose shard index matches the variable exits at
 * once with status 42, leaving its claim behind like a hard crash
 * (exercises the coordinator's reaping and retry paths). `log` gets
 * one line per task for service logs.
 */
int runShardAgent(const AgentOptions &options,
                  const AnalysisCache::Resolver &resolver,
                  std::ostream &log);

/** Cells dispatched through a drop box to agent processes
 * (file comment). */
class RemoteShardExecutor : public CellExecutor
{
  public:
    struct Options
    {
        /** Shared drop-box directory; empty runs each execute() over
         * a private box instead. */
        std::string dropboxDir;
        /** Parent of the private box; empty = the temp directory. */
        std::string scratchDir;
        /** Shard (task) count; 0 = auto (RunnerOptions::resolveShards). */
        unsigned shards = 0;
        /** Coordinator-side thread request; per-task budgets derive
         * from it via RunnerOptions::resolveThreads(work, shards). */
        unsigned threads = 0;
        /**
         * Local agents to spawn for the duration of execute(); 0
         * relies on a standing pool already polling a shared box, or
         * spawns one per shard into a private box.
         */
        unsigned agents = 0;
        /** Binary implementing `--agent` (required whenever agents
         * are spawned). */
        std::string agentBinary;
        /** Per-task deadline before the coordinator gives up on the
         * box and retries the task's cells in-process. */
        uint64_t taskTimeoutMs = 120000;
        /** Coordinator poll interval for outbox results. */
        uint64_t pollMs = 20;
        /** Retry timed-out/failed tasks in-process before failing the
         * run (disabled, they raise WorkerError directly). */
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

    /** @throws std::invalid_argument when agents would be spawned
     * (agents > 0, or a private box) but agentBinary is empty. */
    explicit RemoteShardExecutor(Options options);

    const char *name() const override { return "remote"; }
    std::vector<CellResult>
    execute(const std::vector<PlannedCell> &cells,
            const ArtifactMap &artifacts,
            AnalysisPhaseMask phases) override;

    ScheduleSummary lastSchedule() const override { return schedule_; }

    const Stats &stats() const { return stats_; }

    /** The store the last execute() published through (upload/reuse
     * counters live here — how tests prove upload-once per
     * fingerprint). Null for a private box before the first run. */
    ArtifactStore &store() const { return *store_; }

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

#endif // CASSANDRA_CORE_REMOTE_EXECUTOR_HH
