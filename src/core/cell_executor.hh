/**
 * @file
 * The pluggable cell-execution layer.
 *
 * ExperimentRunner plans the workload x scheme x config cross product
 * and acquires the analysis artifacts; a CellExecutor then turns the
 * planned cells into CellResults. Executors must be interchangeable:
 * given the same cells and artifacts, every executor produces
 * byte-identical results in cell order, regardless of threads, shard
 * counts or scheduling.
 *
 * Two backends ship:
 *
 *  - InProcessExecutor (here) runs the cells over a thread pool in
 *    this process, together with the analysis passes they wait on
 *    (runTaskGraph).
 *
 *  - SubprocessExecutor (core/subprocess_executor.hh) is the one
 *    out-of-process backend (ExecutionMode::Subprocess). It partitions
 *    the cells into shards with the LPT scheduler below, spawns one
 *    agent per shard, ships each shard as a CASSSM4 manifest plus the
 *    CASSAW4 snapshots it needs through a private drop box, and
 *    merges the agents' CASSCR1 result sets back by global cell
 *    index, so any shard partition — and any completion order —
 *    yields the identical report. Failed shards are retried once
 *    in-process; only when that retry also fails does the run fail,
 *    with a WorkerError carrying the agent's stderr.
 */

#ifndef CASSANDRA_CORE_CELL_EXECUTOR_HH
#define CASSANDRA_CORE_CELL_EXECUTOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace cassandra::core {

class ResultStore;

/**
 * Run fn(0..work) over a pool of `threads` workers, failing fast on
 * the first exception (rethrown here). Shared by the runner's artifact
 * resolution and the subprocess executor's snapshot uploads.
 */
void runParallel(unsigned threads, size_t work,
                 const std::function<void(size_t)> &fn);

/** One planned cell (the matrix cross product, flattened). */
struct PlannedCell
{
    std::string workload; ///< matrix (registry) spelling
    uarch::Scheme scheme = uarch::Scheme::UnsafeBaseline;
    /** Config variant; its scheme field is replaced by `scheme`. */
    SimConfig config;
};

/** Shared analysis artifacts, keyed by matrix workload name. */
using ArtifactMap = std::map<std::string, AnalyzedWorkload::Ptr>;

/**
 * The shard partition an executor chose for its last execute() call
 * (telemetry; empty for executors that do not shard).
 */
struct ScheduleSummary
{
    bool valid = false;
    /** Estimated cost (model units) assigned to each shard. */
    std::vector<uint64_t> shardCosts;
};

/**
 * Per-cell cost estimates for the shard scheduler, in cost-model
 * units. For each cell, a prior run's recorded cycle count from the
 * result store when a matching entry exists (`store` may be null),
 * falling back to the workload artifact's static ops count — both are
 * proportional to simulated work, so mixed sources still rank cells
 * usefully. Every estimate is at least 1.
 */
std::vector<uint64_t>
estimateCellCosts(const std::vector<PlannedCell> &cells,
                  const ArtifactMap &artifacts,
                  const ResultStore *store);

/**
 * Partition cell indices 0..costs.size() into `shards` groups by
 * longest-processing-time bin packing: descending cost, each cell onto
 * the least-loaded shard, so one huge cell never serializes a shard
 * behind a pile of cheap ones. Deterministic (stable tie-breaks);
 * with shards <= cells, no shard is left empty; indices ascend inside
 * each shard. The partition never shows in the report — results merge
 * by global index.
 */
std::vector<std::vector<uint32_t>>
scheduleShards(const std::vector<uint64_t> &costs, unsigned shards);

/** Executes planned cells over shared artifacts. */
class CellExecutor
{
  public:
    virtual ~CellExecutor() = default;

    /**
     * Execute every cell; the result vector is parallel to `cells`
     * and must be byte-identical across executors and schedules.
     * Artifacts must cover every cell's workload; `phases` are the
     * analysis phases the executor runs on each of them (those not
     * yet run) before their cells read them.
     */
    virtual std::vector<CellResult>
    execute(const std::vector<PlannedCell> &cells,
            const ArtifactMap &artifacts, AnalysisPhaseMask phases) = 0;

    /** The shard partition of the last execute() call (invalid for
     * backends that do not shard). */
    virtual ScheduleSummary lastSchedule() const { return {}; }
};

/**
 * The in-process task graph. One pool of `threads` workers runs three
 * kinds of task: each cell workload's recording pass (`phases` minus
 * PhaseTraceImage: the timing trace, with the taint walk fused in),
 * its Algorithm 2 pass (PhaseTraceImage) — the two run concurrently,
 * they are independent passes — and, when `simulate` is set, every
 * cell. A worker takes an analysis task first, else a cell whose
 * workload has run every phase of `phases` the cell's scheme reads
 * (schemePhases), else waits. Phases an artifact already holds spawn
 * no task. The first exception stops the pool: every worker is joined
 * before it is rethrown. Returns results parallel to `cells` (empty
 * without `simulate`).
 */
std::vector<CellResult>
runTaskGraph(unsigned threads, const std::vector<PlannedCell> &cells,
             const ArtifactMap &artifacts, AnalysisPhaseMask phases,
             bool simulate);

/** Cells and their analysis passes over a thread pool in this
 * process (runTaskGraph). */
class InProcessExecutor : public CellExecutor
{
  public:
    /** @param threads worker threads; 0 = hardware concurrency
     * (resolved through RunnerOptions::resolveThreads). */
    explicit InProcessExecutor(unsigned threads = 0);

    std::vector<CellResult>
    execute(const std::vector<PlannedCell> &cells,
            const ArtifactMap &artifacts,
            AnalysisPhaseMask phases) override;

  private:
    unsigned threads_;
};

/**
 * A shard failed and its cells could not be recovered: the agent
 * crashed, reported an error, returned corrupt output or missed the
 * deadline, and the in-process retry was disabled or failed too.
 * what() includes the agent's captured stderr when there is one.
 */
class WorkerError : public std::runtime_error
{
  public:
    WorkerError(unsigned shard, const std::string &detail,
                std::string stderr_text);

    unsigned shard() const { return shard_; }
    /** Captured stderr of the failed agent (tail, bounded). */
    const std::string &stderrText() const { return stderrText_; }

  private:
    unsigned shard_;
    std::string stderrText_;
};

/**
 * One shard's work order, serialized as a CASSSM manifest: the
 * drop-box artifact key per workload, the planned cells with their
 * global indices, and the agent's thread budget.
 */
struct ShardManifest
{
    uint32_t shardIndex = 0;
    /** Agent thread-pool size (pre-capped by the coordinator so
     * shards x threads never oversubscribes the machine). */
    uint32_t workerThreads = 1;
    /** Workload name -> drop-box artifact key, for every cell
     * workload. */
    std::vector<std::pair<std::string, std::string>> artifacts;
    /** Global cell index of cells[i] in the coordinator's plan. */
    std::vector<uint32_t> indices;
    std::vector<PlannedCell> cells;
};

/** Serialize a manifest (magic "CASSSM4\n"). */
std::vector<uint8_t> packShardManifest(const ShardManifest &manifest);

/**
 * Parse CASSSM4 bytes back into a manifest.
 * @throws ArtifactFormatError on bad magic/version or a zero
 *         geometry field (invalidGeometryKey),
 *         std::invalid_argument on truncated or inconsistent bytes.
 */
ShardManifest unpackShardManifest(const std::vector<uint8_t> &bytes);

/**
 * Executor for RunnerOptions::execution: InProcessExecutor or
 * SubprocessExecutor. `costSource` (may be null) feeds the shard
 * scheduler's cost model with prior cycles from the result store.
 */
std::shared_ptr<CellExecutor>
makeCellExecutor(const RunnerOptions &options,
                 std::shared_ptr<const ResultStore> costSource = nullptr);

} // namespace cassandra::core

#endif // CASSANDRA_CORE_CELL_EXECUTOR_HH
