#include "core/cell_executor.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/byte_io.hh"
#include "core/subprocess_executor.hh"
#include "core/result_store.hh"
#include "core/trace_stream.hh"

namespace cassandra::core {

void
runParallel(unsigned threads, size_t work,
            const std::function<void(size_t)> &fn)
{
    if (work == 0)
        return;
    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto worker = [&] {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= work)
                return;
            {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (first_error)
                    return; // fail fast, keep remaining slots empty
            }
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                return;
            }
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; t++)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    if (first_error)
        std::rethrow_exception(first_error);
}

// ---------------------------------------------------------------------
// Cost model + shard scheduling
// ---------------------------------------------------------------------

std::vector<uint64_t>
estimateCellCosts(const std::vector<PlannedCell> &cells,
                  const ArtifactMap &artifacts, const ResultStore *store)
{
    std::vector<uint64_t> costs;
    costs.reserve(cells.size());
    for (const PlannedCell &cell : cells) {
        const AnalyzedWorkload::Ptr &artifact =
            artifacts.at(cell.workload);
        uint64_t cost = 0;
        if (store) {
            SimConfig cfg = cell.config;
            cfg.scheme = cell.scheme;
            cost = store->peekCycles(resultStoreKey(
                artifact->workload(), cell.scheme, cfg));
        }
        if (cost == 0)
            cost = artifact->numOps();
        costs.push_back(std::max<uint64_t>(cost, 1));
    }
    return costs;
}

std::vector<std::vector<uint32_t>>
scheduleShards(const std::vector<uint64_t> &costs, unsigned shards)
{
    const size_t work = costs.size();
    const unsigned s =
        std::max(1u, std::min<unsigned>(shards, std::max<size_t>(work, 1)));
    std::vector<std::vector<uint32_t>> partition(s);
    if (work == 0)
        return partition;

    // Descending cost (stable: equal costs keep index order),
    // each cell onto the currently least-loaded shard (lowest index
    // on ties) — deterministic, and with work >= s every shard gets
    // at least one cell before any shard gets two.
    std::vector<uint32_t> order(work);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return costs[a] > costs[b];
                     });
    std::vector<uint64_t> load(s, 0);
    for (uint32_t index : order) {
        unsigned target = 0;
        for (unsigned i = 1; i < s; i++) {
            if (load[i] < load[target])
                target = i;
        }
        partition[target].push_back(index);
        load[target] += costs[index];
    }
    // Ascending indices inside each shard: manifests stay readable
    // and the assignment is independent of the greedy visit order.
    for (std::vector<uint32_t> &shard : partition)
        std::sort(shard.begin(), shard.end());
    return partition;
}

// ---------------------------------------------------------------------
// Task graph + InProcessExecutor
// ---------------------------------------------------------------------

std::vector<CellResult>
runTaskGraph(unsigned threads, const std::vector<PlannedCell> &cells,
             const ArtifactMap &artifacts, AnalysisPhaseMask phases,
             bool simulate)
{
    // Cell workloads in first-appearance order; waiting[w] holds the
    // cells of workload w not yet released to the ready queue.
    std::vector<const AnalyzedWorkload *> workloads;
    std::vector<std::vector<size_t>> waiting;
    {
        std::map<std::string, size_t> index;
        for (size_t i = 0; i < cells.size(); i++) {
            const auto [it, fresh] =
                index.emplace(cells[i].workload, workloads.size());
            if (fresh) {
                workloads.push_back(artifacts.at(cells[i].workload).get());
                waiting.emplace_back();
            }
            if (simulate)
                waiting[it->second].push_back(i);
        }
    }

    // Analysis tasks: per workload, the recording pass and the
    // Algorithm 2 pass it still lacks. done[w] grows as they finish.
    struct Task
    {
        size_t workload = 0;
        AnalysisPhaseMask phases = 0;
    };
    const AnalysisPhaseMask record_phases = phases & ~PhaseTraceImage;
    std::vector<Task> tasks;
    std::vector<AnalysisPhaseMask> done(workloads.size());
    for (size_t w = 0; w < workloads.size(); w++) {
        const AnalyzedWorkload &aw = *workloads[w];
        AnalysisPhaseMask have = 0;
        if (aw.hasTimingTrace())
            have |= PhaseTimingTrace;
        if (aw.hasTraceImage())
            have |= PhaseTraceImage;
        if (aw.hasTaintBitmap())
            have |= PhaseTaint;
        done[w] = have & phases;
        if (record_phases & ~have)
            tasks.push_back(Task{w, record_phases});
        if (phases & PhaseTraceImage & ~have)
            tasks.push_back(Task{w, PhaseTraceImage});
    }

    std::vector<CellResult> results(simulate ? cells.size() : 0);
    std::mutex mutex;
    std::condition_variable wake;
    std::deque<size_t> ready;
    size_t next_task = 0;
    size_t untaken = results.size();
    std::exception_ptr error;

    // Under the lock: move the cells of w whose phases are done.
    auto release = [&](size_t w) {
        std::vector<size_t> &cells_of = waiting[w];
        size_t kept = 0;
        for (size_t i : cells_of) {
            if ((schemePhases(cells[i].scheme) & phases & ~done[w]) == 0)
                ready.push_back(i);
            else
                cells_of[kept++] = i;
        }
        cells_of.resize(kept);
    };
    for (size_t w = 0; w < workloads.size(); w++)
        release(w);

    auto run_cell = [&](size_t i) {
        const PlannedCell &cell = cells[i];
        const AnalyzedWorkload::Ptr &artifact = artifacts.at(cell.workload);
        CellResult &out = results[i];
        // Keyed by the matrix name (not Workload::name) so
        // Experiment::find works with whatever the caller spelled,
        // parameterized entries included.
        out.workload = cell.workload;
        out.suite = artifact->workload().suite;
        out.scheme = cell.scheme;
        out.config = cell.config.name;
        SimConfig cfg = cell.config;
        cfg.scheme = cell.scheme;
        out.result = Simulation(artifact).run(cfg);
    };

    auto worker = [&] {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            wake.wait(lock, [&] {
                return error || next_task < tasks.size() ||
                    !ready.empty() || untaken == 0;
            });
            if (error)
                return;
            // An analysis task first, else a ready cell.
            const bool analysis = next_task < tasks.size();
            if (!analysis && ready.empty())
                return; // every task and cell is taken
            Task task{};
            size_t cell = 0;
            if (analysis) {
                task = tasks[next_task++];
            } else {
                cell = ready.front();
                ready.pop_front();
                untaken--;
            }
            lock.unlock();
            try {
                if (analysis)
                    workloads[task.workload]->ensurePhases(task.phases);
                else
                    run_cell(cell);
            } catch (...) {
                lock.lock();
                if (!error)
                    error = std::current_exception();
                wake.notify_all();
                return;
            }
            lock.lock();
            if (analysis) {
                done[task.workload] |= task.phases;
                release(task.workload);
                wake.notify_all();
            }
        }
    };

    const unsigned pool = RunnerOptions(threads).resolveThreads(
        tasks.size() + results.size());
    if (pool <= 1) {
        worker();
    } else {
        std::vector<std::thread> workers;
        workers.reserve(pool);
        for (unsigned t = 0; t < pool; t++)
            workers.emplace_back(worker);
        for (std::thread &t : workers)
            t.join();
    }
    if (error)
        std::rethrow_exception(error);
    return results;
}

InProcessExecutor::InProcessExecutor(unsigned threads) : threads_(threads)
{
}

std::vector<CellResult>
InProcessExecutor::execute(const std::vector<PlannedCell> &cells,
                           const ArtifactMap &artifacts,
                           AnalysisPhaseMask phases)
{
    return runTaskGraph(threads_, cells, artifacts, phases,
                        /*simulate=*/true);
}

// ---------------------------------------------------------------------
// Shard manifests (CASSSM4)
// ---------------------------------------------------------------------

namespace {

constexpr char manifestMagic[8] = {'C', 'A', 'S', 'S',
                                   'S', 'M', '4', '\n'};
constexpr uint32_t manifestVersion = 4;

void
packCacheParams(ByteWriter &w, const uarch::CacheParams &c)
{
    w.u32(c.sizeBytes);
    w.u32(c.lineBytes);
    w.u32(c.ways);
    w.u32(c.latency);
}

void
unpackCacheParams(ByteReader &r, uarch::CacheParams &c)
{
    c.sizeBytes = r.u32();
    c.lineBytes = r.u32();
    c.ways = r.u32();
    c.latency = r.u32();
}

/**
 * SimConfig over the wire, field by field: a worker must simulate
 * with exactly the coordinator's parameters or the merged report
 * would silently diverge from the in-process run.
 */
void
packSimConfig(ByteWriter &w, const SimConfig &cfg)
{
    w.str(cfg.name);
    const uarch::CoreParams &c = cfg.core;
    w.u32(c.fetchWidth);
    w.u32(c.commitWidth);
    w.u32(c.issueWidth);
    w.u32(c.robSize);
    w.u32(c.iqSize);
    w.u32(c.lqSize);
    w.u32(c.sqSize);
    w.u32(c.intRegs);
    w.u32(c.frontendDepth);
    w.u32(c.decodeRedirect);
    w.u32(c.redirectPenalty);
    w.u32(c.numAlu);
    w.u32(c.numMul);
    w.u32(c.numLsu);
    w.u32(c.aluLatency);
    w.u32(c.mulLatency);
    w.u32(c.storeLatency);
    packCacheParams(w, c.l1i);
    packCacheParams(w, c.l1d);
    packCacheParams(w, c.l2);
    packCacheParams(w, c.l3);
    w.u32(c.memLatency);
    w.u64(c.btuFlushPeriod);
    w.u64(cfg.btu.sets);
    w.u64(cfg.btu.ways);
    w.u32(cfg.btu.fillLatency);
}

SimConfig
unpackSimConfig(ByteReader &r)
{
    SimConfig cfg;
    cfg.name = r.str();
    uarch::CoreParams &c = cfg.core;
    c.fetchWidth = r.u32();
    c.commitWidth = r.u32();
    c.issueWidth = r.u32();
    c.robSize = r.u32();
    c.iqSize = r.u32();
    c.lqSize = r.u32();
    c.sqSize = r.u32();
    c.intRegs = r.u32();
    c.frontendDepth = r.u32();
    c.decodeRedirect = r.u32();
    c.redirectPenalty = r.u32();
    c.numAlu = r.u32();
    c.numMul = r.u32();
    c.numLsu = r.u32();
    c.aluLatency = r.u32();
    c.mulLatency = r.u32();
    c.storeLatency = r.u32();
    unpackCacheParams(r, c.l1i);
    unpackCacheParams(r, c.l1d);
    unpackCacheParams(r, c.l2);
    unpackCacheParams(r, c.l3);
    c.memLatency = r.u32();
    c.btuFlushPeriod = r.u64();
    cfg.btu.sets = static_cast<size_t>(r.u64());
    cfg.btu.ways = static_cast<size_t>(r.u64());
    cfg.btu.fillLatency = r.u32();
    // A hostile manifest must not reach the timing model with a
    // geometry that divides by zero or never retires an op.
    const std::string bad = invalidGeometryKey(cfg);
    if (!bad.empty())
        throw ArtifactFormatError("shard manifest config \"" + cfg.name +
                                  "\" has " + bad + " = 0");
    return cfg;
}

} // namespace

std::vector<uint8_t>
packShardManifest(const ShardManifest &manifest)
{
    if (manifest.indices.size() != manifest.cells.size())
        throw std::invalid_argument(
            "shard manifest indices/cells size mismatch");
    ByteWriter w;
    for (char c : manifestMagic)
        w.u8(static_cast<uint8_t>(c));
    w.u32(manifestVersion);
    w.u32(manifest.shardIndex);
    w.u32(manifest.workerThreads);
    w.u32(static_cast<uint32_t>(manifest.artifacts.size()));
    for (const auto &[name, path] : manifest.artifacts) {
        w.str(name);
        w.str(path);
    }
    w.u32(static_cast<uint32_t>(manifest.cells.size()));
    for (size_t i = 0; i < manifest.cells.size(); i++) {
        const PlannedCell &cell = manifest.cells[i];
        w.u32(manifest.indices[i]);
        w.str(cell.workload);
        w.str(uarch::schemeName(cell.scheme));
        packSimConfig(w, cell.config);
    }
    return w.take();
}

ShardManifest
unpackShardManifest(const std::vector<uint8_t> &bytes)
{
    ByteReader r(bytes);
    uint8_t magic[8];
    for (uint8_t &b : magic)
        b = r.u8();
    if (std::memcmp(magic, manifestMagic, 6) != 0)
        throw ArtifactFormatError("not a shard manifest (bad magic)");
    if (std::memcmp(magic, manifestMagic, 8) != 0)
        throw ArtifactFormatError(
            "shard manifest has an unknown container revision");
    const uint32_t version = r.u32();
    if (version != manifestVersion)
        throw ArtifactFormatError(
            "shard manifest has format version " +
            std::to_string(version) + ", expected " +
            std::to_string(manifestVersion));

    ShardManifest m;
    m.shardIndex = r.u32();
    m.workerThreads = r.u32();
    const uint32_t num_artifacts = r.u32();
    for (uint32_t i = 0; i < num_artifacts; i++) {
        std::string name = r.str();
        std::string path = r.str();
        m.artifacts.emplace_back(std::move(name), std::move(path));
    }
    const uint32_t num_cells = r.u32();
    for (uint32_t i = 0; i < num_cells; i++) {
        m.indices.push_back(r.u32());
        PlannedCell cell;
        cell.workload = r.str();
        cell.scheme = uarch::schemeFromName(r.str());
        cell.config = unpackSimConfig(r);
        m.cells.push_back(std::move(cell));
    }
    if (!r.done())
        throw std::invalid_argument("trailing bytes in shard manifest");
    return m;
}

WorkerError::WorkerError(unsigned shard, const std::string &detail,
                         std::string stderr_text)
    : std::runtime_error(
          "shard " + std::to_string(shard) + " failed: " + detail +
          (stderr_text.empty() ? std::string()
                               : "\n--- agent stderr ---\n" +
                                     stderr_text)),
      shard_(shard), stderrText_(std::move(stderr_text))
{
}

// ---------------------------------------------------------------------
// Executor selection
// ---------------------------------------------------------------------

std::shared_ptr<CellExecutor>
makeCellExecutor(const RunnerOptions &options,
                 std::shared_ptr<const ResultStore> costSource)
{
    if (options.execution == ExecutionMode::InProcess)
        return std::make_shared<InProcessExecutor>(options.threads);
    SubprocessExecutor::Options opts;
    opts.scratchDir = options.scratchDir;
    opts.shards = options.shards;
    opts.threads = options.threads;
    opts.agentBinary = options.workerBinary;
    opts.costSource = std::move(costSource);
    return std::make_shared<SubprocessExecutor>(opts);
}

} // namespace cassandra::core
