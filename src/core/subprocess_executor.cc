#include "core/subprocess_executor.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "core/artifact_store.hh"
#include "core/serialize.hh"
#include "core/trace_stream.hh"

#if !defined(_WIN32)
#define CASSANDRA_POSIX_AGENTS 1
#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
extern char **environ;
#endif

namespace cassandra::core {

namespace {

void
sleepMs(uint64_t ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::string
tempRoot()
{
    const char *tmp = std::getenv("TMPDIR");
    return (tmp && *tmp) ? tmp : "/tmp";
}

/** Bounded tail of a captured stderr file ("" when missing). */
std::string
stderrTail(const std::string &path)
{
    constexpr size_t maxBytes = 8192;
    std::ifstream file(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    if (text.size() > maxBytes)
        text = "..." + text.substr(text.size() - maxBytes);
    while (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text;
}

} // namespace

// ---------------------------------------------------------------------
// Agent loop (run_experiment --agent)
// ---------------------------------------------------------------------

int
runShardAgent(const AgentOptions &options,
              const AnalysisCache::Resolver &resolver, std::ostream &log)
{
    try {
        if (options.inboxDir.empty())
            throw std::invalid_argument(
                "agent mode needs a drop-box directory (--inbox=DIR)");
        ArtifactStore store(options.inboxDir);
        const std::string token = makeAgentToken();

        // Agent-local scratch for rehydrated trace streams (inside the
        // box: the coordinator points TMPDIR there).
        const std::string scratch =
            tempRoot() + "/cassandra-agent-" + token;
        ensureDirectories(scratch);

        // Snapshots are content-addressed, so one fetch serves every
        // task that references the key for the life of the agent.
        std::map<std::string, AnalyzedWorkload::Ptr> by_key;

        uint64_t idle_ms = 0;
        while (true) {
            const std::string task = store.claimTask(token);
            if (task.empty()) {
                if (options.idleExitMs &&
                    idle_ms >= options.idleExitMs)
                    break;
                sleepMs(options.pollMs);
                idle_ms += options.pollMs;
                continue;
            }
            idle_ms = 0;
            try {
                const ShardManifest manifest = unpackShardManifest(
                    store.fetchClaimedTask(task, token));
                // Fault hook for the dead-agent tests: die holding the
                // claim, like a hard crash, so only the coordinator's
                // reaping can notice.
                if (const char *crash =
                        std::getenv("CASSANDRA_TEST_WORKER_CRASH")) {
                    if (std::to_string(manifest.shardIndex) == crash) {
                        log << "agent " << token << ": " << task
                            << " injected crash "
                               "(CASSANDRA_TEST_WORKER_CRASH)"
                            << std::endl;
                        std::_Exit(42);
                    }
                }
                ArtifactMap artifacts;
                for (const auto &[name, key] : manifest.artifacts) {
                    auto it = by_key.find(key);
                    if (it == by_key.end())
                        it = by_key
                                 .emplace(key,
                                          loadAnalyzedWorkload(
                                              store.fetchArtifact(key),
                                              resolver, scratch))
                                 .first;
                    artifacts.emplace(name, it->second);
                }
                InProcessExecutor executor(manifest.workerThreads);
                AnalysisPhaseMask phases = 0;
                for (const PlannedCell &cell : manifest.cells)
                    phases |= schemePhases(cell.scheme);
                std::vector<CellResult> results =
                    executor.execute(manifest.cells, artifacts, phases);
                std::vector<IndexedCellResult> indexed;
                indexed.reserve(results.size());
                for (size_t i = 0; i < results.size(); i++)
                    indexed.push_back(
                        IndexedCellResult{manifest.indices[i],
                                          std::move(results[i])});
                store.publishResult(task, token,
                                    packCellResults(indexed));
                log << "agent " << token << ": " << task << " done ("
                    << indexed.size() << " cells)" << std::endl;
            } catch (const std::exception &e) {
                // A bad task must not kill the agent: report the
                // failure and keep polling.
                store.publishError(task, token, e.what());
                log << "agent " << token << ": " << task
                    << " failed: " << e.what() << std::endl;
            }
        }
        removeDirectoryTree(scratch);
        return 0;
    } catch (const std::exception &e) {
        log << "agent failed: " << e.what() << std::endl;
        return 1;
    }
}

// ---------------------------------------------------------------------
// SubprocessExecutor
// ---------------------------------------------------------------------

SubprocessExecutor::SubprocessExecutor(Options options)
    : options_(std::move(options))
{
    if (options_.agentBinary.empty())
        throw std::invalid_argument(
            "out-of-process execution needs an agent binary to spawn "
            "(set RunnerOptions::workerBinary or \"execution\": "
            "{\"worker_binary\": ...}; run_experiment spawns itself)");
}

namespace {

/** One published task the coordinator is waiting on. */
struct ShardTask
{
    unsigned shard = 0;
    std::string name;
    std::vector<uint32_t> indices; ///< global cell indices (sorted)
    std::chrono::steady_clock::time_point deadline;
    bool resolved = false;
    bool failed = false;
    std::string detail;
    std::string stderrText; ///< of the agent that died holding it
};

/** An agent process this coordinator spawned. */
struct SpawnedAgent
{
    long pid = -1;
    std::string stderrPath;
    bool exited = false;
    std::string detail; ///< how it exited, once reaped
};

/**
 * A fresh private drop box under `base` (or the temp directory),
 * suffixed with the process-unique token so two coordinators sharing
 * a scratch directory never share or delete each other's boxes.
 */
std::string
makeBoxDir(const std::string &base)
{
    static std::atomic<uint64_t> sequence{0};
    const std::string root = base.empty() ? tempRoot() : base;
    // A coordinator that crashed (or was SIGKILLed) kept its box but
    // can never delete it; reclaim any sibling whose owner is gone.
    sweepStaleProcessDirs(root, "cassandra-box-");
    const std::string dir = root + "/cassandra-box-" +
        processUniqueSuffix() + "-" +
        std::to_string(sequence.fetch_add(1));
    ensureDirectories(dir);
    return dir;
}

#if defined(CASSANDRA_POSIX_AGENTS)

/**
 * fork/exec one agent with stderr captured to `stderr_path` and
 * TMPDIR (where the agent keeps its scratch) set to `tmpdir`.
 */
long
spawnAgent(const std::string &binary,
           const std::vector<std::string> &args,
           const std::string &stderr_path, const std::string &tmpdir)
{
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(binary.c_str()));
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    // The environment is built before fork: only async-signal-safe
    // calls may run in the child of a threaded process.
    std::vector<std::string> env;
    for (char **e = environ; *e; e++) {
        if (std::strncmp(*e, "TMPDIR=", 7) != 0)
            env.push_back(*e);
    }
    env.push_back("TMPDIR=" + tmpdir);
    std::vector<char *> envp;
    for (std::string &entry : env)
        envp.push_back(entry.data());
    envp.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("cannot fork shard agent");
    if (pid == 0) {
        const int fd = open(stderr_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC, 0600);
        if (fd >= 0) {
            dup2(fd, 2);
            if (fd != 2)
                close(fd);
        }
        execve(binary.c_str(), argv.data(), envp.data());
        // exec failed: 127 like the shell, reason on the captured fd.
        const char msg[] = "cannot exec agent binary\n";
        ssize_t ignored = write(2, msg, sizeof(msg) - 1);
        (void)ignored;
        _exit(127);
    }
    return pid;
}

std::string
describeExit(int status)
{
    if (WIFEXITED(status))
        return "exited with status " +
            std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "killed by signal " + std::to_string(WTERMSIG(status));
    return "ended abnormally";
}

/** waitpid(WNOHANG) every live agent; true when any has exited. */
bool
reapExitedAgents(std::vector<SpawnedAgent> &agents)
{
    bool any = false;
    for (SpawnedAgent &agent : agents) {
        int status = 0;
        if (!agent.exited &&
            waitpid(static_cast<pid_t>(agent.pid), &status, WNOHANG) ==
                agent.pid) {
            agent.exited = true;
            agent.detail = describeExit(status);
        }
        any = any || agent.exited;
    }
    return any;
}

#endif // CASSANDRA_POSIX_AGENTS

} // namespace

std::vector<CellResult>
SubprocessExecutor::execute(const std::vector<PlannedCell> &cells,
                            const ArtifactMap &artifacts,
                            AnalysisPhaseMask phases)
{
    if (cells.empty())
        return {};
    // Snapshots carry what the agents replay, so every phase runs
    // here, before the upload.
    runTaskGraph(options_.threads, cells, artifacts, phases,
                 /*simulate=*/false);
    const std::string box = makeBoxDir(options_.scratchDir);
    store_ = std::make_shared<ArtifactStore>(box);
    try {
        std::vector<CellResult> results = dispatch(cells, artifacts, box);
        removeDirectoryTree(box);
        return results;
    } catch (...) {
        std::fprintf(stderr,
                     "shard run failed; keeping drop box %s (agent "
                     "stderr in logs/) for debugging\n",
                     box.c_str());
        throw;
    }
}

std::vector<CellResult>
SubprocessExecutor::dispatch(const std::vector<PlannedCell> &cells,
                             const ArtifactMap &artifacts,
                             const std::string &box_dir)
{
    RunnerOptions base(options_.threads);
    base.shards = options_.shards;
    const unsigned shards = base.resolveShards(cells.size());
    const unsigned worker_threads =
        base.resolveThreads(cells.size(), shards);

    // Run-unique task and log names: a straggler result for a task
    // withdrawn at its deadline can never be mistaken for a new one.
    static std::atomic<uint64_t> run_sequence{0};
    const std::string run_tag = "run-" + processUniqueSuffix() + "-" +
        std::to_string(run_sequence.fetch_add(1));

    std::vector<SpawnedAgent> agents;
    std::vector<ShardTask> tasks;
    auto reap_agents = [&]() {
#if defined(CASSANDRA_POSIX_AGENTS)
        for (SpawnedAgent &agent : agents) {
            if (agent.exited)
                continue;
            kill(static_cast<pid_t>(agent.pid), SIGTERM);
            int status = 0;
            while (waitpid(static_cast<pid_t>(agent.pid), &status, 0) <
                       0 &&
                   errno == EINTR) {
            }
            agent.exited = true;
        }
#endif
    };
    // Drop every inbox and outbox key this run put into the box.
    auto scrub_tasks = [&]() {
        for (const ShardTask &task : tasks) {
            store_->withdrawTask(task.name);
            store_->remove(ArtifactStore::resultKey(task.name));
            store_->remove(ArtifactStore::errorKey(task.name));
        }
    };

    try {
        // Agents first, so their start-up overlaps the snapshot
        // upload. They also idle-exit on their own, so a coordinator
        // killed before the reap cannot leave immortal pollers behind.
#if defined(CASSANDRA_POSIX_AGENTS)
        ensureDirectories(box_dir + "/logs");
        for (unsigned a = 0; a < shards; a++) {
            SpawnedAgent agent;
            agent.stderrPath = box_dir + "/logs/" + run_tag + "-agent-" +
                std::to_string(a) + ".stderr";
            agent.pid = spawnAgent(
                options_.agentBinary,
                {"--agent", "--inbox=" + box_dir, "--poll-ms=10",
                 "--idle-exit-ms=" +
                     std::to_string(options_.taskTimeoutMs * 2)},
                agent.stderrPath, box_dir);
            agents.push_back(std::move(agent));
            stats_.agentsSpawned++;
        }
#else
        throw std::runtime_error(
            "spawning shard agents is not supported on this platform");
#endif

        // Content-addressed snapshot publish, one distinct key per
        // thread: a fingerprint already in the box is never packed or
        // uploaded again.
        std::map<std::string, std::string> snapshot_keys;
        std::map<std::string, std::string> to_publish; // key -> name
        for (const PlannedCell &cell : cells) {
            if (snapshot_keys.count(cell.workload))
                continue;
            const std::string key = ArtifactStore::artifactKey(
                workloadFingerprint(
                    artifacts.at(cell.workload)->workload()),
                artifactFormatVersion);
            snapshot_keys.emplace(cell.workload, key);
            to_publish.emplace(key, cell.workload);
        }
        const std::vector<std::pair<std::string, std::string>> uploads(
            to_publish.begin(), to_publish.end());
        runParallel(base.resolveThreads(uploads.size()), uploads.size(),
                    [&](size_t i) {
                        const auto &[key, name] = uploads[i];
                        store_->publishArtifactOnce(
                            key, [&](const std::string &path) {
                                saveAnalyzedWorkload(*artifacts.at(name),
                                                     path, name);
                            });
                    });

        const std::vector<uint64_t> costs = estimateCellCosts(
            cells, artifacts, options_.costSource.get());
        const std::vector<std::vector<uint32_t>> partition =
            scheduleShards(costs, shards);
        schedule_ = ScheduleSummary{};
        schedule_.valid = true;
        for (const std::vector<uint32_t> &assigned : partition) {
            uint64_t shard_cost = 0;
            for (uint32_t i : assigned)
                shard_cost += costs[i];
            schedule_.shardCosts.push_back(shard_cost);
        }

        const auto now = std::chrono::steady_clock::now();
        for (unsigned s = 0; s < shards; s++) {
            ShardTask task;
            task.shard = s;
            task.name = run_tag + "-shard-" + std::to_string(s);
            task.indices = partition[s];
            task.deadline = now +
                std::chrono::milliseconds(options_.taskTimeoutMs);

            ShardManifest manifest;
            manifest.shardIndex = s;
            manifest.workerThreads = worker_threads;
            for (uint32_t i : task.indices) {
                manifest.indices.push_back(i);
                manifest.cells.push_back(cells[i]);
            }
            for (const auto &[name, key] : snapshot_keys) {
                bool used = false;
                for (const PlannedCell &cell : manifest.cells)
                    used = used || cell.workload == name;
                if (used)
                    manifest.artifacts.emplace_back(name, key);
            }
            store_->publishTask(task.name, packShardManifest(manifest));
            stats_.tasksPublished++;
            tasks.push_back(std::move(task));
        }

        std::vector<CellResult> results(cells.size());
        std::vector<char> have(cells.size(), 0);

        size_t open = tasks.size();
        while (open > 0) {
            // Claims held by spawned agents that have exited: those
            // tasks can never finish, so they fail now rather than at
            // the deadline. With every agent gone, unclaimed tasks
            // have no taker either.
            std::map<std::string, std::pair<const SpawnedAgent *,
                                            std::string>>
                orphaned; // task -> (dead agent, claim token)
            bool all_gone = false;
#if defined(CASSANDRA_POSIX_AGENTS)
            if (reapExitedAgents(agents)) {
                for (const std::string &claim :
                     store_->list("tasks/claimed")) {
                    const size_t sm = claim.find(".sm.");
                    if (sm == std::string::npos)
                        continue;
                    const std::string token = claim.substr(sm + 4);
                    for (const SpawnedAgent &agent : agents) {
                        if (agent.exited && agent.pid == tokenPid(token))
                            orphaned[claim.substr(0, sm)] = {&agent,
                                                             token};
                    }
                }
                all_gone = std::all_of(agents.begin(), agents.end(),
                                [](const SpawnedAgent &agent) {
                                    return agent.exited;
                                });
            }
#endif
            bool progressed = false;
            for (ShardTask &task : tasks) {
                if (task.resolved)
                    continue;
                auto fail = [&](std::string detail, uint64_t &counter) {
                    task.failed = true;
                    task.detail = std::move(detail);
                    counter++;
                };
                const std::string result_key =
                    ArtifactStore::resultKey(task.name);
                const std::string error_key =
                    ArtifactStore::errorKey(task.name);
                const auto dead = orphaned.find(task.name);
                if (store_->exists(result_key)) {
                    try {
                        std::vector<IndexedCellResult> partial =
                            unpackCellResults(
                                store_->fetch(result_key));
                        if (partial.size() != task.indices.size())
                            throw std::invalid_argument(
                                "task returned " +
                                std::to_string(partial.size()) +
                                " cells, expected " +
                                std::to_string(task.indices.size()));
                        for (IndexedCellResult &entry : partial) {
                            if (!std::binary_search(
                                    task.indices.begin(),
                                    task.indices.end(), entry.index) ||
                                have[entry.index])
                                throw std::invalid_argument(
                                    "task returned cell index " +
                                    std::to_string(entry.index) +
                                    " outside its assignment");
                            results[entry.index] =
                                std::move(entry.cell);
                            have[entry.index] = 1;
                        }
                        stats_.tasksCompleted++;
                    } catch (const std::exception &e) {
                        fail(e.what(), stats_.tasksFailed);
                    }
                    store_->remove(result_key);
                } else if (store_->exists(error_key)) {
                    const std::vector<uint8_t> msg =
                        store_->fetch(error_key);
                    store_->remove(error_key);
                    fail("agent reported: " +
                             std::string(msg.begin(), msg.end()),
                         stats_.tasksFailed);
                } else if (dead != orphaned.end()) {
                    const SpawnedAgent &agent = *dead->second.first;
                    store_->remove(ArtifactStore::claimedKey(
                        task.name, dead->second.second));
                    fail("agent " + std::to_string(agent.pid) + " " +
                             agent.detail + " while holding the task",
                         stats_.tasksFailed);
                    task.stderrText = stderrTail(agent.stderrPath);
                } else if (all_gone) {
                    store_->withdrawTask(task.name);
                    fail("every spawned agent exited before claiming it",
                         stats_.tasksFailed);
                } else if (std::chrono::steady_clock::now() >
                           task.deadline) {
                    // Unclaimed or lost: pull it back so no agent
                    // starts it after we have retried the cells.
                    store_->withdrawTask(task.name);
                    fail("no result within " +
                             std::to_string(options_.taskTimeoutMs) +
                             " ms (agent lost or stuck)",
                         stats_.tasksTimedOut);
                } else {
                    continue;
                }
                task.resolved = true;
                progressed = true;
                open--;
            }
            if (open > 0 && !progressed)
                sleepMs(options_.pollMs);
        }

        // Failed/timed-out tasks: one in-process retry before the run
        // fails.
        for (const ShardTask &task : tasks) {
            if (!task.failed)
                continue;
            if (!options_.retryInProcess)
                throw WorkerError(task.shard, task.detail,
                                  task.stderrText);
            std::fprintf(stderr,
                         "shard %u (%s): %s; retrying its %zu cells "
                         "in-process\n",
                         task.shard, task.name.c_str(),
                         task.detail.c_str(), task.indices.size());
            try {
                std::vector<PlannedCell> retry_cells;
                retry_cells.reserve(task.indices.size());
                for (uint32_t i : task.indices)
                    retry_cells.push_back(cells[i]);
                // The other shards are done by the time a retry runs,
                // so it gets the full coordinator budget.
                std::vector<CellResult> retried =
                    InProcessExecutor(options_.threads)
                        .execute(retry_cells, artifacts, 0);
                for (size_t i = 0; i < retried.size(); i++) {
                    results[task.indices[i]] = std::move(retried[i]);
                    have[task.indices[i]] = 1;
                }
                stats_.cellsRetried += task.indices.size();
            } catch (const std::exception &e) {
                throw WorkerError(task.shard,
                                  task.detail +
                                      "; in-process retry failed: " +
                                      e.what(),
                                  task.stderrText);
            }
        }

        for (size_t i = 0; i < cells.size(); i++) {
            if (!have[i])
                throw std::logic_error(
                    "shard merge left cell " + std::to_string(i) +
                    " unfilled");
        }
        reap_agents();
        scrub_tasks();
        return results;
    } catch (...) {
        reap_agents();
        scrub_tasks();
        throw;
    }
}

} // namespace cassandra::core
