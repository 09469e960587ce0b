/**
 * @file
 * The experiment front end: the whole sweep — workloads, schemes,
 * SimConfig variants, trace mode, report format, artifact cache,
 * execution backend — comes from one JSON experiment config, so
 * experiments are versionable artifacts. The paper's figures and
 * tables are configs too, each printed by its named reporter:
 *
 *   run_experiment configs/paper/fig7.json          # Figure 7
 *   run_experiment configs/paper/table1.json        # Table 1
 *   run_experiment configs/ci_smoke.json --trace-mode=stream \
 *       --format=json --out=smoke.json
 *   run_experiment configs/ci_smoke_stream.json \
 *       --execution subprocess --shards 4
 *
 * The config may be given positionally or via --config=FILE; the
 * flags (--format/--out/--threads/--workloads/--suite/--trace-mode/
 * --execution/--shards/--cache/--cache-dir/--cache-gc-mb/--stats-out,
 * each as --flag=VALUE or --flag VALUE) override the config file.
 * There is no built-in matrix: no config is an error.
 *
 * The binary doubles as the shard agent of `--execution subprocess`
 * (it is its own default agent binary): the run spawns one
 *
 *   run_experiment --agent --inbox=BOX --poll-ms=N --idle-exit-ms=N
 *
 * per shard over a private drop box. Agent mode claims shard
 * manifests from the box, fetches the content-addressed snapshots they
 * reference, simulates and publishes CASSCR1 results back.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "bench/bench_util.hh"
#include "core/experiment.hh"
#include "core/subprocess_executor.hh"

using namespace cassandra;

namespace {

/**
 * This binary's own path, suitable for execv (which does not search
 * PATH the way the shell that launched us did): /proc/self/exe where
 * available, argv[0] otherwise.
 */
std::string
selfBinaryPath(const char *argv0)
{
#if !defined(_WIN32)
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
#endif
    return argv0;
}

/** Parse a non-negative integer flag value or die. */
uint64_t
uintValue(const char *flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-') {
        std::fprintf(stderr, "invalid %s=%s\n", flag, text.c_str());
        std::exit(2);
    }
    return n;
}

/** The `--agent` entry: poll a drop box for shard tasks until the
 * idle exit. */
int
agentMain(int argc, char **argv)
{
    core::AgentOptions aopts;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--agent")
            continue;
        if (arg.rfind("--inbox=", 0) == 0)
            aopts.inboxDir = arg.substr(std::strlen("--inbox="));
        else if (arg.rfind("--poll-ms=", 0) == 0)
            aopts.pollMs = uintValue(
                "--poll-ms", arg.substr(std::strlen("--poll-ms=")));
        else if (arg.rfind("--idle-exit-ms=", 0) == 0)
            aopts.idleExitMs = uintValue(
                "--idle-exit-ms",
                arg.substr(std::strlen("--idle-exit-ms=")));
        else {
            std::fprintf(stderr, "agent mode: unknown option %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (aopts.inboxDir.empty()) {
        std::fprintf(stderr,
                     "usage: %s --agent --inbox=DIR [--poll-ms=N]\n"
                     "       [--idle-exit-ms=N]\n",
                     argv[0]);
        return 2;
    }
    return core::runShardAgent(
        aopts, crypto::WorkloadRegistry::global().resolver(), std::cerr);
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--agent") == 0)
            return agentMain(argc, argv);
    }

    core::ExperimentSpec spec = bench::parseCli(argc, argv);
    // This binary implements the --agent contract, so out-of-process
    // execution spawns itself unless the config names another agent
    // binary.
    if (spec.workerBinary.empty())
        spec.workerBinary = selfBinaryPath(argv[0]);
    bench::writeReport(bench::runExperiment(spec), spec);
    return 0;
}
