/**
 * @file
 * The run_experiment front end: its command line, the artifact
 * snapshot cache, the run and the report.
 *
 * A sweep is always a JSON config (core/experiment_config.hh; the
 * paper figures are configs/paper/<figure>.json). Command-line flags write
 * straight into the loaded ExperimentSpec, so a flag beats the
 * config key it mirrors:
 *
 *   core::ExperimentSpec spec = bench::parseCli(argc, argv);
 *   core::Experiment exp = bench::runExperiment(spec);
 *   bench::writeReport(exp, spec);
 *
 * Thread-pool sizing is decided in exactly one place — the runner
 * (RunnerOptions::resolveThreads) — the front end only forwards the
 * CLI (or config) thread count verbatim.
 */

#ifndef CASSANDRA_BENCH_BENCH_UTIL_HH
#define CASSANDRA_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/experiment_config.hh"
#include "core/serialize.hh"
#include "crypto/workload_registry.hh"

namespace cassandra::bench {

inline void
printRule(int width)
{
    for (int i = 0; i < width; i++)
        std::putchar('-');
    std::putchar('\n');
}

inline void
printCliHelp(const char *prog)
{
    std::printf(
        "usage: %s CONFIG.json [options]\n"
        "Runs the sweep a JSON experiment config describes (the paper\n"
        "figures are configs/paper/*.json); a flag overrides the config\n"
        "key it mirrors. Flags take VALUE as --flag=VALUE or --flag "
        "VALUE.\n"
        "  --config=FILE  the config, when not given positionally\n"
        "  --format=F     report format: table (default), json, csv or\n"
        "                 a paper figure reporter (fig7, ...)\n"
        "  --out=PATH     write the report to PATH instead of stdout\n"
        "  --threads=N    worker threads (default: hardware "
        "concurrency)\n"
        "  --workloads=A,B  run only the named workloads\n"
        "  --suite=S      run only the config's workloads of one suite\n"
        "  --trace-mode=M timing trace storage: whole (default, in\n"
        "                 memory) or stream (spill to chunked trace\n"
        "                 files, replay from disk; same cycles, flat\n"
        "                 peak memory)\n"
        "  --execution=E  cell execution: inprocess (default,\n"
        "                 thread pool) or subprocess (one spawned\n"
        "                 --agent process per shard over a private\n"
        "                 drop box); byte-identical reports either way\n"
        "  --shards=N     shard count for --execution=subprocess\n"
        "                 (default: auto)\n"
        "  --cache=M      persistent cell-result store: off (default),\n"
        "                 on (reuse prior results, persist fresh ones)\n"
        "                 or readonly (reuse without writing)\n"
        "  --cache-dir=D  result-store directory (default:\n"
        "                 result-cache)\n"
        "  --cache-gc-mb=N  bound the result store to N MiB after the\n"
        "                 run (oldest-access entries evicted; default\n"
        "                 0: unbounded)\n"
        "  --stats-out=F  write the run's cache/schedule telemetry\n"
        "                 JSON to F (separate from the report, which\n"
        "                 stays byte-identical warm vs. cold)\n"
        "  --list         list selectable workload names and exit\n"
        "  --help         this text\n",
        prog);
}

/** Parse an unsigned flag value in [min, max] or exit 2. */
inline uint64_t
uintOption(const std::string &flag, const std::string &value,
           uint64_t min, uint64_t max)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0' || value[0] == '-' || n < min ||
        n > max) {
        std::fprintf(stderr, "invalid %s=%s\n", flag.c_str(),
                     value.c_str());
        std::exit(2);
    }
    return n;
}

/**
 * Parse run_experiment's command line into the sweep it runs: load
 * the config (the first positional argument or --config), let every
 * flag write into the loaded spec, then expand the config's suites
 * and apply the --workloads/--suite filters into
 * spec.matrix.workloads. Exits 0 after --help/--list and 2 on an
 * unknown flag, a bad value, a malformed config or an unknown
 * workload.
 */
inline core::ExperimentSpec
parseCli(int argc, char **argv)
{
    static const char *const value_flags[] = {
        "--config",    "--format",    "--out",       "--threads",
        "--workloads", "--suite",     "--trace-mode", "--execution",
        "--shards",    "--cache",     "--cache-dir", "--cache-gc-mb",
        "--stats-out",
    };
    std::string config;
    std::vector<std::pair<std::string, std::string>> flags;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printCliHelp(argv[0]);
            std::exit(0);
        }
        if (arg == "--list") {
            const auto &reg = crypto::WorkloadRegistry::global();
            for (const std::string &name : reg.names())
                std::printf("%s (%s)\n", name.c_str(),
                            reg.suiteOf(name).c_str());
            std::exit(0);
        }
        if (!arg.empty() && arg[0] != '-' && config.empty()) {
            config = arg;
            continue;
        }
        const size_t eq = arg.find('=');
        const std::string flag = arg.substr(0, eq);
        const bool known =
            std::find(std::begin(value_flags), std::end(value_flags),
                      flag) != std::end(value_flags);
        if (!known || (eq == std::string::npos && i + 1 >= argc)) {
            std::fprintf(stderr, "%s: %s\n",
                         known ? "missing option value" : "unknown option",
                         arg.c_str());
            printCliHelp(argv[0]);
            std::exit(2);
        }
        std::string value =
            eq == std::string::npos ? argv[++i] : arg.substr(eq + 1);
        if (flag == "--config")
            config = value;
        else
            flags.emplace_back(flag, std::move(value));
    }

    core::ExperimentSpec spec;
    if (!config.empty()) {
        try {
            spec = core::loadExperimentSpec(config);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s: %s\n", config.c_str(), e.what());
            std::exit(2);
        }
    }

    std::vector<std::string> only; // --workloads
    std::string suite;             // --suite
    for (const auto &[flag, value] : flags) {
        try {
            if (flag == "--format") {
                core::makeReporter(value);
                spec.format = value;
            } else if (flag == "--out") {
                spec.out = value;
            } else if (flag == "--threads") {
                spec.threads =
                    static_cast<unsigned>(uintOption(flag, value, 0, 1024));
            } else if (flag == "--workloads") {
                size_t pos = 0;
                while (pos <= value.size()) {
                    size_t comma = value.find(',', pos);
                    if (comma == std::string::npos)
                        comma = value.size();
                    if (comma > pos)
                        only.push_back(value.substr(pos, comma - pos));
                    pos = comma + 1;
                }
            } else if (flag == "--suite") {
                suite = value;
            } else if (flag == "--trace-mode") {
                spec.traceMode = core::traceModeFromName(value);
            } else if (flag == "--execution") {
                spec.executionMode = core::executionModeFromName(value);
            } else if (flag == "--shards") {
                spec.shards =
                    static_cast<unsigned>(uintOption(flag, value, 1, 1024));
            } else if (flag == "--cache") {
                spec.cacheMode = core::cacheModeFromName(value);
            } else if (flag == "--cache-dir") {
                spec.cacheDir = value;
            } else if (flag == "--cache-gc-mb") {
                spec.cacheGcMb = uintOption(flag, value, 0, ~0ull);
            } else if (flag == "--stats-out") {
                spec.statsOut = value;
            }
        } catch (const std::invalid_argument &e) {
            // A name that selects nothing (format, mode, cache mode).
            std::fprintf(stderr, "unknown option value: %s=%s: %s\n",
                         flag.c_str(), value.c_str(), e.what());
            std::exit(2);
        }
    }
    if (config.empty()) {
        std::fprintf(stderr,
                     "usage: %s CONFIG.json [options]\n"
                     "       (see --help for the options)\n",
                     argv[0]);
        std::exit(2);
    }

    // The config's workloads: explicit names, then its suites.
    const auto &reg = crypto::WorkloadRegistry::global();
    std::vector<std::string> names = spec.matrix.workloads;
    for (const std::string &s : spec.suites) {
        const std::vector<std::string> expanded = reg.names(s);
        if (expanded.empty()) {
            std::fprintf(stderr, "%s: suite \"%s\" names no workloads\n",
                         config.c_str(), s.c_str());
            std::exit(2);
        }
        names.insert(names.end(), expanded.begin(), expanded.end());
    }
    for (const std::string &name : names) {
        if (!reg.contains(name)) {
            std::fprintf(stderr, "%s: unknown workload \"%s\"\n",
                         config.c_str(), name.c_str());
            std::exit(2);
        }
    }
    spec.suites.clear();

    // --workloads replaces the list; --suite filters it.
    spec.matrix.workloads.clear();
    if (!only.empty()) {
        for (const std::string &name : only) {
            if (!reg.contains(name)) {
                std::fprintf(stderr, "unknown workload: %s\n",
                             name.c_str());
                std::exit(2);
            }
        }
        spec.matrix.workloads = only;
        return spec;
    }
    for (const std::string &name : names) {
        if (suite.empty() || reg.suiteOf(name) == suite)
            spec.matrix.workloads.push_back(name);
    }
    if (spec.matrix.workloads.empty()) {
        std::fprintf(stderr, "no workloads selected\n");
        std::exit(2);
    }
    return spec;
}

/** Artifact snapshot path for a workload name ('/' is not a file
 * character; "synthetic/chacha20/75" -> "synthetic_chacha20_75.aw"). */
inline std::string
artifactPath(const std::string &dir, const std::string &name)
{
    std::string file = name;
    for (char &c : file) {
        if (c == '/' || c == '\\')
            c = '_';
    }
    return dir + "/" + file + ".aw";
}

/** Analysis options of one run: the spec's trace mode, stream files
 * next to the artifact snapshots (or in the default temp directory
 * when no artifact dir is configured). */
inline core::AnalyzeOptions
analyzeOptions(const core::ExperimentSpec &spec)
{
    core::AnalyzeOptions options;
    options.traceMode = spec.traceMode;
    if (!spec.artifactDir.empty())
        options.streamDir = spec.artifactDir;
    return options;
}

/**
 * Analysis cache for one run, preloaded from spec.artifactDir when
 * the config named one. Workloads without a loadable snapshot analyze
 * fresh; with artifactSave their names land in `missing` so
 * saveArtifacts can snapshot them afterwards. Snapshots with an
 * outdated container version or a mismatched fingerprint are evicted
 * (deleted) — a cache that silently re-analyzes around bad files
 * looks exactly like a working one while paying full analysis cost
 * forever.
 */
inline std::shared_ptr<core::AnalysisCache>
makeArtifactCache(const std::vector<std::string> &names,
                  const core::ExperimentSpec &spec,
                  std::vector<std::string> &missing)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto cache = std::make_shared<core::AnalysisCache>(
        resolver, analyzeOptions(spec));
    if (spec.artifactDir.empty())
        return cache;
    for (const std::string &name : names) {
        if (cache->contains(name) ||
            std::find(missing.begin(), missing.end(), name) !=
                missing.end())
            continue;
        const std::string path = artifactPath(spec.artifactDir, name);
        try {
            // Rehydrated streams belong where fresh analyses put
            // theirs (the artifact dir), not in $TMPDIR.
            cache->put(name,
                       core::loadAnalyzedWorkload(
                           path, resolver,
                           analyzeOptions(spec).streamDir));
        } catch (const core::ArtifactError &e) {
            // Outdated container version or stale fingerprint: evict
            // the file so the next save rewrites it.
            std::fprintf(stderr, "%s: %s; evicting\n", path.c_str(),
                         e.what());
            std::remove(path.c_str());
            missing.push_back(name);
        } catch (const std::invalid_argument &e) {
            // The file exists but is corrupt (e.g. truncated write):
            // re-analyzing is correct, but say so.
            std::fprintf(stderr, "%s: %s; re-analyzing %s\n",
                         path.c_str(), e.what(), name.c_str());
            missing.push_back(name);
        } catch (const std::exception &) {
            // Not snapshotted yet: analyze fresh, quietly.
            missing.push_back(name);
        }
    }
    return cache;
}

/** Snapshot freshly analyzed artifacts back into spec.artifactDir. */
inline void
saveArtifacts(
    const std::map<std::string, core::AnalyzedWorkload::Ptr> &artifacts,
    const std::vector<std::string> &missing,
    const core::ExperimentSpec &spec)
{
    if (spec.artifactDir.empty() || !spec.artifactSave)
        return;
    // Whole-mode sweeps never touch the stream layer, so the artifact
    // directory may not exist yet.
    try {
        core::ensureDirectories(spec.artifactDir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cannot create artifact dir %s: %s\n",
                     spec.artifactDir.c_str(), e.what());
        return;
    }
    for (const std::string &name : missing) {
        auto it = artifacts.find(name);
        if (it == artifacts.end())
            continue;
        try {
            core::saveAnalyzedWorkload(
                *it->second, artifactPath(spec.artifactDir, name), name);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "cannot save artifact for %s: %s\n",
                         name.c_str(), e.what());
        }
    }
}

/**
 * Run the spec's matrix with the registry resolver. When the config
 * named an artifact directory, snapshots are loaded from it instead
 * of re-analyzing and — with "save": true — freshly analyzed
 * workloads are written back; spec.statsOut receives the run's
 * telemetry.
 */
inline core::Experiment
runExperiment(const core::ExperimentSpec &spec)
{
    std::vector<std::string> missing;
    auto cache = makeArtifactCache(spec.matrix.workloads, spec, missing);

    core::RunnerOptions options(spec.threads, analyzeOptions(spec));
    options.execution = spec.executionMode;
    options.shards = spec.shards;
    options.workerBinary = spec.workerBinary;
    options.cacheMode = spec.cacheMode;
    options.cacheDir = spec.cacheDir;
    options.cacheGcMb = spec.cacheGcMb;
    core::Experiment exp =
        core::ExperimentRunner(cache, options).run(spec.matrix);
    saveArtifacts(exp.artifacts, missing, spec);
    if (!spec.statsOut.empty()) {
        std::ofstream file(spec.statsOut);
        if (!file) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         spec.statsOut.c_str());
            std::exit(1);
        }
        core::writeRunTelemetry(exp.telemetry, file);
    }
    return exp;
}

/** Write the report in spec.format ("table" when unset) to spec.out,
 * or stdout when unset. */
inline void
writeReport(const core::Experiment &exp, const core::ExperimentSpec &spec)
{
    auto reporter =
        core::makeReporter(spec.format.empty() ? "table" : spec.format);
    if (spec.out.empty()) {
        reporter->write(exp, std::cout);
        return;
    }
    std::ofstream file(spec.out);
    if (!file) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     spec.out.c_str());
        std::exit(1);
    }
    reporter->write(exp, file);
}

} // namespace cassandra::bench

#endif // CASSANDRA_BENCH_BENCH_UTIL_HH
