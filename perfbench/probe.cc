/**
 * @file
 * Per-layer probe of the repository benchmark (perfbench/run.py).
 *
 * One invocation makes one pass over the matrix of an experiment
 * config and times, from outside, the public entry point of each layer
 * a cell crosses: one thread and one call at a time, so no span has to
 * live inside the program. Workloads are handled one after another and
 * dropped before the next one, so memory stays at one workload's
 * artifacts.
 *
 *   perfbench_probe --config=FILE --tmp=DIR --worker=RUN_EXPERIMENT
 *
 * The config must use whole-mode traces and the in-process executor,
 * as the benchmark's sweeps do. Layers those sweeps do not cross are
 * still timed on the matrix's kernels: the taint walk and the CASSTF2
 * stream on every workload, snapshot save/load and the subprocess
 * executor on the first workload of the matrix only. Schemes
 * the matrix does not list are timed on the default config so that
 * every scheme's core number exists on every workload.
 *
 * Output: one JSON line of raw seconds, byte and op counts, plus the
 * counters of every matrix cell so the caller can check them against
 * its reference results.
 */

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzed_workload.hh"
#include "core/cell_executor.hh"
#include "core/experiment.hh"
#include "core/experiment_config.hh"
#include "core/result_store.hh"
#include "core/serialize.hh"
#include "core/trace_stream.hh"
#include "crypto/workload_registry.hh"
#include "sim/machine.hh"
#include "uarch/pipeline.hh"

using namespace cassandra;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Every scheme, in enum spelling (metric names allow no '+'). */
const std::vector<std::pair<uarch::Scheme, const char *>> allSchemes = {
    {uarch::Scheme::UnsafeBaseline, "UnsafeBaseline"},
    {uarch::Scheme::Cassandra, "Cassandra"},
    {uarch::Scheme::CassandraStl, "CassandraStl"},
    {uarch::Scheme::CassandraLite, "CassandraLite"},
    {uarch::Scheme::Spt, "Spt"},
    {uarch::Scheme::Prospect, "Prospect"},
};

struct Totals
{
    std::map<std::string, double> sec;
    std::map<std::string, double> count;
    std::map<std::string, double> peak;

    void add(const std::string &k, double s) { sec[k] += s; }
    void tally(const std::string &k, double n) { count[k] += n; }
    void
    high(const std::string &k, double v)
    {
        if (v > peak[k])
            peak[k] = v;
    }
};

uint64_t
fileBytes(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0
        ? static_cast<uint64_t>(st.st_size)
        : 0;
}

void
jsonMap(std::ostream &os, const char *key,
        const std::map<std::string, double> &m)
{
    os << "\"" << key << "\":{";
    bool first = true;
    for (const auto &[k, v] : m) {
        os << (first ? "" : ",") << "\"" << k << "\":" << v;
        first = false;
    }
    os << "}";
}

/** Time one workload's layers; appends matrix-cell counters to `cells`. */
void
probeWorkload(const std::string &name, const core::ExperimentSpec &spec,
              const std::vector<core::SimConfig> &configs,
              core::AnalysisPhaseMask needed, const std::string &tmp,
              Totals &t, std::ostringstream &cells,
              std::vector<core::AnalyzedWorkload::Ptr> *keep)
{
    const auto &reg = crypto::WorkloadRegistry::global();

    // Registry: the workload build the sweep does per matrix name.
    auto t0 = Clock::now();
    core::Workload wl = reg.make(name);
    t.add("make", since(t0));

    // Functional machine on the evaluation input.
    {
        sim::Machine m(wl.program);
        wl.setInput(m, 2);
        t0 = Clock::now();
        const sim::RunResult r = m.run(wl.maxDynInsts);
        t.add("machine", since(t0));
        t.tally("machine_insts", static_cast<double>(r.instCount));
    }

    // The fused recording pass (trace + taint when the matrix needs
    // it).
    auto aw = core::AnalyzedWorkload::analyze(wl, core::AnalyzeOptions{});
    t0 = Clock::now();
    aw->ensurePhases(core::PhaseTimingTrace |
                     (needed & core::PhaseTaint));
    t.add("record", since(t0));
    const double ops = static_cast<double>(aw->numOps());
    t.tally("ops", ops);

    // Algorithm 2: folding (steps A-C) and k-mers (steps D-E).
    t0 = Clock::now();
    aw->ensurePhases(core::PhaseTraceImage);
    t.add("tracegen", since(t0));
    const core::TraceGenTimings &tg = aw->traces().timings;
    t.add("tracegen_fold", tg.detectSec + tg.rawSec + tg.vanillaSec);
    t.add("tracegen_kmers", tg.dnaSec + tg.kmersSec);
    t.high("tracegen_peak_accum_bytes",
          static_cast<double>(aw->traces().peakAccumBytes));

    // Taint walk over the recorded ops (only the feed calls timed).
    {
        uarch::TaintWalker walker(wl.secretRegions);
        auto src = aw->openOpSource();
        uarch::OpBatch b;
        double s = 0;
        while (src->nextBatch(b, uarch::timingOpBatchOps) > 0) {
            t0 = Clock::now();
            for (size_t i = 0; i < b.size; i++)
                walker.feed(*b.inst[i], b.memAddr[i], b.crypto[i] != 0);
            s += since(t0);
        }
        t.add("taint", s);
    }

    // CASSTF2 encode (appendBatch + finish) and decode (nextBatch).
    {
        const std::string path = tmp + "/probe.casstf";
        const uint64_t fp = core::programFingerprint(wl.program);
        double s = 0;
        {
            core::TraceStreamWriter writer(path, fp);
            auto src = aw->openOpSource();
            uarch::OpBatch b;
            while (src->nextBatch(b, uarch::timingOpBatchOps) > 0) {
                t0 = Clock::now();
                writer.appendBatch(b);
                s += since(t0);
            }
            t0 = Clock::now();
            writer.finish();
            s += since(t0);
        }
        t.add("encode", s);
        t.tally("encoded_bytes", static_cast<double>(fileBytes(path)));
        {
            t0 = Clock::now();
            core::TraceCursor cursor(path, wl.program);
            uarch::OpBatch b;
            uint64_t decoded = 0;
            while (cursor.nextBatch(b, uarch::timingOpBatchOps) > 0)
                decoded += b.size;
            t.add("decode", since(t0));
            if (decoded != aw->numOps())
                throw std::runtime_error("stream lost ops of " + name);
        }
        std::remove(path.c_str());
    }

    // OooCore per scheme over the whole-mode artifact (no decode).
    aw->ensurePhases(core::allAnalysisPhases);
    const core::Simulation sim(aw);
    core::ResultStore store(tmp + "/probe-store");
    for (const auto &[scheme, sname] : allSchemes) {
        bool listed = false;
        for (uarch::Scheme s : spec.matrix.schemes)
            listed |= s == scheme;
        const std::vector<core::SimConfig> one = {configs.front()};
        for (const core::SimConfig &cfg : listed ? configs : one) {
            const core::SimConfig c = cfg.withScheme(scheme);
            t0 = Clock::now();
            const core::ExperimentResult r = sim.run(c);
            const double s = since(t0);
            t.add(std::string("ooo.") + sname, s);
            t.tally(std::string("ooo_ops.") + sname, ops);
            if (!listed)
                continue;
            t.add("ooo_in_matrix", s);
            cells << (cells.tellp() > 0 ? "," : "") << "[\"" << name
                  << "\",\"" << uarch::schemeName(scheme) << "\",\""
                  << cfg.name << "\"," << r.stats.cycles << ","
                  << r.stats.instructions << "]";

            // Result store: one write and one read per cell.
            const core::ResultStoreKey key =
                core::resultStoreKey(wl, scheme, cfg);
            t0 = Clock::now();
            store.store(key, r);
            t.add("store", since(t0));
            core::ExperimentResult back;
            t0 = Clock::now();
            const bool hit = store.lookup(key, back);
            t.add("lookup", since(t0));
            t.tally("store_entries", 1);
            if (!hit || back.stats.cycles != r.stats.cycles)
                throw std::runtime_error("result store lost a cell of " +
                                         name);
        }
    }

    if (keep) {
        // Snapshot save/load of the sweep-mode artifact.
        const std::string path = tmp + "/probe.aw";
        t0 = Clock::now();
        core::saveAnalyzedWorkload(*aw, path, name);
        t.add("save", since(t0));
        t.tally("snapshot_bytes", static_cast<double>(fileBytes(path)));
        t0 = Clock::now();
        auto loaded =
            core::loadAnalyzedWorkload(path, reg.resolver(), tmp);
        t.add("load", since(t0));
        if (loaded->numOps() != aw->numOps())
            throw std::runtime_error("snapshot lost ops of " + name);
        std::remove(path.c_str());
        keep->push_back(aw);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string config, tmp, worker;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        auto val = [&](const char *flag) {
            const size_t n = std::strlen(flag);
            return a.compare(0, n, flag) == 0 ? a.substr(n) : std::string();
        };
        if (!val("--config=").empty())
            config = val("--config=");
        else if (!val("--tmp=").empty())
            tmp = val("--tmp=");
        else if (!val("--worker=").empty())
            worker = val("--worker=");
        else {
            std::fprintf(stderr, "probe: unknown option %s\n", a.c_str());
            return 2;
        }
    }
    if (config.empty() || tmp.empty() || worker.empty()) {
        std::fprintf(stderr, "usage: %s --config=FILE --tmp=DIR "
                             "--worker=BIN\n",
                     argv[0]);
        return 2;
    }

    try {
        const auto &reg = crypto::WorkloadRegistry::global();
        core::ExperimentSpec spec = core::loadExperimentSpec(config);
        std::vector<std::string> names = spec.matrix.workloads;
        for (const std::string &suite : spec.suites)
            for (const std::string &n : reg.names(suite))
                names.push_back(n);
        std::vector<core::SimConfig> configs = spec.matrix.configs;
        if (configs.empty())
            configs.push_back(core::SimConfig{});
        const core::AnalysisPhaseMask needed =
            core::ExperimentRunner::neededPhases({spec.matrix});

        if (spec.traceMode != core::TraceMode::Whole ||
            spec.executionMode != core::ExecutionMode::InProcess)
            throw std::runtime_error(
                "the probe takes whole-mode, in-process configs only");
        Totals t;
        std::ostringstream cells;
        std::vector<core::AnalyzedWorkload::Ptr> kept;
        for (size_t i = 0; i < names.size(); i++)
            probeWorkload(names[i], spec, configs, needed, tmp, t, cells,
                          i == 0 ? &kept : nullptr);

        // Executor overhead: the same already-analyzed cells through
        // the subprocess executor and through the in-process one.
        {
            auto cache = std::make_shared<core::AnalysisCache>(
                reg.resolver(), core::AnalyzeOptions{});
            core::ExperimentMatrix m = spec.matrix;
            m.workloads.clear();
            for (size_t i = 0; i < kept.size(); i++) {
                cache->put(names[i], kept[i]);
                m.workloads.push_back(names[i]);
            }
            m.configs = configs;
            const unsigned shards = 2;
            core::RunnerOptions ro(shards);
            ro.shards = shards;
            ro.workerBinary = worker;
            ro.scratchDir = tmp;
            ro.execution = core::ExecutionMode::Subprocess;
            auto t0 = Clock::now();
            const core::Experiment sub =
                core::ExperimentRunner(cache, ro).run(m);
            const double sub_s = since(t0);
            ro.execution = core::ExecutionMode::InProcess;
            t0 = Clock::now();
            const core::Experiment inproc =
                core::ExperimentRunner(cache, ro).run(m);
            const double in_s = since(t0);
            for (size_t i = 0; i < sub.cells.size(); i++)
                if (sub.cells[i].result.stats.cycles !=
                    inproc.cells[i].result.stats.cycles)
                    throw std::runtime_error(
                        "subprocess and in-process cells differ");
            t.add("subprocess", sub_s);
            t.add("inprocess", in_s);
        }

        std::ostringstream os;
        os.precision(17);
        os << "{";
        jsonMap(os, "seconds", t.sec);
        os << ",";
        jsonMap(os, "counts", t.count);
        os << ",";
        jsonMap(os, "peaks", t.peak);
        os << ",\"cells\":[" << cells.str() << "]}";
        std::cout << os.str() << std::endl;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "probe: %s\n", e.what());
        return 1;
    }
    return 0;
}
