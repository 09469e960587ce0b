#include "core/paper_figures.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "power/power_model.hh"
#include "uarch/params.hh"

namespace cassandra::core {

using uarch::Scheme;

namespace {

/** printf into the report stream. */
__attribute__((format(printf, 2, 3))) void
print(std::ostream &os, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list again;
    va_copy(again, args);
    char buf[512];
    const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    if (n >= static_cast<int>(sizeof buf)) {
        std::string big(static_cast<size_t>(n) + 1, '\0');
        std::vsnprintf(big.data(), big.size(), fmt, again);
        os.write(big.data(), n);
    } else if (n > 0) {
        os.write(buf, n);
    }
    va_end(again);
}

void
rule(std::ostream &os, int width)
{
    os << std::string(static_cast<size_t>(width), '-') << '\n';
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / xs.size());
}

double
cyclesRatio(const CellResult &cell, const CellResult &base)
{
    return static_cast<double>(cell.result.stats.cycles) /
        base.result.stats.cycles;
}

} // namespace

// ---------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------

void
Fig7Reporter::write(const Experiment &exp, std::ostream &os) const
{
    uarch::CoreParams params;
    print(os,
          "Core (Table 3): %u-wide F/I/C, ROB %u, IQ %u, "
          "LQ/SQ %u/%u, LTAGE-class BPU,\n"
          "L1D %u KB / L1I %u KB / L2 %u KB / L3 %u MB, "
          "BTU 16x16 entries (1.74 KiB)\n\n",
          params.fetchWidth, params.robSize, params.iqSize,
          params.lqSize, params.sqSize, params.l1d.sizeBytes / 1024,
          params.l1i.sizeBytes / 1024, params.l2.sizeBytes / 1024,
          params.l3.sizeBytes / (1024 * 1024));

    print(os, "Figure 7: execution time normalized to the Unsafe "
              "Baseline (lower is better)\n\n");
    print(os, "%-22s %10s %10s %14s %8s\n", "Workload", "insts",
          "Cassandra", "Cassandra+STL", "SPT");
    rule(os, 70);

    std::vector<double> g_cass, g_stl, g_spt;
    std::string last_suite;
    for (const std::string &name : exp.workloads) {
        const auto *base = exp.find(name, Scheme::UnsafeBaseline);
        const auto *cass = exp.find(name, Scheme::Cassandra);
        const auto *stl = exp.find(name, Scheme::CassandraStl);
        const auto *spt = exp.find(name, Scheme::Spt);
        if (!base || !cass || !stl || !spt) {
            print(os,
                  "%-22s   (skipped: figure needs all four "
                  "schemes)\n",
                  name.c_str());
            continue;
        }
        if (base->suite != last_suite) {
            print(os, "-- %s --\n", base->suite.c_str());
            last_suite = base->suite;
        }
        const double rc = cyclesRatio(*cass, *base);
        const double rs = cyclesRatio(*stl, *base);
        const double rp = cyclesRatio(*spt, *base);
        g_cass.push_back(rc);
        g_stl.push_back(rs);
        g_spt.push_back(rp);
        print(os, "%-22s %10llu %10.4f %14.4f %8.4f\n", name.c_str(),
              static_cast<unsigned long long>(
                  base->result.stats.instructions),
              rc, rs, rp);
    }
    rule(os, 70);
    print(os, "%-22s %10s %10.4f %14.4f %8.4f\n", "geomean", "",
          geomean(g_cass), geomean(g_stl), geomean(g_spt));
    print(os, "\nPaper reference: Cassandra 0.9815 (1.85%% speedup), "
              "Cassandra+STL 0.9886, SPT 1.1207.\n"
              "Expected shape: Cassandra at or slightly below 1.0 "
              "everywhere, +STL marginally above Cassandra,\n"
              "SPT above 1.0 with load-heavy kernels (bignum, DES) "
              "hit hardest.\n");
}

// ---------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------

void
Fig8Reporter::write(const Experiment &exp, std::ostream &os) const
{
    print(os, "Figure 8: overhead vs the Unsafe Baseline of each mix "
              "(negative = speedup)\n\n");
    print(os, "%-34s %12s %22s\n", "Mix", "ProSpeCT",
          "Cassandra+ProSpeCT");
    rule(os, 72);
    std::string last_group;
    for (const std::string &name : exp.workloads) {
        // "synthetic/<kernel>/<pct>"; other registry names group
        // under their own plain header.
        const size_t a = name.find('/');
        const size_t b = name.rfind('/');
        std::string group;
        if (a != std::string::npos && b > a) {
            const std::string kernel = name.substr(a + 1, b - a - 1);
            group = kernel + (kernel == "chacha20" ? " (public stack)"
                                                   : " (secret stack)");
        } else {
            group = name;
        }
        if (group != last_group) {
            print(os, "-- %s --\n", group.c_str());
            last_group = group;
        }
        const auto *base = exp.find(name, Scheme::UnsafeBaseline);
        const auto *pros = exp.find(name, Scheme::Prospect);
        const auto *combo = exp.find(name, Scheme::CassandraProspect);
        if (!base || !pros || !combo) {
            print(os,
                  "%-34s   (skipped: figure needs all three "
                  "schemes)\n",
                  name.c_str());
            continue;
        }
        print(os, "%-34s %11.2f%% %21.2f%%\n", name.c_str(),
              (cyclesRatio(*pros, *base) - 1.0) * 100.0,
              (cyclesRatio(*combo, *base) - 1.0) * 100.0);
    }
    print(os, "\nPaper reference: chacha20 0.0..0.8%% (ProSpeCT) vs "
              "-0.2..-2.8%% (Cassandra+ProSpeCT);\n"
              "curve25519 2.5..15.0%% vs -0.6..-6.7%% — ProSpeCT "
              "overhead grows with the crypto fraction when\n"
              "the stack is secret, while Cassandra+ProSpeCT "
              "improves with it.\n");
}

// ---------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------

namespace {

/** Add one cell's activity counts into the power model's input. */
void
accumulate(power::Activity &a, const ExperimentResult &r)
{
    a.cycles += r.stats.cycles;
    a.instructions += r.stats.instructions;
    a.bpuLookups += r.bpu.condLookups;
    a.bpuUpdates += r.bpu.updates;
    a.btbLookups += r.bpu.btbLookups;
    a.rsbOps += r.bpu.rsbPushes + r.bpu.rsbPops;
    a.btuLookups += r.btu.lookups;
    a.btuCommits += r.btu.commits;
    a.btuFills += r.btu.misses;
    a.l1iAccesses += r.caches.l1iAccesses;
    a.l1dAccesses += r.caches.l1dAccesses;
    a.l2Accesses += r.caches.l2Accesses;
    a.l3Accesses += r.caches.l3Accesses;
    a.loads += r.stats.loads;
    a.stores += r.stats.stores;
    a.intOps += r.stats.instructions - r.stats.loads - r.stats.stores;
}

} // namespace

void
Fig9Reporter::write(const Experiment &exp, std::ostream &os) const
{
    power::Activity base_act, cass_act;
    size_t base_cells = 0, cass_cells = 0;
    for (const CellResult &cell : exp.cells) {
        if (cell.scheme == Scheme::UnsafeBaseline) {
            accumulate(base_act, cell.result);
            base_cells++;
        } else if (cell.scheme == Scheme::Cassandra) {
            accumulate(cass_act, cell.result);
            cass_cells++;
        }
    }
    print(os, "Figure 9: power and area of Cassandra normalized to "
              "the Unsafe Baseline\n\n");
    if (base_cells == 0 || cass_cells == 0) {
        print(os, "(skipped: figure 9 needs UnsafeBaseline and "
                  "Cassandra cells)\n");
        return;
    }

    const auto base = power::evaluatePower(base_act, /*include_btu=*/false);
    const auto cass = power::evaluatePower(cass_act, /*include_btu=*/true);
    print(os, "%-22s | %10s %10s | %10s %10s\n", "Component",
          "area-base", "area-cass", "pwr-base", "pwr-cass");
    rule(os, 72);
    const double bp = base.totalPower(), ba = base.totalArea();
    auto row = [&](const char *name, const power::ComponentReport &b,
                   const power::ComponentReport &c) {
        print(os, "%-22s | %9.2f%% %9.2f%% | %9.2f%% %9.2f%%\n", name,
              100.0 * b.area / ba, 100.0 * c.area / ba,
              100.0 * b.total() / bp, 100.0 * c.total() / bp);
    };
    row("InstructionFetchUnit", base.fetchUnit, cass.fetchUnit);
    row("RenamingUnit", base.renameUnit, cass.renameUnit);
    row("LoadStoreUnit", base.loadStoreUnit, cass.loadStoreUnit);
    row("ExecutionUnit", base.executionUnit, cass.executionUnit);
    row("BranchTraceUnit", base.btu, cass.btu);
    rule(os, 72);
    print(os, "%-22s | %9.2f%% %9.2f%% | %9.2f%% %9.2f%%\n", "total",
          100.0, 100.0 * cass.totalArea() / ba, 100.0,
          100.0 * cass.totalPower() / bp);
    print(os, "\nPaper reference: Cassandra reduces power by 2.73%% "
              "(crypto branches skip the BPU) and the BTU\n"
              "adds 1.26%% area. Expected shape: fetch-unit power "
              "drops under Cassandra; the BTU adds a small\n"
              "area/power slice.\n");
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

namespace {

/** Table 1 aggregates of one workload. */
struct BranchSummary
{
    std::string workload;
    std::string suite;
    size_t branches = 0; ///< multi-target, replayable branches
    double vanillaAvg = 0, vanillaMax = 0;
    double kmersAvg = 0, kmersMax = 0;
    double rateAvg = 0, rateMax = 0;
};

BranchSummary
summarize(const std::string &name, const AnalyzedWorkload &aw)
{
    BranchSummary s;
    s.workload = name;
    s.suite = aw.workload().suite;
    double v_sum = 0, k_sum = 0, r_sum = 0;
    for (const auto *rec : aw.traces().multiTarget()) {
        if (rec->inputDependent || rec->kmersSize == 0)
            continue;
        s.branches++;
        v_sum += rec->vanillaSize;
        k_sum += rec->kmersSize;
        r_sum += rec->compressionRate();
        s.vanillaMax = std::max(s.vanillaMax, double(rec->vanillaSize));
        s.kmersMax = std::max(s.kmersMax, double(rec->kmersSize));
        s.rateMax = std::max(s.rateMax, rec->compressionRate());
    }
    if (s.branches) {
        s.vanillaAvg = v_sum / s.branches;
        s.kmersAvg = k_sum / s.branches;
        s.rateAvg = r_sum / s.branches;
    }
    return s;
}

void
printSummary(std::ostream &os, const BranchSummary &s)
{
    print(os,
          "%-22s %5zu | %12.1f %12.0f | %8.1f %8.0f | %12.1f %14.1f\n",
          s.workload.c_str(), s.branches, s.vanillaAvg, s.vanillaMax,
          s.kmersAvg, s.kmersMax, s.rateAvg, s.rateMax);
}

} // namespace

void
Table1Reporter::write(const Experiment &exp, std::ostream &os) const
{
    print(os, "Table 1: Branch analysis of cryptographic programs\n"
              "(per multi-target static branch; single-target branches "
              "excluded as in the paper)\n\n");
    print(os, "%-22s %5s | %12s %12s | %8s %8s | %12s %14s\n", "Program",
          "#br", "vanilla-avg", "vanilla-max", "kmers-avg", "kmers-max",
          "rate-avg", "rate-max");
    rule(os, 110);

    std::string last_suite;
    BranchSummary all;
    all.workload = "All";
    double v_sum = 0, k_sum = 0, r_sum = 0;
    for (const std::string &name : exp.workloads) {
        const BranchSummary s = summarize(name, *exp.artifacts.at(name));
        if (!s.branches)
            continue;
        if (s.suite != last_suite) {
            print(os, "-- %s --\n", s.suite.c_str());
            last_suite = s.suite;
        }
        printSummary(os, s);
        v_sum += s.vanillaAvg * s.branches;
        k_sum += s.kmersAvg * s.branches;
        r_sum += s.rateAvg * s.branches;
        all.branches += s.branches;
        all.vanillaMax = std::max(all.vanillaMax, s.vanillaMax);
        all.kmersMax = std::max(all.kmersMax, s.kmersMax);
        all.rateMax = std::max(all.rateMax, s.rateMax);
    }
    rule(os, 110);
    if (all.branches) {
        all.vanillaAvg = v_sum / all.branches;
        all.kmersAvg = k_sum / all.branches;
        all.rateAvg = r_sum / all.branches;
        printSummary(os, all);
    }
    print(os, "\nPaper reference (x86 gem5 traces, full-size inputs): "
              "vanilla avg 637,425.5, k-mers avg 19.9,\n"
              "compression rate avg 163,370.7x. Our scaled inputs "
              "produce shorter vanilla traces but the same shape:\n"
              "k-mers sizes of a few entries per branch and "
              "compression rates that grow with the trace length.\n");
}

// ---------------------------------------------------------------------
// BTU ablation
// ---------------------------------------------------------------------

void
AblationBtuReporter::write(const Experiment &exp, std::ostream &os) const
{
    // The config names of configs/paper/ablation_btu.json; the sweep
    // point equal to the BtuParams default is its "default" config.
    const SimConfig base_cfg;
    const unsigned fills[] = {5u, 14u, 40u, 200u};
    const size_t way_sweep[] = {1, 2, 4, 8, 16, 32};
    auto fill_config = [&](unsigned lat) -> std::string {
        return lat == base_cfg.btu.fillLatency
            ? "default"
            : "fill=" + std::to_string(lat);
    };
    auto ways_config = [&](size_t ways) -> std::string {
        return ways == base_cfg.btu.ways
            ? "default"
            : "ways=" + std::to_string(ways);
    };
    // Whether the baseline and every Cassandra sweep point ran; a
    // skip row when not.
    auto complete = [&](const std::string &name) {
        std::vector<const CellResult *> cells = {
            exp.find(name, Scheme::UnsafeBaseline, "default")};
        for (unsigned lat : fills)
            cells.push_back(
                exp.find(name, Scheme::Cassandra, fill_config(lat)));
        for (size_t ways : way_sweep)
            cells.push_back(
                exp.find(name, Scheme::Cassandra, ways_config(ways)));
        const bool found =
            std::find(cells.begin(), cells.end(), nullptr) == cells.end();
        if (!found)
            print(os,
                  "%-18s   (skipped: needs UnsafeBaseline and every "
                  "fill=/ways= config)\n",
                  name.c_str());
        return found;
    };

    print(os, "Ablation A: BTU trace-fill latency (Cassandra cycles "
              "normalized to Unsafe Baseline)\n\n");
    print(os, "%-18s", "Workload");
    for (unsigned lat : fills)
        print(os, " %8s", ("fill=" + std::to_string(lat)).c_str());
    print(os, "\n");
    rule(os, 54);
    for (const std::string &name : exp.workloads) {
        if (!complete(name))
            continue;
        const auto *base =
            exp.find(name, Scheme::UnsafeBaseline, "default");
        print(os, "%-18s", name.c_str());
        for (unsigned lat : fills)
            print(os, " %8.4f",
                  cyclesRatio(*exp.find(name, Scheme::Cassandra,
                                        fill_config(lat)),
                              *base));
        print(os, "\n");
    }

    print(os, "\nAblation B: BTU entry count (timing runs; 1 set x N "
              "ways, fill 14)\n\n");
    print(os, "%-18s %6s %10s %12s %12s %12s %12s\n", "Workload", "ways",
          "vs base", "hits", "misses", "evictions", "ckpt-rest");
    rule(os, 88);
    for (const std::string &name : exp.workloads) {
        if (!complete(name))
            continue;
        const auto *base =
            exp.find(name, Scheme::UnsafeBaseline, "default");
        for (size_t ways : way_sweep) {
            const auto *cass =
                exp.find(name, Scheme::Cassandra, ways_config(ways));
            const auto &btu = cass->result.btu;
            print(os, "%-18s %6zu %10.4f %12llu %12llu %12llu %12llu\n",
                  ways == way_sweep[0] ? name.c_str() : "", ways,
                  cyclesRatio(*cass, *base),
                  static_cast<unsigned long long>(btu.hits),
                  static_cast<unsigned long long>(btu.misses),
                  static_cast<unsigned long long>(btu.evictions),
                  static_cast<unsigned long long>(btu.checkpointRestores));
        }
    }
    print(os, "\nTakeaway: 16 entries cover the hot branch working "
              "set of most kernels (the generic-i31 EC ladder is the "
              "stress case); fewer ways force evictions whose "
              "checkpointed refills charge the fill latency, which "
              "is why the fill sweep only moves cold-miss-heavy "
              "workloads.\n");
}

// ---------------------------------------------------------------------
// §8 Q3
// ---------------------------------------------------------------------

namespace {

/** Nominal core clock for requests/sec-equivalent throughput. The
 * absolute number is a presentation scale (the simulator has no wall
 * clock); ratios between schemes are clock-independent. */
constexpr double kNominalHz = 3e9;

/** Request count of a server/<mix>/<n> workload name; 0 when the name
 * is not a server mix (single-kernel rows have no request notion). */
uint64_t
serverRequests(const std::string &name)
{
    const std::string prefix = "server/";
    if (name.compare(0, prefix.size(), prefix) != 0)
        return 0;
    const size_t slash = name.find('/', prefix.size());
    if (slash == std::string::npos || slash + 1 >= name.size())
        return 0;
    return std::strtoull(name.c_str() + slash + 1, nullptr, 10);
}

} // namespace

void
Q3Reporter::write(const Experiment &exp, std::ostream &os) const
{
    std::vector<std::string> servers, kernels;
    for (const std::string &name : exp.workloads)
        (serverRequests(name) ? servers : kernels).push_back(name);

    // Server macro table: requests/sec per scheme, in matrix scheme
    // order (the first cell of each scheme).
    if (!servers.empty()) {
        print(os,
              "Q3: server request-mix throughput "
              "(requests/sec at a nominal %.0f GHz)\n\n",
              kNominalHz / 1e9);
        print(os, "%-18s %-16s %12s %12s %10s\n", "Workload", "Scheme",
              "cycles", "req/s", "vs base");
        rule(os, 72);
        std::map<std::string, std::vector<double>> retention;
        for (const std::string &name : servers) {
            const auto *base = exp.find(name, Scheme::UnsafeBaseline);
            if (!base) {
                print(os, "%-18s   (skipped: no UnsafeBaseline cell)\n",
                      name.c_str());
                continue;
            }
            const uint64_t n = serverRequests(name);
            std::vector<Scheme> seen;
            for (const CellResult &cell : exp.cells) {
                if (cell.workload != name ||
                    std::find(seen.begin(), seen.end(), cell.scheme) !=
                        seen.end())
                    continue;
                seen.push_back(cell.scheme);
                const uint64_t cycles = cell.result.stats.cycles;
                const double ratio = cyclesRatio(cell, *base);
                print(os, "%-18s %-16s %12llu %12.0f %9.3fx\n",
                      name.c_str(), uarch::schemeName(cell.scheme),
                      static_cast<unsigned long long>(cycles),
                      static_cast<double>(n) * kNominalHz /
                          static_cast<double>(cycles),
                      ratio);
                if (cell.scheme != Scheme::UnsafeBaseline)
                    retention[uarch::schemeName(cell.scheme)].push_back(
                        1.0 / ratio);
            }
        }
        rule(os, 72);
        for (const auto &[scheme, kept] : retention)
            print(os,
                  "%-18s geomean throughput retention: "
                  "%.1f%% of baseline\n",
                  scheme.c_str(), geomean(kept) * 100.0);
        print(os, "\n");
    }
    if (kernels.empty())
        return;

    // Single-kernel rows: the original Q3 lite-over-full table.
    print(os, "Q3: Cassandra-lite slowdown over full Cassandra\n\n");
    print(os, "%-22s %10s %10s %10s\n", "Workload", "lite/cass",
          "lite/base", "cass/base");
    rule(os, 58);
    std::map<std::string, std::vector<double>> suite_ratios;
    for (const std::string &name : kernels) {
        const auto *base = exp.find(name, Scheme::UnsafeBaseline);
        const auto *cass = exp.find(name, Scheme::Cassandra);
        const auto *lite = exp.find(name, Scheme::CassandraLite);
        if (!base || !cass || !lite) {
            print(os, "%-22s   (skipped: Q3 needs all three schemes)\n",
                  name.c_str());
            continue;
        }
        const double lc = cyclesRatio(*lite, *cass);
        print(os, "%-22s %10.4f %10.4f %10.4f\n", name.c_str(), lc,
              cyclesRatio(*lite, *base), cyclesRatio(*cass, *base));
        suite_ratios[base->suite].push_back(lc);
    }
    rule(os, 58);
    for (const auto &[suite, ratios] : suite_ratios)
        print(os, "%-22s lite slowdown over Cassandra: %+.2f%%\n",
              suite.c_str(), (geomean(ratios) - 1.0) * 100.0);
    print(os, "\nPaper reference: 2.7%% (BearSSL), 6.7%% (OpenSSL), "
              "4.7%% (PQC) slowdown of lite over full\n"
              "Cassandra, with large outliers (22%% OpenSSL sha256, "
              "8%% kyber512) where conditional branches\n"
              "and returns dominate.\n");
}

// ---------------------------------------------------------------------
// §8 Q4
// ---------------------------------------------------------------------

void
Q4Reporter::write(const Experiment &exp, std::ostream &os) const
{
    // The config names of configs/paper/q4.json.
    const uint64_t periods[] = {0, 12'000'000, 1'000'000, 100'000,
                                10'000};
    constexpr size_t kPeriods = sizeof periods / sizeof periods[0];
    auto config = [](uint64_t period) {
        return period == 0 ? std::string("flush=never")
                           : "flush=" + std::to_string(period);
    };

    print(os, "Q4: Cassandra speedup vs baseline under periodic BTU "
              "flushes\n\n");
    print(os, "%-14s", "flush period");
    for (uint64_t p : periods) {
        if (p == 0)
            print(os, "%12s", "never");
        else
            print(os, "%12llu", static_cast<unsigned long long>(p));
    }
    print(os, "\n");
    rule(os, 14 + 12 * kPeriods);

    std::vector<std::vector<double>> ratios(kPeriods);
    for (const std::string &name : exp.workloads) {
        const auto *base =
            exp.find(name, Scheme::UnsafeBaseline, config(0));
        const CellResult *cass[kPeriods];
        bool complete = base != nullptr;
        for (size_t i = 0; i < kPeriods; i++) {
            cass[i] = exp.find(name, Scheme::Cassandra, config(periods[i]));
            complete = complete && cass[i];
        }
        if (!complete) {
            print(os,
                  "%-14s   (skipped: needs UnsafeBaseline and every "
                  "flush= config)\n",
                  name.substr(0, 13).c_str());
            continue;
        }
        print(os, "%-14s", name.substr(0, 13).c_str());
        for (size_t i = 0; i < kPeriods; i++) {
            const double r = cyclesRatio(*cass[i], *base);
            ratios[i].push_back(r);
            print(os, "%12.4f", r);
        }
        print(os, "\n");
    }
    rule(os, 14 + 12 * kPeriods);
    print(os, "%-14s", "geomean");
    for (size_t i = 0; i < kPeriods; i++)
        print(os, "%12.4f", geomean(ratios[i]));
    print(os, "\n\nPaper reference: flushing at 250 Hz shaves the "
              "1.85%% improvement to 1.80%%; only absurdly\n"
              "aggressive flush periods should visibly hurt.\n");
}

} // namespace cassandra::core
