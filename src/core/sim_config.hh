/**
 * @file
 * One simulation configuration, bundled.
 *
 * A SimConfig carries everything that defines a timing run — the
 * protection scheme, the core parameters (Table 3) and the BTU
 * geometry/timing — and flows intact from Simulation::run through
 * OooCore into the Btu constructor.
 * Benches sweep any knob (BTU sets/ways/fill latency, core width, ROB
 * size, cache geometry, flush period) by deriving configs from a
 * base:
 *
 *   core::SimConfig cfg;
 *   cfg.scheme = uarch::Scheme::Cassandra;
 *   cfg.btu.ways = 4;
 *   auto res = sim.run(cfg);
 *
 * The fluent with*() helpers return modified copies so a sweep can be
 * written as a list of derived configs; configs also deserialize from
 * JSON sweep files (core/experiment_config) with snake_case field
 * overrides.
 */

#ifndef CASSANDRA_CORE_SIM_CONFIG_HH
#define CASSANDRA_CORE_SIM_CONFIG_HH

#include <stdexcept>
#include <string>
#include <utility>

#include "btu/btu.hh"
#include "uarch/params.hh"

namespace cassandra::core {

/**
 * How a run's timing trace is stored and iterated.
 *
 * Whole keeps the recorded trace as an in-memory vector (fastest, ~40
 * bytes/op resident). Stream spills it to a chunked trace file at
 * analysis time and replays it through a TraceCursor, so peak memory
 * stays at one frame regardless of trace length. Cycle results are
 * identical in both modes. It is a run-level analysis setting
 * (AnalyzeOptions::traceMode), not part of any SimConfig: one
 * artifact serves every cell of its workload.
 */
enum class TraceMode
{
    Whole,
    Stream,
};

inline const char *
traceModeName(TraceMode mode)
{
    return mode == TraceMode::Stream ? "stream" : "whole";
}

inline TraceMode
traceModeFromName(const std::string &name)
{
    if (name == "whole")
        return TraceMode::Whole;
    if (name == "stream")
        return TraceMode::Stream;
    throw std::invalid_argument("unknown trace mode \"" + name +
                                "\" (expected whole or stream)");
}

/** Scheme + core + BTU parameters of one timing run. */
struct SimConfig
{
    /** Label used by the experiment reporters ("default" base). */
    std::string name = "default";
    uarch::Scheme scheme = uarch::Scheme::UnsafeBaseline;
    uarch::CoreParams core;
    btu::BtuParams btu;

    /** Copy with a new report label. */
    SimConfig
    named(std::string n) const
    {
        SimConfig c = *this;
        c.name = std::move(n);
        return c;
    }

    /** Copy under another protection scheme. */
    SimConfig
    withScheme(uarch::Scheme s) const
    {
        SimConfig c = *this;
        c.scheme = s;
        return c;
    }

    /** Copy with a different BTU geometry. */
    SimConfig
    withBtuGeometry(size_t sets, size_t ways) const
    {
        SimConfig c = *this;
        c.btu.sets = sets;
        c.btu.ways = ways;
        return c;
    }

    /** Copy with a different BTU trace-fill latency. */
    SimConfig
    withBtuFillLatency(unsigned latency) const
    {
        SimConfig c = *this;
        c.btu.fillLatency = latency;
        return c;
    }

    /** Copy with a periodic BTU flush (paper Q4; 0 disables). */
    SimConfig
    withFlushPeriod(uint64_t period) const
    {
        SimConfig c = *this;
        c.core.btuFlushPeriod = period;
        return c;
    }
};

/**
 * The first geometry field of `cfg` the timing model cannot run with,
 * spelled as its config-file key ("core.rob_size", "core.l1d.ways",
 * "btu.sets"), or "" when every one is usable. Each of these fields
 * divides an address, sizes a ring or paces a per-cycle loop, so 0
 * would crash or hang the simulator. The config parser and the shard
 * manifest reader reject a config this flags with their own schema
 * errors; Simulation::run rejects any other (a hand-built SimConfig)
 * with std::invalid_argument.
 */
inline std::string
invalidGeometryKey(const SimConfig &cfg)
{
    const uarch::CoreParams &c = cfg.core;
    const std::pair<const char *, uint64_t> fields[] = {
        {"core.fetch_width", c.fetchWidth},
        {"core.commit_width", c.commitWidth},
        {"core.issue_width", c.issueWidth},
        {"core.rob_size", c.robSize},
        {"core.iq_size", c.iqSize},
        {"core.lq_size", c.lqSize},
        {"core.sq_size", c.sqSize},
        {"core.num_alu", c.numAlu},
        {"core.num_mul", c.numMul},
        {"core.num_lsu", c.numLsu},
        {"core.l1i.line_bytes", c.l1i.lineBytes},
        {"core.l1i.ways", c.l1i.ways},
        {"core.l1d.line_bytes", c.l1d.lineBytes},
        {"core.l1d.ways", c.l1d.ways},
        {"core.l2.line_bytes", c.l2.lineBytes},
        {"core.l2.ways", c.l2.ways},
        {"core.l3.line_bytes", c.l3.lineBytes},
        {"core.l3.ways", c.l3.ways},
        {"btu.sets", cfg.btu.sets},
        {"btu.ways", cfg.btu.ways},
    };
    for (const auto &[key, value] : fields)
        if (value == 0)
            return key;
    return "";
}

} // namespace cassandra::core

#endif // CASSANDRA_CORE_SIM_CONFIG_HH
