/**
 * @file
 * Raw, vanilla and folded branch traces (paper §4.2, steps 1-2 of
 * Figure 1).
 *
 * A raw trace logs, per static branch, the target PC of every dynamic
 * execution of that branch (fall-through PC for not-taken conditional
 * branches). A vanilla trace is its run-length encoding: repeating
 * outcomes are aggregated into (target, count) run elements.
 *
 * A FoldedTrace is the incremental form of the same encoding: run
 * elements are committed online as the branch executes (never holding
 * the raw target stream), and committed elements are periodically
 * folded into (pattern x repeats) chunks when the element sequence is
 * periodic — the shape every counted loop produces. Memory held per
 * branch is O(folded RLE size), independent of the dynamic execution
 * count, which is what makes Algorithm 2 tractable on long composite
 * server traces. expand() provably reproduces toVanilla(raw): elements
 * are committed exactly on target changes, so neither chunk-internal
 * wraps nor chunk boundaries can merge adjacent runs.
 */

#ifndef CASSANDRA_CORE_BRANCH_TRACE_HH
#define CASSANDRA_CORE_BRANCH_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/machine.hh"

namespace cassandra::core {

/** Raw trace of a static branch: targets in execution order. */
using RawTrace = std::vector<uint64_t>;

/** One run element of a vanilla trace: target repeated count times. */
struct RunElement
{
    uint64_t target = 0;
    uint64_t count = 0;

    bool
    operator==(const RunElement &o) const
    {
        return target == o.target && count == o.count;
    }
};

/** Vanilla trace: run-length-encoded raw trace. */
using VanillaTrace = std::vector<RunElement>;

/** Build the vanilla trace (RLE) of a raw trace. */
VanillaTrace toVanilla(const RawTrace &raw);

/** Expand a vanilla trace back into a raw trace (for tests). */
RawTrace expandVanilla(const VanillaTrace &vanilla);

/** Total number of dynamic branch executions covered by a vanilla trace. */
uint64_t vanillaDynamicCount(const VanillaTrace &vanilla);

/**
 * Branch trace collector: attaches to a Machine's branch probe and
 * records the raw trace of every executed static branch (step B of
 * Algorithm 2). Only branches inside the program's crypto PC ranges are
 * recorded when cryptoOnly is set.
 */
class TraceCollector
{
  public:
    explicit TraceCollector(sim::Machine &machine, bool crypto_only = true);

    /** Raw traces keyed by static branch PC. */
    const std::map<uint64_t, RawTrace> &raw() const { return raw_; }

    /** Vanilla traces of all collected branches. */
    std::map<uint64_t, VanillaTrace> vanilla() const;

  private:
    std::map<uint64_t, RawTrace> raw_;
};

/**
 * Online run-length-encoded branch trace with periodic folding.
 *
 * append() consumes one dynamic branch outcome; finish() commits the
 * trailing run. Storage is a sequence of frozen chunks (pattern,
 * full-repeat count, partial prefix) followed by either an actively
 * matching chunk or a flat buffer of committed elements awaiting a
 * period. Folding decisions depend only on the committed-element
 * prefix, so two traces with equal logical content always have equal
 * structure — sameAs() compares structure in O(held elements).
 *
 * A per-branch element cap (kMaxHeldElements) bounds memory on
 * pathologically aperiodic branches: a capped trace frees its storage
 * but keeps the logical counters, and callers treat it as
 * input-dependent (stall-until-resolve), the same safe fallback the
 * paper applies to undecodable branches.
 */
class FoldedTrace
{
  public:
    /** One frozen folded section: pattern repeated `repeats` times,
     * then the first `partial` pattern elements once more. */
    struct Chunk
    {
        VanillaTrace pattern;
        uint64_t repeats = 1;
        size_t partial = 0;

        bool
        operator==(const Chunk &o) const
        {
            return repeats == o.repeats && partial == o.partial &&
                   pattern == o.pattern;
        }
    };

    /** Flat buffer size that triggers the first fold attempt. */
    static constexpr size_t kFoldBase = 64;
    /** Stored-element cap; beyond it the trace drops storage. */
    static constexpr size_t kMaxHeldElements = size_t(1) << 22;

    /** Record one dynamic execution of this branch. */
    void append(uint64_t target);
    /** Commit the trailing run; call once, after the last append(). */
    void finish();

    /** Run elements in the logical vanilla trace (valid after finish). */
    uint64_t logicalSize() const { return logicalElems_; }
    /** Total dynamic executions recorded. */
    uint64_t dynamicCount() const { return dynCount_; }
    /** True when the per-branch storage cap was exceeded. */
    bool capped() const { return capped_; }
    /** Target of the first run element (logicalSize() >= 1 only). */
    uint64_t frontTarget() const;

    /** Bytes currently held by this accumulator (O(1)). */
    uint64_t heldBytes() const;

    /** Logical-content equality with another finished trace. */
    bool sameAs(const FoldedTrace &o) const;

    /** Reconstruct the vanilla trace (finished, uncapped traces). */
    VanillaTrace expand() const;

    /**
     * When the whole logical trace is exactly one pattern repeated a
     * whole number of times, returns that pattern; else nullptr.
     * Callers may encode just the period for very long traces: the
     * BTU replays traces cyclically, so one period serves the same
     * element sequence as the full expansion.
     */
    const VanillaTrace *purePeriod() const;

  private:
    void commitElement(const RunElement &e);
    void tryFold();

    std::vector<Chunk> chunks_; ///< frozen sections, oldest first
    /** Actively matching chunk (valid when matching_). Incoming
     * committed elements must equal pattern[pos] or the chunk
     * freezes. */
    Chunk active_;
    size_t activePos_ = 0;
    bool matching_ = false;
    /** Committed elements awaiting a period (when !matching_). */
    VanillaTrace open_;
    size_t nextFoldAttempt_ = kFoldBase;

    uint64_t runTarget_ = 0; ///< in-progress run (runCount_ > 0)
    uint64_t runCount_ = 0;
    bool finished_ = false;

    uint64_t logicalElems_ = 0;
    uint64_t dynCount_ = 0;
    size_t storedElems_ = 0; ///< pattern + open elements held
    bool capped_ = false;
};

/**
 * Incremental branch trace collector: the bounded-memory counterpart
 * of TraceCollector (step B of Algorithm 2 without the raw stream).
 * Tracks the total and peak bytes held across all branch accumulators
 * so the bounded-memory claim is observable per analysis run.
 */
class FoldedTraceCollector
{
  public:
    /** Record one dynamic branch outcome. Nothing is probed
     * automatically: the caller (runFusedBranchPass) feeds outcomes in
     * execution order and applies any crypto filter. */
    void
    onBranch(uint64_t pc, uint64_t target)
    {
        FoldedTrace &t = traces_[pc];
        uint64_t before = t.heldBytes();
        t.append(target);
        held_ += t.heldBytes() - before;
        if (held_ > peak_)
            peak_ = held_;
    }

    /** Commit trailing runs on every branch; call after the run. */
    void finish();

    /** Folded traces keyed by static branch PC (after finish()). */
    const std::map<uint64_t, FoldedTrace> &traces() const
    {
        return traces_;
    }

    /** Move the traces out (the collector is spent afterwards). */
    std::map<uint64_t, FoldedTrace> take() { return std::move(traces_); }

    /** Bytes currently held across all accumulators. */
    uint64_t heldBytes() const { return held_; }
    /** Peak of heldBytes() over the whole run. */
    uint64_t peakHeldBytes() const { return peak_; }

  private:
    std::map<uint64_t, FoldedTrace> traces_;
    uint64_t held_ = 0;
    uint64_t peak_ = 0;
};

} // namespace cassandra::core

#endif // CASSANDRA_CORE_BRANCH_TRACE_HH
