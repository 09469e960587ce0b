/**
 * @file
 * Branch Trace Unit (paper §5, Figure 3).
 *
 * The BTU holds three inclusive, jointly managed tables — the Pattern
 * Table (PAT), the Trace Cache (TRC) and the Checkpoint Table (CPT) —
 * with 16 entries of 16 elements each (1.74 KiB, Table 3). On a crypto
 * branch fetch, the BTU resolves the next PC from the head of the TRC
 * entry (crypto fetch flow); on commit it retires trace progress and
 * checkpoints it in the CPT (crypto commit flow); on ROB squashes the
 * fetch-time cursor is rebuilt from the committed checkpoint plus the
 * surviving in-flight occurrences; evictions and flushes write
 * checkpoints back to a memory-backed area so that re-appearing
 * branches resume where they left off.
 *
 * The paper describes the tables as PC-indexed with LRU eviction; we
 * implement a set-associative structure (default fully associative,
 * 16 ways, LRU) with configurable geometry. The simulator indexes
 * every analyzed static branch once, at construction, in a dense table
 * keyed by (pc - lowest analyzed pc) / instBytes: each slot holds the
 * branch's hint, its replayable trace, the way it is resident in (if
 * any) and its memory-backed checkpoint, so the fetch and commit flows
 * touch no map and scan no ways on a hit.
 */

#ifndef CASSANDRA_BTU_BTU_HH
#define CASSANDRA_BTU_BTU_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/trace_image.hh"

namespace cassandra::btu {

/** BTU geometry and timing. */
struct BtuParams
{
    size_t sets = 1;
    size_t ways = 16;
    /** Cycles to fill a trace from the data pages (L2-class access). */
    unsigned fillLatency = 14;
};

/** Activity counters (feed the power model and the benches). */
struct BtuStats
{
    uint64_t lookups = 0;
    uint64_t singleTargetHits = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t checkpointRestores = 0;
    uint64_t stallResolve = 0; ///< input-dependent / rejected branches
    uint64_t windowStalls = 0; ///< all 16 TRC elements in flight
    uint64_t prefetches = 0;   ///< long-trace element refills at commit
    uint64_t flushes = 0;
    uint64_t commits = 0;
    uint64_t squashRewinds = 0;
};

/** Branch Trace Unit model. */
class Btu
{
  public:
    /** Outcome of a crypto-branch fetch lookup. */
    enum class Outcome
    {
        SingleTarget, ///< resolved from the hint word, no BTU entry
        Hit,          ///< resolved from a resident TRC entry
        MissFill,     ///< resolved after filling (charge fillLatency)
        StallResolve, ///< no replayable trace; stall until resolve
        WindowStall,  ///< whole TRC entry speculative; retry later
    };

    struct LookupResult
    {
        Outcome outcome;
        uint64_t target = 0;
    };

    /**
     * Index every branch of `image`; the image must not change while
     * the Btu lives.
     * @throws std::invalid_argument if an analyzed branch pc is not
     *         instruction-aligned relative to the lowest one.
     */
    Btu(const core::TraceImage &image, BtuParams params = {});

    /** Crypto fetch flow: determine the next PC after branch pc. */
    LookupResult fetchLookup(uint64_t pc);

    /** Crypto commit flow: retire one execution of branch pc. */
    void commitBranch(uint64_t pc);

    /**
     * ROB squash recovery: rebuild every resident fetch cursor as the
     * committed cursor advanced by the number of still-in-flight
     * (fetched, not squashed, not committed) executions of that branch,
     * which the pipeline reports through in_flight_of.
     */
    void rewindFetch(const std::function<uint64_t(uint64_t)> &in_flight_of);

    /** Context-switch flush (paper Q4): checkpoint and invalidate. */
    void flush();

    const BtuStats &stats() const { return stats_; }
    const BtuParams &params() const { return params_; }

  private:
    /** Replay cursor over a branch trace. */
    struct Cursor
    {
        /** Monotonic element index (modulo trace length when used). */
        uint64_t elemIdx = 0;
        /** Remaining passes of the current element's pattern. */
        uint32_t passRem = 0;
        /** Remaining branch executions in the current pass. */
        uint32_t patRem = 0;
    };

    static constexpr uint32_t notResident = ~0u;

    /** Per-static-branch state: one per analyzed branch. */
    struct Branch
    {
        const core::HintInfo *hint = nullptr;
        /** Replayable trace; null for input-dependent, rejected and
         * single-target branches (which never take an entry). */
        const core::BranchTrace *trace = nullptr;
        /** Index into entries_ while resident, else notResident. */
        uint32_t slot = notResident;
        /** Memory-backed CPT area: committed cursor saved on
         * eviction, valid when checkpointed. */
        bool checkpointed = false;
        Cursor checkpoint;
    };

    struct Entry
    {
        bool valid = false;
        uint64_t pc = 0;
        uint32_t branch = 0; ///< index into branches_
        Cursor fetch;
        Cursor commit;
        uint64_t lastUse = 0;
    };

    Cursor initialCursor(const core::BranchTrace &trace) const;
    /** Target of the cursor's current position. */
    uint64_t targetAt(const core::BranchTrace &trace,
                      const Cursor &cur) const;
    /** Advance a cursor by one branch execution. */
    void advance(const core::BranchTrace &trace, Cursor &cur) const;
    /** The analyzed branch at pc, or null (unanalyzed, misaligned or
     * outside the analyzed range). */
    Branch *branchAt(uint64_t pc);
    size_t victimFor(uint64_t pc) const;
    void evict(Entry &entry);

    BtuParams params_;
    std::vector<Entry> entries_; ///< sets x ways
    /** Lowest analyzed branch pc: the dense table's origin. */
    uint64_t base_ = 0;
    /** (pc - base_) / instBytes -> 1 + index into branches_; 0 marks
     * an unanalyzed pc. */
    std::vector<uint32_t> branchIndex_;
    std::vector<Branch> branches_;
    uint64_t useClock_ = 0;
    BtuStats stats_;
};

} // namespace cassandra::btu

#endif // CASSANDRA_BTU_BTU_HH
