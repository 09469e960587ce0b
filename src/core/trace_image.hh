/**
 * @file
 * Binary-embedded trace image (paper §5.2, "Embedding hint information").
 *
 * The trace image is what Algorithm 2 attaches to a binary: per static
 * branch a 14-bit hint word (single-target mark, 12-bit trace
 * address offset, short-trace mark) plus data pages holding the
 * serialized pattern sets and branch traces, and a memory-backed
 * checkpoint area used across BTU evictions and interrupts.
 */

#ifndef CASSANDRA_CORE_TRACE_IMAGE_HH
#define CASSANDRA_CORE_TRACE_IMAGE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "core/trace_format.hh"
#include "ir/program.hh"

namespace cassandra::core {

/** Decoded per-branch hint word (14 bits in hardware). */
struct HintInfo
{
    bool singleTarget = false;
    bool shortTrace = false;
    /** Target PC for single-target branches. */
    uint64_t targetPc = 0;
    /** Byte offset of the trace in the data pages (multi-target). */
    uint32_t traceOffset = 0;
};

/** The embedded traces + hints of one analyzed binary. */
class TraceImage
{
  public:
    /** Register the trace of a static branch. */
    void add(const BranchTrace &trace);

    /**
     * Restore an image verbatim from serialized parts (core/serialize
     * deserialization path); replaces any existing contents.
     */
    void restore(std::map<uint64_t, HintInfo> hints,
                 std::map<uint64_t, BranchTrace> traces,
                 size_t trace_bytes);

    /** True if the branch was analyzed (hint information exists). */
    bool known(uint64_t pc) const { return hints_.count(pc) != 0; }

    /** Hint word of a branch, or nullptr if unanalyzed. */
    const HintInfo *hint(uint64_t pc) const;

    /**
     * Full trace of a multi-target branch, or nullptr (single-target
     * and unanalyzed branches have none).
     */
    const BranchTrace *trace(uint64_t pc) const;

    /** All hint words, by branch pc. */
    const std::map<uint64_t, HintInfo> &hints() const { return hints_; }

    /** All traces (for iteration in benches). */
    const std::map<uint64_t, BranchTrace> &traces() const
    {
        return traces_;
    }

    /** Number of analyzed static branches. */
    size_t numBranches() const { return hints_.size(); }

    /** Total serialized size of the trace data pages, in bytes. */
    size_t traceBytes() const { return traceBytes_; }

    /** Total hint bits (14 per static branch). */
    size_t hintBits() const
    {
        return hints_.size() * TraceLimits::hintBitsPerBranch;
    }

    /** Crypto PC ranges (copied into the status register by the OS). */
    std::vector<ir::PcRange> cryptoRanges;

  private:
    std::map<uint64_t, HintInfo> hints_;
    std::map<uint64_t, BranchTrace> traces_;
    size_t traceBytes_ = 0;
};

} // namespace cassandra::core

#endif // CASSANDRA_CORE_TRACE_IMAGE_HH
