/**
 * @file
 * Test-only builder of the retired all-raw CASSTF1 trace container.
 * The library no longer writes or reads it; the tests build one byte
 * by byte to check that every reader rejects it with the evictable
 * ArtifactFormatError, and to size what raw 24 B/op frames would take.
 */

#ifndef CASSANDRA_TESTS_CASSTF1_HH
#define CASSANDRA_TESTS_CASSTF1_HH

#include <cstdint>
#include <vector>

#include "uarch/pipeline.hh"

namespace cassandra::test {

/**
 * "CASSTF1\n" | u32 version=1 | u32 frameOps | u64 fingerprint
 * | u64 numOps | ops (pc, memAddr, nextPc; 24 B each)
 * | index (u64 offset per frame) | u64 indexPos | u64 numFrames,
 * all little-endian.
 */
inline std::vector<uint8_t>
casstf1Bytes(uint64_t program_fingerprint, const uarch::TimingTrace &trace,
             uint32_t frame_ops)
{
    std::vector<uint8_t> out;
    auto put = [&out](uint64_t v, int bytes) {
        for (int i = 0; i < bytes; i++)
            out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    for (char c : {'C', 'A', 'S', 'S', 'T', 'F', '1', '\n'})
        out.push_back(static_cast<uint8_t>(c));
    put(1, 4);
    put(frame_ops, 4);
    put(program_fingerprint, 8);
    put(trace.size(), 8);
    for (const uarch::TimingOp &op : trace) {
        put(op.pc, 8);
        put(op.memAddr, 8);
        put(op.nextPc, 8);
    }
    const uint64_t index_pos = out.size();
    const uint64_t frames = (trace.size() + frame_ops - 1) / frame_ops;
    for (uint64_t f = 0; f < frames; f++)
        put(32 + f * frame_ops * 24, 8);
    put(index_pos, 8);
    put(frames, 8);
    return out;
}

} // namespace cassandra::test

#endif // CASSANDRA_TESTS_CASSTF1_HH
