/**
 * @file
 * Fused single-pass analysis pipeline parity suite.
 *
 * The fused pipeline (core/analysis_pipeline) is the library's only
 * analysis path. Its oracles live here, built from independent
 * per-op machinery:
 *  - op columns and simulated cycles against the scalar
 *    uarch::recordTrace probe;
 *  - taint bits against computeTaintBitmap over that trace;
 *  - stream file bytes against TraceStreamWriter::append op by op;
 *  - Algorithm 2's folded traces against a per-branch machine probe
 *    (tests/branch_probe.hh), per static branch. Steps D-F are shared
 *    code, so equal folded traces imply an equal image.
 * Everything is exact comparison, across chunk sizes (including 1),
 * ring sizes (including 1), Inline and forced-Threaded mode, and with
 * the TraceCursor decode-ahead prefetcher forced on and off. Plus the
 * TraceStreamWriter durability seam: a crash after the data fsync but
 * before the index/footer must leave a file that fails loudly at open,
 * never a footer-valid-but-truncated stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/analysis_pipeline.hh"
#include "core/analyzed_workload.hh"
#include "core/serialize.hh"
#include "core/trace_stream.hh"
#include "core/tracegen.hh"
#include "crypto/workload_registry.hh"
#include "sim/machine.hh"
#include "tests/branch_probe.hh"

namespace {

using namespace cassandra;
using core::AnalysisChunk;
using core::AnalysisPipelineOptions;
using core::AnalyzedWorkload;
using core::AnalyzeOptions;
using core::BatchConsumer;
using core::ChunkSpanSource;
using core::FoldedTrace;
using core::TraceCursor;
using core::TraceMode;
using core::TraceStreamWriter;
using DecodeAhead = core::TraceCursor::DecodeAhead;
using Mode = core::AnalysisPipelineOptions::Mode;

core::Workload
workload(const char *name)
{
    return crypto::WorkloadRegistry::global().make(name);
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Consumer that materializes every chunk back into TimingOps. */
class CollectConsumer final : public BatchConsumer
{
  public:
    void
    consume(const AnalysisChunk &chunk) override
    {
        EXPECT_EQ(chunk.baseIndex, ops.size());
        for (size_t i = 0; i < chunk.size; i++) {
            uarch::TimingOp op;
            op.pc = chunk.ops.pc[i];
            op.memAddr = chunk.ops.memAddr[i];
            op.nextPc = chunk.ops.nextPc[i];
            op.inst = chunk.ops.inst[i];
            op.crypto = chunk.ops.crypto[i] != 0;
            ops.push_back(op);
        }
    }

    void
    finish() override
    {
        finished = true;
    }

    uarch::TimingTrace ops;
    bool finished = false;
};

void
expectSameOps(const uarch::TimingTrace &got,
              const uarch::TimingTrace &want, const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); i++) {
        ASSERT_EQ(got[i].pc, want[i].pc) << "op " << i;
        ASSERT_EQ(got[i].memAddr, want[i].memAddr) << "op " << i;
        ASSERT_EQ(got[i].nextPc, want[i].nextPc) << "op " << i;
        ASSERT_EQ(got[i].inst, want[i].inst) << "op " << i;
        ASSERT_EQ(got[i].crypto, want[i].crypto) << "op " << i;
    }
}

/** Like expectSameOps, but across two artifacts that each own a copy
 * of the program: inst pointers are compared as indices into the
 * respective program's instruction array. */
void
expectSameOpsIndexed(const uarch::TimingTrace &got,
                     const ir::Program &gotProgram,
                     const uarch::TimingTrace &want,
                     const ir::Program &wantProgram,
                     const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); i++) {
        ASSERT_EQ(got[i].pc, want[i].pc) << "op " << i;
        ASSERT_EQ(got[i].memAddr, want[i].memAddr) << "op " << i;
        ASSERT_EQ(got[i].nextPc, want[i].nextPc) << "op " << i;
        ASSERT_EQ(got[i].inst - gotProgram.insts.data(),
                  want[i].inst - wantProgram.insts.data())
            << "op " << i;
        ASSERT_EQ(got[i].crypto, want[i].crypto) << "op " << i;
    }
}

// ---------------------------------------------------------------------
// Fused op pass vs scalar recordTrace
// ---------------------------------------------------------------------

TEST(FusedOpPass, MatchesReferenceAcrossChunkRingAndMode)
{
    const core::Workload w = workload("synthetic/chacha20/75");
    const uarch::TimingTrace ref = uarch::recordTrace(w, 2);
    ASSERT_GT(ref.size(), 1000u);

    struct Combo
    {
        Mode mode;
        size_t chunkOps;
        size_t ringChunks;
    };
    // Odd chunk sizes force batch boundaries inside basic blocks;
    // chunk 1 and ring 1 are the degenerate extremes.
    const Combo combos[] = {
        {Mode::Inline, 1, 1},     {Mode::Inline, 7, 1},
        {Mode::Inline, 1000, 4},  {Mode::Threaded, 1, 1},
        {Mode::Threaded, 7, 1},   {Mode::Threaded, 333, 2},
        {Mode::Threaded, 4096, 4}};
    for (const Combo &combo : combos) {
        AnalysisPipelineOptions options;
        options.mode = combo.mode;
        options.chunkOps = combo.chunkOps;
        options.ringChunks = combo.ringChunks;
        CollectConsumer collect;
        const core::FusedPassStats stats =
            core::runFusedOpPass(w, 2, {&collect}, options);
        const std::string what = "mode=" +
            std::to_string(static_cast<int>(combo.mode)) +
            " chunk=" + std::to_string(combo.chunkOps) +
            " ring=" + std::to_string(combo.ringChunks);
        EXPECT_TRUE(collect.finished) << what;
        EXPECT_EQ(stats.numOps, ref.size()) << what;
        EXPECT_EQ(stats.threaded, combo.mode == Mode::Threaded) << what;
        expectSameOps(collect.ops, ref, what);
    }
}

TEST(FusedOpPass, RetainedChunksReplayIdentically)
{
    const core::Workload w = workload("synthetic/chacha20/75");
    const uarch::TimingTrace ref = uarch::recordTrace(w, 2);

    AnalysisPipelineOptions options;
    options.chunkOps = 777; // deliberately unaligned with batch sizes
    std::vector<AnalysisChunk> chunks;
    const core::FusedPassStats stats =
        core::runFusedOpPass(w, 2, {}, options, &chunks);
    ASSERT_EQ(stats.numOps, ref.size());
    ASSERT_GT(chunks.size(), 1u);

    // Scalar replay.
    {
        ChunkSpanSource src(chunks);
        for (size_t i = 0; i < ref.size(); i++) {
            const uarch::TimingOp *op = src.next();
            ASSERT_NE(op, nullptr) << "op " << i;
            ASSERT_EQ(op->pc, ref[i].pc) << "op " << i;
            ASSERT_EQ(op->inst, ref[i].inst) << "op " << i;
            ASSERT_EQ(op->crypto, ref[i].crypto) << "op " << i;
        }
        EXPECT_EQ(src.next(), nullptr);
    }
    // Batched replay with a max_ops that never divides the chunk size.
    {
        ChunkSpanSource src(chunks);
        uarch::TimingTrace got;
        uarch::OpBatch batch;
        while (size_t n = src.nextBatch(batch, 61)) {
            for (size_t i = 0; i < n; i++) {
                uarch::TimingOp op;
                op.pc = batch.pc[i];
                op.memAddr = batch.memAddr[i];
                op.nextPc = batch.nextPc[i];
                op.inst = batch.inst[i];
                op.crypto = batch.crypto[i] != 0;
                got.push_back(op);
            }
        }
        expectSameOps(got, ref, "ChunkSpanSource::nextBatch");
    }
}

// ---------------------------------------------------------------------
// Fused Algorithm 2 (branch pass) vs a per-branch machine probe
// ---------------------------------------------------------------------

/** Steps A-C on one input through the scalar branchProbe. */
core::FoldedTraceCollector
probeCollect(const core::Workload &w, int which)
{
    core::FoldedTraceCollector collector;
    sim::Machine machine(w.program);
    test::attachBranchProbe(machine, collector, /*crypto_only=*/true);
    if (w.setInput)
        w.setInput(machine, which);
    EXPECT_TRUE(machine.run(w.maxDynInsts).halted);
    collector.finish();
    return collector;
}

TEST(FusedBranchPass, FoldedTracesMatchMachineProbe)
{
    for (const char *name : {"synthetic/chacha20/75", "DES_ct"}) {
        const core::Workload w = workload(name);
        for (int which : {0, 1}) {
            SCOPED_TRACE(std::string(name) + " input " +
                         std::to_string(which));
            const core::FoldedTraceCollector ref = probeCollect(w, which);
            const core::FusedBranchRun got =
                core::runFusedBranchPass(w, which);
            EXPECT_EQ(got.heldBytes, ref.heldBytes());
            EXPECT_EQ(got.peakBytes, ref.peakHeldBytes());
            ASSERT_FALSE(ref.traces().empty());
            ASSERT_EQ(got.traces.size(), ref.traces().size());
            for (const auto &[pc, want] : ref.traces()) {
                auto it = got.traces.find(pc);
                ASSERT_NE(it, got.traces.end()) << std::hex << pc;
                const FoldedTrace &trace = it->second;
                EXPECT_TRUE(trace.sameAs(want)) << std::hex << pc;
                EXPECT_EQ(trace.capped(), want.capped())
                    << std::hex << pc;
                EXPECT_EQ(trace.logicalSize(), want.logicalSize())
                    << std::hex << pc;
                EXPECT_EQ(trace.dynamicCount(), want.dynamicCount())
                    << std::hex << pc;
            }
        }
    }
}

TEST(FusedBranchPass, FoldedRunMatchesAcrossModes)
{
    const core::Workload w = workload("synthetic/chacha20/75");
    const core::FusedBranchRun ref = core::runFusedBranchPass(w, 0);
    ASSERT_FALSE(ref.traces.empty());
    for (Mode mode : {Mode::Inline, Mode::Threaded}) {
        AnalysisPipelineOptions options;
        options.mode = mode;
        options.chunkOps = 129;
        options.ringChunks = 1;
        const core::FusedBranchRun got =
            core::runFusedBranchPass(w, 0, true, options);
        EXPECT_EQ(got.heldBytes, ref.heldBytes);
        EXPECT_EQ(got.peakBytes, ref.peakBytes);
        ASSERT_EQ(got.traces.size(), ref.traces.size());
        for (const auto &[pc, trace] : ref.traces) {
            auto it = got.traces.find(pc);
            ASSERT_NE(it, got.traces.end()) << std::hex << pc;
            EXPECT_TRUE(it->second.sameAs(trace)) << std::hex << pc;
            EXPECT_EQ(it->second.logicalSize(), trace.logicalSize())
                << std::hex << pc;
        }
    }
}

// ---------------------------------------------------------------------
// Artifact-level parity: AnalyzedWorkload vs per-op references
// ---------------------------------------------------------------------

TEST(FusedArtifact, WholeModeParity)
{
    const char *name = "DES_ct"; // has secret regions -> taint runs
    const core::Workload w = workload(name);
    const uarch::TimingTrace ref = uarch::recordTrace(w, 2);
    uarch::TraceSpanSource refSrc(ref);
    const uarch::TaintBitmap refTaint =
        uarch::computeTaintBitmap(refSrc, w.secretRegions, ref.size());

    AnalyzeOptions options;
    options.phases = core::allAnalysisPhases;
    const auto aw = AnalyzedWorkload::analyze(workload(name), options);

    // Trace ops (the artifact materializes AoS lazily here).
    expectSameOpsIndexed(aw->timingTrace(), aw->workload().program, ref,
                         w.program, "whole-mode trace");
    EXPECT_EQ(aw->numOps(), ref.size());

    // Taint bits.
    const uarch::TaintBitmap &taint = aw->taintBitmap();
    ASSERT_EQ(taint.size(), refTaint.size());
    EXPECT_EQ(taint.count(), refTaint.count());
    EXPECT_GT(taint.count(), 0u);
    for (size_t i = 0; i < taint.size(); i++)
        ASSERT_EQ(taint.test(i), refTaint.test(i)) << "op " << i;

    // Simulated cycles: chunk replay vs an AoS span replay of the
    // scalar trace, including a taint-consuming scheme.
    for (uarch::Scheme scheme :
         {uarch::Scheme::Cassandra, uarch::Scheme::Prospect}) {
        SCOPED_TRACE(uarch::schemeName(scheme));
        core::SimConfig cfg;
        cfg.scheme = scheme;
        const bool cassandra = uarch::schemeIsCassandra(scheme);
        uarch::OooCore core(cfg, w.program,
                            cassandra ? &aw->traces().image : nullptr);
        uarch::TraceSpanSource src(ref);
        const uarch::CoreStats want = core.run(
            src, scheme == uarch::Scheme::Prospect ? &refTaint : nullptr);
        const auto got = core::Simulation(aw).run(scheme);
        EXPECT_EQ(got.stats.cycles, want.cycles);
        EXPECT_EQ(got.stats.instructions, want.instructions);
        EXPECT_EQ(got.stats.prospectBlocks, want.prospectBlocks);
    }
}

TEST(FusedArtifact, StreamFileBytesIdentical)
{
    AnalyzeOptions options;
    options.traceMode = TraceMode::Stream;
    options.streamDir = testing::TempDir() + "/fused-stream";
    const core::Workload w = workload("synthetic/chacha20/75");
    const auto aw = AnalyzedWorkload::analyze(w, options);

    // Reference: the scalar trace appended op by op.
    const std::string refPath =
        testing::TempDir() + "/fused-stream-ref.casstf";
    const uarch::TimingTrace ref = uarch::recordTrace(w, 2);
    {
        TraceStreamWriter writer(refPath,
                                 core::programFingerprint(w.program));
        for (const auto &op : ref)
            writer.append(op);
        writer.finish();
    }
    EXPECT_EQ(aw->numOps(), ref.size());
    // The artifact's writer consumes whole SoA batches, the reference
    // one op at a time; the container bytes must not differ.
    EXPECT_EQ(readFile(aw->streamPath()), readFile(refPath));
    std::remove(refPath.c_str());
}

// ---------------------------------------------------------------------
// Phase fusion accounting
// ---------------------------------------------------------------------

TEST(FusedArtifact, OnePassServesTraceAndTaint)
{
    const auto before = AnalyzedWorkload::analysisPhaseRuns();
    const uint64_t passes0 = core::fusedAnalysisPasses();

    const auto aw = AnalyzedWorkload::analyze(workload("DES_ct"));
    aw->ensurePhases(core::PhaseTimingTrace | core::PhaseTaint);

    const auto after = AnalyzedWorkload::analysisPhaseRuns();
    EXPECT_EQ(after.timingTrace, before.timingTrace + 1);
    EXPECT_EQ(after.taint, before.taint + 1);
    // ONE fused machine pass produced both phases.
    EXPECT_EQ(core::fusedAnalysisPasses(), passes0 + 1);
    EXPECT_TRUE(aw->hasTimingTrace());
    EXPECT_TRUE(aw->hasTaintBitmap());
}

// ---------------------------------------------------------------------
// TraceCursor decode-ahead prefetcher
// ---------------------------------------------------------------------

TEST(StreamPrefetch, CursorParityAtEveryBatchBoundary)
{
    const core::Workload w = workload("synthetic/chacha20/75");
    const uarch::TimingTrace trace = uarch::recordTrace(w, 2);
    ASSERT_GT(trace.size(), 512u); // >= 2 frames at 256 ops/frame

    const std::string path = "prefetch_parity.casstf";
    {
        TraceStreamWriter writer(
            path, core::programFingerprint(w.program), 256);
        for (const auto &op : trace)
            writer.append(op);
        writer.finish();
    }
    for (TraceCursor::Backing backing :
         {TraceCursor::Backing::Mmap,
          TraceCursor::Backing::Buffered}) {
        SCOPED_TRACE("backing " +
                     std::to_string(static_cast<int>(backing)));
        // Synchronous reference.
        uarch::TimingTrace sync;
        {
            TraceCursor cursor(path, w.program, backing,
                               DecodeAhead::Off);
            uarch::OpBatch batch;
            while (size_t n = cursor.nextBatch(batch, 17)) {
                for (size_t i = 0; i < n; i++) {
                    uarch::TimingOp op;
                    op.pc = batch.pc[i];
                    op.memAddr = batch.memAddr[i];
                    op.nextPc = batch.nextPc[i];
                    op.inst = batch.inst[i];
                    op.crypto = batch.crypto[i] != 0;
                    sync.push_back(op);
                }
            }
            EXPECT_FALSE(cursor.prefetching());
        }
        expectSameOps(sync, trace, "sync cursor vs recorded");

        // Decode-ahead, forced on; 17 never divides 256, so every
        // frame boundary lands mid-batch-request.
        const uint64_t served0 = TraceCursor::prefetchBatches();
        uarch::TimingTrace pre;
        {
            TraceCursor cursor(path, w.program, backing,
                               DecodeAhead::On);
            uarch::OpBatch batch;
            while (size_t n = cursor.nextBatch(batch, 17)) {
                for (size_t i = 0; i < n; i++) {
                    uarch::TimingOp op;
                    op.pc = batch.pc[i];
                    op.memAddr = batch.memAddr[i];
                    op.nextPc = batch.nextPc[i];
                    op.inst = batch.inst[i];
                    op.crypto = batch.crypto[i] != 0;
                    pre.push_back(op);
                }
            }
            EXPECT_TRUE(cursor.prefetching());
        }
        expectSameOps(pre, sync, "prefetch cursor vs sync");
        // Every frame after the first was served by the worker.
        EXPECT_GT(TraceCursor::prefetchBatches(), served0);
    }
    std::remove(path.c_str());
}

TEST(StreamPrefetch, ScalarPathSharesThePrefetcher)
{
    const core::Workload w = workload("synthetic/chacha20/75");
    const uarch::TimingTrace trace = uarch::recordTrace(w, 2);
    ASSERT_GT(trace.size(), 512u); // >= 2 frames at 256 ops/frame
    const std::string path = "prefetch_scalar.casstf";
    {
        TraceStreamWriter writer(
            path, core::programFingerprint(w.program), 256);
        for (const auto &op : trace)
            writer.append(op);
        writer.finish();
    }
    const uint64_t served0 = TraceCursor::prefetchBatches();
    TraceCursor cursor(path, w.program, TraceCursor::Backing::Auto,
                       DecodeAhead::On);
    for (size_t i = 0; i < trace.size(); i++) {
        const uarch::TimingOp *op = cursor.next();
        ASSERT_NE(op, nullptr) << "op " << i;
        ASSERT_EQ(op->pc, trace[i].pc) << "op " << i;
        ASSERT_EQ(op->memAddr, trace[i].memAddr) << "op " << i;
        ASSERT_EQ(op->nextPc, trace[i].nextPc) << "op " << i;
        ASSERT_EQ(op->inst, trace[i].inst) << "op " << i;
        ASSERT_EQ(op->crypto, trace[i].crypto) << "op " << i;
    }
    EXPECT_EQ(cursor.next(), nullptr);
    // next() reads the same decoded frames as nextBatch(), so frames
    // after the first come from the decode-ahead worker too.
    EXPECT_TRUE(cursor.prefetching());
    EXPECT_GT(TraceCursor::prefetchBatches(), served0);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Writer durability seam (flush-ordering bugfix)
// ---------------------------------------------------------------------

std::vector<uint8_t> g_seamBytes;
std::string g_seamPath;

void
seamSnapshot(const std::string &path)
{
    g_seamPath = path;
    g_seamBytes = readFile(path);
}

TEST(StreamWriterSeam, CrashBeforeFooterFailsLoudly)
{
    const core::Workload w = workload("synthetic/chacha20/75");
    const uarch::TimingTrace trace = uarch::recordTrace(w, 2);
    ASSERT_GT(trace.size(), 512u);

    const std::string path = "seam_full.casstf";
    const std::string crashed = "seam_crashed.casstf";
    g_seamBytes.clear();
    g_seamPath.clear();

    TraceStreamWriter writer(
        path, core::programFingerprint(w.program), 256);
    for (const auto &op : trace)
        writer.append(op);
    TraceStreamWriter::finishSeamHook = &seamSnapshot;
    writer.finish();
    TraceStreamWriter::finishSeamHook = nullptr;

    // The hook fired at the seam: every data frame was already
    // durable, no index/footer byte had been issued yet. The only
    // post-seam change inside the prefix is the header's numOps
    // patch (bytes 24..32), so mask it before comparing.
    ASSERT_EQ(g_seamPath, path);
    const std::vector<uint8_t> full = readFile(path);
    ASSERT_GT(full.size(), g_seamBytes.size());
    ASSERT_GT(g_seamBytes.size(), 32u);
    std::vector<uint8_t> prefix(full.begin(),
                                full.begin() +
                                    static_cast<long>(
                                        g_seamBytes.size()));
    std::vector<uint8_t> seam = g_seamBytes;
    std::fill(prefix.begin() + 24, prefix.begin() + 32, 0);
    std::fill(seam.begin() + 24, seam.begin() + 32, 0);
    ASSERT_EQ(prefix, seam);

    // A file cut at the seam (crash between data-sync and footer)
    // must fail loudly at open — the footer describes nothing.
    writeFile(crashed, g_seamBytes);
    EXPECT_THROW(TraceCursor(crashed, w.program),
                 core::ArtifactError);

    // The finished file replays completely.
    TraceCursor cursor(path, w.program);
    EXPECT_EQ(cursor.numOps(), trace.size());
    uint64_t ops = 0;
    while (cursor.next())
        ops++;
    EXPECT_EQ(ops, trace.size());

    std::remove(path.c_str());
    std::remove(crashed.c_str());
}

} // namespace
