/**
 * @file
 * Round-trip and size-accounting tests for the bit-exact trace-page
 * serialization (the wire format Algorithm 2 embeds in binaries), and
 * version/fingerprint guarding of AnalyzedWorkload snapshot files
 * (outdated containers raise typed errors so caches evict them).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "bench/bench_util.hh"
#include "core/serialize.hh"
#include "crypto/workload_registry.hh"
#include "tests/casstf1.hh"

namespace {

using namespace cassandra;
using core::AnalyzedWorkload;
using core::AnalyzeOptions;
using core::BranchTrace;
using core::Simulation;
using core::TraceMode;
using core::VanillaTrace;

BranchTrace
encodeVanilla(uint64_t pc, const VanillaTrace &v)
{
    return core::encodeBranchTrace(pc,
                                   core::compressKmers(core::encodeDna(v)));
}

TEST(SerializeTest, RoundTripSimpleLoop)
{
    uint64_t pc = 0x10100;
    VanillaTrace v = {{0x10080, 4}, {pc + 4, 1}};
    BranchTrace bt = encodeVanilla(pc, v);
    auto bytes = core::packTrace(bt);
    EXPECT_EQ(bytes.size(), core::packedTraceBytes(bt));
    BranchTrace back = core::unpackTrace(bytes, pc);
    ASSERT_EQ(back.patternSet.size(), bt.patternSet.size());
    ASSERT_EQ(back.elements.size(), bt.elements.size());
    EXPECT_EQ(back.shortTrace, bt.shortTrace);
    EXPECT_EQ(back.expand(), bt.expand());
}

TEST(SerializeTest, NegativeOffsetsSurvive)
{
    uint64_t pc = 0x10400;
    VanillaTrace v = {{pc - 400, 3}, {pc + 4, 1}, {pc - 400, 3},
                      {pc + 4, 1}};
    BranchTrace bt = encodeVanilla(pc, v);
    ASSERT_TRUE(bt.hasTrace());
    BranchTrace back = core::unpackTrace(core::packTrace(bt), pc);
    EXPECT_EQ(back.expand(), bt.expand());
}

TEST(SerializeTest, RoundTripRandomTraces)
{
    std::mt19937_64 rng(11);
    for (int trial = 0; trial < 60; trial++) {
        uint64_t pc = 0x10800;
        VanillaTrace v;
        int motif = 1 + static_cast<int>(rng() % 4);
        std::vector<core::RunElement> m;
        for (int i = 0; i < motif; i++) {
            m.push_back({pc - 16 * (1 + rng() % 100),
                         1 + rng() % 300});
        }
        int reps = 1 + static_cast<int>(rng() % 20);
        for (int r = 0; r < reps; r++)
            for (auto e : m)
                v.push_back(e);
        v.push_back({pc + 4, 1});
        v = core::toVanilla(core::expandVanilla(v));
        BranchTrace bt = encodeVanilla(pc, v);
        if (!bt.hasTrace())
            continue;
        BranchTrace back = core::unpackTrace(core::packTrace(bt), pc);
        EXPECT_EQ(back.expand(), bt.expand()) << "trial " << trial;
        EXPECT_EQ(core::packTrace(back), core::packTrace(bt));
    }
}

TEST(SerializeTest, HintWordPacksSingleTarget)
{
    core::HintInfo hint;
    hint.singleTarget = true;
    hint.targetPc = 0x10200;
    uint16_t word = core::packHint(hint, 0x10100);
    EXPECT_TRUE(word & (1u << 13));
    // 0x100 bytes = 64 instructions forward.
    EXPECT_EQ(word & 0xfff, 64u);
}

TEST(SerializeTest, HintWordPacksTraceOffset)
{
    core::HintInfo hint;
    hint.shortTrace = true;
    hint.traceOffset = 0x123;
    uint16_t word = core::packHint(hint, 0x10100);
    EXPECT_FALSE(word & (1u << 13));
    EXPECT_TRUE(word & (1u << 12));
    EXPECT_EQ(word & 0xfff, 0x123u);
}

TEST(SerializeTest, PackedSizeMatchesStorageAccounting)
{
    uint64_t pc = 0x10100;
    VanillaTrace v;
    for (int i = 0; i < 20; i++) {
        v.push_back({0x10080, static_cast<uint64_t>(2 + i % 3)});
        v.push_back({pc + 4, 1});
    }
    v = core::toVanilla(core::expandVanilla(v));
    BranchTrace bt = encodeVanilla(pc, v);
    // Header is 20 bits; payload must match storageBits exactly.
    size_t expect = (20 + bt.storageBits() + 7) / 8;
    EXPECT_EQ(core::packedTraceBytes(bt), expect);
}

// ---------------------------------------------------------------------
// Artifact container versioning (eviction instead of silent drift)
// ---------------------------------------------------------------------

TEST(ArtifactVersionTest, OutdatedContainerVersionIsTyped)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto bytes = core::packAnalyzedWorkload(*artifact);

    // A v1-era snapshot: same "CASSAW" family, older version byte.
    std::vector<uint8_t> old_magic = bytes;
    old_magic[6] = '1';
    EXPECT_THROW(core::unpackAnalyzedWorkload(old_magic, resolver),
                 core::ArtifactFormatError);

    // Bump the explicit format version field behind the magic.
    std::vector<uint8_t> old_version = bytes;
    old_version[8] = static_cast<uint8_t>(core::artifactFormatVersion +
                                          1);
    EXPECT_THROW(core::unpackAnalyzedWorkload(old_version, resolver),
                 core::ArtifactFormatError);

    // Arbitrary non-artifact bytes are a format error too.
    std::vector<uint8_t> garbage(64, 0x5a);
    EXPECT_THROW(core::unpackAnalyzedWorkload(garbage, resolver),
                 core::ArtifactFormatError);
}

TEST(ArtifactVersionTest, FingerprintMismatchIsTyped)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto bytes = core::packAnalyzedWorkload(*artifact);
    auto wrong = [&](const std::string &) { return resolver("SHAKE"); };
    EXPECT_THROW(core::unpackAnalyzedWorkload(bytes, wrong),
                 core::ArtifactStaleError);
}

TEST(ArtifactVersionTest, HintOutsideTheProgramIsTyped)
{
    // The BTU sizes its dense branch table from the lowest and highest
    // hint pcs, so a snapshot must not smuggle in a far-away pc.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    const auto &hints = artifact->traces().image.hints();
    ASSERT_FALSE(hints.empty());
    const auto &[pc, hint] = *hints.begin();
    auto bytes = core::packAnalyzedWorkload(*artifact);

    // The hint record: u64 pc, u8 flags, u64 targetPc, u32 offset.
    std::vector<uint8_t> record;
    auto put = [&](uint64_t v, int n) {
        for (int i = 0; i < n; i++)
            record.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    put(pc, 8);
    put((hint.singleTarget ? 1 : 0) | (hint.shortTrace ? 2 : 0), 1);
    put(hint.targetPc, 8);
    put(hint.traceOffset, 4);
    auto at = std::search(bytes.begin(), bytes.end(), record.begin(),
                          record.end());
    ASSERT_NE(at, bytes.end());
    for (int i = 0; i < 8; i++)
        at[i] = static_cast<uint8_t>(0x7ffffffffffff000ull >> (8 * i));
    try {
        core::unpackAnalyzedWorkload(bytes, resolver);
        ADD_FAILURE() << "a hint outside the program loaded";
    } catch (const core::ArtifactFormatError &e) {
        EXPECT_NE(std::string(e.what()).find("outside the program"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Stream-aware snapshots (CASSAW3): embed the trace stream file, load
// back into stream mode, never materialize the op vector.
// ---------------------------------------------------------------------

AnalyzedWorkload::Ptr
streamedArtifact(const char *name, const std::string &dir)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    AnalyzeOptions opts;
    opts.traceMode = TraceMode::Stream;
    opts.streamDir = dir;
    return AnalyzedWorkload::analyze(resolver(name), opts);
}

uint64_t
fileSize(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return static_cast<uint64_t>(in.tellg());
}

TEST(StreamSnapshotTest, RoundTripsWithoutMaterializingOps)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    const std::string dir = testing::TempDir() + "/snap-roundtrip";
    auto artifact = streamedArtifact("ChaCha20_ct", dir);
    const std::string path = dir + "/chacha20.aw";

    const core::SnapshotIoStats before = core::snapshotIoStats();
    core::saveAnalyzedWorkload(*artifact, path, "ChaCha20_ct");
    auto reloaded = core::loadAnalyzedWorkload(path, resolver);
    const core::SnapshotIoStats after = core::snapshotIoStats();

    // The "never materializes" bar, observable via counters: a
    // streamed round trip moves stream bytes, zero inline ops.
    EXPECT_EQ(after.inlineOpsWritten, before.inlineOpsWritten);
    EXPECT_EQ(after.inlineOpsRead, before.inlineOpsRead);
    EXPECT_GT(after.streamBytesCopied, before.streamBytesCopied);

    // Rehydrated straight into stream mode, not whole mode.
    ASSERT_TRUE(reloaded->streamed());
    EXPECT_THROW(reloaded->timingTrace(), std::logic_error);
    EXPECT_EQ(reloaded->numOps(), artifact->numOps());
    // ... on its own file (artifacts own + delete their streams).
    EXPECT_NE(reloaded->streamPath(), artifact->streamPath());

    // Identical timing results through the reloaded artifact.
    auto want = Simulation(artifact).run(uarch::Scheme::Cassandra);
    auto got = Simulation(reloaded).run(uarch::Scheme::Cassandra);
    EXPECT_EQ(got.stats.cycles, want.stats.cycles);
    EXPECT_EQ(got.stats.instructions, want.stats.instructions);
}

TEST(StreamSnapshotTest, StreamedSnapshotsAreMuchSmallerThanRawOps)
{
    // The same snapshot with its embedded stream swapped for all-raw
    // 24 B/op frames (CASSTF1 framing) would be over twice the size.
    const std::string dir = testing::TempDir() + "/snap-size";
    auto artifact = streamedArtifact("ChaCha20_ct", dir);
    const std::string path = dir + "/delta.aw";
    core::saveAnalyzedWorkload(*artifact, path, "ChaCha20_ct");
    const uint64_t size = fileSize(path);
    const uint64_t stream = fileSize(artifact->streamPath());
    const core::Workload &w = artifact->workload();
    const uint64_t raw_stream =
        test::casstf1Bytes(core::programFingerprint(w.program),
                           uarch::recordTrace(w, 2),
                           core::traceStreamDefaultFrameOps)
            .size();
    EXPECT_LT(size * 2, size - stream + raw_stream)
        << "snapshot " << size << " B, stream " << stream << " B";
}

TEST(StreamSnapshotTest, EmbeddedCasstf1IsEvictedAndReanalyzed)
{
    // A CASSAW4 snapshot whose embedded stream is the retired CASSTF1
    // container fails to load with the typed eviction error; the bench
    // artifact cache then deletes it, re-analyzes, saves a fresh
    // snapshot, and the report is byte-identical.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    core::ExperimentSpec spec;
    spec.traceMode = TraceMode::Stream;
    spec.artifactDir = testing::TempDir() + "/snap-casstf1";
    spec.artifactSave = true;
    spec.threads = 2;
    spec.matrix.workloads = {"ChaCha20_ct"};
    spec.matrix.schemes = {uarch::Scheme::UnsafeBaseline,
                           uarch::Scheme::Cassandra};
    auto report = [&] {
        std::ostringstream os;
        core::JsonReporter().write(bench::runExperiment(spec), os);
        return os.str();
    };
    const std::string path =
        bench::artifactPath(spec.artifactDir, "ChaCha20_ct");
    std::remove(path.c_str());
    const std::string want = report(); // analyzes and saves `path`

    // The stream section is the snapshot's tail, after its u64 length.
    std::vector<uint8_t> bytes = core::readFileBytes(path, "snapshot");
    const char magic[] = "CASSTF2\n";
    const size_t blob = static_cast<size_t>(
        std::search(bytes.begin(), bytes.end(), magic, magic + 8) -
        bytes.begin());
    ASSERT_LT(blob, bytes.size());
    ASSERT_GE(blob, 8u);
    uint64_t len = 0;
    for (int i = 0; i < 8; i++)
        len |= static_cast<uint64_t>(bytes[blob - 8 + i]) << (8 * i);
    ASSERT_EQ(len, bytes.size() - blob);
    const core::Workload w = resolver("ChaCha20_ct");
    const uarch::TimingTrace trace = uarch::recordTrace(w, 2);
    const std::vector<uint8_t> raw =
        test::casstf1Bytes(core::programFingerprint(w.program), trace,
                           core::traceStreamDefaultFrameOps);
    bytes.resize(blob);
    for (int i = 0; i < 8; i++)
        bytes[blob - 8 + i] = static_cast<uint8_t>(raw.size() >> (8 * i));
    bytes.insert(bytes.end(), raw.begin(), raw.end());
    core::writeFileBytes(path, bytes);
    EXPECT_THROW(core::loadAnalyzedWorkload(path, resolver),
                 core::ArtifactFormatError);

    testing::internal::CaptureStderr();
    const std::string got = report();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("evicting"), std::string::npos) << err;
    EXPECT_EQ(got, want);
    // The rewritten snapshot embeds CASSTF2 and loads again.
    auto reloaded = core::loadAnalyzedWorkload(path, resolver);
    EXPECT_TRUE(reloaded->streamed());
    EXPECT_EQ(reloaded->numOps(), trace.size());
}

TEST(StreamSnapshotTest, PackBytesRoundTripStreamed)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    const std::string dir = testing::TempDir() + "/snap-bytes";
    auto artifact =
        streamedArtifact("ChaCha20_ct", dir);
    auto bytes = core::packAnalyzedWorkload(*artifact, "ChaCha20_ct");
    auto reloaded = core::unpackAnalyzedWorkload(bytes, resolver);
    ASSERT_TRUE(reloaded->streamed());
    EXPECT_EQ(reloaded->numOps(), artifact->numOps());
    auto src = reloaded->openOpSource();
    uint64_t seen = 0;
    while (src->next())
        seen++;
    EXPECT_EQ(seen, artifact->numOps());
}

TEST(StreamSnapshotTest, CorruptEmbeddedStreamIsRejectedOnLoad)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    const std::string dir = testing::TempDir() + "/snap-corrupt";
    auto artifact =
        streamedArtifact("ChaCha20_ct", dir);
    const std::string path = dir + "/corrupt.aw";
    core::saveAnalyzedWorkload(*artifact, path, "ChaCha20_ct");

    // Flip a byte inside the embedded stream's magic: the load must
    // reject the snapshot via the stream's own validation, not hand
    // back a silently-broken artifact.
    std::vector<uint8_t> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    }
    const char needle[] = "CASSTF";
    auto it = std::search(bytes.begin(), bytes.end(), needle,
                          needle + 6);
    ASSERT_NE(it, bytes.end());
    *it ^= 0xff;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(core::loadAnalyzedWorkload(path, resolver),
                 core::ArtifactFormatError);

    // Truncating the embedded stream is caught too.
    std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 64);
    const std::string cut_path = dir + "/cut.aw";
    {
        std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(cut.data()),
                  static_cast<std::streamsize>(cut.size()));
    }
    EXPECT_THROW(core::loadAnalyzedWorkload(cut_path, resolver),
                 std::invalid_argument);
}

TEST(StreamSnapshotTest, ImageSurvivesStreamedSnapshot)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    const std::string dir = testing::TempDir() + "/snap-image";
    auto artifact =
        streamedArtifact("ChaCha20_ct", dir);
    (void)artifact->traces(); // run Algorithm 2 so it snapshots
    const std::string path = dir + "/image.aw";
    core::saveAnalyzedWorkload(*artifact, path, "ChaCha20_ct");

    const auto before = AnalyzedWorkload::analysisPhaseRuns();
    auto reloaded = core::loadAnalyzedWorkload(path, resolver);
    ASSERT_TRUE(reloaded->streamed());
    ASSERT_TRUE(reloaded->hasTraceImage());
    EXPECT_EQ(reloaded->traces().image.numBranches(),
              artifact->traces().image.numBranches());
    // Adopted verbatim: no Algorithm 2 re-run on load or access.
    EXPECT_EQ(AnalyzedWorkload::analysisPhaseRuns().traceImage,
              before.traceImage);
}

TEST(ArtifactVersionTest, WholeSnapshotsAreFrameCompressed)
{
    // CASSAW4: whole-mode snapshots store their inline ops as CASSTF2
    // codec frames. The dynamic instruction stream is overwhelmingly
    // sequential, so the inline section must beat the historical raw
    // 24 B/op layout by at least 4x.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto bytes = core::packAnalyzedWorkload(*artifact, "ChaCha20_ct");
    EXPECT_LT(bytes.size() * 4, artifact->numOps() * 24)
        << artifact->numOps() << " ops in " << bytes.size()
        << " snapshot bytes";

    // And it still round-trips into identical timing results.
    auto reloaded = core::unpackAnalyzedWorkload(bytes, resolver);
    EXPECT_EQ(reloaded->numOps(), artifact->numOps());
    auto want = Simulation(artifact).run(uarch::Scheme::Cassandra);
    auto got = Simulation(reloaded).run(uarch::Scheme::Cassandra);
    EXPECT_EQ(got.stats.cycles, want.stats.cycles);
}

TEST(ArtifactVersionTest, Cassaw3SnapshotsAreEvicted)
{
    // CASSAW3 (raw 24 B/op inline ops) is no longer read: a snapshot
    // labelled v3 raises the typed eviction error on both load paths,
    // so caches drop it and re-analyze.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto v3 = core::packAnalyzedWorkload(*artifact, "ChaCha20_ct");
    v3[6] = '3'; // magic version digit
    v3[8] = 3;   // u32 version field at [8, 12)
    EXPECT_THROW(core::unpackAnalyzedWorkload(v3, resolver),
                 core::ArtifactFormatError);

    const std::string path = testing::TempDir() + "/cassaw3.aw";
    core::writeFileBytes(path, v3);
    EXPECT_THROW(core::loadAnalyzedWorkload(path, resolver),
                 core::ArtifactFormatError);
    std::remove(path.c_str());
}

TEST(ArtifactVersionTest, WholeSnapshotResavesByteIdentical)
{
    // Whole-mode artifacts hold their trace as SoA chunks whether
    // recorded or loaded; a loaded snapshot must re-save to exactly
    // the bytes it was loaded from, through both save paths.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    AnalyzeOptions options;
    options.phases = core::allAnalysisPhases;
    auto artifact = AnalyzedWorkload::analyze(resolver("SHAKE"), options);
    const std::string first = testing::TempDir() + "/resave-1.aw";
    const std::string second = testing::TempDir() + "/resave-2.aw";
    core::saveAnalyzedWorkload(*artifact, first, "SHAKE");
    auto loaded = core::loadAnalyzedWorkload(first, resolver);
    ASSERT_FALSE(loaded->streamed());
    core::saveAnalyzedWorkload(*loaded, second, "SHAKE");
    const std::vector<uint8_t> bytes =
        core::readFileBytes(first, "snapshot");
    EXPECT_EQ(core::readFileBytes(second, "snapshot"), bytes);

    auto unpacked = core::unpackAnalyzedWorkload(bytes, resolver);
    EXPECT_EQ(core::packAnalyzedWorkload(*unpacked, "SHAKE"), bytes);
    std::remove(first.c_str());
    std::remove(second.c_str());
}

/**
 * A whole-mode snapshot of `artifact` whose inline section is rebuilt
 * from `ops` (pc, memAddr, nextPc per op) as CASSTF2 frames — the
 * bytes a writer would produce for that trace.
 */
std::vector<uint8_t>
snapshotWithOps(const AnalyzedWorkload &artifact,
                const uarch::TimingTrace &ops)
{
    std::vector<uint8_t> bytes = core::packAnalyzedWorkload(artifact);
    // magic[8] | u32 version | u32 metaLen | meta | u8 storage
    // | u64 numOps | u32 frameOps | frames
    uint32_t meta_len = 0;
    for (int i = 0; i < 4; i++)
        meta_len |= static_cast<uint32_t>(bytes[12 + i]) << (8 * i);
    const size_t frames_at = 16 + meta_len + 1 + 8 + 4;
    EXPECT_LT(frames_at, bytes.size());
    bytes.resize(frames_at);
    const size_t frame_ops = core::traceStreamDefaultFrameOps;
    for (size_t first = 0; first < ops.size(); first += frame_ops) {
        std::vector<uint8_t> raw;
        for (size_t i = first; i < std::min(ops.size(), first + frame_ops);
             i++) {
            for (uint64_t v : {ops[i].pc, ops[i].memAddr, ops[i].nextPc})
                for (int b = 0; b < 8; b++)
                    raw.push_back(static_cast<uint8_t>(v >> (8 * b)));
        }
        const std::vector<uint8_t> frame = core::encodeTraceFrame(raw);
        bytes.insert(bytes.end(), frame.begin(), frame.end());
    }
    return bytes;
}

TEST(ArtifactVersionTest, InlinePcOutsideTheProgramIsTyped)
{
    // The inline frames of a whole-mode snapshot come from disk, so
    // the chunk relink checks every pc before it indexes the program:
    // a pc past the end or off an instruction boundary must raise the
    // typed error on both load paths, never index out of bounds.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    const uarch::TimingTrace trace = artifact->timingTrace();
    const ir::Program &prog = artifact->workload().program;
    ASSERT_GT(trace.size(), 100u);
    const std::string path = testing::TempDir() + "/bad-pc.aw";

    // The rebuilt section itself is sound: unmodified ops load back.
    const std::vector<uint8_t> good = snapshotWithOps(*artifact, trace);
    EXPECT_EQ(good, core::packAnalyzedWorkload(*artifact));
    EXPECT_EQ(core::unpackAnalyzedWorkload(good, resolver)->numOps(),
              trace.size());

    const uint64_t past_end =
        ir::Program::codeBase + prog.size() * ir::instBytes;
    const size_t victim = trace.size() / 2;
    const struct
    {
        const char *what;
        uint64_t pc;
    } cases[] = {
        {"past the end", past_end},
        {"far outside", 0x7ffffffffffff000ull},
        {"below the code base", ir::Program::codeBase - ir::instBytes},
        {"misaligned", trace[victim].pc + 1},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        uarch::TimingTrace ops = trace;
        ops[victim].pc = c.pc;
        const std::vector<uint8_t> bytes = snapshotWithOps(*artifact, ops);
        auto expectTyped = [](const auto &load) {
            try {
                load();
                ADD_FAILURE() << "a pc outside the program loaded";
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find("outside program"),
                          std::string::npos)
                    << e.what();
            }
        };
        expectTyped(
            [&] { core::unpackAnalyzedWorkload(bytes, resolver); });
        core::writeFileBytes(path, bytes);
        expectTyped([&] { core::loadAnalyzedWorkload(path, resolver); });
    }
    std::remove(path.c_str());
}

TEST(ArtifactVersionTest, ImagelessSnapshotRoundTripsDemandDriven)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    // A baseline-only artifact has no trace image; packing it must
    // not force Algorithm 2, and reloading keeps the phase lazy.
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    ASSERT_FALSE(artifact->hasTraceImage());
    const auto before = AnalyzedWorkload::analysisPhaseRuns();
    auto bytes = core::packAnalyzedWorkload(*artifact, "ChaCha20_ct");
    EXPECT_EQ(AnalyzedWorkload::analysisPhaseRuns().traceImage,
              before.traceImage);

    auto reloaded = core::unpackAnalyzedWorkload(bytes, resolver);
    EXPECT_FALSE(reloaded->hasTraceImage());
    EXPECT_EQ(reloaded->numOps(), artifact->numOps());
    // The image still materializes on demand after the round trip.
    EXPECT_GT(reloaded->traces().image.numBranches(), 0u);
    EXPECT_TRUE(reloaded->hasTraceImage());

    // With the image computed, the snapshot carries it verbatim.
    auto full_bytes = core::packAnalyzedWorkload(*reloaded,
                                                 "ChaCha20_ct");
    auto full = core::unpackAnalyzedWorkload(full_bytes, resolver);
    EXPECT_TRUE(full->hasTraceImage());
    EXPECT_EQ(full->traces().image.numBranches(),
              reloaded->traces().image.numBranches());
    EXPECT_EQ(full->traces().image.traceBytes(),
              reloaded->traces().image.traceBytes());
}

} // namespace
