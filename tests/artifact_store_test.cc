/**
 * @file
 * Tests for the content-addressed drop box the subprocess executor
 * ships shards through: upload-once per fingerprint, corrupt artifacts
 * rejected with a typed error and re-uploaded, every single-bit flip
 * caught by the CASSUM2 checksum, and claim-exactly-once task handoff.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/artifact_store.hh"
#include "core/serialize.hh"
#include "core/trace_stream.hh"

namespace {

using namespace cassandra;
using core::ArtifactStore;

/** Fresh, process-unique test directory path (not created). */
std::string
freshDir(const std::string &tag)
{
    static int counter = 0;
    return testing::TempDir() + "/" + tag + "-" +
        core::processUniqueSuffix() + "-" + std::to_string(counter++);
}

std::string
readText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

TEST(ArtifactStoreTest, UploadsOncePerFingerprint)
{
    ArtifactStore store(freshDir("box-once"));
    const std::string key =
        ArtifactStore::artifactKey(0x1234abcd5678ef00ull,
                                   core::artifactFormatVersion);
    const std::vector<uint8_t> bytes{1, 2, 3, 4, 5, 6, 7, 8};

    EXPECT_FALSE(store.hasValidArtifact(key));
    EXPECT_TRUE(store.publishArtifactOnce(key, bytes));
    EXPECT_TRUE(store.hasValidArtifact(key));
    // Second and third publish of the same content key: presence
    // check saves the transfer.
    EXPECT_FALSE(store.publishArtifactOnce(key, bytes));
    EXPECT_FALSE(store.publishArtifactOnce(key, bytes));
    EXPECT_EQ(store.stats().artifactUploads, 1u);
    EXPECT_EQ(store.stats().artifactReuses, 2u);

    EXPECT_EQ(core::readFileBytes(store.fetchArtifact(key), "artifact"),
              bytes);
}

TEST(ArtifactStoreTest, CorruptArtifactIsRejectedAndReuploaded)
{
    const std::string root = freshDir("box-corrupt");
    ArtifactStore store(root);
    const std::string key =
        ArtifactStore::artifactKey(0xfeedface00112233ull,
                                   core::artifactFormatVersion);
    const std::vector<uint8_t> bytes{9, 8, 7, 6, 5, 4, 3, 2, 1};
    ASSERT_TRUE(store.publishArtifactOnce(key, bytes));

    // Flip bytes behind the store's back (a torn copy / bit rot); the
    // checksum sidecar no longer matches.
    writeText(root + "/" + key, "garbage that is not the artifact");
    EXPECT_FALSE(store.hasValidArtifact(key));
    EXPECT_THROW(store.fetchArtifact(key), core::ArtifactFormatError);
    EXPECT_GE(store.stats().corruptRejected, 1u);

    // The corrupt copy was evicted, so the next publish re-uploads
    // and readers see good bytes again.
    EXPECT_TRUE(store.publishArtifactOnce(key, bytes));
    EXPECT_EQ(core::readFileBytes(store.fetchArtifact(key), "artifact"),
              bytes);
    EXPECT_EQ(store.stats().artifactUploads, 2u);
}

TEST(ArtifactStoreTest, AnySingleBitFlipFailsValidation)
{
    // Larger than one hashing chunk, with a ragged tail, so the flips
    // land in the first block, across the chunk seam and in the
    // zero-padded last block.
    const std::string root = freshDir("box-bitflip");
    ArtifactStore store(root);
    const std::string key =
        ArtifactStore::artifactKey(0x0123456789abcdefull,
                                   core::artifactFormatVersion);
    std::vector<uint8_t> bytes((1u << 20) + 37);
    for (size_t i = 0; i < bytes.size(); i++)
        bytes[i] = static_cast<uint8_t>(i * 131 + 7);
    ASSERT_TRUE(store.publishArtifactOnce(key, bytes));
    EXPECT_EQ(readText(root + "/" + key + ".sum").rfind("CASSUM2 ", 0),
              0u);

    for (size_t offset : {size_t{0}, size_t{(1u << 20) - 1},
                          size_t{1u << 20}, bytes.size() - 1}) {
        std::vector<uint8_t> flipped = bytes;
        flipped[offset] ^= 0x10;
        core::writeFileBytes(root + "/" + key, flipped);
        EXPECT_FALSE(store.hasValidArtifact(key)) << "offset " << offset;
    }
    core::writeFileBytes(root + "/" + key, bytes);
    EXPECT_TRUE(store.hasValidArtifact(key));
}

TEST(ArtifactStoreTest, TasksAreClaimedExactlyOnce)
{
    ArtifactStore store(freshDir("box-claim"));
    const std::vector<uint8_t> manifest{1, 2, 3};
    store.publishTask("run-1-shard-0", manifest);

    const std::string won = store.claimTask("agent-a");
    EXPECT_EQ(won, "run-1-shard-0");
    // The second claimant loses the rename race: nothing left.
    EXPECT_EQ(store.claimTask("agent-b"), "");
    EXPECT_EQ(store.fetchClaimedTask(won, "agent-a"), manifest);

    store.publishResult(won, "agent-a", {4, 5, 6});
    EXPECT_TRUE(store.exists(ArtifactStore::resultKey(won)));
    // Publishing the result dropped the claim.
    EXPECT_FALSE(store.exists(ArtifactStore::claimedKey(won, "agent-a")));
}

} // namespace
