/**
 * @file
 * Content-addressed artifact store ("drop box") for out-of-process
 * shard dispatch.
 *
 * The coordinator/agent protocol is file-based: CASSSM4 manifests plus
 * self-contained CASSAW4 snapshots in, CASSCR1 result sets out, all
 * addressed by store keys (relative, '/'-separated paths under the
 * store root). Under `--execution subprocess` each run owns a private
 * store directory:
 *
 *   <root>/artifacts/aw-<workload fp>-v<format>.aw   snapshots
 *   <root>/artifacts/...aw.sum                       checksum sidecars
 *   <root>/tasks/inbox/<task>.sm                     shard manifests
 *   <root>/tasks/claimed/<task>.sm.<agent token>     claimed work
 *   <root>/tasks/outbox/<task>.crs | <task>.err      results / errors
 *
 * Artifacts are *content-addressed*: the key of a snapshot is its
 * workload fingerprint plus the CASSAW container version, so a
 * snapshot uploads once per fingerprint however many shards reference
 * it. Every publish is atomic (write a process-unique `.tmp` sibling,
 * rename(2) into place) and carries a checksum sidecar; readers
 * validate the checksum, so a corrupt or partially-written artifact is
 * rejected (typed ArtifactFormatError), evicted and re-uploaded by the
 * next publishArtifactOnce instead of silently feeding agents garbage.
 *
 * Agents claim work by atomically renaming an inbox manifest into
 * claimed/ — exactly one agent wins a task, with no locks and no
 * server process. Results are published back into outbox/ with the
 * same tmp+rename discipline.
 */

#ifndef CASSANDRA_CORE_ARTIFACT_STORE_HH
#define CASSANDRA_CORE_ARTIFACT_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/byte_io.hh"

namespace cassandra::core {

/** Content-addressed artifact store over a directory (file comment). */
class ArtifactStore
{
  public:
    /** Observable lifetime counters. */
    struct Stats
    {
        uint64_t artifactUploads = 0; ///< snapshots actually published
        uint64_t artifactReuses = 0;  ///< presence check saved an upload
        uint64_t corruptRejected = 0; ///< checksum-failed artifacts evicted
    };

    /** Creates `dir` (and parents) when absent. */
    explicit ArtifactStore(std::string dir);

    // -- raw objects -------------------------------------------------

    /** Whether `key` names a regular file in the store. */
    bool exists(const std::string &key) const;

    /** @throws std::runtime_error when the object is missing. */
    std::vector<uint8_t> fetch(const std::string &key) const;

    void remove(const std::string &key);

    /** Keys directly under `prefix` (a directory key), without the
     * prefix, sorted. Missing prefixes list empty. */
    std::vector<std::string> list(const std::string &prefix) const;

    // -- content-addressed snapshots ---------------------------------

    /** Store key of a workload snapshot: fingerprint + CASSAW format
     * version ("artifacts/aw-<16 hex>-v<version>.aw"). */
    static std::string artifactKey(uint64_t workload_fingerprint,
                                   uint32_t format_version);

    /**
     * True when `key` exists with a matching checksum sidecar — the
     * presence check publishArtifactOnce uses. A key whose sidecar is
     * missing or stale (torn copy, bit rot) is treated as absent.
     */
    bool hasValidArtifact(const std::string &key) const;

    /**
     * Upload a snapshot under `key` unless a valid copy already exists.
     * `save(path)` writes the object to a staging file beside the key
     * (it only runs when an upload is needed), which is then published
     * by rename, so a multi-megabyte snapshot is never held in memory.
     * Returns true when this call uploaded (counts an upload), false
     * when the presence check saved the transfer (counts a reuse). A
     * corrupt existing copy is evicted and re-uploaded.
     */
    bool
    publishArtifactOnce(const std::string &key,
                        const std::function<void(const std::string &path)>
                            &save);

    /** publishArtifactOnce for bytes already in hand. */
    bool
    publishArtifactOnce(const std::string &key,
                        const std::vector<uint8_t> &bytes)
    {
        return publishArtifactOnce(key, [&](const std::string &path) {
            writeFileBytes(path, bytes);
        });
    }

    /**
     * Checksum-validate an artifact in place and return the path to
     * read it from (objects are immutable once published, since every
     * publish is a rename).
     * @throws ArtifactFormatError when the checksum (or sidecar) does
     *         not match the bytes — the corrupt copy is evicted first,
     *         so the next publisher re-uploads; std::runtime_error
     *         when the key is missing entirely.
     */
    std::string fetchArtifact(const std::string &key) const;

    // -- task plumbing (manifests in, results out) -------------------

    /** Publish a shard manifest as tasks/inbox/<task>.sm. */
    void publishTask(const std::string &task,
                     const std::vector<uint8_t> &manifest_bytes);

    /**
     * Claim any inbox task: atomically rename it into claimed/ with
     * `agent_token` appended. Returns the task name, or empty when the
     * inbox is empty (or every candidate was claimed first). Oldest
     * (lexicographically first) task wins.
     */
    std::string claimTask(const std::string &agent_token);

    /** Claimed-manifest key of a task this agent owns. */
    static std::string claimedKey(const std::string &task,
                                  const std::string &agent_token);

    /** Fetch the manifest bytes of a claimed task. */
    std::vector<uint8_t>
    fetchClaimedTask(const std::string &task,
                     const std::string &agent_token) const;

    /** Publish a CASSCR1 result set for `task` and drop the claim. */
    void publishResult(const std::string &task,
                       const std::string &agent_token,
                       const std::vector<uint8_t> &result_bytes);

    /** Publish an error report for `task` and drop the claim. */
    void publishError(const std::string &task,
                      const std::string &agent_token,
                      const std::string &message);

    /** Task result/error keys the coordinator polls. */
    static std::string resultKey(const std::string &task);
    static std::string errorKey(const std::string &task);

    /**
     * Withdraw a task the coordinator gave up on (timeout): removes
     * the inbox entry when still unclaimed. Late results for the task
     * are ignored by construction (run-unique task names).
     */
    void withdrawTask(const std::string &task);

    Stats stats() const;

  private:
    /** Filesystem path of `key`. */
    std::string path(const std::string &key) const;
    /** Atomically create `key` with `bytes` (overwrites). */
    void publish(const std::string &key,
                 const std::vector<uint8_t> &bytes);
    /** The sidecar text stored for `key` ("" when unreadable). */
    std::string readSum(const std::string &key) const;
    /** Drop a corrupt object and its sidecar (counted). */
    void evict(const std::string &key) const;

    std::string root_;
    std::atomic<uint64_t> artifactUploads_{0};
    std::atomic<uint64_t> artifactReuses_{0};
    // Mutated from const fetch paths — observability, not state.
    mutable std::atomic<uint64_t> corruptRejected_{0};
};

/**
 * Agent token for task claims: "<processUniqueSuffix>-<sequence>",
 * unique across processes (pid-based where the platform allows) and
 * across agents inside one process.
 */
std::string makeAgentToken();

/** Pid parsed from an agent token ("<pid>-<seq>"); 0 when the token
 * is not pid-shaped (random-token platforms). */
long tokenPid(const std::string &token);

} // namespace cassandra::core

#endif // CASSANDRA_CORE_ARTIFACT_STORE_HH
