/**
 * @file
 * Content-addressed artifact store ("drop box") for multi-process and
 * multi-host shard dispatch.
 *
 * The coordinator/agent protocol is host-agnostic: CASSSM3 manifests
 * plus self-contained CASSAW4 snapshots in, CASSCR1 result sets out,
 * all addressed by store keys rather than paths. The ArtifactStore is
 * the drop box they travel through — private to one run under
 * `--execution subprocess`, shared across runs and hosts under
 * `--execution remote`:
 *
 *   <root>/artifacts/aw-<workload fp>-v<format>.aw   snapshots
 *   <root>/artifacts/...aw.sum                       checksum sidecars
 *   <root>/tasks/inbox/<task>.sm                     shard manifests
 *   <root>/tasks/claimed/<task>.sm.<agent token>     claimed work
 *   <root>/tasks/outbox/<task>.crs | <task>.err      results / errors
 *   <root>/agents/stop                               agent stop flag
 *
 * Artifacts are *content-addressed*: the key of a snapshot is its
 * workload fingerprint plus the CASSAW container version, so a
 * snapshot uploads once per fingerprint no matter how many sweeps,
 * jobs or coordinators reference it. Every publish is atomic (write a
 * process-unique `.tmp` sibling, rename(2) into place) and carries a
 * checksum sidecar; readers validate the checksum, so a corrupt or
 * partially-copied artifact is rejected (typed ArtifactFormatError),
 * evicted and re-uploaded by the next publishArtifactOnce instead of
 * silently feeding agents garbage.
 *
 * Agents claim work by atomically renaming an inbox manifest into
 * claimed/ — exactly one agent wins a task, with no locks and no
 * server process. Results are published back into outbox/ with the
 * same tmp+rename discipline.
 *
 * All I/O goes through the small ArtifactTransport interface. The
 * LocalDirTransport backend ships here (a shared directory — local
 * disk, NFS, or anything rsync'd); an ssh/object-store backend can
 * slot in later without touching the executor or the agents.
 *
 * GC: gc() removes artifacts that are (a) not referenced by any live
 * manifest in inbox/ or claimed/ and (b) older than a caller-given
 * age, plus claimed tasks and stop-gap files left by dead agents.
 * Refcounts are recomputed from the manifests themselves, so the
 * store needs no side database.
 */

#ifndef CASSANDRA_CORE_ARTIFACT_STORE_HH
#define CASSANDRA_CORE_ARTIFACT_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/byte_io.hh"

namespace cassandra::core {

/**
 * Minimal transport the store talks through. Keys are relative,
 * '/'-separated paths under the store root ("artifacts/aw-....aw").
 * publish() must be atomic: a reader never observes a torn object.
 */
class ArtifactTransport
{
  public:
    virtual ~ArtifactTransport() = default;

    virtual bool exists(const std::string &key) const = 0;

    /** Atomically create `key` with `bytes` (overwrites). */
    virtual void publish(const std::string &key,
                         const std::vector<uint8_t> &bytes) = 0;

    /** @throws std::runtime_error when the object is missing. */
    virtual std::vector<uint8_t> fetch(const std::string &key) const = 0;

    virtual void remove(const std::string &key) = 0;

    /**
     * Keys directly under `prefix` (a directory key), without the
     * prefix. Missing prefixes list empty.
     */
    virtual std::vector<std::string>
    list(const std::string &prefix) const = 0;

    /**
     * Atomically move `from` to `to`; false when another party moved
     * it first (the claim race losing is not an error).
     */
    virtual bool rename(const std::string &from,
                        const std::string &to) = 0;

    /** Seconds since epoch of the object's last modification; 0 when
     * missing or unsupported (disables age-based GC for the key). */
    virtual int64_t mtime(const std::string &key) const = 0;

    /** Filesystem path of `key` when objects are local files (read,
     * hashed and published in place); empty otherwise. */
    virtual std::string localPath(const std::string &key) const
    {
        (void)key;
        return "";
    }
};

/** A shared directory as the drop box (local disk, NFS, ...). */
class LocalDirTransport : public ArtifactTransport
{
  public:
    /** Creates `root` (and parents) when absent. */
    explicit LocalDirTransport(std::string root);

    const std::string &root() const { return root_; }

    std::string localPath(const std::string &key) const override;
    bool exists(const std::string &key) const override;
    void publish(const std::string &key,
                 const std::vector<uint8_t> &bytes) override;
    std::vector<uint8_t> fetch(const std::string &key) const override;
    void remove(const std::string &key) override;
    std::vector<std::string>
    list(const std::string &prefix) const override;
    bool rename(const std::string &from, const std::string &to) override;
    int64_t mtime(const std::string &key) const override;

  private:
    std::string root_;
};

/** Content-addressed artifact store over a transport (file comment). */
class ArtifactStore
{
  public:
    /** Observable lifetime counters. */
    struct Stats
    {
        uint64_t artifactUploads = 0; ///< snapshots actually published
        uint64_t artifactReuses = 0;  ///< presence check saved an upload
        uint64_t artifactFetches = 0;
        uint64_t corruptRejected = 0; ///< checksum-failed artifacts evicted
        uint64_t tasksPublished = 0;
        uint64_t tasksClaimed = 0;
        uint64_t resultsPublished = 0;
        uint64_t gcRemoved = 0;
    };

    /** GC outcome (see gc()). */
    struct GcStats
    {
        uint64_t removedArtifacts = 0;
        uint64_t keptReferenced = 0; ///< live manifests pinned these
        uint64_t keptFresh = 0;      ///< younger than the age floor
        uint64_t reclaimedBytes = 0;
        uint64_t staleClaims = 0; ///< dead-agent claims requeued
    };

    explicit ArtifactStore(std::shared_ptr<ArtifactTransport> transport);
    /** Convenience: LocalDirTransport over `dir`. */
    explicit ArtifactStore(const std::string &dir);

    ArtifactTransport &transport() const { return *transport_; }

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
     * Artifacts need a transport with local files (localPath).
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
     * Checksum-validate an artifact in place and return the local path
     * to read it from (objects are immutable once published, since
     * every publish is a rename).
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
     * (lexicographically first) task wins, so submission order is
     * roughly FIFO.
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

    /** Whether the `agents/stop` flag is up: agents exit their poll
     * loop after the current task. */
    bool agentStopRequested() const;

    // -- GC ----------------------------------------------------------

    /**
     * Remove artifacts not referenced by any manifest in inbox/ or
     * claimed/ and older than `max_age_seconds`, stale outbox entries
     * of the same age, and claimed tasks whose agent pid (parsed from
     * the claim token) is dead — those manifests are requeued into the
     * inbox so their shards are not lost.
     */
    GcStats gc(int64_t max_age_seconds);

    Stats stats() const;

  private:
    /** The sidecar text stored for `key` ("" when unreadable). */
    std::string readSum(const std::string &key) const;
    /** Local file of `key`; throws std::logic_error for transports
     * without local files. */
    std::string localFile(const std::string &key) const;
    /** Drop a corrupt object and its sidecar (counted). */
    void evict(const std::string &key) const;

    std::shared_ptr<ArtifactTransport> transport_;
    std::atomic<uint64_t> artifactUploads_{0};
    std::atomic<uint64_t> artifactReuses_{0};
    // Mutated from const fetch paths — observability, not state.
    mutable std::atomic<uint64_t> artifactFetches_{0};
    mutable std::atomic<uint64_t> corruptRejected_{0};
    std::atomic<uint64_t> tasksPublished_{0};
    std::atomic<uint64_t> tasksClaimed_{0};
    std::atomic<uint64_t> resultsPublished_{0};
    std::atomic<uint64_t> gcRemoved_{0};
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
