#include "core/artifact_store.hh"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <set>
#include <stdexcept>

#if !defined(_WIN32)
#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#define CASSANDRA_POSIX_STORE 1
#endif

#include "core/byte_io.hh"
#include "core/cell_executor.hh"
#include "core/trace_stream.hh"

namespace cassandra::core {

namespace {

/** One checksum step: a bijection of `hash` for every `word`. */
uint64_t
hashStep(uint64_t hash, uint64_t word)
{
    hash = (hash ^ word) * 0x9e3779b97f4a7c15ull;
    return hash ^ (hash >> 32);
}

/**
 * The artifact checksum (CASSUM2): four independent hashStep lanes,
 * one per little-endian 8-byte word of each 32-byte block (the last
 * block zero-padded), folded into one and finished with the length.
 * Every step is a bijection of its lane, so a change confined to one
 * word always changes the checksum, and the lanes keep validating a
 * multi-megabyte snapshot well below the cost of reading it. Feed
 * chunks whose sizes are multiples of 32 bytes; only the last may be
 * shorter.
 */
class ContentHash
{
  public:
    void
    update(const uint8_t *p, size_t n)
    {
        size_ += n;
        for (; n >= 32; p += 32, n -= 32)
            block(p);
        if (n > 0) {
            uint8_t last[32] = {};
            std::memcpy(last, p, n);
            block(last);
        }
    }

    /** The sidecar payload: magic, content hash, content size. */
    std::string
    sumText() const
    {
        uint64_t hash = lanes_[0];
        for (int l = 1; l < 4; l++)
            hash = hashStep(hash, lanes_[l]);
        char buf[64];
        std::snprintf(buf, sizeof buf, "CASSUM2 %016" PRIx64 " %" PRIu64
                      "\n", hashStep(hash, size_), size_);
        return buf;
    }

  private:
    void
    block(const uint8_t *p)
    {
        for (int l = 0; l < 4; l++) {
            uint64_t word = 0;
            for (int b = 0; b < 8; b++)
                word |= static_cast<uint64_t>(p[8 * l + b]) << (8 * b);
            lanes_[l] = hashStep(lanes_[l], word);
        }
    }

    uint64_t lanes_[4] = {1, 2, 3, 4};
    uint64_t size_ = 0;
};

/** Sidecar payload for a file, hashed in bounded chunks. */
std::string
sumTextOfFile(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        throw std::runtime_error("cannot open drop-box object " + path);
    std::vector<uint8_t> chunk(1 << 20);
    ContentHash hash;
    while (file.read(reinterpret_cast<char *>(chunk.data()),
                     static_cast<std::streamsize>(chunk.size())) ||
           file.gcount() > 0)
        hash.update(chunk.data(), static_cast<size_t>(file.gcount()));
    return hash.sumText();
}

std::string
sumKey(const std::string &key)
{
    return key + ".sum";
}

std::vector<uint8_t>
toBytes(const std::string &text)
{
    return std::vector<uint8_t>(text.begin(), text.end());
}

std::string
dirnameOf(const std::string &path)
{
    const size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash);
}

} // namespace

// ---------------------------------------------------------------------
// LocalDirTransport
// ---------------------------------------------------------------------

LocalDirTransport::LocalDirTransport(std::string root)
    : root_(std::move(root))
{
    if (root_.empty())
        throw std::invalid_argument("artifact store needs a directory");
    while (root_.size() > 1 && root_.back() == '/')
        root_.pop_back();
    ensureDirectories(root_);
}

bool
LocalDirTransport::exists(const std::string &key) const
{
#if defined(CASSANDRA_POSIX_STORE)
    struct stat st;
    return ::stat((root_ + "/" + key).c_str(), &st) == 0 &&
        S_ISREG(st.st_mode);
#else
    std::ifstream probe(root_ + "/" + key, std::ios::binary);
    return static_cast<bool>(probe);
#endif
}

void
LocalDirTransport::publish(const std::string &key,
                           const std::vector<uint8_t> &bytes)
{
    static std::atomic<uint64_t> sequence{0};
    const std::string path = root_ + "/" + key;
    const std::string parent = dirnameOf(path);
    if (!parent.empty())
        ensureDirectories(parent);
    // tmp+rename: a reader (or a concurrent publisher of the same
    // content-addressed key) never observes a torn object.
    const std::string tmp = path + ".tmp-" + processUniqueSuffix() +
        "-" + std::to_string(sequence.fetch_add(1));
    writeFileBytes(tmp, bytes);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot publish " + path);
    }
}

std::string
LocalDirTransport::localPath(const std::string &key) const
{
    return root_ + "/" + key;
}

std::vector<uint8_t>
LocalDirTransport::fetch(const std::string &key) const
{
    return readFileBytes(root_ + "/" + key, "drop-box object");
}

void
LocalDirTransport::remove(const std::string &key)
{
    std::remove((root_ + "/" + key).c_str());
}

std::vector<std::string>
LocalDirTransport::list(const std::string &prefix) const
{
    std::vector<std::string> out;
#if defined(CASSANDRA_POSIX_STORE)
    const std::string dir = root_ + "/" + prefix;
    if (DIR *d = opendir(dir.c_str())) {
        while (struct dirent *entry = readdir(d)) {
            const std::string name = entry->d_name;
            if (name != "." && name != "..")
                out.push_back(name);
        }
        closedir(d);
    }
    std::sort(out.begin(), out.end());
#else
    (void)prefix;
#endif
    return out;
}

bool
LocalDirTransport::rename(const std::string &from, const std::string &to)
{
    const std::string to_path = root_ + "/" + to;
    const std::string parent = dirnameOf(to_path);
    if (!parent.empty())
        ensureDirectories(parent);
    // rename(2) is the claim primitive: the source disappears with the
    // first successful rename, so exactly one caller wins.
    return std::rename((root_ + "/" + from).c_str(),
                       to_path.c_str()) == 0;
}

int64_t
LocalDirTransport::mtime(const std::string &key) const
{
#if defined(CASSANDRA_POSIX_STORE)
    struct stat st;
    if (::stat((root_ + "/" + key).c_str(), &st) == 0)
        return static_cast<int64_t>(st.st_mtime);
#else
    (void)key;
#endif
    return 0;
}

// ---------------------------------------------------------------------
// ArtifactStore
// ---------------------------------------------------------------------

ArtifactStore::ArtifactStore(std::shared_ptr<ArtifactTransport> transport)
    : transport_(std::move(transport))
{
    if (!transport_)
        throw std::invalid_argument("artifact store needs a transport");
}

ArtifactStore::ArtifactStore(const std::string &dir)
    : ArtifactStore(std::make_shared<LocalDirTransport>(dir))
{
}

std::string
ArtifactStore::artifactKey(uint64_t workload_fingerprint,
                           uint32_t format_version)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "artifacts/aw-%016" PRIx64 "-v%u.aw",
                  workload_fingerprint, format_version);
    return buf;
}

std::string
ArtifactStore::readSum(const std::string &key) const
{
    try {
        const std::vector<uint8_t> raw = transport_->fetch(sumKey(key));
        return std::string(raw.begin(), raw.end());
    } catch (const std::exception &) {
        return "";
    }
}

std::string
ArtifactStore::localFile(const std::string &key) const
{
    const std::string path = transport_->localPath(key);
    if (path.empty())
        throw std::logic_error(
            "drop-box artifacts need a directory transport");
    return path;
}

void
ArtifactStore::evict(const std::string &key) const
{
    corruptRejected_.fetch_add(1, std::memory_order_relaxed);
    transport_->remove(sumKey(key));
    transport_->remove(key);
}

bool
ArtifactStore::hasValidArtifact(const std::string &key) const
{
    if (!transport_->exists(key) || !transport_->exists(sumKey(key)))
        return false;
    try {
        return readSum(key) == sumTextOfFile(localFile(key));
    } catch (const std::exception &) {
        return false;
    }
}

bool
ArtifactStore::publishArtifactOnce(
    const std::string &key,
    const std::function<void(const std::string &path)> &save)
{
    if (hasValidArtifact(key)) {
        artifactReuses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    // Present but failed validation: a torn copy or bit rot. Evict
    // both halves so no agent trusts it mid-upload.
    if (transport_->exists(key))
        evict(key);

    // Stage the object beside its key, hash it there and publish it
    // by rename (atomic, and never a whole snapshot in memory).
    static std::atomic<uint64_t> sequence{0};
    const std::string local = localFile(key);
    const std::string stage = local + ".tmp-" + processUniqueSuffix() +
        "-" + std::to_string(sequence.fetch_add(1));
    std::string sum;
    try {
        ensureDirectories(dirnameOf(stage));
        save(stage);
        sum = sumTextOfFile(stage);
        // Object first, sidecar last: a validating reader only accepts
        // the pair once both atomic publishes have landed.
        if (std::rename(stage.c_str(), local.c_str()) != 0)
            throw std::runtime_error("cannot publish " + local);
    } catch (...) {
        std::remove(stage.c_str());
        throw;
    }
    transport_->publish(sumKey(key), toBytes(sum));
    artifactUploads_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

std::string
ArtifactStore::fetchArtifact(const std::string &key) const
{
    const std::string local = localFile(key);
    if (!transport_->exists(key))
        throw std::runtime_error("drop-box artifact " + key +
                                 " is missing");
    artifactFetches_.fetch_add(1, std::memory_order_relaxed);
    if (readSum(key) != sumTextOfFile(local)) {
        // Evict the corrupt pair so the next publishArtifactOnce
        // re-uploads instead of endlessly reusing a bad copy.
        evict(key);
        throw ArtifactFormatError("drop-box artifact " + key +
                                  " failed checksum validation "
                                  "(corrupt or torn copy); evicted");
    }
    return local;
}

void
ArtifactStore::publishTask(const std::string &task,
                           const std::vector<uint8_t> &manifest_bytes)
{
    transport_->publish("tasks/inbox/" + task + ".sm", manifest_bytes);
    tasksPublished_.fetch_add(1, std::memory_order_relaxed);
}

std::string
ArtifactStore::claimedKey(const std::string &task,
                          const std::string &agent_token)
{
    return "tasks/claimed/" + task + ".sm." + agent_token;
}

std::string
ArtifactStore::claimTask(const std::string &agent_token)
{
    for (const std::string &name : transport_->list("tasks/inbox")) {
        if (name.size() <= 3 ||
            name.compare(name.size() - 3, 3, ".sm") != 0)
            continue;
        const std::string task = name.substr(0, name.size() - 3);
        if (transport_->rename("tasks/inbox/" + name,
                               claimedKey(task, agent_token))) {
            tasksClaimed_.fetch_add(1, std::memory_order_relaxed);
            return task;
        }
        // Another agent renamed it first; try the next task.
    }
    return "";
}

std::vector<uint8_t>
ArtifactStore::fetchClaimedTask(const std::string &task,
                                const std::string &agent_token) const
{
    return transport_->fetch(claimedKey(task, agent_token));
}

std::string
ArtifactStore::resultKey(const std::string &task)
{
    return "tasks/outbox/" + task + ".crs";
}

std::string
ArtifactStore::errorKey(const std::string &task)
{
    return "tasks/outbox/" + task + ".err";
}

void
ArtifactStore::publishResult(const std::string &task,
                             const std::string &agent_token,
                             const std::vector<uint8_t> &result_bytes)
{
    transport_->publish(resultKey(task), result_bytes);
    transport_->remove(claimedKey(task, agent_token));
    resultsPublished_.fetch_add(1, std::memory_order_relaxed);
}

void
ArtifactStore::publishError(const std::string &task,
                            const std::string &agent_token,
                            const std::string &message)
{
    transport_->publish(errorKey(task), toBytes(message));
    transport_->remove(claimedKey(task, agent_token));
}

void
ArtifactStore::withdrawTask(const std::string &task)
{
    transport_->remove("tasks/inbox/" + task + ".sm");
}

bool
ArtifactStore::agentStopRequested() const
{
    return transport_->exists("agents/stop");
}

long
tokenPid(const std::string &token)
{
    const size_t dash = token.find('-');
    const std::string head =
        dash == std::string::npos ? token : token.substr(0, dash);
    if (head.empty() ||
        head.find_first_not_of("0123456789") != std::string::npos)
        return 0;
    return std::strtol(head.c_str(), nullptr, 10);
}

namespace {

bool
pidIsDead(long pid)
{
#if defined(CASSANDRA_POSIX_STORE)
    return pid > 0 && ::kill(static_cast<pid_t>(pid), 0) != 0 &&
        errno == ESRCH;
#else
    (void)pid;
    return false;
#endif
}

} // namespace

ArtifactStore::GcStats
ArtifactStore::gc(int64_t max_age_seconds)
{
    GcStats out;

    // Requeue claims whose agent died mid-task: the manifest goes back
    // to the inbox so another agent (or the coordinator's retry) can
    // still run the shard.
    for (const std::string &name : transport_->list("tasks/claimed")) {
        const size_t sm = name.find(".sm.");
        if (sm == std::string::npos)
            continue;
        const std::string token = name.substr(sm + 4);
        if (!pidIsDead(tokenPid(token)))
            continue;
        const std::string task = name.substr(0, sm);
        if (transport_->rename("tasks/claimed/" + name,
                               "tasks/inbox/" + task + ".sm"))
            out.staleClaims++;
    }

    // Live manifests pin their artifacts: recompute the reference set
    // from inbox + claimed instead of keeping a side database.
    std::set<std::string> referenced;
    auto collect = [&](const std::string &prefix) {
        for (const std::string &name : transport_->list(prefix)) {
            try {
                const ShardManifest manifest = unpackShardManifest(
                    transport_->fetch(prefix + "/" + name));
                for (const auto &[workload, key] : manifest.artifacts) {
                    (void)workload;
                    referenced.insert(key);
                }
            } catch (const std::exception &) {
                // Unreadable manifest: pins nothing.
            }
        }
    };
    collect("tasks/inbox");
    collect("tasks/claimed");

    const int64_t now = static_cast<int64_t>(std::time(nullptr));
    for (const std::string &name : transport_->list("artifacts")) {
        if (name.size() <= 3 ||
            name.compare(name.size() - 3, 3, ".aw") != 0)
            continue;
        const std::string key = "artifacts/" + name;
        if (referenced.count(key)) {
            out.keptReferenced++;
            continue;
        }
        const int64_t stamp = transport_->mtime(key);
        if (stamp == 0 || now - stamp < max_age_seconds) {
            // Unknown mtime keeps the artifact: never GC blind.
            out.keptFresh++;
            continue;
        }
        try {
            out.reclaimedBytes += transport_->fetch(key).size();
        } catch (const std::exception &) {
        }
        transport_->remove(sumKey(key));
        transport_->remove(key);
        out.removedArtifacts++;
        gcRemoved_.fetch_add(1, std::memory_order_relaxed);
    }

    // Outbox entries nobody collected (a coordinator that timed out
    // or died) age out the same way.
    for (const std::string &name : transport_->list("tasks/outbox")) {
        const std::string key = "tasks/outbox/" + name;
        const int64_t stamp = transport_->mtime(key);
        if (stamp != 0 && now - stamp >= max_age_seconds)
            transport_->remove(key);
    }
    return out;
}

ArtifactStore::Stats
ArtifactStore::stats() const
{
    Stats s;
    s.artifactUploads =
        artifactUploads_.load(std::memory_order_relaxed);
    s.artifactReuses = artifactReuses_.load(std::memory_order_relaxed);
    s.artifactFetches =
        artifactFetches_.load(std::memory_order_relaxed);
    s.corruptRejected =
        corruptRejected_.load(std::memory_order_relaxed);
    s.tasksPublished = tasksPublished_.load(std::memory_order_relaxed);
    s.tasksClaimed = tasksClaimed_.load(std::memory_order_relaxed);
    s.resultsPublished =
        resultsPublished_.load(std::memory_order_relaxed);
    s.gcRemoved = gcRemoved_.load(std::memory_order_relaxed);
    return s;
}

std::string
makeAgentToken()
{
    static std::atomic<uint64_t> sequence{0};
    return processUniqueSuffix() + "-" +
        std::to_string(sequence.fetch_add(1));
}

} // namespace cassandra::core
