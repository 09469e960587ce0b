#include "core/artifact_store.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#if !defined(_WIN32)
#include <dirent.h>
#include <sys/stat.h>
#define CASSANDRA_POSIX_STORE 1
#endif

#include "core/byte_io.hh"
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
// Raw objects
// ---------------------------------------------------------------------

ArtifactStore::ArtifactStore(std::string dir) : root_(std::move(dir))
{
    if (root_.empty())
        throw std::invalid_argument("artifact store needs a directory");
    while (root_.size() > 1 && root_.back() == '/')
        root_.pop_back();
    ensureDirectories(root_);
}

std::string
ArtifactStore::path(const std::string &key) const
{
    return root_ + "/" + key;
}

bool
ArtifactStore::exists(const std::string &key) const
{
#if defined(CASSANDRA_POSIX_STORE)
    struct stat st;
    return ::stat(path(key).c_str(), &st) == 0 && S_ISREG(st.st_mode);
#else
    std::ifstream probe(path(key), std::ios::binary);
    return static_cast<bool>(probe);
#endif
}

void
ArtifactStore::publish(const std::string &key,
                       const std::vector<uint8_t> &bytes)
{
    static std::atomic<uint64_t> sequence{0};
    const std::string target = path(key);
    const std::string parent = dirnameOf(target);
    if (!parent.empty())
        ensureDirectories(parent);
    // tmp+rename: a reader (or a concurrent publisher of the same
    // content-addressed key) never observes a torn object.
    const std::string tmp = target + ".tmp-" + processUniqueSuffix() +
        "-" + std::to_string(sequence.fetch_add(1));
    writeFileBytes(tmp, bytes);
    if (std::rename(tmp.c_str(), target.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot publish " + target);
    }
}

std::vector<uint8_t>
ArtifactStore::fetch(const std::string &key) const
{
    return readFileBytes(path(key), "drop-box object");
}

void
ArtifactStore::remove(const std::string &key)
{
    std::remove(path(key).c_str());
}

std::vector<std::string>
ArtifactStore::list(const std::string &prefix) const
{
    std::vector<std::string> out;
#if defined(CASSANDRA_POSIX_STORE)
    if (DIR *d = opendir(path(prefix).c_str())) {
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

// ---------------------------------------------------------------------
// Content-addressed snapshots
// ---------------------------------------------------------------------

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
        const std::vector<uint8_t> raw = fetch(sumKey(key));
        return std::string(raw.begin(), raw.end());
    } catch (const std::exception &) {
        return "";
    }
}

void
ArtifactStore::evict(const std::string &key) const
{
    corruptRejected_.fetch_add(1, std::memory_order_relaxed);
    std::remove(path(sumKey(key)).c_str());
    std::remove(path(key).c_str());
}

bool
ArtifactStore::hasValidArtifact(const std::string &key) const
{
    if (!exists(key) || !exists(sumKey(key)))
        return false;
    try {
        return readSum(key) == sumTextOfFile(path(key));
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
    if (exists(key))
        evict(key);

    // Stage the object beside its key, hash it there and publish it
    // by rename (atomic, and never a whole snapshot in memory).
    static std::atomic<uint64_t> sequence{0};
    const std::string local = path(key);
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
    publish(sumKey(key), toBytes(sum));
    artifactUploads_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

std::string
ArtifactStore::fetchArtifact(const std::string &key) const
{
    if (!exists(key))
        throw std::runtime_error("drop-box artifact " + key +
                                 " is missing");
    const std::string local = path(key);
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

// ---------------------------------------------------------------------
// Task plumbing
// ---------------------------------------------------------------------

void
ArtifactStore::publishTask(const std::string &task,
                           const std::vector<uint8_t> &manifest_bytes)
{
    publish("tasks/inbox/" + task + ".sm", manifest_bytes);
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
    for (const std::string &name : list("tasks/inbox")) {
        if (name.size() <= 3 ||
            name.compare(name.size() - 3, 3, ".sm") != 0)
            continue;
        const std::string task = name.substr(0, name.size() - 3);
        const std::string to = path(claimedKey(task, agent_token));
        ensureDirectories(dirnameOf(to));
        // rename(2) is the claim primitive: the source disappears with
        // the first successful rename, so exactly one caller wins.
        if (std::rename(path("tasks/inbox/" + name).c_str(),
                        to.c_str()) == 0)
            return task;
        // Another agent renamed it first; try the next task.
    }
    return "";
}

std::vector<uint8_t>
ArtifactStore::fetchClaimedTask(const std::string &task,
                                const std::string &agent_token) const
{
    return fetch(claimedKey(task, agent_token));
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
    publish(resultKey(task), result_bytes);
    remove(claimedKey(task, agent_token));
}

void
ArtifactStore::publishError(const std::string &task,
                            const std::string &agent_token,
                            const std::string &message)
{
    publish(errorKey(task), toBytes(message));
    remove(claimedKey(task, agent_token));
}

void
ArtifactStore::withdrawTask(const std::string &task)
{
    remove("tasks/inbox/" + task + ".sm");
}

ArtifactStore::Stats
ArtifactStore::stats() const
{
    Stats s;
    s.artifactUploads =
        artifactUploads_.load(std::memory_order_relaxed);
    s.artifactReuses = artifactReuses_.load(std::memory_order_relaxed);
    s.corruptRejected =
        corruptRejected_.load(std::memory_order_relaxed);
    return s;
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

std::string
makeAgentToken()
{
    static std::atomic<uint64_t> sequence{0};
    return processUniqueSuffix() + "-" +
        std::to_string(sequence.fetch_add(1));
}

} // namespace cassandra::core
