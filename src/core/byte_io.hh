/**
 * @file
 * Little-endian byte writer/reader shared by the container formats
 * (AnalyzedWorkload snapshots, shard manifests, shard cell-result
 * sets). The writer appends into a growable byte vector; the reader is
 * bounds-checked and throws std::invalid_argument on truncation, so
 * every parser built on it fails loudly on short files instead of
 * reading past the end.
 */

#ifndef CASSANDRA_CORE_BYTE_IO_HH
#define CASSANDRA_CORE_BYTE_IO_HH

#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace cassandra::core {

/** Write a byte vector to a file (created/truncated); throws
 * std::runtime_error on open failures and short writes. */
inline void
writeFileBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file)
        throw std::runtime_error("cannot open " + path + " for writing");
    file.write(reinterpret_cast<const char *>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    if (!file)
        throw std::runtime_error("short write to " + path);
}

/** Slurp a whole file in one read; throws std::runtime_error naming
 * `what` when the file cannot be opened or read. */
inline std::vector<uint8_t>
readFileBytes(const std::string &path, const char *what)
{
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    if (!file)
        throw std::runtime_error(std::string("cannot open ") + what +
                                 " " + path);
    const std::streamoff size = file.tellg();
    if (size < 0)
        throw std::runtime_error(std::string("cannot size ") + what +
                                 " " + path);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    file.seekg(0);
    if (!file.read(reinterpret_cast<char *>(bytes.data()),
                   static_cast<std::streamsize>(bytes.size())))
        throw std::runtime_error(std::string("short read from ") + what +
                                 " " + path);
    return bytes;
}

/** Little-endian byte writer for the container formats. */
class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; i++)
            bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; i++)
            bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        uint64_t raw;
        std::memcpy(&raw, &v, sizeof raw);
        u64(raw);
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    void
    blob(const std::vector<uint8_t> &b)
    {
        u32(static_cast<uint32_t>(b.size()));
        bytes_.insert(bytes_.end(), b.begin(), b.end());
    }

    void
    raw(const uint8_t *data, size_t n)
    {
        bytes_.insert(bytes_.end(), data, data + n);
    }

    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<uint8_t> bytes_;
};

/** Bounds-checked little-endian byte reader. */
class ByteReader
{
  public:
    explicit ByteReader(const std::vector<uint8_t> &bytes)
        : bytes_(bytes)
    {
    }

    uint8_t
    u8()
    {
        need(1);
        return bytes_[pos_++];
    }

    uint32_t
    u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; i++)
            v |= static_cast<uint32_t>(bytes_[pos_++]) << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; i++)
            v |= static_cast<uint64_t>(bytes_[pos_++]) << (8 * i);
        return v;
    }

    double
    f64()
    {
        uint64_t raw = u64();
        double v;
        std::memcpy(&v, &raw, sizeof v);
        return v;
    }

    std::string
    str()
    {
        uint32_t n = u32();
        need(n);
        std::string s(bytes_.begin() + pos_, bytes_.begin() + pos_ + n);
        pos_ += n;
        return s;
    }

    std::vector<uint8_t>
    blob()
    {
        uint32_t n = u32();
        need(n);
        std::vector<uint8_t> b(bytes_.begin() + pos_,
                               bytes_.begin() + pos_ + n);
        pos_ += n;
        return b;
    }

    /** Bounds-checked view of the next n bytes (consumed). */
    const uint8_t *
    raw(size_t n)
    {
        need(n);
        const uint8_t *p = bytes_.data() + pos_;
        pos_ += n;
        return p;
    }

    bool done() const { return pos_ == bytes_.size(); }
    size_t remaining() const { return bytes_.size() - pos_; }

  private:
    void
    need(size_t n)
    {
        if (bytes_.size() - pos_ < n)
            throw std::invalid_argument("truncated container (short read)");
    }

    const std::vector<uint8_t> &bytes_;
    size_t pos_ = 0;
};

} // namespace cassandra::core

#endif // CASSANDRA_CORE_BYTE_IO_HH
