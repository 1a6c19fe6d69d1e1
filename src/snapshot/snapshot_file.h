// The snapshot container: a single relocatable file of named, checksummed,
// 64-byte-aligned sections, opened with mmap() for zero-copy adoption.
//
// File layout (all little-endian, offsets from file start):
//
//   [FileHeader]           fixed-size, self-checksummed
//   [SectionEntry x N]     the TOC, checksummed as one block
//   [padding to 64]
//   [section 0 payload]    checksummed individually
//   [padding to 64]
//   [section 1 payload]
//   ...
//
// Relocation rule: no file byte encodes an address — only offsets relative
// to a section start (and array element indices). A mapping at any base
// address is valid; N processes mapping the same file share its pages
// (MAP_SHARED, PROT_READ).
//
// Integrity: every byte of the file is covered by exactly one checksum —
// the header by `header_checksum` (computed with that field zeroed), the
// TOC block by `toc_checksum`, each payload (incl. its trailing alignment
// padding) by its SectionEntry's checksum. Open() validates magic, endian
// mark, format version, file size, and all checksums before any section is
// parsed, so a damaged file fails with a DataLoss Status, never UB.
//
// Versioning: `format_version` is bumped on any layout change; Open()
// rejects a mismatch naming both versions. There is no migration path —
// snapshots are derived artifacts, rebuilt from source data.
#ifndef CQADS_SNAPSHOT_SNAPSHOT_FILE_H_
#define CQADS_SNAPSHOT_SNAPSHOT_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "snapshot/io.h"

namespace cqads::snapshot {

/// "CQADSNAP" as bytes; doubles as an endianness canary — a big-endian
/// writer would produce the reversed pattern and be rejected.
inline constexpr std::uint64_t kMagic = 0x50414E5344415143ULL;
/// Written as 0x01020304; reads back as 0x04030201 under byte-swap.
inline constexpr std::uint32_t kEndianMark = 0x01020304u;
inline constexpr std::uint32_t kFormatVersion = 3;

/// Fixed-size file header. Trivially copyable; explicit padding so every
/// written byte is deterministic.
struct FileHeader {
  std::uint64_t magic;
  std::uint32_t endian_mark;
  std::uint32_t format_version;
  std::uint64_t file_size;        // total bytes; detects truncation
  std::uint64_t toc_offset;       // byte offset of the SectionEntry array
  std::uint64_t section_count;
  std::uint64_t toc_checksum;     // XXH64 of the SectionEntry block
  std::uint64_t header_checksum;  // XXH64 of this struct with field zeroed
};
static_assert(sizeof(FileHeader) == 56);

inline constexpr std::size_t kMaxSectionName = 23;

/// One TOC row. Names are short fixed-width ASCII (NUL-padded).
struct SectionEntry {
  char name[kMaxSectionName + 1];
  std::uint64_t offset;    // from file start; multiple of kArrayAlign
  std::uint64_t length;    // payload bytes (excluding trailing padding)
  std::uint64_t checksum;  // XXH64 of payload + trailing padding
  std::uint64_t padded_length;  // payload + trailing padding
};
static_assert(sizeof(SectionEntry) == 56);

/// Accumulates named sections and writes the container atomically
/// (tmp file + rename), so a crashed save never leaves a half-written
/// snapshot at the target path.
class SnapshotFileWriter {
 public:
  /// Adds a section; `name` must be unique and ≤ kMaxSectionName chars.
  void AddSection(const std::string& name, std::vector<unsigned char> payload);
  void AddSection(const std::string& name, ByteWriter writer) {
    AddSection(name, writer.TakeBuffer());
  }

  /// Writes header + TOC + payloads to `path`. Returns the final file size.
  Result<std::uint64_t> Finish(const std::string& path);

 private:
  std::vector<std::pair<std::string, std::vector<unsigned char>>> sections_;
};

/// An open, read-only mmap of a file. Unmapped on destruction; PodVec views
/// and string_views into the mapping keep the arena alive via shared_ptr.
class MappedArena {
 public:
  ~MappedArena();
  MappedArena(const MappedArena&) = delete;
  MappedArena& operator=(const MappedArena&) = delete;

  static Result<std::shared_ptr<MappedArena>> Map(const std::string& path);

  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  MappedArena(void* addr, std::size_t size)
      : data_(static_cast<const unsigned char*>(addr)), size_(size) {}

  const unsigned char* data_;
  std::size_t size_;
};

/// A validated open snapshot: the arena plus the parsed TOC.
class SnapshotFile {
 public:
  struct Section {
    std::string name;
    const unsigned char* data;
    std::uint64_t length;
    std::uint64_t checksum;
    std::uint64_t offset;
  };

  struct OpenOptions {
    /// Verify all section checksums up front. Costs one sequential pass
    /// over the file (which also pre-faults the page cache — usually a
    /// feature for cold starts, not a bug).
    bool verify_checksums = true;
  };

  static Result<SnapshotFile> Open(const std::string& path,
                                   const OpenOptions& options);
  static Result<SnapshotFile> Open(const std::string& path) {
    return Open(path, OpenOptions());
  }

  /// Section lookup by name; DataLoss if absent (a skew-proofing guard:
  /// a future writer dropping a section fails loudly here).
  Result<const Section*> Find(const std::string& name) const;

  /// A bounds-checked reader over a section's payload.
  Result<ByteReader> Reader(const std::string& name) const;

  const std::vector<Section>& sections() const { return sections_; }
  const std::shared_ptr<MappedArena>& arena() const { return arena_; }
  const FileHeader& header() const { return header_; }

 private:
  SnapshotFile() = default;

  std::shared_ptr<MappedArena> arena_;
  FileHeader header_{};
  std::vector<Section> sections_;
};

}  // namespace cqads::snapshot

#endif  // CQADS_SNAPSHOT_SNAPSHOT_FILE_H_
