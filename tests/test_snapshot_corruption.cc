// Corruption robustness: a damaged snapshot must always fail OpenSnapshot
// with a clear Status — truncation, flipped bytes, byte-swapped magic,
// version skew, missing sections, a fuzz-ish sweep of pseudo-random
// damage, and checksum-passing but hostile trie structure (a cycle, a
// shared subtree, a handle past the lexicon's entries). Never UB, never a
// crash: these tests also run under ASan/UBSan in CI, where any
// out-of-bounds parse would abort the process.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cqads_engine.h"
#include "core/domain_lexicon.h"
#include "db/table.h"
#include "snapshot/serde.h"
#include "snapshot/snapshot_file.h"
#include "snapshot/xxhash64.h"
#include "test_fixtures.h"
#include "trie/flat_trie.h"

namespace cqads {
namespace {

using snapshot::ByteWriter;
using snapshot::FileHeader;
using snapshot::SerdeAccess;
using snapshot::SnapshotFile;
using snapshot::SnapshotFileWriter;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "cqads_corrupt_" + name;
}

std::vector<unsigned char> Slurp(const std::string& path) {
  std::vector<unsigned char> out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return out;
  unsigned char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

void Spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  // An empty vector's data() may be null, which fwrite must not be given.
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

/// One pristine snapshot of the mini car table, reused (read-only) by every
/// damage scenario in this file.
class CorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string(TempPath("base.snap"));
    SnapshotFileWriter writer;
    ByteWriter w;
    auto table = testing::MiniCarTable();
    SerdeAccess::WriteTable(table, &w);
    writer.AddSection("table", std::move(w));
    ByteWriter m;
    m.WriteString("meta payload");
    writer.AddSection("meta", std::move(m));
    auto size = writer.Finish(*path_);
    ASSERT_TRUE(size.ok()) << size.status().ToString();
    pristine_ = new std::vector<unsigned char>(Slurp(*path_));
    ASSERT_EQ(pristine_->size(), size.value());
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    delete pristine_;
  }

  /// Writes a damaged copy and asserts Open fails with DataLoss.
  static void ExpectDataLoss(const std::vector<unsigned char>& bytes,
                             const std::string& label) {
    const std::string path = TempPath(label + ".snap");
    Spit(path, bytes);
    auto file = SnapshotFile::Open(path);
    EXPECT_FALSE(file.ok()) << label;
    if (!file.ok()) {
      EXPECT_EQ(file.status().code(), StatusCode::kDataLoss)
          << label << ": " << file.status().ToString();
    }
    std::remove(path.c_str());
  }

  static std::string* path_;
  static std::vector<unsigned char>* pristine_;
};

std::string* CorruptionTest::path_ = nullptr;
std::vector<unsigned char>* CorruptionTest::pristine_ = nullptr;

TEST_F(CorruptionTest, PristineOpens) {
  auto file = SnapshotFile::Open(*path_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file.value().sections().size(), 2u);
}

TEST_F(CorruptionTest, TruncationAtEveryLayer) {
  const auto& bytes = *pristine_;
  // Cut points in every region: mid-header, mid-TOC, at section starts,
  // mid-payload, one byte short of complete.
  const std::vector<std::size_t> cuts = {
      0,  1,  8,  sizeof(FileHeader) - 1, sizeof(FileHeader),
      sizeof(FileHeader) + 13, 64, 128, bytes.size() / 2, bytes.size() - 1};
  for (std::size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    std::vector<unsigned char> t(bytes.begin(),
                                 bytes.begin() + static_cast<long>(cut));
    if (t.empty()) {
      // MappedArena rejects a zero-length file before mmap (which cannot
      // map empty files) — still a DataLoss, not an errno.
      const std::string path = TempPath("empty.snap");
      Spit(path, t);
      auto file = SnapshotFile::Open(path);
      EXPECT_FALSE(file.ok());
      EXPECT_EQ(file.status().code(), StatusCode::kDataLoss);
      std::remove(path.c_str());
      continue;
    }
    ExpectDataLoss(t, "trunc" + std::to_string(cut));
  }
}

TEST_F(CorruptionTest, SingleFlippedByteAnywhere) {
  // Flip one byte at a stride across the whole file (every byte is covered
  // by exactly one checksum, so each flip must be caught). Stride keeps the
  // sweep fast while still touching header, TOC, payload, and padding.
  const auto& bytes = *pristine_;
  for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
    std::vector<unsigned char> t = bytes;
    t[pos] ^= 0xA5;
    ExpectDataLoss(t, "flip" + std::to_string(pos));
  }
}

TEST_F(CorruptionTest, ByteSwappedMagic) {
  std::vector<unsigned char> t = *pristine_;
  // Reverse the 8 magic bytes: the file looks like it came from an
  // opposite-endian writer; the error message must say so.
  for (std::size_t i = 0; i < 4; ++i) std::swap(t[i], t[7 - i]);
  const std::string path = TempPath("endian.snap");
  Spit(path, t);
  auto file = SnapshotFile::Open(path);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(file.status().ToString().find("endian"), std::string::npos)
      << file.status().ToString();
  std::remove(path.c_str());
}

TEST_F(CorruptionTest, GarbageMagic) {
  std::vector<unsigned char> t = *pristine_;
  t[0] = 'P';
  t[1] = 'K';  // not a cqads snapshot
  ExpectDataLoss(t, "badmagic");
}

TEST_F(CorruptionTest, VersionSkew) {
  // A newer writer (v+1) and older ones must all be refused by the header
  // check, naming the version, instead of being misparsed section by
  // section. v-1 wrote partition fields into the options and domain
  // sections; v-2 also wrote the execution-path bools.
  for (const std::uint32_t version :
       {snapshot::kFormatVersion + 1, snapshot::kFormatVersion - 1,
        snapshot::kFormatVersion - 2}) {
    std::vector<unsigned char> t = *pristine_;
    // format_version lives at offset 12 (after magic + endian_mark). Stamp
    // it and re-stamp the header checksum so ONLY the version check can
    // fire — proving skew is detected on its own, not via checksum fallout.
    FileHeader h;
    std::memcpy(&h, t.data(), sizeof(h));
    h.format_version = version;
    h.header_checksum = 0;
    h.header_checksum = snapshot::XxHash64(&h, sizeof(h));
    std::memcpy(t.data(), &h, sizeof(h));

    const std::string path = TempPath("skew.snap");
    Spit(path, t);
    auto file = SnapshotFile::Open(path);
    ASSERT_FALSE(file.ok()) << "v" << version;
    EXPECT_EQ(file.status().code(), StatusCode::kDataLoss) << "v" << version;
    EXPECT_NE(file.status().ToString().find("file is v" +
                                            std::to_string(version)),
              std::string::npos)
        << file.status().ToString();
    std::remove(path.c_str());
  }
}

TEST_F(CorruptionTest, MissingSectionFailsLookup) {
  auto file = SnapshotFile::Open(*path_);
  ASSERT_TRUE(file.ok());
  auto missing = file.value().Find("classifier");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kDataLoss);
}

TEST_F(CorruptionTest, DamagedPayloadNeverCrashesStructureParse) {
  // Bypass the container checksums entirely: hand deliberately damaged
  // bytes straight to the structure parser, simulating a checksum-passing
  // but semantically hostile stream. Every parse must return a Status.
  ByteWriter w;
  auto table = testing::MiniCarTable();
  SerdeAccess::WriteTable(table, &w);
  const std::vector<unsigned char> good = w.buffer();

  std::uint64_t rng = 0x243F6A8885A308D3ULL;  // fixed seed: deterministic
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  int failures = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<unsigned char> t = good;
    // 1-4 random mutations: byte flips, truncations, or count inflation.
    const int edits = 1 + static_cast<int>(next() % 4);
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = next() % t.size();
      switch (next() % 3) {
        case 0:
          t[pos] ^= static_cast<unsigned char>(next());
          break;
        case 1:
          t.resize(pos + 1);
          break;
        default:
          // Stamp a huge little-endian count somewhere.
          for (std::size_t b = 0; b < 8 && pos + b < t.size(); ++b) {
            t[pos + b] = 0xFF;
          }
          break;
      }
    }
    snapshot::ByteReader r(t.data(), t.size(), "fuzz");
    std::unique_ptr<db::Table> out;
    Status st = SerdeAccess::ReadTable(&r, nullptr, &out);
    if (!st.ok()) ++failures;
    // st.ok() is possible (a mutation in unread padding or a value change
    // that stays structurally valid) — the invariant is no crash/UB.
  }
  // The vast majority of random damage must be *detected*, not silently
  // accepted (structural validation, not just bounds safety).
  EXPECT_GT(failures, 150);
}

TEST_F(CorruptionTest, RandomlyDamagedContainerSweep) {
  // End-to-end fuzz-ish pass over the whole container: random multi-byte
  // damage anywhere in the file must yield a non-OK Open.
  const auto& bytes = *pristine_;
  std::uint64_t rng = 0x13198A2E03707344ULL;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int round = 0; round < 100; ++round) {
    std::vector<unsigned char> t = bytes;
    const int edits = 1 + static_cast<int>(next() % 8);
    for (int e = 0; e < edits; ++e) {
      t[next() % t.size()] ^= static_cast<unsigned char>(1 + next() % 255);
    }
    ExpectDataLoss(t, "sweep" + std::to_string(round));
  }
}

TEST_F(CorruptionTest, EngineOpenSnapshotSurfacesDataLoss) {
  // The public entry point: a damaged engine snapshot file fails
  // CqadsEngine::OpenSnapshot with the same clear Status.
  std::vector<unsigned char> t = *pristine_;
  t[t.size() / 2] ^= 0xFF;
  const std::string path = TempPath("engine.snap");
  Spit(path, t);
  auto engine = core::CqadsEngine::OpenSnapshot(path);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// ----------------------------------------------- hostile trie structure

/// One edge record as WriteFlatTrie lays it out: u32 target, the label,
/// three zero pad bytes.
std::vector<unsigned char> EdgeBytes(std::uint32_t target, char label) {
  std::vector<unsigned char> out(8, 0);
  std::memcpy(out.data(), &target, sizeof(target));
  out[4] = static_cast<unsigned char>(label);
  return out;
}

/// Rewrites the one edge record `from` in `bytes` to `to`.
void PatchEdge(std::vector<unsigned char>* bytes,
               const std::vector<unsigned char>& from,
               const std::vector<unsigned char>& to) {
  auto it = std::search(bytes->begin(), bytes->end(), from.begin(), from.end());
  ASSERT_NE(it, bytes->end());
  ASSERT_EQ(std::search(it + 1, bytes->end(), from.begin(), from.end()),
            bytes->end());
  std::copy(to.begin(), to.end(), it);
}

Status ReadTrie(const std::vector<unsigned char>& bytes) {
  snapshot::ByteReader r(bytes.data(), bytes.size(), "flattrie");
  trie::FlatTrie out;
  return SerdeAccess::ReadFlatTrie(&r, nullptr, &out);
}

TEST(HostileTrieTest, EdgesThatDoNotFormATreeFailReadFlatTrie) {
  // {"a", "ab"}: root -a-> node 1 ("a") -b-> node 2 ("ab").
  ByteWriter w;
  SerdeAccess::WriteFlatTrie(trie::FlatTrie::Build({{"a", 0}, {"ab", 1}}),
                             &w);
  const std::vector<unsigned char> good = w.buffer();
  ASSERT_TRUE(ReadTrie(good).ok());

  // The "b" edge pointed back at its own node: a cycle that would make
  // Contains("abbb...") true and Completions endless.
  std::vector<unsigned char> self_loop = good;
  PatchEdge(&self_loop, EdgeBytes(2, 'b'), EdgeBytes(1, 'b'));
  EXPECT_EQ(ReadTrie(self_loop).code(), StatusCode::kDataLoss);

  // The root's "a" edge pointed at node 2: node 2 gets two parents and
  // node 1 none.
  std::vector<unsigned char> shared = good;
  PatchEdge(&shared, EdgeBytes(1, 'a'), EdgeBytes(2, 'a'));
  EXPECT_EQ(ReadTrie(shared).code(), StatusCode::kDataLoss);
}

TEST(HostileTrieTest, HandlePastTheEntriesFailsReadLexicon) {
  const db::Table table = testing::MiniCarTable();
  auto built = core::DomainLexicon::Build(&table);
  ASSERT_TRUE(built.ok()) << built.status();
  const core::DomainLexicon& lexicon = built.value();
  ByteWriter full;
  SerdeAccess::WriteLexicon(lexicon, &full);

  // A lexicon stream opens with its term dict and trie, and the trie's
  // handle array comes last: its final element ends that prefix.
  ByteWriter prefix;
  SerdeAccess::WriteTermDict(lexicon.terms(), &prefix);
  SerdeAccess::WriteFlatTrie(lexicon.flat_trie(), &prefix);
  ASSERT_TRUE(std::equal(prefix.buffer().begin(), prefix.buffer().end(),
                         full.buffer().begin()));
  const std::size_t last_handle = prefix.size() - sizeof(std::int32_t);

  auto read = [&](const std::vector<unsigned char>& bytes) {
    snapshot::ByteReader r(bytes.data(), bytes.size(), "lexicon");
    std::shared_ptr<const core::DomainLexicon> out;
    return SerdeAccess::ReadLexicon(&r, nullptr, &table, &out);
  };
  ASSERT_TRUE(read(full.buffer()).ok());
  for (const std::int32_t bad :
       {static_cast<std::int32_t>(lexicon.entry_count()), std::int32_t{-1}}) {
    std::vector<unsigned char> bytes = full.buffer();
    std::memcpy(bytes.data() + last_handle, &bad, sizeof(bad));
    const Status st = read(bytes);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << bad << ": " << st.ToString();
  }
}

}  // namespace
}  // namespace cqads
