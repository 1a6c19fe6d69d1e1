// Persistent-snapshot round-trips: the xxhash implementation against the
// reference vectors, the section container, per-structure differential
// tests (mapped view == heap-built view, element for element), and the
// engine-level reload byte-parity gate over every generated domain.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ask_types.h"
#include "core/cqads_engine.h"
#include "datagen/world.h"
#include "db/table.h"
#include "eval/experiments.h"
#include "reference/keyword_trie.h"
#include "snapshot/io.h"
#include "snapshot/serde.h"
#include "snapshot/snapshot_file.h"
#include "snapshot/xxhash64.h"
#include "test_fixtures.h"
#include "text/term_dict.h"
#include "trie/flat_trie.h"
#include "wordsim/ws_matrix.h"

namespace cqads {
namespace {

using snapshot::ByteReader;
using snapshot::ByteWriter;
using snapshot::SerdeAccess;
using snapshot::SnapshotFile;
using snapshot::SnapshotFileWriter;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "cqads_" + name;
}

// ------------------------------------------------------------------ xxhash

TEST(XxHash64, ReferenceVectors) {
  // Published XXH64 test vectors (seed 0).
  EXPECT_EQ(snapshot::XxHash64("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(snapshot::XxHash64("a", 1), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(snapshot::XxHash64("abc", 3), 0x44BC2CF5AD770999ULL);
}

TEST(XxHash64, SeedAndLengthSensitivity) {
  const std::string data(1021, 'x');  // crosses the 32-byte stripe path
  const auto h = snapshot::XxHash64(data.data(), data.size());
  EXPECT_NE(h, snapshot::XxHash64(data.data(), data.size() - 1));
  EXPECT_NE(h, snapshot::XxHash64(data.data(), data.size(), 1));
}

// --------------------------------------------------------------- container

TEST(SnapshotFile, SectionRoundTrip) {
  const std::string path = TempPath("container.snap");
  SnapshotFileWriter writer;
  ByteWriter a;
  a.WriteString("hello");
  a.WriteU64(42);
  writer.AddSection("alpha", std::move(a));
  ByteWriter b;
  std::vector<std::uint32_t> nums = {1, 2, 3, 5, 8, 13};
  b.WriteArray(nums.data(), nums.size());
  writer.AddSection("beta", std::move(b));

  auto size = writer.Finish(path);
  ASSERT_TRUE(size.ok()) << size.status().ToString();

  auto file = SnapshotFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file.value().header().section_count, 2u);
  EXPECT_EQ(file.value().header().file_size, size.value());

  auto ar = file.value().Reader("alpha");
  ASSERT_TRUE(ar.ok());
  std::string s;
  std::uint64_t v = 0;
  ASSERT_TRUE(ar.value().ReadString(&s).ok());
  ASSERT_TRUE(ar.value().ReadU64(&v).ok());
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(v, 42u);

  auto br = file.value().Reader("beta");
  ASSERT_TRUE(br.ok());
  const std::uint32_t* p = nullptr;
  std::size_t n = 0;
  ASSERT_TRUE(br.value().ReadArray(&p, &n).ok());
  ASSERT_EQ(n, nums.size());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(p[i], nums[i]);
  // Adopted arrays must come back kArrayAlign-aligned off the mapping.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % snapshot::kArrayAlign, 0u);

  auto missing = file.value().Find("gamma");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(SnapshotFile, DeterministicBytes) {
  // Identical content twice → byte-identical files (the sorted-key-order
  // convention in serde plus a deterministic container).
  auto build = [](const std::string& path) {
    SnapshotFileWriter writer;
    ByteWriter w;
    auto table = testing::MiniCarTable();
    SerdeAccess::WriteTable(table, &w);
    writer.AddSection("t", std::move(w));
    auto r = writer.Finish(path);
    ASSERT_TRUE(r.ok());
  };
  const std::string p1 = TempPath("det1.snap"), p2 = TempPath("det2.snap");
  build(p1);
  build(p2);
  auto slurp = [](const std::string& path) {
    std::string out;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
    return out;
  };
  EXPECT_EQ(slurp(p1), slurp(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

// ---------------------------------------------------- structure round-trips

// Writes one structure as a single-section snapshot and reopens it, so the
// read side exercises the real mmap arena (zero-copy views point into the
// mapping and the SnapshotFile keeps it alive).
class MappedSection {
 public:
  MappedSection(const std::string& name, ByteWriter writer)
      : path_(TempPath(name + ".snap")) {
    SnapshotFileWriter w;
    w.AddSection("s", std::move(writer));
    auto size = w.Finish(path_);
    EXPECT_TRUE(size.ok()) << size.status().ToString();
    auto file = SnapshotFile::Open(path_);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    file_ = std::make_unique<SnapshotFile>(std::move(file).value());
  }
  ~MappedSection() { std::remove(path_.c_str()); }

  ByteReader reader() {
    auto r = file_->Reader("s");
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  }
  snapshot::ArenaPtr owner() const { return file_->arena(); }

 private:
  std::string path_;
  std::unique_ptr<SnapshotFile> file_;
};

TEST(SerdeRoundTrip, TermDict) {
  text::TermDict dict;
  for (const char* w : {"honda", "accord", "the", "running", "dr.",
                        "4 wheel drive", "blue", "2007"}) {
    dict.Intern(w);
  }
  dict.Freeze();

  ByteWriter w;
  SerdeAccess::WriteTermDict(dict, &w);
  ByteReader r(w.buffer().data(), w.size(), "termdict");
  text::TermDict loaded;
  ASSERT_TRUE(SerdeAccess::ReadTermDict(&r, &loaded).ok());

  ASSERT_EQ(loaded.size(), dict.size());
  EXPECT_TRUE(loaded.frozen());
  for (text::TermId id = 0; id < dict.size(); ++id) {
    EXPECT_EQ(loaded.term(id), dict.term(id));
    EXPECT_EQ(loaded.stem(id), dict.stem(id));
    EXPECT_EQ(loaded.stem_id(id), dict.stem_id(id));
    EXPECT_EQ(loaded.is_stopword(id), dict.is_stopword(id));
    EXPECT_EQ(loaded.shorthand_norm(id), dict.shorthand_norm(id));
    EXPECT_EQ(loaded.Find(dict.term(id)), id);
  }
  EXPECT_EQ(loaded.Find("no-such-term"), text::kInvalidTerm);
}

TEST(SerdeRoundTrip, FlatTrie) {
  const std::vector<std::pair<std::string, std::int32_t>> kws = {
      {"honda", 1}, {"honda", 7}, {"hondo", 2}, {"accord", 3},
      {"accordion", 4}, {"a", 5}, {"power steering", 6}};
  reference::KeywordTrie oracle;
  for (const auto& [kw, h] : kws) oracle.Insert(kw, h);
  trie::FlatTrie built = trie::FlatTrie::Build(kws);

  ByteWriter w;
  SerdeAccess::WriteFlatTrie(built, &w);
  MappedSection sect("flattrie", std::move(w));
  ByteReader r = sect.reader();
  trie::FlatTrie loaded;
  ASSERT_TRUE(SerdeAccess::ReadFlatTrie(&r, sect.owner(), &loaded).ok());

  EXPECT_EQ(loaded.size(), built.size());
  EXPECT_EQ(loaded.node_count(), built.node_count());
  EXPECT_EQ(loaded.edge_count(), built.edge_count());
  for (const auto& [kw, h] : kws) {
    EXPECT_TRUE(loaded.Contains(kw)) << kw;
    auto span = loaded.Find(kw);
    auto ref = built.Find(kw);
    ASSERT_EQ(span.size(), ref.size()) << kw;
    for (std::size_t i = 0; i < span.size(); ++i) EXPECT_EQ(span[i], ref[i]);
  }
  EXPECT_FALSE(loaded.Contains("hond"));
  EXPECT_EQ(loaded.Completions(loaded.Root(), "", SIZE_MAX),
            oracle.Completions(oracle.Root(), "", SIZE_MAX));
  EXPECT_EQ(loaded.AllMatchLengths("accordion player", 0),
            built.AllMatchLengths("accordion player", 0));
}

TEST(SerdeRoundTrip, WsMatrixCsr) {
  const std::vector<std::string> corpus = {
      "honda accord blue automatic transmission",
      "honda civic red manual transmission",
      "toyota camry blue automatic power steering",
      "ford focus blue manual power steering cd player",
      "bmw black leather seats gps manual"};
  wordsim::WsMatrix built = wordsim::WsMatrix::Build(corpus);
  ASSERT_GT(built.pair_count(), 0u);

  ByteWriter w;
  SerdeAccess::WriteWsMatrix(built, &w);
  MappedSection sect("wsmatrix", std::move(w));
  ByteReader r = sect.reader();
  wordsim::WsMatrix loaded;
  ASSERT_TRUE(SerdeAccess::ReadWsMatrix(&r, sect.owner(), &loaded).ok());

  ASSERT_EQ(loaded.vocabulary_size(), built.vocabulary_size());
  EXPECT_EQ(loaded.pair_count(), built.pair_count());
  EXPECT_EQ(loaded.MaxSim(), built.MaxSim());
  // Every (id, id) similarity must match the heap-built matrix exactly —
  // the CSR arrays are adopted zero-copy out of the mapping.
  const auto n = static_cast<text::TermId>(built.vocabulary_size());
  for (text::TermId a = 0; a < n; ++a) {
    EXPECT_EQ(loaded.RowDegree(a), built.RowDegree(a));
    for (text::TermId b = 0; b < n; ++b) {
      EXPECT_EQ(loaded.SimById(a, b), built.SimById(a, b));
    }
  }
  EXPECT_EQ(loaded.MostSimilar("blue", 5), built.MostSimilar("blue", 5));
}

TEST(SerdeRoundTrip, TableColumnStoreAndIndexes) {
  db::Table built = testing::MiniCarTable();

  ByteWriter w;
  SerdeAccess::WriteTable(built, &w);
  MappedSection sect("table", std::move(w));
  ByteReader r = sect.reader();
  std::unique_ptr<db::Table> loaded;
  ASSERT_TRUE(SerdeAccess::ReadTable(&r, sect.owner(), &loaded).ok());

  ASSERT_EQ(loaded->num_rows(), built.num_rows());
  ASSERT_EQ(loaded->schema().attributes().size(),
            built.schema().attributes().size());
  EXPECT_TRUE(loaded->indexes_built());

  const std::size_t n_attrs = built.schema().attributes().size();
  for (db::RowId row = 0; row < built.num_rows(); ++row) {
    for (std::size_t a = 0; a < n_attrs; ++a) {
      EXPECT_TRUE(loaded->cell(row, a) == built.cell(row, a))
          << "row " << row << " attr " << a;
      EXPECT_EQ(loaded->CellElements(row, a), built.CellElements(row, a));
    }
    EXPECT_EQ(loaded->RowText(row), built.RowText(row));
  }

  // Access paths: presence and lookups must agree with the heap build.
  for (std::size_t a = 0; a < n_attrs; ++a) {
    ASSERT_EQ(loaded->hash_index(a) != nullptr,
              built.hash_index(a) != nullptr);
    ASSERT_EQ(loaded->sorted_index(a) != nullptr,
              built.sorted_index(a) != nullptr);
    ASSERT_EQ(loaded->ngram_index(a) != nullptr,
              built.ngram_index(a) != nullptr);
  }
  ASSERT_NE(loaded->hash_index(0), nullptr);  // make
  EXPECT_EQ(loaded->hash_index(0)->Lookup("honda"),
            built.hash_index(0)->Lookup("honda"));
  ASSERT_NE(loaded->sorted_index(3), nullptr);  // price
  EXPECT_EQ(loaded->sorted_index(3)->Range(6000, 9000),
            built.sorted_index(3)->Range(6000, 9000));
  ASSERT_NE(loaded->stats(), nullptr);

  // A mapped base is frozen: appending must fail loudly, not corrupt the
  // shared mapping.
  auto insert = loaded->Insert(built.row(0));
  EXPECT_FALSE(insert.ok());
  EXPECT_EQ(insert.status().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------ engine-level parity

class SnapshotEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions options;
    options.seed = 777;
    options.ads_per_domain = 160;
    options.sessions_per_domain = 300;
    options.corpus_docs_per_domain = 50;
    auto world = datagen::World::Build(options);
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    world_ = std::move(world).value().release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  static datagen::World* world_;
};

datagen::World* SnapshotEngineTest::world_ = nullptr;

TEST_F(SnapshotEngineTest, ReloadIsByteIdenticalAcrossAllDomains) {
  const std::string path = TempPath("engine.snap");
  ASSERT_TRUE(world_->engine().SaveSnapshot(path).ok());

  auto loaded = core::CqadsEngine::OpenSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const core::CqadsEngine& fresh = world_->engine();
  const core::CqadsEngine& reloaded = *loaded.value();

  ASSERT_EQ(reloaded.Domains(), fresh.Domains());

  auto questions = eval::GenerateSurveyQuestions(*world_, 12, 12, 660);
  std::size_t asked = 0, mismatches = 0;
  for (const auto& [domain, qs] : questions) {
    for (const auto& q : qs) {
      auto a = fresh.AskInDomain(domain, q.text);
      auto b = reloaded.AskInDomain(domain, q.text);
      ASSERT_EQ(a.ok(), b.ok()) << domain << ": " << q.text;
      if (!a.ok()) continue;
      ++asked;
      if (core::CanonicalAskResultString(a.value()) !=
          core::CanonicalAskResultString(b.value())) {
        ++mismatches;
        ADD_FAILURE() << "answer mismatch [" << domain << "] " << q.text;
      }
    }
  }
  EXPECT_GT(asked, 50u);
  EXPECT_EQ(mismatches, 0u);

  // Full pipeline (classifier included) must agree too.
  for (const auto& [domain, qs] : questions) {
    if (qs.empty()) continue;
    auto a = fresh.Ask(qs.front().text);
    auto b = reloaded.Ask(qs.front().text);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(core::CanonicalAskResultString(a.value()),
                core::CanonicalAskResultString(b.value()));
    }
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotEngineTest, TwoOpensShareOneFile) {
  // The multi-process serving story in miniature: two independent opens of
  // the same snapshot (two MappedArenas over one page-cache-resident file)
  // both answer, identically.
  const std::string path = TempPath("shared.snap");
  ASSERT_TRUE(world_->engine().SaveSnapshot(path).ok());
  auto e1 = core::CqadsEngine::OpenSnapshot(path);
  auto e2 = core::CqadsEngine::OpenSnapshot(path);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  const std::string domain = world_->domains().front();
  auto questions = eval::GenerateSurveyQuestions(*world_, 3, 3, 661);
  for (const auto& q : questions[domain]) {
    auto a = e1.value()->AskInDomain(domain, q.text);
    auto b = e2.value()->AskInDomain(domain, q.text);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(core::CanonicalAskResultString(a.value()),
                core::CanonicalAskResultString(b.value()));
    }
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotEngineTest, IngestCompactResaveRoundTrips) {
  const std::string path = TempPath("ingest.snap");
  const std::string path2 = TempPath("ingest2.snap");
  ASSERT_TRUE(world_->engine().SaveSnapshot(path).ok());
  auto loaded = core::CqadsEngine::OpenSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  core::CqadsEngine& engine = *loaded.value();

  // The mapped base stays read-only: ingest lands in a heap-built delta.
  const std::string domain = world_->domains().front();
  db::Record record = world_->table(domain)->row(0);
  auto row = engine.IngestAd(domain, std::move(record));
  ASSERT_TRUE(row.ok()) << row.status().ToString();

  // A snapshot always represents a fully-merged base.
  auto save = engine.SaveSnapshot(path2);
  ASSERT_FALSE(save.ok());
  EXPECT_EQ(save.code(), StatusCode::kFailedPrecondition);

  // Compaction republishes a heap-built generation; resave round-trips.
  ASSERT_TRUE(engine.CompactDomain(domain).ok());
  ASSERT_TRUE(engine.SaveSnapshot(path2).ok());
  auto reloaded = core::CqadsEngine::OpenSnapshot(path2);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  auto questions = eval::GenerateSurveyQuestions(*world_, 5, 5, 662);
  for (const auto& q : questions[domain]) {
    auto a = engine.AskInDomain(domain, q.text);
    auto b = reloaded.value()->AskInDomain(domain, q.text);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(core::CanonicalAskResultString(a.value()),
                core::CanonicalAskResultString(b.value()));
    }
  }
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

}  // namespace
}  // namespace cqads
