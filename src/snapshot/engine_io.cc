// Engine-level snapshot container: SaveEngine lays the builder's complete
// built state out as named sections ("meta", "ws", "classifier", "dom<i>"),
// LoadEngine mmaps the file and wires DomainRuntimes around the restored
// structures. Cheap derived objects (tagger, planner) are reconstructed at
// load — they are a handful of pointers each — while every heavy structure
// (tries, CSR matrices, column arrays, index postings, stats) comes out of
// the file.
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_snapshot.h"
#include "db/exec/planner.h"
#include "snapshot/serde.h"
#include "snapshot/snapshot_file.h"

namespace cqads::snapshot {

namespace {

std::string DomainSectionName(std::size_t i) {
  return "dom" + std::to_string(i);
}

}  // namespace

Status SerdeAccess::SaveEngine(const core::EngineBuilder& b,
                               const std::string& path) {
  for (const auto& [domain, rt] : b.runtimes_) {
    if (b.HasPendingDelta(domain)) {
      return Status::FailedPrecondition(
          "domain has a pending ingest delta: " + domain +
          " — CompactDomain before SaveSnapshot (a snapshot always "
          "represents a fully-merged base)");
    }
  }

  SnapshotFileWriter writer;

  ByteWriter meta;
  WriteOptions(b.options_, &meta);
  meta.WriteBool(b.ws_ != nullptr);
  meta.WriteBool(b.classifier_ != nullptr);
  meta.WriteU64(b.runtimes_.size());
  for (const auto& [domain, rt] : b.runtimes_) meta.WriteString(domain);
  writer.AddSection("meta", std::move(meta));

  if (b.ws_ != nullptr) {
    ByteWriter w;
    WriteWsMatrix(*b.ws_, &w);
    writer.AddSection("ws", std::move(w));
  }
  if (b.classifier_ != nullptr) {
    ByteWriter w;
    WriteClassifier(*b.classifier_, &w);
    writer.AddSection("classifier", std::move(w));
  }

  std::size_t i = 0;
  for (const auto& [domain, rt] : b.runtimes_) {
    ByteWriter w;
    w.WriteString(domain);
    WriteTable(*rt->table, &w);
    WriteLexicon(*rt->lexicon, &w);
    if (rt->ti_matrix != nullptr) {
      w.WriteBool(true);
      WriteTiMatrix(*rt->ti_matrix, &w);
    } else {
      w.WriteBool(false);
    }
    w.WritePacked(rt->attr_ranges.data(), rt->attr_ranges.size());
    writer.AddSection(DomainSectionName(i++), std::move(w));
  }

  auto size = writer.Finish(path);
  if (!size.ok()) return size.status();
  return Status::OK();
}

Result<core::EngineBuilder> SerdeAccess::LoadEngine(const std::string& path) {
  auto file = SnapshotFile::Open(path);
  if (!file.ok()) return file.status();
  const ArenaPtr owner = file.value().arena();

  auto meta = file.value().Reader("meta");
  if (!meta.ok()) return meta.status();
  ByteReader mr = std::move(meta).value();

  core::EngineOptions options;
  CQADS_RETURN_NOT_OK(ReadOptions(&mr, &options));
  bool has_ws = false, trained = false;
  CQADS_RETURN_NOT_OK(mr.ReadBool(&has_ws));
  CQADS_RETURN_NOT_OK(mr.ReadBool(&trained));
  std::uint64_t n_domains = 0;
  CQADS_RETURN_NOT_OK(mr.ReadCount(&n_domains, 8));
  std::vector<std::string> domains;
  domains.reserve(static_cast<std::size_t>(n_domains));
  for (std::uint64_t i = 0; i < n_domains; ++i) {
    std::string d;
    CQADS_RETURN_NOT_OK(mr.ReadString(&d));
    domains.push_back(std::move(d));
  }

  core::EngineBuilder builder(options);

  if (has_ws) {
    auto r = file.value().Reader("ws");
    if (!r.ok()) return r.status();
    ByteReader wr = std::move(r).value();
    auto ws = std::make_shared<wordsim::WsMatrix>();
    CQADS_RETURN_NOT_OK(ReadWsMatrix(&wr, owner, ws.get()));
    builder.SetWordSimilarityOwned(std::move(ws));
  }
  if (trained) {
    auto r = file.value().Reader("classifier");
    if (!r.ok()) return r.status();
    ByteReader cr = std::move(r).value();
    auto classifier = std::make_shared<classify::QuestionClassifier>();
    CQADS_RETURN_NOT_OK(ReadClassifier(&cr, classifier.get()));
    builder.classifier_ = std::move(classifier);
    builder.classifier_generation_ = builder.NextGeneration();
  }

  for (std::size_t i = 0; i < domains.size(); ++i) {
    auto r = file.value().Reader(DomainSectionName(i));
    if (!r.ok()) return r.status();
    ByteReader dr = std::move(r).value();

    std::string domain;
    CQADS_RETURN_NOT_OK(dr.ReadString(&domain));
    if (domain != domains[i]) {
      return dr.Corrupt("domain section name mismatch vs meta");
    }

    std::unique_ptr<db::Table> table_up;
    CQADS_RETURN_NOT_OK(ReadTable(&dr, owner, &table_up));
    if (!table_up->indexes_built()) {
      return dr.Corrupt("domain table has no indexes");
    }
    std::shared_ptr<const db::Table> table = std::move(table_up);

    std::shared_ptr<const core::DomainLexicon> lexicon;
    CQADS_RETURN_NOT_OK(ReadLexicon(&dr, owner, table.get(), &lexicon));

    bool has_ti = false;
    CQADS_RETURN_NOT_OK(dr.ReadBool(&has_ti));
    std::shared_ptr<const qlog::TiMatrix> ti;
    if (has_ti) {
      auto m = std::make_shared<qlog::TiMatrix>();
      CQADS_RETURN_NOT_OK(ReadTiMatrix(&dr, owner, m.get()));
      ti = std::move(m);
    }

    std::vector<double> attr_ranges;
    CQADS_RETURN_NOT_OK(dr.ReadPacked(&attr_ranges));

    // Wire the runtime exactly as EngineBuilder::MakeRuntime does, with the
    // loaded components standing in for freshly built ones.
    auto rt = std::make_shared<core::DomainRuntime>();
    rt->table = table.get();
    rt->owned_table = table;
    rt->lexicon = lexicon;
    rt->terms = std::shared_ptr<const text::TermDict>(rt->lexicon,
                                                      &rt->lexicon->terms());
    rt->tagger = std::make_shared<const core::QuestionTagger>(
        rt->lexicon.get());
    rt->stats = table->stats_ptr();
    rt->planner = std::make_shared<const db::exec::Planner>(rt->table);
    rt->ti_matrix = std::move(ti);
    rt->attr_ranges = std::move(attr_ranges);
    rt->rank_bounds = db::exec::RankBounds::Build(*rt->table);
    rt->record_terms = std::make_shared<const core::RecordTermsCell>(
        rt->table, rt->ti_matrix.get());
    rt->fragment_memo =
        db::exec::FragmentMemo::ForTable(rt->table->num_rows());
    rt->parse_generation = builder.NextGeneration();
    builder.runtimes_.emplace(domains[i], std::move(rt));
  }

  return builder;
}

}  // namespace cqads::snapshot

namespace cqads::core {

Status EngineBuilder::SaveSnapshot(const std::string& path) const {
  return snapshot::SerdeAccess::SaveEngine(*this, path);
}

Result<EngineBuilder> EngineBuilder::OpenSnapshot(const std::string& path) {
  return snapshot::SerdeAccess::LoadEngine(path);
}

}  // namespace cqads::core
