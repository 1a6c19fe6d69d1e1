#include "core/engine_snapshot.h"

#include <utility>

namespace cqads::core {

const DomainRuntime* EngineSnapshot::runtime(const std::string& domain) const {
  auto it = runtimes_.find(domain);
  return it == runtimes_.end() ? nullptr : it->second.get();
}

std::vector<std::string> EngineSnapshot::Domains() const {
  std::vector<std::string> out;
  out.reserve(runtimes_.size());
  for (const auto& [d, rt] : runtimes_) out.push_back(d);
  return out;
}

Result<std::string> EngineSnapshot::ClassifyDomain(
    const std::string& question) const {
  if (classifier_ == nullptr) {
    return Status::FailedPrecondition("classifier not trained");
  }
  std::string domain = classifier_->Classify(question);
  if (domain.empty()) return Status::Internal("classifier returned no class");
  return domain;
}

Result<std::string> EngineSnapshot::ClassifyDomainTokens(
    const text::TokenList& tokens) const {
  if (classifier_ == nullptr) {
    return Status::FailedPrecondition("classifier not trained");
  }
  std::string domain = classifier_->Classify(tokens);
  if (domain.empty()) return Status::Internal("classifier returned no class");
  return domain;
}

SimilarityContext EngineSnapshot::MakeSimilarityContext(
    const DomainRuntime& rt) const {
  SimilarityContext ctx;
  ctx.ti = rt.ti_matrix.get();
  ctx.ws = ws_;
  ctx.attr_ranges = &rt.attr_ranges;
  ctx.terms = &rt.record_terms->Get();
  return ctx;
}

Result<std::shared_ptr<DomainRuntime>> EngineBuilder::MakeRuntime(
    const db::Table* table, std::shared_ptr<const db::Table> owned,
    std::shared_ptr<const qlog::TiMatrix> ti) {
  auto rt = std::make_shared<DomainRuntime>();
  rt->table = table;
  rt->owned_table = std::move(owned);
  auto lexicon = DomainLexicon::Build(table);
  if (!lexicon.ok()) return lexicon.status();
  rt->lexicon =
      std::make_shared<const DomainLexicon>(std::move(lexicon).value());
  // Aliasing: the published dict IS the lexicon's member — one frozen
  // instance per lexicon generation, no copy.
  rt->terms = std::shared_ptr<const text::TermDict>(rt->lexicon,
                                                    &rt->lexicon->terms());
  rt->tagger = std::make_shared<const QuestionTagger>(rt->lexicon.get());
  rt->stats = table->stats_ptr();
  rt->planner = std::make_shared<const db::exec::Planner>(table);
  rt->ti_matrix = std::move(ti);
  rt->attr_ranges = ComputeAttrRanges(*table);
  rt->rank_bounds = db::exec::RankBounds::Build(*table);
  rt->record_terms =
      std::make_shared<const RecordTermsCell>(table, rt->ti_matrix.get());
  rt->fragment_memo = db::exec::FragmentMemo::ForTable(table->num_rows());
  rt->parse_generation = NextGeneration();
  return rt;
}

Status EngineBuilder::AddDomain(const db::Table* table,
                                qlog::TiMatrix ti_matrix) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  CQADS_RETURN_NOT_OK(table->schema().Validate());
  if (!table->indexes_built()) {
    return Status::FailedPrecondition("table indexes not built: " +
                                      table->schema().domain());
  }
  const std::string domain = table->schema().domain();
  if (runtimes_.count(domain) > 0) {
    return Status::AlreadyExists("domain already registered: " + domain);
  }

  auto rt = MakeRuntime(
      table, nullptr,
      std::make_shared<const qlog::TiMatrix>(std::move(ti_matrix)));
  if (!rt.ok()) return rt.status();
  runtimes_.emplace(domain, std::move(rt).value());
  classifier_.reset();  // corpus changed
  classifier_generation_ = NextGeneration();
  return Status::OK();
}

Result<db::DeltaStore*> EngineBuilder::PendingDelta(
    const std::string& domain) {
  auto rt_it = runtimes_.find(domain);
  if (rt_it == runtimes_.end()) {
    return Status::NotFound("unknown domain: " + domain);
  }
  auto it = pending_deltas_.find(domain);
  if (it == pending_deltas_.end()) {
    const db::Table* table = rt_it->second->table;
    it = pending_deltas_
             .emplace(domain, std::make_unique<db::DeltaStore>(
                                  table->schema(), table->num_rows()))
             .first;
  }
  return it->second.get();
}

void EngineBuilder::RefreshDeltaRuntime(const std::string& domain) {
  // A new runtime generation: every heavy component shared, only the frozen
  // delta copy differs. The copied runtime keeps its parse generation, so
  // memoized parses and plans stay valid. The copy is what keeps the hot
  // path lock-free — the pending delta stays mutable here, snapshots only
  // ever see immutable copies. Each publication copies O(pending delta)
  // record pointers (the records themselves are shared), so a stream of N
  // ingests between compactions is O(N^2) total; compaction cadence bounds
  // N by design (bulk loads should go through Table::Insert +
  // AddDomain/CompactDomain, not row-at-a-time IngestAd).
  auto& slot = runtimes_[domain];
  auto rt = std::make_shared<DomainRuntime>(*slot);
  rt->delta =
      std::make_shared<const db::DeltaStore>(*pending_deltas_[domain]);
  slot = std::move(rt);
}

Result<db::RowId> EngineBuilder::IngestAd(const std::string& domain,
                                          db::Record record) {
  auto delta = PendingDelta(domain);
  if (!delta.ok()) return delta.status();
  auto row = delta.value()->Insert(std::move(record));
  if (!row.ok()) return row.status();
  RefreshDeltaRuntime(domain);
  return row;
}

Status EngineBuilder::RetireAd(const std::string& domain, db::RowId row) {
  auto delta = PendingDelta(domain);
  if (!delta.ok()) return delta.status();
  CQADS_RETURN_NOT_OK(delta.value()->Retire(row));
  RefreshDeltaRuntime(domain);
  return Status::OK();
}

bool EngineBuilder::HasPendingDelta(const std::string& domain) const {
  auto it = pending_deltas_.find(domain);
  return it != pending_deltas_.end() && !it->second->empty();
}

Status EngineBuilder::CompactDomain(const std::string& domain) {
  auto rt_it = runtimes_.find(domain);
  if (rt_it == runtimes_.end()) {
    return Status::NotFound("unknown domain: " + domain);
  }
  auto delta_it = pending_deltas_.find(domain);
  if (delta_it == pending_deltas_.end() || delta_it->second->empty()) {
    pending_deltas_.erase(domain);
    return Status::OK();  // nothing to merge
  }

  const DomainRuntime& old = *rt_it->second;
  // Merge order = surviving base rows in RowId order, then surviving delta
  // rows in insertion order: exactly the sequence a from-scratch rebuild
  // would insert, which is what makes post-compaction answers byte-
  // identical to that rebuild.
  auto merged = std::make_shared<db::Table>(old.table->schema());
  for (auto& rec : delta_it->second->MergedRecords(*old.table)) {
    auto inserted = merged->Insert(std::move(rec));
    if (!inserted.ok()) return inserted.status();
  }
  merged->BuildIndexes();

  auto rt = MakeRuntime(merged.get(), merged, old.ti_matrix);
  if (!rt.ok()) return rt.status();
  rt_it->second = std::move(rt).value();
  pending_deltas_.erase(domain);
  return Status::OK();
}

std::vector<classify::LabelledDoc> EngineBuilder::MakeTrainingDocs() const {
  std::vector<classify::LabelledDoc> docs;
  for (const auto& [domain, rt] : runtimes_) {
    for (db::RowId r = 0; r < rt->table->num_rows(); ++r) {
      docs.push_back({rt->table->RowText(r), domain});
    }
  }
  return docs;
}

Status EngineBuilder::TrainClassifier(
    classify::QuestionClassifier::Options classifier_options) {
  return TrainClassifierWithExtra({}, classifier_options);
}

Status EngineBuilder::TrainClassifierWithExtra(
    const std::vector<classify::LabelledDoc>& extra_docs,
    classify::QuestionClassifier::Options classifier_options) {
  if (runtimes_.empty()) {
    return Status::FailedPrecondition("no domains registered");
  }
  auto classifier =
      std::make_shared<classify::QuestionClassifier>(classifier_options);
  auto docs = MakeTrainingDocs();
  docs.insert(docs.end(), extra_docs.begin(), extra_docs.end());
  CQADS_RETURN_NOT_OK(classifier->Train(docs));
  classifier_ = std::move(classifier);
  classifier_generation_ = NextGeneration();
  return Status::OK();
}

void EngineBuilder::set_options(const EngineOptions& options) {
  options_ = options;
  for (auto& [domain, slot] : runtimes_) {
    auto rt = std::make_shared<DomainRuntime>(*slot);
    rt->parse_generation = NextGeneration();
    slot = std::move(rt);
  }
}

EngineSnapshot::Ptr EngineBuilder::Build() {
  auto snap = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snap->options_ = options_;
  snap->version_ = next_version_++;
  snap->runtimes_ = runtimes_;  // shares DomainRuntimes, no rebuild
  snap->classifier_ = classifier_;
  snap->classifier_generation_ = classifier_generation_;
  snap->ws_ = ws_;
  snap->owned_ws_ = owned_ws_;
  return snap;
}

}  // namespace cqads::core
