#include "core/cqads_engine.h"

#include "common/failpoint.h"

namespace cqads::core {

void CqadsEngine::SwapSnapshotLocked() {
  // Chaos hook: delay between building the new snapshot's state and
  // publishing it — the widest window for readers racing a swap.
  CQADS_FAILPOINT_HIT("engine.snapshot_swap");
  std::atomic_store(&snapshot_, builder_.Build());
}

Status CqadsEngine::AddDomain(const db::Table* table,
                              qlog::TiMatrix ti_matrix) {
  std::lock_guard<std::mutex> lock(mu_);
  CQADS_RETURN_NOT_OK(builder_.AddDomain(table, std::move(ti_matrix)));
  SwapSnapshotLocked();
  return Status::OK();
}

Result<db::RowId> CqadsEngine::IngestAd(const std::string& domain,
                                        db::Record record) {
  std::lock_guard<std::mutex> lock(mu_);
  CQADS_RETURN_NOT_OK(CQADS_FAILPOINT("engine.ingest"));
  auto row = builder_.IngestAd(domain, std::move(record));
  if (!row.ok()) return row.status();
  SwapSnapshotLocked();
  return row;
}

Status CqadsEngine::RetireAd(const std::string& domain, db::RowId row) {
  std::lock_guard<std::mutex> lock(mu_);
  CQADS_RETURN_NOT_OK(CQADS_FAILPOINT("engine.retire"));
  CQADS_RETURN_NOT_OK(builder_.RetireAd(domain, row));
  SwapSnapshotLocked();
  return Status::OK();
}

Status CqadsEngine::CompactDomain(const std::string& domain) {
  // The merge + index/lexicon rebuild runs under mu_ — writers
  // (ingest, retrain, other compactions) serialize, exactly like AddDomain.
  // READERS never block: they run on the snapshot they pinned, and the new
  // generation becomes visible only at the final atomic swap.
  std::lock_guard<std::mutex> lock(mu_);
  CQADS_RETURN_NOT_OK(CQADS_FAILPOINT("engine.compact"));
  CQADS_RETURN_NOT_OK(builder_.CompactDomain(domain));
  SwapSnapshotLocked();
  return Status::OK();
}

void CqadsEngine::SetWordSimilarity(const wordsim::WsMatrix* ws) {
  std::lock_guard<std::mutex> lock(mu_);
  builder_.SetWordSimilarity(ws);
  SwapSnapshotLocked();
}

Status CqadsEngine::SaveSnapshot(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return builder_.SaveSnapshot(path);
}

Result<std::unique_ptr<CqadsEngine>> CqadsEngine::OpenSnapshot(
    const std::string& path) {
  auto builder = EngineBuilder::OpenSnapshot(path);
  if (!builder.ok()) return builder.status();
  return std::unique_ptr<CqadsEngine>(
      new CqadsEngine(std::move(builder).value()));
}

void CqadsEngine::SetOptions(Options options) {
  std::lock_guard<std::mutex> lock(mu_);
  builder_.set_options(options);
  SwapSnapshotLocked();
}

Status CqadsEngine::TrainClassifier(
    classify::QuestionClassifier::Options classifier_options) {
  return TrainClassifierWithExtra({}, classifier_options);
}

Status CqadsEngine::TrainClassifierWithExtra(
    const std::vector<classify::LabelledDoc>& extra_docs,
    classify::QuestionClassifier::Options classifier_options) {
  std::lock_guard<std::mutex> lock(mu_);
  CQADS_RETURN_NOT_OK(
      builder_.TrainClassifierWithExtra(extra_docs, classifier_options));
  SwapSnapshotLocked();
  return Status::OK();
}

std::vector<classify::LabelledDoc> CqadsEngine::MakeTrainingDocs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return builder_.MakeTrainingDocs();
}

EngineSnapshot::Ptr CqadsEngine::snapshot() const {
  // Readers never take mu_: a retrain holds it for the whole rebuild, and
  // blocking every Ask on that would defeat the snapshot design.
  return std::atomic_load(&snapshot_);
}

Result<std::string> CqadsEngine::ClassifyDomain(
    const std::string& question) const {
  return snapshot()->ClassifyDomain(question);
}

const DomainRuntime* CqadsEngine::runtime(const std::string& domain) const {
  return snapshot()->runtime(domain);
}

std::vector<std::string> CqadsEngine::Domains() const {
  return snapshot()->Domains();
}

Result<CqadsEngine::ParsedQuestion> CqadsEngine::Parse(
    const std::string& domain, const std::string& question) const {
  EngineSnapshot::Ptr snap = snapshot();
  QueryContext ctx(question, domain);
  auto parsed = ParseQuestion(*snap, &ctx);
  if (!parsed.ok()) return parsed.status();
  CQADS_RETURN_NOT_OK(PlanQuestion(*snap, &ctx, &parsed.value()));
  return parsed;
}

Result<CqadsEngine::AskResult> CqadsEngine::AskInDomain(
    const std::string& domain, const std::string& question) const {
  EngineSnapshot::Ptr snap = snapshot();
  QueryContext ctx(question, domain);
  CQADS_RETURN_NOT_OK(ClassifyQuestion(*snap, &ctx));
  auto parsed = ParseQuestion(*snap, &ctx);
  if (!parsed.ok()) return parsed.status();
  CQADS_RETURN_NOT_OK(PlanQuestion(*snap, &ctx, &parsed.value()));
  CQADS_RETURN_NOT_OK(AnswerQuestion(*snap, parsed.value(), &ctx));
  return std::move(ctx.result);
}

Result<CqadsEngine::AskResult> CqadsEngine::Ask(
    const std::string& question) const {
  return AskInDomain("", question);
}

}  // namespace cqads::core
