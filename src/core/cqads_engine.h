// The CQAds engine facade: the paper's end-to-end pipeline behind one call.
//   Ask(question):
//     1. classify the question's ads domain (Naive Bayes / JBBSM, §3)
//     2. tag keywords with the domain trie, repairing spelling, missing
//        spaces, and shorthand notations (§4.1-4.2)
//     3. build conditions via context-switching analysis (§4.1.2)
//     4. assemble the (Boolean) query with rules 1-4 (§4.4)
//     5. render SQL and execute with the §4.3 evaluation order (§4.5)
//     6. when exact answers are scarce, retrieve N-1 partially-matched
//        answers and rank them by Rank_Sim (§4.3.1-4.3.2), capping the
//        total at 30
//
// Internally the engine is a thin shell over three layers:
//   * EngineBuilder accumulates mutable registration state (domains,
//     classifier training) — core/engine_snapshot.h;
//   * every mutation freezes an immutable EngineSnapshot that is atomically
//     swapped in; in-flight queries keep the snapshot they started with;
//   * Ask/AskInDomain/Parse call the ask path's four functions
//     (ClassifyQuestion, ParseQuestion, PlanQuestion, AnswerQuestion) on
//     one snapshot — core/pipeline.h.
// Reads (Ask, Parse, ClassifyDomain, ...) are safe from any number of
// threads, concurrently with writes (AddDomain, TrainClassifier), which are
// serialized behind an internal mutex. serve/ConcurrentServer builds on
// this to fan a query stream out across a worker pool.
#ifndef CQADS_CORE_CQADS_ENGINE_H_
#define CQADS_CORE_CQADS_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "classify/question_classifier.h"
#include "common/status.h"
#include "core/ask_types.h"
#include "core/engine_snapshot.h"
#include "core/pipeline.h"
#include "db/database.h"
#include "qlog/ti_matrix.h"
#include "wordsim/ws_matrix.h"

namespace cqads::core {

class CqadsEngine {
 public:
  using Options = EngineOptions;
  using ParsedQuestion = core::ParsedQuestion;
  using Answer = core::Answer;
  using AskResult = core::AskResult;

  CqadsEngine() : CqadsEngine(Options()) {}
  explicit CqadsEngine(Options options)
      : builder_(options), snapshot_(builder_.Build()) {}

  // Neither copyable nor movable: readers may hold references concurrently.
  CqadsEngine(const CqadsEngine&) = delete;
  CqadsEngine& operator=(const CqadsEngine&) = delete;

  /// Registers a domain: the ads table (indexes built) and its query-log-
  /// derived TI-matrix. Builds the trie lexicon, tagger, planner, and
  /// attribute ranges, then swaps in a fresh snapshot.
  Status AddDomain(const db::Table* table, qlog::TiMatrix ti_matrix);

  /// Incremental ingestion: appends an ad to the domain's delta store and
  /// publishes a new snapshot — no index or lexicon rebuild.
  /// Queries transparently union the delta (tombstones masked) until
  /// CompactDomain folds it into a fresh base table. Returns the ad's
  /// global RowId (stable until the next compaction).
  Result<db::RowId> IngestAd(const std::string& domain, db::Record record);

  /// Tombstones an ad by global RowId and publishes a new snapshot. The
  /// row stops matching queries immediately.
  Status RetireAd(const std::string& domain, db::RowId row);

  /// Merges the domain's delta into a fresh (re-indexed) base table and
  /// publishes a new version-stamped snapshot. Heavy, but safe to run from
  /// a background thread: in-flight queries keep the snapshot they pinned
  /// and are never blocked — only other writers serialize. Post-compaction
  /// answers are byte-identical to an engine rebuilt from scratch on the
  /// merged rows. No-op when the domain has no pending delta.
  Status CompactDomain(const std::string& domain);

  /// Shared word-correlation matrix for Feat_Sim. Must outlive the engine.
  void SetWordSimilarity(const wordsim::WsMatrix* ws);

  // --- persistent snapshots ----------------------------------------------

  /// Serializes the complete built state into one relocatable mmap-format
  /// file (EngineBuilder::SaveSnapshot). Fails with FailedPrecondition when
  /// any domain has a pending ingest delta — CompactDomain first.
  Status SaveSnapshot(const std::string& path) const;

  /// Boots an engine from a SaveSnapshot file in near O(1): large POD
  /// arrays are adopted zero-copy out of a shared read-only mapping. N
  /// processes opening the same file share its page-cache pages. Answers
  /// are byte-identical to the engine that saved the file.
  static Result<std::unique_ptr<CqadsEngine>> OpenSnapshot(
      const std::string& path);

  /// Replaces the engine-wide knobs and swaps in a fresh snapshot (cheap:
  /// domain runtimes are shared). Every domain gets a new parse
  /// generation, so prepared-cache entries — including memoized plans —
  /// parsed under the old options are never replayed. No option selects
  /// an execution strategy, so every setting answers byte-identically to
  /// the reference oracle (reference/reference_ask.h) on the same
  /// snapshot.
  void SetOptions(Options options);

  /// Trains the domain classifier on the registered tables' ad texts.
  Status TrainClassifier(
      classify::QuestionClassifier::Options classifier_options = {});

  /// Trains on the registered tables' ad texts plus caller-supplied extra
  /// documents (e.g. domain-keyword texts real ads would contain).
  Status TrainClassifierWithExtra(
      const std::vector<classify::LabelledDoc>& extra_docs,
      classify::QuestionClassifier::Options classifier_options = {});

  /// Labelled ad texts of every registered domain (exposed so benches can
  /// train alternative classifiers on identical data).
  std::vector<classify::LabelledDoc> MakeTrainingDocs() const;

  /// §3: the ads domain of a question. Fails when untrained.
  Result<std::string> ClassifyDomain(const std::string& question) const;

  /// Full analysis of a question within a known domain: ParseQuestion
  /// then PlanQuestion, so the parse carries its compiled plans.
  Result<ParsedQuestion> Parse(const std::string& domain,
                               const std::string& question) const;

  /// Classifies, then answers: the full pipeline.
  Result<AskResult> Ask(const std::string& question) const;

  /// Answers within a known domain (skips classification; an empty domain
  /// classifies, as Ask does).
  Result<AskResult> AskInDomain(const std::string& domain,
                                const std::string& question) const;

  /// The current immutable snapshot: one atomic shared_ptr load, no lock
  /// (writers may hold the mutex for a whole retrain). Callers run
  /// pipelines against it without further coordination and keep it alive
  /// across concurrent AddDomain/TrainClassifier swaps.
  EngineSnapshot::Ptr snapshot() const;

  /// Runtime lookup for tests and benches; nullptr when unregistered.
  /// LIFETIME: the pointer is valid only until the next engine mutation —
  /// IngestAd, RetireAd, and CompactDomain publish a REPLACEMENT runtime
  /// generation, after which the old one dies
  /// with its last snapshot. Callers that must hold domain state across
  /// mutations should pin snapshot() and read runtime() off it instead.
  const DomainRuntime* runtime(const std::string& domain) const;

  // The classifier lives on the snapshot: use snapshot()->classifier(),
  // holding the returned Ptr, so the reference cannot dangle across a
  // concurrent retrain. (There is intentionally no classifier() accessor
  // here for that reason.)

  std::vector<std::string> Domains() const;

 private:
  /// Adopts a loaded builder (the OpenSnapshot path).
  explicit CqadsEngine(EngineBuilder builder)
      : builder_(std::move(builder)), snapshot_(builder_.Build()) {}

  /// Rebuilds the snapshot from the builder. Caller holds mu_.
  void SwapSnapshotLocked();

  mutable std::mutex mu_;
  EngineBuilder builder_;  ///< guarded by mu_
  /// Written via std::atomic_store under mu_, read via std::atomic_load
  /// with no lock. The pointee is immutable.
  EngineSnapshot::Ptr snapshot_;
};

}  // namespace cqads::core

#endif  // CQADS_CORE_CQADS_ENGINE_H_
