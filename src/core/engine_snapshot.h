// Immutable read-side state of the CQAds engine, separated from the request
// path so queries can fan out across cores without locks.
//
// An EngineSnapshot freezes everything a question needs to be answered:
// per-domain lexicons/tries, taggers, planners and column stores, the
// domain's frozen ingest delta, TI-matrices, and Eq. 4 attribute ranges
// (DomainRuntime), plus the trained §3 classifier and the shared WS
// word-correlation matrix. Snapshots are built by an
// EngineBuilder and handed out as std::shared_ptr<const EngineSnapshot>:
// the hot path takes a reference, never a lock, and a snapshot can be
// atomically swapped when a domain is added, an ad ingested or retired, a
// delta compacted, or the classifier retrained, while in-flight queries
// keep the old one alive.
//
// Every DomainRuntime component is held by shared_ptr so a runtime
// GENERATION is cheap: ingesting one ad publishes a new DomainRuntime that
// shares the lexicon, tagger, planner, stats, rank bounds, record terms
// and fragment memo of the old one and differs only in the frozen delta.
// Compaction is the expensive generation: it rebuilds everything from the
// merged table.
//
// Thread-safety: every const method of EngineSnapshot and DomainRuntime is
// safe to call concurrently — all contained state is immutable after Build,
// except each large table's fragment memo, a cache that synchronizes
// itself, and each table's record terms, built once on first use.
// EngineBuilder itself is not thread-safe; callers serialize mutations
// (CqadsEngine does so behind its mutex).
#ifndef CQADS_CORE_ENGINE_SNAPSHOT_H_
#define CQADS_CORE_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "classify/question_classifier.h"
#include "common/status.h"
#include "core/ask_types.h"
#include "core/domain_lexicon.h"
#include "core/question_tagger.h"
#include "core/rank_sim.h"
#include "db/exec/fragment_memo.h"
#include "db/exec/planner.h"
#include "db/exec/rank_bounds.h"
#include "db/exec/table_stats.h"
#include "db/storage/delta_store.h"
#include "db/table.h"
#include "qlog/ti_matrix.h"
#include "text/term_dict.h"
#include "text/token.h"
#include "wordsim/ws_matrix.h"

namespace cqads::snapshot {
struct SerdeAccess;
}

namespace cqads::core {

/// Everything the engine keeps per registered domain. Immutable once the
/// owning snapshot is built; components are shared (never copied) across
/// snapshot generations, so adding domain B does not rebuild domain A's
/// trie, and ingesting an ad republishes the runtime without rebuilding
/// anything.
struct DomainRuntime {
  /// The domain's CURRENT base table: the registered table, or the merged
  /// table of the latest compaction.
  const db::Table* table = nullptr;
  /// Set when `table` is a compaction product the engine owns (registered
  /// tables are caller-owned); keeps it alive for snapshots that pin this
  /// runtime generation.
  std::shared_ptr<const db::Table> owned_table;
  std::shared_ptr<const DomainLexicon> lexicon;
  /// The domain's interned-term dictionary (trie keywords + categorical
  /// values with cached stems/stopword flags/shorthand norms). Aliases the
  /// lexicon's dict — one instance per lexicon generation, shared across
  /// snapshots; ingest republishes runtimes WITHOUT rebuilding it, and
  /// compaction swaps in the fresh lexicon's copy.
  std::shared_ptr<const text::TermDict> terms;
  std::shared_ptr<const QuestionTagger> tagger;
  /// Column statistics frozen at registration: the planner below estimates
  /// against exactly these even if the table were re-indexed later.
  std::shared_ptr<const db::exec::TableStats> stats;
  /// Cost-aware plan compiler over the domain's column store.
  std::shared_ptr<const db::exec::Planner> planner;
  /// Frozen ingest delta riding on `table`: rows inserted/retired since the
  /// last compaction. Null or empty() when the domain has no pending delta;
  /// queries then skip the hybrid union path entirely.
  std::shared_ptr<const db::DeltaStore> delta;
  std::shared_ptr<const qlog::TiMatrix> ti_matrix;
  std::vector<double> attr_ranges;  ///< Eq. 4 normalization
  /// The record side of Eq. 5 over `table` (core/rank_sim.h): element
  /// tokens and stems, Type I TI ids. Built on the first rank that scores
  /// the table, not at registration or load. It belongs to `table`, so
  /// ingest, retire and set_options share it, while a new base table
  /// (registration, compaction, snapshot load) gets a fresh, empty cell.
  /// Never serialized.
  std::shared_ptr<const RecordTermsCell> record_terms;
  /// Per-block code/value summaries of `table` for top-k rank pruning.
  /// Rebuilt whenever the base table changes (registration, compaction,
  /// snapshot load); never serialized.
  std::shared_ptr<const db::exec::RankBounds> rank_bounds;
  /// The rank stage's memo of relaxation-fragment base rows
  /// (db/exec/fragment_memo.h), on a base table larger than one rank
  /// block; null otherwise. The one mutable component, internally
  /// synchronized: it fills as requests rank. It belongs to `table`, so
  /// ingest, retire and set_options share it, while a new base table
  /// (registration, compaction, snapshot load) gets a fresh one. Never
  /// serialized.
  std::shared_ptr<db::exec::FragmentMemo> fragment_memo;
  /// Stamp of everything a parse and its plans read: the lexicon, tagger,
  /// frozen stats and planner of `table`, and the engine options. Drawn
  /// from the builder's generation counter whenever one of them changes
  /// (AddDomain, CompactDomain, set_options, snapshot load); ingest and
  /// retire keep it, because only execute and rank read the delta. The
  /// prepared-query cache serves a memoized parse only while it matches.
  std::uint64_t parse_generation = 0;

  /// The delta when it actually changes answers, nullptr otherwise.
  const db::DeltaStore* live_delta() const {
    return (delta != nullptr && !delta->empty()) ? delta.get() : nullptr;
  }
};

class EngineSnapshot {
 public:
  using Ptr = std::shared_ptr<const EngineSnapshot>;

  const EngineOptions& options() const { return options_; }

  /// Monotonically increasing across Build() calls of one builder. The
  /// prepared-query cache orders its writes by it, so a request pinned on
  /// an older snapshot never replaces a fresher entry.
  std::uint64_t version() const { return version_; }

  /// Per-domain state; nullptr when the domain is unregistered.
  const DomainRuntime* runtime(const std::string& domain) const;
  std::vector<std::string> Domains() const;

  /// The trained §3 classifier, shared by every snapshot built until the
  /// next retrain; nullptr when untrained.
  const classify::QuestionClassifier* classifier() const {
    return classifier_.get();
  }
  bool classifier_trained() const { return classifier_ != nullptr; }
  /// Changes whenever the classifier does (TrainClassifier*, AddDomain,
  /// snapshot load), so the prepared-query cache can tell whether a
  /// memoized classification still holds.
  std::uint64_t classifier_generation() const {
    return classifier_generation_;
  }
  const wordsim::WsMatrix* word_similarity() const { return ws_; }

  /// The shared-corpus term dictionary (the WS matrix's interned stem
  /// vocabulary); nullptr when no WS matrix is installed.
  const text::TermDict* shared_terms() const {
    return ws_ == nullptr ? nullptr : &ws_->term_dict();
  }

  /// §3: the ads domain of a question. Fails when untrained.
  Result<std::string> ClassifyDomain(const std::string& question) const;
  /// Token-stream form (the pipeline's tokenize-once path).
  Result<std::string> ClassifyDomainTokens(const text::TokenList& tokens) const;

  /// Similarity resources for Rank_Sim scoring over `rt`'s base table;
  /// the first call for a table builds its record terms. Points into `rt`
  /// and this snapshot, which must outlive it.
  SimilarityContext MakeSimilarityContext(const DomainRuntime& rt) const;

 private:
  friend class EngineBuilder;
  EngineSnapshot() = default;

  EngineOptions options_;
  std::uint64_t version_ = 0;
  std::map<std::string, std::shared_ptr<const DomainRuntime>> runtimes_;
  std::shared_ptr<const classify::QuestionClassifier> classifier_;
  std::uint64_t classifier_generation_ = 0;
  const wordsim::WsMatrix* ws_ = nullptr;
  /// Set when the WS matrix is engine-owned (loaded from a persistent
  /// snapshot) rather than caller-owned: keeps ws_ alive for this
  /// snapshot's lifetime.
  std::shared_ptr<const wordsim::WsMatrix> owned_ws_;
};

/// Accumulates domains, classifier training, and the ingest deltas, then
/// freezes the state into snapshots. Successive Build() calls share
/// unchanged DomainRuntimes.
class EngineBuilder {
 public:
  EngineBuilder() : EngineBuilder(EngineOptions()) {}
  explicit EngineBuilder(EngineOptions options) : options_(options) {}

  /// Registers a domain: the ads table (indexes built) and its query-log-
  /// derived TI-matrix. Builds the trie lexicon, tagger, planner, rank
  /// bounds, and attribute ranges (the record terms wait for a rank).
  /// Untrains the classifier (corpus changed).
  Status AddDomain(const db::Table* table, qlog::TiMatrix ti_matrix);

  /// Incremental ingestion: appends the record to the domain's delta store
  /// and republishes the runtime generation — no index or lexicon
  /// rebuild. Returns the ad's global RowId (stable until the
  /// next compaction). Note: the delta rides on the registration-time
  /// lexicon, so genuinely NEW vocabulary in the record becomes taggable
  /// only after CompactDomain.
  Result<db::RowId> IngestAd(const std::string& domain, db::Record record);

  /// Tombstones an ad by global RowId (a base row or a delta row). The row
  /// stops matching queries immediately; storage is reclaimed at
  /// compaction.
  Status RetireAd(const std::string& domain, db::RowId row);

  /// Merges the domain's delta into a fresh base table (surviving base rows
  /// in RowId order, then surviving delta rows in insertion order), rebuilds
  /// indexes, stats, lexicon, tagger, planner, and rank bounds from it, and
  /// clears the delta. After this, answers are byte-identical to an engine
  /// rebuilt from scratch on the merged rows — the ingest differential
  /// tests pin exactly that. No-op (OK) when the domain has no delta.
  /// Classifier training is NOT invalidated (the stale classifier keeps
  /// serving); callers may retrain when corpus drift matters.
  Status CompactDomain(const std::string& domain);

  /// True when the domain has pending delta rows or tombstones.
  bool HasPendingDelta(const std::string& domain) const;

  /// Shared word-correlation matrix for Feat_Sim. Must outlive every
  /// snapshot built afterwards.
  void SetWordSimilarity(const wordsim::WsMatrix* ws) {
    ws_ = ws;
    owned_ws_.reset();
  }

  /// Owned variant: the builder (and every snapshot built afterwards) keeps
  /// the matrix alive. Used by the persistent-snapshot load path, where
  /// there is no caller-owned matrix to point at.
  void SetWordSimilarityOwned(std::shared_ptr<const wordsim::WsMatrix> ws) {
    owned_ws_ = std::move(ws);
    ws_ = owned_ws_.get();
  }

  // --- persistent snapshots (src/snapshot/engine_io.cc) ------------------

  /// Serializes the complete built state (domains, classifier, WS matrix,
  /// options) into one relocatable mmap-format file. Fails with
  /// FailedPrecondition when any domain has a pending ingest delta —
  /// compact first; a snapshot always represents a fully-merged base.
  Status SaveSnapshot(const std::string& path) const;

  /// Reloads a SaveSnapshot file via mmap: large POD arrays (trie nodes,
  /// CSR rows, column codes/doubles/bitmaps/postings) are adopted zero-copy
  /// out of the shared read-only mapping; string dictionaries are
  /// materialized once per open. The returned builder owns everything it
  /// serves from (tables, lexicons, WS matrix) plus the mapping itself.
  static Result<EngineBuilder> OpenSnapshot(const std::string& path);

  /// Labelled ad texts of every registered domain (exposed so benches can
  /// train alternative classifiers on identical data).
  std::vector<classify::LabelledDoc> MakeTrainingDocs() const;

  /// Trains the domain classifier on the registered tables' ad texts.
  Status TrainClassifier(
      classify::QuestionClassifier::Options classifier_options = {});

  /// Trains on the registered tables' ad texts plus caller-supplied extra
  /// documents (e.g. domain-keyword texts real ads would contain). On
  /// failure the previous classifier, trained or not, stays in place.
  Status TrainClassifierWithExtra(
      const std::vector<classify::LabelledDoc>& extra_docs,
      classify::QuestionClassifier::Options classifier_options = {});

  /// Freezes the current state into a new immutable snapshot. Cheap:
  /// domain runtimes and the classifier are shared by pointer.
  EngineSnapshot::Ptr Build();

  const EngineOptions& options() const { return options_; }

  /// Replaces the engine-wide knobs (answer caps, partial retrieval,
  /// explain recording); takes effect in the next Build(). Restamps every
  /// runtime's parse generation: answer_cap is the parsed query's limit
  /// and part of its SQL, and enable_partial decides which unit plans are
  /// compiled.
  void set_options(const EngineOptions& options);

  bool HasDomain(const std::string& domain) const {
    return runtimes_.count(domain) > 0;
  }

 private:
  friend struct cqads::snapshot::SerdeAccess;

  /// Builds a full runtime around `table` (every component fresh, a new
  /// parse generation).
  Result<std::shared_ptr<DomainRuntime>> MakeRuntime(
      const db::Table* table, std::shared_ptr<const db::Table> owned,
      std::shared_ptr<const qlog::TiMatrix> ti);

  /// The next value of the builder-wide counter that parse and classifier
  /// generations are drawn from.
  std::uint64_t NextGeneration() { return next_generation_++; }

  /// The domain's mutable pending delta, created on first use.
  Result<db::DeltaStore*> PendingDelta(const std::string& domain);

  /// Republishes `domain`'s runtime with the current pending delta frozen
  /// in (all other components shared, the parse generation kept).
  void RefreshDeltaRuntime(const std::string& domain);

  EngineOptions options_;
  std::uint64_t next_version_ = 1;
  std::uint64_t next_generation_ = 1;
  std::map<std::string, std::shared_ptr<const DomainRuntime>> runtimes_;
  /// Mutable ingest state per domain; frozen copies go into runtimes.
  std::map<std::string, std::unique_ptr<db::DeltaStore>> pending_deltas_;
  /// Null when untrained. Replaced whole by a successful retrain, never
  /// mutated, so every snapshot shares it instead of copying it.
  std::shared_ptr<const classify::QuestionClassifier> classifier_;
  std::uint64_t classifier_generation_ = 0;
  const wordsim::WsMatrix* ws_ = nullptr;
  /// Engine-owned WS matrix (persistent-snapshot load path); null when the
  /// caller owns the matrix via SetWordSimilarity.
  std::shared_ptr<const wordsim::WsMatrix> owned_ws_;
};

}  // namespace cqads::core

#endif  // CQADS_CORE_ENGINE_SNAPSHOT_H_
