// Per-structure (de)serialization for persistent snapshots. SerdeAccess is
// the single friend every snapshottable structure grants: all reads of
// private members funnel through here, so the set of fields a snapshot
// depends on is auditable in one file (serde.cc).
//
// Conventions:
//   * Write* is infallible (appends to a ByteWriter); Read* returns Status
//     and must treat the bytes as untrusted — every count is bounds-checked
//     and every enum validated, so a damaged-but-checksum-passing stream
//     still fails with DataLoss, never UB.
//   * Large POD arrays (trie nodes/edges, CSR rows, column codes, packed
//     doubles, null bitmaps, element postings, dict spans) use the aligned
//     adoptable layout and are restored as zero-copy PodVec views that keep
//     the mapped arena alive. String dictionaries and index postings are
//     materialized on the heap once per open.
//   * unordered_map contents are written in sorted key order, so identical
//     engine state always produces byte-identical files.
#ifndef CQADS_SNAPSHOT_SERDE_H_
#define CQADS_SNAPSHOT_SERDE_H_

#include <memory>
#include <string>
#include <vector>

#include "classify/question_classifier.h"
#include "common/status.h"
#include "core/ask_types.h"
#include "core/domain_lexicon.h"
#include "core/engine_snapshot.h"
#include "core/tags.h"
#include "db/exec/table_stats.h"
#include "db/indexes.h"
#include "db/schema.h"
#include "db/storage/column_store.h"
#include "db/table.h"
#include "db/value.h"
#include "qlog/ti_matrix.h"
#include "snapshot/io.h"
#include "text/term_dict.h"
#include "trie/flat_trie.h"
#include "wordsim/ws_matrix.h"

namespace cqads::snapshot {

/// Keeps the mapped arena alive from inside adopted PodVec views.
using ArenaPtr = std::shared_ptr<const void>;

struct SerdeAccess {
  // --- text ---------------------------------------------------------------
  static void WriteTermDict(const text::TermDict& d, ByteWriter* w);
  static Status ReadTermDict(ByteReader* r, text::TermDict* out);

  // --- trie ---------------------------------------------------------------
  static void WriteFlatTrie(const trie::FlatTrie& t, ByteWriter* w);
  static Status ReadFlatTrie(ByteReader* r, const ArenaPtr& owner,
                             trie::FlatTrie* out);

  // --- similarity matrices ------------------------------------------------
  static void WriteWsMatrix(const wordsim::WsMatrix& m, ByteWriter* w);
  static Status ReadWsMatrix(ByteReader* r, const ArenaPtr& owner,
                             wordsim::WsMatrix* out);
  static void WriteTiMatrix(const qlog::TiMatrix& m, ByteWriter* w);
  static Status ReadTiMatrix(ByteReader* r, const ArenaPtr& owner,
                             qlog::TiMatrix* out);

  // --- db -----------------------------------------------------------------
  static void WriteValue(const db::Value& v, ByteWriter* w);
  static Status ReadValue(ByteReader* r, db::Value* out);
  static void WriteSchema(const db::Schema& s, ByteWriter* w);
  static Status ReadSchema(ByteReader* r, db::Schema* out);
  static void WriteColumnStore(const db::ColumnStore& s, ByteWriter* w);
  static Status ReadColumnStore(ByteReader* r, const ArenaPtr& owner,
                                db::ColumnStore* out);
  static void WriteHashIndex(const db::HashIndex& idx, ByteWriter* w);
  static Status ReadHashIndex(ByteReader* r, db::HashIndex* out);
  static void WriteSortedIndex(const db::SortedIndex& idx, ByteWriter* w);
  static Status ReadSortedIndex(ByteReader* r, db::SortedIndex* out);
  static void WriteNGramIndex(const db::NGramIndex& idx, ByteWriter* w);
  static Status ReadNGramIndex(ByteReader* r, db::NGramIndex* out);
  static void WriteStats(const db::exec::TableStats& s, ByteWriter* w);
  static Status ReadStats(ByteReader* r, db::exec::TableStats* out);
  /// Whole table: schema, columnar store (frozen at load), all access-path
  /// indexes, and the statistics the planner was built against.
  static void WriteTable(const db::Table& t, ByteWriter* w);
  static Status ReadTable(ByteReader* r, const ArenaPtr& owner,
                          std::unique_ptr<db::Table>* out);

  // --- core ---------------------------------------------------------------
  static void WriteTaggedItem(const core::TaggedItem& item, ByteWriter* w);
  static Status ReadTaggedItem(ByteReader* r, core::TaggedItem* out);
  /// Lexicon is restored against the already-loaded table (schema_ rewires
  /// to it); every trie handle must index the restored entries.
  static void WriteLexicon(const core::DomainLexicon& lex, ByteWriter* w);
  static Status ReadLexicon(ByteReader* r, const ArenaPtr& owner,
                            const db::Table* table,
                            std::shared_ptr<const core::DomainLexicon>* out);
  static void WriteClassifier(const classify::QuestionClassifier& c,
                              ByteWriter* w);
  static Status ReadClassifier(ByteReader* r,
                               classify::QuestionClassifier* out);
  static void WriteOptions(const core::EngineOptions& o, ByteWriter* w);
  static Status ReadOptions(ByteReader* r, core::EngineOptions* out);

  // --- engine-level container (src/snapshot/engine_io.cc) -----------------
  static Status SaveEngine(const core::EngineBuilder& b,
                           const std::string& path);
  static Result<core::EngineBuilder> LoadEngine(const std::string& path);
};

}  // namespace cqads::snapshot

#endif  // CQADS_SNAPSHOT_SERDE_H_
