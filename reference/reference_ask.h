// The reference oracle: the paper's answer algorithm run the way the seed
// engine ran it, with none of the serving path's machinery, so every
// serving-path answer can be checked against it byte for byte.
//
//   parse    the production ClassifyQuestion and ParseQuestion (classify
//            -> tag -> conditions -> assemble -> render SQL,
//            core/pipeline.h); no plan is compiled
//   exact    §4.3/§4.5: the seed Type-rank executor (db::ExecuteQuery), or,
//            with a live ingest delta, its own base ∪ delta union over the
//            seed executor's rows (tombstones masked, delta records matched
//            row at a time), independent of the serving path's
//            db::exec::ExecuteHybrid
//   partial  §4.3.1: when exact answers are fewer than partial_trigger,
//            one relaxed query per dropped unit (N-1), each run like the
//            exact query, every new row scored by Eq. 5 through the
//            string-keyed ScorePartialMatch (string_rank_sim.h); a
//            single-condition question scores every live row instead
//   rank     §4.3.2: every candidate sorted by (rank_sim desc, row asc),
//            then the answer cap
//
// Only tests/ and bench/ link this library (cqads_reference); libcqads, the
// examples, and servebench do not. It is slow by design: every relaxation
// is its own query and every candidate is scored and sorted. The library
// also holds the other oracles the serving library's faster structures are
// checked against: the pointer KeywordTrie (keyword_trie.h) and the
// string-keyed Eq. 5 scorer (string_rank_sim.h).
#ifndef CQADS_REFERENCE_REFERENCE_ASK_H_
#define CQADS_REFERENCE_REFERENCE_ASK_H_

#include <string>

#include "common/status.h"
#include "core/ask_types.h"
#include "core/engine_snapshot.h"

namespace cqads::reference {

/// Answers `question` within `domain` on `snapshot` (no classification).
/// The canonical form (core::CanonicalAskResultString) equals the serving
/// path's for the same snapshot.
Result<core::AskResult> ReferenceAskInDomain(
    const core::EngineSnapshot& snapshot, const std::string& domain,
    const std::string& question);

/// Classifies `question` with the snapshot's §3 classifier, then answers it
/// as ReferenceAskInDomain does.
Result<core::AskResult> ReferenceAsk(const core::EngineSnapshot& snapshot,
                                     const std::string& question);

}  // namespace cqads::reference

#endif  // CQADS_REFERENCE_REFERENCE_ASK_H_
