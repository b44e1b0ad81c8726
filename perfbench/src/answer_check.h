// Independent answer checks for the view-discovery benchmark. They run
// outside the timed window and share no join or distillation code with the
// program: views are recomputed by a naive nested-loop join over the
// repository's cells and compared as sets of text rows.

#ifndef PERFBENCH_ANSWER_CHECK_H_
#define PERFBENCH_ANSWER_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/ver.h"
#include "storage/repository.h"
#include "workload/ground_truth.h"

namespace perfbench {

/// Checks one OK answer to a query drawn from `gt`. Returns a description
/// of every failure found; empty when the answer passes:
///  - the ground-truth view, joined naively, is covered by a surviving view
///    of the same schema block;
///  - a seeded sample of `sampled_views` materialized views, plus the top
///    ranked view, equal their naive recomputation;
///  - no surviving view's rows equal or are contained in another surviving
///    view's rows of the same schema block;
///  - the automatic ranking lists every surviving view exactly once, with
///    scores that never increase.
std::vector<std::string> CheckAnswer(const ver::TableRepository& repo,
                                     const ver::GroundTruthQuery& gt,
                                     const ver::QueryResult& result,
                                     uint64_t sample_seed, int sampled_views);

/// Fingerprint of a ranked answer in rank order: each ranked view's index,
/// overlap, score and row set (the rows hashed independently of order).
uint64_t RankingFingerprint(const ver::QueryResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_ANSWER_CHECK_H_
