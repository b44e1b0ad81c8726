// Materializer: executes project-join plans over the repository.
//
// The paper implements this component on pandas; here it is a small columnar
// executor: BFS over the join graph, hash join per edge, then projection with
// set semantics. Join state is struct-of-arrays (one row-index column per
// bound table), so filter and extend steps are gather passes with no
// per-tuple allocation. Views can optionally be spilled to CSV so that
// downstream stages measure the "read views from disk" cost the paper
// reports (Fig. 3/4).

#ifndef VER_ENGINE_MATERIALIZER_H_
#define VER_ENGINE_MATERIALIZER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "discovery/join_graph.h"
#include "engine/view.h"
#include "storage/repository.h"
#include "util/flat_multimap.h"
#include "util/result.h"

namespace ver {

struct MaterializeOptions {
  /// Set semantics for PJ-views (Algorithm 3 operates on row sets).
  bool distinct = true;
  /// Abort materialization when an intermediate exceeds this row count —
  /// a runaway join over a wrong path is a noisy-join-path artifact, not a
  /// useful view.
  int64_t max_intermediate_rows = 2'000'000;
  /// When non-empty, materialized views are also written as CSV here.
  std::string spill_dir;
};

/// Executor bound to one repository. It caches each hash-join build side
/// (a FlatU64MultiMap over one key column) by (table, column) for its
/// whole life, so the many join graphs of one query that share tables and
/// keys build each side once. One instance serves one query on one thread
/// (CandidateMaterializer owns it); the repository's tables must not change
/// while it lives.
///
/// Memory: a build side over an n-row table holds 16 B per slot
/// (power-of-two capacity >= n / 0.7, at least 16 slots) plus 8 B per
/// non-null row, about 31-54 B per table row. The cache keeps every
/// (table, column) the query joins on until the instance is destroyed, so
/// a query that joins on k key columns of n-row tables holds about
/// 40 * k * n bytes on top of the view rows, outside any buffer-pool
/// budget. On the generated open-data lake (15-90-row tables) that is
/// about 48 build sides and 71 KB per query, at most 141 KB.
class Materializer {
 public:
  explicit Materializer(const TableRepository* repo) : repo_(repo) {}

  /// Materializes `graph` and projects `projection` (one output attribute
  /// per entry). Output attribute names come from the source columns.
  Result<Table> Materialize(const JoinGraph& graph,
                            const std::vector<ColumnRef>& projection,
                            const MaterializeOptions& options,
                            std::string view_name);

  /// Materializes and wraps into a View (id assigned by the caller).
  Result<View> MaterializeView(const JoinGraph& graph,
                               const std::vector<ColumnRef>& projection,
                               const MaterializeOptions& options,
                               int64_t view_id);

 private:
  /// The build side over `key`'s non-null rows, built on first use.
  const FlatU64MultiMap& BuildSide(const ColumnRef& key);

  const TableRepository* repo_;
  std::unordered_map<uint64_t, FlatU64MultiMap> build_cache_;  // Encode() key
};

}  // namespace ver

#endif  // VER_ENGINE_MATERIALIZER_H_
