// Join path index: GENERATE-JOIN-GRAPHS(tables, rho) from the paper's
// Appendix A. Built offline from the similarity index's inclusion-dependency
// edges; queried online to connect candidate tables within rho hops.

#ifndef VER_DISCOVERY_JOIN_PATH_INDEX_H_
#define VER_DISCOVERY_JOIN_PATH_INDEX_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "discovery/join_graph.h"
#include "discovery/profile.h"
#include "discovery/similarity_index.h"
#include "pager/paged_view.h"
#include "util/thread_pool.h"

namespace ver {

struct JoinPathOptions {
  /// Containment threshold above which a column pair is a join edge — the
  /// discovery-index threshold t of Fig. 8a (paper default 0.8; lowering
  /// it admits noisier join paths). Unitless, in [0, 1].
  double containment_threshold = 0.8;
  /// Join endpoints need at least this many distinct values. Units:
  /// distinct values; default 2.
  int64_t min_distinct = 2;
  /// Cap on alternative join graphs returned per table-path, guarding the
  /// cartesian blowup of alternate keys along multi-hop paths. Units:
  /// graphs; default 64. No paper counterpart (implementation guard).
  int max_graphs_per_path = 64;
  /// Cap on total join graphs per query. Units: graphs; default 4096.
  /// No paper counterpart (implementation guard).
  int max_total_graphs = 4096;
};

/// Table-level join connectivity with per-table-pair column-pair choices.
class JoinPathIndex {
 public:
  /// Discovers all joinable column pairs and builds table adjacency.
  /// With a pool, candidate-pair scoring shards across workers; per-chunk
  /// edges merge in chunk order, so the index equals a serial build.
  void Build(const std::vector<ColumnProfile>* profiles,
             const SimilarityIndex& similarity, const JoinPathOptions& options,
             ThreadPool* pool = nullptr);

  /// Pair-list build for sharded engines: scores an explicit candidate
  /// pair list (ascending (i, j), i < j, deduplicated) instead of asking
  /// one similarity index. A monolithic engine's pair list is exactly
  /// similarity.AllCandidatePairs(), so the overload above delegates here
  /// — and a sharded engine passing the sorted union of per-shard and
  /// cross-shard pairs produces the identical index.
  void Build(const std::vector<ColumnProfile>* profiles,
             const std::vector<std::pair<int, int>>& pairs,
             const JoinPathOptions& options, ThreadPool* pool = nullptr);

  /// Incrementally discovers join edges for profiles appended after
  /// Build() (starting at `first_new`) and refreshes table adjacency.
  void AddColumns(const std::vector<ColumnProfile>* profiles,
                  const SimilarityIndex& similarity, size_t first_new);

  /// Pair-list variant of AddColumns for sharded engines: evaluates the
  /// given (new_column, existing_column) pairs in order. Callers must
  /// present pairs the way AddColumns discovers them — for each new column
  /// i ascending, its partners j < i ascending — so overlay edge order
  /// matches the single-shard incremental path.
  void AddColumnPairs(const std::vector<ColumnProfile>* profiles,
                      const std::vector<std::pair<int, int>>& pairs);

  /// All join graphs connecting `tables` where every inter-table route uses
  /// at most `max_hops` join edges. With a single input table, returns the
  /// single-table graph. Results are deduplicated and sorted by score.
  std::vector<JoinGraph> GenerateJoinGraphs(
      const std::vector<int32_t>& tables, int max_hops) const;

  /// All joinable column pairs between two specific tables: snapshot-loaded
  /// flat edges first (older profiles), then incremental overlay edges —
  /// the same two-store merge order the other indexes use.
  std::vector<JoinEdge> EdgesBetween(int32_t table_a, int32_t table_b) const;

  /// Total number of joinable column pairs discovered (Table I statistic).
  int64_t num_joinable_column_pairs() const {
    return num_joinable_column_pairs_;
  }

  /// Tables adjacent to `table` in the join connectivity graph.
  std::vector<int32_t> AdjacentTables(int32_t table) const;

  /// Snapshot serialization. Both stores are written merged into one flat
  /// sorted layout (u64 table-pair keys, u32 edge offsets, structure-of-
  /// arrays edge records), so the bytes are deterministic; the adjacency
  /// lists are derived data and are rebuilt on load. Resident loads
  /// validate every edge endpoint against `repo`; with a pager `binding`
  /// the arrays are adopted as borrowed mmap extents, the O(edges) scan is
  /// skipped, and EdgesBetween drops any edge whose decoded endpoints fall
  /// outside the repository instead. `options` comes from the engine's
  /// options section (persisted once).
  void SaveTo(SerdeWriter* w) const;
  Status LoadFrom(SerdeReader* r, const TableRepository& repo,
                  const JoinPathOptions& options,
                  const PagerBinding* binding = nullptr);

  /// Adds the flat edge store's paged extents to `pin` (no-op if resident).
  void PinInto(PagePin* pin) const { flat_edges_.PinInto(pin); }

 private:
  /// Immutable snapshot-loaded edge store: table-pair keys sorted
  /// ascending, per-pair edge slices addressed by offsets, edge fields as
  /// parallel arrays (borrowable straight out of the mmapped snapshot).
  struct FlatEdges {
    PagedView<uint64_t> pair_keys;    // (min_id << 32) | max_id, sorted
    PagedView<uint32_t> offsets;      // pair_keys.size() + 1 entries
    PagedView<uint64_t> left;         // ColumnRef::Encode per edge
    PagedView<uint64_t> right;
    PagedView<double> containment;
    PagedView<double> key_quality;

    size_t num_pairs() const { return static_cast<size_t>(pair_keys.size()); }
    /// Index of `key`, or -1.
    ptrdiff_t find(uint64_t key) const;
    /// Bounds-guarded edge slice [begin, end) for pair index `i`; empty on
    /// a corrupt offset pair (paged loads skip offset validation).
    std::pair<uint32_t, uint32_t> edge_range(size_t i) const {
      uint32_t b = offsets[i], e = offsets[i + 1];
      if (b > e || e > left.size()) return {0, 0};
      return {b, e};
    }
    void SaveTo(SerdeWriter* w) const;
    Status LoadFrom(SerdeReader* r, const PagerBinding* binding);
    void PinInto(PagePin* pin) const {
      pair_keys.PinInto(pin);
      offsets.PinInto(pin);
      left.PinInto(pin);
      right.PinInto(pin);
      containment.PinInto(pin);
      key_quality.PinInto(pin);
    }
  };

  // Incremental overlay (Build/AddColumns inserts).
  // Key: (min_table_id, max_table_id).
  std::map<std::pair<int32_t, int32_t>, std::vector<JoinEdge>> pair_edges_;
  // Immutable snapshot-loaded base.
  FlatEdges flat_edges_;
  // Column counts per table, captured at LoadFrom: lets EdgesBetween
  // range-check decoded flat edges without touching the repository (the
  // query-time guard replacing the skipped paged validation scan).
  std::vector<int32_t> table_num_columns_;
  std::map<int32_t, std::vector<int32_t>> adjacency_;
  int64_t num_joinable_column_pairs_ = 0;
  JoinPathOptions options_;

  // Decodes flat edge slot `o` and appends it if its endpoints are in
  // range (corrupt paged records are dropped, never dereferenced).
  void AppendFlatEdge(uint32_t o, std::vector<JoinEdge>* out) const;

  // Evaluates one candidate column pair; returns true and fills `edge` when
  // the pair is joinable. Pure with respect to index state, so candidate
  // scoring can run on worker threads.
  bool ScoreEdge(const ColumnProfile& a, const ColumnProfile& b,
                 JoinEdge* edge) const;
  // Evaluates one candidate column pair and records the edge if joinable.
  void MaybeAddEdge(const ColumnProfile& a, const ColumnProfile& b);
  void RebuildAdjacency();

  // Simple table paths a -> b with <= max_hops edges (excluding cycles).
  std::vector<std::vector<int32_t>> TablePaths(int32_t from, int32_t to,
                                               int max_hops) const;
  // TablePaths' depth-first step: appends every simple path that extends
  // `current` (ending at a table other than `to`) by at most `hops_left`
  // (>= 1) edges and ends at `to`, in adjacency order.
  void ExtendPaths(int32_t to, int hops_left, std::vector<int32_t>* current,
                   std::vector<std::vector<int32_t>>* paths) const;

  // Expands one table path into concrete join graphs (one column pair per
  // consecutive table pair), capped at options_.max_graphs_per_path.
  void ExpandPath(const std::vector<int32_t>& path,
                  std::vector<JoinGraph>* out) const;
};

}  // namespace ver

#endif  // VER_DISCOVERY_JOIN_PATH_INDEX_H_
