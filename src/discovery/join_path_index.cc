#include "discovery/join_path_index.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "util/check.h"

namespace ver {

namespace {

std::pair<int32_t, int32_t> TableKey(int32_t a, int32_t b) {
  return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
}

uint64_t PairKey(const std::pair<int32_t, int32_t>& key) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(key.first)) << 32) |
         static_cast<uint32_t>(key.second);
}

ColumnRef DecodeRef(uint64_t encoded) {
  ColumnRef ref;
  ref.table_id = static_cast<int32_t>(encoded >> 32);
  ref.column_index = static_cast<int32_t>(encoded & 0xffffffffULL);
  return ref;
}

}  // namespace

ptrdiff_t JoinPathIndex::FlatEdges::find(uint64_t key) const {
  const uint64_t* it = std::lower_bound(pair_keys.begin(), pair_keys.end(), key);
  if (it == pair_keys.end() || *it != key) return -1;
  return it - pair_keys.begin();
}

void JoinPathIndex::FlatEdges::SaveTo(SerdeWriter* w) const {
  w->WriteU64Array(pair_keys.data(), pair_keys.size());
  w->WriteU32Array(offsets.data(), offsets.size());
  w->WriteU64Array(left.data(), left.size());
  w->WriteU64Array(right.data(), right.size());
  w->WriteDoubleArray(containment.data(), containment.size());
  w->WriteDoubleArray(key_quality.data(), key_quality.size());
}

Status JoinPathIndex::FlatEdges::LoadFrom(SerdeReader* r,
                                          const PagerBinding* binding) {
  const char* raw = nullptr;
  uint64_t n = 0;
  VER_RETURN_IF_ERROR(r->ReadArrayExtent(sizeof(uint64_t), "pair keys", &raw, &n));
  pair_keys.Adopt(binding, raw, n);
  VER_RETURN_IF_ERROR(
      r->ReadArrayExtent(sizeof(uint32_t), "edge offsets", &raw, &n));
  offsets.Adopt(binding, raw, n);
  VER_RETURN_IF_ERROR(r->ReadArrayExtent(sizeof(uint64_t), "left refs", &raw, &n));
  left.Adopt(binding, raw, n);
  VER_RETURN_IF_ERROR(
      r->ReadArrayExtent(sizeof(uint64_t), "right refs", &raw, &n));
  right.Adopt(binding, raw, n);
  VER_RETURN_IF_ERROR(
      r->ReadArrayExtent(sizeof(double), "edge containment", &raw, &n));
  containment.Adopt(binding, raw, n);
  VER_RETURN_IF_ERROR(
      r->ReadArrayExtent(sizeof(double), "edge key quality", &raw, &n));
  key_quality.Adopt(binding, raw, n);

  // O(1) structural consistency — cheap enough to keep even under paging
  // (touches only the first/last offset pages).
  if (offsets.size() != pair_keys.size() + 1 || offsets[0] != 0 ||
      offsets[offsets.size() - 1] != left.size() ||
      right.size() != left.size() || containment.size() != left.size() ||
      key_quality.size() != left.size()) {
    return Status::IOError("corrupt join path index: array sizes disagree");
  }
  if (binding != nullptr && binding->pool != nullptr) return Status::OK();
  // Resident loads vet the whole layout up front; paged loads defer to
  // edge_range() / EdgesBetween()'s per-record guards.
  for (size_t i = 0; i < num_pairs(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::IOError("corrupt join path index: offsets not monotonic");
    }
    if (i + 1 < num_pairs() && pair_keys[i] >= pair_keys[i + 1]) {
      return Status::IOError("corrupt join path index: pair keys not sorted");
    }
  }
  return Status::OK();
}

bool JoinPathIndex::ScoreEdge(const ColumnProfile& a, const ColumnProfile& b,
                              JoinEdge* edge) const {
  if (a.ref.table_id == b.ref.table_id) return false;  // self-joins out of scope
  if (a.stats.num_distinct < options_.min_distinct ||
      b.stats.num_distinct < options_.min_distinct) {
    return false;
  }
  // Join keys must be type-compatible: strings join strings, numbers join
  // numbers (int/double interchangeable).
  bool a_str = a.stats.dominant_type == ValueType::kString;
  bool b_str = b.stats.dominant_type == ValueType::kString;
  if (a_str != b_str) return false;

  double c_ab = ProfileContainment(a, b);
  double c_ba = ProfileContainment(b, a);
  double containment = std::max(c_ab, c_ba);
  if (containment < options_.containment_threshold) return false;

  edge->left = a.ref;
  edge->right = b.ref;
  edge->containment = containment;
  edge->key_quality = std::max(a.stats.uniqueness(), b.stats.uniqueness());
  return true;
}

void JoinPathIndex::MaybeAddEdge(const ColumnProfile& a,
                                 const ColumnProfile& b) {
  JoinEdge edge;
  if (!ScoreEdge(a, b, &edge)) return;
  pair_edges_[TableKey(a.ref.table_id, b.ref.table_id)].push_back(edge);
  ++num_joinable_column_pairs_;
}

void JoinPathIndex::RebuildAdjacency() {
  adjacency_.clear();
  auto add = [this](int32_t a, int32_t b) {
    adjacency_[a].push_back(b);
    adjacency_[b].push_back(a);
  };
  // The flat key array is tiny relative to the edge arrays, so walking it
  // here faults in only the key pages under a paged load.
  for (size_t i = 0; i < flat_edges_.num_pairs(); ++i) {
    uint64_t k = flat_edges_.pair_keys[i];
    add(static_cast<int32_t>(k >> 32),
        static_cast<int32_t>(k & 0xffffffffULL));
  }
  for (const auto& [key, edges] : pair_edges_) {
    (void)edges;
    add(key.first, key.second);
  }
  for (auto& [table, neighbors] : adjacency_) {
    (void)table;
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }
}

void JoinPathIndex::Build(const std::vector<ColumnProfile>* profiles,
                          const SimilarityIndex& similarity,
                          const JoinPathOptions& options, ThreadPool* pool) {
  Build(profiles, similarity.AllCandidatePairs(), options, pool);
}

void JoinPathIndex::Build(const std::vector<ColumnProfile>* profiles,
                          const std::vector<std::pair<int, int>>& pairs,
                          const JoinPathOptions& options, ThreadPool* pool) {
  options_ = options;
  pair_edges_.clear();
  flat_edges_ = FlatEdges{};
  table_num_columns_.clear();
  adjacency_.clear();
  num_joinable_column_pairs_ = 0;

  const auto& ps = *profiles;
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (auto [i, j] : pairs) MaybeAddEdge(ps[i], ps[j]);
    RebuildAdjacency();
    return;
  }
  // Candidate scoring (the containment computations) dominates Build; shard
  // the sorted pair list into contiguous chunks scored on workers. Each
  // chunk emits edges in pair order, and chunks merge in chunk order, so
  // pair_edges_ content and per-key edge order match the serial pass.
  size_t num_chunks =
      std::max<size_t>(1, std::min(RecommendedChunks(pool), pairs.size()));
  std::vector<std::vector<JoinEdge>> local(num_chunks);
  ParallelFor(pool, pairs.size(), num_chunks,
              [&](size_t c, size_t lo, size_t hi) {
                for (size_t k = lo; k < hi; ++k) {
                  JoinEdge edge;
                  if (ScoreEdge(ps[pairs[k].first], ps[pairs[k].second],
                                &edge)) {
                    local[c].push_back(edge);
                  }
                }
              });
  for (const std::vector<JoinEdge>& chunk : local) {
    for (const JoinEdge& edge : chunk) {
      pair_edges_[TableKey(edge.left.table_id, edge.right.table_id)].push_back(
          edge);
      ++num_joinable_column_pairs_;
    }
  }
  RebuildAdjacency();
}

void JoinPathIndex::AddColumns(const std::vector<ColumnProfile>* profiles,
                               const SimilarityIndex& similarity,
                               size_t first_new) {
  const auto& ps = *profiles;
  for (size_t i = first_new; i < ps.size(); ++i) {
    for (int j : similarity.Candidates(static_cast<int>(i))) {
      // Pairs among the new columns appear from both endpoints; keep the
      // j < i orientation so each pair is evaluated exactly once.
      if (static_cast<size_t>(j) >= first_new &&
          static_cast<size_t>(j) >= i) {
        continue;
      }
      MaybeAddEdge(ps[i], ps[static_cast<size_t>(j)]);
    }
  }
  RebuildAdjacency();
}

void JoinPathIndex::AddColumnPairs(
    const std::vector<ColumnProfile>* profiles,
    const std::vector<std::pair<int, int>>& pairs) {
  const auto& ps = *profiles;
  for (auto [i, j] : pairs) {
    MaybeAddEdge(ps[static_cast<size_t>(i)], ps[static_cast<size_t>(j)]);
  }
  RebuildAdjacency();
}

void JoinPathIndex::SaveTo(SerdeWriter* w) const {
  // Options are NOT written here: they live once in the engine's options
  // section (the single source of truth) and are passed back to LoadFrom.
  w->WriteI64(num_joinable_column_pairs_);
  // Merge the two stores into one sorted flat layout. Table ids are
  // nonnegative, so the map's pair ordering agrees with the packed u64
  // key ordering and a single linear merge suffices. Flat edges (older
  // profiles) precede overlay edges within a shared pair.
  FlatEdges out;
  out.offsets.mut().push_back(0);
  auto append_flat = [this, &out](size_t i) {
    auto [b, e] = flat_edges_.edge_range(i);
    for (uint32_t o = b; o < e; ++o) {
      out.left.mut().push_back(flat_edges_.left[o]);
      out.right.mut().push_back(flat_edges_.right[o]);
      out.containment.mut().push_back(flat_edges_.containment[o]);
      out.key_quality.mut().push_back(flat_edges_.key_quality[o]);
    }
  };
  auto append_map = [&out](const std::vector<JoinEdge>& edges) {
    for (const JoinEdge& e : edges) {
      out.left.mut().push_back(e.left.Encode());
      out.right.mut().push_back(e.right.Encode());
      out.containment.mut().push_back(e.containment);
      out.key_quality.mut().push_back(e.key_quality);
    }
  };
  size_t fi = 0;
  auto mit = pair_edges_.begin();
  while (fi < flat_edges_.num_pairs() || mit != pair_edges_.end()) {
    uint64_t fkey = fi < flat_edges_.num_pairs() ? flat_edges_.pair_keys[fi]
                                                 : UINT64_MAX;
    uint64_t mkey = mit != pair_edges_.end() ? PairKey(mit->first) : UINT64_MAX;
    if (fkey < mkey) {
      out.pair_keys.mut().push_back(fkey);
      append_flat(fi++);
    } else if (mkey < fkey) {
      out.pair_keys.mut().push_back(mkey);
      append_map((mit++)->second);
    } else {  // both stores hold edges for this table pair
      out.pair_keys.mut().push_back(fkey);
      append_flat(fi++);
      append_map((mit++)->second);
    }
    VER_CHECK(out.left.size() <= UINT32_MAX);
    out.offsets.mut().push_back(static_cast<uint32_t>(out.left.size()));
  }
  out.SaveTo(w);
}

Status JoinPathIndex::LoadFrom(SerdeReader* r, const TableRepository& repo,
                               const JoinPathOptions& options,
                               const PagerBinding* binding) {
  int64_t num_pairs;
  VER_RETURN_IF_ERROR(r->ReadI64(&num_pairs));
  FlatEdges flat;
  VER_RETURN_IF_ERROR(flat.LoadFrom(r, binding));
  auto valid_ref = [&repo](const ColumnRef& ref) {
    return ref.table_id >= 0 && ref.table_id < repo.num_tables() &&
           ref.column_index >= 0 &&
           ref.column_index < repo.table(ref.table_id).num_columns();
  };
  // Edges feed the materializer, which dereferences both endpoints against
  // the repository. Resident loads reject out-of-range addresses up front;
  // paged loads skip this O(edges) scan (it would fault in every edge
  // page) and EdgesBetween drops bad records at query time instead.
  if (binding == nullptr || binding->pool == nullptr) {
    for (size_t o = 0; o < static_cast<size_t>(flat.left.size()); ++o) {
      ColumnRef l = DecodeRef(flat.left[o]), rr = DecodeRef(flat.right[o]);
      if (!valid_ref(l) || !valid_ref(rr)) {
        return Status::IOError(
            "corrupt join path index: edge addresses nonexistent column " +
            l.ToString() + " / " + rr.ToString());
      }
    }
  }
  options_ = options;
  num_joinable_column_pairs_ = num_pairs;
  flat_edges_ = std::move(flat);
  pair_edges_.clear();
  table_num_columns_.clear();
  table_num_columns_.reserve(static_cast<size_t>(repo.num_tables()));
  for (int32_t t = 0; t < repo.num_tables(); ++t) {
    table_num_columns_.push_back(repo.table(t).num_columns());
  }
  RebuildAdjacency();
  return Status::OK();
}

void JoinPathIndex::AppendFlatEdge(uint32_t o,
                                   std::vector<JoinEdge>* out) const {
  JoinEdge e;
  e.left = DecodeRef(flat_edges_.left[o]);
  e.right = DecodeRef(flat_edges_.right[o]);
  auto ok = [this](const ColumnRef& ref) {
    return ref.table_id >= 0 &&
           static_cast<size_t>(ref.table_id) < table_num_columns_.size() &&
           ref.column_index >= 0 &&
           ref.column_index < table_num_columns_[ref.table_id];
  };
  // Query-time guard replacing the skipped paged validation scan: a
  // corrupt record is dropped, never handed to the materializer.
  if (!ok(e.left) || !ok(e.right)) return;
  e.containment = flat_edges_.containment[o];
  e.key_quality = flat_edges_.key_quality[o];
  out->push_back(e);
}

std::vector<JoinEdge> JoinPathIndex::EdgesBetween(int32_t table_a,
                                                  int32_t table_b) const {
  std::vector<JoinEdge> out;
  std::pair<int32_t, int32_t> key = TableKey(table_a, table_b);
  if (!flat_edges_.pair_keys.empty()) {
    ptrdiff_t i = flat_edges_.find(PairKey(key));
    if (i >= 0) {
      auto [b, e] = flat_edges_.edge_range(static_cast<size_t>(i));
      for (uint32_t o = b; o < e; ++o) AppendFlatEdge(o, &out);
    }
  }
  auto it = pair_edges_.find(key);
  if (it != pair_edges_.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

std::vector<int32_t> JoinPathIndex::AdjacentTables(int32_t table) const {
  auto it = adjacency_.find(table);
  return it == adjacency_.end() ? std::vector<int32_t>{} : it->second;
}

void JoinPathIndex::ExtendPaths(
    int32_t to, int hops_left, std::vector<int32_t>* current,
    std::vector<std::vector<int32_t>>* paths) const {
  auto it = adjacency_.find(current->back());
  if (it == adjacency_.end()) return;
  const std::vector<int32_t>& neighbors = it->second;
  if (hops_left == 1) {
    // Last hop: only `to` itself completes a path. It is never on the
    // path yet (reaching it ends the walk), and adjacency lists are sorted.
    if (std::binary_search(neighbors.begin(), neighbors.end(), to)) {
      current->push_back(to);
      paths->push_back(*current);
      current->pop_back();
    }
    return;
  }
  for (int32_t next : neighbors) {
    if (std::find(current->begin(), current->end(), next) != current->end()) {
      continue;  // simple paths only
    }
    current->push_back(next);
    if (next == to) {
      paths->push_back(*current);
    } else {
      ExtendPaths(to, hops_left - 1, current, paths);
    }
    current->pop_back();
  }
}

std::vector<std::vector<int32_t>> JoinPathIndex::TablePaths(
    int32_t from, int32_t to, int max_hops) const {
  std::vector<std::vector<int32_t>> paths;
  std::vector<int32_t> current{from};
  if (from == to) {
    paths.push_back(current);
  } else if (max_hops > 0) {
    // Depth-first enumeration of simple paths with at most max_hops edges;
    // `current` holds at most max_hops + 1 tables.
    current.reserve(static_cast<size_t>(max_hops) + 1);
    ExtendPaths(to, max_hops, &current, &paths);
  }
  return paths;
}

void JoinPathIndex::ExpandPath(const std::vector<int32_t>& path,
                               std::vector<JoinGraph>* out) const {
  if (path.size() < 2) return;
  // Cartesian product of column-pair choices along the path, capped.
  std::vector<JoinGraph> partial{JoinGraph{}};
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const std::vector<JoinEdge> choices = EdgesBetween(path[i], path[i + 1]);
    if (choices.empty()) return;  // path not realizable
    std::vector<JoinGraph> next;
    for (const JoinGraph& g : partial) {
      for (const JoinEdge& e : choices) {
        if (static_cast<int>(next.size()) >= options_.max_graphs_per_path) {
          break;
        }
        JoinGraph g2 = g;
        g2.edges.push_back(e);
        next.push_back(std::move(g2));
      }
    }
    partial = std::move(next);
  }
  for (JoinGraph& g : partial) out->push_back(std::move(g));
}

std::vector<JoinGraph> JoinPathIndex::GenerateJoinGraphs(
    const std::vector<int32_t>& tables, int max_hops) const {
  std::vector<int32_t> unique_tables = tables;
  std::sort(unique_tables.begin(), unique_tables.end());
  unique_tables.erase(
      std::unique(unique_tables.begin(), unique_tables.end()),
      unique_tables.end());

  std::vector<JoinGraph> graphs;
  if (unique_tables.empty()) return graphs;
  if (unique_tables.size() == 1) {
    JoinGraph g;
    NormalizeJoinGraph(&g, unique_tables);
    graphs.push_back(std::move(g));
    return graphs;
  }

  // Pairwise paths composed along a spanning chain t0-t1, t1-t2, ...
  // For tau = 2 (the common QBE case) this is exact path enumeration; for
  // tau > 2 it is a spanning-tree approximation of Steiner enumeration.
  std::vector<JoinGraph> partial{JoinGraph{}};
  for (size_t i = 0; i + 1 < unique_tables.size(); ++i) {
    std::vector<std::vector<int32_t>> paths =
        TablePaths(unique_tables[i], unique_tables[i + 1], max_hops);
    if (paths.empty()) return {};  // pair not connectable within rho
    std::vector<JoinGraph> segment_graphs;
    for (const auto& path : paths) {
      ExpandPath(path, &segment_graphs);
      if (static_cast<int>(segment_graphs.size()) >=
          options_.max_total_graphs) {
        break;
      }
    }
    std::vector<JoinGraph> next;
    for (const JoinGraph& g : partial) {
      for (const JoinGraph& seg : segment_graphs) {
        if (static_cast<int>(next.size()) >= options_.max_total_graphs) break;
        JoinGraph g2 = g;
        g2.edges.insert(g2.edges.end(), seg.edges.begin(), seg.edges.end());
        next.push_back(std::move(g2));
      }
    }
    partial = std::move(next);
  }

  // Normalize, dedupe by signature, sort by score. Each kept graph's
  // signature is computed once and reused as its sort key.
  std::unordered_set<std::string> seen;
  std::vector<std::string> signatures;
  for (JoinGraph& g : partial) {
    // Drop duplicate edges introduced by composing overlapping segments.
    std::sort(g.edges.begin(), g.edges.end(),
              [](const JoinEdge& a, const JoinEdge& b) {
                return a.CanonicalEncoding() < b.CanonicalEncoding();
              });
    g.edges.erase(std::unique(g.edges.begin(), g.edges.end(),
                              [](const JoinEdge& a, const JoinEdge& b) {
                                return a.CanonicalEncoding() ==
                                       b.CanonicalEncoding();
                              }),
                  g.edges.end());
    NormalizeJoinGraph(&g, unique_tables);
    std::string sig = g.Signature();
    if (seen.insert(sig).second) {
      graphs.push_back(std::move(g));
      signatures.push_back(std::move(sig));
    }
  }
  std::vector<size_t> order(graphs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (graphs[a].score != graphs[b].score) {
      return graphs[a].score > graphs[b].score;
    }
    return signatures[a] < signatures[b];
  });
  std::vector<JoinGraph> ranked;
  ranked.reserve(order.size());
  for (size_t i : order) ranked.push_back(std::move(graphs[i]));
  return ranked;
}

}  // namespace ver
