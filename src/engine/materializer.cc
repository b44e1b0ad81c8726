#include "engine/materializer.h"

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "table/csv.h"

namespace ver {

namespace {

// Intermediate join state, struct-of-arrays: for every table bound so far,
// one column holding the row each output tuple takes from that table
// (rows[t][i] = row of tables[t] in tuple i). Every column has the same
// length, the tuple count.
struct Bindings {
  std::vector<int32_t> tables;             // bound tables, in bind order
  std::vector<std::vector<int64_t>> rows;  // one row-index column per table

  size_t num_tuples() const { return rows.empty() ? 0 : rows[0].size(); }

  int IndexOfTable(int32_t table) const {
    for (size_t i = 0; i < tables.size(); ++i) {
      if (tables[i] == table) return static_cast<int>(i);
    }
    return -1;
  }

  // Keeps only tuples keep[0..) (ascending), compacting each column in
  // place.
  void Keep(const std::vector<size_t>& keep) {
    for (std::vector<int64_t>& col : rows) {
      for (size_t j = 0; j < keep.size(); ++j) col[j] = col[keep[j]];
      col.resize(keep.size());
    }
  }

  // Replaces the tuples with gathered ones: new tuple j copies tuple
  // from[j] and binds `table` to new_rows[j].
  void Extend(const std::vector<size_t>& from, int32_t table,
              std::vector<int64_t> new_rows) {
    std::vector<int64_t> gathered(from.size());
    for (std::vector<int64_t>& col : rows) {
      for (size_t j = 0; j < from.size(); ++j) gathered[j] = col[from[j]];
      col.swap(gathered);
      gathered.resize(from.size());
    }
    tables.push_back(table);
    rows.push_back(std::move(new_rows));
  }
};

}  // namespace

const FlatU64MultiMap& Materializer::BuildSide(const ColumnRef& key) {
  auto [it, inserted] = build_cache_.try_emplace(key.Encode());
  if (inserted) {
    // Bulk-hash the key column through the blocked kernel (dictionary
    // columns answer from cached entry hashes, never touching string
    // bytes), then load the flat multimap. Null keys are masked out via
    // the validity bitmap — null keys never join — and each group keeps
    // its rows in ascending row order.
    const Table& table = repo_->table(key.table_id);
    const ColumnData& data = table.column_data(key.column_index);
    std::vector<uint64_t> keys(static_cast<size_t>(table.num_rows()));
    data.CellHashesInto(keys.data(), table.num_rows());
    it->second.Build(keys.data(), data.validity_words(), table.num_rows());
  }
  return it->second;
}

Result<Table> Materializer::Materialize(
    const JoinGraph& graph, const std::vector<ColumnRef>& projection,
    const MaterializeOptions& options, std::string view_name) {
  if (projection.empty()) {
    return Status::InvalidArgument("projection must not be empty");
  }

  // Anti-thrash residency accounting for paged repositories: pin each
  // touched table's mapped extents once for the duration of this
  // materialization so concurrent queries' faults do not evict pages a
  // join is mid-scan over. Correctness never depends on the pin (an
  // evicted frame transparently refaults); released on every return path.
  PagePin pin;
  if (repo_->pager() != nullptr) {
    std::vector<int32_t> touched = graph.tables;
    for (const JoinEdge& e : graph.edges) {
      touched.push_back(e.left.table_id);
      touched.push_back(e.right.table_id);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    pin = PagePin(repo_->pager()->pool().get());
    for (int32_t t : touched) repo_->table(t).PinInto(&pin);
  }

  // Single-table graph: plain projection.
  if (graph.edges.empty()) {
    if (graph.tables.size() != 1) {
      return Status::InvalidArgument(
          "edgeless join graph must cover exactly one table");
    }
    int32_t t = graph.tables[0];
    std::vector<int> cols;
    for (const ColumnRef& p : projection) {
      if (p.table_id != t) {
        return Status::InvalidArgument(
            "projection column " + p.ToString() +
            " outside single-table graph over table " + std::to_string(t));
      }
      cols.push_back(p.column_index);
    }
    return repo_->table(t).Project(cols, options.distinct,
                                   std::move(view_name));
  }

  // Seed bindings with the first edge's left table, then BFS join edges
  // whose endpoint tables become reachable.
  Bindings state;
  int32_t seed = graph.edges.front().left.table_id;
  state.tables.push_back(seed);
  state.rows.emplace_back(static_cast<size_t>(repo_->table(seed).num_rows()));
  std::iota(state.rows[0].begin(), state.rows[0].end(), int64_t{0});

  std::vector<bool> edge_done(graph.edges.size(), false);
  size_t remaining = graph.edges.size();
  std::vector<size_t> picked;  // tuple indices surviving / extended
  while (remaining > 0) {
    // Pick an edge with at least one bound endpoint.
    int chosen = -1;
    for (size_t i = 0; i < graph.edges.size(); ++i) {
      if (edge_done[i]) continue;
      if (state.IndexOfTable(graph.edges[i].left.table_id) >= 0 ||
          state.IndexOfTable(graph.edges[i].right.table_id) >= 0) {
        chosen = static_cast<int>(i);
        break;
      }
    }
    if (chosen < 0) {
      return Status::InvalidArgument(
          "join graph is disconnected; cannot materialize");
    }
    const JoinEdge& edge = graph.edges[chosen];
    edge_done[chosen] = true;
    --remaining;

    int left_idx = state.IndexOfTable(edge.left.table_id);
    int right_idx = state.IndexOfTable(edge.right.table_id);
    const size_t num_tuples = state.num_tuples();
    picked.clear();

    if (left_idx >= 0 && right_idx >= 0) {
      // Both sides bound: keep tuples whose key values agree.
      const ColumnData& lc =
          repo_->table(edge.left.table_id).column_data(edge.left.column_index);
      const ColumnData& rc = repo_->table(edge.right.table_id)
                                 .column_data(edge.right.column_index);
      const std::vector<int64_t>& lrows = state.rows[left_idx];
      const std::vector<int64_t>& rrows = state.rows[right_idx];
      for (size_t i = 0; i < num_tuples; ++i) {
        CellView lv = lc.cell(lrows[i]);
        if (!lv.is_null() && lv == rc.cell(rrows[i])) picked.push_back(i);
      }
      state.Keep(picked);
      continue;
    }

    // One side bound: hash join to extend bindings with the new table.
    const ColumnRef& bound_col = left_idx >= 0 ? edge.left : edge.right;
    const ColumnRef& new_col = left_idx >= 0 ? edge.right : edge.left;
    const std::vector<int64_t>& bound_rows =
        state.rows[left_idx >= 0 ? left_idx : right_idx];

    const ColumnData& new_data = repo_->table(new_col.table_id)
                                     .column_data(new_col.column_index);
    const FlatU64MultiMap& build = BuildSide(new_col);
    const ColumnData& bound_data =
        repo_->table(bound_col.table_id).column_data(bound_col.column_index);
    // Matches as (tuple, build row) pairs, tuples in order and each
    // group's rows ascending; the bound columns are gathered afterwards.
    // Sized for the common one-match-per-tuple key join.
    std::vector<int64_t> new_rows;
    new_rows.reserve(num_tuples);
    picked.reserve(num_tuples);
    // Probe in batches of 8: hash the batch's keys and prefetch their home
    // buckets first, so the dependent slot loads of the probe loop hit
    // cache instead of stalling one miss at a time.
    constexpr size_t kProbeBatch = 8;
    uint64_t probe_keys[kProbeBatch];
    bool probe_valid[kProbeBatch];
    for (size_t batch = 0; batch < num_tuples; batch += kProbeBatch) {
      const size_t batch_len = std::min(kProbeBatch, num_tuples - batch);
      for (size_t i = 0; i < batch_len; ++i) {
        int64_t bound_row = bound_rows[batch + i];
        probe_valid[i] = !bound_data.is_null(bound_row);
        if (!probe_valid[i]) continue;
        probe_keys[i] = bound_data.CellHash(bound_row);
        build.PrefetchBucket(probe_keys[i]);
      }
      for (size_t i = 0; i < batch_len; ++i) {
        if (!probe_valid[i]) continue;
        FlatU64MultiMap::Group group = build.Find(probe_keys[i]);
        if (group.size == 0) continue;
        CellView v = bound_data.cell(bound_rows[batch + i]);
        for (size_t k = 0; k < group.size; ++k) {
          int64_t r = group.begin[k];
          // Hash equality is not value equality; verify to be exact.
          if (!(new_data.cell(r) == v)) continue;
          picked.push_back(batch + i);
          new_rows.push_back(r);
          if (static_cast<int64_t>(new_rows.size()) >
              options.max_intermediate_rows) {
            return Status::OutOfRange(
                "intermediate join result exceeded max_intermediate_rows (" +
                std::to_string(options.max_intermediate_rows) + ")");
          }
        }
      }
    }
    state.Extend(picked, new_col.table_id, std::move(new_rows));
  }

  // Project with optional distinct. Resolve each projected column to its
  // binding column and typed storage once.
  Schema schema;
  std::vector<int> slots;
  std::vector<const ColumnData*> cols;
  slots.reserve(projection.size());
  cols.reserve(projection.size());
  for (const ColumnRef& p : projection) {
    int idx = state.IndexOfTable(p.table_id);
    if (idx < 0) {
      return Status::InvalidArgument("projection column " + p.ToString() +
                                     " not covered by join graph");
    }
    schema.AddAttribute(repo_->attribute(p));
    slots.push_back(idx);
    cols.push_back(&repo_->table(p.table_id).column_data(p.column_index));
  }
  const size_t num_tuples = state.num_tuples();
  if (options.distinct && num_tuples > 0) {
    // Tuple hashes are computed column-major: each projected binding
    // column feeds the gathered combine kernel directly (same seed and
    // per-tuple HashCombine chain as Table::Project). Distinct then
    // confirms hash matches cell-by-cell through the shared RowDeduper,
    // and only the kept tuples are gathered into the view.
    const int64_t n = static_cast<int64_t>(num_tuples);
    std::vector<uint64_t> tuple_hashes(num_tuples, 0x726f7768617368ULL);
    for (size_t p = 0; p < projection.size(); ++p) {
      cols[p]->CombineCellHashesInto(tuple_hashes.data(),
                                     state.rows[slots[p]].data(), n);
    }
    RowDeduper deduper;
    deduper.Reserve(n);
    auto tuple_cell = [&](int64_t tuple, int p) {
      return cols[p]->cell(state.rows[slots[p]][tuple]);
    };
    picked.clear();
    for (size_t t = 0; t < num_tuples; ++t) {
      if (deduper.Insert(tuple_hashes[t], static_cast<int64_t>(t),
                         static_cast<int>(projection.size()), tuple_cell)) {
        picked.push_back(t);
      }
    }
    if (picked.size() < num_tuples) state.Keep(picked);
  }
  std::vector<const int64_t*> gather_rows;
  gather_rows.reserve(projection.size());
  for (int slot : slots) gather_rows.push_back(state.rows[slot].data());
  Table out(std::move(view_name), std::move(schema));
  out.AppendGathered(cols, gather_rows,
                     static_cast<int64_t>(state.num_tuples()));
  out.DropInternMaps();
  return out;
}

Result<View> Materializer::MaterializeView(
    const JoinGraph& graph, const std::vector<ColumnRef>& projection,
    const MaterializeOptions& options, int64_t view_id) {
  std::string name = "view_" + std::to_string(view_id);
  VER_ASSIGN_OR_RETURN(Table table,
                       Materialize(graph, projection, options, name));
  View view;
  view.id = view_id;
  view.table = std::move(table);
  view.graph = graph;
  view.projection = projection;
  view.score = graph.score;
  if (!options.spill_dir.empty()) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(options.spill_dir, ec);
    view.spill_path =
        (fs::path(options.spill_dir) / (name + ".csv")).string();
    VER_RETURN_IF_ERROR(WriteCsvFile(view.table, view.spill_path));
  }
  return view;
}

}  // namespace ver
