#include "answer_check.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <random>
#include <unordered_set>

namespace perfbench {

namespace {

/// A set of rows, each row its cells' text joined by a unit separator.
using RowSet = std::unordered_set<std::string>;

constexpr char kCellSeparator = '\x1f';
constexpr const char* kNullText = "\x1e";

std::string CellText(const ver::CellView& cell) {
  return cell.is_null() ? std::string(kNullText) : cell.ToText();
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::vector<std::string> AttributeNames(const ver::Table& t) {
  std::vector<std::string> names;
  for (int c = 0; c < t.num_columns(); ++c) {
    names.push_back(t.schema().attribute(c).name);
  }
  return names;
}

std::string BlockOf(const std::vector<std::string>& names) {
  std::vector<std::string> lower;
  for (const std::string& n : names) lower.push_back(Lower(n));
  std::sort(lower.begin(), lower.end());
  std::string out;
  for (const std::string& n : lower) out += n + kCellSeparator;
  return out;
}

bool IsSubset(const RowSet& a, const RowSet& b) {
  if (a.size() > b.size()) return false;
  for (const std::string& row : a) {
    if (!b.count(row)) return false;
  }
  return true;
}

uint64_t Fnv(const std::string& s, uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

ver::Result<ver::ColumnRef> Resolve(const ver::TableRepository& repo,
                                    const std::string& table,
                                    const std::string& attribute) {
  VER_ASSIGN_OR_RETURN(int32_t tid, repo.FindTable(table));
  const ver::Table& t = repo.table(tid);
  for (int c = 0; c < t.num_columns(); ++c) {
    if (t.schema().attribute(c).name == attribute) return ver::ColumnRef{tid, c};
  }
  return ver::Status::NotFound("no attribute " + attribute + " in " + table);
}

// Rows of the project-join view over `edges` (equality of non-null cell
// text), projected onto `projection` in that column order. Every table of
// the view must be reachable through `edges`; with no edges, all projected
// columns must come from one table.
ver::Result<RowSet> NestedLoopJoin(const ver::TableRepository& repo,
                                   const std::vector<ver::JoinEdge>& edges,
                                   const std::vector<ver::ColumnRef>& projection) {
  if (projection.empty()) return ver::Status::InvalidArgument("empty projection");
  // Tables in the order the edges reach them from the first edge's left
  // table; each new table is scanned in full against every bound tuple.
  std::vector<int32_t> order;
  auto bound = [&order](int32_t t) {
    return std::find(order.begin(), order.end(), t) != order.end();
  };
  if (edges.empty()) {
    order.push_back(projection[0].table_id);
  } else {
    order.push_back(edges[0].left.table_id);
    for (bool grew = true; grew;) {
      grew = false;
      for (const ver::JoinEdge& e : edges) {
        if (bound(e.left.table_id) != bound(e.right.table_id)) {
          order.push_back(bound(e.left.table_id) ? e.right.table_id
                                                 : e.left.table_id);
          grew = true;
        }
      }
    }
  }
  for (const ver::JoinEdge& e : edges) {
    if (!bound(e.left.table_id) || !bound(e.right.table_id)) {
      return ver::Status::InvalidArgument("join graph is not connected");
    }
  }
  for (const ver::ColumnRef& p : projection) {
    if (!bound(p.table_id)) {
      return ver::Status::InvalidArgument("projection outside the join graph");
    }
  }
  auto slot_of = [&order](int32_t t) {
    return static_cast<size_t>(std::find(order.begin(), order.end(), t) -
                               order.begin());
  };

  // Cell text per (table, column) used by a predicate or the projection.
  std::map<std::pair<int32_t, int32_t>, std::vector<std::string>> text;
  auto column_text = [&](const ver::ColumnRef& ref) -> const std::vector<std::string>& {
    auto key = std::make_pair(ref.table_id, ref.column_index);
    auto it = text.find(key);
    if (it != text.end()) return it->second;
    const ver::Table& t = repo.table(ref.table_id);
    std::vector<std::string> cells;
    cells.reserve(static_cast<size_t>(t.num_rows()));
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      cells.push_back(CellText(t.cell(r, ref.column_index)));
    }
    return text.emplace(key, std::move(cells)).first->second;
  };

  std::vector<std::vector<int64_t>> tuples;
  for (int64_t r = 0; r < repo.table(order[0]).num_rows(); ++r) {
    tuples.push_back({r});
  }
  for (size_t depth = 1; depth < order.size(); ++depth) {
    const int32_t table = order[depth];
    // Predicates between the new table and the tables bound before it.
    struct Predicate {
      size_t bound_slot;
      const std::vector<std::string>* bound_text;
      const std::vector<std::string>* new_text;
    };
    std::vector<Predicate> predicates;
    for (const ver::JoinEdge& e : edges) {
      const ver::ColumnRef* fresh = nullptr;
      const ver::ColumnRef* old = nullptr;
      if (e.left.table_id == table && slot_of(e.right.table_id) < depth) {
        fresh = &e.left;
        old = &e.right;
      } else if (e.right.table_id == table && slot_of(e.left.table_id) < depth) {
        fresh = &e.right;
        old = &e.left;
      }
      if (fresh == nullptr) continue;
      predicates.push_back(Predicate{slot_of(old->table_id), &column_text(*old),
                                     &column_text(*fresh)});
    }
    std::vector<std::vector<int64_t>> next;
    const int64_t rows = repo.table(table).num_rows();
    for (const std::vector<int64_t>& tuple : tuples) {
      for (int64_t r = 0; r < rows; ++r) {
        bool match = true;
        for (const Predicate& p : predicates) {
          const std::string& a = (*p.bound_text)[static_cast<size_t>(tuple[p.bound_slot])];
          const std::string& b = (*p.new_text)[static_cast<size_t>(r)];
          if (a == kNullText || b == kNullText || a != b) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        std::vector<int64_t> extended = tuple;
        extended.push_back(r);
        next.push_back(std::move(extended));
      }
    }
    tuples = std::move(next);
  }

  RowSet out;
  for (const std::vector<int64_t>& tuple : tuples) {
    std::string row;
    for (const ver::ColumnRef& p : projection) {
      row += column_text(p)[static_cast<size_t>(tuple[slot_of(p.table_id)])];
      row += kCellSeparator;
    }
    out.insert(std::move(row));
  }
  return out;
}

// Rows of `table` with its columns taken in `order`.
RowSet TableRows(const ver::Table& table, const std::vector<int>& order) {
  RowSet out;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    std::string row;
    for (int c : order) {
      row += CellText(table.cell(r, c));
      row += kCellSeparator;
    }
    out.insert(std::move(row));
  }
  return out;
}

// Column order by lower-cased attribute name, ties by position: the order
// in which two views of one schema block are compared.
std::vector<int> CanonicalOrder(const std::vector<std::string>& names) {
  std::vector<int> order(names.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&names](int a, int b) {
    return Lower(names[a]) < Lower(names[b]);
  });
  return order;
}

}  // namespace

std::vector<std::string> CheckAnswer(const ver::TableRepository& repo,
                                     const ver::GroundTruthQuery& gt,
                                     const ver::QueryResult& result,
                                     uint64_t sample_seed, int sampled_views) {
  std::vector<std::string> failures;
  const std::vector<int>& surviving = result.distillation.surviving;
  for (int s : surviving) {
    if (s < 0 || static_cast<size_t>(s) >= result.views.size()) {
      failures.push_back("surviving index " + std::to_string(s) +
                         " outside the materialized views");
      return failures;
    }
  }

  // Canonical row sets of the surviving views, computed once.
  std::vector<std::string> blocks;
  std::vector<RowSet> canonical;
  for (int s : surviving) {
    const ver::Table& t = result.views[static_cast<size_t>(s)].table;
    std::vector<std::string> names = AttributeNames(t);
    blocks.push_back(BlockOf(names));
    canonical.push_back(TableRows(t, CanonicalOrder(names)));
  }

  // 1. The ground-truth view, joined naively, is covered by a survivor.
  {
    std::vector<ver::ColumnRef> projection;
    std::vector<ver::JoinEdge> edges;
    std::string error;
    for (size_t i = 0; i < gt.gt_tables.size() && error.empty(); ++i) {
      auto ref = Resolve(repo, gt.gt_tables[i], gt.gt_attributes[i]);
      if (ref.ok()) projection.push_back(ref.value()); else error = ref.status().ToString();
    }
    for (const ver::GtJoin& j : gt.joins) {
      if (!error.empty()) break;
      auto l = Resolve(repo, j.left_table, j.left_attribute);
      auto r = Resolve(repo, j.right_table, j.right_attribute);
      if (!l.ok() || !r.ok()) {
        error = "unresolvable ground-truth join";
        break;
      }
      edges.push_back(ver::JoinEdge{l.value(), r.value(), 1.0, 1.0});
    }
    ver::Result<RowSet> gt_rows = error.empty()
        ? NestedLoopJoin(repo, edges, projection)
        : ver::Result<RowSet>(ver::Status::InvalidArgument(error));
    if (!gt_rows.ok()) {
      failures.push_back(gt.name + ": ground truth not joinable: " +
                         gt_rows.status().ToString());
    } else {
      std::vector<std::string> names;
      for (const ver::ColumnRef& p : projection) {
        names.push_back(repo.attribute(p).name);
      }
      // Reorder the naive rows (projection order) into canonical order.
      std::vector<int> order = CanonicalOrder(names);
      RowSet gt_canonical;
      for (const std::string& row : gt_rows.value()) {
        std::vector<std::string> cells;
        size_t start = 0;
        for (size_t i = 0; i < row.size(); ++i) {
          if (row[i] == kCellSeparator) {
            cells.push_back(row.substr(start, i - start));
            start = i + 1;
          }
        }
        std::string reordered;
        for (int c : order) reordered += cells[static_cast<size_t>(c)] + kCellSeparator;
        gt_canonical.insert(std::move(reordered));
      }
      const std::string gt_block = BlockOf(names);
      bool hit = false;
      for (size_t i = 0; i < surviving.size() && !hit; ++i) {
        hit = blocks[i] == gt_block && IsSubset(gt_canonical, canonical[i]);
      }
      if (!hit) {
        failures.push_back(gt.name + ": no surviving view covers the " +
                           std::to_string(gt_canonical.size()) +
                           " ground-truth rows");
      }
    }
  }

  // 2. Seeded sample of materialized views (plus the top-ranked view)
  //    equals its nested-loop recomputation.
  {
    std::vector<size_t> picks;
    if (!result.views.empty()) {
      std::mt19937_64 rng(sample_seed);
      for (int k = 0; k < sampled_views; ++k) {
        picks.push_back(static_cast<size_t>(rng() % result.views.size()));
      }
    }
    if (!result.automatic_ranking.empty()) {
      picks.push_back(static_cast<size_t>(result.automatic_ranking[0].view_index));
    }
    std::sort(picks.begin(), picks.end());
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
    for (size_t v : picks) {
      if (v >= result.views.size()) continue;  // reported by check 4
      const ver::View& view = result.views[v];
      ver::Result<RowSet> naive = NestedLoopJoin(repo, view.graph.edges, view.projection);
      std::vector<int> identity(static_cast<size_t>(view.table.num_columns()));
      for (size_t c = 0; c < identity.size(); ++c) identity[c] = static_cast<int>(c);
      if (!naive.ok()) {
        failures.push_back("view " + std::to_string(v) + " not recomputable: " +
                           naive.status().ToString());
      } else if (naive.value() != TableRows(view.table, identity)) {
        failures.push_back("view " + std::to_string(v) + " has " +
                           std::to_string(view.table.num_rows()) +
                           " rows; the nested-loop join gives " +
                           std::to_string(naive.value().size()));
      }
    }
  }

  // 3. No surviving view equals or is contained in another of its block.
  for (size_t i = 0; i < surviving.size(); ++i) {
    for (size_t j = i + 1; j < surviving.size(); ++j) {
      if (blocks[i] != blocks[j]) continue;
      if (IsSubset(canonical[i], canonical[j]) || IsSubset(canonical[j], canonical[i])) {
        failures.push_back("surviving views " + std::to_string(surviving[i]) +
                           " and " + std::to_string(surviving[j]) +
                           " are compatible or contained");
      }
    }
  }

  // 4. The ranking covers exactly the survivors, scores never increasing.
  {
    std::vector<int> ranked;
    for (const ver::OverlapRankedView& r : result.automatic_ranking) {
      ranked.push_back(r.view_index);
    }
    std::vector<int> expected = surviving;
    std::sort(ranked.begin(), ranked.end());
    std::sort(expected.begin(), expected.end());
    if (ranked != expected) {
      failures.push_back("ranking lists " + std::to_string(ranked.size()) +
                         " views for " + std::to_string(expected.size()) +
                         " survivors");
    }
    for (size_t i = 1; i < result.automatic_ranking.size(); ++i) {
      if (result.automatic_ranking[i].score > result.automatic_ranking[i - 1].score) {
        failures.push_back("ranking score rises at position " + std::to_string(i));
        break;
      }
    }
  }
  return failures;
}

uint64_t RankingFingerprint(const ver::QueryResult& result) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const ver::OverlapRankedView& r : result.automatic_ranking) {
    h = Fnv(std::to_string(r.view_index) + ":" + std::to_string(r.overlap), h);
    uint64_t score_bits = 0;
    std::memcpy(&score_bits, &r.score, sizeof(score_bits));
    h = Fnv(std::to_string(score_bits), h);
    if (r.view_index < 0 || static_cast<size_t>(r.view_index) >= result.views.size()) {
      continue;
    }
    const ver::Table& t = result.views[static_cast<size_t>(r.view_index)].table;
    std::vector<int> identity(static_cast<size_t>(t.num_columns()));
    for (size_t c = 0; c < identity.size(); ++c) identity[c] = static_cast<int>(c);
    uint64_t rows = 0;  // order-independent sum over the row set
    for (const std::string& row : TableRows(t, identity)) rows += Fnv(row);
    h = Fnv(std::to_string(rows), h);
  }
  return h;
}

}  // namespace perfbench
