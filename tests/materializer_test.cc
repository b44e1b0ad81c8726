// Materializer tests: hash-join chains validated against a brute-force
// nested-loop reference, plus projection, distinct, spill and guard rails.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "core/join_graph_search.h"
#include "engine/materializer.h"
#include "table/csv.h"
#include "util/rng.h"
#include "util/check.h"

namespace ver {
namespace {

Schema MakeSchema(std::vector<std::string> names) {
  Schema s;
  for (std::string& n : names) {
    s.AddAttribute(Attribute{std::move(n), ValueType::kString});
  }
  return s;
}

// Reference implementation: nested-loop join of two tables on one column
// pair followed by distinct projection; returns sorted row texts.
std::multiset<std::string> ReferenceJoin(const Table& left, int lcol,
                                         const Table& right, int rcol,
                                         const std::vector<int>& lproj,
                                         const std::vector<int>& rproj) {
  std::set<std::string> rows;
  for (int64_t i = 0; i < left.num_rows(); ++i) {
    for (int64_t j = 0; j < right.num_rows(); ++j) {
      CellView lv = left.cell(i, lcol);
      if (lv.is_null() || !(lv == right.cell(j, rcol))) continue;
      std::string row;
      for (int c : lproj) row += left.cell(i, c).ToText() + "|";
      for (int c : rproj) row += right.cell(j, c).ToText() + "|";
      rows.insert(row);
    }
  }
  return {rows.begin(), rows.end()};
}

std::multiset<std::string> ViewRows(const Table& t) {
  std::multiset<std::string> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string row;
    for (int c = 0; c < t.num_columns(); ++c) {
      row += t.cell(r, c).ToText() + "|";
    }
    rows.insert(row);
  }
  return rows;
}

TEST(MaterializerTest, SingleTableProjection) {
  TableRepository repo;
  Table t("t", MakeSchema({"a", "b"}));
  VER_CHECK_OK(t.AppendRow({Value::String("x"), Value::String("1")}));
  VER_CHECK_OK(t.AppendRow({Value::String("x"), Value::String("1")}));
  VER_CHECK_OK(t.AppendRow({Value::String("y"), Value::String("2")}));
  ASSERT_TRUE(repo.AddTable(std::move(t)).ok());

  JoinGraph graph;
  graph.tables = {0};
  Materializer m(&repo);
  Result<Table> view = m.Materialize(graph, {ColumnRef{0, 0}},
                                     MaterializeOptions(), "v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_rows(), 2);  // distinct by default
}

TEST(MaterializerTest, TwoTableHashJoinMatchesReference) {
  TableRepository repo;
  Table left("left", MakeSchema({"k", "lval"}));
  VER_CHECK_OK(left.AppendRow({Value::String("a"), Value::String("l1")}));
  VER_CHECK_OK(left.AppendRow({Value::String("b"), Value::String("l2")}));
  VER_CHECK_OK(left.AppendRow({Value::String("c"), Value::String("l3")}));
  VER_CHECK_OK(left.AppendRow({Value::String("a"), Value::String("l4")}));
  Table right("right", MakeSchema({"k", "rval"}));
  VER_CHECK_OK(right.AppendRow({Value::String("a"), Value::String("r1")}));
  VER_CHECK_OK(right.AppendRow({Value::String("b"), Value::String("r2")}));
  VER_CHECK_OK(right.AppendRow({Value::String("b"), Value::String("r3")}));
  VER_CHECK_OK(right.AppendRow({Value::String("z"), Value::String("r4")}));
  const Table lcopy = left;
  const Table rcopy = right;
  ASSERT_TRUE(repo.AddTable(std::move(left)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(right)).ok());

  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  Materializer m(&repo);
  Result<Table> view = m.Materialize(
      graph, {ColumnRef{0, 1}, ColumnRef{1, 1}}, MaterializeOptions(), "v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ViewRows(view.value()),
            ReferenceJoin(lcopy, 0, rcopy, 0, {1}, {1}));
}

TEST(MaterializerTest, NullKeysNeverJoin) {
  TableRepository repo;
  Table left("left", MakeSchema({"k"}));
  VER_CHECK_OK(left.AppendRow({Value::Null()}));
  VER_CHECK_OK(left.AppendRow({Value::String("a")}));
  Table right("right", MakeSchema({"k"}));
  VER_CHECK_OK(right.AppendRow({Value::Null()}));
  VER_CHECK_OK(right.AppendRow({Value::String("a")}));
  ASSERT_TRUE(repo.AddTable(std::move(left)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(right)).ok());

  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  Materializer m(&repo);
  Result<Table> view = m.Materialize(
      graph, {ColumnRef{0, 0}, ColumnRef{1, 0}}, MaterializeOptions(), "v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_rows(), 1);  // only "a" = "a"
}

TEST(MaterializerTest, ChainJoinThreeTables) {
  TableRepository repo;
  Table a("a", MakeSchema({"k", "va"}));
  Table b("b", MakeSchema({"k", "k2"}));
  Table c("c", MakeSchema({"k2", "vc"}));
  VER_CHECK_OK(a.AppendRow({Value::String("x"), Value::String("a1")}));
  VER_CHECK_OK(a.AppendRow({Value::String("y"), Value::String("a2")}));
  VER_CHECK_OK(b.AppendRow({Value::String("x"), Value::String("m1")}));
  VER_CHECK_OK(b.AppendRow({Value::String("y"), Value::String("m2")}));
  VER_CHECK_OK(c.AppendRow({Value::String("m1"), Value::String("c1")}));
  VER_CHECK_OK(c.AppendRow({Value::String("m2"), Value::String("c2")}));
  ASSERT_TRUE(repo.AddTable(std::move(a)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(b)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(c)).ok());

  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  graph.edges.push_back(JoinEdge{ColumnRef{1, 1}, ColumnRef{2, 0}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  Materializer m(&repo);
  Result<Table> view = m.Materialize(
      graph, {ColumnRef{0, 1}, ColumnRef{2, 1}}, MaterializeOptions(), "v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_rows(), 2);
  EXPECT_EQ(view->at(0, 0).AsString(), "a1");
  EXPECT_EQ(view->at(0, 1).AsString(), "c1");
}

TEST(MaterializerTest, CycleEdgeFiltersBindings) {
  // Two edges between the same pair of tables: both must hold.
  TableRepository repo;
  Table a("a", MakeSchema({"k1", "k2"}));
  Table b("b", MakeSchema({"k1", "k2"}));
  VER_CHECK_OK(a.AppendRow({Value::String("x"), Value::String("1")}));
  VER_CHECK_OK(a.AppendRow({Value::String("y"), Value::String("2")}));
  VER_CHECK_OK(b.AppendRow({Value::String("x"), Value::String("1")}));
  // k2 mismatch
  VER_CHECK_OK(b.AppendRow({Value::String("y"), Value::String("9")}));
  ASSERT_TRUE(repo.AddTable(std::move(a)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(b)).ok());

  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  graph.edges.push_back(JoinEdge{ColumnRef{0, 1}, ColumnRef{1, 1}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  Materializer m(&repo);
  Result<Table> view = m.Materialize(
      graph, {ColumnRef{0, 0}}, MaterializeOptions(), "v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_rows(), 1);  // only the "x" row satisfies both edges
}

TEST(MaterializerTest, IntermediateBlowupGuard) {
  TableRepository repo;
  Table a("a", MakeSchema({"k"}));
  Table b("b", MakeSchema({"k"}));
  for (int i = 0; i < 100; ++i) {
    VER_CHECK_OK(a.AppendRow({Value::String("same")}));
    VER_CHECK_OK(b.AppendRow({Value::String("same")}));
  }
  ASSERT_TRUE(repo.AddTable(std::move(a)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(b)).ok());

  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  MaterializeOptions options;
  options.max_intermediate_rows = 1000;  // 100x100 cross join exceeds this
  Materializer m(&repo);
  Result<Table> view = m.Materialize(
      graph, {ColumnRef{0, 0}, ColumnRef{1, 0}}, options, "v");
  EXPECT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsOutOfRange());
}

TEST(MaterializerTest, ProjectionOutsideGraphFails) {
  TableRepository repo;
  Table a("a", MakeSchema({"k"}));
  VER_CHECK_OK(a.AppendRow({Value::String("x")}));
  ASSERT_TRUE(repo.AddTable(std::move(a)).ok());
  JoinGraph graph;
  graph.tables = {0};
  Materializer m(&repo);
  Result<Table> view = m.Materialize(graph, {ColumnRef{5, 0}},
                                     MaterializeOptions(), "v");
  EXPECT_FALSE(view.ok());
}

TEST(MaterializerTest, EmptyProjectionFails) {
  TableRepository repo;
  Materializer m(&repo);
  JoinGraph graph;
  graph.tables = {0};
  EXPECT_FALSE(m.Materialize(graph, {}, MaterializeOptions(), "v").ok());
}

TEST(MaterializerTest, SpillWritesCsv) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "ver_spill_test";
  fs::remove_all(dir);

  TableRepository repo;
  Table t("t", MakeSchema({"a"}));
  VER_CHECK_OK(t.AppendRow({Value::String("x")}));
  ASSERT_TRUE(repo.AddTable(std::move(t)).ok());
  JoinGraph graph;
  graph.tables = {0};
  MaterializeOptions options;
  options.spill_dir = dir.string();
  Materializer m(&repo);
  Result<View> view =
      m.MaterializeView(graph, {ColumnRef{0, 0}}, options, /*view_id=*/7);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->id, 7);
  ASSERT_FALSE(view->spill_path.empty());
  Result<Table> reloaded = ReadCsvFile(view->spill_path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->num_rows(), 1);
  fs::remove_all(dir);
}

TEST(MaterializerTest, BlowupGuardTripsAtExactlyOneOverTheLimit) {
  // a x b on one shared key: exactly 30 x 40 = 1200 intermediate tuples.
  TableRepository repo;
  Table a("a", MakeSchema({"k", "v"}));
  Table b("b", MakeSchema({"k", "v"}));
  for (int i = 0; i < 30; ++i) {
    VER_CHECK_OK(a.AppendRow({Value::String("same"), Value::Int(i)}));
  }
  for (int i = 0; i < 40; ++i) {
    VER_CHECK_OK(b.AppendRow({Value::String("same"), Value::Int(i)}));
  }
  ASSERT_TRUE(repo.AddTable(std::move(a)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(b)).ok());
  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  Materializer m(&repo);
  MaterializeOptions options;
  options.max_intermediate_rows = 1199;  // 1200 = limit + 1: refused
  Result<Table> over = m.Materialize(
      graph, {ColumnRef{0, 1}, ColumnRef{1, 1}}, options, "v");
  ASSERT_FALSE(over.ok());
  EXPECT_TRUE(over.status().IsOutOfRange());
  options.max_intermediate_rows = 1200;  // exactly at the limit: allowed
  Result<Table> at = m.Materialize(
      graph, {ColumnRef{0, 1}, ColumnRef{1, 1}}, options, "v");
  ASSERT_TRUE(at.ok()) << at.status().ToString();
  EXPECT_EQ(at->num_rows(), 1200);
}

TEST(MaterializerTest, DuplicateKeyFanOutKeepsProbeThenBuildRowOrder) {
  // 3 left rows x 4 right rows on key "x", plus a non-matching row on each
  // side: 12 tuples, ordered by left row, then right row ascending.
  TableRepository repo;
  Table l("l", MakeSchema({"k", "lv"}));
  Table r("r", MakeSchema({"k", "rv"}));
  for (int i = 0; i < 3; ++i) {
    VER_CHECK_OK(l.AppendRow({Value::String("x"), Value::Int(i)}));
  }
  VER_CHECK_OK(l.AppendRow({Value::String("y"), Value::Int(9)}));
  VER_CHECK_OK(r.AppendRow({Value::String("z"), Value::Int(99)}));
  for (int j = 0; j < 4; ++j) {
    VER_CHECK_OK(r.AppendRow({Value::String("x"), Value::Int(10 + j)}));
  }
  ASSERT_TRUE(repo.AddTable(std::move(l)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(r)).ok());
  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  Materializer m(&repo);
  Result<Table> view = m.Materialize(
      graph, {ColumnRef{0, 1}, ColumnRef{1, 1}}, MaterializeOptions(), "v");
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->num_rows(), 12);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(view->cell(i * 4 + j, 0).AsInt(), i);
      EXPECT_EQ(view->cell(i * 4 + j, 1).AsInt(), 10 + j);
    }
  }
  // Projecting only the key collapses the fan-out under set semantics.
  Result<Table> keys = m.Materialize(graph, {ColumnRef{1, 0}},
                                     MaterializeOptions(), "keys");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->num_rows(), 1);
}

TEST(MaterializerTest, IntDoubleTwinKeysJoin) {
  // 1 and 1.0 compare and hash equal, so they join; each side keeps its
  // own cell type in the view.
  TableRepository repo;
  Table l("l", MakeSchema({"k", "lv"}));
  Table r("r", MakeSchema({"k", "rv"}));
  VER_CHECK_OK(l.AppendRow({Value::Int(1), Value::String("l1")}));
  VER_CHECK_OK(l.AppendRow({Value::Int(2), Value::String("l2")}));
  VER_CHECK_OK(l.AppendRow({Value::Double(3.5), Value::String("l3")}));
  VER_CHECK_OK(r.AppendRow({Value::Double(1.0), Value::String("r1")}));
  VER_CHECK_OK(r.AppendRow({Value::Double(2.5), Value::String("r2")}));
  VER_CHECK_OK(r.AppendRow({Value::Double(3.5), Value::String("r3")}));
  const Table lcopy = l;
  const Table rcopy = r;
  ASSERT_TRUE(repo.AddTable(std::move(l)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(r)).ok());
  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  Materializer m(&repo);
  Result<Table> view = m.Materialize(
      graph, {ColumnRef{0, 0}, ColumnRef{1, 0}, ColumnRef{1, 1}},
      MaterializeOptions(), "v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ViewRows(view.value()),
            ReferenceJoin(lcopy, 0, rcopy, 0, {0}, {0, 1}));
  ASSERT_EQ(view->num_rows(), 2);  // 1 = 1.0 and 3.5 = 3.5
  EXPECT_EQ(view->cell(0, 0).type(), ValueType::kInt);
  EXPECT_EQ(view->cell(0, 1).type(), ValueType::kDouble);
}

TEST(MaterializerTest, NullKeysOnBothSidesNeverJoinOrPassTheFilter) {
  // a.k1 = b.k1 extends, then the cycle edge a.k2 = b.k2 filters; nulls on
  // both sides of either edge must drop the tuple.
  TableRepository repo;
  Table a("a", MakeSchema({"k1", "k2", "va"}));
  Table b("b", MakeSchema({"k1", "k2", "vb"}));
  VER_CHECK_OK(a.AppendRow({Value::Null(), Value::String("p"),
                            Value::String("a0")}));
  VER_CHECK_OK(a.AppendRow({Value::String("x"), Value::Null(),
                            Value::String("a1")}));
  VER_CHECK_OK(a.AppendRow({Value::String("x"), Value::String("p"),
                            Value::String("a2")}));
  VER_CHECK_OK(b.AppendRow({Value::Null(), Value::String("p"),
                            Value::String("b0")}));
  VER_CHECK_OK(b.AppendRow({Value::String("x"), Value::Null(),
                            Value::String("b1")}));
  VER_CHECK_OK(b.AppendRow({Value::String("x"), Value::String("p"),
                            Value::String("b2")}));
  ASSERT_TRUE(repo.AddTable(std::move(a)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(b)).ok());
  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  graph.edges.push_back(JoinEdge{ColumnRef{0, 1}, ColumnRef{1, 1}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  Materializer m(&repo);
  Result<Table> view = m.Materialize(
      graph, {ColumnRef{0, 2}, ColumnRef{1, 2}}, MaterializeOptions(), "v");
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->num_rows(), 1);
  EXPECT_EQ(view->cell(0, 0).AsStringView(), "a2");
  EXPECT_EQ(view->cell(0, 1).AsStringView(), "b2");
}

// ------------ Property test: random joins match nested loops ------------

// Cell-exact rendering of a view in row order (type tag + text per cell).
std::vector<std::string> OrderedRows(const Table& t) {
  std::vector<std::string> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string row;
    for (int c = 0; c < t.num_columns(); ++c) {
      CellView v = t.cell(r, c);
      row += std::to_string(static_cast<int>(v.type())) + ":" + v.ToText() +
             "|";
    }
    rows.push_back(row);
  }
  return rows;
}

// Nested-loop reference over any join graph: every combination of one row
// per graph table, kept when every edge's cells are non-null and equal,
// projected to text rows under set semantics.
std::multiset<std::string> ReferenceGraphJoin(
    const TableRepository& repo, const JoinGraph& graph,
    const std::vector<ColumnRef>& projection) {
  std::set<std::string> rows;
  std::vector<int64_t> pick(graph.tables.size(), 0);
  auto row_of = [&](int32_t table) {
    for (size_t i = 0; i < graph.tables.size(); ++i) {
      if (graph.tables[i] == table) return pick[i];
    }
    return int64_t{-1};
  };
  for (;;) {
    bool ok = true;
    for (const JoinEdge& e : graph.edges) {
      CellView lv = repo.table(e.left.table_id)
                        .cell(row_of(e.left.table_id), e.left.column_index);
      CellView rv = repo.table(e.right.table_id)
                        .cell(row_of(e.right.table_id), e.right.column_index);
      if (lv.is_null() || !(lv == rv)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      std::string row;
      for (const ColumnRef& p : projection) {
        row += repo.table(p.table_id)
                   .cell(row_of(p.table_id), p.column_index)
                   .ToText() +
               "|";
      }
      rows.insert(row);
    }
    size_t i = 0;
    for (; i < pick.size(); ++i) {
      if (++pick[i] < repo.table(graph.tables[i]).num_rows()) break;
      pick[i] = 0;
    }
    if (i == pick.size()) break;
  }
  return {rows.begin(), rows.end()};
}

class MaterializerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaterializerPropertyTest, RandomGraphsThroughOneSharedMaterializer) {
  // One repository of four tables with two key columns each (small shared
  // key domain, some nulls) and a value column. Random chains of one to
  // three tables, sometimes closed by a cycle edge, all go through one
  // CandidateMaterializer — its build-side cache warms across graphs —
  // and each kept view must equal both a fresh Materializer's view (cell
  // for cell, in order) and the nested-loop reference (as a row set).
  Rng rng(GetParam());
  TableRepository repo;
  constexpr int kTables = 4;
  for (int t = 0; t < kTables; ++t) {
    Table table("t" + std::to_string(t), MakeSchema({"k1", "k2", "v"}));
    // Up to 30 rows, so most first extends probe in several 8-key batches
    // and every key fans out to several build rows.
    const int rows = static_cast<int>(rng.UniformInt(1, 30));
    for (int i = 0; i < rows; ++i) {
      auto key = [&rng]() {
        return rng.Bernoulli(0.1)
                   ? Value::Null()
                   : Value::String("k" + std::to_string(rng.UniformInt(0, 4)));
      };
      Value k1 = key();
      Value k2 = key();
      VER_CHECK_OK(table.AppendRow(
          {std::move(k1), std::move(k2),
           Value::String("t" + std::to_string(t) + "r" +
                         std::to_string(rng.UniformInt(0, 3)))}));
    }
    ASSERT_TRUE(repo.AddTable(std::move(table)).ok());
  }

  MaterializeOptions options;
  CandidateMaterializer shared(&repo, options);
  std::set<std::string> seen;
  int checked = 0;
  for (int g = 0; g < 40; ++g) {
    // Distinct tables in a random order, chained edge by edge.
    std::vector<int32_t> order = {0, 1, 2, 3};
    for (int i = kTables - 1; i > 0; --i) {
      std::swap(order[i], order[rng.UniformInt(0, i)]);
    }
    const int num_tables = static_cast<int>(rng.UniformInt(1, 3));
    ViewCandidate cand;
    for (int i = 0; i + 1 < num_tables; ++i) {
      cand.graph.edges.push_back(JoinEdge{
          ColumnRef{order[i], static_cast<int32_t>(rng.UniformInt(0, 1))},
          ColumnRef{order[i + 1], static_cast<int32_t>(rng.UniformInt(0, 1))},
          1.0, 1.0});
    }
    if (num_tables >= 2 && rng.Bernoulli(0.4)) {
      // Cycle edge between the first and last table, after the chain.
      cand.graph.edges.push_back(JoinEdge{
          ColumnRef{order[0], static_cast<int32_t>(rng.UniformInt(0, 1))},
          ColumnRef{order[num_tables - 1],
                    static_cast<int32_t>(rng.UniformInt(0, 1))},
          1.0, 1.0});
    }
    NormalizeJoinGraph(&cand.graph,
                       std::vector<int32_t>(order.begin(),
                                            order.begin() + num_tables));
    const int width = static_cast<int>(rng.UniformInt(1, 3));
    for (int p = 0; p < width; ++p) {
      cand.projection.push_back(
          ColumnRef{order[rng.UniformInt(0, num_tables - 1)],
                    static_cast<int32_t>(rng.UniformInt(0, 2))});
    }
    std::string key = cand.graph.Signature();
    for (const ColumnRef& c : cand.projection) key += "|" + c.ToString();
    if (!seen.insert(key).second) continue;  // exact repeat: deduped

    std::multiset<std::string> expected =
        ReferenceGraphJoin(repo, cand.graph, cand.projection);
    Materializer fresh(&repo);
    Result<Table> alone =
        fresh.Materialize(cand.graph, cand.projection, options, "fresh");
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    EXPECT_EQ(ViewRows(alone.value()), expected) << "graph " << g;

    const size_t before = shared.views().size();
    const bool kept = shared.Materialize(cand);
    EXPECT_EQ(kept, !expected.empty()) << "graph " << g;
    if (!kept) continue;
    ASSERT_EQ(shared.views().size(), before + 1);
    EXPECT_EQ(OrderedRows(shared.views().back().table),
              OrderedRows(alone.value()))
        << "graph " << g;
    ++checked;
  }
  EXPECT_EQ(shared.num_failures(), 0);
  EXPECT_EQ(static_cast<size_t>(checked), shared.views().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaterializerPropertyTest,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace ver
