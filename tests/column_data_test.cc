// Unit tests for the typed columnar storage core: ColumnData encodings
// (null bitmaps, int/double/numeric/dict), dictionary round-trips, Seal()
// re-layout, CellView vs Value agreement, and columnar serde.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "table/column_data.h"
#include "table/table.h"
#include "util/serde.h"
#include "util/check.h"

namespace ver {
namespace {

// ------------------------------- CellView --------------------------------

std::vector<Value> InterestingValues() {
  return {
      Value::Null(),
      Value::Int(0),
      Value::Int(-1),
      Value::Int(2),
      Value::Int(std::numeric_limits<int64_t>::min()),
      Value::Int(std::numeric_limits<int64_t>::max()),
      Value::Double(0.0),
      Value::Double(-0.0),
      Value::Double(2.0),
      Value::Double(2.5),
      Value::Double(-1e300),
      Value::Double(1e-300),
      Value::String(""),
      Value::String("a"),
      Value::String("abc"),
      Value::String("ABC"),
      Value::String(std::string(100, 'x')),
      Value::String("2"),  // text twin of Int(2), must NOT compare equal
  };
}

TEST(CellViewTest, SixteenBytes) { EXPECT_EQ(sizeof(CellView), 16u); }

TEST(CellViewTest, HashAgreesWithValueForEveryCell) {
  for (const Value& v : InterestingValues()) {
    EXPECT_EQ(CellView::Of(v).Hash(), v.Hash()) << v.ToText();
  }
}

TEST(CellViewTest, ToTextAndToValueRoundTrip) {
  for (const Value& v : InterestingValues()) {
    CellView c = CellView::Of(v);
    EXPECT_EQ(c.ToText(), v.ToText());
    EXPECT_EQ(c.ToValue().Compare(v), 0) << v.ToText();
    EXPECT_EQ(c.type(), v.type());
  }
}

TEST(CellViewTest, TotalOrderAgreesWithValueOnAllPairs) {
  std::vector<Value> values = InterestingValues();
  for (const Value& a : values) {
    for (const Value& b : values) {
      int expect = a.Compare(b);
      int got = CellView::Of(a).Compare(CellView::Of(b));
      // Same sign, including 0.
      EXPECT_EQ(expect < 0, got < 0) << a.ToText() << " vs " << b.ToText();
      EXPECT_EQ(expect == 0, got == 0) << a.ToText() << " vs " << b.ToText();
    }
  }
}

TEST(CellViewTest, IntDoubleTwinsCompareEqualButKeepTheirType) {
  CellView i = CellView::Int(2), d = CellView::Double(2.0);
  EXPECT_EQ(i.Compare(d), 0);
  EXPECT_EQ(i.Hash(), d.Hash());
  EXPECT_EQ(i.type(), ValueType::kInt);
  EXPECT_EQ(d.type(), ValueType::kDouble);
}

// ------------------------------ encodings --------------------------------

TEST(ColumnDataTest, PureIntColumnStaysFlat) {
  ColumnData col;
  for (int i = 0; i < 100; ++i) col.Append(CellView::Int(i));
  EXPECT_EQ(col.encoding(), ColumnEncoding::kInt64);
  EXPECT_EQ(col.size(), 100);
  EXPECT_EQ(col.cell(42).AsInt(), 42);
  EXPECT_EQ(col.CellHash(42), Value::Int(42).Hash());
  EXPECT_EQ(col.int_count(), 100);
  EXPECT_EQ(col.null_count(), 0);
}

TEST(ColumnDataTest, AllNullThenDoubleBecomesDoubleColumn) {
  ColumnData col;
  col.Append(CellView::Null());
  col.Append(CellView::Null());
  col.Append(CellView::Double(1.5));
  EXPECT_EQ(col.encoding(), ColumnEncoding::kDouble);
  EXPECT_TRUE(col.cell(0).is_null());
  EXPECT_TRUE(col.cell(1).is_null());
  EXPECT_DOUBLE_EQ(col.cell(2).AsDouble(), 1.5);
  EXPECT_EQ(col.null_count(), 2);
}

TEST(ColumnDataTest, MixedIntDoublePromotesToNumericAndStaysExact) {
  ColumnData col;
  col.Append(CellView::Int(7));
  col.Append(CellView::Double(2.5));
  col.Append(CellView::Null());
  col.Append(CellView::Int(std::numeric_limits<int64_t>::max()));
  EXPECT_EQ(col.encoding(), ColumnEncoding::kNumeric);
  EXPECT_EQ(col.cell(0).type(), ValueType::kInt);
  EXPECT_EQ(col.cell(0).AsInt(), 7);
  EXPECT_EQ(col.cell(1).type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(col.cell(1).AsDouble(), 2.5);
  EXPECT_TRUE(col.cell(2).is_null());
  // int64 values beyond 2^53 survive bit-exactly (no double rounding).
  EXPECT_EQ(col.cell(3).AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(col.int_count(), 2);
  EXPECT_EQ(col.double_count(), 1);
}

TEST(ColumnDataTest, StringPromotesAnyColumnToDict) {
  ColumnData col;
  col.Append(CellView::Int(1));
  col.Append(CellView::Double(2.5));
  col.Append(CellView::String("x"));
  EXPECT_EQ(col.encoding(), ColumnEncoding::kDict);
  EXPECT_EQ(col.cell(0).ToText(), "1");
  EXPECT_EQ(col.cell(0).type(), ValueType::kInt);
  EXPECT_EQ(col.cell(1).ToText(), "2.5");
  EXPECT_EQ(col.cell(2).AsStringView(), "x");
  EXPECT_EQ(col.string_count(), 1);
}

TEST(ColumnDataTest, DictionaryDedupesAndCachesHashes) {
  ColumnData col;
  for (int i = 0; i < 1000; ++i) {
    col.Append(CellView::String(i % 2 == 0 ? "even" : "odd"));
  }
  ASSERT_TRUE(col.is_dict());
  EXPECT_EQ(col.dict_size(), 2u);
  EXPECT_EQ(col.code(0), col.code(2));
  EXPECT_NE(col.code(0), col.code(1));
  EXPECT_EQ(col.CellHash(0), Value::String("even").Hash());
  EXPECT_EQ(col.dict_entry_hash(col.code(1)), Value::String("odd").Hash());
  EXPECT_EQ(col.DistinctHashes().size(), 2u);
}

TEST(ColumnDataTest, IntAndDoubleTwinsAreDistinctDictEntries) {
  // 2 and 2.0 compare equal and hash equal, but each cell must render back
  // with its original type ("2" stays what the source data said).
  ColumnData col;
  col.Append(CellView::String("tag"));
  col.Append(CellView::Int(2));
  col.Append(CellView::Double(2.0));
  ASSERT_TRUE(col.is_dict());
  EXPECT_EQ(col.dict_size(), 3u);
  EXPECT_EQ(col.cell(1).type(), ValueType::kInt);
  EXPECT_EQ(col.cell(2).type(), ValueType::kDouble);
  EXPECT_EQ(col.CellHash(1), col.CellHash(2));
  // The distinct hash set merges the twins, exactly like per-cell hashing.
  EXPECT_EQ(col.DistinctHashes().size(), 2u);
}

TEST(ColumnDataTest, InterningSurvivesManyRehashes) {
  // 5000 distinct strings grow the flat intern table from 16 slots through
  // nine doublings; every repeat must find its first appearance's code,
  // and codes must follow first-appearance order.
  ColumnData col;
  constexpr int kDistinct = 5000;
  for (int i = 0; i < kDistinct; ++i) {
    col.Append(CellView::String("s" + std::to_string(i)));
    // Re-append an earlier value after every insert.
    col.Append(CellView::String("s" + std::to_string(i / 2)));
  }
  ASSERT_TRUE(col.is_dict());
  EXPECT_EQ(col.dict_size(), static_cast<size_t>(kDistinct));
  for (int i = 0; i < kDistinct; ++i) {
    EXPECT_EQ(col.code(2 * i), static_cast<uint32_t>(i)) << i;
    EXPECT_EQ(col.code(2 * i + 1), static_cast<uint32_t>(i / 2)) << i;
    EXPECT_EQ(col.cell(2 * i + 1).AsStringView(),
              "s" + std::to_string(i / 2));
    EXPECT_EQ(col.CellHash(2 * i),
              Value::String("s" + std::to_string(i)).Hash());
  }
}

TEST(ColumnDataTest, IntDoubleTwinsStayDistinctAcrossRehashes) {
  // Twins hash equal, so every pair shares one probe chain; the intern
  // table must still keep one entry per (type, payload).
  ColumnData col;
  col.Append(CellView::String("tag"));
  constexpr int kPairs = 2000;
  for (int i = 0; i < kPairs; ++i) {
    col.Append(CellView::Int(i));
    col.Append(CellView::Double(static_cast<double>(i)));
  }
  ASSERT_EQ(col.dict_size(), 1u + 2u * kPairs);
  for (int i = 0; i < kPairs; ++i) {
    col.Append(CellView::Double(static_cast<double>(i)));
    col.Append(CellView::Int(i));
  }
  EXPECT_EQ(col.dict_size(), 1u + 2u * kPairs);
  for (int i = 0; i < kPairs; ++i) {
    const int64_t int_row = 1 + 2 * i, double_row = 2 + 2 * i;
    const int64_t again = 1 + 2 * kPairs + 2 * i;  // Double, then Int
    EXPECT_NE(col.code(int_row), col.code(double_row)) << i;
    EXPECT_EQ(col.code(again), col.code(double_row)) << i;
    EXPECT_EQ(col.code(again + 1), col.code(int_row)) << i;
    EXPECT_EQ(col.cell(again).type(), ValueType::kDouble);
    EXPECT_EQ(col.cell(again + 1).type(), ValueType::kInt);
  }
}

TEST(ColumnDataTest, AppendAfterSealAndAfterDropInternMap) {
  for (bool seal : {true, false}) {
    ColumnData col;
    for (int i = 0; i < 100; ++i) {
      col.Append(CellView::String("v" + std::to_string(99 - i)));
    }
    if (seal) {
      col.Seal();
      ASSERT_TRUE(col.sealed());
    } else {
      col.DropInternMap();
    }
    const uint32_t code_of_v42 = col.code(99 - 42);  // sorted when sealed
    // Existing values map to their (possibly re-laid-out) codes; new
    // values get fresh codes past the dictionary, through rehashes.
    col.Append(CellView::String("v42"));
    EXPECT_FALSE(col.sealed());
    EXPECT_EQ(col.code(100), code_of_v42) << "seal=" << seal;
    for (int i = 100; i < 300; ++i) {
      col.Append(CellView::String("v" + std::to_string(i)));
      col.Append(CellView::String("v" + std::to_string(i - 100)));
    }
    EXPECT_EQ(col.dict_size(), 300u) << "seal=" << seal;
    for (int64_t r = 101; r < col.size(); r += 2) {
      EXPECT_EQ(col.code(r), static_cast<uint32_t>(100 + (r - 101) / 2));
    }
    for (int64_t r = 0; r < col.size(); ++r) {
      EXPECT_EQ(col.CellHash(r), col.cell(r).Hash()) << r;
    }
  }
}

TEST(ColumnDataTest, AppendGatheredMatchesCellAppends) {
  // Every encoding as a source, gathered in a shuffled order with repeats:
  // the gathered column must equal one built by per-cell Append.
  std::vector<std::vector<Value>> sources = {
      {Value::Int(3), Value::Null(), Value::Int(-7), Value::Int(3)},
      {Value::Double(1.5), Value::Null(), Value::Double(-0.0)},
      {Value::Int(1), Value::Double(1.0), Value::Null(), Value::Int(2)},
      {Value::String("a"), Value::Int(1), Value::Double(1.0), Value::Null(),
       Value::String("a"), Value::String("b")},
  };
  for (const std::vector<Value>& cells : sources) {
    ColumnData src;
    for (const Value& v : cells) src.Append(v);
    std::vector<int64_t> rows;
    for (int rep = 0; rep < 3; ++rep) {
      for (int64_t r = src.size() - 1; r >= 0; --r) rows.push_back(r);
    }
    ColumnData gathered, appended;
    gathered.Append(CellView::String("first"));  // a dict destination
    appended.Append(CellView::String("first"));
    gathered.AppendGathered(src, rows.data(),
                            static_cast<int64_t>(rows.size()));
    for (int64_t r : rows) appended.Append(src.cell(r));
    ASSERT_EQ(gathered.size(), appended.size());
    EXPECT_EQ(gathered.dict_size(), appended.dict_size());
    for (int64_t r = 0; r < gathered.size(); ++r) {
      EXPECT_EQ(gathered.is_null(r), appended.is_null(r)) << r;
      if (gathered.is_null(r)) continue;
      EXPECT_EQ(gathered.code(r), appended.code(r)) << r;
      EXPECT_EQ(gathered.cell(r).type(), appended.cell(r).type()) << r;
      EXPECT_EQ(gathered.cell(r).ToText(), appended.cell(r).ToText()) << r;
    }
  }
}

// ------------------------------- RowDeduper ------------------------------

TEST(RowDeduperTest, EqualHashDistinctRowsAreAllKept) {
  // Rows are single cells; every row gets the same forced hash, so each
  // insert probes past all earlier rows and must compare cells exactly.
  std::vector<CellView> rows;
  for (int i = 0; i < 200; ++i) rows.push_back(CellView::Int(i));
  auto cell_at = [&rows](int64_t token, int) { return rows[token]; };
  RowDeduper deduper;  // no Reserve: growth rehashes along the way
  constexpr uint64_t kForcedHash = 42;
  for (int64_t t = 0; t < 200; ++t) {
    EXPECT_TRUE(deduper.Insert(kForcedHash, t, 1, cell_at)) << t;
  }
  rows.push_back(CellView::Int(17));        // token 200 repeats row 17
  rows.push_back(CellView::Double(17.0));   // token 201: compare-equal twin
  rows.push_back(CellView::String("17"));   // token 202: distinct
  EXPECT_FALSE(deduper.Insert(kForcedHash, 200, 1, cell_at));
  EXPECT_FALSE(deduper.Insert(kForcedHash, 201, 1, cell_at));
  EXPECT_TRUE(deduper.Insert(kForcedHash, 202, 1, cell_at));
  // The same row under a different hash is not found (the caller's hash
  // must cover the cells), so it is kept.
  EXPECT_TRUE(deduper.Insert(7, 200, 1, cell_at));
}

// ----------------------------- null bitmap -------------------------------

TEST(ColumnDataTest, NullBitmapAtWordBoundaries) {
  // Nulls at positions straddling the 64-bit bitmap words.
  for (int64_t n : {63, 64, 65, 128, 130}) {
    ColumnData col;
    for (int64_t i = 0; i < n; ++i) {
      if (i % 63 == 0) {
        col.Append(CellView::Null());
      } else {
        col.Append(CellView::Int(i));
      }
    }
    ASSERT_EQ(col.size(), n);
    int64_t nulls = 0;
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(col.is_null(i), i % 63 == 0) << "n=" << n << " i=" << i;
      if (col.is_null(i)) {
        ++nulls;
        EXPECT_EQ(col.CellHash(i), Value::Null().Hash());
      } else {
        EXPECT_EQ(col.cell(i).AsInt(), i);
      }
    }
    EXPECT_EQ(col.null_count(), nulls);
  }
}

TEST(ColumnDataTest, AllNullColumn) {
  ColumnData col;
  for (int i = 0; i < 70; ++i) col.Append(CellView::Null());
  EXPECT_EQ(col.null_count(), 70);
  EXPECT_TRUE(col.cell(69).is_null());
  EXPECT_TRUE(col.DistinctHashes().empty());
}

// -------------------------------- Seal -----------------------------------

TEST(ColumnDataTest, SealSortsDictionaryAndPreservesCells) {
  ColumnData col;
  std::vector<std::string> words = {"pear", "apple", "pear", "banana",
                                    "apple", "cherry"};
  for (const std::string& w : words) col.Append(CellView::String(w));
  col.Append(CellView::Null());
  std::vector<uint64_t> before;
  for (int64_t r = 0; r < col.size(); ++r) before.push_back(col.CellHash(r));

  col.Seal();
  EXPECT_TRUE(col.sealed());
  // Dictionary is in cell total order after sealing.
  for (uint32_t c = 0; c + 1 < col.dict_size(); ++c) {
    EXPECT_LT(col.dict_entry(c).Compare(col.dict_entry(c + 1)), 0);
  }
  // Cells and hashes are unchanged by the re-layout.
  for (size_t r = 0; r < words.size(); ++r) {
    EXPECT_EQ(col.cell(r).AsStringView(), words[r]);
    EXPECT_EQ(col.CellHash(r), before[r]);
  }
  EXPECT_TRUE(col.is_null(static_cast<int64_t>(words.size())));

  // Appending after Seal() transparently unseals and keeps deduping
  // against the existing dictionary.
  col.Append(CellView::String("apple"));
  EXPECT_FALSE(col.sealed());
  EXPECT_EQ(col.dict_size(), 4u);
  EXPECT_EQ(col.cell(col.size() - 1).AsStringView(), "apple");
}

TEST(ColumnDataTest, SealIsIdempotentAndSafeOnEveryEncoding) {
  ColumnData ints, strs, empty;
  ints.Append(CellView::Int(1));
  strs.Append(CellView::String("x"));
  for (ColumnData* c : {&ints, &strs, &empty}) {
    c->Seal();
    c->Seal();
    EXPECT_TRUE(c->sealed());
  }
  EXPECT_EQ(ints.cell(0).AsInt(), 1);
  EXPECT_EQ(strs.cell(0).AsStringView(), "x");
}

// ------------------------------- serde -----------------------------------

ColumnData RoundTrip(const ColumnData& col) {
  SerdeWriter w;
  col.SaveTo(&w);
  SerdeReader r(w.buffer(), "column under test");
  ColumnData out;
  EXPECT_TRUE(out.LoadFrom(&r).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  return out;
}

TEST(ColumnDataTest, SerdeRoundTripsEveryEncoding) {
  ColumnData ints, doubles, numeric, dict;
  for (int i = 0; i < 130; ++i) {
    ints.Append(i % 7 == 0 ? CellView::Null() : CellView::Int(i));
    doubles.Append(i % 5 == 0 ? CellView::Null() : CellView::Double(i / 3.0));
    numeric.Append(i % 2 == 0 ? CellView::Int(i) : CellView::Double(i + 0.5));
    dict.Append(i % 11 == 0
                    ? CellView::Null()
                    : CellView::String("w" + std::to_string(i % 13)));
  }
  dict.Seal();
  for (const ColumnData* col : {&ints, &doubles, &numeric, &dict}) {
    ColumnData loaded = RoundTrip(*col);
    ASSERT_EQ(loaded.size(), col->size());
    EXPECT_EQ(loaded.encoding(), col->encoding());
    EXPECT_EQ(loaded.sealed(), col->sealed());
    for (int64_t r = 0; r < col->size(); ++r) {
      EXPECT_EQ(loaded.cell(r).Compare(col->cell(r)), 0) << r;
      EXPECT_EQ(loaded.cell(r).type(), col->cell(r).type()) << r;
      EXPECT_EQ(loaded.CellHash(r), col->CellHash(r)) << r;
    }
  }
}

TEST(ColumnDataTest, DropInternMapKeepsDedupOnLaterAppends) {
  ColumnData col;
  col.Append(CellView::String("a"));
  col.Append(CellView::String("b"));
  col.DropInternMap();
  EXPECT_FALSE(col.sealed());  // unlike Seal(), no re-layout happened
  // The rebuilt intern map must dedupe against the existing dictionary.
  col.Append(CellView::String("a"));
  EXPECT_EQ(col.dict_size(), 2u);
  EXPECT_EQ(col.code(0), col.code(2));
}

TEST(ColumnDataTest, LoadedDictColumnAcceptsNewAppends) {
  ColumnData col;
  col.Append(CellView::String("a"));
  col.Append(CellView::String("b"));
  col.Seal();
  ColumnData loaded = RoundTrip(col);
  loaded.Append(CellView::String("a"));  // dedupes against loaded dictionary
  loaded.Append(CellView::String("c"));
  EXPECT_EQ(loaded.dict_size(), 3u);
  EXPECT_EQ(loaded.code(0), loaded.code(2));
}

TEST(ColumnDataTest, CorruptColumnPayloadsAreRejected) {
  ColumnData col;
  for (int i = 0; i < 10; ++i) {
    col.Append(i % 2 == 0 ? CellView::String("s" + std::to_string(i))
                          : CellView::Null());
  }
  SerdeWriter w;
  col.SaveTo(&w);
  std::string bytes = w.buffer();

  // Truncations at every prefix must error, never crash or over-allocate.
  for (size_t cut : {size_t{0}, size_t{1}, bytes.size() / 2,
                     bytes.size() - 1}) {
    SerdeReader r(std::string_view(bytes).substr(0, cut), "truncated column");
    ColumnData out;
    EXPECT_FALSE(out.LoadFrom(&r).ok()) << "cut=" << cut;
  }

  // Inconsistent tallies: claim one fewer null than the bitmap holds.
  {
    ColumnData good;
    good.Append(CellView::Int(1));
    good.Append(CellView::Null());
    SerdeWriter w2;
    good.SaveTo(&w2);
    std::string b = w2.TakeBuffer();
    // Layout: u8 enc, u8 sealed, i64 rows, i64 nulls at offset 10.
    b[10] = 0;
    SerdeReader r(b, "tampered column");
    ColumnData out;
    Status s = out.LoadFrom(&r);
    EXPECT_FALSE(s.ok());
  }
}

// ------------------------- Table-level behavior ---------------------------

TEST(ColumnDataTest, TableReserveDoesNotChangeResults) {
  Schema schema;
  schema.AddAttribute(Attribute{"k", ValueType::kString});
  schema.AddAttribute(Attribute{"v", ValueType::kString});
  Table plain("plain", schema), reserved("reserved", schema);
  reserved.Reserve(500);
  for (int i = 0; i < 500; ++i) {
    std::vector<Value> row = {Value::String("k" + std::to_string(i % 37)),
                              Value::Int(i)};
    ASSERT_TRUE(plain.AppendRow(row).ok());
    ASSERT_TRUE(reserved.AppendRow(row).ok());
  }
  EXPECT_EQ(plain.AllRowHashes(), reserved.AllRowHashes());
  EXPECT_EQ(plain.DistinctCount(0), reserved.DistinctCount(0));
}

TEST(ColumnDataTest, TableSerdeRoundTripsBitIdentically) {
  Schema schema;
  schema.AddAttribute(Attribute{"name", ValueType::kString});
  schema.AddAttribute(Attribute{"score", ValueType::kDouble});
  Table t("mixed", schema);
  VER_CHECK_OK(t.AppendRow({Value::String("alice"), Value::Double(1.5)}));
  VER_CHECK_OK(t.AppendRow({Value::Null(), Value::Int(2)}));
  VER_CHECK_OK(t.AppendRow({Value::String("bob"), Value::Null()}));
  t.Seal();

  SerdeWriter w;
  t.SaveTo(&w);
  SerdeReader r(w.buffer(), "table under test");
  Table loaded;
  ASSERT_TRUE(loaded.LoadFrom(&r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(loaded.name(), t.name());
  EXPECT_EQ(loaded.num_rows(), t.num_rows());
  EXPECT_EQ(loaded.AllRowHashes(), t.AllRowHashes());
  EXPECT_EQ(loaded.ToString(100), t.ToString(100));
}

TEST(ColumnDataTest, ProjectDistinctSurvivesHashCollisionSemantics) {
  // Distinct projection dedups by row hash first, then confirms with exact
  // cell comparison — duplicate rows collapse, near-duplicates survive.
  Schema schema;
  schema.AddAttribute(Attribute{"a", ValueType::kString});
  Table t("t", schema);
  VER_CHECK_OK(t.AppendRow({Value::String("x")}));
  VER_CHECK_OK(t.AppendRow({Value::String("x")}));
  VER_CHECK_OK(t.AppendRow({Value::Int(2)}));
  // hash-equal, compare-equal twin
  VER_CHECK_OK(t.AppendRow({Value::Double(2.0)}));
  VER_CHECK_OK(t.AppendRow({Value::String("y")}));
  Table p = t.Project({0}, /*distinct=*/true, "p");
  // "x" dedupes; Int(2)/Double(2.0) compare equal so they dedupe too.
  EXPECT_EQ(p.num_rows(), 3);
}

TEST(ColumnDataTest, ApproxBytesShrinksForRepetitiveStrings) {
  Schema schema;
  schema.AddAttribute(Attribute{"s", ValueType::kString});
  Table t("t", schema);
  const std::string long_val(64, 'z');
  for (int i = 0; i < 1000; ++i) {
    VER_CHECK_OK(
        t.AppendRow({Value::String(long_val + std::to_string(i % 8))}));
  }
  t.Seal();
  // 1000 cells sharing 8 distinct 65+ byte strings: dictionary storage must
  // be far below one owned std::string per cell.
  size_t seed_floor = 1000 * sizeof(Value);
  EXPECT_LT(t.ApproxBytes(), seed_floor);
}

}  // namespace
}  // namespace ver
