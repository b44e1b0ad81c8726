// Test of the benchmark's answer checker: a genuine answer must pass, and
// each corrupted copy of it must fail. Exits 0 only when every case
// behaves; run.py runs it before every measurement.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "answer_check.h"
#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "workload/noisy_query.h"
#include "workload/open_data_gen.h"

namespace {

// `table` without its first row.
ver::Table DropFirstRow(const ver::Table& table) {
  ver::Table out(table.name(), table.schema());
  std::vector<ver::CellView> row;
  for (int64_t r = 1; r < table.num_rows(); ++r) {
    row.clear();
    for (int c = 0; c < table.num_columns(); ++c) row.push_back(table.cell(r, c));
    (void)out.AppendCells(row);
  }
  return out;
}

}  // namespace

int main() {
  ver::OpenDataSpec spec;
  spec.num_tables = 60;
  spec.num_queries = 8;
  ver::GeneratedDataset data = ver::GenerateOpenDataLike(spec);
  ver::Ver system(&data.repo, ver::VerConfig());

  // The first ground-truth query whose answer ranks two views or more, the
  // top one with several rows.
  const ver::GroundTruthQuery* gt = nullptr;
  ver::QueryResult genuine;
  for (const ver::GroundTruthQuery& candidate : data.queries) {
    auto query = ver::MakeNoisyQuery(data.repo, candidate, ver::NoiseLevel::kZero, 3, 7);
    if (!query.ok()) continue;
    ver::DiscoveryResponse response =
        system.Execute(ver::DiscoveryRequest::ForQuery(query.value()));
    if (!response.status.ok() || response.result.automatic_ranking.size() < 2) continue;
    const ver::View& top = response.result.views[static_cast<size_t>(
        response.result.automatic_ranking[0].view_index)];
    if (top.table.num_rows() < 2) continue;
    gt = &candidate;
    genuine = std::move(response.result);
    break;
  }
  if (gt == nullptr) {
    std::fprintf(stderr, "answer_check_test: no usable query in the test lake\n");
    return 1;
  }

  int bad = 0;
  auto expect = [&](const char* name, bool want_pass,
                    const std::function<void(ver::QueryResult*)>& corrupt) {
    ver::QueryResult answer = genuine;
    corrupt(&answer);
    std::vector<std::string> failures =
        perfbench::CheckAnswer(data.repo, *gt, answer, 11, 2);
    const bool passed = failures.empty();
    std::printf("%-28s %s\n", name, passed == want_pass ? "ok" : "WRONG VERDICT");
    for (const std::string& f : failures) std::printf("    %s\n", f.c_str());
    if (passed != want_pass) ++bad;
  };

  expect("genuine answer passes", true, [](ver::QueryResult*) {});
  expect("dropped row fails", false, [](ver::QueryResult* a) {
    ver::View& top = a->views[static_cast<size_t>(a->automatic_ranking[0].view_index)];
    top.table = DropFirstRow(top.table);
  });
  expect("extra kept view fails", false, [](ver::QueryResult* a) {
    // A duplicate of the top view, kept as if 4C had let it survive.
    const int top = a->automatic_ranking[0].view_index;
    a->views.push_back(a->views[static_cast<size_t>(top)]);
    const int copy = static_cast<int>(a->views.size()) - 1;
    a->distillation.surviving.push_back(copy);
    ver::OverlapRankedView ranked = a->automatic_ranking[0];
    ranked.view_index = copy;
    a->automatic_ranking.push_back(ranked);
  });
  expect("unranked survivor fails", false, [](ver::QueryResult* a) {
    a->automatic_ranking.pop_back();
  });
  expect("rising score fails", false, [](ver::QueryResult* a) {
    a->automatic_ranking[1].score = a->automatic_ranking[0].score + 1.0;
  });
  return bad == 0 ? 0 : 1;
}
