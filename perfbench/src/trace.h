// Spans recorded from outside the program, around each call into a layer's
// public function. Spans stay in memory and are written out when the run
// ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/ver.h"
#include "util/status.h"

namespace perfbench {

struct Span {
  std::string name;
  /// Shared by every span of one query.
  int64_t query = 0;
  int32_t id = 0;
  /// Id of the span that caused this one; -1 for a query's root span.
  int32_t parent = -1;
  double start_ms = 0;
  double end_ms = 0;
  /// Work counted at this boundary (candidates, views, rows, ...).
  std::vector<std::pair<std::string, double>> counts;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  int32_t Begin(const char* name, int64_t query, int32_t parent);
  void End(int32_t id);
  void Count(int32_t id, const char* key, double value);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of every span named `name`.
  double TotalMs(const std::string& name) const;
  /// Summed value of every count named `key`.
  double TotalCount(const std::string& key) const;

  /// Writes `host` (a JSON object), `metrics` (name, value) and the spans
  /// as one JSON document.
  ver::Status WriteJson(
      const std::string& path, const std::string& host,
      const std::vector<std::pair<std::string, double>>& metrics) const;

 private:
  double NowMs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Runs one query through the layers' public functions in the order of
/// Ver::Execute's batch mode — SelectColumnsForQuery, SearchJoinGraphs
/// (materialize_views=false), MaterializeCandidates, DistillViews,
/// RankViewsByOverlap — with one span per call under a root span "query".
ver::QueryResult TracedQuery(const ver::Ver& system,
                             const ver::TableRepository& repo,
                             const ver::ExampleQuery& query, int64_t query_id,
                             Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
