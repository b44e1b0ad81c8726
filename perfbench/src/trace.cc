#include "trace.h"

#include <cstdio>
#include <fstream>

#include "baselines/fast_topk.h"

namespace perfbench {

namespace {

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

double Tracer::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int32_t Tracer::Begin(const char* name, int64_t query, int32_t parent) {
  Span s;
  s.name = name;
  s.query = query;
  s.id = static_cast<int32_t>(spans_.size());
  s.parent = parent;
  spans_.push_back(std::move(s));
  // Stamped last, so the bookkeeping above falls outside the span.
  spans_.back().start_ms = NowMs();
  return spans_.back().id;
}

void Tracer::End(int32_t id) { spans_[static_cast<size_t>(id)].end_ms = NowMs(); }

void Tracer::Count(int32_t id, const char* key, double value) {
  spans_[static_cast<size_t>(id)].counts.emplace_back(key, value);
}

double Tracer::TotalMs(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end_ms - s.start_ms;
  }
  return total;
}

double Tracer::TotalCount(const std::string& key) const {
  double total = 0;
  for (const Span& s : spans_) {
    for (const auto& [k, v] : s.counts) {
      if (k == key) total += v;
    }
  }
  return total;
}

ver::Status Tracer::WriteJson(
    const std::string& path, const std::string& host,
    const std::vector<std::pair<std::string, double>>& metrics) const {
  std::ofstream out(path);
  out << "{\"host\": " << host << ",\n\"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << '"' << metrics[i].first
        << "\": " << JsonNumber(metrics[i].second);
  }
  out << "},\n\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"query\": " << s.query << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent
        << ", \"start_ms\": " << JsonNumber(s.start_ms)
        << ", \"end_ms\": " << JsonNumber(s.end_ms) << ", \"counts\": {";
    for (size_t c = 0; c < s.counts.size(); ++c) {
      out << (c ? ", " : "") << '"' << s.counts[c].first
          << "\": " << JsonNumber(s.counts[c].second);
    }
    out << "}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) return ver::Status::IOError("cannot write " + path);
  return ver::Status::OK();
}

ver::QueryResult TracedQuery(const ver::Ver& system,
                             const ver::TableRepository& repo,
                             const ver::ExampleQuery& query, int64_t query_id,
                             Tracer* tracer) {
  const ver::VerConfig& config = system.config();
  const ver::DiscoveryEngine& engine = system.engine();
  ver::QueryResult result;
  const int32_t root = tracer->Begin("query", query_id, -1);

  int32_t span = tracer->Begin("column_selection", query_id, root);
  engine.NoteCandidateDiscovery();
  result.selection = ver::SelectColumnsForQuery(engine, query, config.selection);
  tracer->End(span);
  double candidates = 0;
  for (const ver::ColumnSelectionResult& s : result.selection) {
    candidates += static_cast<double>(s.candidates.size());
  }
  tracer->Count(span, "candidates", candidates);

  ver::JoinGraphSearchOptions search_options = config.search;
  search_options.materialize_views = false;
  span = tracer->Begin("join_graph_search", query_id, root);
  result.search = ver::SearchJoinGraphs(engine, result.selection, search_options);
  tracer->End(span);
  tracer->Count(span, "combinations",
                static_cast<double>(result.search.num_combinations));
  tracer->Count(span, "joinable_groups",
                static_cast<double>(result.search.num_joinable_groups));
  tracer->Count(span, "join_graphs",
                static_cast<double>(result.search.num_join_graphs));

  span = tracer->Begin("materializer", query_id, root);
  result.views = ver::MaterializeCandidates(
      repo, result.search.candidates, search_options,
      &result.search.num_materialization_failures);
  tracer->End(span);
  double rows = 0;
  for (const ver::View& v : result.views) rows += static_cast<double>(v.num_rows());
  tracer->Count(span, "views", static_cast<double>(result.views.size()));
  tracer->Count(span, "rows", rows);
  tracer->Count(span, "failures",
                static_cast<double>(result.search.num_materialization_failures));

  span = tracer->Begin("distillation", query_id, root);
  result.distillation = ver::DistillViews(result.views, config.distillation);
  tracer->End(span);
  const ver::DistillationTiming& t = result.distillation.timing;
  tracer->Count(span, "views_in", static_cast<double>(result.views.size()));
  tracer->Count(span, "surviving",
                static_cast<double>(result.distillation.surviving.size()));
  tracer->Count(span, "sp_ms", t.schema_partition_s * 1e3);
  tracer->Count(span, "hash_c1_ms", t.hash_and_c1_s * 1e3);
  tracer->Count(span, "c2_ms", t.c2_s * 1e3);
  tracer->Count(span, "c3_c4_ms", t.c3_c4_s * 1e3);

  span = tracer->Begin("ranking", query_id, root);
  std::vector<ver::View> survivors;
  survivors.reserve(result.distillation.surviving.size());
  for (int idx : result.distillation.surviving) {
    survivors.push_back(result.views[static_cast<size_t>(idx)]);
  }
  result.automatic_ranking = ver::RankViewsByOverlap(survivors, query);
  for (ver::OverlapRankedView& r : result.automatic_ranking) {
    r.view_index = result.distillation.surviving[static_cast<size_t>(r.view_index)];
  }
  tracer->End(span);
  tracer->End(root);
  return result;
}

}  // namespace perfbench
