// perfbench: the view-discovery benchmark program.
//
//   perfbench gen      --workload W --dir D
//       writes the workload's lake (D/lake/*.csv) and ground truth.
//   perfbench snapshot --workload W --dir D [--t0-ns T]
//       served workloads: loads the CSV lake, builds the sharded engine and
//       saves D/lake.versnap, in its own process.
//   perfbench run      --workload W --dir D --seed S --seconds N
//                      [--trace 0|1] [--t0-ns T] [--spans PATH]
//       the measured process: set-up, warm-up, timed closed-loop passes,
//       then the answer checks (and, with --trace 1, the traced pass).
//
// Each command prints one JSON object on its last stdout line. run.py
// chains the commands; see README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "answer_check.h"
#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "discovery/engine.h"
#include "serving/ver_server.h"
#include "trace.h"
#include "util/simd.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using Metrics = std::vector<std::pair<std::string, double>>;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t t0_ns) { return (NowNs() - t0_ns) * 1e-9; }

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_utime.tv_sec + u.ru_utime.tv_usec * 1e-6 + u.ru_stime.tv_sec +
         u.ru_stime.tv_usec * 1e-6;
}

// Peak resident set of this process, from the kernel's high-water mark.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss / 1024.0;
}

// Threads, SIMD tier and compiler of this build and host.
std::string HostJson() {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"threads\": %u, \"simd\": \"%s\", \"compiler\": \"%s\"}",
                std::thread::hardware_concurrency(),
                ver::simd::LevelName(ver::simd::ActiveLevel()), __VERSION__);
  return buf;
}

// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": %.9g", i ? ", " : "", metrics[i].first.c_str(),
                metrics[i].second);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Reports a check failure on stderr; the first few only, to keep logs short.
class FailureLog {
 public:
  void Add(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (++count_ <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  int64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  int64_t count_ = 0;
};

// Per-query counts that must repeat exactly from one execution to the next.
struct QueryCounts {
  int64_t join_graphs = -1;
  int64_t views = -1;
  int64_t surviving = -1;
  bool operator==(const QueryCounts& o) const {
    return join_graphs == o.join_graphs && views == o.views && surviving == o.surviving;
  }
};

QueryCounts CountsOf(const ver::QueryResult& r) {
  return QueryCounts{r.search.num_join_graphs, static_cast<int64_t>(r.views.size()),
                     static_cast<int64_t>(r.distillation.surviving.size())};
}

ver::VerConfig BaseConfig(const WorkloadSpec& spec) {
  ver::VerConfig config;
  config.discovery.num_shards = spec.shards;
  config.discovery.parallelism = spec.scatter_parallelism;
  return config;
}

// --------------------------------------------------------------- gen

int Gen(const Args& args, const WorkloadSpec& spec) {
  const std::string dir = args.Get("dir");
  fs::create_directories(dir);
  ver::Status st = GenerateLake(spec, dir);
  if (!st.ok()) {
    std::fprintf(stderr, "gen: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("{\"generated\": \"%s\"}\n", spec.name.c_str());
  return 0;
}

// ---------------------------------------------------------- snapshot

int Snapshot(const Args& args, const WorkloadSpec& spec) {
  const int64_t t0 = std::stoll(args.Get("t0-ns", std::to_string(NowNs())));
  const std::string dir = args.Get("dir");
  ver::TableRepository repo;
  int64_t t = NowNs();
  ver::Status st = repo.LoadDirectory((fs::path(dir) / "lake").string());
  const double ingest_s = SecondsSince(t);
  if (!st.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", st.ToString().c_str());
    return 1;
  }
  t = NowNs();
  std::unique_ptr<ver::DiscoveryEngine> engine =
      ver::DiscoveryEngine::Build(repo, BaseConfig(spec).discovery);
  const double build_s = SecondsSince(t);
  const std::string path = (fs::path(dir) / "lake.versnap").string();
  t = NowNs();
  st = engine->Save(path);
  const double save_s = SecondsSince(t);
  if (!st.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", st.ToString().c_str());
    return 1;
  }
  const double setup_s = SecondsSince(t0);
  std::printf(
      "{\"setup_s\": %.9g, \"table.ingest_s\": %.9g, \"discovery.build_s\": "
      "%.9g, \"serde.snapshot_save_s\": %.9g, \"serde.snapshot_mb\": %.9g}\n",
      setup_s, ingest_s, build_s, save_s,
      static_cast<double>(fs::file_size(path)) / (1 << 20));
  return 0;
}

// --------------------------------------------------------------- run

// One timed execution as the client saw it.
struct Sample {
  size_t query = 0;  // index into the query list
  double latency_s = 0;
  // Process CPU time of the execution; measured only with one in-process
  // client, where no other query shares the process (else below 0).
  double cpu_s = -1;
  double queue_wait_s = 0;
  double run_s = 0;
  bool ok = false;
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const Args& args) : spec_(spec), args_(args) {}

  int Main();

 private:
  ver::Status SetUp();
  // Executes `q` once, the way the workload's clients do.
  Sample Execute(const BenchQuery& q, std::shared_ptr<const ver::QueryResult>* answer);
  // Runs the first `limit` queries of the list once each, on spec_.clients
  // closed-loop clients.
  void Pass(std::vector<Sample>* samples, bool record_counts, size_t limit);
  // Scatter counters (queries, candidates) summed over the engine's shards;
  // served workloads read them from the server's stats.
  std::pair<double, double> ScatterTotals() const;
  // Pool counters of the paged snapshot; all zero when resident.
  ver::BufferPoolStats PoolStats() const;
  // Saves the resident engine and loads it back: the snapshot layer's cost
  // on this workload's lake (served workloads pay it in set-up).
  void MeasureSnapshotRoundTrip();
  // Re-runs every timed query, and the draws that are only checked,
  // untimed, and checks each answer independently.
  void CheckAnswers();
  // The traced pass; adds the per-layer metrics to layer_.
  void TracePass();
  Metrics EndToEnd(const std::vector<Sample>& samples,
                   const std::vector<double>& pass_cpu_s);

  const WorkloadSpec& spec_;
  const Args& args_;
  FailureLog failures_;

  ver::TableRepository repo_;
  std::shared_ptr<ver::Ver> system_;
  std::unique_ptr<ver::VerServer> server_;
  std::vector<ver::GroundTruthQuery> gts_;
  std::vector<BenchQuery> queries_;        // timed, in the seed's order
  std::vector<BenchQuery> extra_checks_;   // further queries, checked only
  std::vector<QueryCounts> counts_;
  std::vector<uint64_t> fingerprints_;  // of each query's checked answer

  Metrics layer_;  // per-layer metrics gathered along the way
  double setup_s_ = 0;
  uint64_t budget_bytes_ = 0;
  std::unique_ptr<Tracer> tracer_;
};

ver::Status Runner::SetUp() {
  const int64_t t0 = std::stoll(args_.Get("t0-ns", std::to_string(NowNs())));
  const std::string dir = args_.Get("dir");
  ver::VerConfig config = BaseConfig(spec_);
  if (!spec_.served) {
    int64_t t = NowNs();
    VER_RETURN_IF_ERROR(repo_.LoadDirectory((fs::path(dir) / "lake").string()));
    layer_.emplace_back("table.ingest_s", SecondsSince(t));
    t = NowNs();
    std::unique_ptr<ver::DiscoveryEngine> engine =
        ver::DiscoveryEngine::Build(repo_, config.discovery);
    layer_.emplace_back("discovery.build_s", SecondsSince(t));
    system_ = std::make_shared<ver::Ver>(&repo_, config, std::move(engine));
  } else {
    const std::string path = (fs::path(dir) / "lake.versnap").string();
    std::error_code ec;
    const uint64_t bytes = fs::file_size(path, ec);
    if (ec) return ver::Status::IOError("no snapshot at " + path);
    budget_bytes_ = static_cast<uint64_t>(spec_.budget_share * bytes);
    ver::PagingOptions paging;
    paging.enabled = true;
    paging.memory_budget_bytes = budget_bytes_;
    int64_t t = NowNs();
    VER_ASSIGN_OR_RETURN(repo_, ver::DiscoveryEngine::LoadRepository(path, paging));
    VER_ASSIGN_OR_RETURN(std::unique_ptr<ver::DiscoveryEngine> engine,
                         ver::DiscoveryEngine::Load(repo_, path, paging));
    layer_.emplace_back("serde.snapshot_load_s", SecondsSince(t));
    system_ = std::make_shared<ver::Ver>(&repo_, config, std::move(engine));
    ver::ServingOptions serving;
    serving.num_workers = spec_.workers;
    serving.cache_capacity = 0;     // every request runs the pipeline
    serving.single_flight = false;  // likewise for concurrent duplicates
    serving.memory_budget_bytes = budget_bytes_;
    server_ = std::make_unique<ver::VerServer>(system_, serving);
  }
  setup_s_ = SecondsSince(t0);

  VER_ASSIGN_OR_RETURN(gts_, ReadGroundTruth(dir));
  const uint64_t seed = std::stoull(args_.Get("seed", "1"));
  VER_ASSIGN_OR_RETURN(queries_, MakeQueries(spec_, repo_, gts_, true, seed));
  VER_ASSIGN_OR_RETURN(extra_checks_, MakeQueries(spec_, repo_, gts_, false, seed));
  counts_.assign(queries_.size(), QueryCounts());
  return ver::Status::OK();
}

Sample Runner::Execute(const BenchQuery& q,
                       std::shared_ptr<const ver::QueryResult>* answer) {
  Sample s;
  const int64_t t = NowNs();
  if (server_ != nullptr) {
    std::shared_ptr<ver::QueryTicket> ticket =
        server_->Submit(ver::DiscoveryRequest::ForQuery(q.query));
    const ver::ServedResult& served = ticket->Wait();
    s.latency_s = SecondsSince(t);
    s.ok = served.status.ok();
    s.queue_wait_s = served.queue_wait_s;
    s.run_s = served.run_s;
    *answer = served.result;
  } else {
    const double cpu0 = CpuSeconds();
    ver::DiscoveryResponse response =
        system_->Execute(ver::DiscoveryRequest::ForQuery(q.query));
    s.latency_s = SecondsSince(t);
    if (spec_.clients == 1) s.cpu_s = CpuSeconds() - cpu0;
    s.ok = response.status.ok();
    s.run_s = s.latency_s;
    if (s.ok) {
      *answer = std::make_shared<const ver::QueryResult>(std::move(response.result));
    }
  }
  return s;
}

std::pair<double, double> Runner::ScatterTotals() const {
  std::pair<double, double> totals{0, 0};
  if (server_ != nullptr) {
    for (const ver::ServerStats::ShardStats& s : server_->stats().shards) {
      totals.first += static_cast<double>(s.scatter_queries);
      totals.second += static_cast<double>(s.candidates);
    }
  } else {
    for (const auto& s : system_->engine().shard_counters()) {
      totals.first += static_cast<double>(s.scatter_queries);
      totals.second += static_cast<double>(s.candidates);
    }
  }
  return totals;
}

ver::BufferPoolStats Runner::PoolStats() const {
  const std::shared_ptr<ver::PagerRuntime>& pager = system_->engine().pager();
  return pager == nullptr ? ver::BufferPoolStats() : pager->pool_stats();
}

void Runner::MeasureSnapshotRoundTrip() {
  const std::string path = (fs::path(args_.Get("dir")) / "trace.versnap").string();
  int64_t t = NowNs();
  ver::Status st = system_->engine().Save(path);
  layer_.emplace_back("serde.snapshot_save_s", SecondsSince(t));
  if (!st.ok()) {
    failures_.Add("snapshot save: " + st.ToString());
    return;
  }
  layer_.emplace_back("serde.snapshot_mb",
                      static_cast<double>(fs::file_size(path)) / (1 << 20));
  t = NowNs();
  auto loaded = ver::DiscoveryEngine::Load(repo_, path);
  layer_.emplace_back("serde.snapshot_load_s", SecondsSince(t));
  if (!loaded.ok()) failures_.Add("snapshot load: " + loaded.status().ToString());
  fs::remove(path);
}

void Runner::Pass(std::vector<Sample>* samples, bool record_counts, size_t limit) {
  std::atomic<size_t> next{0};
  std::vector<std::vector<Sample>> per_client(static_cast<size_t>(spec_.clients));
  std::vector<std::vector<std::string>> errors(per_client.size());
  auto client = [&](size_t c) {
    for (size_t i = next.fetch_add(1); i < limit; i = next.fetch_add(1)) {
      std::shared_ptr<const ver::QueryResult> answer;
      Sample s = Execute(queries_[i], &answer);
      s.query = i;
      per_client[c].push_back(s);
      if (!s.ok) {
        errors[c].push_back("query " + std::to_string(i) + " failed");
        continue;
      }
      if (!record_counts) continue;
      // Each query runs once per pass, so only this client touches slot i.
      QueryCounts counts = CountsOf(*answer);
      if (counts_[i].join_graphs < 0) {
        counts_[i] = counts;
      } else if (!(counts_[i] == counts)) {
        errors[c].push_back("query " + std::to_string(i) +
                            " counts changed between passes");
      }
    }
  };
  if (spec_.clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < per_client.size(); ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }
  for (size_t c = 0; c < per_client.size(); ++c) {
    samples->insert(samples->end(), per_client[c].begin(), per_client[c].end());
    for (const std::string& e : errors[c]) failures_.Add(e);
  }
}

Metrics Runner::EndToEnd(const std::vector<Sample>& samples,
                         const std::vector<double>& pass_cpu_s) {
  // The host's speed drifts over seconds with other tenants' load, and a
  // slow stretch only ever adds time. So every query of the list counts
  // with its best execution over the timed passes: its lowest latency and,
  // with one in-process client, its lowest CPU time. The percentiles are
  // over the query list, and throughput follows from the best latencies by
  // Little's law for a closed loop: clients / mean latency.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> best_latency_s(queries_.size(), inf);
  std::vector<double> best_cpu_s(queries_.size(), inf);
  std::vector<double> raw_latency_ms;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    best_latency_s[s.query] = std::min(best_latency_s[s.query], s.latency_s);
    best_cpu_s[s.query] = std::min(best_cpu_s[s.query], s.cpu_s);
    raw_latency_ms.push_back(s.latency_s * 1e3);
  }
  std::vector<double> latency_ms;
  double latency_sum_s = 0;
  double cpu_sum_s = 0;
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (best_latency_s[i] == inf) continue;  // failed every time; logged
    latency_ms.push_back(best_latency_s[i] * 1e3);
    latency_sum_s += best_latency_s[i];
    cpu_sum_s += best_cpu_s[i];
  }
  const double n = static_cast<double>(latency_ms.size());
  // Served queries overlap in one process, so their CPU time is taken per
  // pass: the pass with the least.
  const double cpu_ms_per_query =
      spec_.clients == 1
          ? cpu_sum_s * 1e3 / n
          : *std::min_element(pass_cpu_s.begin(), pass_cpu_s.end()) * 1e3 /
                static_cast<double>(queries_.size());
  std::fprintf(stderr,
               "every execution: latency p50 %.4g ms, p90 %.4g ms over %zu samples\n",
               Percentile(raw_latency_ms, 0.5), Percentile(raw_latency_ms, 0.9),
               raw_latency_ms.size());

  // Open-data latencies fall into a fast group (single-table answers) and a
  // slow one. A percentile whose rank sat next to the split would jump
  // between the groups from run to run; the query multiset is the same in
  // every run, so require a clear margin instead of hoping for one.
  std::vector<double> sorted = latency_ms;
  std::sort(sorted.begin(), sorted.end());
  size_t split = 0;
  double widest = 1;
  for (size_t k = 0; k + 1 < sorted.size(); ++k) {
    if (sorted[k] > 0 && sorted[k + 1] / sorted[k] > widest) {
      widest = sorted[k + 1] / sorted[k];
      split = k + 1;
    }
  }
  if (widest >= 3) {
    const double share = split / n;
    std::fprintf(stderr, "latency: %.3f of queries below a x%.1f gap\n", share, widest);
    for (double p : {0.5, 0.9}) {
      if (std::abs(share - p) < 0.02) {
        failures_.Add("p" + std::to_string(static_cast<int>(p * 100)) +
                      " sits at the gap between the fast and slow queries");
      }
    }
  }
  return Metrics{{"setup_s", setup_s_},
                 {"queries_per_s", spec_.clients * n / latency_sum_s},
                 {"latency_p50_ms", Percentile(latency_ms, 0.5)},
                 {"latency_p90_ms", Percentile(latency_ms, 0.9)},
                 {"cpu_ms_per_query", cpu_ms_per_query},
                 {"peak_rss_mb", PeakRssMb()}};
}

void Runner::CheckAnswers() {
  const uint64_t seed = std::stoull(args_.Get("seed", "1"));
  fingerprints_.assign(queries_.size(), 0);
  const size_t total = queries_.size() + extra_checks_.size();
  std::atomic<size_t> next{0};
  auto checker = [&] {
    for (size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
      // Timed queries first, then the draws that are only checked.
      const bool timed = i < queries_.size();
      const BenchQuery& q = timed ? queries_[i] : extra_checks_[i - queries_.size()];
      std::shared_ptr<const ver::QueryResult> answer;
      if (!Execute(q, &answer).ok) {
        failures_.Add("query " + std::to_string(i) + " failed in the check pass");
        continue;
      }
      if (timed && !(CountsOf(*answer) == counts_[i])) {
        failures_.Add("query " + std::to_string(i) +
                      " counts differ from the timed passes");
      }
      for (const std::string& f :
           CheckAnswer(repo_, gts_[static_cast<size_t>(q.gt_index)], *answer,
                       seed * 7919 + i, 2)) {
        failures_.Add("query " + std::to_string(i) + " (" +
                      ver::NoiseLevelToString(q.noise) + "): " + f);
      }
      if (timed) fingerprints_[i] = RankingFingerprint(*answer);
    }
  };
  // The checks are not measured, so they use every core (at most four).
  std::vector<std::thread> threads;
  const unsigned cores = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (unsigned c = 0; c < cores; ++c) threads.emplace_back(checker);
  for (std::thread& t : threads) t.join();
}

void Runner::TracePass() {
  // One client, one query at a time: untraced Execute and the traced
  // layer-by-layer path back to back on the same query, alternating which
  // goes first. Their difference is the tracing overhead; both rankings
  // must equal the checked answer's.
  double execute_ms = 0;
  for (size_t i = 0; i < queries_.size(); ++i) {
    const ver::ExampleQuery& query = queries_[i].query;
    ver::DiscoveryResponse untraced;
    ver::QueryResult layered;
    for (int turn = 0; turn < 2; ++turn) {
      if ((turn + i) % 2 == 0) {
        const int64_t t = NowNs();
        untraced = system_->Execute(ver::DiscoveryRequest::ForQuery(query));
        execute_ms += SecondsSince(t) * 1e3;
      } else {
        layered = TracedQuery(*system_, repo_, query, static_cast<int64_t>(i),
                              tracer_.get());
      }
    }
    if (RankingFingerprint(layered) != fingerprints_[i] ||
        RankingFingerprint(untraced.result) != fingerprints_[i]) {
      failures_.Add("query " + std::to_string(i) +
                    ": traced ranking differs from Execute's");
    }
  }
  const double n = static_cast<double>(queries_.size());
  const Tracer& tr = *tracer_;
  const double layers_ms = tr.TotalMs("column_selection") + tr.TotalMs("join_graph_search") +
                           tr.TotalMs("materializer") + tr.TotalMs("distillation") +
                           tr.TotalMs("ranking");
  const double views = tr.TotalCount("views");
  const double combinations = tr.TotalCount("combinations");
  Metrics m = {
      {"column_selection.ms_per_query", tr.TotalMs("column_selection") / n},
      {"column_selection.candidates_per_query", tr.TotalCount("candidates") / n},
      {"join_graph_search.ms_per_query", tr.TotalMs("join_graph_search") / n},
      {"join_graph_search.combinations_per_query", combinations / n},
      {"join_graph_search.join_graphs_per_query", tr.TotalCount("join_graphs") / n},
      {"join_graph_search.joinable_ratio",
       combinations > 0 ? tr.TotalCount("joinable_groups") / combinations : 0},
      {"materializer.ms_per_query", tr.TotalMs("materializer") / n},
      {"materializer.views_per_query", views / n},
      {"materializer.rows_per_query", tr.TotalCount("rows") / n},
      {"materializer.failures_per_query", tr.TotalCount("failures") / n},
      {"materializer.useful_ratio", views > 0 ? tr.TotalCount("surviving") / views : 0},
      {"distillation.ms_per_query", tr.TotalMs("distillation") / n},
      {"distillation.sp_ms", tr.TotalCount("sp_ms") / n},
      {"distillation.hash_c1_ms", tr.TotalCount("hash_c1_ms") / n},
      {"distillation.c2_ms", tr.TotalCount("c2_ms") / n},
      {"distillation.c3_c4_ms", tr.TotalCount("c3_c4_ms") / n},
      {"distillation.views_in", tr.TotalCount("views_in") / n},
      {"distillation.surviving", tr.TotalCount("surviving") / n},
      {"ranking.ms_per_query", tr.TotalMs("ranking") / n},
      {"api.other_ms_per_query", (execute_ms - layers_ms) / n},
      {"trace.overhead_ms_per_query", (tr.TotalMs("query") - execute_ms) / n},
      {"trace.spans", static_cast<double>(tr.spans().size())},
  };
  layer_.insert(layer_.end(), m.begin(), m.end());
}

int Runner::Main() {
  const double seconds = std::stod(args_.Get("seconds", "10"));
  const bool traced = args_.Get("trace", "0") == "1";
  ver::Status st = SetUp();
  if (!st.ok()) {
    std::fprintf(stderr, "run: set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (traced) tracer_ = std::make_unique<Tracer>();
  std::fprintf(stderr, "host: %s\n", HostJson().c_str());

  // Warm-up: the first queries once, untimed, so lazy set-up and the
  // allocator settle before the clock starts.
  std::vector<Sample> warm;
  Pass(&warm, false, std::min<size_t>(16, queries_.size()));

  // Timed window: whole passes over the query list until `seconds` have
  // passed, so every run attempts whole rounds of the same queries.
  // Served, each pass ends with one more operation: the pager bound, which
  // holds if the pool's peak residency stays within the budget or pinned
  // working sets forced an overcommit.
  const ver::BufferPoolStats pool0 = PoolStats();
  const std::pair<double, double> scatter0 = ScatterTotals();
  std::vector<Sample> samples;
  std::vector<double> pass_cpu_s;
  int64_t attempted = 0;
  int64_t failed = 0;
  const int64_t t0 = NowNs();
  // At least 100 timed queries, so that p90 has ten samples beyond it.
  const size_t min_passes = (100 + queries_.size() - 1) / queries_.size();
  for (size_t pass = 0; pass < min_passes || SecondsSince(t0) < seconds; ++pass) {
    const int64_t pass_t0 = NowNs();
    const double pass_cpu0 = CpuSeconds();
    const size_t before = samples.size();
    Pass(&samples, true, queries_.size());
    pass_cpu_s.push_back(CpuSeconds() - pass_cpu0);
    std::fprintf(stderr, "pass %zu: %.3f s wall, %.3f s cpu\n", pass,
                 SecondsSince(pass_t0), pass_cpu_s.back());
    for (size_t k = before; k < samples.size(); ++k) {
      ++attempted;
      failed += samples[k].ok ? 0 : 1;
    }
    if (spec_.served) {
      const ver::BufferPoolStats pool = PoolStats();
      ++attempted;
      if (pool.peak_resident_bytes > static_cast<int64_t>(budget_bytes_) &&
          pool.pinned_overcommit == 0) {
        ++failed;
        std::fprintf(stderr,
                     "pager bound failed: peak residency %lld B over the budget "
                     "%llu B with no pinned overcommit\n",
                     static_cast<long long>(pool.peak_resident_bytes),
                     static_cast<unsigned long long>(budget_bytes_));
      }
    }
  }
  const double wall_s = SecondsSince(t0);
  std::fprintf(stderr, "timed: %zu queries in %.3f s\n", samples.size(), wall_s);
  Metrics metrics = EndToEnd(samples, pass_cpu_s);
  const ver::BufferPoolStats pool1 = PoolStats();
  const std::pair<double, double> scatter1 = ScatterTotals();
  const double n = static_cast<double>(samples.size());

  if (samples.size() < 100) {
    failures_.Add("only " + std::to_string(samples.size()) +
                  " timed queries; percentiles need at least 100");
  }

  CheckAnswers();

  if (traced) {
    TracePass();
    std::vector<double> waits, runs;
    for (const Sample& s : samples) {
      waits.push_back(s.queue_wait_s * 1e3);
      runs.push_back(s.run_s * 1e3);
    }
    const double hits = static_cast<double>(pool1.hits - pool0.hits);
    const double misses = static_cast<double>(pool1.misses - pool0.misses);
    Metrics m = {
        {"discovery.scatter_queries", (scatter1.first - scatter0.first) / n},
        {"discovery.shard_candidates", (scatter1.second - scatter0.second) / n},
        {"serving.queue_wait_p50_ms", spec_.served ? Percentile(waits, 0.5) : 0},
        {"serving.queue_wait_p90_ms", spec_.served ? Percentile(waits, 0.9) : 0},
        {"serving.run_p50_ms", spec_.served ? Percentile(runs, 0.5) : 0},
        {"pager.hits_per_query", hits / n},
        {"pager.misses_per_query", misses / n},
        {"pager.evictions_per_query",
         static_cast<double>(pool1.evictions - pool0.evictions) / n},
        {"pager.load_waits", static_cast<double>(pool1.load_waits - pool0.load_waits) / n},
        {"pager.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0},
        {"pager.peak_resident_mb",
         static_cast<double>(pool1.peak_resident_bytes) / (1 << 20)},
    };
    layer_.insert(layer_.end(), m.begin(), m.end());
    if (!spec_.served) MeasureSnapshotRoundTrip();
    const std::string spans = args_.Get("spans");
    if (!spans.empty()) {
      ver::Status st = tracer_->WriteJson(spans, HostJson(), layer_);
      if (!st.ok()) failures_.Add(st.ToString());
    }
  }
  metrics.insert(metrics.end(), layer_.begin(), layer_.end());
  PrintResult(failures_.count() == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 2;
    }
    args.flags[key.substr(2)] = argv[i + 1];
  }
  const perfbench::WorkloadSpec* spec =
      perfbench::FindWorkload(args.Get("workload"));
  if (spec == nullptr || args.Get("dir").empty()) {
    std::fprintf(stderr,
                 "usage: perfbench gen|snapshot|run --workload W --dir D ...\n");
    return 2;
  }
  if (args.command == "gen") return perfbench::Gen(args, *spec);
  if (args.command == "snapshot") return perfbench::Snapshot(args, *spec);
  if (args.command == "run") {
    perfbench::Runner runner(*spec, args);
    return runner.Main();
  }
  std::fprintf(stderr, "unknown command %s\n", args.command.c_str());
  return 2;
}
