#include "workload.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "workload/open_data_gen.h"
#include "workload/wdc_gen.h"

namespace perfbench {

namespace {

// Sizes are set in README.md's workload table; keep the two in step.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    WorkloadSpec open;
    open.name = "open_data_batch";
    open.open_data_tables = 640;
    open.open_data_queries = 80;
    // One draw is timed: 80 queries take about 4 s a pass, so each runs
    // five or more times in a run and counts with its best execution
    // (README.md, "Best of the passes"). All three draws are checked.
    open.draws_per_query = 1;
    open.checked_draws_per_query = 3;
    open.workers = 0;
    open.clients = 1;

    WorkloadSpec wdc;
    wdc.name = "wdc_versions";
    wdc.wdc = true;
    wdc.wdc_versions_per_topic = 5;
    wdc.wdc_filler_tables = 40;
    // Five versions per topic: queries of about 70 ms, so all five draws
    // are timed and each runs about 17 times in a 30 s run. At eight versions
    // (about 170 ms and 100 MB a query) the run's figures moved by up to
    // 40% with other tenants' load on the shared host, and 4C weighed less
    // (18% of a query against 25% here).
    wdc.draws_per_query = 5;
    wdc.checked_draws_per_query = 5;
    wdc.clients = 1;

    WorkloadSpec served = open;
    served.name = "served_paged_sharded";
    served.served = true;
    served.shards = 4;
    served.scatter_parallelism = 2;
    served.workers = 2;
    served.clients = 2;
    served.budget_share = 0.1;
    // Every second ground-truth query is timed (indices 1, 3, 5, ...: 40%
    // of them fast; of the others exactly half are, which would put p50 at
    // the gap between fast and slow queries): 40 queries make a pass of
    // about 1.7 s on two clients, so each runs about 17 times in a 30 s run.
    // With all 80 timed (7 or 8 executions each), the medians moved by 15%
    // between runs with the host's slow stretches. All 240 are checked.
    served.timed_gt_stride = 2;
    return std::vector<WorkloadSpec>{open, wdc, served};
  }();
  return kWorkloads;
}

// Example rows per query attribute, as in the repository's figure benches.
constexpr int kRowsPerColumn = 3;

constexpr ver::NoiseLevel kNoiseCycle[3] = {
    ver::NoiseLevel::kZero, ver::NoiseLevel::kMedium, ver::NoiseLevel::kHigh};

// Ground-truth names are written tab-separated, one field per cell.
bool PlainField(const std::string& s) {
  return s.find_first_of("\t\n\r") == std::string::npos;
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, '\t')) out.push_back(field);
  if (!line.empty() && line.back() == '\t') out.push_back("");
  return out;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

ver::Status GenerateLake(const WorkloadSpec& spec, const std::string& dir) {
  // The lake itself is fixed per workload (the generators' own default
  // seeds); only the query draws depend on --seed. A seed-dependent lake
  // would make the spread between seeds measure lake shape, not timing.
  ver::GeneratedDataset data;
  if (spec.wdc) {
    ver::WdcSpec w;
    w.versions_per_topic = spec.wdc_versions_per_topic;
    w.num_filler_tables = spec.wdc_filler_tables;
    data = ver::GenerateWdcLike(w);
  } else {
    ver::OpenDataSpec o;
    o.num_tables = spec.open_data_tables;
    o.num_queries = spec.open_data_queries;
    data = ver::GenerateOpenDataLike(o);
  }
  namespace fs = std::filesystem;
  VER_RETURN_IF_ERROR(data.repo.SaveDirectory((fs::path(dir) / "lake").string()));

  std::ofstream out(fs::path(dir) / "ground_truth.tsv");
  for (const ver::GroundTruthQuery& gt : data.queries) {
    std::vector<std::string> fields = {gt.name};
    for (size_t i = 0; i < gt.gt_tables.size(); ++i) {
      fields.push_back(gt.gt_tables[i]);
      fields.push_back(gt.gt_attributes[i]);
    }
    out << "Q";
    for (const std::string& f : fields) {
      if (!PlainField(f)) {
        return ver::Status::InvalidArgument("ground-truth name with a tab: " + f);
      }
      out << '\t' << f;
    }
    out << '\n';
    for (const ver::GtJoin& j : gt.joins) {
      for (const std::string* f :
           {&j.left_table, &j.left_attribute, &j.right_table,
            &j.right_attribute}) {
        if (!PlainField(*f)) {
          return ver::Status::InvalidArgument("join name with a tab: " + *f);
        }
      }
      out << "J\t" << j.left_table << '\t' << j.left_attribute << '\t'
          << j.right_table << '\t' << j.right_attribute << '\n';
    }
  }
  out.close();
  if (!out) return ver::Status::IOError("cannot write ground_truth.tsv");
  return ver::Status::OK();
}

ver::Result<std::vector<ver::GroundTruthQuery>> ReadGroundTruth(
    const std::string& dir) {
  std::ifstream in(std::filesystem::path(dir) / "ground_truth.tsv");
  if (!in) return ver::Status::IOError("cannot read ground_truth.tsv");
  std::vector<ver::GroundTruthQuery> out;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> f = SplitTabs(line);
    if (f.size() >= 4 && f[0] == "Q" && f.size() % 2 == 0) {
      ver::GroundTruthQuery gt;
      gt.name = f[1];
      for (size_t i = 2; i + 1 < f.size(); i += 2) {
        gt.gt_tables.push_back(f[i]);
        gt.gt_attributes.push_back(f[i + 1]);
      }
      out.push_back(std::move(gt));
    } else if (f.size() == 5 && f[0] == "J" && !out.empty()) {
      out.back().joins.push_back(ver::GtJoin{f[1], f[2], f[3], f[4]});
    } else {
      return ver::Status::InvalidArgument("bad ground_truth.tsv line: " + line);
    }
  }
  if (out.empty()) return ver::Status::InvalidArgument("no ground-truth queries");
  return out;
}

ver::Result<std::vector<BenchQuery>> MakeQueries(
    const WorkloadSpec& spec, const ver::TableRepository& repo,
    const std::vector<ver::GroundTruthQuery>& gts, bool timed, uint64_t seed) {
  std::vector<BenchQuery> out;
  for (int k = 0; k < spec.checked_draws_per_query; ++k) {
    for (size_t g = 0; g < gts.size(); ++g) {
      const bool timed_query =
          k < spec.draws_per_query && (g + 1) % static_cast<size_t>(spec.timed_gt_stride) == 0;
      if (timed_query != timed) continue;
      BenchQuery q;
      q.gt_index = static_cast<int>(g);
      q.noise = kNoiseCycle[(g + k) % 3];
      VER_ASSIGN_OR_RETURN(
          q.query, ver::MakeNoisyQuery(repo, gts[g], q.noise, kRowsPerColumn,
                                       SplitMix(g * 131ULL + k)));
      out.push_back(std::move(q));
    }
  }
  std::shuffle(out.begin(), out.end(), std::mt19937_64(SplitMix(seed)));
  return out;
}

}  // namespace perfbench
