// Workload definitions of the view-discovery benchmark: which lake each
// workload generates, how its query list is drawn from the seed, and how it
// is served. The lake is written to disk as CSV by one process and read back
// by another, so the measured process never holds the generator's memory.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"
#include "storage/repository.h"
#include "util/result.h"
#include "workload/ground_truth.h"
#include "workload/noisy_query.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Lake generator: the open-data portal or the WDC-like version-heavy lake.
  bool wdc = false;
  int open_data_tables = 0;
  int open_data_queries = 0;
  int wdc_versions_per_topic = 0;
  int wdc_filler_tables = 0;
  /// Example-row draws per ground-truth query; draw k of query g uses
  /// noise level zero, medium, high for (g + k) % 3 = 0, 1, 2. The timed
  /// passes run draws [0, draws_per_query); the answer checks also run
  /// draws [draws_per_query, checked_draws_per_query), so every
  /// ground-truth query is checked at every noise level.
  int draws_per_query = 0;
  int checked_draws_per_query = 0;
  /// The timed passes run ground-truth queries g with (g + 1) %
  /// timed_gt_stride == 0 only; the others are checked only. A shorter pass repeats each
  /// timed query more often in a run.
  int timed_gt_stride = 1;

  /// Served through VerServer from a paged, sharded snapshot.
  bool served = false;
  int shards = 1;
  int scatter_parallelism = 1;
  int workers = 0;
  int clients = 1;
  /// Buffer-pool budget as a share of the snapshot file size.
  double budget_share = 0;
};

/// The three workloads, by name; null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One query of the benchmark: the examples the analyst gives plus the
/// ground truth they were drawn from (used only by the answer checks).
struct BenchQuery {
  int gt_index = 0;
  ver::NoiseLevel noise = ver::NoiseLevel::kZero;
  ver::ExampleQuery query;
};

/// Generates the workload's lake into `dir/lake/*.csv` and its ground-truth
/// queries into `dir/ground_truth.tsv`.
ver::Status GenerateLake(const WorkloadSpec& spec, const std::string& dir);

/// Reads `dir/ground_truth.tsv`.
ver::Result<std::vector<ver::GroundTruthQuery>> ReadGroundTruth(
    const std::string& dir);

/// A query list in an order shuffled by `seed`: with `timed`, the queries
/// the timed passes run (draws [0, draws_per_query) of every
/// timed_gt_stride-th ground-truth query), else every other draw in
/// [0, checked_draws_per_query), which the answer checks run as well. The
/// draws themselves do not depend on the seed: example rows change a
/// query's cost by more than the bounds allow, so every seed runs the same
/// work, and runs of two commits compare like with like.
ver::Result<std::vector<BenchQuery>> MakeQueries(
    const WorkloadSpec& spec, const ver::TableRepository& repo,
    const std::vector<ver::GroundTruthQuery>& gts, bool timed, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
