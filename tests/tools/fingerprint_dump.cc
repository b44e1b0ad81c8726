// fingerprint_dump: prints the Fingerprint() (tests/query_fingerprint.h) of
// a fixed query set, one line per query, so two builds of Ver can be
// compared for bit-identical answers with a plain diff
// (scripts/check_fingerprints.sh does exactly that).
//
// The query set: every ground-truth query of a generated open-data lake and
// of a WDC-like lake, each at zero, medium and high noise, run in batch mode
// and as a StopAfter(1) streaming request. Each line is
//
//   <lake> <mode> q<ground-truth index> <noise> views=<n> survivors=<n>
//       fp=<64-bit hash of the fingerprint>/<fingerprint length>
//
// (on one line). Lakes, example rows and configuration are fixed, so the
// output depends only on the code under test.
//
// Usage: fingerprint_dump (no arguments)

#include <cinttypes>
#include <cstdio>
#include <string>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "core/ver.h"
#include "query_fingerprint.h"
#include "util/hash.h"
#include "workload/noisy_query.h"
#include "workload/open_data_gen.h"
#include "workload/wdc_gen.h"

namespace {

constexpr ver::NoiseLevel kNoise[] = {ver::NoiseLevel::kZero,
                                      ver::NoiseLevel::kMedium,
                                      ver::NoiseLevel::kHigh};

// Runs every query of `data` in both modes and prints one line per run.
// Returns false when a query cannot be built or does not answer OK.
bool DumpLake(const char* lake, const ver::GeneratedDataset& data) {
  ver::Ver system(&data.repo, ver::VerConfig());
  for (size_t g = 0; g < data.queries.size(); ++g) {
    for (size_t n = 0; n < 3; ++n) {
      ver::Result<ver::ExampleQuery> query = ver::MakeNoisyQuery(
          data.repo, data.queries[g], kNoise[n], /*rows_per_column=*/3,
          /*seed=*/g * 131 + n);
      if (!query.ok()) {
        std::fprintf(stderr, "%s q%zu: %s\n", lake, g,
                     query.status().ToString().c_str());
        return false;
      }
      for (int stop_after : {0, 1}) {
        ver::DiscoveryRequest request =
            ver::DiscoveryRequest::ForQuery(query.value());
        if (stop_after > 0) request.StopAfter(stop_after);
        ver::DiscoveryResponse response = system.Execute(request);
        if (!response.status.ok()) {
          std::fprintf(stderr, "%s q%zu: %s\n", lake, g,
                       response.status.ToString().c_str());
          return false;
        }
        const std::string fp = ver::Fingerprint(response.result);
        std::printf("%s %s q%zu %s views=%zu survivors=%zu fp=%016" PRIx64
                    "/%zu\n",
                    lake, stop_after > 0 ? "stop_after_1" : "batch", g,
                    ver::NoiseLevelToString(kNoise[n]),
                    response.result.views.size(),
                    response.result.distillation.surviving.size(),
                    ver::HashString(fp), fp.size());
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  if (!DumpLake("open_data", ver::GenerateOpenDataLike(ver::OpenDataSpec()))) {
    return 1;
  }
  ver::WdcSpec wdc;
  wdc.versions_per_topic = 5;
  wdc.num_filler_tables = 40;
  return DumpLake("wdc", ver::GenerateWdcLike(wdc)) ? 0 : 1;
}
