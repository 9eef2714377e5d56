// The benchmark's three workloads (see BENCHMARK.json and layers.json).
//
// Each run builds its database from the seed, checks the engine's answers
// and I/O accounting, measures, and reports flat name -> value metrics:
// the end-to-end set from an untraced run, the per-layer set from a traced
// one. Names and units are declared once, in BENCHMARK.json; run.py
// attaches the units and checks that every declared metric is present.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace objrep {
namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_path;
};

struct Report {
  /// False when an answer or an accounting identity was wrong; `error`
  /// then says which.
  bool correct = true;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  /// One JSON object each: environment, exact counts, sample counts.
  std::vector<std::string> details;
};

/// Runs `args.workload`. A non-OK status means the run could not be made
/// (engine error, unknown workload); a wrong answer is reported through
/// `report->correct` instead.
Status RunBenchmark(const RunArgs& args, Report* report);

}  // namespace perfbench
}  // namespace objrep

#endif  // PERFBENCH_WORKLOADS_H_
