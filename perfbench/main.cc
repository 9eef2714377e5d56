// Benchmark program: runs one workload and prints its metrics.
//
//   objrep_perfbench --workload hot_read|served_mix --seed N
//                    --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints "detail <json>" lines (exact counts, sample counts, ladder
// steps), then one "result <json>" line: correct, attempted, failed and a
// flat name -> value map. perfbench/run.py builds this program, attaches
// units from BENCHMARK.json and prints the benchmark's result line. Exit
// status: 0 on a correct run, 1 on a wrong answer, 2 when the run could
// not be made.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ledger.h"
#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: objrep_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using objrep::perfbench::JsonObject;
  objrep::perfbench::RunArgs args;
  args.trace_path = "trace.json";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value");
    const char* val = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = val;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(val, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(val, "0") != 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      args.trace_path = val;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_workload || args.seconds <= 0) return Usage("bad arguments");

  objrep::perfbench::Report report;
  objrep::Status s = objrep::perfbench::RunBenchmark(args, &report);
  if (!s.ok()) {
    std::fprintf(stderr, "run failed: %s\n", s.ToString().c_str());
    return 2;
  }
  std::printf("detail %s\n",
              JsonObject()
                  .Str("build_type", OBJREP_BUILD_TYPE)
                  .Str("compiler", OBJREP_COMPILER)
                  .Str("device", "simulated in-memory volume, "
                                 "io_latency_us=0 (not a disk)")
                  .Num("io_latency_us", 0)
                  .Num("seed", static_cast<double>(args.seed))
                  .str()
                  .c_str());
  for (const std::string& d : report.details) {
    std::printf("detail %s\n", d.c_str());
  }
  JsonObject values;
  for (const auto& [name, v] : report.values) values.Num(name, v);
  JsonObject result;
  result.Bool("correct", report.correct);
  if (!report.correct) result.Str("error", report.error);
  result.Num("attempted", static_cast<double>(report.attempted))
      .Num("failed", static_cast<double>(report.failed))
      .Raw("values", values.str());
  std::printf("result %s\n", result.str().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
