// modb_perfbench: the end-to-end benchmark of the sharded query server.
//
//   modb_perfbench --workload sweep|churn --seed N --seconds S
//                  --trace 0|1 --dir SCRATCH [--trace-out FILE]
//
// Prints the workload's inputs, one "metric <name> = <value> <unit>" line
// per metric, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 the per-layer metrics. See README.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/bench.h"
#include "perfbench/workload.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "modb_perfbench: %s\nusage: modb_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --dir DIR "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace modb::perfbench;
  std::string workload;
  std::string seed;
  std::string seconds;
  std::string trace = "0";
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = value;
    } else if (flag == "--seconds") {
      seconds = value;
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--dir") {
      config.dir = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (seed.empty() || seconds.empty() || config.dir.empty()) {
    return Usage("--seed, --seconds and --dir are required");
  }
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");
  char* end = nullptr;
  const unsigned long long seed_value = std::strtoull(seed.c_str(), &end, 10);
  if (*end != '\0') return Usage("--seed must be a whole number");
  config.seconds = std::strtod(seconds.c_str(), &end);
  if (*end != '\0' || !(config.seconds > 0 && config.seconds <= 3600)) {
    return Usage("--seconds must be in (0, 3600]");
  }

  Workload w;
  if (!MakeWorkload(workload, seed_value, &w)) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  const RunResult r =
      trace == "1" ? RunTraced(w, config) : RunMeasured(w, config);

  for (const Metric& m : r.metrics) {
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
