// dop_bench: one closed-loop DOP workload, measured for a fixed time.
//
//   dop_bench --workload coop_read|sockets --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a report line ({"report": ...}: host fingerprint, per-op and
// per-status failure counts, op-type hashes, raw set-up samples) and,
// last, the result line: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the
// workload untraced and then traced, and reports the per-layer metrics
// and the tracing overhead.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dop_bench --workload coop_read|sockets "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t process_start = perfbench::NowNs();
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.seconds < 1) return Usage();

  std::unique_ptr<perfbench::Workload> workload;
  if (options.workload == "coop_read") {
    workload = perfbench::MakeInProcess(options);
  } else if (options.workload == "sockets") {
    workload = perfbench::MakeSockets(options);
  } else {
    return Usage();
  }
  perfbench::RunResult result =
      perfbench::RunWorkload(options, process_start, *workload);
  workload.reset();

  std::ostringstream report;
  report << "{\"report\":{\"workload\":" << perfbench::JsonString(options.workload)
         << ",\"seed\":" << options.seed << ",\"seconds\":" << options.seconds
         << ",\"trace\":" << (options.trace ? 1 : 0)
         << ",\"host\":" << perfbench::HostFingerprint();
  for (const auto& [key, json] : result.report) {
    report << "," << perfbench::JsonString(key) << ":" << json;
  }
  report << ",\"check_errors\":[";
  for (size_t i = 0; i < result.check_errors.size(); ++i) {
    report << (i ? "," : "") << perfbench::JsonString(result.check_errors[i]);
  }
  report << "]}}";
  std::printf("%s\n", report.str().c_str());

  std::ostringstream line;
  line.precision(17);
  line << "{\"correct\":" << (result.correct ? "true" : "false")
       << ",\"attempted\":" << result.attempted
       << ",\"failed\":" << result.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    line << (first ? "" : ",") << perfbench::JsonString(name)
         << ":{\"value\":" << metric.value
         << ",\"unit\":" << perfbench::JsonString(metric.unit) << "}";
    first = false;
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  return 0;
}
