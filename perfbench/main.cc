// The repository benchmark's workload runner (see README.md next to this
// file). Usage:
//
//   cdbs_perf --workload <query_corpus|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints one line per metric (name, value, unit, sample count), then, as
// the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ladder metrics. Exits 1 when any answer was wrong, 2 on a usage
// or setup error.

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

bool ParseNumber(const char* raw, double* out) {
  const char* end = raw + std::strlen(raw);
  const auto [ptr, ec] = std::from_chars(raw, end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

bool ParseArgs(int argc, char** argv, perfbench::RunOptions* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    double number = 0;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--workdir") {
      options->workdir = value;
    } else if (!ParseNumber(value, &number) || number < 0) {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), value);
      return false;
    } else if (flag == "--seed") {
      options->seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      options->seconds = number;
    } else if (flag == "--trace") {
      options->trace = number != 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known |= name == options->workload;
  }
  if (!known || options->workdir.empty() || options->seconds <= 0 ||
      argc % 2 == 0) {
    std::fprintf(stderr,
                 "usage: cdbs_perf --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir>\n");
    return false;
  }
  return true;
}

// A finite JSON number with every significant digit.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!ParseArgs(argc, argv, &options)) return 2;
  std::filesystem::create_directories(options.workdir);

  perfbench::Report report;
  if (!perfbench::RunWorkload(options, &report)) {
    for (const std::string& e : report.errors) {
      std::fprintf(stderr, "setup failed: %s\n", e.c_str());
    }
    return 2;
  }

  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0);
  auto print = [](const char* kind, const perfbench::Metric& m) {
    std::printf("%s %-32s %14.4f %-6s n=%" PRIu64 "\n", kind, m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  };
  for (const perfbench::Metric& m : report.metrics) print("metric", m);
  for (const perfbench::Metric& m : report.detail) print("detail", m);
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }

  const bool correct = report.errors.empty() && report.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
