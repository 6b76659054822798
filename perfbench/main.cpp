// Mars performance benchmark driver.
//
//   mars_perfbench --workload W --seed N --seconds S --trace 0|1
//
// Runs one workload (train_mars_gnmt or serve_repeat_refine), prints a
// human-readable report on lines starting with "# ", and ends with one JSON
// line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see perfbench/README.md). Exits non-zero when a correctness check fails.
#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "harness.h"
#include "util/logging.h"

namespace mars::perfbench {

namespace {

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"core.pretrain_s", "s"},
    {"core.sample_ms", "ms"},
    {"core.reeval_ms", "ms"},
    {"core.encode_ms", "ms"},
    {"core.place_sample_ms", "ms"},
    {"core.place_reeval_ms", "ms"},
    {"tensor.backward_ms", "ms"},
    {"nn.adam_step_ms", "ms"},
    {"rl.update_s", "s"},
    {"rl.cache_hit_ratio", "ratio"},
    {"rl.best_step_time_s", "s_sim"},
    {"sim.measure_us", "us"},
    {"sim.trials", "count"},
    {"tensor.arena_misses", "count"},
    {"serve.parse_ms", "ms"},
    {"graph.coarsen_ms", "ms"},
    {"core.decode_batch_ms", "ms"},
    {"serve.serialize_us", "us"},
    {"serve.handle_ms", "ms"},
    {"serve.decode_ms", "ms"},
    {"serve.refine_ms", "ms"},
    {"serve.batch_size", "count"},
    {"serve.coalesced_ratio", "ratio"},
    {"serve.fallback_ratio", "ratio"},
    {"serve.work_ratio", "ratio"},
    {"serve.wait_ms", "ms"},
    {"sim.simulate_us", "us"},
    {"baselines.refine_ms", "ms"},
    {"baselines.partition_ms", "ms"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// The final result line: exactly the declared metrics of this mode. A
/// per-layer metric a workload does not exercise reads 0; a missing
/// end-to-end metric is a harness bug and fails the run.
std::string result_line(Result& result, bool trace) {
  const auto& declared = trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, unit] : declared) {
    auto it = result.metrics.find(name);
    if (it == result.metrics.end()) {
      result.check(trace, "metric " + name + " was measured");
      result.metrics[name] = {0.0, unit};
    } else {
      result.check(it->second.unit == unit, "metric " + name + " unit");
      result.check(std::isfinite(it->second.value),
                   "metric " + name + " is finite");
    }
  }
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : declared) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", result.metrics[name].value);
    if (!first) line += ", ";
    first = false;
    line += "\"" + json_escape(name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + json_escape(unit) + "\"}";
  }
  line += "}}";
  return line;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload train_mars_gnmt|serve_repeat_refine "
               "--seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failed_checks.push_back(what);
  note("CHECK FAILED: %s", what.c_str());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = median(values);
  s.tail = values.back();
  s.tail_label = "max";
  const double n = static_cast<double>(values.size());
  const std::pair<double, const char*> candidates[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}};
  for (const auto& [q, label] : candidates) {
    if (n * (1.0 - q) + 1e-9 < 10.0) continue;
    // Nearest-rank percentile.
    const size_t rank = static_cast<size_t>(std::ceil(q * n));
    s.tail = values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
    s.tail_label = label;
    break;
  }
  return s;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void note(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  std::printf("# %s\n", buf);
  std::fflush(stdout);
}

}  // namespace mars::perfbench

int main(int argc, char** argv) {
  using namespace mars::perfbench;
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || argc % 2 == 0 || !(options.seconds > 0))
    return usage(argv[0]);
  mars::set_log_level(mars::LogLevel::kWarn);

  // OpenMP threads come from OMP_NUM_THREADS (run.py pins it to 1); the
  // daemon's worker threads inherit the same setting.
  int worker_omp = 0;
  std::thread([&] { worker_omp = omp_get_max_threads(); }).join();
  note("workload %s seed %llu seconds %.0f trace %d", options.workload.c_str(),
       static_cast<unsigned long long>(options.seed), options.seconds,
       options.trace ? 1 : 0);
  note("nproc %ld, build %s, omp threads %d (worker threads %d), trial "
       "threads %u, daemon workers %u, closed-loop clients %u",
       sysconf(_SC_NPROCESSORS_ONLN), MARS_PERFBENCH_BUILD_TYPE,
       omp_get_max_threads(), worker_omp, Threads::kTrial,
       Threads::kDaemonWorkers, Threads::kClosedLoopClients);

  Result result;
  if (options.workload == "train_mars_gnmt") {
    result = run_train(options);
  } else if (options.workload == "serve_repeat_refine") {
    result = run_serve_repeat(options);
  } else {
    return usage(argv[0]);
  }
  result.check(omp_get_max_threads() == 1 && worker_omp == 1,
               "OpenMP pinned to one thread (set OMP_NUM_THREADS=1)");
  const std::string line = result_line(result, options.trace);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
