// Shared pieces of the Mars performance benchmark: run options, the result
// record every workload fills, per-layer call timers, and small statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace mars::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Fixed thread counts, identical on every run (recorded in the output).
/// One compute thread per workload: on a shared machine, runs that need
/// several cores at once measure the neighbours as much as the program.
struct Threads {
  static constexpr unsigned kTrial = 1;  // TrialEnv evaluation threads
  static constexpr unsigned kDaemonWorkers = 1;
  static constexpr unsigned kClosedLoopClients = 2;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds end-to-end metrics for an
/// untraced run and per-layer metrics for a traced one.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failed_checks;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a correctness check; a failed one fails the whole run.
  void check(bool ok, const std::string& what);
};

/// Wall-clock spent inside one layer's calls.
struct LayerClock {
  double total_s = 0;
  int64_t calls = 0;
  void add(double s) {
    total_s += s;
    ++calls;
  }
  double mean_ms() const { return calls ? total_s * 1e3 / calls : 0.0; }
  double mean_us() const { return calls ? total_s * 1e6 / calls : 0.0; }
};

/// Times `fn()` into `clock` and returns its result.
template <typename Fn>
auto timed(LayerClock& clock, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    clock.add(seconds_since(t0));
  } else {
    auto out = fn();
    clock.add(seconds_since(t0));
    return out;
  }
}

/// Median and the highest of p90/p95/p99/p99.9 that still has at least ten
/// samples above it (the maximum when there are too few samples for p90).
struct Summary {
  size_t count = 0;
  double p50 = 0;
  double tail = 0;
  std::string tail_label;
};
Summary summarize(std::vector<double> values);
double median(std::vector<double> values);

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

/// Printed report lines go to stdout prefixed with "# " so the result JSON
/// stays the only unprefixed (and last) line.
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

Result run_train(const Options& options);
Result run_serve_repeat(const Options& options);

}  // namespace mars::perfbench
